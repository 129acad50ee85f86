import itertools

import numpy as np
import pytest

from stehbein import braiding
from stehbein.braiding import (
    SingularBraidingError,
    apply_word,
    check_braid,
    check_sigma_consistency,
    check_yang_baxter,
    make_braiding,
    sigma_from_tau,
)
from stehbein.frametensor import (
    antisymmetrizer_central,
    basis_field,
    central_as_matrix,
    flip_central,
    identity_central,
    word_tensor,
)
from stehbein.fixtures import random_geometry, random_phase_twist
from stehbein.involution import build_jn, check_fifa

from conftest import random_tau


# ---------------------------------------------------------------------------
# sigma from tau


def test_tau_two_gives_involutive_sigma():
    p = antisymmetrizer_central(3)
    b = sigma_from_tau(2.0 * identity_central(3), p)
    sm = central_as_matrix(b.S)
    assert np.max(np.abs(sm - (np.eye(9) - 2 * central_as_matrix(p)))) <= 1e-14
    assert np.max(np.abs(sm @ sm - np.eye(9))) <= 1e-14


def test_tau_two_with_antisymmetrizer_is_flip():
    b = sigma_from_tau(2.0 * identity_central(3), antisymmetrizer_central(3))
    assert np.max(np.abs(b.S - flip_central(3))) <= 1e-14


def test_tau_zero_gives_minus_identity():
    p = antisymmetrizer_central(3)
    b = sigma_from_tau(np.zeros((3, 3, 3, 3)), p)
    assert np.max(np.abs(b.S + identity_central(3))) <= 1e-14
    assert check_sigma_consistency(b, p) <= 1e-14


def test_sigma_from_tau_shape_mismatch():
    with pytest.raises(ValueError):
        sigma_from_tau(np.zeros((2, 2, 2, 2)), antisymmetrizer_central(3))


# ---------------------------------------------------------------------------
# consistency condition


def test_consistency_flip_antisymmetrizer():
    assert check_sigma_consistency(make_braiding(flip_central(3)), antisymmetrizer_central(3)) == 0.0


# n = 3, the first size tested, keeps the bare seed as its id
@pytest.mark.parametrize("seed,n", [pytest.param(seed, n, id=str(seed) if n == 3 else f"{seed}-n{n}")
                                    for n in (3, 2, 4) for seed in range(50)])
def test_consistency_for_any_tau(seed, n):
    p = antisymmetrizer_central(n)
    b = sigma_from_tau(random_tau(seed, n), p)
    assert check_sigma_consistency(b, p) <= 1e-12


def test_consistency_identity_sigma_fails():
    # (delta + delta) o P has max entry 2 * 1/2 = 1 for the antisymmetrizer
    res = check_sigma_consistency(make_braiding(identity_central(3)), antisymmetrizer_central(3))
    assert res == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# lifted applications


def test_apply_sigma_flip_swaps(su2_braid):
    t = basis_field(3, 2, (0, 2, 1))
    out = apply_word(t, su2_braid, [2])
    assert np.allclose(out.coeffs[0, 1, 2], np.eye(2))


def test_apply_sigma_phase_twist(pt3):
    b, _ = pt3
    t = basis_field(3, 2, (0, 1))
    out = apply_word(t, b, [1])
    assert np.allclose(out.coeffs[1, 0], np.exp(1j * np.pi / 5) * np.eye(2))


def test_word_reverses_triple(su2_braid):
    t = basis_field(3, 2, (0, 1, 2))
    out = apply_word(t, su2_braid, [1, 2, 1])
    assert np.allclose(out.coeffs[2, 1, 0], np.eye(2))


# ---------------------------------------------------------------------------
# braid / Yang-Baxter checkers


def test_braid_flip(su2_braid):
    assert check_braid(su2_braid) == 0.0


def test_braid_phase_twist(pt3_full):
    b, _ = pt3_full
    assert check_braid(b) <= 1e-12


def test_braid_random_fails():
    rng = np.random.default_rng(7)
    s = rng.normal(size=(3,) * 4) + 1j * rng.normal(size=(3,) * 4)
    assert check_braid(make_braiding(s)) > 1e-2


def test_yang_baxter_flip(su2_braid):
    assert check_yang_baxter(build_jn(su2_braid, 2).dense()) == 0.0


def test_yang_baxter_phase_twist(pt3_full):
    b, _ = pt3_full
    assert check_yang_baxter(build_jn(b, 2).dense()) <= 1e-12


def test_yang_baxter_perturbed_flip():
    # pair-diagonal perturbations keep the equation; an off-diagonal one breaks it
    j = build_jn(make_braiding(flip_central(3)), 2).dense()
    j[0, 1, 1, 0] += 0.1
    assert check_yang_baxter(j) > 1e-3


def _yang_baxter_oracle(j):
    """Each side as one three-operand einsum: a nested loop over all nine indices."""
    lhs = np.einsum('abpq,pcdr,qref->abcdef', j, j, j)
    rhs = np.einsum('bcpq,aqrf,rpde->abcdef', j, j, j)
    return float(np.max(np.abs(lhs - rhs)))


def test_yang_baxter_matches_the_three_operand_einsum(su2_braid):
    braids = [su2_braid, random_phase_twist(0, 4)[0], random_phase_twist(0, 5)[0]]
    braids += [random_geometry(seed).braid for seed in range(3)]
    perturbed = build_jn(make_braiding(flip_central(3)), 2).dense()
    perturbed[0, 1, 1, 0] += 0.1
    for j in [build_jn(b, 2).dense() for b in braids] + [perturbed]:
        assert abs(check_yang_baxter(j) - _yang_baxter_oracle(j)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_yang_baxter_path_is_the_one_optimize_true_finds(n):
    rng = np.random.default_rng(n)
    j = rng.normal(size=(n,) * 4) + 1j * rng.normal(size=(n,) * 4)
    sides = []
    for side in braiding.YB_SIDES:
        assert np.einsum_path(side, j, j, j, optimize=True)[0] == braiding.YB_PATH
        searched = np.einsum(side, j, j, j, optimize=True)
        assert np.array_equal(np.einsum(side, j, j, j, optimize=braiding.YB_PATH), searched)
        sides.append(searched)
    assert check_yang_baxter(j) == float(np.max(np.abs(sides[0] - sides[1])))


# ---------------------------------------------------------------------------
# block extension: sigma moving a p-block of strands past a k-block


def block_word(p: int, k: int, offset: int = 0) -> tuple[int, ...]:
    """Word moving a p-block past the following k-block, rightmost letter first.

    Built from the two splitting rules
      sigma((xi x eta) x zeta) = sigma_12 sigma_23,
      sigma(xi x (eta x zeta)) = sigma_23 sigma_12,
    applied until both blocks are single strands.
    """
    if p < 1 or k < 1:
        raise ValueError("block sizes must be >= 1")
    if p == 1 and k == 1:
        return (offset + 1,)
    if p > 1:
        return block_word(1, k, offset) + block_word(p - 1, k, offset + 1)
    return block_word(1, k - 1, offset + 1) + (offset + 1,)


def block_word_alt(p: int, k: int, offset: int = 0) -> tuple[int, ...]:
    """Same map via the opposite bracketing; equal to block_word under the braid equation."""
    if p < 1 or k < 1:
        raise ValueError("block sizes must be >= 1")
    if p == 1 and k == 1:
        return (offset + 1,)
    if k > 1:
        return block_word_alt(p, 1, offset + k - 1) + block_word_alt(p, k - 1, offset)
    return block_word_alt(p - 1, 1, offset) + block_word_alt(1, 1, offset + p - 1)


def test_block_word_trivial():
    assert block_word(1, 1) == (1,)


def test_block_word_two_one():
    assert block_word(2, 1) == (1, 2)


@pytest.mark.parametrize("p,k", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)])
def test_flip_block_extension_is_rotation(su2_braid, p, k):
    # against an explicit permutation oracle on basis monomials
    word = block_word(p, k)
    for idx in itertools.product(range(2), repeat=p + k):
        padded = tuple(idx)
        out = apply_word(basis_field(3, 2, padded), su2_braid, word)
        rotated = padded[p:] + padded[:p]
        assert np.allclose(out.coeffs[rotated], np.eye(2)), (padded, rotated)


@pytest.mark.parametrize("p,k", [(2, 1), (1, 2), (2, 2), (3, 1), (1, 3)])
def test_block_bracketings_agree_for_braid_solution(pt3_full, p, k):
    b, _ = pt3_full
    w1 = word_tensor(b.S, p + k, block_word(p, k))
    w2 = word_tensor(b.S, p + k, block_word_alt(p, k))
    assert np.max(np.abs(w1 - w2)) <= 1e-12


@pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (1, 2, 2)])
def test_extended_blocks_satisfy_braid_equation(pt3_full, sizes):
    # block-level sigma_12 sigma_23 sigma_12 = sigma_23 sigma_12 sigma_23,
    # tracking how each crossing rearranges the blocks (total degree <= 5)
    b, _ = pt3_full
    p, q, r = sizes
    strands = sum(sizes)
    # left side: cross p past q, then p past r (offset q), then q past r
    word_lhs = (block_word(q, r)
                + tuple(l + q for l in block_word(p, r))
                + block_word(p, q))
    # right side: cross q past r (offset p), then p past r, then p past q (offset r)
    word_rhs = (tuple(l + r for l in block_word(p, q))
                + block_word(p, r)
                + tuple(l + p for l in block_word(q, r)))
    w1 = word_tensor(b.S, strands, word_lhs)
    w2 = word_tensor(b.S, strands, word_rhs)
    assert np.max(np.abs(w1 - w2)) <= 1e-10


# ---------------------------------------------------------------------------
# singular S


def test_singular_braiding_is_accepted_silently():
    # construction neither inverts S nor warns; check_fifa judges it
    b = make_braiding(np.zeros((2, 2, 2, 2)))
    assert b.n == 2 and not b.S.any()
    with pytest.raises(SingularBraidingError):
        check_fifa(b)
