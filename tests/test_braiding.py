import itertools

import numpy as np
import pytest

from stehbein.braiding import (
    Braiding,
    SingularBraidingError,
    apply_sigma_at,
    apply_word,
    block_word,
    block_word_alt,
    check_braid,
    check_sigma_consistency,
    check_yang_baxter,
    extend_sigma_block,
    make_braiding,
    sigma_from_tau,
    sigma_on_wedge,
)
from stehbein.fixtures import random_tau
from stehbein.frametensor import (
    antisymmetrizer_central,
    basis_field,
    central_as_matrix,
    flip_central,
    identity_central,
    max_coeff_norm,
    tensor_product,
    wedge_project,
    word_tensor,
)
from stehbein.involution import build_J, check_fifa


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
    assert check_sigma_consistency(flip_central(3), antisymmetrizer_central(3)) == 0.0


@pytest.mark.parametrize("seed", range(50))
def test_consistency_for_any_tau(seed):
    p = antisymmetrizer_central(3)
    b = sigma_from_tau(random_tau(seed), p)
    assert check_sigma_consistency(b, p) <= 1e-12


def test_consistency_identity_sigma_fails():
    # (delta + delta) o P has max entry 2 * 1/2 = 1 for the antisymmetrizer
    res = check_sigma_consistency(identity_central(3), antisymmetrizer_central(3))
    assert res == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# lifted applications


def test_apply_sigma_flip_swaps(su2_braid):
    t = basis_field(3, 2, (0, 2, 1))
    out = apply_sigma_at(t, su2_braid, 2)
    assert np.allclose(out.coeffs[0, 1, 2], np.eye(2))


def test_apply_sigma_phase_twist(pt3):
    b, _ = pt3
    t = basis_field(3, 2, (0, 1))
    out = apply_sigma_at(t, b, 1)
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
    assert check_yang_baxter(build_J(su2_braid.S)) == 0.0


def test_yang_baxter_phase_twist(pt3_full):
    b, _ = pt3_full
    assert check_yang_baxter(build_J(b.S)) <= 1e-12


def test_yang_baxter_perturbed_flip():
    # pair-diagonal perturbations keep the equation; an off-diagonal one breaks it
    j = build_J(flip_central(3))
    j[0, 1, 1, 0] += 0.1
    assert check_yang_baxter(j) > 1e-3


# ---------------------------------------------------------------------------
# block extension


def test_block_word_trivial():
    assert block_word(1, 1) == (1,)


def test_block_word_two_one():
    assert block_word(2, 1) == (1, 2)


@pytest.mark.parametrize("p,k", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)])
def test_flip_block_extension_is_rotation(su2_braid, p, k):
    # against an explicit permutation oracle on basis monomials
    op = extend_sigma_block(su2_braid, p, k)
    for idx in itertools.product(range(2), repeat=p + k):
        padded = tuple(idx)
        out = op(basis_field(3, 2, padded))
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
# sigma across wedge factors


def test_sigma_on_wedge_flip(su2_braid, su2_geom):
    # sigma(theta^1 theta^2 x theta^3) = theta^3 x theta^1 theta^2 for the flip
    op = sigma_on_wedge(su2_braid, su2_geom.P, "left")
    w12 = wedge_project(basis_field(3, 2, (0, 1, 2)), 1, su2_geom.P)
    out = op(w12)
    expected = wedge_project(basis_field(3, 2, (2, 0, 1)), 2, su2_geom.P)
    assert max_coeff_norm(out - expected) <= 1e-14


def test_sigma_on_wedge_zero(su2_braid, su2_geom):
    op = sigma_on_wedge(su2_braid, su2_geom.P, "left")
    z = wedge_project(basis_field(3, 2, (0, 0, 2)), 1, su2_geom.P)
    assert max_coeff_norm(op(z)) == 0.0


def test_sigma_on_wedge_idempotent_output_projection(su2_braid, su2_geom):
    op = sigma_on_wedge(su2_braid, su2_geom.P, "right")
    t = wedge_project(basis_field(3, 2, (0, 1, 2)), 2, su2_geom.P)
    out = op(t)
    again = wedge_project(out, 1, su2_geom.P)
    assert max_coeff_norm(again - out) <= 1e-14


def test_sigma_on_wedge_rejects_unprojected_input(su2_braid, su2_geom):
    op = sigma_on_wedge(su2_braid, su2_geom.P, "left")
    with pytest.raises(ValueError):
        op(basis_field(3, 2, (0, 1, 2)))


# ---------------------------------------------------------------------------
# singular S


def test_singular_braiding_is_accepted_silently():
    # construction neither inverts S nor warns; check_fifa judges it
    b = make_braiding(np.zeros((2, 2, 2, 2)))
    assert b.n == 2 and not b.S.any()
    with pytest.raises(SingularBraidingError):
        check_fifa(b)
