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
from stehbein.report import run_verify

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


# ---------------------------------------------------------------------------
# yang-baxter is the braid residual relabeled: with S^{ab}_{cd} = J^{ba}_{cd},
# yb[a,b,c,d,e,f] = -br[c,b,a,d,e,f]


def _braid_difference(s):
    """sigma_12 sigma_23 sigma_12 - sigma_23 sigma_12 sigma_23 by ``word_tensor``, upper first."""
    return word_tensor(s, 3, [1, 2, 1]) - word_tensor(s, 3, [2, 1, 2])


def test_yang_baxter_is_the_braid_difference_relabeled_symbolically():
    sympy = pytest.importorskip("sympy")
    n = 2
    s = sympy.Array(sympy.symbols(f"s0:{n ** 4}")).reshape(n, n, n, n)
    mat = sympy.Matrix(n * n, n * n, lambda r, c: s[r // n, r % n, c // n, c % n])
    s1, s2 = (sympy.kronecker_product(*pair) for pair in ((mat, sympy.eye(n)), (sympy.eye(n), mat)))
    br = s1 * s2 * s1 - s2 * s1 * s2
    # the lifts compose as word_tensor does: equal at a numeric S
    rng = np.random.default_rng(5)
    values = rng.normal(size=n ** 4) + 1j * rng.normal(size=n ** 4)
    numeric = np.array(br.subs(dict(zip(s.reshape(n ** 4).tolist(), values))), dtype=complex)
    assert np.max(np.abs(numeric - central_as_matrix(_braid_difference(values.reshape(s.shape))))) <= 1e-12

    def j(a, b, c, d):
        return s[b, a, c, d]

    sums = list(itertools.product(range(n), repeat=3))
    for a, b, c, d, e, f in itertools.product(range(n), repeat=6):
        lhs = sum(j(a, b, p, q) * j(p, c, d, r) * j(q, r, e, f) for p, q, r in sums)
        rhs = sum(j(b, c, p, q) * j(a, q, r, f) * j(r, p, d, e) for p, q, r in sums)
        assert sympy.expand(lhs - rhs + br[(c * n + b) * n + a, (d * n + e) * n + f]) == 0


@pytest.mark.parametrize("n", [3, 4])
def test_yang_baxter_is_the_braid_difference_relabeled_numerically(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        j = rng.normal(size=(n,) * 4) + 1j * rng.normal(size=(n,) * 4)
        yb = (np.einsum('abpq,pcdr,qref->abcdef', j, j, j)
              - np.einsum('bcpq,aqrf,rpde->abcdef', j, j, j))
        br = _braid_difference(np.swapaxes(j, 0, 1))
        assert np.max(np.abs(yb + br.transpose(2, 1, 0, 3, 4, 5))) <= 1e-12 * np.max(np.abs(yb))


def test_yang_baxter_is_check_braid_of_the_relabeled_tensor():
    rng = np.random.default_rng(11)
    tensors = [build_jn(b, 2).dense() for b in _monomial_braidings()]
    tensors += [rng.normal(size=(n,) * 4) + 1j * rng.normal(size=(n,) * 4) for n in (2, 3, 4)]
    tensors += [random_geometry(seed).S for seed in range(3)]
    for j in tensors:
        assert check_yang_baxter(j) == check_braid(make_braiding(np.swapaxes(j, 0, 1)))


# ---------------------------------------------------------------------------
# the braid words on S's plan, taken when mat(S) is monomial


def _dense_braid(s):
    """The residual of ``check_braid``'s dense route, both words by ``word_tensor``."""
    return float(np.max(np.abs(_braid_difference(s))))


def _permuted(n, seed, coefficients):
    """mat(S) a random permutation of the n^2 pair indices times ``coefficients(rng, n^2)``."""
    rng = np.random.default_rng(seed)
    mat = np.zeros((n * n,) * 2, dtype=complex)
    mat[rng.permutation(n * n), np.arange(n * n)] = coefficients(rng, n * n)
    return mat.reshape((n,) * 4)


def _signs(rng, size):
    return rng.choice([1.0, -1.0], size=size)


def _phases(rng, size):
    return np.exp(2j * np.pi * rng.random(size))


def _signed_braidings():
    """(label, S) whose mat(S) has one entry of 1 or -1 per row and column."""
    for n in (2, 3, 4):
        yield f"flip-n{n}", flip_central(n)
        yield f"-flip-n{n}", -flip_central(n)
        for seed in range(3):
            yield f"signed-permutation-{seed}-n{n}", _permuted(n, seed, _signs)


def _phase_braidings():
    """(label, S) of complex coefficients: phase twists, which braid, and permutations of
    the pair indices times phases, which do not."""
    for n in (2, 3, 4, 5):
        yield f"phase-twist-n{n}", random_phase_twist(0, n)[0].S
        yield f"phased-permutation-n{n}", _permuted(n, n, _phases)


def _monomial_braidings():
    for _, s in [*_signed_braidings(), *_phase_braidings()]:
        yield make_braiding(s)


def _on_plan(s, strands, letters):
    """``_word_on_plan`` of the word from the identity, scattered into a dense tensor."""
    size = s.shape[0] ** strands
    rows, values = braiding._word_on_plan(braiding._letter_plan(make_braiding(s)), s.shape[0],
                                          strands, letters, np.arange(size), np.ones(size, complex))
    out = np.zeros((size, size), dtype=complex)
    out[rows, np.arange(size)] = values
    return out.reshape((s.shape[0],) * (2 * strands))


# words that are not palindromes, so their letters' order matters, and both braid words
PLAN_WORDS = {2: [(1,)], 3: [(1, 2), (2, 1), (1, 2, 1), (2, 1, 2)], 4: [(3, 1, 2), (1, 2, 3, 1)]}


def test_the_plan_of_a_word_is_word_tensor():
    for label, s in [*_signed_braidings(), *_phase_braidings()]:
        exact = np.isin(s, (0, 1, -1)).all()
        for strands, words in PLAN_WORDS.items():
            if s.shape[0] ** (2 * strands) > 3 ** 8:
                continue
            for word in words:
                got, want = _on_plan(s, strands, word), word_tensor(s, strands, word)
                if exact:
                    assert np.array_equal(got, want), (label, word)
                else:
                    assert np.max(np.abs(got - want)) <= 1e-13, (label, word)


def test_the_braid_plan_route_gives_word_tensors_bits_on_signs():
    residuals = set()
    for label, s in _signed_braidings():
        b = make_braiding(s)
        assert braiding._letter_plan(b) is not None, label
        assert check_braid(b) == _dense_braid(s), label
        assert check_yang_baxter(build_jn(b, 2).dense()) == check_braid(b), label
        residuals.add(check_braid(b))
    # braid solutions, and signed permutations whose two words differ in a row or a sign
    assert residuals == {0.0, 1.0, 2.0}


def test_the_braid_plan_route_matches_word_tensor_on_complex_phases():
    broken = 0
    for label, s in _phase_braidings():
        b = make_braiding(s)
        assert braiding._letter_plan(b)[1] is not None, label
        want = _dense_braid(s)
        assert abs(check_braid(b) - want) <= 1e-14, label
        broken += want > 1e-3
    assert broken == 4


def _hecke(n, q):
    """The GL_q(n) braiding: q on e_i e_i, the flip on e_i e_j, plus (q - 1/q) e_i e_j for
    i > j.  It braids, and mat(S) is not monomial."""
    mat = np.zeros((n * n,) * 2, dtype=complex)
    for i, j in itertools.product(range(n), repeat=2):
        mat[j * n + i, i * n + j] = q if i == j else 1
        if i > j:
            mat[i * n + j, i * n + j] = q - 1 / q
    return mat.reshape((n,) * 4)


def _dense_braidings():
    """(label, S) that keep ``word_tensor``: mat(S) not monomial."""
    flip = flip_central(3)
    yield "random", random_geometry(0).S
    yield "hecke", _hecke(3, 1.3)
    for label, index, value in [("NaN", (0, 2, 2, 0), np.nan), ("inf", (0, 2, 2, 0), np.inf),
                                ("zero column", (0, 2, 2, 0), 0), ("1e-300", (0, 0, 1, 2), 1e-300)]:
        s = flip.copy()
        s[index] = value
        yield label, s


def test_an_s_that_is_not_monomial_keeps_word_tensor(monkeypatch):
    def unreachable(*args):
        raise AssertionError("braid word on the plan of an S that is not monomial")

    monkeypatch.setattr(braiding, "_word_on_plan", unreachable)
    for label, s in _dense_braidings():
        b = make_braiding(s)
        assert braiding._letter_plan(b) is None, label
        # the NaN and inf words are NaN, as the matmul spreads them
        with np.errstate(invalid="ignore"):
            got, want = check_braid(b), _dense_braid(s)
            yb = check_yang_baxter(np.swapaxes(s, 0, 1))
        assert got == want == yb or np.isnan([got, want, yb]).all(), label
    assert check_braid(make_braiding(_hecke(3, 1.3))) <= 1e-12


def test_a_monomial_s_never_calls_word_tensor(monkeypatch):
    def unreachable(*args):
        raise AssertionError("word_tensor on the plan route")

    monkeypatch.setattr(braiding, "word_tensor", unreachable)
    for b in _monomial_braidings():
        check_braid(b)
        check_yang_baxter(build_jn(b, 2).dense())


@pytest.mark.parametrize("scale", [1e300, 1e-200])
def test_a_scaled_flip_gets_the_dense_braid_verdicts(scale, monkeypatch):
    # 1e300: the words overflow, so both residuals are non-finite; 1e-200: they
    # underflow to 0 on either route.  Warnings are errors here, so none is raised
    braid = make_braiding(scale * flip_central(3))

    def rows():
        report = run_verify((braid, None), checks={"braid", "yb"})
        return [(c.name, c.status, c.residual) for c in report.checks if c.status != "skipped"]

    plan_rows = rows()
    monkeypatch.setattr(braiding, "_letter_plan", lambda b: None)
    dense_rows = rows()
    assert [r[:2] for r in plan_rows] == [r[:2] for r in dense_rows]
    if scale > 1:
        assert [r[:2] for r in plan_rows] == [("braid", "fail"), ("yang-baxter", "fail")]
        assert not any(np.isfinite(r[2]) for r in plan_rows + dense_rows)
    else:
        assert plan_rows == dense_rows == [("braid", "pass", 0.0), ("yang-baxter", "pass", 0.0)]


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
