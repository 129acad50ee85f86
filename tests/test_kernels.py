"""The GEMM kernels of D, d on 0- and 1-forms, D_n, D_2, the lambda-commutator,
the central action and the star tensors j_n against einsum oracles.

The reference functions are the einsum, tensordot and dense-product bodies
these kernels replaced; the GEMMs sum in another order, so agreement is to
1e-13.  Where every output entry is a single product (the flip and the phase
twists) the agreement is exact, and so is that of D and d on
su2-torsion-free; j_n is exact on the flip.  The strided body of
``_omega_at_slot`` is the oracle of its index plan, which moves the same
values into the same GEMM: agreement is exact.
"""

import dataclasses
import gc
import itertools
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from stehbein.braiding import Braiding, apply_word, make_braiding
from stehbein.calculus import differential0, differential1, maurer_cartan
from stehbein.connection import (
    MAX_DEGREE,
    Connection,
    covariant_derivative,
    d0_connection,
    d2,
    dn,
)
from stehbein.fixtures import build_fixture, random_geometry, su2_flip_geometry
from stehbein.fixtures import phase_twist_braiding, random_phase_twist
from stehbein.frametensor import (
    FrameTensorField,
    _lambda_commutator,
    _omega_at_slot,
    _omega_matrix,
    adjoint,
    apply_central_at,
    basis_field,
    central_at,
    centrality_residual,
    flip_central,
    identity_central,
    left_mul,
    right_mul,
    word_tensor,
)
from stehbein import calculus, cli, frametensor, involution
from stehbein.involution import build_jn, check_jn_involutive, reverse_word, star_form
from stehbein.report import resolve_connection, run_verify

from conftest import spin_frame_geometry, su2_torsionfree_connection

TOL = 1e-13


def ref_central_at(a, m, pos):
    k = m.ndim // 2
    axes = list(range(pos - 1, pos - 1 + k))
    out = np.tensordot(m, a, axes=(list(range(k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def ref_apply_central_at(t, m, pos):
    return FrameTensorField(t.n, ref_central_at(t.coeffs, m, pos))


def ref_word_tensor(s, strands, letters):
    n = s.shape[0]
    out = identity_central(n, strands)
    for letter in reversed(tuple(letters)):
        axes = [strands + letter - 1, strands + letter]
        out = np.tensordot(out, s, axes=(axes, [0, 1]))
        out = np.moveaxis(out, [-2, -1], axes)
    return out


def ref_build_jn(b, k):
    """J^(k): the reverse-permutation word composed letter by letter, then the reversal."""
    w = word_tensor(b.S, k, reverse_word(k).letters)
    return np.transpose(w, list(range(k - 1, -1, -1)) + list(range(k, 2 * k)))


def ref_jn_involutive(b, k):
    """max|conj(J) J - 1| as one dense (n^k, n^k) product."""
    jm = ref_build_jn(b, k).reshape(b.n ** k, b.n ** k)
    return float(np.max(np.abs(np.conj(jm) @ jm - np.eye(b.n ** k))))


def ref_jn_involutive_through_j(b, k):
    """max|conj(J) J - 1| by the route that forms J^(k) = ``build_jn(b, k)``: the
    conjugate letter word over J's column blocks, R's block subtracted."""
    n, size = b.n, b.n ** k
    columns = build_jn(b, k).dense().reshape((n,) * k + (size,))
    rows = np.arange(size).reshape((n,) * k).transpose().ravel()
    letter = np.conj(np.ascontiguousarray(np.einsum('abcd->cdab', b.S)))
    peaks = []
    for start, stop in involution._column_blocks(size):
        block = np.ascontiguousarray(columns[..., start:stop])
        for i in reverse_word(k).letters:
            block = central_at(block, letter, i)
        block = block.reshape(size, stop - start)
        block[rows[start:stop], np.arange(stop - start)] -= 1
        peaks.append(np.max(np.abs(block)))
    return float(np.max(peaks))


def ref_plan_of(jn):
    """(rows, values) of a star tensor with at most one nonzero entry per column, read
    by a scan of its nonzero entries; an all-zero column reads as a 0 at row 0."""
    side = jn.shape[0] ** (jn.ndim // 2)
    jn = jn.reshape(side, side)
    found, columns = np.nonzero(jn)
    rows, values = np.zeros(side, dtype=np.intp), np.zeros(side, dtype=jn.dtype)
    rows[columns] = found
    values[columns] = jn[found, columns]
    return rows, values


def ref_plan_jn_involutive(b, k):
    """max|conj(J) J - 1| on a monomial S's plan by the conjugate word: conj(W) J - R
    holds each column's entry v and a -1 on R's row, so the residual is |v - 1| where
    v lands on R's row, else max(|v|, 1)."""
    n = b.n
    prev = np.eye(n, dtype=b.S.dtype) if k == 2 else build_jn(b, k - 1).dense()
    rows, values = involution._plan_step(involution._letter_plan(b), n, k, *ref_plan_of(prev))
    source, coefficients = involution._letter_plan(b)
    for i in reverse_word(k).letters:
        weight = n ** (k - i - 1)
        pair = rows // weight % (n * n)
        rows = rows + (source[pair] - pair) * weight
        if coefficients is not None:
            values = values * np.conj(coefficients[pair, 0])
    on_r = rows == np.arange(n ** k).reshape((n,) * k).transpose().ravel()
    return float(np.max(np.abs(values - on_r), initial=0.0 if on_r.all() else 1.0))


def ref_dn(c, b, t):
    geom = c.geom
    letters = list("abcdefgh"[:t.degree])
    out = np.einsum('pij,...jk->p...ik', geom.lam, t.coeffs)
    out -= np.einsum('...ij,pjk->p...ik', t.coeffs, geom.lam)
    for i in range(1, t.degree + 1):
        src = "".join(letters[: i - 1] + ["z"] + letters[i:])
        dst = "".join(letters[: i - 1] + ["xy"] + letters[i:])
        term = FrameTensorField(geom.n, -np.einsum(f"{src}ij,zxyjk->{dst}ik", t.coeffs, c.omega))
        for letter in reversed(range(1, i)):
            term = ref_apply_central_at(term, b.S, letter)
        out = out + term.coeffs
    return FrameTensorField(geom.n, out)


def ref_d2(c, b, t):
    geom = c.geom
    out = np.einsum('pij,qrjk->pqrik', geom.lam, t.coeffs)
    out -= np.einsum('qrij,pjk->pqrik', t.coeffs, geom.lam)
    out -= np.einsum('abij,apqjk->pqbik', t.coeffs, c.omega)
    out -= np.einsum('abij,acpq,bcrjk->pqrik', t.coeffs, b.S, c.omega)
    return FrameTensorField(geom.n, out)


def ref_covariant_derivative(c, xi):
    geom = c.geom
    out = np.einsum('pij,qjk->pqik', geom.lam, xi.coeffs)
    out -= np.einsum('qij,pjk->pqik', xi.coeffs, geom.lam)
    out -= np.einsum('aij,apqjk->pqik', xi.coeffs, c.omega)
    return FrameTensorField(geom.n, out)


def ref_differential1(xi, geom):
    raw = np.einsum('bij,cjk->bcik', geom.lam, xi.coeffs)
    raw -= np.einsum('cij,bjk->bcik', xi.coeffs, geom.lam)
    raw -= 0.5 * np.einsum('aij,abcjk->bcik', xi.coeffs, maurer_cartan(geom))
    return apply_central_at(FrameTensorField(geom.n, raw), geom.P, 1)


def ref_differential0_matmul(f, geom):
    return FrameTensorField(geom.n, geom.lam @ f - f @ geom.lam)


def ref_differential0_einsum(f, geom):
    out = np.einsum('pij,jk->pik', geom.lam, f) - np.einsum('ij,pjk->pik', f, geom.lam)
    return FrameTensorField(geom.n, out)


# name -> (operator, its oracle), both called as (connection, braiding, field)
ONE_FORM_OPERATORS = {
    "covariant_derivative": (lambda c, b, t: covariant_derivative(c, t),
                             lambda c, b, t: ref_covariant_derivative(c, t)),
    "differential1": (lambda c, b, t: differential1(t, c.geom),
                      lambda c, b, t: ref_differential1(t, c.geom)),
}


def _geometry(name, request):
    """(connection, braiding) of each geometry the kernels are checked on; the
    random one carries a random complex omega, the others their own D."""
    if name == "su2-torsion-free":
        return su2_torsionfree_connection(), su2_flip_geometry().braid
    if name == "random-n4":
        geom = random_geometry(5, n=4, N=3, force_f_zero=True)
        rng = np.random.default_rng(11)
        shape = (4, 4, 4, 3, 3)
        omega = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return Connection(geom, omega), make_braiding(geom.S)
    geom = request.getfixturevalue("pauli_twist_geom")
    braid = make_braiding(geom.S)
    return d0_connection(geom, braid), braid


GEOMETRIES = pytest.mark.parametrize("name", ["su2-torsion-free", "random-n4", "pauli-twist"])


def _random_field(rng, n, N, degree):
    shape = (n,) * degree + (N, N)
    return FrameTensorField(n, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _gap(a, b):
    return float(np.max(np.abs(a.coeffs - b.coeffs)))


@GEOMETRIES
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_dn_matches_its_einsum_oracle(name, degree, request):
    conn, braid = _geometry(name, request)
    t = _random_field(np.random.default_rng(degree), conn.geom.n, conn.geom.N, degree)
    assert _gap(dn(conn, braid, t), ref_dn(conn, braid, t)) <= TOL


@GEOMETRIES
@pytest.mark.parametrize("operator", [*ONE_FORM_OPERATORS, "differential0"])
def test_d_and_differential1_match_their_einsum_oracles(name, operator, request):
    conn, braid = _geometry(name, request)
    if operator == "differential0":
        # d on the coefficient of a 1-form, against the commutator it replaced
        # (one broadcast matmul) and against an einsum, to 1e-14
        ours = lambda c, b, t: differential0(t.coeffs[0], c.geom)
        refs = [lambda c, b, t, ref=ref: ref(t.coeffs[0], c.geom)
                for ref in (ref_differential0_matmul, ref_differential0_einsum)]
        tol = 1e-14
    else:
        ours, ref = ONE_FORM_OPERATORS[operator]
        refs, tol = [ref], TOL
    rng = np.random.default_rng(3)
    for _ in range(3):
        t = _random_field(rng, conn.geom.n, conn.geom.N, 1)
        got = ours(conn, braid, t)
        for ref in refs:
            want = ref(conn, braid, t)
            if name == "su2-torsion-free":
                assert np.array_equal(got.coeffs, want.coeffs)
            else:
                assert _gap(got, want) <= tol


@pytest.mark.parametrize("N", [2, 16])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_lambda_commutator_matches_a_loop_over_p_and_a(N, degree):
    rng = np.random.default_rng(10 * N + degree)
    lam = (rng.normal(size=(3, N, N)) + 1j * rng.normal(size=(3, N, N))) / np.sqrt(N)
    t = _random_field(rng, 3, N, degree).coeffs
    got = _lambda_commutator(lam, t)
    assert got.shape == (3,) + t.shape
    for p in range(3):
        for idx in np.ndindex(*t.shape[:-2]):
            want = lam[p] @ t[idx] - t[idx] @ lam[p]
            assert np.max(np.abs(got[(p,) + idx] - want)) <= 1e-14, (p, idx)


def test_lambda_commutator_closes_the_spin_frame():
    # [lam_a, lam_b] = eps_abc lam_c for lam_a = -i J_a, here at N = 16
    lam = spin_frame_geometry(7.5).lam
    got = _lambda_commutator(lam, lam)
    eps = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[a, b, c], eps[b, a, c] = 1.0, -1.0
    assert np.max(np.abs(got - np.einsum('abc,cij->abij', eps, lam))) <= 1e-13


@pytest.mark.parametrize("N", [2, 3, 16])
def test_the_algebra_products_are_one_matmul(N):
    # f t and t f are one matmul over the coefficient grid, so an inf or a NaN in f or in
    # t reaches the product as the matmul puts it there
    rng = np.random.default_rng(N)
    for degree in (0, 1, 2):
        c = _random_field(rng, 3, N, degree).coeffs
        f = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        for g, a in ((f, c), (_with_non_finite(f), c), (f, _with_non_finite(c))):
            t = FrameTensorField(3, a)
            # inf times 0 is NaN, which numpy reports as an invalid value
            with np.errstate(invalid="ignore"):
                left, right = left_mul(g, t).coeffs, right_mul(t, g).coeffs
                assert _same_entries(left, g @ a) and _same_entries(right, a @ g), degree
            finite = np.isfinite(g).all() and np.isfinite(a).all()
            assert np.isfinite(left).all() == finite and np.isfinite(right).all() == finite


def _one_slot_gemm(coeffs, w, i):
    """sum_z t_{..z..} omega^z_{xy} at slot i alone, as one GEMM of that slot's rows."""
    n, N, p = coeffs.shape[0], coeffs.shape[-1], coeffs.ndim - 2
    left, right = n ** (i - 1), n ** (p - i)
    c = coeffs.reshape(left, n, right, N, N).transpose(0, 2, 3, 1, 4)
    out = (c.reshape(left * right * N, n * N) @ w).reshape(left, right, N, n * n, N)
    return out.transpose(0, 3, 1, 2, 4).reshape((n,) * (p + 1) + (N, N))


def _strided_omega_at_slot(coeffs, w, *slots):
    """``_omega_at_slot`` as it was before its index plan: one strided copy per slot
    into the stacked GEMM operand, one reshape copy per slot out of the product."""
    n, N = coeffs.shape[0], coeffs.shape[-1]
    p = coeffs.ndim - 2
    blocks = [(n ** (i - 1), n ** (p - i)) for i in slots]
    rows = np.empty((len(slots), n ** (p - 1) * N, n * N), dtype=coeffs.dtype)
    for row, (left, right) in zip(rows, blocks):
        row.reshape(left, right, N, n, N)[...] = (
            coeffs.reshape(left, n, right, N, N).transpose(0, 2, 3, 1, 4))
    out = (rows.reshape(-1, n * N) @ w).reshape(len(slots), -1)
    return [o.reshape(left, right, N, n * n, N).transpose(0, 3, 1, 2, 4).reshape((n,) * (p + 1) + (N, N))
            for o, (left, right) in zip(out, blocks)]


def _same_entries(got, want):
    """Equal bit for bit up to NaN payloads, real and imaginary parts apart."""
    return (got.shape == want.shape and np.array_equal(got.real, want.real, equal_nan=True)
            and np.array_equal(got.imag, want.imag, equal_nan=True))


def _slot_sets(degree):
    """The prefix slot sets (1,), (1, 2) and (1..p), and the others (2,) and (1, 3)."""
    sets = {(1,), (1, 2), tuple(range(1, degree + 1)), (2,), (1, 3)}
    return sorted(s for s in sets if max(s) <= degree)


def _with_non_finite(t):
    """``t`` with +inf in the real part of its first entry and NaN in its last entry."""
    t = t.copy()
    t.reshape(-1).real[0] = np.inf
    t.reshape(-1)[-1] = complex(np.nan, 1.0)
    return t


@pytest.mark.parametrize("N", [2, 3, 16])
@pytest.mark.parametrize("non_finite", [False, True], ids=["finite", "inf-nan"])
def test_omega_at_slot_gives_the_bits_of_its_strided_form(N, non_finite):
    rng = np.random.default_rng(N)
    w = _omega_matrix(_random_field(rng, 3, N, 3).coeffs)
    for degree in (1, 2, 3, 4):
        t = _random_field(rng, 3, N, degree).coeffs
        if non_finite:
            t = _with_non_finite(t)
        for slots in _slot_sets(degree):
            # inf times 0 is NaN, which numpy reports as an invalid value
            with np.errstate(invalid="ignore"):
                got, want = _omega_at_slot(t, w, *slots), _strided_omega_at_slot(t, w, *slots)
            assert len(got) == len(want), (degree, slots)
            for g, s_want in zip(got, want):
                assert g.flags.c_contiguous and _same_entries(g, s_want), (degree, slots)
            # BLAS carries an inf through a complex product as NaN, the oracle too
            assert any(np.isnan(g).any() for g in got) == non_finite, (degree, slots)


def test_each_slot_result_is_its_own_memory():
    # dn subtracts each slot's result from its sum, and d2 runs a sigma step on one
    rng = np.random.default_rng(2)
    w = _omega_matrix(_random_field(rng, 3, 2, 3).coeffs)
    t = _random_field(rng, 3, 2, 3).coeffs
    got = _omega_at_slot(t, w, 1, 2, 3)
    kept = [g.copy() for g in got]
    got[1] += 1.0
    assert np.array_equal(got[0], kept[0]) and np.array_equal(got[2], kept[2])
    assert np.array_equal(got[1], kept[1] + 1.0)
    # the next call at this shape, by the same plan, is not disturbed either
    assert all(_same_entries(g, s) for g, s in zip(_omega_at_slot(t, w, 1, 2, 3),
                                                    _strided_omega_at_slot(t, w, 1, 2, 3)))


def test_index_plans_are_built_once_per_shape_and_hold_only_indices(monkeypatch):
    # a second verify of su2-o4's input reuses every plan: no result, only shapes, is kept
    cache, built = frametensor._omega_plan, {}

    def recording(*key):
        built[key] = cache(*key)
        return built[key]

    monkeypatch.setattr(frametensor, "_omega_plan", recording)
    cache.cache_clear()
    geom = build_fixture("su2-torsion-free")[1]
    try:
        first = run_verify(geom, max_order=4, seed=0)
        misses = cache.cache_info().misses
        assert misses == len(built) > 0
        second = run_verify(geom, max_order=4, seed=0)
        assert cache.cache_info().misses == misses
    finally:
        cache.cache_clear()
    assert [c.residual for c in first.checks] == [c.residual for c in second.checks]
    for key, (operand, results) in built.items():
        n, N, p, slots = key
        assert all(a.dtype == np.intp and a.flags.c_contiguous for a in (operand, results)), key
        assert operand.shape == (len(slots) * n ** (p - 1) * N, n * N), key
        assert results.shape == (len(slots),) + (n,) * (p + 1) + (N, N), key
        # each slot reads every coefficient once; each product entry lands once
        for rows in operand.reshape(len(slots), -1):
            assert np.array_equal(np.sort(rows), np.arange(n ** p * N * N)), key
        assert np.array_equal(np.sort(results, axis=None), np.arange(results.size)), key


def test_one_verify_at_the_highest_order_keeps_all_its_plans():
    # one slot plan per degree and one field plan for each of S and P, well within the bound
    caches = frametensor._omega_plan, frametensor._monomial_plan
    for cache in caches:
        cache.cache_clear()
    try:
        run_verify(random_geometry(0, n=2, N=2), max_order=MAX_DEGREE, seed=0)
        info, fields = (cache.cache_info() for cache in caches)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert info.misses == info.currsize <= MAX_DEGREE + 1 < frametensor._PLANS
    assert fields.misses == fields.currsize == 2


@pytest.mark.parametrize("N", [2, 3, 16])
def test_stacked_slots_give_the_bits_of_one_gemm_per_slot(N):
    # dn and d2 contract all their slots in one GEMM; each slot's rows must be
    # those of its own GEMM, so the D_n residuals keep their bits
    rng = np.random.default_rng(N)
    w = _omega_matrix(_random_field(rng, 3, N, 3).coeffs)
    for degree in (1, 2, 3) if N == 16 else (1, 2, 3, 4):
        t = _random_field(rng, 3, N, degree).coeffs
        together = _omega_at_slot(t, w, *range(1, degree + 1))
        for i in range(1, degree + 1):
            assert np.array_equal(together[i - 1], _one_slot_gemm(t, w, i)), (degree, i)


@GEOMETRIES
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_dn_gives_the_bits_of_its_slot_by_slot_sum(name, degree, request):
    conn, braid = _geometry(name, request)
    t = _random_field(np.random.default_rng(degree), conn.geom.n, conn.geom.N, degree)
    want = _lambda_commutator(conn.geom.lam, t.coeffs)
    for i in range(1, degree + 1):
        term = FrameTensorField(conn.geom.n, _one_slot_gemm(t.coeffs, conn.omega_matrix, i))
        want -= apply_word(term, braid, range(1, i)).coeffs
    assert np.array_equal(dn(conn, braid, t).coeffs, want)


def test_differential1_matches_its_oracle_on_a_generic_c():
    # C vanishes on random-n4 (F = 0, antisymmetric P) and is symmetric in its
    # lower pair on the Pauli twist; a fitted random geometry has neither
    geom = random_geometry(0, n=3, N=4)
    rng = np.random.default_rng(4)
    for _ in range(3):
        t = _random_field(rng, 3, 4, 1)
        assert _gap(differential1(t, geom), ref_differential1(t, geom)) <= TOL


def _first_order_geometry(name):
    if name in ("su2-flip", "su2-torsion-free", "random"):
        return build_fixture(name)[1]
    return random_geometry(5, n=4, N=3, force_f_zero=name == "f-zero-n4")


@pytest.mark.parametrize("name", ["su2-flip", "su2-torsion-free", "random", "random-n4",
                                  "f-zero-n4"])
def test_differential1_is_pi_of_dn_for_half_c(name):
    # d on 1-forms is D for the Maurer-Cartan connection omega = 1/2 C, then pi: both run
    # calculus._first_order, and halving C is exact, so the bits agree
    geom = _first_order_geometry(name)
    conn = Connection(geom, 0.5 * geom.C)
    rng = np.random.default_rng(30)
    for _ in range(30):
        xi = _random_field(rng, geom.n, geom.N, 1)
        want = apply_central_at(dn(conn, geom.braid, xi), geom.P, 1)
        assert differential1(xi, geom).coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("name", ["su2-flip", "su2-torsion-free", "random", "random-n4",
                                  "f-zero-n4", "spin-haar-16"])
def test_covariant_derivative_is_dn_at_degree_one(name):
    # D on 1-forms runs dn's kernel, calculus._first_order, with the same omega matrix;
    # the Haar-conjugated N = 16 spin frame is perfbench's su2-wide input at seed 0
    if name == "spin-haar-16":
        geom = spin_frame_geometry(7.5, np.random.default_rng([0, 0x5eb]))
    else:
        geom = _first_order_geometry(name)
    conn = resolve_connection(geom, geom.braid)[0]
    rng = np.random.default_rng(31)
    for _ in range(30):
        xi = _random_field(rng, geom.n, geom.N, 1)
        want = dn(conn, geom.braid, xi).coeffs
        assert covariant_derivative(conn, xi).coeffs.tobytes() == want.tobytes()


def test_the_first_order_kernel_passes_apply_word_only_nonempty_words(monkeypatch):
    # slot i's term is run back by the word (1, ..., i-1); slot 1's is empty, so
    # calculus._first_order subtracts that term itself
    words = []
    real = calculus.apply_word

    def recorded(t, b, letters):
        words.append(tuple(letters))
        return real(t, b, letters)

    monkeypatch.setattr(calculus, "apply_word", recorded)
    conn = su2_torsionfree_connection()
    geom = conn.geom
    for p in (1, 2, 3, 4):
        words.clear()
        dn(conn, geom.braid, basis_field(geom.n, geom.N, (0,) * p))
        assert words == [tuple(range(1, i)) for i in range(2, p + 1)], p
    words.clear()
    covariant_derivative(conn, basis_field(geom.n, geom.N, 1))
    differential1(basis_field(geom.n, geom.N, 2), geom)
    assert words == []


@GEOMETRIES
def test_d2_matches_its_einsum_oracle(name, request):
    conn, braid = _geometry(name, request)
    t = _random_field(np.random.default_rng(2), conn.geom.n, conn.geom.N, 2)
    assert _gap(d2(conn, braid, t), ref_d2(conn, braid, t)) <= TOL


@GEOMETRIES
@pytest.mark.parametrize("rank", [2, 4])
def test_apply_central_at_matches_tensordot_at_every_position(name, rank, request):
    conn, braid = _geometry(name, request)
    n, N = conn.geom.n, conn.geom.N
    rng = np.random.default_rng(rank)
    m = braid.S if rank == 4 else rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    k = rank // 2
    for degree in range(k, 5):
        t = _random_field(rng, n, N, degree)
        for pos in range(1, degree - k + 2):
            assert _gap(apply_central_at(t, m, pos), ref_apply_central_at(t, m, pos)) <= TOL


@GEOMETRIES
@pytest.mark.parametrize("rank", [2, 4])
def test_central_at_matches_tensordot_on_f_omega_and_star_shapes(name, rank, request):
    conn, braid = _geometry(name, request)
    n, N = conn.geom.n, conn.geom.N
    rng = np.random.default_rng(rank + 10)
    m = braid.S if rank == 4 else rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    k = rank // 2
    arrays = {  # label -> (array, number of leading frame axes)
        "F": (rng.normal(size=(n,) * 3) + 1j * rng.normal(size=(n,) * 3), 3),
        "omega": (conn.omega, 3),
        "j3": (build_jn(braid, 3).dense(), 6),
    }
    for label, (a, frame_axes) in arrays.items():
        for pos in range(1, frame_axes - k + 2):
            gap = np.max(np.abs(central_at(a, m, pos) - ref_central_at(a, m, pos)))
            assert gap <= TOL, (label, pos)


def test_central_at_rejects_axes_that_are_not_n():
    s = su2_flip_geometry().braid.S
    with pytest.raises(ValueError, match="do not all equal n=3"):
        central_at(np.zeros((3, 3, 2, 2)), s, 2)
    with pytest.raises(ValueError, match="do not all equal n=3"):
        central_at(np.zeros((4, 3, 3)), s, 2)
    with pytest.raises(ValueError, match="do not all equal n=3"):
        central_at(np.zeros((3, 9, 1)), s, 1)


def _signed_permutations():
    """(label, S) of tensors whose matrix form has one entry of 1 or -1 per row and column."""
    for n in (2, 3, 4):
        yield f"flip-n{n}", flip_central(n)
    yield "pauli-twist", phase_twist_braiding(3, {(0, 1): -1, (0, 2): -1, (1, 2): -1})[0].S
    rng = np.random.default_rng(3)
    mixed = np.zeros((9, 9), dtype=complex)
    mixed[rng.permutation(9), np.arange(9)] = rng.choice([1.0, -1.0], size=9)
    yield "mixed-signs", mixed.reshape((3,) * 4)


def _plan(m):
    return frametensor._monomial_plan(m.dtype, m.shape, m.tobytes())


def _field_route_cases(m):
    """(field, pos) at degrees 2-5, every position of S's pair, N = 1, 2 and 3."""
    n, rng = m.shape[0], np.random.default_rng(m.shape[0])
    for degree, N in itertools.product(range(2, 6), (1, 2, 3)):
        t = _random_field(rng, n, N, degree)
        for pos in range(1, degree):
            yield t, pos


def test_the_field_route_gives_the_bits_of_central_at_on_signed_permutations():
    # one product per output entry, by 1 or -1: the gather and the matmul agree exactly
    for label, s in _signed_permutations():
        assert _plan(s) is not None, label
        for t, pos in _field_route_cases(s):
            want = central_at(t.coeffs, s, pos)
            assert np.array_equal(frametensor._central_on_field(t.coeffs, s, pos), want), (label, pos)
            assert np.array_equal(apply_central_at(t, s, pos).coeffs, want), (label, pos)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_field_route_matches_central_at_on_complex_phases(seed):
    # a phase times an entry rounds as numpy's multiply, not as the matmul's
    s = random_phase_twist(seed, 3)[0].S
    assert _plan(s)[1] is not None
    for t, pos in _field_route_cases(s):
        got = apply_central_at(t, s, pos).coeffs
        assert np.max(np.abs(got - central_at(t.coeffs, s, pos))) <= TOL, pos


def test_only_a_monomial_tensor_has_a_field_plan():
    geom = random_geometry(0)
    flip = flip_central(3)
    nan_s, zero_column, tiny = (flip.copy() for _ in range(3))
    nan_s[0, 1, 1, 0] = np.nan
    zero_column[:, :, 2, 1] = 0
    tiny[0, 0, 1, 2] = 1e-300
    for label, m in [("P", geom.P), ("random S", geom.S), ("NaN", nan_s),
                     ("zero column", zero_column), ("1e-300", tiny)]:
        assert _plan(m) is None, label
    # the flip's coefficients are all 1, so no multiply is planned
    assert _plan(flip)[1] is None


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@np.errstate(invalid="ignore")  # inf times a coefficient's zero imaginary part is a NaN
def test_a_non_finite_field_entry_stays_non_finite_on_the_field_route(bad):
    for label, s in [*_signed_permutations(), ("phase-twist", random_phase_twist(0, 3)[0].S)]:
        for degree in (2, 3):
            for idx in itertools.product(range(s.shape[0]), repeat=degree):
                coeffs = basis_field(s.shape[0], 2, idx).coeffs
                coeffs[idx + (0, 1)] = bad
                for pos in range(1, degree):
                    out = apply_central_at(FrameTensorField(s.shape[0], coeffs), s, pos)
                    assert not np.isfinite(out.coeffs).all(), (label, idx, pos)


def _exact_braidings():
    yield "flip", flip_central(3)
    yield "phase-twist", random_phase_twist(0, 3)[0].S
    yield "phase-twist-n4", random_phase_twist(1, 4)[0].S
    yield "pauli-twist", phase_twist_braiding(3, {(0, 1): -1, (0, 2): -1, (1, 2): -1})[0].S


def _unit_normal_s():
    rng = np.random.default_rng(7)
    normal = rng.normal(size=(3,) * 4) + 1j * rng.normal(size=(3,) * 4)
    # scaled to unit operator norm, so no word outgrows the bound
    return normal / np.linalg.norm(normal.reshape(9, 9), 2)


def _exact_words(strands):
    """The j_n word and, from three strands on, both sides of the braid relation."""
    yield reverse_word(strands).letters
    for i in range(1, strands - 1):
        yield i, i + 1, i
        yield i + 1, i, i + 1


@pytest.mark.parametrize("strands", [2, 3, 4, 5])
def test_word_tensor_matches_its_tensordot_oracle(strands):
    # a seeded word with repeated letters multiplies phases together, where the
    # two GEMMs may round differently; it is checked to the bound, not exactly
    random_word = tuple(np.random.default_rng(strands).integers(1, strands, size=2 * strands))
    for label, s in [*_exact_braidings(), ("normal", _unit_normal_s())]:
        if s.shape[0] ** (2 * strands) > 4 ** 8:
            continue
        for letters in [*_exact_words(strands), random_word]:
            ours, ref = word_tensor(s, strands, letters), ref_word_tensor(s, strands, letters)
            if label == "normal" or letters == random_word:
                assert np.max(np.abs(ours - ref)) <= TOL, (label, letters)
            else:
                assert np.array_equal(ours, ref), (label, letters)


def _star_braidings():
    for label, s in _exact_braidings():
        yield label, Braiding(s.shape[0], s)
    for seed, n in itertools.product((0, 1), (3, 4)):
        yield f"random-{seed}-n{n}", make_braiding(random_geometry(seed, n=n).S)
    yield "normal", Braiding(3, _unit_normal_s())


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_build_jn_and_jn_involutive_match_their_dense_oracles(k):
    for label, b in _star_braidings():
        if b.n ** (2 * k) > 4 ** 8:
            continue
        jn, ref = build_jn(b, k).dense(), ref_build_jn(b, k)
        got, want = check_jn_involutive(b, k), ref_jn_involutive(b, k)
        if label == "flip":
            assert np.array_equal(jn, ref) and got == want == 0.0, k
        else:
            assert np.max(np.abs(jn - ref)) <= TOL, (label, k)
            assert abs(got - want) <= TOL, (label, k)


def test_jn_involutive_matches_its_dense_oracle_at_order_6():
    b = random_phase_twist(0, 3)[0]
    assert np.max(np.abs(build_jn(b, 6).dense() - ref_build_jn(b, 6))) <= TOL
    assert abs(check_jn_involutive(b, 6) - ref_jn_involutive(b, 6)) <= TOL


def _block_braidings():
    yield from _star_braidings()
    yield "flip-n2", Braiding(2, flip_central(2))
    for n in (2, 5):
        yield f"phase-twist-n{n}", random_phase_twist(0, n)[0]


def _rounds_as_numpy(b):
    """True for a monomial S with a coefficient other than 1 and -1: the plan route's
    products of complex phases round as numpy's multiply, not as the matmul's."""
    plan = involution._letter_plan(b)
    return plan is not None and plan[1] is not None and not np.isin(plan[1], (1, -1)).all()


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_build_jn_and_jn_involutive_match_their_dense_oracles_in_column_blocks(k, monkeypatch):
    for label, b in _block_braidings():
        size = b.n ** k
        if size ** 2 > 4 ** 8:
            continue
        # the narrowest width that does not divide n^k: several blocks, the last one ragged
        width = next(w for w in range(2, size) if size % w)
        monkeypatch.setattr(involution, "BLOCK_ENTRIES", width * size)
        blocks = involution._column_blocks(size)
        assert len(blocks) > 1 and blocks[-1][1] - blocks[-1][0] < width, (label, k)
        jn, ref = build_jn(b, k).dense(), ref_build_jn(b, k)
        got, want = check_jn_involutive(b, k), ref_jn_involutive(b, k)
        # both routes build J^(k-1) by the same steps, then run the same last step; on
        # the plan route a complex phase rounds as numpy's multiply, not as the matmul's
        through_j = ref_jn_involutive_through_j(b, k)
        if _rounds_as_numpy(b):
            assert abs(got - through_j) <= TOL, (label, k)
        else:
            assert got == through_j, (label, k)
        if label.startswith("flip"):
            assert np.array_equal(jn, ref) and got == want == 0.0, (label, k)
        else:
            assert np.max(np.abs(jn - ref)) <= TOL, (label, k)
            assert abs(got - want) <= TOL, (label, k)


def test_jn_involutive_is_nan_for_a_nan_in_one_column_block(monkeypatch):
    braid = Braiding(3, _with_nan(su2_flip_geometry().braid.S, (0, 2, 2, 0)))
    monkeypatch.setattr(involution, "BLOCK_ENTRIES", 2 * 3 ** 4)
    assert len(involution._column_blocks(3 ** 4)) == 41
    assert np.isnan(check_jn_involutive(braid, 4))


def test_jn_involutive_equals_the_route_through_j():
    # J^(k-1) is one column block here, so both routes run the same matmuls; a complex
    # phase takes the plan route, whose products round as numpy's multiply
    cases = [(random_phase_twist(seed, 4)[0], 5) for seed in range(3)]
    cases += [(su2_flip_geometry().braid, 4)]
    cases += [(make_braiding(random_geometry(seed).S), 4) for seed in range(3)]
    for b, top in cases:
        for k in range(2, top + 1):
            got, want = check_jn_involutive(b, k), ref_jn_involutive_through_j(b, k)
            if _rounds_as_numpy(b):
                assert abs(got - want) <= TOL, (b.n, k)
            else:
                assert got == want, (b.n, k)


def _peak_bytes(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _star_routes_at_n4():
    """A phase twist, which takes the plan route, and a random S, which takes the blocks."""
    yield "plan", random_phase_twist(0, 4)[0]
    yield "blocks", make_braiding(random_geometry(0, n=4).S)


def test_jn_involutive_forms_no_full_size_star_tensor():
    # J^(5) at n = 4 is 16 MiB, eight blocks; forming it reads at least 1.0 J
    for route, b in _star_routes_at_n4():
        assert (involution._letter_plan(b) is None) == (route == "blocks")
        peak = _peak_bytes(check_jn_involutive, b, 5)
        assert peak <= 0.6 * 16 * 4 ** 10, route
        if route == "plan":
            # the plans of J^(4) and J^(5), 4^5 entries each; J^(4) itself (1 MiB), which
            # the route formed until it kept J^(4) as its plan, still fits the bound
            assert peak <= 1.25 * 16 * 4 ** 8, peak


def test_build_jn_holds_one_star_tensor_plus_its_block_buffers():
    # J^(5) at n = 4 is 16 MiB; its step also holds J^(4), 1/16 of it, and at most 4 MiB
    # of blocks, but no buffer of the step before
    for route, b in _star_routes_at_n4():
        assert _peak_bytes(build_jn, b, 5) <= 1.4 * 16 * 4 ** 10, route


def test_verify_at_order_5_never_builds_j5(monkeypatch):
    # yang-baxter's J2, then jn-involutive-k's J^(k-1) for k = 3, 4, 5
    built = []
    real = involution.build_jn

    def counted(b, k):
        built.append(k)
        return real(b, k)

    # report binds build_jn for yang-baxter's J2, involution for jn-involutive
    for module in (sys.modules["stehbein.report"], involution):
        monkeypatch.setattr(module, "build_jn", counted)
    report = run_verify(random_phase_twist(5, 4), max_order=5)
    assert {k: built.count(k) for k in set(built)} == {2: 2, 3: 1, 4: 1}
    assert [c.status for c in report.checks if c.name.startswith("jn-involutive")] == ["pass"] * 4


def _counted_plan_steps(monkeypatch) -> list:
    """The order k of every ``_plan_step`` call from here on, in call order."""
    steps, real = [], involution._plan_step

    def counted(letter, n, k, rows, values):
        steps.append(k)
        return real(letter, n, k, rows, values)

    monkeypatch.setattr(involution, "_plan_step", counted)
    return steps


def test_a_braid_o5_verify_steps_each_star_plan_once(monkeypatch):
    # J^(2) for yang-baxter, then J^(3), J^(4), J^(5) for the jn rows, each kept on the braiding
    steps = _counted_plan_steps(monkeypatch)
    report = run_verify(random_phase_twist(0, 4), max_order=5)
    assert steps == [2, 3, 4, 5]
    assert report.counts["fail"] == 0


def test_the_braid_and_yang_baxter_rows_compose_no_dense_word(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("dense word on a monomial S")

    monkeypatch.setattr(np, "einsum", unreachable)
    monkeypatch.setattr(sys.modules["stehbein.braiding"], "word_tensor", unreachable)
    report = run_verify(random_phase_twist(0, 4), checks={"braid", "yb"}, max_order=5)
    assert [(c.name, c.status) for c in report.checks if c.status != "skipped"] == [
        ("braid", "pass"), ("yang-baxter", "pass")]


def test_a_braidings_star_plans_are_stepped_once_and_read_only(monkeypatch):
    steps = _counted_plan_steps(monkeypatch)
    b = random_phase_twist(0, 4)[0]
    stars = [build_jn(b, k) for k in (5, 1, 2, 3, 4, 5)]
    assert steps == [2, 3, 4, 5]
    assert stars[-1] is stars[0] and [star.order for star in stars] == [5, 1, 2, 3, 4, 5]
    # the involution residual reads J^(k) from the kept plans
    for k in (2, 3, 4, 5):
        assert check_jn_involutive(b, k) <= TOL
    assert steps == [2, 3, 4, 5]
    for star in stars:
        for plan in (star.rows, star.values):
            with pytest.raises(ValueError, match="read-only"):
                plan[0] = 0
    # a braiding with the same S keeps plans of its own, with the same values
    twin = Braiding(b.n, b.S)
    assert check_jn_involutive(twin, 4) == check_jn_involutive(b, 4)
    assert build_jn(twin, 5) is not stars[0] and steps == [2, 3, 4, 5, 2, 3, 4, 5]
    assert np.array_equal(build_jn(twin, 5).dense(), stars[0].dense())
    # and they go with it
    kept = weakref.ref(build_jn(twin, 5))
    del twin
    gc.collect()
    assert kept() is None


def test_the_dense_route_keeps_no_star_tensor():
    b = make_braiding(random_geometry(0).S)
    first, second = build_jn(b, 3), build_jn(b, 3)
    assert first is not second and first.array is not second.array
    assert np.array_equal(first.array, second.array)
    check_jn_involutive(b, 3)
    assert b._star_plans == []


def test_jn_involutive_is_nan_for_a_nan_in_s_at_every_order():
    braid = Braiding(3, _with_nan(su2_flip_geometry().braid.S, (0, 2, 2, 0)))
    for k in (2, 3, 4, 5):
        assert np.isnan(check_jn_involutive(braid, k)), k
    report = run_verify((braid, None), checks={"jn"}, max_order=5)
    rows = [c for c in report.checks if c.name.startswith("jn-involutive")]
    assert [(c.name, c.status) for c in rows] == [
        (f"jn-involutive-{k}", "fail") for k in (2, 3, 4, 5)]
    assert all(np.isnan(c.residual) for c in rows)


def test_jn_involutive_takes_no_inverse_of_a_singular_s():
    # J = 0, so conj(J) J - 1 = -1, the residual the dense product gives
    zero = Braiding(3, np.zeros((3,) * 4, dtype=complex))
    for k in (2, 3, 4):
        assert check_jn_involutive(zero, k) == ref_jn_involutive(zero, k) == 1.0


# ---------------------------------------------------------------------------
# the star tensor's plan route, taken when mat(S) is monomial

# the largest J^(k) the plan-route tests compare with the dense oracles: 3^12 entries
PLAN_ORACLE_ENTRIES = 3 ** 12


def _orders_against_the_oracles(n):
    return [k for k in range(2, 7) if n ** (2 * k) <= PLAN_ORACLE_ENTRIES]


def test_the_plan_route_gives_the_dense_bits_on_signed_permutations():
    # every product is by 1 or -1, so J and the residual are those of the dense oracles
    for label, s in _signed_permutations():
        b = Braiding(s.shape[0], s)
        assert involution._letter_plan(b) is not None, label
        for k in _orders_against_the_oracles(b.n):
            assert np.array_equal(build_jn(b, k).dense(), ref_build_jn(b, k)), (label, k)
            got = check_jn_involutive(b, k)
            assert got == ref_jn_involutive(b, k) == ref_jn_involutive_through_j(b, k), (label, k)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_plan_route_matches_the_dense_oracles_on_complex_phases(n):
    b = random_phase_twist(0, n)[0]
    assert _rounds_as_numpy(b)
    for k in _orders_against_the_oracles(n):
        assert np.max(np.abs(build_jn(b, k).dense() - ref_build_jn(b, k))) <= TOL, k
        got = check_jn_involutive(b, k)
        assert abs(got - ref_jn_involutive(b, k)) <= TOL, k
        assert abs(got - ref_jn_involutive_through_j(b, k)) <= TOL, k


def _plan_braidings():
    """(label, S) of the plan route: the flip, a mixed-sign permutation and phase twists."""
    yield "flip", flip_central(3)
    yield from ((label, s) for label, s in _signed_permutations() if label == "mixed-signs")
    for seed in (0, 1, 2):
        yield f"phase-twist-{seed}", random_phase_twist(seed, 3)[0].S


def _star_object_braidings():
    """(label, braiding) of the plan route: signed permutations and complex phases."""
    for label, s in _signed_permutations():
        yield label, Braiding(s.shape[0], s)
    for seed, n in ((0, 2), (0, 3), (1, 3), (2, 4)):
        yield f"phase-twist-{seed}-n{n}", random_phase_twist(seed, n)[0]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_the_star_objects_dense_array_is_the_dense_oracle(k):
    for label, b in _star_object_braidings():
        if b.n ** (2 * k) > PLAN_ORACLE_ENTRIES:
            continue
        star = build_jn(b, k)
        assert star.array is None and (star.n, star.order) == (b.n, k), label
        got = star.dense()
        want = np.eye(b.n) if k == 1 else ref_build_jn(b, k)
        assert got.shape == want.shape == (b.n,) * (2 * k), (label, k)
        if _rounds_as_numpy(b):
            assert np.max(np.abs(got - want)) <= TOL, (label, k)
        else:
            assert np.array_equal(got, want), (label, k)


def test_the_dense_route_keeps_its_array_and_no_plan():
    b = make_braiding(random_geometry(0).S)
    for k in (1, 2, 3):
        star = build_jn(b, k)
        assert star.rows is None and star.values is None, k
        assert star.dense() is star.array and np.max(np.abs(star.array - (
            np.eye(3) if k == 1 else ref_build_jn(b, k)))) <= TOL, k


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_star_form_by_plan_equals_the_dense_contraction(degree):
    # the same star tensor read by its plan and by the contraction with its dense array;
    # 1e-200 flip: J^(k) underflows to zero from k = 3, and both stars read zeros
    cases = [*_star_object_braidings(), ("1e-200 flip", Braiding(3, 1e-200 * flip_central(3)))]
    rng = np.random.default_rng(degree)
    for label, b in cases:
        star = build_jn(b, degree)
        dense = involution.StarTensor(b.n, degree, array=star.dense())
        for _ in range(3):
            t = _random_field(rng, b.n, 2, degree)
            got, want = star_form(t, star).coeffs, star_form(t, dense).coeffs
            assert np.array_equal(want, central_at(adjoint(t.coeffs), star.dense(), 1))
            if _rounds_as_numpy(b):
                assert np.max(np.abs(got - want)) <= TOL, (label, degree)
            else:
                assert np.array_equal(got, want), (label, degree)


@pytest.mark.parametrize("fixture, n, max_order", [
    ("su2-torsion-free", 3, 4),
    ("phase-twist", 4, 5),
])
def test_verify_on_a_monomial_s_forms_no_dense_star_above_order_2(fixture, n, max_order,
                                                                   monkeypatch):
    # yang-baxter's J2 and wedge-star's tensor route are the only dense consumers; the
    # jn, dn-reality and d2-reality rows and the field route read plans
    orders = []
    real = involution.StarTensor.dense

    def recorded(star):
        orders.append(star.order)
        return real(star)

    monkeypatch.setattr(involution.StarTensor, "dense", recorded)
    _, loaded = build_fixture(fixture, n=n) if fixture == "phase-twist" else build_fixture(fixture)
    report = run_verify(loaded, max_order=max_order)
    assert report.counts["fail"] == 0
    assert set(orders) == {2}, orders


def test_the_gather_residual_equals_the_conjugate_word_on_the_plan():
    # by 1 and -1 every product is exact; a phase rounds in another order
    exact = [s for _, s in _signed_permutations()] + [s for _, s in _exact_braidings()]
    for s in exact + [random_phase_twist(seed, 3)[0].S for seed in range(3)]:
        b = Braiding(s.shape[0], s)
        for k in _orders_against_the_oracles(b.n):
            got, want = check_jn_involutive(b, k), ref_plan_jn_involutive(b, k)
            if _rounds_as_numpy(b):
                assert abs(got - want) <= TOL, k
            else:
                assert got == want, k


@pytest.mark.parametrize("label, s", [
    ("2 flip", 2 * flip_central(3)),
    ("1.5 phase-twist", 1.5 * random_phase_twist(0, 3)[0].S),
    # a 3-cycle of pair indices, so no J^(k) is an involution: each column's entry,
    # 0.25 at k = 2, misses the identity's 1, and the residual is that 1
    ("0.5 cycle", 0.5 * np.eye(9)[[1, 2, 0, 3, 4, 5, 6, 7, 8]].reshape(3, 3, 3, 3)),
])
def test_a_monomial_s_that_is_not_unitary_fails_with_the_dense_residual(label, s, monkeypatch):
    b = Braiding(3, s)
    assert involution._letter_plan(b) is not None
    plan = [check_jn_involutive(b, k) for k in (2, 3, 4, 5)]
    monkeypatch.setattr(involution, "_letter_plan", lambda b: None)
    for k, got in zip((2, 3, 4, 5), plan):
        want = check_jn_involutive(b, k)
        # |s|^(k(k-1)) - 1 grows to 1.5^20 at k = 5, so the bound scales with it
        assert want >= 1 and abs(got - want) <= TOL * want, (label, k)


def _not_monomial_braidings():
    flip = flip_central(3)
    nan_s, tiny = flip.copy(), flip.copy()
    nan_s[0, 2, 2, 0] = np.nan
    tiny[0, 0, 1, 2] = 1e-300
    yield "random", make_braiding(random_geometry(0).S)
    yield "normal", Braiding(3, _unit_normal_s())
    yield "NaN", Braiding(3, nan_s)
    yield "1e-300", Braiding(3, tiny)


def test_an_s_that_is_not_monomial_never_reaches_the_plan_step(monkeypatch):
    def unreachable(*args):
        raise AssertionError("plan step on an S that is not monomial")

    monkeypatch.setattr(involution, "_plan_step", unreachable)
    for label, b in _not_monomial_braidings():
        assert involution._letter_plan(b) is None, label
        for k in (2, 3, 4):
            assert build_jn(b, k).dense().shape == (3,) * (2 * k), (label, k)
            check_jn_involutive(b, k)


def test_the_check_on_a_monomial_s_never_calls_central_at(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("central_at on the plan route")

    monkeypatch.setattr(involution, "central_at", unreachable)
    cases = [*_signed_permutations(), ("phase-twist", random_phase_twist(0, 3)[0].S)]
    for label, s in cases:
        b = Braiding(s.shape[0], s)
        for k in (2, 3, 4, 5):
            build_jn(b, k)
            check_jn_involutive(b, k)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_a_scaled_flip_gets_the_dense_routes_verdicts(scale, monkeypatch):
    # 1e200: J overflows, so every residual is non-finite and fails; 1e-200: J^(k)
    # underflows to 0 from k = 3, and conj(J) J already at k = 2, so every residual is 1
    braid = Braiding(3, scale * flip_central(3))

    def jn_rows():
        report = run_verify((braid, None), checks={"jn"}, max_order=5)
        return [c for c in report.checks if c.name.startswith("jn-involutive")]

    plan_rows = jn_rows()
    monkeypatch.setattr(involution, "_letter_plan", lambda b: None)
    dense_rows = jn_rows()
    assert [(c.name, c.status) for c in plan_rows] == [(c.name, c.status) for c in dense_rows] == [
        (f"jn-involutive-{k}", "fail") for k in (2, 3, 4, 5)]
    if scale > 1:
        assert not any(np.isfinite(c.residual) for c in plan_rows + dense_rows)
    else:
        assert [c.residual for c in plan_rows] == [c.residual for c in dense_rows] == [1.0] * 4


def _verify_exits_2_out_of_memory(fixture, tmp_path, capsys):
    """``verify --checks jn`` on the fixture: exit 2, the memory message and no report."""
    path, out = tmp_path / "input.json", tmp_path / "report.json"
    assert cli.main(["fixture", fixture, "--out", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", str(path), "--checks", "jn", "--max-order", "3",
                     "--report", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: verify at --max-order 3 with frame dimension n=3 ran out of memory\n")
    assert not out.exists()


def _verify_runs_out_of_memory_in(loop, tmp_path, capsys, monkeypatch):
    """``central_at`` raising MemoryError in the column-block loop of ``loop`` only, on
    the random fixture, whose S is not monomial and so takes the blocks."""
    real = involution.central_at

    def failing_in_the_check(*args, **kwargs):
        # the block loop is a generator: frame 1 is the loop, frame 2 the function it serves
        if (sys._getframe(1).f_code.co_name == "_word_by_column_block"
                and sys._getframe(2).f_code.co_name == loop):
            raise MemoryError
        return real(*args, **kwargs)

    monkeypatch.setattr(involution, "central_at", failing_in_the_check)
    _verify_exits_2_out_of_memory("random", tmp_path, capsys)


def test_out_of_memory_in_the_jn_letter_loop_exits_2(tmp_path, capsys, monkeypatch):
    _verify_runs_out_of_memory_in("check_jn_involutive", tmp_path, capsys, monkeypatch)


def test_out_of_memory_in_the_build_jn_block_loop_exits_2(tmp_path, capsys, monkeypatch):
    _verify_runs_out_of_memory_in("build_jn", tmp_path, capsys, monkeypatch)


def test_out_of_memory_in_the_plan_route_exits_2(tmp_path, capsys, monkeypatch):
    # the phase-twist fixture's S is monomial: its star tensors are built by plans
    def failing(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(involution, "_plan_step", failing)
    _verify_exits_2_out_of_memory("phase-twist", tmp_path, capsys)


# ---------------------------------------------------------------------------
# NaN must cross every GEMM, even where a basis monomial has only zeros

def _with_nan(arr, index):
    arr = np.array(arr, dtype=complex)
    arr[index] = np.nan
    return arr


def _nan_case(where):
    conn, braid = su2_torsionfree_connection(), su2_flip_geometry().braid
    geom = conn.geom
    if where == "omega":
        return Connection(geom, _with_nan(conn.omega, (2, 1, 0, 1, 1))), braid
    if where == "S":
        return conn, Braiding(geom.n, _with_nan(braid.S, (0, 2, 2, 0)))
    entry = {"lambda": ("lam", (1, 0, 1)), "F": ("F", (0, 1, 2)), "P": ("P", (1, 2, 0, 1))}
    attr, index = entry[where]
    nan_geom = dataclasses.replace(geom, **{attr: _with_nan(getattr(geom, attr), index)})
    return Connection(nan_geom, conn.omega), braid


# name -> (operator, the degrees it is checked on)
NAN_OPERATORS = {
    "dn": (dn, (2, 3)),
    "d2": (d2, (2,)),
    **{name: (ours, (1,)) for name, (ours, _) in ONE_FORM_OPERATORS.items()},
}


@pytest.mark.parametrize("where, operator", [
    *((where, op) for where in ("S", "lambda", "omega") for op in ("d2", "dn")),
    ("omega", "covariant_derivative"), ("lambda", "covariant_derivative"),
    ("lambda", "differential1"), ("F", "differential1"), ("P", "differential1"),
])
def test_nan_reaches_the_operators_on_every_basis_monomial(where, operator):
    conn, braid = _nan_case(where)
    op, degrees = NAN_OPERATORS[operator]
    for degree in degrees:
        for idx in itertools.product(range(3), repeat=degree):
            t = basis_field(3, 2, idx)
            out = op(conn, braid, t)
            assert np.isnan(out.coeffs).any(), (where, idx)
            if operator in ONE_FORM_OPERATORS:
                ref = ONE_FORM_OPERATORS[operator][1](conn, braid, t)
                assert np.array_equal(np.isnan(out.coeffs), np.isnan(ref.coeffs)), (where, idx)


@pytest.mark.parametrize("rank", [2, 4])
def test_nan_in_a_central_tensor_reaches_apply_central_at(rank):
    m = _with_nan(su2_flip_geometry().braid.S if rank == 4 else np.eye(3), (1,) * rank)
    for degree in (2, 3):
        for idx in itertools.product(range(3), repeat=degree):
            for pos in range(1, degree - rank // 2 + 2):
                out = apply_central_at(basis_field(3, 2, idx), m, pos)
                assert np.isnan(out.coeffs).any(), (idx, pos)


def test_nan_in_s_reaches_word_tensor_and_star_form():
    braid = Braiding(3, _with_nan(su2_flip_geometry().braid.S, (0, 2, 2, 0)))
    for letters in ([1], [1, 2, 1], [2, 1, 2]):
        assert np.isnan(word_tensor(braid.S, 3, letters)).any(), letters
    for degree in (2, 3):
        jn = build_jn(braid, degree)
        for idx in itertools.product(range(3), repeat=degree):
            assert np.isnan(star_form(basis_field(3, 2, idx), jn).coeffs).any(), idx


@pytest.mark.parametrize("where", ["lambda", "argument"])
def test_nan_reaches_d0_d1_and_the_centrality_residual(where):
    # matrix units and basis 1-forms are mostly zeros, which a GEMM must not skip
    geom = su2_torsionfree_connection().geom
    if where == "lambda":
        geom = dataclasses.replace(geom, lam=_with_nan(geom.lam, (1, 0, 1)))
    for i, j in itertools.product(range(2), repeat=2):
        unit = np.zeros((2, 2), dtype=complex)
        unit[i, j] = np.nan if where == "argument" else 1.0
        assert np.isnan(differential0(unit, geom).coeffs).any(), (where, i, j)
        assert np.isnan(centrality_residual(unit, geom.lam)), (where, i, j)
        for a in range(3):
            field = FrameTensorField(3, np.zeros((3, 2, 2), dtype=complex))
            field.coeffs[a] = unit
            assert np.isnan(differential1(field, geom).coeffs).any(), (where, a, i, j)
