import dataclasses
import itertools

import numpy as np
import pytest

from stehbein import calculus, connection, involution
from stehbein.braiding import make_braiding
from stehbein.calculus import differential0, differential1, dirac_form, maurer_cartan
from stehbein.connection import (
    Connection,
    check_leibniz,
    check_metric_compatibility,
    check_metric_symmetry,
    check_sigma_lemma,
    covariant_derivative,
    curvature,
    curvature_of_form,
    d0_connection,
    d2,
    dn,
    solve_torsionfree_chi,
)
from stehbein.fixtures import (
    build_fixture,
    random_element,
    random_field,
    random_geometry,
    random_phase_twist,
    su2_flip_geometry,
)
from stehbein.frametensor import (
    FrameTensorField,
    _lambda_commutator,
    _omega_matrix,
    apply_central_at,
    basis_field,
    central_at,
    centrality_residual,
    identity_central,
    left_mul,
    max_coeff_norm,
    right_mul,
    tensor_product,
    worst,
)

from stehbein.involution import check_Dn_reality, check_metric_compat_second
from stehbein.report import resolve_connection

from conftest import (
    LAM,
    curvature_d0_closed_form,
    levi_civita3,
    random_matrix,
    spin_frame_geometry,
    su2_torsionfree_connection,
    torsion,
    zero_field,
)


def _rand_1form(rng, n=3, N=2):
    shape = (n, N, N)
    return FrameTensorField(n, rng.uniform(0, 1, shape) + 1j * rng.uniform(0, 1, shape))


# ---------------------------------------------------------------------------
# the connection record: a read-only omega and the cached GEMM operands


def test_omega_is_a_read_only_copy(su2_geom):
    source = np.zeros((3, 3, 3, 2, 2), dtype=complex)
    conn = Connection(su2_geom, source)
    for array in (conn.omega, conn.omega_matrix):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    source[0, 0, 0] = LAM[0]
    assert not np.any(conn.omega) and not np.any(conn.omega_matrix)


def test_cached_matrices_equal_the_omega_matrix(su2_chi_conn, su2_braid):
    geom = random_geometry(3)
    for conn in (su2_chi_conn, d0_connection(geom, make_braiding(geom.S))):
        # the bytes, so that a -0.0 for a 0.0 would count as a difference
        assert conn.omega_matrix.tobytes() == _omega_matrix(conn.omega).tobytes()
        assert conn.geom.C_matrix.tobytes() == _omega_matrix(conn.geom.C).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        geom.C_matrix[0, 0] = 1.0


def test_omega_matrix_is_built_once_per_connection_and_geometry(monkeypatch, rng):
    built = []

    def counted(t):
        built.append(t)
        return _omega_matrix(t)
    monkeypatch.setattr(connection, "_omega_matrix", counted)
    monkeypatch.setattr(calculus, "_omega_matrix", counted)
    # built here, so that nothing is cached before the patch
    geom = random_geometry(3)
    braid = make_braiding(geom.S)
    conn = d0_connection(geom, braid)
    xi = _rand_1form(rng)
    for _ in range(3):
        covariant_derivative(conn, xi)
        differential1(xi, geom)
        d2(conn, braid, tensor_product(xi, xi))
        for t in (xi, tensor_product(xi, xi), tensor_product(xi, tensor_product(xi, xi))):
            dn(conn, braid, t)
    assert len(built) == 2
    assert built[0] is conn.omega and built[1] is geom.C


# ---------------------------------------------------------------------------
# D_(0)


def test_d0_su2_vanishes(su2_geom, su2_braid):
    conn = d0_connection(su2_geom, su2_braid)
    assert np.max(np.abs(conn.omega)) <= 1e-15


def test_d0_zero_generators(su2_geom, su2_braid):
    geom = dataclasses.replace(su2_geom, lam=np.zeros((3, 2, 2)))
    assert np.max(np.abs(d0_connection(geom, su2_braid).omega)) == 0.0


def test_d0_phase_twist_matches_defining_formula(su2_geom):
    # oracle: expand -theta x theta^a + sigma(theta^a x theta) with field primitives
    braid, p = random_phase_twist(3, 3)
    geom = dataclasses.replace(su2_geom, P=p, S=braid.S)
    conn = d0_connection(geom, braid)
    theta = dirac_form(geom)
    for a in range(3):
        ba = basis_field(3, 2, (a,))
        direct = (-tensor_product(theta, ba)
                  + apply_central_at(tensor_product(ba, theta), braid.S, 1))
        assert max_coeff_norm((FrameTensorField(3, -conn.omega[a]) - direct).coeffs) <= 1e-13


def test_d0_phase_twist_closed_coefficients(su2_geom):
    # omega^a_{bd} = (Lam_{ab} - 1) lam_b delta^a_d for the diagonal braiding
    braid, p = random_phase_twist(11, 3)
    geom = dataclasses.replace(su2_geom, P=p, S=braid.S)
    conn = d0_connection(geom, braid)
    lam_phase = np.array([[braid.S[a, b, b, a] for b in range(3)] for a in range(3)])
    expected = np.einsum('ab,bij,ad->abdij', lam_phase - 1.0, geom.lam, np.eye(3))
    assert np.max(np.abs(conn.omega - expected)) <= 1e-13


# ---------------------------------------------------------------------------
# covariant derivative and the Leibniz rules


def test_covariant_derivative_basis_d0_su2(su2_geom, su2_braid):
    conn = d0_connection(su2_geom, su2_braid)
    for a in range(3):
        assert max_coeff_norm(covariant_derivative(conn, basis_field(3, 2, (a,))).coeffs) <= 1e-15


def test_covariant_derivative_needs_degree_one(su2_chi_conn):
    with pytest.raises(ValueError):
        covariant_derivative(su2_chi_conn, basis_field(3, 2, (0, 1)))


@pytest.mark.parametrize("n, N", [(4, 2), (2, 2), (3, 3)])
def test_d_and_differential1_reject_a_field_of_other_dimensions(n, N, su2_chi_conn):
    xi = basis_field(n, N, (0,))
    with pytest.raises(ValueError, match="field does not match geometry dimensions"):
        covariant_derivative(su2_chi_conn, xi)
    with pytest.raises(ValueError, match="field does not match geometry dimensions"):
        differential1(xi, su2_chi_conn.geom)


def test_left_leibniz_holds(su2_chi_conn, su2_braid, rng):
    for _ in range(20):
        f = random_matrix(rng)
        xi = _rand_1form(rng)
        assert check_leibniz(su2_chi_conn, su2_braid, f, xi)[0] <= 1e-12


def test_constant_central_coefficients_with_zero_omega(su2_geom):
    conn = Connection(su2_geom, np.zeros((3, 3, 3, 2, 2)))
    xi = FrameTensorField(3, np.stack([np.eye(2), 1j * np.eye(2), np.zeros((2, 2))]))
    assert max_coeff_norm(covariant_derivative(conn, xi).coeffs) == 0.0


def test_right_leibniz_d0_su2(su2_geom, su2_braid, rng):
    conn = d0_connection(su2_geom, su2_braid)
    for _ in range(20):
        assert check_leibniz(conn, su2_braid, random_matrix(rng), _rand_1form(rng))[1] <= 1e-10


def test_right_leibniz_central_element(su2_chi_conn, su2_braid, rng):
    f = 1.7j * np.eye(2)
    assert check_leibniz(su2_chi_conn, su2_braid, f, _rand_1form(rng))[1] <= 1e-13


def test_right_leibniz_broken_by_noncentral_perturbation(su2_geom, su2_braid, rng):
    omega = np.zeros((3, 3, 3, 2, 2), dtype=complex)
    omega[0, 0, 0] = 0.4 * LAM[0]  # noncentral, not of the central-shift form
    conn = Connection(su2_geom, omega)
    residual = worst(check_leibniz(conn, su2_braid, random_matrix(rng), _rand_1form(rng))[1]
                     for _ in range(10))
    assert residual > 1e-3


def test_a_real_connection_can_break_only_the_right_rule(su2_chi_conn, su2_braid):
    # the paper's asymmetry: a hermitian, noncentral shift of omega keeps D real on the
    # frame and the left rule exact, and breaks the right rule
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3, 3, 2, 2)) + 1j * rng.standard_normal((3, 3, 3, 2, 2))
    h = (a + np.conj(np.swapaxes(a, -2, -1))) / 2
    conn = Connection(su2_chi_conn.geom, su2_chi_conn.omega + 0.3 * h)
    assert check_Dn_reality(conn, su2_braid, 1) <= 1e-12
    left, right = check_leibniz(conn, su2_braid, random_matrix(rng), _rand_1form(rng))
    assert left <= 1e-12
    assert right > 1e-2


def _leibniz_pair_oracle(c, b, f, xi):
    """The two rules as separate expressions, each computing df and D xi itself."""
    lhs = covariant_derivative(c, left_mul(f, xi))
    rhs = tensor_product(differential0(f, c.geom), xi) + left_mul(f, covariant_derivative(c, xi))
    left = max_coeff_norm((lhs - rhs).coeffs)
    lhs = covariant_derivative(c, right_mul(xi, f))
    rhs = apply_central_at(tensor_product(xi, differential0(f, c.geom)), b.S, 1)
    rhs += right_mul(covariant_derivative(c, xi), f)
    return left, max_coeff_norm((lhs - rhs).coeffs)


@pytest.mark.parametrize("build", [lambda: build_fixture("random")[1],
                                   lambda: spin_frame_geometry(7.5)], ids=["random", "spin-7.5"])
def test_the_leibniz_pair_reads_the_bits_of_the_separate_rules(build):
    geom = build()
    conn, _ = resolve_connection(geom, geom.braid)
    rng = np.random.default_rng(3)
    for _ in range(20):
        f, xi = random_element(rng, geom.N), random_field(rng, geom.n, geom.N, 1)
        expected = _leibniz_pair_oracle(conn, geom.braid, f, xi)
        assert check_leibniz(conn, geom.braid, f, xi) == expected


# ---------------------------------------------------------------------------
# torsion


def test_torsion_d0_su2_equals_dtheta(su2_geom, su2_braid):
    # omega_0 = 0, so Theta^a = d theta^a = -1/2 eps_{abc} theta^b theta^c != 0
    conn = d0_connection(su2_geom, su2_braid)
    forms, residual = torsion(conn)
    eps = levi_civita3()
    for a, form in enumerate(forms):
        expected = np.einsum('bc,ij->bcij', -0.5 * eps[a], np.eye(2))
        assert np.max(np.abs(form.coeffs - expected)) <= 1e-14
    assert residual == pytest.approx(0.5 * np.sqrt(2), abs=1e-12)


def test_torsionfree_chi_solves_linear_condition(su2_geom, su2_braid):
    # oracle: solve the linear system directly and compare
    chi = solve_torsionfree_chi(su2_geom, su2_braid)
    c = maurer_cartan(su2_geom)
    c_scalar = np.trace(c, axis1=-2, axis2=-1) / 2.0
    lhs = np.einsum('ade,debc->abc', chi, su2_geom.P)
    assert np.max(np.abs(lhs - 0.5 * c_scalar)) <= 1e-13
    # for this geometry the minimum-norm solution is eps_{bca}/2
    eps = levi_civita3()
    assert np.max(np.abs(chi - 0.5 * np.einsum('bca->abc', eps))) <= 1e-13


def test_torsionfree_connection_residual(su2_chi_conn):
    forms, residual = torsion(su2_chi_conn)
    assert residual <= 1e-12
    assert all(max_coeff_norm(f.coeffs) <= 1e-12 for f in forms)


def test_torsion_routes_agree_on_random_geometries():
    for seed in range(5):
        geom = random_geometry(seed)
        braid = make_braiding(geom.S)
        conn = d0_connection(geom, braid)
        forms, residual = torsion(conn)
        mc = maurer_cartan(geom)
        alg = np.einsum('adeij,debc->abcij', conn.omega, geom.P) - 0.5 * mc
        for a, form in enumerate(forms):
            assert max_coeff_norm((form - FrameTensorField(3, alg[a])).coeffs) <= 1e-12


def test_d0_torsion_is_minus_half_f_on_random_geometries():
    # Theta^a = -1/2 F^a_{bc} theta^b theta^c under pi o (sigma + 1) = 0.  These
    # P have a symmetric upper part, so the lam_e (P^{ae} + P^{ea}) term that a
    # Maurer-Cartan tensor with half its lam-part would leave does not vanish.
    for seed in range(5):
        geom = random_geometry(seed)
        forms, residual = torsion(d0_connection(geom, make_braiding(geom.S)))
        expected = -0.5 * np.einsum('abc,ij->abcij', geom.F, np.eye(2))
        p_sym = geom.P + np.swapaxes(geom.P, 0, 1)
        stray = 0.5 * np.einsum('eij,aebc->abcij', geom.lam, p_sym)
        assert max_coeff_norm(stray) >= 1e-2
        norm = max_coeff_norm(expected)
        assert norm >= 1e-2
        assert residual == pytest.approx(norm, abs=1e-13)
        for a, form in enumerate(forms):
            assert max_coeff_norm((form - FrameTensorField(3, expected[a])).coeffs) <= 1e-13


def test_d0_torsion_free_with_symmetric_projector(pauli_twist_geom):
    # F = 0 suffices; P need not be antisymmetric
    forms, residual = torsion(d0_connection(pauli_twist_geom, make_braiding(pauli_twist_geom.S)))
    assert residual <= 1e-12
    assert all(max_coeff_norm(f.coeffs) <= 1e-12 for f in forms)


def test_f_zero_geometry_d0_is_torsion_free():
    geom = random_geometry(23, force_f_zero=True)
    conn = d0_connection(geom, make_braiding(geom.S))
    forms, residual = torsion(conn)
    assert residual <= 1e-12
    assert all(max_coeff_norm(f.coeffs) <= 1e-12 for f in forms)


# ---------------------------------------------------------------------------
# metric


def test_metric_symmetry_flip(su2_braid):
    res, c = check_metric_symmetry(np.eye(3, dtype=complex), su2_braid)
    assert res <= 1e-14
    assert c == pytest.approx(1.0)


def test_metric_symmetry_minus_identity_sigma():
    b = make_braiding(-identity_central(3))
    res, c = check_metric_symmetry(np.eye(3, dtype=complex), b)
    assert res <= 1e-14
    assert c == pytest.approx(-1.0)


def test_metric_symmetry_phase_twist(pt3_full):
    b, _ = pt3_full
    res, c = check_metric_symmetry(np.eye(3, dtype=complex), b)
    assert res <= 1e-14
    assert c == pytest.approx(1.0)


def test_metric_symmetry_rejects_zero_metric(su2_braid):
    with pytest.raises(ValueError):
        check_metric_symmetry(np.zeros((3, 3)), su2_braid)


def test_metric_compat_second_flip_identity(su2_geom, su2_braid):
    conn = d0_connection(su2_geom, su2_braid)
    r1 = check_metric_compatibility(conn, su2_braid, su2_geom.g)
    assert check_metric_compat_second(su2_geom.g, su2_braid) == 0.0
    assert r1 == 0.0  # omega = 0 makes the first form vanish termwise


def test_metric_compat_first_chi_connection(su2_chi_conn, su2_braid, su2_geom):
    # g and a scaled g lower and raise alike: singularity goes by condition
    # number, which is 1 for both, not by the determinant (1e-15 for the second)
    for g in (su2_geom.g, 1e-5 * su2_geom.g):
        assert check_metric_compatibility(su2_chi_conn, su2_braid, g) <= 1e-13


def test_metric_compat_perturbed_sigma(su2_geom, su2_braid):
    s = su2_braid.S.copy()
    s[0, 1, 1, 0] += 0.3
    bad = make_braiding(s)
    assert check_metric_compat_second(su2_geom.g, bad) > 1e-2


def test_metric_compat_singular_metric(su2_chi_conn, su2_braid):
    with pytest.raises(ValueError):
        check_metric_compatibility(su2_chi_conn, su2_braid, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# D_2 and D_n


def test_d2_zero_omega_central_constants(su2_geom):
    conn = Connection(su2_geom, np.zeros((3, 3, 3, 2, 2)))
    braid = make_braiding(su2_geom.S)
    t = FrameTensorField(3, np.einsum('ab,ij->abij', np.eye(3), np.eye(2)))
    assert max_coeff_norm(d2(conn, braid, t).coeffs) == 0.0


def test_d2_decomposable_agrees_with_defining_form(su2_chi_conn, su2_braid, rng):
    # D_2(xi x eta) = D xi x eta + sigma_12 (xi x D eta) for connections of the
    # central-shift class
    for _ in range(5):
        xi, eta = _rand_1form(rng), _rand_1form(rng)
        route1 = d2(su2_chi_conn, su2_braid, tensor_product(xi, eta))
        route2 = tensor_product(covariant_derivative(su2_chi_conn, xi), eta)
        route2 += apply_central_at(
            tensor_product(xi, covariant_derivative(su2_chi_conn, eta)), su2_braid.S, 1)
        assert max_coeff_norm((route1 - route2).coeffs) <= 1e-12


def test_d2_basis_matches_explicit_formula(su2_chi_conn, su2_braid):
    # oracle: assemble -(omega^a_{pq} d^b_r + S^{ac}_{pq} omega^b_{cr}) by loops
    geom = su2_chi_conn.geom
    om, s = su2_chi_conn.omega, su2_braid.S
    for a, b in itertools.product(range(3), repeat=2):
        expected = np.zeros((3, 3, 3, 2, 2), dtype=complex)
        for p, q, r in itertools.product(range(3), repeat=3):
            val = -om[a, p, q] * (1.0 if r == b else 0.0)
            for c in range(3):
                val = val - s[a, c, p, q] * om[b, c, r]
            expected[p, q, r] = val
        got = d2(su2_chi_conn, su2_braid, basis_field(3, 2, (a, b)))
        assert np.max(np.abs(got.coeffs - expected)) <= 1e-14


def test_dn_degree1_equals_covariant_derivative(su2_chi_conn, su2_braid, rng):
    xi = _rand_1form(rng)
    lhs = dn(su2_chi_conn, su2_braid, xi)
    rhs = covariant_derivative(su2_chi_conn, xi)
    assert np.array_equal(lhs.coeffs, rhs.coeffs)


def test_dn_basis_zero_omega(su2_geom, su2_braid):
    conn = Connection(su2_geom, np.zeros((3, 3, 3, 2, 2)))
    assert max_coeff_norm(dn(conn, su2_braid, basis_field(3, 2, (0, 1, 2))).coeffs) == 0.0


def test_d3_matches_termwise_oracle(su2_chi_conn, su2_braid, rng):
    # independent evaluation: D x 1 x 1 + s12 (1 x D x 1) + s12 s23 (1 x 1 x D),
    # the slot-D acting only through omega on slots beyond the first
    conn, braid = su2_chi_conn, su2_braid
    t = FrameTensorField(3, rng.uniform(0, 1, (3, 3, 3, 2, 2))
                         + 1j * rng.uniform(0, 1, (3, 3, 3, 2, 2)))
    om = conn.omega
    lam = conn.geom.lam
    term1 = (np.einsum('pij,qrsjk->pqrsik', lam, t.coeffs)
             - np.einsum('qrsij,pjk->pqrsik', t.coeffs, lam)
             - np.einsum('abcij,apqjk->pqbcik', t.coeffs, om))
    term2 = -np.einsum('abcij,bpqjk->apqcik', t.coeffs, om)
    term2 = apply_central_at(FrameTensorField(3, term2), braid.S, 1).coeffs
    term3 = -np.einsum('abcij,cpqjk->abpqik', t.coeffs, om)
    f3 = apply_central_at(FrameTensorField(3, term3), braid.S, 2)
    f3 = apply_central_at(f3, braid.S, 1)
    oracle = term1 + term2 + f3.coeffs
    got = dn(conn, braid, t)
    assert np.max(np.abs(got.coeffs - oracle)) <= 1e-13


def test_dn_rejects_degree_zero(su2_chi_conn, su2_braid):
    with pytest.raises(ValueError):
        dn(su2_chi_conn, su2_braid, zero_field(3, 2, 0))


@pytest.mark.parametrize("n,N", [(3, 3), (2, 3), (4, 2)])
def test_dn_rejects_a_field_of_other_dimensions(su2_chi_conn, su2_braid, n, N):
    # (2, 3) has the n N of the geometry, so its slot GEMM alone would not refuse it
    with pytest.raises(ValueError, match="field does not match geometry dimensions"):
        dn(su2_chi_conn, su2_braid, zero_field(n, N, 2))


def test_d2_rejects_a_field_of_degree_one(su2_chi_conn, su2_braid):
    with pytest.raises(ValueError, match="expected a degree-2 field, got degree 1"):
        d2(su2_chi_conn, su2_braid, basis_field(3, 2, (0,)))


def test_dn_sigma_lemma(su2_chi_conn, su2_braid):
    # D_n o sigma_{(i-1)i} = sigma_{i(i+1)} o D_n for the central-shift class
    from stehbein.frametensor import apply_central_at
    residuals = []
    for order in (2, 3, 4):
        for i in range(2, order + 1):
            for idx in itertools.product(range(3), repeat=order):
                basis = basis_field(3, 2, idx)
                lhs = dn(su2_chi_conn, su2_braid, apply_central_at(basis, su2_braid.S, i - 1))
                rhs = apply_central_at(dn(su2_chi_conn, su2_braid, basis), su2_braid.S, i)
                residuals.append(max_coeff_norm((lhs - rhs).coeffs))
    assert worst(residuals) <= 1e-10


# one implementation per identity: the D_2 rows are the D_n checks at n = 2


def _with_d0(geom):
    braid = make_braiding(geom.S)
    return d0_connection(geom, braid), braid


ORACLE_CONNECTIONS = {
    "su2-torsion-free": lambda: (su2_torsionfree_connection(), su2_flip_geometry().braid),
    "random": lambda: _with_d0(random_geometry(42)),
    "f-zero-n4": lambda: _with_d0(random_geometry(5, n=4, N=3, force_f_zero=True)),
}


@pytest.mark.parametrize("name", ORACLE_CONNECTIONS)
def test_d2_and_dn_give_the_same_order_2_checks(name):
    # D_2 is D_n at n = 2, and d2 and dn do the same arithmetic, so bit for bit
    conn, braid = ORACLE_CONNECTIONS[name]()
    reality = check_Dn_reality(conn, braid, 2)
    lemma = check_sigma_lemma(conn, braid, 2)
    assert check_Dn_reality(conn, braid, 2, d2) == reality
    assert check_sigma_lemma(conn, braid, 2, d2) == lemma
    if name == "random":
        # D_(0) of `random` is not real, so the equalities compare non-zero residuals
        assert reality > 1e-3


def test_the_default_operator_is_looked_up_at_call_time(su2_chi_conn, su2_braid, monkeypatch):
    # a default bound at definition time would bypass a wrapper set on the module
    real, degrees = dn, []

    def counted(c, b, t):
        degrees.append(t.degree)
        return real(c, b, t)
    monkeypatch.setattr(connection, "dn", counted)
    check_sigma_lemma(su2_chi_conn, su2_braid, 2)
    assert degrees == [2] * 18
    degrees.clear()
    monkeypatch.setattr(involution, "dn", counted)
    check_Dn_reality(su2_chi_conn, su2_braid, 2)
    assert degrees == [2] * 18


@pytest.mark.parametrize("order", [2, 3, 4])
def test_sigma_lemma_propagates_nan(order, su2_chi_conn, su2_braid):
    omega = su2_chi_conn.omega.copy()
    omega[0, 1, 2, 0, 1] = np.nan
    conn = Connection(su2_chi_conn.geom, omega)
    assert np.isnan(check_sigma_lemma(conn, su2_braid, order))
    assert np.isnan(check_Dn_reality(conn, su2_braid, order))
    if order == 2:
        assert np.isnan(check_sigma_lemma(conn, su2_braid, order, d2))


def test_sigma_lemma_needs_order_2(su2_chi_conn, su2_braid):
    with pytest.raises(ValueError, match="order"):
        check_sigma_lemma(su2_chi_conn, su2_braid, 1)


# ---------------------------------------------------------------------------
# curvature


def _curvature_bruteforce(conn, s_tensor, p_tensor):
    """Plain-loop evaluation of pi_12 . D_2 . D on every frame basis 1-form."""
    geom = conn.geom
    n, N = geom.n, geom.N
    om = conn.omega
    lam = geom.lam
    out = np.zeros((n, n, n, n, N, N), dtype=complex)
    for a in range(n):
        dth = -om[a]  # coefficients of D theta^a
        d2x = np.zeros((n, n, n, N, N), dtype=complex)
        for p, q, r in itertools.product(range(n), repeat=3):
            acc = lam[p] @ dth[q, r] - dth[q, r] @ lam[p]
            for b in range(n):
                acc = acc - dth[b, r] @ om[b, p, q]
                for c, e in itertools.product(range(n), repeat=2):
                    acc = acc - dth[b, c] @ om[c, e, r] * s_tensor[b, e, p, q]
            d2x[p, q, r] = acc
        for p, q, r in itertools.product(range(n), repeat=3):
            acc = np.zeros((N, N), dtype=complex)
            for b, c in itertools.product(range(n), repeat=2):
                acc = acc + p_tensor[b, c, p, q] * d2x[b, c, r]
            out[a, p, q, r] = acc
    return out


def test_curvature_d0_su2_is_flat(su2_geom, su2_braid):
    conn = d0_connection(su2_geom, su2_braid)
    data = curvature(conn, su2_braid)
    assert np.max(np.abs(data.R)) <= 1e-14
    assert np.max(np.abs(data.ricci)) <= 1e-14


def test_curvature_su2_chi_against_bruteforce(su2_chi_conn, su2_braid, su2_geom):
    brute = _curvature_bruteforce(su2_chi_conn, su2_braid.S, su2_geom.P)
    for a in range(3):
        got = curvature_of_form(su2_chi_conn, su2_braid,
                                basis_field(3, 2, (a,)))
        assert np.max(np.abs(got.coeffs - brute[a])) <= 1e-13


def test_curvature_su2_chi_closed_values(su2_chi_conn, su2_braid, su2_geom):
    # constant curvature: R^a_{bcd} = (delta_ac delta_bd - delta_ad delta_bc)/4
    data = curvature(su2_chi_conn, su2_braid)
    eye3 = np.eye(3)
    expected = 0.25 * (np.einsum('ac,bd->abcd', eye3, eye3)
                       - np.einsum('ad,bc->abcd', eye3, eye3))
    expected = np.einsum('abcd,ij->abcdij', expected, np.eye(2))
    assert np.max(np.abs(data.R - expected)) <= 1e-13
    ricci_expected = np.einsum('ac,ij->acij', 0.25 * eye3, np.eye(2))
    assert np.max(np.abs(data.ricci - ricci_expected)) <= 1e-13
    assert data.centrality_residual <= 1e-13


def test_curvature_left_linearity(su2_chi_conn, su2_braid, su2_geom, rng):
    for _ in range(5):
        f = random_matrix(rng)
        for a in range(3):
            ba = basis_field(3, 2, (a,))
            lhs = curvature_of_form(su2_chi_conn, su2_braid, left_mul(f, ba))
            rhs = left_mul(f, curvature_of_form(su2_chi_conn, su2_braid, ba))
            assert max_coeff_norm((lhs - rhs).coeffs) <= 1e-10


def test_curvature_r_p_reduced(su2_chi_conn, su2_braid, su2_geom):
    data = curvature(su2_chi_conn, su2_braid)
    reduced = np.einsum('abcdij,cdef->abefij', data.R, su2_geom.P)
    assert np.max(np.abs(reduced - data.R)) <= 1e-13


CURVATURE_GEOMETRIES = {
    "su2-flip": lambda: build_fixture("su2-flip")[1],
    "su2-torsion-free": lambda: build_fixture("su2-torsion-free")[1],
    "random": lambda: build_fixture("random")[1],
    "random-n4": lambda: random_geometry(1, n=4),
    "f-zero-n4": lambda: random_geometry(0, n=4, N=3, force_f_zero=True),
}


@pytest.mark.parametrize("mode", ["auto", "d0", "torsion-free"])
@pytest.mark.parametrize("name", list(CURVATURE_GEOMETRIES))
def test_curvature_is_p_reduced_by_its_one_projection(name, mode):
    # curvature_of_form's pi_12 is the only projection of (c, d): a second one moves nothing
    geom = CURVATURE_GEOMETRIES[name]()
    r = curvature(resolve_connection(geom, geom.braid, mode)[0], geom.braid).R
    assert np.max(np.abs(central_at(r, geom.P, 3) - r)) <= 1e-14 * max(1.0, np.max(np.abs(r)))


CENTRALITY_GEOMETRIES = CURVATURE_GEOMETRIES | {
    "f-zero-n3": lambda: random_geometry(23, force_f_zero=True)}


@pytest.mark.parametrize("mode", ["auto", "d0", "torsion-free"])
@pytest.mark.parametrize("name", list(CENTRALITY_GEOMETRIES))
def test_centrality_residual_is_numpys_norm_bit_for_bit(name, mode):
    # the Frobenius formula shared with max_coeff_norm gives numpy's own norm of each commutator
    geom = CENTRALITY_GEOMETRIES[name]()
    data = curvature(resolve_connection(geom, geom.braid, mode)[0], geom.braid)
    stack = data.R.reshape(-1, geom.N, geom.N)
    oracle = np.linalg.norm(_lambda_commutator(geom.lam, stack), axis=(-2, -1))
    assert data.centrality_residual == centrality_residual(stack, geom.lam) == np.max(oracle)


def test_dn_degree2_equals_d2(rng, monkeypatch):
    # dn at degree 2 runs d2's operations in d2's order, so the bits are the same; curvature
    # calls dn, so its R and Ricci are those of an oracle that builds them by d2
    def by_d2(c, b, t):
        calls.append(t.degree)
        return d2(c, b, t)
    for name, mode in itertools.product(CURVATURE_GEOMETRIES, ["auto", "d0", "torsion-free"]):
        geom = CURVATURE_GEOMETRIES[name]()
        conn, braid = resolve_connection(geom, geom.braid, mode)[0], geom.braid
        t = random_field(rng, geom.n, geom.N, 2)
        assert np.array_equal(dn(conn, braid, t).coeffs, d2(conn, braid, t).coeffs), (name, mode)
        got, calls = curvature(conn, braid), []
        with monkeypatch.context() as patch:
            patch.setattr(connection, "dn", by_d2)
            oracle = curvature(conn, braid)
        assert calls == [2] * geom.n
        assert np.array_equal(got.R, oracle.R), (name, mode)
        assert np.array_equal(got.ricci, oracle.ricci), (name, mode)


def test_curvature_d0_closed_form_su2(su2_geom, su2_braid):
    conn = d0_connection(su2_geom, su2_braid)
    for a in range(3):
        xi = basis_field(3, 2, (a,))
        field = curvature_d0_closed_form(su2_geom, su2_braid, xi)
        direct = curvature_of_form(conn, su2_braid, xi)
        assert max_coeff_norm((field - direct).coeffs) <= 1e-12
        assert max_coeff_norm(field.coeffs) <= 1e-12  # flat here


def test_curvature_d0_closed_form_zero_generators(su2_geom, su2_braid):
    geom = dataclasses.replace(su2_geom, lam=np.zeros((3, 2, 2)))
    assert all(max_coeff_norm(curvature_d0_closed_form(geom, su2_braid, basis_field(3, 2, (a,))).coeffs)
               == 0.0 for a in range(3))


@pytest.mark.parametrize("seed,n,N", [(seed, n, N) for seed in (23, 31)
                                       for n, N in ((3, 3), (4, 2), (4, 3), (5, 4))])
def test_d0_theorems_on_f_zero_family(seed, n, N, rng):
    # the two F = 0 theorems above, swept over the sizes of the exact family
    geom = random_geometry(seed, n, N, force_f_zero=True)
    braid = make_braiding(geom.S)
    conn = d0_connection(geom, braid)
    forms, residual = torsion(conn)
    assert residual <= 1e-12
    assert all(max_coeff_norm(f.coeffs) <= 1e-12 for f in forms)
    xi = _rand_1form(rng, n, N)
    closed = curvature_d0_closed_form(geom, braid, xi)
    direct = curvature_of_form(conn, braid, xi)
    assert max_coeff_norm((closed - direct).coeffs) <= 1e-10


@pytest.mark.parametrize("seed,n,N", [(0, 3, 2), (1, 3, 2), (2, 4, 3)])
def test_curvature_d0_closed_form_with_f_nonzero(seed, n, N, rng):
    # the closed form needs only pi o (sigma + 1) = 0: here F != 0, with the
    # structure condition exact at n = 3, N = 2 and violated at n = 4, N = 3
    geom = random_geometry(seed, n=n, N=N)
    assert np.max(np.abs(geom.F)) >= 1e-2
    braid = make_braiding(geom.S)
    conn = d0_connection(geom, braid)
    xi = _rand_1form(rng, n, N)
    closed = curvature_d0_closed_form(geom, braid, xi)
    direct = curvature_of_form(conn, braid, xi)
    assert max_coeff_norm(direct.coeffs) >= 1e-2
    assert max_coeff_norm((closed - direct).coeffs) <= 1e-10


def test_curvature_d0_closed_form_general_1form(rng):
    # general xi on a seeded F = 0 geometry, against the direct route
    geom = random_geometry(31, force_f_zero=True)
    braid = make_braiding(geom.S)
    conn = d0_connection(geom, braid)
    xi = _rand_1form(rng)
    closed = curvature_d0_closed_form(geom, braid, xi)
    direct = curvature_of_form(conn, braid, xi)
    assert max_coeff_norm((closed - direct).coeffs) <= 1e-10
