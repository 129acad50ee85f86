"""The star structure: J^(n) against its recursive decompositions, the star
on fields, and the j_n, fifa, wedge-star, metric and D_n reality residuals."""

import numpy as np
import pytest

from stehbein import (
    Connection,
    FrameTensorField,
    SingularBraidingError,
    build_jn,
    check_Dn_reality,
    check_fifa,
    check_jn_involutive,
    check_metric_reality,
    check_wedge_star,
    make_braiding,
    star_form,
)
from stehbein.braiding import Braiding, sigma_from_tau
from stehbein.connection import check_sigma_lemma, d0_connection, d2
from stehbein.fixtures import random_geometry, random_phase_twist
from stehbein.involution import _d2_coefficient_residual, reverse_word
from stehbein.frametensor import (
    antisymmetrizer_central,
    central_as_matrix,
    flip_central,
    identity_central,
)

from conftest import lift_central, random_matrix, random_tau, reversal_central

# ---------------------------------------------------------------------------
# reference: J^(n) through the recursive decompositions of j_n


def antilinear_then_linear(m_anti: np.ndarray, mats_linear) -> np.ndarray:
    """Tensor of L_k o ... o L_1 o A, A antilinear, L_i linear (in application order)."""
    out = central_as_matrix(m_anti)
    for lin in mats_linear:
        out = out @ central_as_matrix(lin)
    return out


def jn_recursive(b: Braiding, form: str) -> np.ndarray:
    """J^(n) through the equivalent recursive decompositions.

    ``'half2'``: j_3 = sigma_12 sigma_23 eps_23 eps_12 (j_1 x j_2);
    ``'half3'``: j_4 = sigma_12 sigma_23 sigma_34 eps_34 eps_23 eps_12 (j_1 x j_3);
    ``'pair'`` : j_4 = sigma_23 sigma_34 sigma_12 sigma_23 eps_23 eps_12 eps_34 eps_23 (j_2 x j_2).

    All agree with the direct word construction once the braid equation
    holds.
    """
    n = b.n
    eps = flip_central(n)
    if form == "half2":
        anti = np.kron(np.eye(n), central_as_matrix(build_jn(b, 2)))
        linear = [lift_central(eps, 3, 1), lift_central(eps, 3, 2),
                  lift_central(b.S, 3, 2), lift_central(b.S, 3, 1)]
    elif form == "half3":
        anti = np.kron(np.eye(n), central_as_matrix(build_jn(b, 3)))
        linear = [lift_central(eps, 4, 1), lift_central(eps, 4, 2), lift_central(eps, 4, 3),
                  lift_central(b.S, 4, 3), lift_central(b.S, 4, 2), lift_central(b.S, 4, 1)]
    elif form == "pair":
        j2m = central_as_matrix(build_jn(b, 2))
        anti = np.kron(j2m, j2m)
        linear = [lift_central(eps, 4, 2), lift_central(eps, 4, 3),
                  lift_central(eps, 4, 1), lift_central(eps, 4, 2),
                  lift_central(b.S, 4, 2), lift_central(b.S, 4, 1),
                  lift_central(b.S, 4, 3), lift_central(b.S, 4, 2)]
    else:
        raise ValueError(f"unknown recursive form {form!r}")
    return antilinear_then_linear(anti, linear).reshape(linear[0].shape)


ORDER = {"half2": 3, "half3": 4, "pair": 4}


def _braidings(su2_braid):
    return [su2_braid] + [random_phase_twist(seed, n)[0] for seed, n in ((0, 3), (1, 3), (2, 4))]


@pytest.mark.parametrize("form", sorted(ORDER))
def test_build_jn_equals_recursive_decompositions(form, su2_braid):
    for b in _braidings(su2_braid):
        assert np.max(np.abs(build_jn(b, ORDER[form]) - jn_recursive(b, form))) <= 1e-15


def test_pair_decomposition_needs_the_braid_equation():
    # 'half2' and 'half3' spell the canonical word itself; 'pair' is another
    # word for the same permutation and agrees only under the braid equation
    b = make_braiding(np.random.default_rng(0).normal(size=(3, 3, 3, 3)))
    assert np.max(np.abs(build_jn(b, 4) - jn_recursive(b, "pair"))) >= 1.0
    with pytest.raises(ValueError, match="unknown recursive form"):
        jn_recursive(b, "thirds")


# ---------------------------------------------------------------------------
# star_form


def _rand_field(rng, degree, n=3, N=2):
    shape = (n,) * degree + (N, N)
    return FrameTensorField(n, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def test_star_of_degree_zero_and_one_is_the_adjoint(rng):
    f = random_matrix(rng)
    assert np.array_equal(star_form(FrameTensorField(3, f)).coeffs, np.conj(f.T))
    xi = _rand_field(rng, 1)
    assert np.array_equal(star_form(xi).coeffs, np.conj(np.swapaxes(xi.coeffs, -1, -2)))


def test_star_of_degree_two_uses_j2(rng, su2_braid, pt3_full):
    # j_2 = sigma o l_2: the flip undoes the reversal, so star(T)_{ab} = T_{ab}^*
    t = _rand_field(rng, 2)
    adj = np.conj(np.swapaxes(t.coeffs, -1, -2))
    assert np.array_equal(star_form(t, build_jn(su2_braid, 2)).coeffs, adj)
    # a phase twist leaves the phase L_{ba} on the coefficient at (a, b)
    b, _ = pt3_full
    twist = np.einsum('baab->ab', b.S)
    out = star_form(t, build_jn(b, 2)).coeffs
    assert np.max(np.abs(out - twist[:, :, None, None] * adj)) <= 1e-15


@pytest.mark.parametrize("degree", [2, 3])
def test_star_is_antilinear_and_involutive(degree, rng, pt3_full):
    b, _ = pt3_full
    j = build_jn(b, degree)
    t, u = _rand_field(rng, degree), _rand_field(rng, degree)
    c = 0.3 - 1.7j
    combo = FrameTensorField(3, c * t.coeffs + u.coeffs)
    lhs = star_form(combo, j).coeffs
    rhs = np.conj(c) * star_form(t, j).coeffs + star_form(u, j).coeffs
    assert np.max(np.abs(lhs - rhs)) <= 1e-14
    assert np.max(np.abs(star_form(star_form(t, j), j).coeffs - t.coeffs)) <= 1e-14


def test_star_rejects_a_missing_or_mismatched_tensor(rng, su2_braid):
    t = _rand_field(rng, 2)
    with pytest.raises(ValueError, match="needs an explicit"):
        star_form(t)
    with pytest.raises(ValueError, match="does not match degree"):
        star_form(t, build_jn(su2_braid, 3))


# ---------------------------------------------------------------------------
# j_n involutivity and fifa


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_jn_involutive_on_braid_solutions(order, su2_braid, pt3_full):
    assert check_jn_involutive(su2_braid, order) == 0.0
    assert check_jn_involutive(pt3_full[0], order) <= 1e-14


def test_jn_involutive_fails_off_unitarity(su2_braid):
    # J^(2) = 2 x flip gives conj(J) J = 4
    doubled = make_braiding(2.0 * su2_braid.S)
    assert check_jn_involutive(doubled, 2) == pytest.approx(3.0)


def fifa_kronecker(b: Braiding, n: int, i: int) -> float:
    """max|R S_i - conj(S^{-1}_{n-i}) R| with the lifts formed as n-strand Kronecker products."""
    s_inv = np.linalg.inv(central_as_matrix(b.S)).reshape(b.S.shape)
    r = central_as_matrix(reversal_central(b.n, n))
    lhs = r @ central_as_matrix(lift_central(b.S, n, i))
    rhs = np.conj(central_as_matrix(lift_central(s_inv, n, n - i))) @ r
    return float(np.max(np.abs(lhs - rhs)))


@pytest.mark.parametrize("order", [2, 3, 4])
def test_fifa_on_braid_solutions(order, su2_braid, pt3_full):
    assert check_fifa(su2_braid) == 0.0
    assert check_fifa(pt3_full[0]) <= 1e-14
    for i in range(1, order):
        assert fifa_kronecker(su2_braid, order, i) == check_fifa(su2_braid)
        assert fifa_kronecker(pt3_full[0], order, i) == check_fifa(pt3_full[0])


def test_fifa_equals_the_kronecker_form_at_every_order_and_position(su2_braid, pt3_full):
    rng = np.random.default_rng(0)
    # non-unitary or generic, with large residuals
    generic = {f"tau-{s}": sigma_from_tau(random_tau(s), antisymmetrizer_central(3))
               for s in range(5)}
    generic["normal"] = make_braiding(rng.normal(size=(3,) * 4) + 1j * rng.normal(size=(3,) * 4))
    assert min(map(check_fifa, generic.values())) >= 1e-2
    braidings = generic | {"su2-flip": su2_braid, "pt3-full": pt3_full[0]}
    braidings |= {f"phase-twist-{s}": random_phase_twist(s, 4)[0] for s in (0, 1, 2)}
    for name, b in braidings.items():
        residual = check_fifa(b)
        for n in range(2, 6):
            for i in range(1, n):
                assert fifa_kronecker(b, n, i) == residual, (name, n, i)


def test_fifa_fails_for_a_generic_braiding():
    b = make_braiding(np.random.default_rng(0).normal(size=(3, 3, 3, 3)))
    assert check_fifa(b) >= 1e-2


def test_fifa_rejects_singular_braidings():
    with pytest.raises(SingularBraidingError, match="singular or too ill-conditioned"):
        check_fifa(make_braiding(np.zeros((3, 3, 3, 3))))
    # one small diagonal entry sets the condition number; the limit is 1e12
    s = identity_central(3).copy()
    s[0, 0, 0, 0] = 1e-13
    with pytest.raises(SingularBraidingError):
        check_fifa(make_braiding(s))
    s[0, 0, 0, 0] = 1e-11
    assert check_fifa(make_braiding(s)) > 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fifa_is_nan_for_a_non_finite_braiding(bad, su2_braid):
    # checked before the condition number, whose SVD does not converge on NaN
    s = su2_braid.S.copy()
    s[0, 1, 1, 0] = bad
    assert np.isnan(check_fifa(make_braiding(s)))


# ---------------------------------------------------------------------------
# wedge-star and metric reality


def _element_pairs(N):
    # the 8 pairs that the default --seed 42 draws
    rng = np.random.default_rng(42)
    return [(random_matrix(rng, N), random_matrix(rng, N)) for _ in range(8)]


def test_wedge_star_and_metric_reality_hold_for_the_flip(su2_geom, su2_braid):
    assert check_wedge_star(su2_geom, su2_braid, _element_pairs(2)) <= 1e-15
    assert check_metric_reality(su2_geom.g, su2_braid) <= 1e-15


def test_wedge_star_fails_for_the_identity_braiding(su2_geom):
    # S = identity makes J the flip, which negates every projected 2-form
    # relative to the flip braiding's J, so both routes miss the sign by O(1)
    identity = make_braiding(identity_central(3))
    assert check_wedge_star(su2_geom, identity, _element_pairs(2)) >= 1.0
    assert check_wedge_star(su2_geom, identity, []) >= 1.0


def test_metric_reality_fails_for_a_non_hermitian_metric(su2_braid):
    # the flip gives S g = g^T, so the residual is max |g^T - conj(g^T)| = 2 |Im g_{01}|
    g = np.eye(3, dtype=complex)
    g[0, 1] = g[1, 0] = 0.5j
    assert check_metric_reality(g, su2_braid) == 1.0


# ---------------------------------------------------------------------------
# reality of D, D_2 and D_n


def _d2_routes(c, b):
    """The strong, coefficient and braided forms of D_2 reality, as the report runs them."""
    return (check_Dn_reality(c, b, 2, d2), _d2_coefficient_residual(b.S, c.omega),
            check_sigma_lemma(c, b, 2, d2))


def test_real_connection_satisfies_the_reality_conditions(su2_chi_conn, su2_braid):
    assert all(r <= 1e-14 for r in _d2_routes(su2_chi_conn, su2_braid))
    for order in (1, 2, 3):
        assert check_Dn_reality(su2_chi_conn, su2_braid, order) <= 1e-14
    with pytest.raises(ValueError, match="order"):
        check_Dn_reality(su2_chi_conn, su2_braid, 0)


def test_reality_residuals_propagate_nan(su2_chi_conn, su2_braid):
    omega = su2_chi_conn.omega.copy()
    omega[0, 1, 2, 0, 1] = np.nan
    conn = Connection(su2_chi_conn.geom, omega)
    assert all(np.isnan(r) for r in _d2_routes(conn, su2_braid))
    assert np.isnan(check_Dn_reality(conn, su2_braid, 2))


# ---------------------------------------------------------------------------
# the D_2 coefficient identity against its einsum form


def ref_d2_coeffs(s: np.ndarray, om: np.ndarray) -> float:
    """The coefficient identity as four plain einsums, summed t1 - t2 + t3 - t4."""
    t1 = np.einsum('bape,pcdij->abcdeij', s, om)
    t2 = np.einsum('pade,bcpij->abcdeij', s, om)
    t3 = np.einsum('bapq,prcd,qreij->abcdeij', s, s, om)
    t4 = np.einsum('bqcp,prde,aqrij->abcdeij', s, s, om)
    return float(np.max(np.linalg.norm(t1 - t2 + t3 - t4, axis=(-2, -1))))


def _d0_inputs(geom):
    braid = make_braiding(geom.S)
    return braid.S, d0_connection(geom, braid).omega


def _random_s_and_omega(n=3, N=3):
    rng = np.random.default_rng(11)
    shape = (n, n, n, N, N)
    return random_tau(12, n), rng.uniform(0, 1, shape) + 1j * rng.uniform(0, 1, shape)


def _coefficient_routes(s, om):
    """The einsum residual, and its gap to the GEMM route."""
    ref = ref_d2_coeffs(s, om)
    # the GEMMs sum in another order: 1e-15 of an O(1) residual, relative beyond it
    assert abs(_d2_coefficient_residual(s, om) - ref) <= 1e-15 * max(1.0, ref)
    return ref


@pytest.mark.parametrize("seed, n", [(42, 3), (0, 4), (1, 4), (2, 4)])
def test_d2_coefficients_match_the_einsum_form_on_random_geometries(seed, n):
    # D_(0) of these geometries is not real, so the residuals compared are O(1)
    assert _coefficient_routes(*_d0_inputs(random_geometry(seed, n=n))) > 1e-3


def test_d2_coefficients_match_the_einsum_form_off_the_geometries(pauli_twist_geom):
    # D_(0) of the Pauli twist satisfies the identity; a random S and omega do not
    assert _coefficient_routes(*_d0_inputs(pauli_twist_geom)) == 0.0
    assert _coefficient_routes(*_random_s_and_omega()) > 1e-3


def test_d2_coefficients_are_exact_for_the_flip(su2_chi_conn, su2_braid):
    # with the flip every product is by 1 or 0, so both routes form t1..t4
    # exactly and then sum them in the same order: equal bit for bit.  t1 = t4
    # and t2 = t3, so only the rounding of that sum is left
    normal = np.random.default_rng(0).standard_normal((2, 3, 3, 3, 2, 2))
    for om in (su2_chi_conn.omega, _random_s_and_omega(N=2)[1], normal[0] + 1j * normal[1]):
        ref = ref_d2_coeffs(su2_braid.S, om)
        assert _d2_coefficient_residual(su2_braid.S, om) == ref
        assert ref <= 1e-15
    assert ref > 0.0


@pytest.mark.parametrize("which, index", [(1, (0, 1, 2)), (0, (2, 1, 0, 1))],
                         ids=["omega", "S"])
def test_d2_coefficients_propagate_nan(which, index):
    inputs = _random_s_and_omega()
    inputs[which][index] = np.nan
    assert np.isnan(_d2_coefficient_residual(*inputs))


def test_a_word_or_star_tensor_of_too_low_an_order_is_refused(su2_braid):
    with pytest.raises(ValueError, match="need at least 2 strands, got 1"):
        reverse_word(1)
    with pytest.raises(ValueError, match="order must be >= 1"):
        build_jn(su2_braid, 0)
