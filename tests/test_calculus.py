import dataclasses

import numpy as np
import pytest

from stehbein.calculus import (
    GEOMETRY_ARRAYS,
    FrameGeometry,
    check_d_squared,
    check_structure,
    check_theta_squared,
    differential0,
    differential1,
    dirac_form,
    geometry_invariants,
    maurer_cartan,
    theta_squared,
)
from stehbein.braiding import Braiding, check_braid, make_braiding
from stehbein.connection import Connection
from stehbein.fixtures import random_geometry, su2_flip_geometry
from stehbein.frametensor import (
    FrameTensorField,
    antisymmetrizer_central,
    basis_field,
    flip_central,
    left_mul,
    max_coeff_norm,
    right_mul,
)
from stehbein.involution import star_form

from conftest import LAM, LAM1, LAM2, levi_civita3, random_matrix


def _zero_geometry():
    return FrameGeometry(N=2, n=3, lam=np.zeros((3, 2, 2)),
                         P=antisymmetrizer_central(3), S=flip_central(3))


# ---------------------------------------------------------------------------
# dirac form


def test_dirac_form_su2(su2_geom):
    th = dirac_form(su2_geom)
    assert np.allclose(th.coeffs, -LAM, atol=1e-15)


def test_dirac_form_is_antihermitian_as_a_form(su2_geom):
    # (theta^a)* = theta^a and lam_a antihermitian give theta* = -theta
    th = dirac_form(su2_geom)
    assert max_coeff_norm(star_form(th) + th) <= 1e-15


def test_dirac_form_zero_generators():
    assert max_coeff_norm(dirac_form(_zero_geometry())) == 0.0


# ---------------------------------------------------------------------------
# differential on degree 0


def test_differential0_of_identity(su2_geom):
    assert max_coeff_norm(differential0(np.eye(2), su2_geom)) == 0.0


def test_differential0_su2_generator(su2_geom):
    # d lam_3 has frame components ([lam_1,lam_3], [lam_2,lam_3], 0) = (-lam_2, lam_1, 0)
    d = differential0(LAM[2], su2_geom)
    assert np.allclose(d.coeffs[0], -LAM2, atol=1e-15)
    assert np.allclose(d.coeffs[1], LAM1, atol=1e-15)
    assert np.allclose(d.coeffs[2], 0, atol=1e-15)


def test_differential0_equals_minus_theta_commutator(su2_geom, rng):
    # df = -[theta, f] expanded on the frame
    th = dirac_form(su2_geom)
    for _ in range(5):
        f = random_matrix(rng)
        bracket = right_mul(th, f) - left_mul(f, th)
        assert max_coeff_norm(differential0(f, su2_geom) + bracket) <= 1e-12


def test_differential0_dimension_mismatch(su2_geom):
    with pytest.raises(ValueError):
        differential0(np.eye(3), su2_geom)


def test_differential0_leibniz(su2_geom, rng):
    # d(fg) = df g + f dg, expanded on the frame
    for _ in range(5):
        f, g = random_matrix(rng), random_matrix(rng)
        lhs = differential0(f @ g, su2_geom)
        rhs = right_mul(differential0(f, su2_geom), g) + left_mul(f, differential0(g, su2_geom))
        assert max_coeff_norm(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# Maurer-Cartan coefficients


def test_maurer_cartan_su2_is_epsilon(su2_geom):
    # antisymmetric P kills the symmetrized generator term, leaving eps * identity
    c = maurer_cartan(su2_geom)
    expected = np.einsum('abc,ij->abcij', levi_civita3(), np.eye(2))
    assert np.max(np.abs(c - expected)) <= 1e-15


def test_maurer_cartan_zero_when_f_zero_and_antisymmetric_p(su2_geom):
    geom = dataclasses.replace(su2_geom, F=np.zeros((3, 3, 3)))
    assert np.max(np.abs(maurer_cartan(geom))) <= 1e-15


def test_maurer_cartan_p_reduced_on_random_geometry():
    geom = random_geometry(101)
    c = maurer_cartan(geom)
    reduced = np.einsum('abcij,bcde->adeij', c, geom.P)
    assert np.max(np.abs(reduced - c)) <= 1e-12


def test_cached_c_is_maurer_cartan_exactly(su2_geom, pauli_twist_geom):
    for geom in (su2_geom, pauli_twist_geom, random_geometry(0), random_geometry(5, n=4, N=3)):
        assert np.array_equal(geom.C, maurer_cartan(geom))
        assert geom.C is geom.C


def test_replace_builds_a_fresh_c(pauli_twist_geom):
    geom = pauli_twist_geom
    before = geom.C.copy()
    other = dataclasses.replace(geom, P=antisymmetrizer_central(3))
    assert np.array_equal(other.C, maurer_cartan(other))
    assert not np.array_equal(other.C, before)
    assert np.array_equal(geom.C, before)


@pytest.mark.parametrize("attr", ["lam", "P", "S", "F", "K", "g", "C"])
def test_geometry_arrays_refuse_in_place_writes(attr):
    # a write would leave the cached C stale, so it raises instead
    geom = dataclasses.replace(_zero_geometry(), lam=LAM.copy(), g=np.eye(3))
    arr = getattr(geom, attr)
    with pytest.raises(ValueError, match="read-only"):
        arr[(0,) * arr.ndim] = 1.0


def test_geometry_copies_its_input_arrays():
    lam, f = LAM.copy(), levi_civita3().astype(complex)
    geom = FrameGeometry(N=2, n=3, lam=lam, P=antisymmetrizer_central(3), S=flip_central(3), F=f)
    c = geom.C.copy()
    lam[0] = 0.0
    f[0] = 0.0
    assert np.array_equal(geom.lam, LAM) and np.array_equal(geom.F, levi_civita3())
    assert np.array_equal(geom.C, c)


def _record(kind, sources):
    if kind == "Braiding":
        return Braiding(3, sources["S"])
    if kind == "Connection":
        return Connection(su2_flip_geometry(), sources["omega"])
    return FrameGeometry(N=2, n=3, **sources)


@pytest.mark.parametrize("kind, fields", [
    ("FrameGeometry", ("lam", "P", "S", "F", "K", "g", "omega")),
    ("FrameGeometry", ("lam", "P", "S", "F", "K", "g", "chi")),
    ("Connection", ("omega",)),
    ("Braiding", ("S",)),
], ids=["geometry-omega", "geometry-chi", "connection", "braiding"])
def test_every_kept_array_is_a_read_only_copy(kind, fields, rng):
    # complex sources, which np.asarray(x, dtype=complex) would keep as aliases
    shapes = {f: tuple({"n": 3, "N": 2}[a] for a in axes) for f, _, axes in GEOMETRY_ARRAYS}
    sources = {f: rng.uniform(0, 1, shapes[f]) + 1j for f in fields}
    record = _record(kind, sources)
    for field in fields:
        kept = getattr(record, field)
        before = kept.copy()
        with pytest.raises(ValueError, match="read-only"):
            kept[(0,) * kept.ndim] = 1.0
        sources[field][...] = 7.0
        assert np.array_equal(kept, before), field


def _frame_commutation_residual(geom, f):
    """Residual of d(f theta^a) = d(theta^a f) on 2-forms:
    (e_b f)(P^{ba} + P^{ab})_{pq} + 1/2 [C^a_{pq}, f]."""
    ef = np.array([l @ f - f @ l for l in geom.lam])
    c = maurer_cartan(geom)
    res = np.einsum('bij,bapq->apqij', ef, geom.P) + np.einsum('bij,abpq->apqij', ef, geom.P)
    res += 0.5 * (np.einsum('apqij,jk->apqik', c, f) - np.einsum('ij,apqjk->apqik', f, c))
    return float(np.max(np.abs(res)))


def test_maurer_cartan_keeps_the_frame_central(pauli_twist_geom, rng):
    # the lam-part of C is forced by f theta^a = theta^a f; P here has a
    # symmetric upper part, so a C with half that lam-part fails this
    for geom in (pauli_twist_geom, random_geometry(0)):
        for _ in range(10):
            assert _frame_commutation_residual(geom, random_matrix(rng)) <= 1e-13


# ---------------------------------------------------------------------------
# differential on degree 1


def test_differential1_central_constant_with_zero_c(su2_geom):
    geom = dataclasses.replace(su2_geom, lam=np.zeros((3, 2, 2)), F=np.zeros((3, 3, 3)))
    xi = FrameTensorField(3, np.stack([np.eye(2), 2 * np.eye(2), 3j * np.eye(2)]))
    assert max_coeff_norm(differential1(xi, geom)) == 0.0


def test_differential1_su2_basis(su2_geom):
    # d theta^a = -1/2 eps_{abc} theta^b theta^c
    eps = levi_civita3()
    for a in range(3):
        d = differential1(basis_field(3, 2, (a,)), su2_geom)
        expected = np.einsum('bc,ij->bcij', -0.5 * eps[a], np.eye(2))
        assert np.max(np.abs(d.coeffs - expected)) <= 1e-15


def test_differential1_requires_degree_one(su2_geom):
    with pytest.raises(ValueError):
        differential1(basis_field(3, 2, (0, 1)), su2_geom)


def test_d_squared_vanishes_su2(su2_geom, rng):
    assert check_d_squared(su2_geom, (random_matrix(rng) for _ in range(100))) <= 1e-10


def _matrix_units(N):
    return np.eye(N * N, dtype=complex).reshape(N * N, N, N)


def test_matrix_units_decide_d_squared(rng):
    # d^2 is linear: on a geometry that misses the structure condition the
    # units see the failure, and bound any element by the sum of its entries
    geom = random_geometry(0, n=4, N=3)
    assert check_structure(geom) >= 1e-3
    units = check_d_squared(geom, _matrix_units(3))
    assert units >= 1e-3
    f = random_matrix(rng, 3)
    assert check_d_squared(geom, [f]) <= np.sum(np.abs(f)) * units * (1 + 1e-12)
    assert check_d_squared(geom, []) == 0.0
    assert np.isnan(check_d_squared(geom, [np.full((3, 3), np.nan)]))


def test_pauli_twist_is_exact_with_symmetric_projector(pauli_twist_geom):
    geom = pauli_twist_geom
    assert check_structure(geom) == 0.0
    assert check_theta_squared(geom) == 0.0
    assert check_braid(make_braiding(geom.S)) == 0.0
    assert np.max(np.abs(geom.P + np.swapaxes(geom.P, 0, 1))) == 1.0


def test_d_squared_vanishes_with_symmetric_projector(pauli_twist_geom, rng):
    # the structure condition implies d^2 = 0 for every P, not only for P
    # antisymmetric in its upper pair (derivation in maurer_cartan)
    assert check_d_squared(pauli_twist_geom, (random_matrix(rng) for _ in range(50))) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_d_squared_vanishes_on_exact_random_geometries(seed):
    # n = 3, N = 2: the least-squares fit is exact, with F, K != 0 and P
    # without any symmetry
    geom = random_geometry(seed)
    assert check_structure(geom) <= 1e-12
    assert np.max(np.abs(geom.F)) >= 1e-2
    assert np.max(np.abs(geom.P + np.swapaxes(geom.P, 0, 1))) >= 1e-2
    assert check_d_squared(geom, _matrix_units(2)) <= 1e-12


# ---------------------------------------------------------------------------
# structure condition


def test_structure_su2(su2_geom):
    assert check_structure(su2_geom) <= 1e-12


def test_structure_all_zero():
    assert check_structure(_zero_geometry()) == 0.0


def test_structure_perturbed_K(su2_geom):
    k = su2_geom.K.copy()
    k[0, 1] += 0.1
    geom = dataclasses.replace(su2_geom, K=k)
    # the perturbation enters linearly; residual is ||0.1 * I_2||_F = 0.1 sqrt(2)
    assert check_structure(geom) == pytest.approx(0.1 * np.sqrt(2), abs=1e-12)


# ---------------------------------------------------------------------------
# theta squared


def test_theta_squared_su2(su2_geom):
    assert check_theta_squared(su2_geom) <= 1e-12


def test_theta_squared_su2_value(su2_geom):
    # theta^2 = -d theta: coefficients +1/2 eps_{abc} lam_a... check against eps/2 pattern
    th2 = theta_squared(su2_geom)
    dth = differential1(dirac_form(su2_geom), su2_geom)
    assert max_coeff_norm(th2 + dth) <= 1e-15


def test_theta_squared_zero_geometry():
    assert check_theta_squared(_zero_geometry()) == 0.0


def test_theta_squared_violating_geometry_reports(su2_geom):
    # the perturbation must survive the wedge projection, so antisymmetric
    k = su2_geom.K.copy()
    k[0, 1] += 0.2
    k[1, 0] -= 0.2
    geom = dataclasses.replace(su2_geom, K=k)
    assert check_theta_squared(geom) == pytest.approx(0.1 * np.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_theta_squared_holds_with_k_on_random_geometries(seed):
    # K != 0 here, so the sign of the K term decides the residual
    geom = random_geometry(seed)
    assert check_structure(geom) <= 1e-12
    assert np.max(np.abs(geom.K)) >= 5e-2
    assert check_theta_squared(geom) <= 1e-14


def test_theta_squared_holds_with_a_scalar_shift_of_the_frame(su2_geom):
    # lam_a + i alpha_a 1 keeps 2 lam lam P = lam F (P antisymmetric), so the
    # structure condition holds exactly with K = -i alpha_e F^e
    alpha = np.array([0.3, -0.7, 1.1])
    geom = dataclasses.replace(
        su2_geom, lam=su2_geom.lam + 1j * alpha[:, None, None] * np.eye(2),
        K=-1j * np.einsum('e,eab->ab', alpha, su2_geom.F))
    assert check_structure(geom) == 0.0
    assert check_theta_squared(geom) == 0.0


# ---------------------------------------------------------------------------
# geometry invariants


def test_invariants_su2(su2_geom):
    res = geometry_invariants(su2_geom)
    assert all(v <= 1e-12 for v in res.values()), res


def test_the_antihermiticity_gate_reads_zero_on_an_exact_frame():
    # max_coeff_norm of lam + lam^+: the su(2) generators cancel entry by entry
    assert geometry_invariants(su2_flip_geometry())["lambda_antihermitian"] == 0.0


def test_invariants_flag_bad_lambda(su2_geom):
    lam = su2_geom.lam.copy()
    lam[0] += 0.5 * np.eye(2)  # hermitian part
    res = geometry_invariants(dataclasses.replace(su2_geom, lam=lam))
    assert res["lambda_antihermitian"] > 0.5


def test_invariants_flag_non_projector(su2_geom):
    res = geometry_invariants(dataclasses.replace(su2_geom, P=0.7 * su2_geom.P))
    assert res["P_projector"] > 0.05


def test_geometry_shape_validation():
    with pytest.raises(ValueError):
        FrameGeometry(N=2, n=3, lam=np.zeros((2, 2, 2)),
                      P=antisymmetrizer_central(3), S=flip_central(3))
