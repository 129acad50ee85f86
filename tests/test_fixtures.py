import dataclasses

import numpy as np
import pytest

from stehbein import calculus, fixtures
from stehbein.braiding import check_sigma_consistency, make_braiding
from stehbein.calculus import (
    check_structure,
    check_theta_squared,
    differential0,
    differential1,
)
from stehbein.connection import curvature, curvature_of_form, d0_connection
from stehbein.fixtures import random_geometry
from stehbein.frametensor import (
    FrameTensorField,
    antisymmetrizer_central,
    basis_field,
    max_coeff_norm,
)

from conftest import random_matrix, su2_torsionfree_connection

# each fixture object whose fields include arrays, built once
ARRAY_DATACLASSES = {
    "geometry": lambda: fixtures.su2_flip_geometry(),
    "braiding": lambda: fixtures.su2_flip_geometry().braid,
    "connection": lambda: su2_torsionfree_connection(),
    "curvature": lambda: curvature(su2_torsionfree_connection(), fixtures.su2_flip_geometry().braid),
    "field": lambda: basis_field(3, 2, (0, 1)),
}


@pytest.mark.parametrize("kind", ARRAY_DATACLASSES)
def test_array_dataclasses_compare_and_hash_by_identity(kind):
    # the generated __eq__ would compare arrays and raise; identity never does
    obj = ARRAY_DATACLASSES[kind]()
    assert obj == obj
    assert obj != dataclasses.replace(obj)
    assert obj != ARRAY_DATACLASSES[kind]()
    assert len({obj, fixtures.su2_flip_geometry(), fixtures.su2_flip_geometry().braid}) == 3


F_ZERO_CASES = [(seed, n, N) for seed in (23, 31) for n, N in ((3, 2), (4, 3), (5, 4))]


# ---------------------------------------------------------------------------
# the exact F = 0 family


@pytest.mark.parametrize("seed,n,N", F_ZERO_CASES)
def test_f_zero_geometry_meets_theorem_hypotheses(seed, n, N):
    # every hypothesis the D_(0) torsion and closed-form curvature tests rely on
    geom = random_geometry(seed, n, N, force_f_zero=True)
    assert np.all(geom.F == 0)
    assert check_structure(geom) <= 1e-12
    assert check_theta_squared(geom) <= 1e-12
    rng = np.random.default_rng(seed)
    d2 = max(max_coeff_norm(differential1(differential0(random_matrix(rng, N), geom), geom).coeffs)
             for _ in range(20))
    assert d2 <= 1e-12
    assert check_sigma_consistency(make_braiding(geom.S), geom.P) <= 1e-12

    pm = geom.P.reshape(n * n, n * n)
    assert np.max(np.abs(pm - pm.conj().T)) <= 1e-12
    assert np.max(np.abs(pm @ pm - pm)) <= 1e-12
    assert np.max(np.abs(geom.P + np.swapaxes(geom.P, 0, 1))) <= 1e-12

    # non-degenerate: neither theorem test can pass on a trivial geometry
    braid = make_braiding(geom.S)
    conn = d0_connection(geom, braid)
    assert np.max(np.abs(conn.omega)) >= 1e-2
    curv = max(max_coeff_norm(curvature_of_form(conn, braid, basis_field(n, N, (a,))).coeffs)
               for a in range(n))
    assert curv >= 1e-2


def test_f_zero_geometry_is_seeded():
    g1 = random_geometry(23, 4, 3, force_f_zero=True)
    g2 = random_geometry(23, 4, 3, force_f_zero=True)
    g3 = random_geometry(24, 4, 3, force_f_zero=True)
    assert np.array_equal(g1.lam, g2.lam) and np.array_equal(g1.P, g2.P)
    assert not np.allclose(g1.lam, g3.lam)


@pytest.mark.parametrize("n", [1, 2])
def test_f_zero_geometry_refuses_sizes_without_one(n):
    # Lambda^2 has no proper subspace of positive dimension: at n = 2 the only
    # antisymmetric projector of positive rank is the full antisymmetrizer,
    # and it makes omega_0 vanish
    with pytest.raises(ValueError, match=rf"n={n}, N=2\b"):
        random_geometry(0, n, 2, force_f_zero=True)


def test_f_zero_geometry_refuses_a_residual(monkeypatch):
    monkeypatch.setattr(fixtures, "check_structure", lambda geom: 0.5)
    with pytest.raises(ValueError, match=r"n=3, N=2.*structure residual 5\.000e-01"):
        random_geometry(23, force_f_zero=True)


def _nan_field(t):
    return FrameTensorField(t.n, np.full_like(t.coeffs, np.nan))


@pytest.mark.parametrize("module,target,message", [
    (calculus, "differential0", "d-squared residual nan"),
    (fixtures, "curvature_of_form", "D_\\(0\\) curvature nan"),
], ids=["d-squared", "curvature"])
def test_f_zero_geometry_refuses_nan_on_the_last_unit(module, target, message, monkeypatch):
    # a NaN after the first matrix unit or basis 1-form must not be maxed away;
    # the d-squared gate reaches differential0 through calculus.check_d_squared
    real = getattr(module, target)
    if target == "differential0":
        def poisoned(f, geom):
            out = real(f, geom)
            return _nan_field(out) if f[-1, -1] == 1 else out
    else:
        def poisoned(c, braid, xi):
            out = real(c, braid, xi)
            return _nan_field(out) if xi.coeffs[-1].any() else out
    monkeypatch.setattr(module, target, poisoned)
    with pytest.raises(ValueError, match=message):
        random_geometry(23, force_f_zero=True)


def test_f_zero_geometry_refuses_a_degenerate_draw(monkeypatch):
    # the full antisymmetrizer passes every residual check but omega_0 = 0
    monkeypatch.setattr(fixtures, "random_wedge_projector",
                        lambda rng, n, rank: antisymmetrizer_central(n))
    with pytest.raises(ValueError, match=r"n=4, N=3.*degenerate"):
        random_geometry(23, 4, 3, force_f_zero=True)


# ---------------------------------------------------------------------------
# building blocks


def test_random_unitary_is_unitary():
    u = fixtures.random_unitary(np.random.default_rng(5), 4)
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-14


@pytest.mark.parametrize("rank", [1, 3, 5])
def test_random_wedge_projector_rank_and_symmetry(rank):
    p = fixtures.random_wedge_projector(np.random.default_rng(rank), 4, rank)
    pm = p.reshape(16, 16)
    assert np.trace(pm).real == pytest.approx(rank, abs=1e-12)
    assert np.max(np.abs(pm @ pm - pm)) <= 1e-14
    assert np.max(np.abs(p + np.swapaxes(p, 0, 1))) <= 1e-15
    assert np.max(np.abs(p + np.swapaxes(p, 2, 3))) <= 1e-15


@pytest.mark.parametrize("phases, message", [
    ({(0, 3): 1.0}, r"pair \(0, 3\) out of range for n=3"),
    ({(1, 1): -1.0}, r"diagonal phase L\[1,1\] must be 1"),
    ({(0, 1): 1.5}, r"phase L\[0,1\] = 1.5 is not unit modulus"),
], ids=["out-of-range", "diagonal", "not-unit"])
def test_phase_twist_refuses_a_phase_it_cannot_hold(phases, message):
    with pytest.raises(ValueError, match=message):
        fixtures.phase_twist_braiding(3, phases)


def test_phase_twist_accepts_a_diagonal_phase_of_one():
    # L_aa = 1 is forced, so giving it changes nothing
    with_diagonal = fixtures.phase_twist_braiding(3, {(0, 0): 1.0, (0, 1): 1j})
    without = fixtures.phase_twist_braiding(3, {(0, 1): 1j})
    assert np.array_equal(with_diagonal[0].S, without[0].S)
    assert np.array_equal(with_diagonal[1], without[1])


def test_an_unknown_fixture_name_is_refused():
    # the CLI's argparse choices refuse it first, so the builder is called directly
    with pytest.raises(ValueError, match="unknown fixture 'nope'"):
        fixtures.build_fixture("nope")
