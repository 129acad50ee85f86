import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stehbein.calculus import differential0
from stehbein.frametensor import (
    _lambda_commutator,
    adjoint,
    antihermiticity_residual,
    centrality_residual,
)

from conftest import LAM, LAM1, LAM2, LAM3


def _rand(seed, N=2):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (N, N)) + 1j * rng.uniform(0, 1, (N, N))


def test_adjoint_identity():
    assert np.array_equal(adjoint(np.eye(2)), np.eye(2))


def test_adjoint_shift_matrix():
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.array_equal(adjoint(a), np.array([[0, 0], [1, 0]]))


def test_adjoint_su2_generators_antihermitian():
    for lam in LAM:
        assert np.allclose(adjoint(lam), -lam, atol=1e-15)
        assert antihermiticity_residual(lam) < 1e-15


def test_adjoint_involutive_exactly():
    a = _rand(0)
    assert np.array_equal(adjoint(adjoint(a)), a)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_adjoint_antihomomorphism(seed, N):
    a, b = _rand(seed, N), _rand(seed + 1, N)
    assert np.linalg.norm(adjoint(a @ b) - adjoint(b) @ adjoint(a)) <= 1e-12


def commutator(a, b):
    """[a, b] through the one lambda-commutator kernel, with a as the only generator."""
    return _lambda_commutator(np.asarray(a)[None], np.asarray(b))[0]


def test_commutator_with_self_is_zero():
    a = _rand(1)
    assert np.linalg.norm(commutator(a, a)) == 0.0


def test_commutator_su2_cyclic(su2_geom):
    # d f = [lam_a, f] theta^a, so slot a of d lam_b is [lam_a, lam_b]
    assert np.allclose(differential0(LAM2, su2_geom).coeffs[0], LAM3, atol=1e-15)
    assert np.allclose(differential0(LAM3, su2_geom).coeffs[1], LAM1, atol=1e-15)
    assert np.allclose(differential0(LAM1, su2_geom).coeffs[2], LAM2, atol=1e-15)
    for a in range(3):
        assert np.array_equal(differential0(LAM[a], su2_geom).coeffs[a], np.zeros((2, 2)))


def test_commutator_identity_is_central(su2_geom):
    b = _rand(2)
    assert np.linalg.norm(commutator(np.eye(2), b)) == 0.0
    assert not differential0(np.eye(2), su2_geom).coeffs.any()


def test_commutator_dimension_mismatch(su2_geom):
    # the kernel takes any stack; its callers check the matrix size
    for f in (np.eye(3), np.zeros((3, 2, 2))):
        with pytest.raises(ValueError):
            differential0(f, su2_geom)
    for a in (np.eye(3), np.zeros((4, 3, 3))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            centrality_residual(a, LAM)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_commutator_antisymmetry_and_jacobi(seed, N):
    a, b, c = _rand(seed, N), _rand(seed + 1, N), _rand(seed + 2, N)
    assert np.linalg.norm(commutator(a, b) + commutator(b, a)) <= 1e-12
    jac = (commutator(a, commutator(b, c))
           + commutator(b, commutator(c, a))
           + commutator(c, commutator(a, b)))
    assert np.linalg.norm(jac) <= 1e-12


def test_centrality_scalar_multiple_of_identity():
    assert centrality_residual(3.0 * np.eye(2), LAM) == 0.0


def test_centrality_zero_element():
    assert centrality_residual(np.zeros((2, 2)), LAM) == 0.0


def test_centrality_of_su2_generator():
    # max_a ||[lam_a, lam_3]||_F = ||lam_2||_F = sqrt(1/2), by 2x2 arithmetic
    assert centrality_residual(LAM3, LAM) == pytest.approx(0.7071067811865476, abs=1e-15)


def test_centrality_accepts_geometry_duck_type(su2_geom):
    assert centrality_residual(np.eye(2), su2_geom.lam) == 0.0


def test_centrality_dimension_mismatch():
    with pytest.raises(ValueError):
        centrality_residual(np.eye(3), LAM)


def test_centrality_of_a_stack_is_its_worst_entry():
    stack = np.array([np.eye(2), 2.0 * np.eye(2), LAM3, np.zeros((2, 2))]).reshape(2, 2, 2, 2)
    assert centrality_residual(stack, LAM) == centrality_residual(LAM3, LAM)
    assert centrality_residual(stack[0], LAM) == 0.0


def test_centrality_of_a_stack_with_nan_is_nan():
    stack = np.array([np.eye(2)] * 4, dtype=complex)
    stack[2, 1, 0] = np.nan
    assert np.isnan(centrality_residual(stack, LAM))
