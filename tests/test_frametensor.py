import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stehbein.frametensor import (
    FrameTensorField,
    antisymmetrizer_central,
    apply_central_at,
    basis_field,
    central_as_matrix,
    flip_central,
    identity_central,
    left_mul,
    matrix_as_central,
    max_coeff_norm,
    right_mul,
    tensor_product,
    wedge_project,
    word_tensor,
    zero_field,
)

from conftest import LAM1, LAM2, lift_central, reversal_central


def _rand_field(seed, n=3, N=2, degree=1):
    rng = np.random.default_rng(seed)
    shape = (n,) * degree + (N, N)
    return FrameTensorField(n, rng.uniform(0, 1, shape) + 1j * rng.uniform(0, 1, shape))


# ---------------------------------------------------------------------------
# multiplication by algebra elements


def test_left_mul_identity_is_noop():
    t = _rand_field(0, degree=2)
    assert max_coeff_norm(left_mul(np.eye(2), t) - t) == 0.0


def test_left_mul_places_coefficient():
    t = left_mul(LAM1, basis_field(3, 2, (0,)))
    assert np.allclose(t.coeffs[0], LAM1)
    assert np.allclose(t.coeffs[1], 0) and np.allclose(t.coeffs[2], 0)


def test_left_mul_associativity():
    t = _rand_field(1)
    f, g = LAM1, LAM2
    assert max_coeff_norm(left_mul(f, left_mul(g, t)) - left_mul(f @ g, t)) <= 1e-15


def test_right_mul_identity_is_noop():
    t = _rand_field(2)
    assert max_coeff_norm(right_mul(t, np.eye(2)) - t) == 0.0


def test_right_mul_central_element_commutes():
    t = _rand_field(3)
    f = 2.5j * np.eye(2)
    assert max_coeff_norm(right_mul(t, f) - left_mul(f, t)) <= 1e-15


def test_right_vs_left_mul_orders_noncommuting_coefficients():
    # field with coefficient lam_1 on theta^1; lam_1 lam_2 = diag(-i/4, i/4)
    t = left_mul(LAM1, basis_field(3, 2, (0,)))
    right = right_mul(t, LAM2)
    left = left_mul(LAM2, t)
    assert np.allclose(right.coeffs[0], np.diag([-0.25j, 0.25j]), atol=1e-15)
    assert np.allclose(left.coeffs[0], np.diag([0.25j, -0.25j]), atol=1e-15)
    assert max_coeff_norm(right - left) > 0.4


def test_mul_dimension_mismatch():
    t = _rand_field(4)
    with pytest.raises(ValueError):
        left_mul(np.eye(3), t)
    with pytest.raises(ValueError):
        right_mul(t, np.eye(3))


# ---------------------------------------------------------------------------
# tensor product


def test_tensor_product_with_degree0_identity():
    t = _rand_field(5, degree=2)
    one = FrameTensorField(3, np.eye(2, dtype=complex))
    assert max_coeff_norm(tensor_product(t, one) - t) == 0.0


def test_tensor_product_of_basis_fields():
    t = tensor_product(basis_field(3, 2, (0,)), basis_field(3, 2, (1,)))
    assert np.allclose(t.coeffs[0, 1], np.eye(2))
    assert max_coeff_norm(t) == pytest.approx(np.sqrt(2))
    total = np.sum(np.abs(t.coeffs))
    assert total == pytest.approx(2.0)


def test_tensor_product_multiplies_coefficients():
    t1 = left_mul(LAM1, basis_field(3, 2, (0,)))
    t2 = left_mul(LAM2, basis_field(3, 2, (1,)))
    t = tensor_product(t1, t2)
    assert np.allclose(t.coeffs[0, 1], np.diag([-0.25j, 0.25j]), atol=1e-15)


def test_tensor_product_associative():
    a, b, c = _rand_field(6), _rand_field(7), _rand_field(8)
    lhs = tensor_product(tensor_product(a, b), c)
    rhs = tensor_product(a, tensor_product(b, c))
    assert max_coeff_norm(lhs - rhs) <= 1e-12


def test_tensor_product_dimension_mismatch():
    with pytest.raises(ValueError):
        tensor_product(_rand_field(9, n=3), _rand_field(10, n=2))


# ---------------------------------------------------------------------------
# central tensor application


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_apply_identity_tensor_is_exact(seed, degree):
    t = _rand_field(seed, degree=degree)
    out = apply_central_at(t, identity_central(3, 1), 1)
    assert np.array_equal(out.coeffs, t.coeffs)
    out2 = apply_central_at(t, identity_central(3, degree), 1)
    assert np.allclose(out2.coeffs, t.coeffs, atol=1e-15)


def test_apply_flip_swaps_basis_indices():
    t = tensor_product(basis_field(3, 2, (0,)), basis_field(3, 2, (2,)))
    out = apply_central_at(t, flip_central(3), 1)
    assert np.allclose(out.coeffs[2, 0], np.eye(2))
    assert np.allclose(out.coeffs[0, 2], 0)


def test_apply_antisymmetrizer_on_basis_pair(su2_geom):
    # P(theta^1 x theta^2) = (theta^1 x theta^2 - theta^2 x theta^1)/2
    t = basis_field(3, 2, (0, 1))
    out = apply_central_at(t, su2_geom.P, 1)
    assert np.allclose(out.coeffs[0, 1], 0.5 * np.eye(2))
    assert np.allclose(out.coeffs[1, 0], -0.5 * np.eye(2))


def test_apply_central_commutes_with_algebra_action():
    t = _rand_field(11, degree=2)
    m = antisymmetrizer_central(3)
    f = LAM1 + 0.3 * np.eye(2)
    lhs = apply_central_at(left_mul(f, t), m, 1)
    rhs = left_mul(f, apply_central_at(t, m, 1))
    assert max_coeff_norm(lhs - rhs) <= 1e-14
    lhs = apply_central_at(right_mul(t, f), m, 1)
    rhs = right_mul(apply_central_at(t, m, 1), f)
    assert max_coeff_norm(lhs - rhs) <= 1e-14


def test_apply_central_position_out_of_range():
    t = _rand_field(12, degree=2)
    with pytest.raises(ValueError):
        apply_central_at(t, flip_central(3), 2)
    with pytest.raises(ValueError):
        apply_central_at(t, flip_central(3), 0)


def test_composition_convention():
    # applying m then m2 equals applying the composed tensor once
    rng = np.random.default_rng(13)
    m = rng.normal(size=(3, 3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3, 3))
    m2 = rng.normal(size=(3, 3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3, 3))
    t = _rand_field(14, degree=2)
    stepwise = apply_central_at(apply_central_at(t, m, 1), m2, 1)
    # the first map applied is leftmost in the matrix product
    product = matrix_as_central(central_as_matrix(m) @ central_as_matrix(m2), 3)
    composed = apply_central_at(t, product, 1)
    assert max_coeff_norm(stepwise - composed) <= 1e-12


# ---------------------------------------------------------------------------
# wedge projection


def test_wedge_project_idempotent():
    t = _rand_field(15, degree=2)
    p = antisymmetrizer_central(3)
    once = wedge_project(t, 1, p)
    twice = wedge_project(once, 1, p)
    assert max_coeff_norm(twice - once) <= 1e-12


def test_wedge_kills_diagonal_basis():
    t = basis_field(3, 2, (0, 0))
    out = wedge_project(t, 1, antisymmetrizer_central(3))
    assert max_coeff_norm(out) == 0.0


def test_wedge_antisymmetrizes_offdiagonal():
    t = basis_field(3, 2, (0, 1))
    out = wedge_project(t, 1, antisymmetrizer_central(3))
    assert np.allclose(out.coeffs[0, 1], 0.5 * np.eye(2))
    assert np.allclose(out.coeffs[1, 0], -0.5 * np.eye(2))


# ---------------------------------------------------------------------------
# norms


def test_max_coeff_norm_zero_field():
    assert max_coeff_norm(zero_field(3, 2, 2)) == 0.0


def test_max_coeff_norm_basis_field():
    assert max_coeff_norm(basis_field(3, 2, (0,))) == pytest.approx(np.sqrt(2))


def test_max_coeff_norm_difference_of_equal_fields():
    t = _rand_field(17)
    assert max_coeff_norm(t - t) == 0.0


# ---------------------------------------------------------------------------
# words and lifts


def test_word_tensor_matches_lift_composition():
    rng = np.random.default_rng(18)
    s = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
    letters = [1, 2, 1]
    via_word = central_as_matrix(word_tensor(s, 3, letters))
    mats = [central_as_matrix(lift_central(s, 3, i)) for i in letters]
    # rightmost acts first; first-applied leftmost in the matrix product
    expected = mats[2] @ mats[1] @ mats[0]
    assert np.max(np.abs(via_word - expected)) <= 1e-12


def test_reversal_central_reverses_indices():
    r = reversal_central(2, 3)
    t = basis_field(2, 2, (0, 1, 1))
    out = apply_central_at(t, r, 1)
    assert np.allclose(out.coeffs[1, 1, 0], np.eye(2))


def test_matrix_round_trip():
    m = antisymmetrizer_central(3)
    assert np.array_equal(matrix_as_central(central_as_matrix(m), 3), m)
