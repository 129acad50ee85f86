import dataclasses
import functools
import itertools
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stehbein.braiding import check_sigma_consistency, check_yang_baxter, make_braiding, sigma_from_tau
from stehbein.calculus import FrameGeometry, differential0
from stehbein.connection import (central_connection, check_metric_compatibility,
                                 check_metric_symmetry, d0_connection)
from stehbein.fixtures import levi_civita, random_geometry, su2_flip_geometry
from stehbein.involution import check_metric_compat_second, check_metric_reality
from stehbein.report import run_verify
from stehbein.frametensor import (
    COMPLEX,
    FrameTensorField,
    _lambda_commutator,
    adjoint,
    antisymmetrizer_central,
    apply_central_at,
    basis_field,
    central_as_matrix,
    central_at,
    centrality_residual,
    flip_central,
    identity_central,
    left_mul,
    max_coeff_norm,
    max_entry,
    right_mul,
    tensor_product,
    word_tensor,
)

from conftest import LAM, LAM1, LAM2, LAM3, lift_central, reversal_central, zero_field


def _rand_field(seed, n=3, N=2, degree=1):
    rng = np.random.default_rng(seed)
    shape = (n,) * degree + (N, N)
    return FrameTensorField(n, rng.uniform(0, 1, shape) + 1j * rng.uniform(0, 1, shape))


# ---------------------------------------------------------------------------
# multiplication by algebra elements


def test_left_mul_identity_is_noop():
    t = _rand_field(0, degree=2)
    assert max_coeff_norm((left_mul(np.eye(2), t) - t).coeffs) == 0.0


def test_left_mul_places_coefficient():
    t = left_mul(LAM1, basis_field(3, 2, (0,)))
    assert np.allclose(t.coeffs[0], LAM1)
    assert np.allclose(t.coeffs[1], 0) and np.allclose(t.coeffs[2], 0)


def test_left_mul_associativity():
    t = _rand_field(1)
    f, g = LAM1, LAM2
    assert max_coeff_norm((left_mul(f, left_mul(g, t)) - left_mul(f @ g, t)).coeffs) <= 1e-15


def test_right_mul_identity_is_noop():
    t = _rand_field(2)
    assert max_coeff_norm((right_mul(t, np.eye(2)) - t).coeffs) == 0.0


def test_right_mul_central_element_commutes():
    t = _rand_field(3)
    f = 2.5j * np.eye(2)
    assert max_coeff_norm((right_mul(t, f) - left_mul(f, t)).coeffs) <= 1e-15


def test_right_vs_left_mul_orders_noncommuting_coefficients():
    # field with coefficient lam_1 on theta^1; lam_1 lam_2 = diag(-i/4, i/4)
    t = left_mul(LAM1, basis_field(3, 2, (0,)))
    right = right_mul(t, LAM2)
    left = left_mul(LAM2, t)
    assert np.allclose(right.coeffs[0], np.diag([-0.25j, 0.25j]), atol=1e-15)
    assert np.allclose(left.coeffs[0], np.diag([0.25j, -0.25j]), atol=1e-15)
    assert max_coeff_norm((right - left).coeffs) > 0.4


@pytest.mark.parametrize("shape", [(3, 3), (2, 2, 2), (3, 2, 2), (2,), (3, 2), ()],
                         ids=lambda shape: "x".join(map(str, shape)) or "scalar")
@pytest.mark.parametrize("mul", [left_mul, lambda f, t: right_mul(t, f)], ids=["left", "right"])
def test_mul_dimension_mismatch(mul, shape):
    # f must be one (N, N) element: matmul would broadcast a stack of them slot by slot,
    # and at (n, N, N) return a field
    t = _rand_field(4)
    with pytest.raises(ValueError, match="dimension mismatch"):
        mul(np.ones(shape), t)


# ---------------------------------------------------------------------------
# tensor product


def test_tensor_product_with_degree0_identity():
    t = _rand_field(5, degree=2)
    one = FrameTensorField(3, np.eye(2, dtype=complex))
    assert max_coeff_norm((tensor_product(t, one) - t).coeffs) == 0.0


def test_tensor_product_of_basis_fields():
    t = tensor_product(basis_field(3, 2, (0,)), basis_field(3, 2, (1,)))
    assert np.allclose(t.coeffs[0, 1], np.eye(2))
    assert max_coeff_norm(t.coeffs) == pytest.approx(np.sqrt(2))
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
    assert max_coeff_norm((lhs - rhs).coeffs) <= 1e-12


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
    assert max_coeff_norm((lhs - rhs).coeffs) <= 1e-14
    lhs = apply_central_at(right_mul(t, f), m, 1)
    rhs = right_mul(apply_central_at(t, m, 1), f)
    assert max_coeff_norm((lhs - rhs).coeffs) <= 1e-14


def test_apply_central_position_out_of_range():
    t = _rand_field(12, degree=2)
    with pytest.raises(ValueError):
        apply_central_at(t, flip_central(3), 2)
    with pytest.raises(ValueError):
        apply_central_at(t, flip_central(3), 0)


def test_central_at_writes_the_same_bits_into_a_buffer_it_is_given():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3, 3, 5)) + 1j * rng.normal(size=(3, 3, 3, 5))
    m = rng.normal(size=(3,) * 4) + 1j * rng.normal(size=(3,) * 4)
    for pos in (1, 2):
        buf = np.full(a.shape, np.nan, dtype=complex)
        got = central_at(a, m, pos, out=buf)
        assert np.shares_memory(got, buf) and got.shape == a.shape
        assert buf.tobytes() == central_at(a, m, pos).tobytes(), pos
    # a reshape of either would be a copy, so the result would never reach the buffer
    for bad in (np.empty((3, 3, 3, 5, 2), dtype=complex)[..., 0], np.empty((3, 3, 15), dtype=complex)):
        with pytest.raises(ValueError, match="C-contiguous"):
            central_at(a, m, 1, out=bad)


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 3, 9, 1), (9, 9)])
def test_apply_central_rejects_a_tensor_not_over_the_field_frame(shape):
    # each of these flattens to a square matrix, so only the shape check stops it
    with pytest.raises(ValueError, match="frame dimension mismatch"):
        apply_central_at(_rand_field(12, degree=2), np.ones(shape), 1)


def test_composition_convention():
    # applying m then m2 equals applying the composed tensor once
    rng = np.random.default_rng(13)
    m = rng.normal(size=(3, 3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3, 3))
    m2 = rng.normal(size=(3, 3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3, 3))
    t = _rand_field(14, degree=2)
    stepwise = apply_central_at(apply_central_at(t, m, 1), m2, 1)
    # the first map applied is leftmost in the matrix product
    product = (central_as_matrix(m) @ central_as_matrix(m2)).reshape(m.shape)
    composed = apply_central_at(t, product, 1)
    assert max_coeff_norm((stepwise - composed).coeffs) <= 1e-12


# ---------------------------------------------------------------------------
# wedge projection


def test_wedge_project_idempotent():
    t = _rand_field(15, degree=2)
    p = antisymmetrizer_central(3)
    once = apply_central_at(t, p, 1)
    twice = apply_central_at(once, p, 1)
    assert max_coeff_norm((twice - once).coeffs) <= 1e-12


def test_wedge_kills_diagonal_basis():
    t = basis_field(3, 2, (0, 0))
    out = apply_central_at(t, antisymmetrizer_central(3), 1)
    assert max_coeff_norm(out.coeffs) == 0.0


def test_wedge_antisymmetrizes_offdiagonal():
    t = basis_field(3, 2, (0, 1))
    out = apply_central_at(t, antisymmetrizer_central(3), 1)
    assert np.allclose(out.coeffs[0, 1], 0.5 * np.eye(2))
    assert np.allclose(out.coeffs[1, 0], -0.5 * np.eye(2))


# ---------------------------------------------------------------------------
# norms


def test_max_coeff_norm_zero_field():
    assert max_coeff_norm(zero_field(3, 2, 2).coeffs) == 0.0


def test_max_coeff_norm_basis_field():
    assert max_coeff_norm(basis_field(3, 2, (0,)).coeffs) == pytest.approx(np.sqrt(2))


def test_max_coeff_norm_difference_of_equal_fields():
    t = _rand_field(17)
    assert max_coeff_norm((t - t).coeffs) == 0.0


def test_max_coeff_norm_of_an_empty_field_is_zero_and_a_nan_stays_nan():
    assert max_coeff_norm(np.zeros((0, 2, 2))) == 0.0
    coeffs = np.zeros((3, 2, 2), dtype=complex)
    coeffs[1, 0, 1] = np.nan
    assert np.isnan(max_coeff_norm(coeffs))


def test_max_entry_is_the_largest_modulus_and_keeps_nan_and_inf():
    x = np.array([[3 - 4j, -1.0], [0.5j, 2.0]])
    assert max_entry(x) == 5.0 and type(max_entry(x)) is float
    # a NaN after finite entries is not maxed away, and an inf entry reads inf
    assert np.isnan(max_entry(np.array([1.0, 2.0, np.nan])))
    assert np.isnan(max_entry(np.array([np.nan, 1e300, 2.0])))
    assert max_entry(np.array([1.0, -np.inf, 2.0])) == np.inf
    assert max_entry(np.array([1.0, complex(0, np.inf)])) == np.inf


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
    assert np.array_equal(central_as_matrix(m).reshape(m.shape), m)


# ---------------------------------------------------------------------------
# algebra helpers: adjoint, the lambda-commutator, centrality

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


# ---------------------------------------------------------------------------
# argument checks and the constructor's contract


@pytest.mark.parametrize("shape", [(3, 2, 3), (2,)])
def test_a_grid_without_square_matrix_axes_is_refused(shape):
    with pytest.raises(ValueError, match="has no square matrix axes"):
        FrameTensorField(3, np.zeros(shape))


def test_frame_axes_other_than_n_are_refused():
    with pytest.raises(ValueError, match=re.escape("frame axes of (3, 2, 2, 2) do not all equal n=3")):
        FrameTensorField(3, np.zeros((3, 2, 2, 2)))


@pytest.mark.parametrize("op", [operator.add, operator.sub])
def test_fields_of_other_shapes_are_neither_added_nor_subtracted(op):
    with pytest.raises(ValueError, match="field mismatch"):
        op(_rand_field(1, degree=1), _rand_field(2, degree=2))
    with pytest.raises(ValueError, match="field mismatch"):
        op(_rand_field(1, N=2), _rand_field(2, N=3))


def test_a_central_tensor_of_odd_rank_is_refused():
    with pytest.raises(ValueError, match="central tensor must have even rank, got 3"):
        central_as_matrix(np.ones((3, 3, 3)))
    for rank in (3, 0):
        with pytest.raises(ValueError, match=f"central tensor of rank {rank} is not of even rank"):
            apply_central_at(_rand_field(3, degree=2), np.ones((3,) * rank), 1)


@pytest.mark.parametrize("letter", [0, 3])
def test_a_word_letter_out_of_range_is_refused(letter):
    with pytest.raises(ValueError, match=f"letter {letter} out of range for 3 strands"):
        word_tensor(flip_central(2), 3, [1, letter])


@pytest.mark.parametrize("index,shown", [((-1,), "(-1,)"), ((3,), "(3,)"), (1.7, "(1.7,)"),
                                         ((0, -1), "(0, -1)"), ((2, 3), "(2, 3)"),
                                         ((True,), "(True,)")])
def test_a_basis_index_outside_0_to_n_is_refused(index, shown):
    with pytest.raises(ValueError, match=re.escape(f"basis index {shown}") + ".*n=3"):
        basis_field(3, 2, index)


@pytest.mark.parametrize("index", [(), (1,), 1, (np.int64(2), 0), [2, 0, 1]])
def test_basis_field_puts_the_identity_at_its_index(index):
    idx = tuple(np.atleast_1d(index)) if index != () else ()
    want = np.zeros((3,) * len(idx) + (2, 2), dtype=complex)
    want[idx] = np.eye(2)
    got = basis_field(3, 2, index).coeffs
    assert got.dtype == np.complex128 and np.array_equal(got, want)


@pytest.mark.parametrize("grid", [np.ones((3, 2, 2)), np.ones((3, 2, 2)).tolist(),
                                  np.ones((3, 2, 2), dtype=np.complex64)])
def test_the_constructor_makes_every_grid_a_complex128_array(grid):
    t = FrameTensorField(3, grid)
    assert type(t.coeffs) is np.ndarray and t.coeffs.dtype == np.complex128
    assert np.array_equal(t.coeffs, np.ones((3, 2, 2)))


def test_a_complex128_grid_is_kept_without_a_copy():
    c = np.zeros((3, 3, 2, 2), dtype=complex)
    assert FrameTensorField(3, c).coeffs is c


def test_replace_negation_and_the_products_still_build_checked_fields():
    t = _rand_field(5, degree=2)
    f = np.random.default_rng(5).normal(size=(2, 2)) + 0j
    doubled = dataclasses.replace(t, coeffs=2 * t.coeffs)
    assert isinstance(doubled, FrameTensorField) and np.array_equal(doubled.coeffs, 2 * t.coeffs)
    with pytest.raises(ValueError, match="frame axes"):
        dataclasses.replace(t, n=4)
    assert np.array_equal((-t).coeffs, -t.coeffs) and (-t).n == 3
    assert np.array_equal(left_mul(f, t).coeffs, f @ t.coeffs)
    assert np.array_equal(right_mul(t, f).coeffs, t.coeffs @ f)


def test_a_field_is_frozen():
    t = _rand_field(6)
    for name in ("n", "coeffs"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, 1)
    # a slotted class has no room for a new attribute; which error says so
    # depends on the Python version (TypeError from the frozen __setattr__ on 3.11)
    with pytest.raises((AttributeError, TypeError)):
        t.extra = 1
    assert not hasattr(t, "__dict__")


# ---------------------------------------------------------------------------
# the one dtype rule: COMPLEX is the scalar type, and a real or integer array gives the
# bits of its complex twin, whether the site converts it or its operands' dtype carries it


@functools.cache
def _dtype_geometry():
    geom = random_geometry(3, n=3, N=4)
    return geom, d0_connection(geom, geom.braid)


def _complex_braiding(rng, n):
    return make_braiding(rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4))


# name: (run(rng, *arrays), shapes of the arrays by frame size n, the sizes n); sizes and
# seeds where dropping a converter changes the bits.  A metric gets 10 on its diagonal, so
# that an integer one in [-3, 3] is invertible
DTYPE_SITES = {
    "sigma_from_tau": (lambda rng, t, p: sigma_from_tau(t, p).S, lambda n: [(n,) * 4] * 2, (2, 5)),
    "check_sigma_consistency": (lambda rng, p: check_sigma_consistency(_complex_braiding(rng, len(p)), p),
                                lambda n: [(n,) * 4], (2, 5)),
    "check_yang_baxter": (lambda rng, j: check_yang_baxter(j), lambda n: [(n,) * 4], (2, 5)),
    "differential0": (lambda rng, f: differential0(f, _dtype_geometry()[0]).coeffs,
                      lambda n: [(4, 4)], (3,)),
    "central_connection": (lambda rng, chi: central_connection(
        _dtype_geometry()[0], chi, _dtype_geometry()[0].braid).omega, lambda n: [(n,) * 3], (3,)),
    "check_metric_symmetry": (lambda rng, g: check_metric_symmetry(g, _complex_braiding(rng, len(g))),
                              lambda n: [(n, n)], (2, 5)),
    "check_metric_compatibility": (lambda rng, g: check_metric_compatibility(
        _dtype_geometry()[1], _dtype_geometry()[0].braid, g + 10 * np.eye(3, dtype=g.dtype)),
        lambda n: [(n, n)], (3,)),
    "check_metric_compat_second": (lambda rng, g: check_metric_compat_second(
        g, _complex_braiding(rng, len(g))), lambda n: [(n, n)], (2, 5)),
    "check_metric_reality": (lambda rng, g: check_metric_reality(g, _complex_braiding(rng, len(g))),
                             lambda n: [(n, n)], (2, 5)),
}


@pytest.mark.parametrize("kind", ["real", "integer"])
@pytest.mark.parametrize("name", sorted(DTYPE_SITES))
def test_a_real_or_integer_input_gives_the_bits_of_its_complex_twin(name, kind):
    run, shapes, sizes = DTYPE_SITES[name]
    for n, seed in itertools.product(sizes, range(10)):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(s) if kind == "real" else rng.integers(-3, 4, s)
                  for s in shapes(n)]
        assert all(a.dtype != COMPLEX for a in arrays)
        got = run(np.random.default_rng(seed), *arrays)
        want = run(np.random.default_rng(seed), *(a.astype(COMPLEX) for a in arrays))
        for x, y in zip(*(r if isinstance(r, tuple) else (r,) for r in (got, want)), strict=True):
            assert np.array_equal(x, y), (n, seed)


def test_verify_on_su2_flip_built_from_integer_or_real_arrays_reports_the_complex_build():
    lam = su2_flip_geometry().lam
    eye9 = np.eye(9, dtype=int)
    flip = eye9.reshape(3, 3, 3, 3).transpose(0, 1, 3, 2).copy()
    integer = dict(P=(eye9.reshape(flip.shape) - flip) / 2, S=flip,
                   F=levi_civita().astype(int), K=np.zeros((3, 3), dtype=int), g=np.eye(3, dtype=int))
    builds = [{k: v.astype(dtype) for k, v in integer.items()} for dtype in (float, COMPLEX)]
    reports = [run_verify(FrameGeometry(N=2, n=3, lam=lam, **arrays), max_order=3, seed=1).to_dict()
               for arrays in (integer, *builds)]
    assert reports[0] == reports[1] == reports[2]
    assert reports[2] == run_verify(su2_flip_geometry(), max_order=3, seed=1).to_dict()
