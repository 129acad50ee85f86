"""Covariant derivatives, torsion, metric checks, curvature and Ricci."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import FrameGeometry, _first_order, differential0, differential1
from .braiding import Braiding
from .frametensor import (
    INVERSE_COND_LIMIT,
    FrameTensorField,
    _as_complex,
    _lambda_commutator,
    _omega_at_slot,
    _omega_matrix,
    _read_only,
    apply_central_at,
    basis_field,
    central_as_matrix,
    central_at,
    centrality_residual,
    left_mul,
    max_coeff_norm,
    max_entry,
    right_mul,
    tensor_product,
    worst,
)

# highest --max-order verify accepts; the limit is memory, not dn: at order 7
# dn-reality-7 holds the star tensor j_7 and builds j_8, which has n^16 entries
# (build_jn keeps j_8, the j_7 of its step before, 1/n^2 of j_8, and 4 MiB of
# column blocks); jn-involutive-7 forms no j_7, only j_6
MAX_DEGREE = 7


# eq=False: array fields have no truth value, so equality and hashing are by identity
@dataclass(frozen=True, eq=False)
class Connection:
    """D theta^a = -omega^a_{bc} theta^b x theta^c with algebra-valued omega.

    ``omega`` is a read-only copy, as the arrays of ``FrameGeometry`` are, so
    its GEMM form ``omega_matrix``, built on first use and kept, cannot go
    stale: an in-place write into ``omega`` raises ValueError.
    """

    geom: FrameGeometry
    omega: np.ndarray  # (n, n, n, N, N)

    def __post_init__(self):
        n, N = self.geom.n, self.geom.N
        object.__setattr__(self, "omega", _read_only(self.omega, "omega", (n, n, n, N, N)))

    @cached_property
    def omega_matrix(self) -> np.ndarray:
        """``_omega_matrix(self.omega)``, read-only: the operand of ``_omega_at_slot``."""
        n, N = self.geom.n, self.geom.N
        return _read_only(_omega_matrix(self.omega), "omega_matrix", (n * N, n * n * N))


# eq=False: array fields have no truth value, so equality and hashing are by identity
@dataclass(frozen=True, eq=False)
class CurvatureData:
    """Curv(theta^a) = -1/2 R^a_{bcd} theta^c theta^d x theta^b, plus Ricci R^a_b.

    R is stored P-reduced on its last index pair; ``centrality_residual``
    reports how far the coefficients are from being central (right
    linearity of the curvature holds only when it vanishes).
    """

    R: np.ndarray       # (n, n, n, n, N, N)
    ricci: np.ndarray   # (n, n, N, N)
    centrality_residual: float


def d0_connection(geom: FrameGeometry, b: Braiding) -> Connection:
    """The canonical covariant derivative D_(0) theta^a = -theta x theta^a + sigma(theta^a x theta).

    In coefficients: omega^a_{bd} = -lam_b delta^a_d + lam_c S^{ac}_{bd}.

    Under pi o (sigma + 1) = 0, i.e. S^{ac}_{de} P^{de}_{bc'} = -P^{ac}_{bc'},
    its torsion is Theta^a = -1/2 F^a_{bc} theta^b theta^c: omega_0 P gives
    -lam_e (P^{ea}_{bc} + P^{ae}_{bc}), which cancels the lam-part of
    -1/2 C^a_{bc} (see ``calculus.maurer_cartan``).  So D_(0) is torsion-free
    exactly when F = 0, whatever the projector.
    """
    eye = np.eye(geom.n)
    om = -np.einsum('ad,bij->abdij', eye, geom.lam)
    om += np.einsum('acbd,cij->abdij', b.S, geom.lam)
    return Connection(geom, om)


def central_connection(geom: FrameGeometry, chi: np.ndarray, b: Braiding) -> Connection:
    """D_(0) shifted by a central bimodule morphism chi^a_{bc}."""
    base = d0_connection(geom, b)
    return Connection(geom, base.omega + np.einsum('abc,ij->abcij', chi, np.eye(geom.N)))


def solve_torsionfree_chi(geom: FrameGeometry, b: Braiding) -> np.ndarray:
    """Minimum-norm central chi making D_(0) + chi torsion-free.

    Solves (omega_0 + chi)^a_{de} P^{de}_{bc} = 1/2 C^a_{bc} by dense least
    squares on the scalar part of the right-hand side; non-uniqueness along
    the kernel of P is resolved by the minimum-norm solution.
    """
    rhs = -algebraic_torsion(d0_connection(geom, b))
    # central part: coefficient of the identity matrix
    rhs_scalar = np.trace(rhs, axis1=-2, axis2=-1) / geom.N
    n = geom.n
    # one solve with a column of right-hand sides per a
    sol, *_ = np.linalg.lstsq(central_as_matrix(geom.P).T, rhs_scalar.reshape(n, n * n).T,
                              rcond=None)
    return sol.T.reshape(n, n, n)


def covariant_derivative(c: Connection, xi: FrameTensorField) -> FrameTensorField:
    """D(xi_a theta^a) = d xi_a x theta^a + xi_a D theta^a.

    ``calculus._first_order`` with ``c.omega_matrix``: ``dn``'s arithmetic at degree 1,
    bit for bit, without a ``dn`` call for a trace to count.
    """
    if xi.degree != 1:
        raise ValueError(f"expected a degree-1 field, got degree {xi.degree}")
    return _first_order(c.geom, c.omega_matrix, c.geom.braid, xi)


def check_leibniz(c: Connection, b: Braiding, f: np.ndarray,
                  xi: FrameTensorField) -> tuple[float, float]:
    """Residuals (left, right) of the Leibniz pair on one (f, xi), which share df and D xi:
    D(f xi) = df x xi + f D xi (holds by construction; regression) and
    D(xi f) = sigma(xi x df) + (D xi) f.

    D runs ``dn``'s kernel and f xi, xi f are matmuls (``left_mul``, ``right_mul``)."""
    df, dxi = differential0(f, c.geom), covariant_derivative(c, xi)
    left = covariant_derivative(c, left_mul(f, xi)) - (tensor_product(df, xi) + left_mul(f, dxi))
    rhs = apply_central_at(tensor_product(xi, df), b.S, 1)
    rhs += right_mul(dxi, f)
    right = covariant_derivative(c, right_mul(xi, f)) - rhs
    return max_coeff_norm(left.coeffs), max_coeff_norm(right.coeffs)


def torsion_forms(c: Connection) -> list[FrameTensorField]:
    """Torsion 2-forms Theta^a = d theta^a - pi(D theta^a), one per frame index."""
    geom = c.geom
    two_forms = []
    for a in range(geom.n):
        basis = basis_field(geom.n, geom.N, (a,))
        dth = differential1(basis, geom)
        pid = apply_central_at(covariant_derivative(c, basis), geom.P, 1)
        two_forms.append(dth - pid)
    return two_forms


def algebraic_torsion(c: Connection) -> np.ndarray:
    """omega^a_{de} P^{de}_{bc} - 1/2 C^a_{bc}, shape (n, n, n, N, N).

    It equals the coefficients of the torsion 2-forms, but is computed
    through an independent code path so the agreement itself can be
    cross-checked.
    """
    return central_at(c.omega, c.geom.P, 2) - 0.5 * c.geom.C


def check_metric_symmetry(g: np.ndarray, b: Braiding) -> tuple[float, complex]:
    """Least-squares proportionality of g o sigma to g.

    Returns (residual, c) where c minimizes |S^{ab}_{cd} g^{cd} - c g^{ab}|.
    """
    gv = _as_complex(g).reshape(-1)
    if not np.any(gv):
        raise ValueError("metric is zero")
    u = central_as_matrix(b.S) @ gv
    c = complex(np.vdot(gv, u) / np.vdot(gv, gv))
    return max_entry(u - c * gv), c


def check_metric_compatibility(c: Connection, b: Braiding, g: np.ndarray) -> float:
    """Residual of the first compatibility form, omega^a_{bc} + omega_{cd}^e S^{ad}_{be} = 0,
    lowering and raising with g_{ab} = (g^{ab})^{-1}.

    g is singular by condition number, whatever its scale; a non-finite g
    gives a NaN residual.  The second form reads S and g alone
    (``involution.check_metric_compat_second``).
    """
    g = _as_complex(g)
    if np.all(np.isfinite(g)) and not np.linalg.cond(g) <= INVERSE_COND_LIMIT:
        raise ValueError("metric is singular; cannot raise/lower indices")
    g_low = np.linalg.inv(g)
    lowered = np.einsum('cf,fdgij,ge->cdeij', g_low, c.omega, g)
    res1_t = c.omega + np.einsum('cdeij,adbe->abcij', lowered, b.S)
    return max_coeff_norm(res1_t)


def d2(c: Connection, b: Braiding, t: FrameTensorField) -> FrameTensorField:
    """D_2(f_{ab} theta^a x theta^b) = df_{ab} x theta^a x theta^b + f_{ab} D_2(theta^a x theta^b).

    ``dn`` at degree 2 runs these operations in this order, bit for bit.  Only
    the d2-reality-strong and -braided rows call it, pinned by perfbench's counts.
    """
    if t.degree != 2:
        raise ValueError(f"expected a degree-2 field, got degree {t.degree}")
    geom = c.geom
    if t.n != geom.n or t.N != geom.N:
        raise ValueError("field does not match geometry dimensions")
    first, second = _omega_at_slot(t.coeffs, c.omega_matrix, 1, 2)
    out = _lambda_commutator(geom.lam, t.coeffs)
    out -= first
    # S^{ac}_{pq} (t_{ab} omega^b_{cr}): t.omega first, then S on its first pair
    out -= central_at(second, b.S, 1)
    return FrameTensorField(geom.n, out)


def dn(c: Connection, b: Braiding, t: FrameTensorField) -> FrameTensorField:
    """D_n = sum_i (sigma_12 ... sigma_{(i-1)i}) o (1 x ... x D x ... x 1).

    Reduces to the covariant derivative for degree 1 and to D_2 for
    degree 2.  The differential of the coefficients enters once, through
    the first slot.  It is ``calculus._first_order`` with ``c.omega_matrix``.
    """
    if t.degree < 1:
        raise ValueError("D_n needs a field of degree >= 1")
    return _first_order(c.geom, c.omega_matrix, b, t)


def check_sigma_lemma(c: Connection, b: Braiding, p: int, op=None) -> float:
    """Residual of op o sigma_{(i-1)i} = sigma_{i(i+1)} o op, 2 <= i <= p, on
    every degree-p basis monomial.

    ``op`` maps degree-p fields to degree p + 1 and defaults to ``dn``,
    which is looked up when the check runs, so a wrapper bound to that name
    is the one called.  At p = 2 with ``op = d2`` this is the braided form
    of D_2 reality, D_2 o sigma = sigma_23 o D_2.
    """
    if p < 2:
        raise ValueError("the sigma lemma needs order >= 2")
    op = dn if op is None else op
    return worst(_intertwining_residual(c, b, p, op, lambda t: apply_central_at(t, b.S, i - 1),
                                        lambda t: apply_central_at(t, b.S, i))
                 for i in range(2, p + 1))


def _intertwining_residual(c: Connection, b: Braiding, p: int, op, before, after) -> float:
    """Worst coefficient norm of op(before(t)) - after(op(t)) over the degree-p basis
    monomials t, in that call order: the sweep of ``check_sigma_lemma`` and
    ``involution.check_Dn_reality``."""
    n, N = c.geom.n, c.geom.N
    monomials = (basis_field(n, N, idx) for idx in np.ndindex(*(n,) * p))
    return worst(max_coeff_norm((op(c, b, before(t)) - after(op(c, b, t))).coeffs) for t in monomials)


def curvature_of_form(c: Connection, b: Braiding, xi: FrameTensorField) -> FrameTensorField:
    """pi_12 o D_2 o D applied to a 1-form."""
    return apply_central_at(dn(c, b, covariant_derivative(c, xi)), c.geom.P, 1)


def curvature(c: Connection, b: Braiding) -> CurvatureData:
    """Curvature and Ricci of a connection.

    R^a_{bcd} is read off from Curv(theta^a) = -1/2 R^a_{bcd} theta^c theta^d x theta^b,
    whose pi_12 leaves it P-reduced on (c, d); Ricci is R^a_c = 1/2 R^a_{bcd} g^{db}
    (with the identity metric when none is supplied).
    """
    geom = c.geom
    n, N = geom.n, geom.N
    r = np.empty((n, n, n, n, N, N), dtype=c.omega.dtype)
    for a in range(n):
        curv = curvature_of_form(c, b, basis_field(n, N, (a,)))
        # coefficient at (c, d, b) is -1/2 R^a_{bcd}
        r[a] = -2.0 * np.moveaxis(curv.coeffs, 2, 0)
    g = geom.g if geom.g is not None else np.eye(n, dtype=r.dtype)
    ricci = 0.5 * np.einsum('abcdij,db->acij', r, g)
    cent = centrality_residual(r.reshape(-1, N, N), geom.lam)
    return CurvatureData(R=r, ricci=ricci, centrality_residual=cent)

