"""Covariant derivatives, torsion, metric checks, curvature and Ricci."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matalg import centrality_residual
from .calculus import FrameGeometry, differential1, maurer_cartan, theta_squared
from .braiding import Braiding, apply_word, make_braiding
from .frametensor import (
    FrameTensorField,
    apply_central_at,
    basis_field,
    central_as_matrix,
    max_coeff_norm,
    wedge_project,
    worst,
)

_SLOT_LETTERS = "abcdefgh"
# highest degree dn accepts: it needs one einsum letter per slot of its result
MAX_DEGREE = len(_SLOT_LETTERS) - 1


@dataclass(frozen=True)
class Connection:
    """D theta^a = -omega^a_{bc} theta^b x theta^c with algebra-valued omega."""

    geom: FrameGeometry
    omega: np.ndarray  # (n, n, n, N, N)

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=complex)
        object.__setattr__(self, "omega", om)
        n, N = self.geom.n, self.geom.N
        if om.shape != (n, n, n, N, N):
            raise ValueError(f"omega has shape {om.shape}, expected {(n, n, n, N, N)}")


@dataclass(frozen=True)
class CurvatureData:
    """Curv(theta^a) = -1/2 R^a_{bcd} theta^c theta^d x theta^b, plus Ricci R^a_b.

    R is stored P-reduced on its last index pair; ``centrality_residual``
    reports how far the coefficients are from being central (right
    linearity of the curvature holds only when it vanishes).
    """

    R: np.ndarray       # (n, n, n, n, N, N)
    ricci: np.ndarray   # (n, n, N, N)
    centrality_residual: float


def d0_connection(geom: FrameGeometry, b: Braiding | None = None) -> Connection:
    """The canonical covariant derivative D_(0) theta^a = -theta x theta^a + sigma(theta^a x theta).

    In coefficients: omega^a_{bd} = -lam_b delta^a_d + lam_c S^{ac}_{bd}.

    Under pi o (sigma + 1) = 0, i.e. S^{ac}_{de} P^{de}_{bc'} = -P^{ac}_{bc'},
    its torsion is Theta^a = -1/2 F^a_{bc} theta^b theta^c: omega_0 P gives
    -lam_e (P^{ea}_{bc} + P^{ae}_{bc}), which cancels the lam-part of
    -1/2 C^a_{bc} (see ``calculus.maurer_cartan``).  So D_(0) is torsion-free
    exactly when F = 0, whatever the projector.
    """
    s = (b.S if b is not None else geom.S)
    eye = np.eye(geom.n)
    om = -np.einsum('ad,bij->abdij', eye, geom.lam)
    om += np.einsum('acbd,cij->abdij', s, geom.lam)
    return Connection(geom, om)


def central_connection(geom: FrameGeometry, chi: np.ndarray,
                       b: Braiding | None = None) -> Connection:
    """D_(0) shifted by a central bimodule morphism chi^a_{bc}."""
    chi = np.asarray(chi, dtype=complex)
    base = d0_connection(geom, b)
    return Connection(geom, base.omega + np.einsum('abc,ij->abcij', chi, np.eye(geom.N)))


def solve_torsionfree_chi(geom: FrameGeometry, b: Braiding | None = None) -> np.ndarray:
    """Minimum-norm central chi making D_(0) + chi torsion-free.

    Solves (omega_0 + chi)^a_{de} P^{de}_{bc} = 1/2 C^a_{bc} by dense least
    squares on the scalar part of the right-hand side; non-uniqueness along
    the kernel of P is resolved by the minimum-norm solution.
    """
    base = d0_connection(geom, b)
    c = maurer_cartan(geom)
    rhs = 0.5 * c - np.einsum('adeij,debc->abcij', base.omega, geom.P)
    # central part: coefficient of the identity matrix
    rhs_scalar = np.trace(rhs, axis1=-2, axis2=-1) / geom.N
    pm = central_as_matrix(geom.P)
    n = geom.n
    chi = np.empty((n, n * n), dtype=complex)
    for a in range(n):
        sol, *_ = np.linalg.lstsq(pm.T, rhs_scalar[a].reshape(n * n), rcond=None)
        chi[a] = sol
    return chi.reshape(n, n, n)


def torsionfree_connection(geom: FrameGeometry, b: Braiding | None = None) -> Connection:
    return central_connection(geom, solve_torsionfree_chi(geom, b), b)


def covariant_derivative(c: Connection, xi: FrameTensorField) -> FrameTensorField:
    """D(xi_a theta^a) = d xi_a x theta^a + xi_a D theta^a."""
    if xi.degree != 1:
        raise ValueError(f"expected a degree-1 field, got degree {xi.degree}")
    geom = c.geom
    out = np.einsum('pij,qjk->pqik', geom.lam, xi.coeffs)
    out -= np.einsum('qij,pjk->pqik', xi.coeffs, geom.lam)
    out -= np.einsum('aij,apqjk->pqik', xi.coeffs, c.omega)
    return FrameTensorField(geom.n, out)


def check_left_leibniz(c: Connection, f: np.ndarray, xi: FrameTensorField) -> float:
    """Residual of D(f xi) = df x xi + f D xi (holds by construction; regression)."""
    from .frametensor import left_mul, tensor_product
    from .calculus import differential0
    lhs = covariant_derivative(c, left_mul(f, xi))
    rhs = tensor_product(differential0(f, c.geom), xi) + left_mul(f, covariant_derivative(c, xi))
    return max_coeff_norm(lhs - rhs)


def check_right_leibniz(c: Connection, b: Braiding, f: np.ndarray,
                        xi: FrameTensorField) -> float:
    """Residual of D(xi f) = sigma(xi x df) + (D xi) f."""
    from .frametensor import right_mul, tensor_product
    from .calculus import differential0
    lhs = covariant_derivative(c, right_mul(xi, f))
    rhs = apply_central_at(tensor_product(xi, differential0(f, c.geom)), b.S, 1)
    rhs += right_mul(covariant_derivative(c, xi), f)
    return max_coeff_norm(lhs - rhs)


def torsion_forms(c: Connection) -> list[FrameTensorField]:
    """Torsion 2-forms Theta^a = d theta^a - pi(D theta^a), one per frame index."""
    geom = c.geom
    two_forms = []
    for a in range(geom.n):
        basis = basis_field(geom.n, geom.N, (a,))
        dth = differential1(basis, geom)
        pid = wedge_project(covariant_derivative(c, basis), 1, geom.P)
        two_forms.append(dth - pid)
    return two_forms


def algebraic_torsion(c: Connection) -> np.ndarray:
    """omega^a_{de} P^{de}_{bc} - 1/2 C^a_{bc}, shape (n, n, n, N, N).

    It equals the coefficients of the torsion 2-forms, but is computed
    through an independent code path so the agreement itself can be
    cross-checked.
    """
    return np.einsum('adeij,debc->abcij', c.omega, c.geom.P) - 0.5 * maurer_cartan(c.geom)


def torsion(c: Connection) -> tuple[list[FrameTensorField], float]:
    """Torsion 2-forms, plus the residual of the algebraic condition
    omega^a_{de} P^{de}_{bc} = 1/2 C^a_{bc}; the 2-forms vanish iff it does."""
    return torsion_forms(c), max_coeff_norm(FrameTensorField(c.geom.n, algebraic_torsion(c)))


def metric_eval(g: np.ndarray, t: FrameTensorField) -> np.ndarray:
    """g(f_{ab} theta^a x theta^b) = f_{ab} g^{ab}."""
    if t.degree != 2:
        raise ValueError(f"metric applies to degree-2 fields, got degree {t.degree}")
    return np.einsum('abij,ab->ij', t.coeffs, np.asarray(g, dtype=complex))


def check_metric_symmetry(g: np.ndarray, b: Braiding) -> tuple[float, complex]:
    """Least-squares proportionality of g o sigma to g.

    Returns (residual, c) where c minimizes |S^{ab}_{cd} g^{cd} - c g^{ab}|.
    """
    g = np.asarray(g, dtype=complex)
    gv = g.reshape(-1)
    if not np.any(gv):
        raise ValueError("metric is zero")
    u = central_as_matrix(b.S) @ gv
    c = complex(np.vdot(gv, u) / np.vdot(gv, gv))
    residual = float(np.max(np.abs(u - c * gv)))
    return residual, c


def check_metric_compatibility(c: Connection, b: Braiding,
                               g: np.ndarray) -> tuple[float, float]:
    """Residuals of the two compatibility identities.

    First form: omega^a_{bc} + omega_{cd}^e S^{ad}_{be} = 0, lowering and
    raising with g_{ab} = (g^{ab})^{-1}.  Second form (constrains S and g
    alone): S^{ae}_{df} g^{fg} S^{bc}_{eg} = g^{ab} delta^c_d.
    """
    g = np.asarray(g, dtype=complex)
    if abs(np.linalg.det(g)) < 1e-14:
        raise ValueError("metric is singular; cannot raise/lower indices")
    g_low = np.linalg.inv(g)
    lowered = np.einsum('cf,fdgij,ge->cdeij', g_low, c.omega, g)
    res1_t = c.omega + np.einsum('cdeij,adbe->abcij', lowered, b.S)
    res1 = max_coeff_norm(FrameTensorField(c.geom.n, res1_t))
    lhs2 = np.einsum('aedf,fg,bceg->abcd', b.S, g, b.S)
    rhs2 = np.einsum('ab,cd->abcd', g, np.eye(c.geom.n))
    res2 = float(np.max(np.abs(lhs2 - rhs2)))
    return res1, res2


def d2(c: Connection, b: Braiding, t: FrameTensorField) -> FrameTensorField:
    """D_2(f_{ab} theta^a x theta^b) = df_{ab} x theta^a x theta^b + f_{ab} D_2(theta^a x theta^b)."""
    if t.degree != 2:
        raise ValueError(f"expected a degree-2 field, got degree {t.degree}")
    geom = c.geom
    out = np.einsum('pij,qrjk->pqrik', geom.lam, t.coeffs)
    out -= np.einsum('qrij,pjk->pqrik', t.coeffs, geom.lam)
    out -= np.einsum('abij,apqjk->pqbik', t.coeffs, c.omega)
    out -= np.einsum('abij,acpq,bcrjk->pqrik', t.coeffs, b.S, c.omega)
    return FrameTensorField(geom.n, out)


def dn(c: Connection, b: Braiding, t: FrameTensorField) -> FrameTensorField:
    """D_n = sum_i (sigma_12 ... sigma_{(i-1)i}) o (1 x ... x D x ... x 1).

    Reduces to the covariant derivative for degree 1 and to D_2 for
    degree 2.  The differential of the coefficients enters once, through
    the first slot.
    """
    p = t.degree
    if p < 1:
        raise ValueError("D_n needs a field of degree >= 1")
    if p > MAX_DEGREE:
        raise ValueError(f"degree {p} exceeds the supported maximum {MAX_DEGREE}")
    geom = c.geom
    out = np.einsum('pij,...jk->p...ik', geom.lam, t.coeffs)
    out -= np.einsum('...ij,pjk->p...ik', t.coeffs, geom.lam)
    result = FrameTensorField(geom.n, out)
    letters = list(_SLOT_LETTERS[:p])
    for i in range(1, p + 1):
        src = "".join(letters[: i - 1] + ["z"] + letters[i:])
        dst = "".join(letters[: i - 1] + ["xy"] + letters[i:])
        term = -np.einsum(f"{src}ij,zxyjk->{dst}ik", t.coeffs, c.omega)
        term_field = apply_word(FrameTensorField(geom.n, term), b, range(1, i))
        result = result + term_field
    return result


def curvature_of_form(c: Connection, b: Braiding, p_tensor: np.ndarray,
                      xi: FrameTensorField) -> FrameTensorField:
    """pi_12 o D_2 o D applied to a 1-form."""
    return wedge_project(d2(c, b, covariant_derivative(c, xi)), 1, p_tensor)


def curvature(c: Connection, b: Braiding, p_tensor: np.ndarray) -> CurvatureData:
    """Curvature and Ricci of a connection.

    R^a_{bcd} is read off from Curv(theta^a) = -1/2 R^a_{bcd} theta^c theta^d x theta^b
    and P-reduced on (c, d); Ricci is R^a_c = 1/2 R^a_{bcd} g^{db} (with the
    identity metric when none is supplied).
    """
    geom = c.geom
    n, N = geom.n, geom.N
    r = np.empty((n, n, n, n, N, N), dtype=complex)
    for a in range(n):
        curv = curvature_of_form(c, b, p_tensor, basis_field(n, N, (a,)))
        # coefficient at (c, d, b) is -1/2 R^a_{bcd}
        r[a] = -2.0 * np.moveaxis(curv.coeffs, 2, 0)
    r = np.einsum('abcdij,cdef->abefij', r, p_tensor)
    g = geom.g if geom.g is not None else np.eye(n, dtype=complex)
    ricci = 0.5 * np.einsum('abcdij,db->acij', r, g)
    cent = worst(centrality_residual(r[idx], geom.lam) for idx in np.ndindex(n, n, n, n))
    return CurvatureData(R=r, ricci=ricci, centrality_residual=cent)


def curvature_d0_closed_form(geom: FrameGeometry, b: Braiding | None,
                             p_tensor: np.ndarray,
                             xi: FrameTensorField | None = None) -> FrameTensorField | list[FrameTensorField]:
    """Closed-form curvature of D_(0):

        Curv_0(xi) = theta^2 x xi
                     + pi_12 sigma_12 sigma_23 sigma_12 (xi x theta x theta).

    Derivation: df = -[theta, f] gives D_(0) xi = -theta x xi + sigma(xi x theta)
    for every 1-form xi and D_2 t = -theta x t + sigma_12 sigma_23 (t x theta)
    for every 2-tensor t, so

        D_2 D_(0) xi = theta x theta x xi - (1 + sigma_12) sigma_23 (theta x xi x theta)
                       + sigma_12 sigma_23 sigma_12 (xi x theta x theta),

    and pi_12 removes the middle term by pi o (sigma + 1) = 0.  Nothing else
    is assumed: neither F = 0 nor the structure condition.  In theta^2 x xi
    the theta^2 coefficients stand left of xi_a; the order matters unless
    they commute with xi_a (they are central when F = 0 and the structure
    condition holds, since then theta^2 = 1/2 K).

    With ``xi=None`` returns the list over all frame basis 1-forms.
    """
    if b is None:
        b = make_braiding(geom.S)
    if xi is None:
        return [curvature_d0_closed_form(geom, b, p_tensor, basis_field(geom.n, geom.N, (a,)))
                for a in range(geom.n)]
    th2 = theta_squared(geom)
    # theta^2 x xi: coefficient at (p, q, a) is theta^2_{pq} xi_a
    t1 = np.einsum('pqij,ajk->pqaik', th2.coeffs, xi.coeffs)
    lamlam = np.einsum('bij,cjk->bcik', geom.lam, geom.lam)
    t2 = np.einsum('aij,bcjk->abcik', xi.coeffs, lamlam)
    field2 = apply_word(FrameTensorField(geom.n, t2), b, [1, 2, 1])
    field2 = wedge_project(field2, 1, p_tensor)
    return FrameTensorField(geom.n, t1) + field2
