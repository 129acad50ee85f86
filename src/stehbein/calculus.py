"""Geometry record, the differential on degrees 0 and 1, and consistency checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matalg import antihermiticity_residual, commutator
from .frametensor import (
    FrameTensorField,
    central_as_matrix,
    max_coeff_norm,
    tensor_product,
    wedge_project,
    worst,
)


@dataclass(frozen=True)
class FrameGeometry:
    """Everything needed to run the calculus over M_N(C) with an n-frame.

    ``lam`` are the frame generators (the differential is f -> [lam_a, f]),
    ``P`` the wedge projector, ``S`` the generalized-permutation tensor,
    ``F``/``K`` the central structure tensors, ``g`` an optional metric,
    ``omega``/``chi`` optional connection data.
    """

    N: int
    n: int
    lam: np.ndarray              # (n, N, N)
    P: np.ndarray                # (n, n, n, n)
    S: np.ndarray                # (n, n, n, n)
    F: np.ndarray | None = None  # (n, n, n), defaults to zero
    K: np.ndarray | None = None  # (n, n), defaults to zero
    g: np.ndarray | None = None  # (n, n)
    omega: np.ndarray | None = None  # (n, n, n, N, N)
    chi: np.ndarray | None = None    # (n, n, n)

    def __post_init__(self):
        n, N = self.n, self.N
        conv = lambda x: None if x is None else np.asarray(x, dtype=complex)
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=complex))
        object.__setattr__(self, "P", np.asarray(self.P, dtype=complex))
        object.__setattr__(self, "S", np.asarray(self.S, dtype=complex))
        object.__setattr__(self, "F", conv(self.F) if self.F is not None else np.zeros((n, n, n), complex))
        object.__setattr__(self, "K", conv(self.K) if self.K is not None else np.zeros((n, n), complex))
        for name, val, shape in [
            ("lam", self.lam, (n, N, N)),
            ("P", self.P, (n,) * 4),
            ("S", self.S, (n,) * 4),
            ("F", self.F, (n,) * 3),
            ("K", self.K, (n,) * 2),
        ]:
            if val.shape != shape:
                raise ValueError(f"{name} has shape {val.shape}, expected {shape}")
        for name, val, shape in [
            ("g", conv(self.g), (n,) * 2),
            ("omega", conv(self.omega), (n, n, n, N, N)),
            ("chi", conv(self.chi), (n,) * 3),
        ]:
            object.__setattr__(self, name, val)
            if val is not None and val.shape != shape:
                raise ValueError(f"{name} has shape {val.shape}, expected {shape}")


def geometry_invariants(geom: FrameGeometry) -> dict[str, float]:
    """Residuals of the structural invariants enforced on any geometry.

    * every lambda_a antihermitian,
    * P a projector (P o P = P),
    * F reduced by P on its lower pair (F^a_{bc} P^{bc}_{de} = F^a_{de}).
    """
    res = {}
    res["lambda_antihermitian"] = worst(antihermiticity_residual(l) for l in geom.lam)
    pm = central_as_matrix(geom.P)
    res["P_projector"] = float(np.max(np.abs(pm @ pm - pm)))
    fp = np.einsum('abc,bcde->ade', geom.F, geom.P)
    res["F_P_reduced"] = float(np.max(np.abs(fp - geom.F)))
    return res


def dirac_form(geom: FrameGeometry) -> FrameTensorField:
    """The 1-form -lam_a theta^a generating the differential as f -> -[theta, f]."""
    return FrameTensorField(geom.n, -geom.lam)


def differential0(f: np.ndarray, geom: FrameGeometry) -> FrameTensorField:
    """df = [lam_a, f] theta^a."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (geom.N, geom.N):
        raise ValueError(f"element of shape {f.shape} does not match N={geom.N}")
    return FrameTensorField(geom.n, commutator(geom.lam, f))


def maurer_cartan(geom: FrameGeometry) -> np.ndarray:
    """C^a_{bc} = F^a_{bc} 1 - 2 lam_e (P^{ae}_{bc} + P^{ea}_{bc}), shape (n,n,n,N,N).

    C is defined by d theta^a = -1/2 C^a_{bc} theta^b theta^c and is not free:
    the frame commutes with the algebra, and applying d to f theta^a = theta^a f
    gives (e_b f)(P^{ba} + P^{ab})_{pq} = -1/2 [C^a_{pq}, f] for every f, which
    fixes the lam-part of C to the one above (the central part is F).  With
    this C the structure condition implies d^2 = 0 for every projector P.
    Expanding d(df), with e_b f = [lam_b, f] and X_{pq} = lam_b lam_c P^{bc}_{pq}:

        P-projected e_b e_c f  = X f + f lam_c lam_b P^{bc} - lam_b f lam_c (P^{bc} + P^{cb}),
        -1/2 (e_a f) C^a       = -1/2 lam_a F^a f + 1/2 f lam_a F^a
                                 + lam_b f lam_c (P^{bc} + P^{cb})
                                 - f (X + lam_c lam_b P^{bc}),

    so the lam f lam terms cancel and, by the structure condition
    2 X = lam_c F^c + K, d(df) = 1/2 [K, f] = 0 since K is central.  A C with
    only half the lam-part leaves d(df) = -1/2 [lam_b, f] lam_c (P^{bc} + P^{cb}),
    which vanishes for all f only when P is antisymmetric in its upper pair;
    the two forms agree on such P.
    """
    eye = np.eye(geom.N)
    c = np.einsum('abc,ij->abcij', geom.F, eye)
    p_sym = geom.P + np.swapaxes(geom.P, 0, 1)
    c -= 2.0 * np.einsum('eij,aebc->abcij', geom.lam, p_sym)
    return c


def differential1(xi: FrameTensorField, geom: FrameGeometry) -> FrameTensorField:
    """d(xi_a theta^a) = (e_b xi_a) theta^b theta^a - 1/2 xi_a C^a_{bc} theta^b theta^c.

    The result is wedge-projected immediately; raw antisymmetric data is
    never exposed.
    """
    if xi.degree != 1:
        raise ValueError(f"expected a degree-1 field, got degree {xi.degree}")
    if xi.n != geom.n or xi.N != geom.N:
        raise ValueError("field does not match geometry dimensions")
    c = maurer_cartan(geom)
    raw = np.einsum('bij,cjk->bcik', geom.lam, xi.coeffs)
    raw -= np.einsum('cij,bjk->bcik', xi.coeffs, geom.lam)
    raw -= 0.5 * np.einsum('aij,abcjk->bcik', xi.coeffs, c)
    return wedge_project(FrameTensorField(geom.n, raw), 1, geom.P)


def theta_squared(geom: FrameGeometry) -> FrameTensorField:
    """theta^2 as a 2-form: the wedge projection of lam_b lam_c theta^b x theta^c."""
    th = dirac_form(geom)
    return wedge_project(tensor_product(th, th), 1, geom.P)


def check_structure(geom: FrameGeometry) -> float:
    """Residual of 2 lam_c lam_d P^{cd}_{ab} - lam_c F^c_{ab} - K_{ab} = 0.

    Together with the Maurer-Cartan coefficients of ``maurer_cartan`` this
    condition implies d^2 = 0 on the algebra (the derivation is there).
    """
    lhs = 2.0 * np.einsum('cij,djk,cdab->abik', geom.lam, geom.lam, geom.P)
    lhs -= np.einsum('cij,cab->abij', geom.lam, geom.F)
    lhs -= np.einsum('ab,ij->abij', geom.K, np.eye(geom.N))
    return max_coeff_norm(FrameTensorField(geom.n, lhs))


def check_theta_squared(geom: FrameGeometry) -> float:
    """Residual of d theta + theta^2 = 1/2 K_{ab} theta^a theta^b as 2-forms."""
    dth = differential1(dirac_form(geom), geom)
    th2 = theta_squared(geom)
    k_field = wedge_project(
        FrameTensorField(geom.n, 0.5 * np.einsum('ab,ij->abij', geom.K, np.eye(geom.N))),
        1, geom.P)
    return max_coeff_norm(dth + th2 - k_field)
