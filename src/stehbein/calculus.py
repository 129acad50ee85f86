"""Geometry record, the differential on degrees 0 and 1, and consistency checks.

The first-order operator ``_first_order`` maps t to [lam_q, t] minus t omega at each slot i run
back by sigma_12 ... sigma_{(i-1)i}: D_n for a connection's omega, and d, after pi, for 1/2 C."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .braiding import Braiding, apply_word
from .frametensor import (
    FrameTensorField,
    _lambda_commutator,
    _omega_at_slot,
    _omega_matrix,
    _read_only,
    _unchecked_field,
    adjoint,
    apply_central_at,
    central_as_matrix,
    central_at,
    max_coeff_norm,
    max_entry,
    tensor_product,
    worst,
)


# (field, geometry-file key, axes) of each array a geometry carries; an axis
# is the frame dimension n or the matrix dimension N
GEOMETRY_ARRAYS = (
    ("lam", "lambda", "nNN"),
    ("P", "P", "nnnn"),
    ("S", "S", "nnnn"),
    ("F", "F", "nnn"),
    ("K", "K", "nn"),
    ("g", "metric", "nn"),
    ("omega", "omega", "nnnNN"),
    ("chi", "chi", "nnn"),
)


# eq=False: array fields have no truth value, so equality and hashing are by identity
@dataclass(frozen=True, eq=False)
class FrameGeometry:
    """Everything needed to run the calculus over M_N(C) with an n-frame.

    ``lam`` are the frame generators (the differential is f -> [lam_a, f]),
    ``P`` the wedge projector, ``S`` the generalized-permutation tensor,
    ``F``/``K`` the central structure tensors, zero when not given, ``g`` an
    optional metric, ``omega``/``chi`` optional connection data, at most one
    of the two.  ``GEOMETRY_ARRAYS`` gives each array's shape and file key.

    The arrays are read-only copies, so the Maurer-Cartan tensor ``C`` and
    the GEMM form of 1/2 C, ``C_matrix``, each built on first use and kept, cannot go
    stale: an in-place write into any of them raises ValueError.
    ``braid`` is the geometry's ``Braiding``, built once from S; ``S`` is
    its array, so S has one holder.  ``dataclasses.replace`` makes a new
    geometry with its own ``braid`` and ``C``.
    """

    N: int
    n: int
    lam: np.ndarray
    P: np.ndarray
    S: np.ndarray
    F: np.ndarray | None = None
    K: np.ndarray | None = None
    g: np.ndarray | None = None
    omega: np.ndarray | None = None
    chi: np.ndarray | None = None
    braid: Braiding = field(init=False, repr=False)

    def __post_init__(self):
        dims = {"n": self.n, "N": self.N}
        for name, _, axes in GEOMETRY_ARRAYS:
            shape, value = tuple(dims[a] for a in axes), getattr(self, name)
            if value is None and name in ("F", "K"):
                value = np.zeros(shape)
            if value is not None:
                object.__setattr__(self, name, _read_only(value, name, shape))
        if self.omega is not None and self.chi is not None:
            raise ValueError("geometry carries both 'omega' and 'chi'; give one connection")
        object.__setattr__(self, "braid", Braiding(self.n, self.S))
        object.__setattr__(self, "S", self.braid.S)

    @cached_property
    def C(self) -> np.ndarray:
        """The Maurer-Cartan tensor ``maurer_cartan(self)``, read-only."""
        return _read_only(maurer_cartan(self), "C", (self.n,) * 3 + (self.N,) * 2)

    @cached_property
    def C_matrix(self) -> np.ndarray:
        """Read-only omega-matrix of 1/2 C; halving is exact, so a GEMM by it is 1/2 C's GEMM."""
        return _read_only(0.5 * _omega_matrix(self.C), "C_matrix",
                          (self.n * self.N, self.n ** 2 * self.N))


def _projector_residual(p: np.ndarray) -> float:
    """max |P o P - P|; the loader gates geometry and braiding files on it."""
    pm = central_as_matrix(p)
    return max_entry(pm @ pm - pm)


def geometry_invariants(geom: FrameGeometry) -> dict[str, float]:
    """Residuals of the structural invariants enforced on any geometry.

    * every lambda_a antihermitian,
    * P a projector (P o P = P),
    * F reduced by P on its lower pair (F^a_{bc} P^{bc}_{de} = F^a_{de}).
    """
    res = {}
    res["lambda_antihermitian"] = max_coeff_norm(geom.lam + adjoint(geom.lam))
    res["P_projector"] = _projector_residual(geom.P)
    fp = central_at(geom.F, geom.P, 2)
    res["F_P_reduced"] = max_entry(fp - geom.F)
    return res


def dirac_form(geom: FrameGeometry) -> FrameTensorField:
    """The 1-form -lam_a theta^a generating the differential as f -> -[theta, f]."""
    return FrameTensorField(geom.n, -geom.lam)


def differential0(f: np.ndarray, geom: FrameGeometry) -> FrameTensorField:
    """df = [lam_a, f] theta^a."""
    f = np.asarray(f)
    if f.shape != (geom.N, geom.N):
        raise ValueError(f"element of shape {f.shape} does not match N={geom.N}")
    return FrameTensorField(geom.n, _lambda_commutator(geom.lam, f))


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


def _first_order(geom: FrameGeometry, w, b: Braiding, t: FrameTensorField) -> FrameTensorField:
    """The first-order operator for the omega-matrix ``w``; all slots' t omega are one GEMM."""
    if t.n != geom.n or t.N != geom.N:
        raise ValueError("field does not match geometry dimensions")
    out = _lambda_commutator(geom.lam, t.coeffs)
    for i, term in enumerate(_omega_at_slot(t.coeffs, w, *range(1, t.degree + 1)), 1):
        if i > 1:  # slot 1's word is empty
            term = apply_word(_unchecked_field(geom.n, term), b, range(1, i)).coeffs
        out -= term
    return _unchecked_field(geom.n, out)


def differential1(xi: FrameTensorField, geom: FrameGeometry) -> FrameTensorField:
    """d(xi_a theta^a) = (e_b xi_a) theta^b theta^a - 1/2 xi_a C^a_{bc} theta^b theta^c.

    The result is wedge-projected immediately; raw antisymmetric data is
    never exposed.  It is pi of ``_first_order`` with the cached ``C_matrix``.
    """
    if xi.degree != 1:
        raise ValueError(f"expected a degree-1 field, got degree {xi.degree}")
    return apply_central_at(_first_order(geom, geom.C_matrix, geom.braid, xi), geom.P, 1)


def check_d_squared(geom: FrameGeometry, elements) -> float:
    """Largest coefficient norm of d(df) over the matrices in ``elements``.

    d^2 is linear, so the N^2 matrix units decide d^2 = 0 exactly; the
    structure condition implies it (see ``maurer_cartan``).
    """
    return worst(max_coeff_norm(differential1(differential0(f, geom), geom).coeffs) for f in elements)


def theta_squared(geom: FrameGeometry) -> FrameTensorField:
    """theta^2 as a 2-form: the wedge projection of lam_b lam_c theta^b x theta^c."""
    th = dirac_form(geom)
    return apply_central_at(tensor_product(th, th), geom.P, 1)


def check_structure(geom: FrameGeometry) -> float:
    """Residual of 2 lam_c lam_d P^{cd}_{ab} - lam_c F^c_{ab} - K_{ab} = 0.

    Together with the Maurer-Cartan coefficients of ``maurer_cartan`` this
    condition implies d^2 = 0 on the algebra (the derivation is there).
    """
    lhs = 2.0 * np.einsum('cij,djk,cdab->abik', geom.lam, geom.lam, geom.P)
    lhs -= np.einsum('cij,cab->abij', geom.lam, geom.F)
    lhs -= np.einsum('ab,ij->abij', geom.K, np.eye(geom.N))
    return max_coeff_norm(lhs)


def check_theta_squared(geom: FrameGeometry) -> float:
    """Residual of d theta + theta^2 = -1/2 K_{ab} theta^a theta^b as 2-forms.

    The sign follows from the structure condition of ``check_structure``.
    With X_{ab} = lam_c lam_d P^{cd}_{ab}, the coefficients of theta^2,
    ``differential1`` and the C of ``maurer_cartan`` give, after the wedge
    projection, d theta = -2 X + 1/2 lam_c F^c; so d theta + theta^2 =
    1/2 lam_c F^c - X, which is -1/2 K when 2 X = lam_c F^c + K.
    """
    dth = differential1(dirac_form(geom), geom)
    th2 = theta_squared(geom)
    k_field = apply_central_at(
        FrameTensorField(geom.n, 0.5 * np.einsum('ab,ij->abij', geom.K, np.eye(geom.N))),
        geom.P, 1)
    return max_coeff_norm((dth + th2 + k_field).coeffs)
