import dataclasses

import numpy as np
import pytest

from stehbein import (
    FrameTensorField,
    apply_central_at,
    identity_central,
    make_braiding,
    max_coeff_norm,
    phase_twist_braiding,
    su2_flip_geometry,
    tensor_product,
)
from stehbein.braiding import Braiding, apply_word
from stehbein.calculus import GEOMETRY_ARRAYS, FrameGeometry, dirac_form, theta_squared
from stehbein.connection import algebraic_torsion, solve_torsionfree_chi, torsion_forms
from stehbein.fixtures import random_unitary
from stehbein.report import resolve_connection

# lam_a = -(i/2) Pauli_a, written out so the tests do not depend on the fixtures
LAM1 = np.array([[0, -0.5j], [-0.5j, 0]])
LAM2 = np.array([[0, -0.5], [0.5, 0]], dtype=complex)
LAM3 = np.array([[-0.5j, 0], [0, 0.5j]])
LAM = np.array([LAM1, LAM2, LAM3])


def levi_civita3() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[a, b, c] = 1.0
        eps[a, c, b] = -1.0
    return eps


# ---------------------------------------------------------------------------
# objects only the tests build


def su2_torsionfree_connection():
    """D_(0) (which has omega = 0 here) plus the minimum-norm central chi
    solving the torsion-free condition; for this geometry chi^a_{bc} = eps_{bca}/2."""
    geom = su2_flip_geometry()
    return resolve_connection(geom, geom.braid, "torsion-free")[0]


def spin_frame_geometry(j, rng=None):
    """lam_a = -i J_a of the spin-j irrep, F = eps, K = 0, antisymmetric P, flip S,
    metric delta and the torsion-free chi: perfbench's su2-wide frame at j = 15/2.
    With ``rng`` the frame is conjugated by a Haar unitary drawn from it, as
    perfbench draws its su2-wide input from ``default_rng([seed, 0x5eb])``."""
    dim = int(2 * j) + 1
    m = j - np.arange(dim)
    j_plus = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), k=1).astype(complex)
    jx, jy = (j_plus + j_plus.T) / 2, (j_plus - j_plus.T) / 2j
    lam = -1j * np.array([jx, jy, np.diag(m).astype(complex)])
    if rng is not None:
        u = random_unitary(rng, dim)
        lam = u @ lam @ u.conj().T
    base = dataclasses.replace(su2_flip_geometry(), N=dim, lam=lam)
    return dataclasses.replace(base, chi=solve_torsionfree_chi(base, make_braiding(base.S)))


def transformed_geometry(geom, perm, u):
    """``geom`` with its frame relabelled, theta^a -> theta^perm[a], on every n axis of
    every array in ``calculus.GEOMETRY_ARRAYS``, and each array ending in N x N
    conjugated by the unitary ``u``.  Every identity the report checks is a
    contraction over frame indices of U-covariant coefficients, so its residual
    can move only by rounding."""
    arrays = {}
    for field, _, axes in GEOMETRY_ARRAYS:
        a = getattr(geom, field)
        if a is None:
            continue
        for axis, kind in enumerate(axes):
            if kind == "n":
                a = np.take(a, perm, axis=axis)
        arrays[field] = u @ a @ u.conj().T if axes.endswith("NN") else a
    return dataclasses.replace(geom, **arrays)


def random_tau(seed: int, n: int = 3) -> np.ndarray:
    """Seeded rank-4 tensor with entries uniform over the unit square."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (n,) * 4) + 1j * rng.uniform(0, 1, (n,) * 4)


def zero_field(n: int, N: int, degree: int) -> FrameTensorField:
    return FrameTensorField(n, np.zeros((n,) * degree + (N, N), dtype=complex))


def torsion(c):
    """Torsion 2-forms, plus the residual of the algebraic condition
    omega^a_{de} P^{de}_{bc} = 1/2 C^a_{bc}; the 2-forms vanish iff it does."""
    return torsion_forms(c), max_coeff_norm(algebraic_torsion(c))


def curvature_d0_closed_form(geom: FrameGeometry, b: Braiding,
                             xi: FrameTensorField) -> FrameTensorField:
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
    """
    th = dirac_form(geom)
    field2 = apply_word(tensor_product(xi, tensor_product(th, th)), b, [1, 2, 1])
    return tensor_product(theta_squared(geom), xi) + apply_central_at(field2, geom.P, 1)


# ---------------------------------------------------------------------------
# Kronecker reference forms of the lifted operators


def lift_central(m: np.ndarray, strands: int, pos: int) -> np.ndarray:
    """Embed a rank-4 tensor acting at pair (pos, pos+1) into `strands` slots."""
    n = m.shape[0]
    if not 1 <= pos <= strands - 1:
        raise ValueError(f"position {pos} out of range for {strands} strands")
    mat = np.kron(np.kron(np.eye(n ** (pos - 1)), m.reshape(n * n, n * n)),
                  np.eye(n ** (strands - pos - 1)))
    return mat.reshape((n,) * (2 * strands))


def reversal_central(n: int, strands: int) -> np.ndarray:
    """Linear index-reversal delta_{rev(A), B} on `strands` slots."""
    eye = identity_central(n, strands)
    perm = list(range(strands - 1, -1, -1)) + list(range(strands, 2 * strands))
    return np.ascontiguousarray(np.transpose(eye, perm))


@pytest.fixture(scope="session")
def su2_geom():
    return su2_flip_geometry()


@pytest.fixture(scope="session")
def su2_braid():
    return su2_flip_geometry().braid


@pytest.fixture(scope="session")
def su2_chi_conn():
    return su2_torsionfree_connection()


@pytest.fixture(scope="session")
def pt3():
    """Phase-twist braiding on 3 frame indices with one nontrivial phase."""
    return phase_twist_braiding(3, {(0, 1): np.exp(1j * np.pi / 5)})


@pytest.fixture(scope="session")
def pt3_full():
    """Phase twist with every off-diagonal phase nontrivial."""
    return phase_twist_braiding(
        3, {(0, 1): np.exp(1j * np.pi / 5), (0, 2): np.exp(0.7j), (1, 2): np.exp(-0.3j)})


@pytest.fixture(scope="session")
def pauli_twist_geom():
    """Pauli frame, F = K = 0, with the phase twist whose phases are all -1.

    Its P is the off-diagonal symmetrizer, so it is not antisymmetric in its
    upper pair; the structure, theta^2 and braid residuals are exactly 0.
    """
    braid, p = phase_twist_braiding(3, {(0, 1): -1, (0, 2): -1, (1, 2): -1})
    geom = su2_flip_geometry()
    return dataclasses.replace(geom, P=p, S=braid.S, F=np.zeros((3, 3, 3)))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_matrix(rng, N=2):
    return rng.uniform(0, 1, (N, N)) + 1j * rng.uniform(0, 1, (N, N))
