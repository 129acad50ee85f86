"""Built-in geometries and braidings with known properties, plus seeded generators.

Conventions pinned here so that every derived number in the test suite is
reproducible:

* Pauli_1 = [[0,1],[1,0]], Pauli_2 = [[0,-i],[i,0]], Pauli_3 = [[1,0],[0,-1]];
  lam_a = -(i/2) Pauli_a, so [lam_1, lam_2] = lam_3 cyclically.
* Random complex entries are uniform over the unit square (re, im in [0, 1)).
* Random projectors come from a hermitian matrix whose eigenvalues are
  rounded to {0, 1} at their midpoint, giving machine-exact idempotence.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .calculus import FrameGeometry, check_d_squared, check_structure, check_theta_squared
from .braiding import Braiding, make_braiding
from .connection import curvature_of_form, d0_connection, solve_torsionfree_chi
from .frametensor import (
    COMPLEX,
    FrameTensorField,
    adjoint,
    antisymmetrizer_central,
    basis_field,
    central_at,
    flip_central,
    identity_central,
    max_coeff_norm,
    max_entry,
    worst,
)

PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))
# how far a phase-twist phase may sit from unit modulus (or from 1 on the diagonal)
PHASE_TOL = 1e-12


def levi_civita() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[a, b, c] = 1.0
        eps[a, c, b] = -1.0
    return eps


def su2_flip_geometry() -> FrameGeometry:
    """N = 2, n = 3, lam_a = -(i/2) Pauli_a, antisymmetric wedge, flip sigma.

    F^c_{ab} = eps_{abc}, K = 0, metric g = delta.  Passes every structural
    check exactly (up to rounding).
    """
    lam = np.array([-0.5j * p for p in PAULI])
    return FrameGeometry(N=2, n=3, lam=lam, P=antisymmetrizer_central(3), S=flip_central(3),
                         F=levi_civita(), g=np.eye(3))


def phase_twist_braiding(n: int,
                         phases: dict[tuple[int, int], complex]) -> tuple[Braiding, np.ndarray]:
    """Diagonal-type braiding S^{ab}_{cd} = L_{ab} delta^a_d delta^b_c.

    ``phases`` maps 0-based pairs (a, b) with a < b to unit-modulus L_{ab};
    the reciprocal pair and the diagonal are forced by the constraints
    |L_{ab}| = 1, L_{ab} L_{ba} = 1, L_{aa} = 1.  Returns the braiding and
    the matching projector P = (delta - S)/2, which satisfies
    pi o (sigma + 1) = 0 by construction.
    """
    lam = np.ones((n, n), dtype=COMPLEX)
    for (a, b), ph in phases.items():
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"pair {(a, b)} out of range for n={n}")
        if a == b:
            if abs(ph - 1.0) > PHASE_TOL:
                raise ValueError(f"diagonal phase L[{a},{a}] must be 1, got {ph}")
            continue
        if abs(abs(ph) - 1.0) > PHASE_TOL:
            raise ValueError(f"phase L[{a},{b}] = {ph} is not unit modulus")
        lam[a, b] = ph
        lam[b, a] = 1.0 / ph
    s = np.zeros((n, n, n, n), dtype=COMPLEX)
    for a in range(n):
        for b in range(n):
            s[a, b, b, a] = lam[a, b]
    p = 0.5 * (identity_central(n) - s)
    return make_braiding(s), p


def random_phase_twist(seed: int, n: int) -> tuple[Braiding, np.ndarray]:
    """Seeded phase-twist braiding with uniform random phases on the upper triangle."""
    rng = np.random.default_rng(seed)
    phases = {(a, b): np.exp(2j * np.pi * rng.uniform())
              for a in range(n) for b in range(a + 1, n)}
    return phase_twist_braiding(n, phases)


def random_element(rng: np.random.Generator, N: int) -> np.ndarray:
    """Complex matrix with entries uniform over the unit square."""
    return rng.uniform(0, 1, (N, N)) + 1j * rng.uniform(0, 1, (N, N))


def random_projector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Hermitian projector on the n^2-dimensional index-pair space.

    Eigenvalues of a random hermitian matrix are rounded to {0, 1} at their
    midpoint, which guarantees idempotence to machine precision.
    """
    h = rng.uniform(0, 1, (n * n, n * n)) + 1j * rng.uniform(0, 1, (n * n, n * n))
    h = (h + h.conj().T) / 2
    w, v = np.linalg.eigh(h)
    rounded = (w >= (w.min() + w.max()) / 2).astype(float)
    m = (v * rounded) @ v.conj().T
    return m.reshape(n, n, n, n)


def random_unitary(rng: np.random.Generator, N: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian matrix, phases fixed by R."""
    q, r = np.linalg.qr(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_wedge_projector(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """Hermitian projector of the given rank onto a random subspace of the
    antisymmetric pairs Lambda^2, so that P^{ab}_{cd} = -P^{ba}_{cd}."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    g = rng.standard_normal((len(pairs), rank)) + 1j * rng.standard_normal((len(pairs), rank))
    q, _ = np.linalg.qr(g)
    v = np.zeros((n, n, rank), dtype=COMPLEX)
    for k, (a, b) in enumerate(pairs):
        v[a, b] = q[k] / np.sqrt(2.0)
        v[b, a] = -v[a, b]
    return np.einsum('abk,cdk->abcd', v, v.conj())


F_ZERO_TOL = 1e-12
F_ZERO_FLAT_TOL = 1e-8


def _f_zero_geometry(seed: int, n: int, N: int) -> FrameGeometry:
    """The exact F = 0 family behind ``random_geometry(..., force_f_zero=True)``."""
    pairs = n * (n - 1) // 2
    if pairs < 2:
        raise ValueError(
            f"no non-degenerate F = 0 geometry for n={n}, N={N}: Lambda^2 has "
            f"dimension {pairs} and so no proper subspace of positive dimension; "
            "P = 0 leaves no 2-forms and the full antisymmetrizer makes omega_0 = 0")
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, N)
    lam = np.array([u @ np.diag(1j * rng.uniform(-1, 1, N)) @ adjoint(u) for _ in range(n)])
    lam = (lam - adjoint(lam)) / 2
    # at n = 3 the rank-2 projectors A - w w^+ (A the antisymmetrizer) make
    # S = flip + 2 w w^+ a braid solution for which D_(0) of this family is
    # flat, so n = 3 draws rank 1; larger n draw any proper rank
    top = 1 if n == 3 else pairs - 1
    p = random_wedge_projector(rng, n, int(rng.integers(1, top + 1)))
    geom = FrameGeometry(N=N, n=n, lam=lam, P=p, S=identity_central(n) - 2.0 * p,
                         g=np.eye(n))

    residuals = {
        "structure": check_structure(geom),
        "theta-squared": check_theta_squared(geom),
        # the matrix units decide d^2 = 0 exactly
        "d-squared": check_d_squared(geom, np.eye(N * N).reshape(N * N, N, N)),
    }
    bad = {k: v for k, v in residuals.items() if not v <= F_ZERO_TOL}
    if bad:
        raise ValueError(f"F = 0 geometry for n={n}, N={N}, seed={seed} is not exact: "
                         + ", ".join(f"{k} residual {v:.3e}" for k, v in bad.items()))
    d0 = d0_connection(geom, geom.braid)
    omega = max_entry(d0.omega)
    curv = worst(max_coeff_norm(curvature_of_form(d0, geom.braid, basis_field(n, N, (a,))).coeffs)
                 for a in range(n))
    if not (omega > F_ZERO_FLAT_TOL and curv > F_ZERO_FLAT_TOL):
        raise ValueError(f"F = 0 geometry for n={n}, N={N}, seed={seed} is degenerate: "
                         f"max |omega_0| {omega:.3e}, D_(0) curvature {curv:.3e}")
    return geom


def random_geometry(seed: int, n: int = 3, N: int = 2, *,
                    force_f_zero: bool = False) -> FrameGeometry:
    """Seeded geometry: antihermitianized lam, spectral-rounded projector P,
    S = 1 - 2P, and F, K fitted to the structure condition by least squares.

    The fit is exact only when 2 lam lam P happens to lie in the span of
    {lam_c, 1}, as it always does at n = 3, N = 2 where {lam_c, 1} spans
    M_2(C); otherwise the geometry is a residual fixture whose structure
    check reports the leftover.

    With ``force_f_zero`` the result is instead an exact F = K = 0 geometry
    built from the seed: lam_a = U D_a U^+ for a Haar unitary U and imaginary
    diagonals D_a (so the lam_a commute), and P a hermitian projector onto a
    random proper subspace of the antisymmetric pairs Lambda^2, so that
    P^{ab}_{cd} = -P^{ba}_{cd} and lam_c lam_d P^{cd}_{ab} = 0.  Guaranteed:
    F = 0, the structure condition, d theta + theta^2 = 0 and d^2 = 0 hold to
    1e-12 (else ValueError); sigma is 1 - 2P and satisfies
    pi o (sigma + 1) = 0; omega_0 of D_(0) and its curvature do not vanish
    (else ValueError).  Sizes with no such geometry raise ValueError: n <= 2,
    where Lambda^2 has no proper subspace of positive dimension.
    """
    if force_f_zero:
        return _f_zero_geometry(seed, n, N)
    rng = np.random.default_rng(seed)
    lam = np.array([random_element(rng, N) for _ in range(n)])
    lam = (lam - adjoint(lam)) / 2
    p = random_projector(rng, n)
    s = identity_central(n) - 2.0 * p
    target = 2.0 * np.einsum('cij,djk,cdab->abik', lam, lam, p)
    # fit target_{ab} ~ lam_c F^c_{ab} + K_{ab} 1 columnwise over (a, b)
    basis = list(lam)
    basis.append(np.eye(N))
    amat = np.stack([m.reshape(-1) for m in basis], axis=1)
    sol, *_ = np.linalg.lstsq(amat, target.reshape(n * n, N * N).T, rcond=None)
    f = sol[:-1].reshape(n, n, n)
    k = sol[-1].reshape(n, n)
    # keep F in the image of P on its lower pair, as required of geometries
    f = central_at(f, p, 2)
    return FrameGeometry(N=N, n=n, lam=lam, P=p, S=s, F=f, K=k, g=np.eye(n))


def random_field(rng: np.random.Generator, n: int, N: int, degree: int) -> FrameTensorField:
    shape = (n,) * degree + (N, N)
    return FrameTensorField(n, rng.uniform(0, 1, shape) + 1j * rng.uniform(0, 1, shape))


# registry used by the command-line `fixture` subcommand
FIXTURE_NAMES = ("su2-flip", "su2-torsion-free", "phase-twist", "random")
# the fixtures that read ``seed`` and ``n``; the su(2) ones are fixed at n = 3
PARAMETRIC_FIXTURES = ("phase-twist", "random")


def build_fixture(name: str, *, seed: int = 42, n: int = 3):
    """Returns (kind, payload) where kind is 'geometry' or 'braiding'."""
    if name == "su2-flip":
        return "geometry", su2_flip_geometry()
    if name == "su2-torsion-free":
        geom = su2_flip_geometry()
        return "geometry", replace(geom, chi=solve_torsionfree_chi(geom, geom.braid))
    if name == "phase-twist":
        return "braiding", random_phase_twist(seed, n)
    if name == "random":
        return "geometry", random_geometry(seed, n=n)
    raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
