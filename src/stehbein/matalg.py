"""Complex matrix arithmetic for the underlying algebra M_N(C).

Algebra elements are plain complex ``numpy`` arrays of shape (N, N).
Everything here is pure and never mutates its inputs.
"""

from __future__ import annotations

import numpy as np

from .frametensor import worst


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose.  Works on a single element or a stack of them."""
    return np.conj(np.swapaxes(np.asarray(a), -1, -2))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = ab - ba."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def antihermiticity_residual(a: np.ndarray) -> float:
    """Frobenius norm of a + a*; zero iff a is antihermitian."""
    return frobenius_norm(np.asarray(a) + adjoint(a))


def centrality_residual(a: np.ndarray, geom) -> float:
    """Max over frame generators of ||[lambda_a, a]||_F.

    ``geom`` may be anything with a ``lam`` attribute (a geometry record)
    or a stack of generator matrices directly.  Zero within tolerance iff
    ``a`` commutes with every generator.
    """
    lam = getattr(geom, "lam", geom)
    lam = np.asarray(lam)
    a = np.asarray(a)
    if lam.shape[-1] != a.shape[-1]:
        raise ValueError(f"dimension mismatch: element is {a.shape}, generators are {lam.shape}")
    return worst(frobenius_norm(commutator(gen, a)) for gen in lam)
