"""Complex matrix arithmetic for the underlying algebra M_N(C).

Algebra elements are plain complex ``numpy`` arrays of shape (N, N).
Everything here is pure and never mutates its inputs.
"""

from __future__ import annotations

import numpy as np

from .frametensor import _lambda_commutator, worst


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose.  Works on a single element or a stack of them."""
    return np.conj(np.swapaxes(np.asarray(a), -1, -2))


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def antihermiticity_residual(a: np.ndarray) -> float:
    """Frobenius norm of a + a*; zero iff a is antihermitian."""
    return frobenius_norm(np.asarray(a) + adjoint(a))


def centrality_residual(a: np.ndarray, geom) -> float:
    """Max over frame generators, and over a stack of elements, of ||[lambda_a, a]||_F.

    ``a`` is one element or a stack of shape (..., N, N).  ``geom`` may be
    anything with a ``lam`` attribute (a geometry record) or a stack of
    generator matrices directly.  Zero within tolerance iff every element
    commutes with every generator; a NaN anywhere gives NaN.
    """
    lam = np.asarray(getattr(geom, "lam", geom))
    a = np.asarray(a)
    if lam.shape[-1] != a.shape[-1]:
        raise ValueError(f"dimension mismatch: element is {a.shape}, generators are {lam.shape}")
    return worst(np.linalg.norm(_lambda_commutator(lam, a), axis=(-2, -1)).ravel())
