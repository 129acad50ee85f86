"""Frame tensor fields, central tensors and the contraction conventions.

A degree-p field is a grid of algebra elements indexed by p frame indices;
the coefficient always sits to the LEFT of the frame basis monomial, which
is lossless because the frame commutes with every algebra element.  A
central tensor of rank 2k is a plain complex tensor over frame indices,
stored upper indices first: S^{ab}{}_{cd} lives at ``S[a, b, c, d]``.

Conventions fixed here and used identically everywhere else:

* A central tensor M acts on a field by contracting its upper indices with
  the field's indices; the result carries the lower indices:
  ``new[..., c, ...] = sum_a M[a..., c...] old[..., a, ...]``.
* Applying M then M2 composes to the tensor with matrix form
  ``mat(M) @ mat(M2)`` (the first map applied is leftmost).
* A word of adjacent operators is a sequence of positions i, each acting
  on the index pair (i, i+1); the RIGHTMOST letter acts first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


# ---------------------------------------------------------------------------
# central tensors


def identity_central(n: int, pairs: int = 2) -> np.ndarray:
    """The rank-2k identity tensor delta^{a1..ak}_{b1..bk}."""
    return np.eye(n ** pairs, dtype=complex).reshape((n,) * (2 * pairs))


def flip_central(n: int) -> np.ndarray:
    """The flip: (a, b) -> (b, a) with unit coefficient."""
    eye = np.eye(n)
    return np.einsum('ad,bc->abcd', eye, eye).astype(complex)


def antisymmetrizer_central(n: int) -> np.ndarray:
    return 0.5 * (identity_central(n) - flip_central(n))


def central_as_matrix(m: np.ndarray) -> np.ndarray:
    """Flatten a rank-2k central tensor to its (n^k, n^k) matrix."""
    m = np.asarray(m)
    if m.ndim % 2:
        raise ValueError(f"central tensor must have even rank, got {m.ndim}")
    k = m.ndim // 2
    n = m.shape[0]
    return m.reshape(n ** k, n ** k)


def matrix_as_central(mat: np.ndarray, n: int) -> np.ndarray:
    mat = np.asarray(mat)
    k = round(np.log(mat.shape[0]) / np.log(n)) if n > 1 else 1
    if n ** k != mat.shape[0] or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix of shape {mat.shape} is not a flattened rank-2k tensor over n={n}")
    return mat.reshape((n,) * (2 * k))


def word_tensor(s: np.ndarray, strands: int, letters) -> np.ndarray:
    """Composite central tensor of a word of adjacent rank-4 operators.

    ``letters`` is a sequence of positions, rightmost acting first.  The
    composition is built letter by letter on the rank-2*strands tensor, so
    the cost stays linear in the word length.
    """
    s = np.asarray(s)
    n = s.shape[0]
    out = identity_central(n, strands)
    for letter in reversed(tuple(letters)):
        if not 1 <= letter <= strands - 1:
            raise ValueError(f"letter {letter} out of range for {strands} strands")
        # contract the lower pair at `letter` with the upper pair of s
        axes = [strands + letter - 1, strands + letter]
        out = np.tensordot(out, s, axes=(axes, [0, 1]))
        out = np.moveaxis(out, [-2, -1], axes)
    return out


# ---------------------------------------------------------------------------
# frame tensor fields


@dataclass(frozen=True)
class FrameTensorField:
    """A degree-p form/tensor with algebra-element coefficients.

    ``coeffs`` has shape (n,)*degree + (N, N).
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        if c.ndim < 2 or c.shape[-1] != c.shape[-2]:
            raise ValueError(f"coefficient grid of shape {c.shape} has no square matrix axes")
        if any(d != self.n for d in c.shape[:-2]):
            raise ValueError(f"frame axes of {c.shape} do not all equal n={self.n}")

    @property
    def degree(self) -> int:
        return self.coeffs.ndim - 2

    @property
    def N(self) -> int:
        return self.coeffs.shape[-1]

    def __add__(self, other: "FrameTensorField") -> "FrameTensorField":
        self._check_compatible(other)
        return FrameTensorField(self.n, self.coeffs + other.coeffs)

    def __sub__(self, other: "FrameTensorField") -> "FrameTensorField":
        self._check_compatible(other)
        return FrameTensorField(self.n, self.coeffs - other.coeffs)

    def __neg__(self) -> "FrameTensorField":
        return replace(self, coeffs=-self.coeffs)

    def _check_compatible(self, other: "FrameTensorField"):
        if self.coeffs.shape != other.coeffs.shape or self.n != other.n:
            raise ValueError(
                f"field mismatch: {self.coeffs.shape} (n={self.n}) vs "
                f"{other.coeffs.shape} (n={other.n})")


def zero_field(n: int, N: int, degree: int) -> FrameTensorField:
    return FrameTensorField(n, np.zeros((n,) * degree + (N, N), dtype=complex))


def basis_field(n: int, N: int, index) -> FrameTensorField:
    """The basis monomial theta^{a1} x ... x theta^{ap} (0-based indices)."""
    index = tuple(np.atleast_1d(index))
    c = np.zeros((n,) * len(index) + (N, N), dtype=complex)
    c[index] = np.eye(N)
    return FrameTensorField(n, c)


def left_mul(f: np.ndarray, t: FrameTensorField) -> FrameTensorField:
    f = np.asarray(f)
    if f.shape[-1] != t.N:
        raise ValueError(f"dimension mismatch: {f.shape} vs N={t.N}")
    return replace(t, coeffs=np.einsum('ij,...jk->...ik', f, t.coeffs))


def right_mul(t: FrameTensorField, f: np.ndarray) -> FrameTensorField:
    f = np.asarray(f)
    if f.shape[-1] != t.N:
        raise ValueError(f"dimension mismatch: {f.shape} vs N={t.N}")
    return replace(t, coeffs=np.einsum('...ij,jk->...ik', t.coeffs, f))


def tensor_product(t1: FrameTensorField, t2: FrameTensorField) -> FrameTensorField:
    """(f_A theta^A) x (g_B theta^B) = f_A g_B theta^A x theta^B."""
    if t1.n != t2.n or t1.N != t2.N:
        raise ValueError(f"dimension mismatch: n={t1.n},N={t1.N} vs n={t2.n},N={t2.N}")
    p = t1.degree
    out = np.tensordot(t1.coeffs, t2.coeffs, axes=([t1.coeffs.ndim - 1], [t2.coeffs.ndim - 2]))
    # axes are now: (n,)*p, N, (n,)*q, N -- move the first matrix axis home
    out = np.moveaxis(out, p, p + t2.degree)
    return FrameTensorField(t1.n, out)


def apply_central_at(t: FrameTensorField, m: np.ndarray, pos: int) -> FrameTensorField:
    """Contract a rank-2k central tensor against field indices pos..pos+k-1 (1-based)."""
    m = np.asarray(m)
    k = m.ndim // 2
    if m.ndim != 2 * k or m.ndim == 0:
        raise ValueError(f"central tensor of rank {m.ndim} is not of even rank 2k")
    if m.shape[0] != t.n:
        raise ValueError(f"frame dimension mismatch: tensor n={m.shape[0]}, field n={t.n}")
    if not (1 <= pos and pos + k - 1 <= t.degree):
        raise ValueError(f"position {pos} (+{k} indices) out of range for degree {t.degree}")
    axes = list(range(pos - 1, pos - 1 + k))
    out = np.tensordot(m, t.coeffs, axes=(list(range(k)), axes))
    out = np.moveaxis(out, list(range(k)), axes)
    return FrameTensorField(t.n, out)


def wedge_project(t: FrameTensorField, pos: int, p_tensor: np.ndarray) -> FrameTensorField:
    """Project the index pair (pos, pos+1) onto 2-forms."""
    return apply_central_at(t, p_tensor, pos)


def max_coeff_norm(t: FrameTensorField) -> float:
    """Max Frobenius norm over all coefficient matrices."""
    norms = np.linalg.norm(t.coeffs, axis=(-2, -1))
    return float(np.max(norms)) if norms.size else float(norms)


def worst(residuals) -> float:
    """Largest of some non-negative residuals, 0.0 for none, NaN if any is NaN.

    The builtin ``max`` cannot serve: ``max(0.0, nan)`` is 0.0, so a NaN
    residual would pass.
    """
    return float(np.max(list(residuals), initial=0.0))
