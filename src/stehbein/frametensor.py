"""Frame tensor fields, central tensors, algebra helpers and the contraction conventions.

This is the package's base module: it imports none of the others.

A degree-p field is a grid of algebra elements indexed by p frame indices;
the coefficient always sits to the LEFT of the frame basis monomial, which
is lossless because the frame commutes with every algebra element.  A
central tensor of rank 2k is a plain complex tensor over frame indices,
stored upper indices first: S^{ab}{}_{cd} lives at ``S[a, b, c, d]``.

Conventions fixed here and used identically everywhere else:

* A central tensor M acts on a field by contracting its upper indices with
  the field's indices; the result carries the lower indices:
  ``new[..., c, ...] = sum_a M[a..., c...] old[..., a, ...]``.
  ``central_at`` is the one implementation of this contraction.
* An algebra-valued tensor T^z_{xy} of shape (n, n, n, N, N), such as a
  connection's omega or the Maurer-Cartan C, acts on a field by
  ``new[.., x, y, ..] = sum_z old[.., z, ..] T^z_{xy}``: slot i of the field
  becomes the pair (x, y) and the coefficient is multiplied on the right.
  ``_omega_at_slot`` (one GEMM by ``_omega_matrix(T)`` for all the slots it
  is given) is the one implementation of this contraction.
* The inner derivation t_A -> lam_p t_A - t_A lam_p, with p a new leading frame slot, has
  one implementation, ``_lambda_commutator`` (two GEMMs); only ``connection.covariant_derivative``
  keeps an einsum.  With T at each slot it makes the first-order operator, ``calculus._first_order``.
* Applying M then M2 composes to the tensor with matrix form
  ``mat(M) @ mat(M2)`` (the first map applied is leftmost).
* A word of adjacent operators is a sequence of positions i, each acting
  on the index pair (i, i+1); the RIGHTMOST letter acts first.
* Algebra elements of M_N(C) are plain complex arrays of shape (N, N), or
  stacks (..., N, N) of them.  ``adjoint`` and ``centrality_residual`` are
  pure and never mutate their inputs.
* Residuals are reduced by three routines only, each keeping a NaN:
  ``max_coeff_norm`` (largest Frobenius norm of a (..., N, N) stack of
  matrices, such as a field's ``coeffs``; ``centrality_residual`` calls it
  too), ``max_entry`` (largest modulus of an array's entries) and ``worst``
  (largest of several residuals).
* Every array a record keeps (a geometry's, a braiding's S, a connection's
  omega) is frozen by one rule, ``_read_only``: a read-only complex copy of
  the declared shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


def _read_only(x, name: str, shape: tuple) -> np.ndarray:
    """A read-only complex copy of ``x`` of the given shape: the one rule for every
    array a record keeps.  ``FrameTensorField`` keeps a complex128 grid as given:
    ``calculus._first_order`` writes into its array before wrapping it (by ``_unchecked_field``)."""
    a = np.array(x, dtype=complex)
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# algebra elements


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose.  Works on a single element or a stack of them."""
    return np.conj(np.swapaxes(np.asarray(a), -1, -2))


def centrality_residual(a: np.ndarray, lam: np.ndarray) -> float:
    """Max over frame generators, and over a stack of elements, of ||[lambda_a, a]||_F.

    ``a`` is one element or a stack of shape (..., N, N); ``lam`` is the stack
    of generator matrices.  Zero within tolerance iff every element commutes
    with every generator; a NaN anywhere gives NaN.
    """
    lam = np.asarray(lam)
    a = np.asarray(a)
    if lam.shape[-1] != a.shape[-1]:
        raise ValueError(f"dimension mismatch: element is {a.shape}, generators are {lam.shape}")
    return max_coeff_norm(_lambda_commutator(lam, a))


# ---------------------------------------------------------------------------
# central tensors

# largest condition number of a central tensor (S, or the metric g) that is inverted
INVERSE_COND_LIMIT = 1e12


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


def central_at(a: np.ndarray, m: np.ndarray, pos: int) -> np.ndarray:
    """Contract a rank-2k central tensor against axes pos..pos+k-1 (1-based) of ``a``.

    ``new[.., c.., ..] = sum_a M[a.., c..] old[.., a.., ..]``, as one matmul by
    mat(M).T.  The axes of ``a`` up to the contracted ones must all be n; the
    axes after them can be anything.
    """
    k, n = m.ndim // 2, m.shape[0]
    if a.shape[:pos - 1 + k] != (n,) * (pos - 1 + k):
        raise ValueError(f"axes 1..{pos - 1 + k} of {a.shape} do not all equal n={n}")
    out = np.matmul(m.reshape(n ** k, n ** k).T, a.reshape(n ** (pos - 1), n ** k, -1))
    return out.reshape(a.shape)


def _omega_matrix(omega: np.ndarray) -> np.ndarray:
    """omega^z_{xy} as the (n N, n^2 N) matrix with rows (z, j) and columns (x, y, k)."""
    n, N = omega.shape[0], omega.shape[-1]
    return omega.transpose(0, 3, 1, 2, 4).reshape(n * N, n * n * N)


def _omega_at_slot(coeffs: np.ndarray, w: np.ndarray, *slots: int) -> list[np.ndarray]:
    """sum_z t_{..z..} omega^z_{xy}, one array per slot i (1-based) given: slot i of t
    becomes the pair (x, y).

    ``w`` is ``_omega_matrix(omega)``.  The slots' operands are stacked into one
    GEMM, whose rows are those of each slot's own GEMM, with the same bits.
    """
    n, N = coeffs.shape[0], coeffs.shape[-1]
    p = coeffs.ndim - 2
    blocks = [(n ** (i - 1), n ** (p - i)) for i in slots]
    rows = np.empty((len(slots), n ** (p - 1) * N, n * N), dtype=coeffs.dtype)
    for row, (left, right) in zip(rows, blocks):
        row.reshape(left, right, N, n, N)[...] = (
            coeffs.reshape(left, n, right, N, N).transpose(0, 2, 3, 1, 4))
    out = (rows.reshape(-1, n * N) @ w).reshape(len(slots), -1)
    return [o.reshape(left, right, N, n * n, N).transpose(0, 3, 1, 2, 4).reshape((n,) * (p + 1) + (N, N))
            for o, (left, right) in zip(out, blocks)]


def _lambda_commutator(lam: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """lam_p t_A - t_A lam_p at (p, A...) for any stack t of shape (..., N, N);
    each product is one GEMM over all A."""
    n, N = lam.shape[0], lam.shape[-1]
    c = coeffs.reshape(-1, N, N)
    m = c.shape[0]
    left = lam.reshape(n * N, N) @ c.transpose(1, 0, 2).reshape(N, m * N)
    right = c.reshape(m * N, N) @ lam.transpose(1, 0, 2).reshape(N, n * N)
    out = left.reshape(n, N, m, N).transpose(0, 2, 1, 3)
    out = out - right.reshape(m, N, n, N).transpose(2, 0, 1, 3)
    return out.reshape((n,) + coeffs.shape)


def word_tensor(s: np.ndarray, strands: int, letters) -> np.ndarray:
    """Composite central tensor of a word of adjacent rank-4 operators.

    ``letters`` is a sequence of positions, rightmost acting first.  The
    composition is built letter by letter on the rank-2*strands tensor, so
    the cost stays linear in the word length.
    """
    s = np.asarray(s)
    n = s.shape[0]
    # the composite is kept lower block first, so each letter acts on its
    # leading axes; one transpose puts the upper block back in front
    out = identity_central(n, strands)
    for letter in reversed(tuple(letters)):
        if not 1 <= letter <= strands - 1:
            raise ValueError(f"letter {letter} out of range for {strands} strands")
        out = central_at(out, s, letter)
    return out.transpose(list(range(strands, 2 * strands)) + list(range(strands)))


# ---------------------------------------------------------------------------
# frame tensor fields


# eq=False: array fields have no truth value, so equality and hashing are by identity
@dataclass(frozen=True, eq=False, slots=True)
class FrameTensorField:
    """A degree-p form/tensor with algebra-element coefficients.

    ``coeffs`` has shape (n,)*degree + (N, N); a complex128 ndarray is kept, not copied.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = self.coeffs
        if type(c) is not np.ndarray or c.dtype != complex:
            c = np.asarray(c, dtype=complex)
            object.__setattr__(self, "coeffs", c)
        if c.ndim < 2 or c.shape[-1] != c.shape[-2]:
            raise ValueError(f"coefficient grid of shape {c.shape} has no square matrix axes")
        if c.shape[:-2] != (self.n,) * (c.ndim - 2):
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


def _unchecked_field(n: int, coeffs: np.ndarray) -> FrameTensorField:
    """``FrameTensorField(n, coeffs)`` without its checks, for a complex128 grid of a
    shape that an already checked input fixes."""
    t = object.__new__(FrameTensorField)
    object.__setattr__(t, "n", n)
    object.__setattr__(t, "coeffs", coeffs)
    return t


def basis_field(n: int, N: int, index) -> FrameTensorField:
    """The basis monomial theta^{a1} x ... x theta^{ap}: indices in [0, n), an int for p = 1."""
    index = tuple(index) if np.iterable(index) else (index,)
    if not all(isinstance(a, (int, np.integer)) and 0 <= a < n for a in index):
        raise ValueError(f"basis index {index} is not a tuple of integers in [0, n) for n={n}")
    c = np.zeros((n,) * len(index) + (N, N), dtype=complex)
    c[index].flat[::N + 1] = 1  # the identity matrix
    return FrameTensorField(n, c)


def left_mul(f: np.ndarray, t: FrameTensorField) -> FrameTensorField:
    """f t, coefficient by coefficient.

    An einsum until verdicts use a residual scale (ROADMAP item 2):
    ``f @ t.coeffs`` sums in another order and differs by up to ~6e-15 per
    entry on the N = 16 spin frame, which the leibniz rows would see.  It
    runs with ``order='C'``: each entry is still the sum over j in ascending
    order of the same products, so the bits are those of the default order,
    but einsum walks the output as it is laid out, which at N = 16 cuts the
    time of this einsum and of ``right_mul``'s by a quarter to a half.  Both
    reasons hold for ``right_mul``.
    """
    f = np.asarray(f)
    if f.shape[-1] != t.N:
        raise ValueError(f"dimension mismatch: {f.shape} vs N={t.N}")
    return replace(t, coeffs=np.einsum('ij,...jk->...ik', f, t.coeffs, order='C'))


def right_mul(t: FrameTensorField, f: np.ndarray) -> FrameTensorField:
    """t f, coefficient by coefficient; a C-order einsum for the reasons in ``left_mul``."""
    f = np.asarray(f)
    if f.shape[-1] != t.N:
        raise ValueError(f"dimension mismatch: {f.shape} vs N={t.N}")
    return replace(t, coeffs=np.einsum('...ij,jk->...ik', t.coeffs, f, order='C'))


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
    if m.shape != (t.n,) * m.ndim:
        raise ValueError(f"frame dimension mismatch: tensor of shape {m.shape}, field n={t.n}")
    if not (1 <= pos and pos + k - 1 <= t.degree):
        raise ValueError(f"position {pos} (+{k} indices) out of range for degree {t.degree}")
    return _unchecked_field(t.n, central_at(t.coeffs, m, pos))


def max_coeff_norm(c: np.ndarray) -> float:
    """Max Frobenius norm over a stack (..., N, N) of matrices, such as a field's ``coeffs``;
    0.0 for none, NaN if any is NaN.  The formula is that of numpy's matrix norm: its bits,
    without its dispatch."""
    return float(np.max(np.sqrt(np.add.reduce((c.conj() * c).real, axis=(-2, -1))), initial=0.0))


def max_entry(x) -> float:
    """Largest modulus of any entry of an array; NaN if any entry is NaN."""
    return float(np.max(np.abs(x)))


def worst(residuals) -> float:
    """Largest of some non-negative residuals, 0.0 for none, NaN if any is NaN.

    The builtin ``max`` cannot serve: ``max(0.0, nan)`` is 0.0, so a NaN
    residual would pass.
    """
    return float(np.max(list(residuals), initial=0.0))
