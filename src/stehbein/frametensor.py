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
  ``central_at`` is the one dense implementation of this contraction.  On a field,
  ``apply_central_at`` and ``connection.d2``'s sigma step take ``_central_on_field``:
  when mat(M) is monomial (one nonzero per row and column, as for the flip and the
  phase twists), one gather by a plan that ``_monomial_plan`` keeps by M's values, and
  one multiply unless every coefficient is 1; any other M goes to ``central_at``.  The
  same plan of S (``braiding._letter_plan``) composes both braid words, which yang-baxter
  reads relabeled, and picks the star tensor's route in ``involution``: J^(k) as a plan,
  which ``star_form`` reads by a gather, when S is monomial, else letter blocks on
  ``central_at``.  ``word_tensor``, the braid words for any other S, and every P
  contraction of an array stay on it.
* An algebra-valued tensor T^z_{xy} of shape (n, n, n, N, N), such as a
  connection's omega or the Maurer-Cartan C, acts on a field by
  ``new[.., x, y, ..] = sum_z old[.., z, ..] T^z_{xy}``: slot i of the field
  becomes the pair (x, y) and the coefficient is multiplied on the right.
  ``_omega_at_slot`` (one GEMM by ``_omega_matrix(T)`` for all the slots it
  is given) is the one implementation of this contraction.
* The inner derivation t_A -> lam_p t_A - t_A lam_p, with p a new leading frame slot, has
  one implementation, ``_lambda_commutator`` (two GEMMs).  With T at each slot it makes the
  first-order operator, ``calculus._first_order``, which D, d and D_n run.  Every algebra
  product on the D path is a GEMM or a matmul: ``left_mul`` and ``right_mul`` are one matmul.
* ``_omega_at_slot`` moves its operand and its results by an index plan: integer arrays
  of flat indices, built once per shape by ``_omega_plan`` (a bounded cache) and never
  returned.  A gather by the plan puts the values a strided copy would put in the same
  places, so the GEMM sees the same operand and every product keeps its bits, with one
  numpy call where a copy took two or three.
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
* The scalar type is ``COMPLEX``, double-precision complex; no other module
  names a complex dtype.  Every array a record keeps (a geometry's, a braiding's
  S, a connection's omega) is frozen by one rule, ``_read_only``: a read-only
  ``COMPLEX`` copy of the declared shape.  Fields, the constructors here and
  ``io``'s encoder convert to it too, and every other array takes its operands' dtype.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

COMPLEX = np.complex128


def _as_complex(x) -> np.ndarray:
    """A bare array a caller passes in as ``COMPLEX``, where its real twin would give other bits."""
    return np.asarray(x, dtype=COMPLEX)


def _read_only(x, name: str, shape: tuple, dtype=COMPLEX) -> np.ndarray:
    """A read-only copy of ``x`` of the given shape, ``COMPLEX`` by default: the one rule
    for every array a record keeps.  ``FrameTensorField`` keeps a ``COMPLEX`` grid as given:
    ``calculus._first_order`` writes into its array before wrapping it (by ``_unchecked_field``)."""
    a = np.array(x, dtype=dtype)
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
    return np.eye(n ** pairs, dtype=COMPLEX).reshape((n,) * (2 * pairs))


def flip_central(n: int) -> np.ndarray:
    """The flip: (a, b) -> (b, a) with unit coefficient."""
    eye = np.eye(n)
    return np.einsum('ad,bc->abcd', eye, eye).astype(COMPLEX)


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


def central_at(a: np.ndarray, m: np.ndarray, pos: int, out: np.ndarray | None = None) -> np.ndarray:
    """Contract a rank-2k central tensor against axes pos..pos+k-1 (1-based) of ``a``.

    ``new[.., c.., ..] = sum_a M[a.., c..] old[.., a.., ..]``, as one matmul by
    mat(M).T.  The axes of ``a`` up to the contracted ones must all be n; the
    axes after them can be anything.  With ``out``, a C-contiguous array of
    ``a``'s shape and dtype that does not overlap ``a``, the matmul writes into
    it and a view of it is returned, so a caller can run a word through reused
    buffers.
    """
    k, n = m.ndim // 2, m.shape[0]
    if a.shape[:pos - 1 + k] != (n,) * (pos - 1 + k):
        raise ValueError(f"axes 1..{pos - 1 + k} of {a.shape} do not all equal n={n}")
    shape = (n ** (pos - 1), n ** k, -1)
    if out is not None:
        # a reshape of anything else would be a copy, and the matmul would write there
        if out.shape != a.shape or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous array of shape {a.shape}")
        out = out.reshape(shape)
    return np.matmul(m.reshape(n ** k, n ** k).T, a.reshape(shape), out=out).reshape(a.shape)


def _omega_matrix(omega: np.ndarray) -> np.ndarray:
    """omega^z_{xy} as the (n N, n^2 N) matrix with rows (z, j) and columns (x, y, k)."""
    n, N = omega.shape[0], omega.shape[-1]
    return omega.transpose(0, 3, 1, 2, 4).reshape(n * N, n * n * N)


# the most index plans kept by each cache; one verify at connection.MAX_DEGREE builds
# one _omega_plan per degree and one _monomial_plan for each of S and P
_PLANS = 64


@lru_cache(maxsize=_PLANS)
def _omega_plan(n: int, N: int, p: int, slots: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(operand, results): the index plan of ``_omega_at_slot`` at degree p, flat indices
    in C order, kept per shape.  ``operand`` picks the GEMM operand out of the
    coefficients: each slot's rows (left, right, j) by columns (z, k), slot after
    slot.  ``results[s]`` picks the s-th slot's result out of the GEMM product, whose
    rows (left, right, j) have columns (x, y, k).  A plan is a function of the shape
    alone; no value of a field or a connection enters it, and no kernel returns it."""
    src = np.arange(n ** p * N * N).reshape((n,) * p + (N, N))
    operand = np.concatenate([
        src.reshape(n ** (i - 1), n, n ** (p - i), N, N).transpose(0, 2, 3, 1, 4).reshape(-1, n * N)
        for i in slots])
    products = np.arange(operand.size * n).reshape(len(slots), -1)
    results = np.stack([
        o.reshape(n ** (i - 1), n ** (p - i), N, n * n, N).transpose(0, 3, 1, 2, 4).reshape(
            (n,) * (p + 1) + (N, N))
        for o, i in zip(products, slots)])
    # a gather takes the layout of its index array, and the GEMM wants C order
    return np.ascontiguousarray(operand), np.ascontiguousarray(results)


def _omega_at_slot(coeffs: np.ndarray, w: np.ndarray, *slots: int) -> list[np.ndarray]:
    """sum_z t_{..z..} omega^z_{xy}, one C-order array per slot i (1-based) given: slot i
    of t becomes the pair (x, y).

    ``w`` is ``_omega_matrix(omega)``.  All slots' operands are one GEMM.  One gather by
    the cached ``_omega_plan`` stacks each slot's rows, those of that slot's own GEMM
    in the same order, so every product keeps its bits; one gather per slot takes its
    result out of the product.  Each slot's result is its own array: one array of all
    of them, 1 MiB at degree 3 for N = 16, doubled the page faults of a verify of that
    frame, as glibc gave back and refaulted its heap top.
    """
    n, N = coeffs.shape[0], coeffs.shape[-1]
    operand, results = _omega_plan(n, N, coeffs.ndim - 2, slots)
    product = (coeffs.reshape(-1)[operand] @ w).reshape(-1)
    return [product[r] for r in results]


@lru_cache(maxsize=_PLANS)
def _monomial_plan(dtype: np.dtype, shape: tuple, data: bytes) -> tuple | None:
    """(source, coefficients) of the central tensor with these values when its matrix
    form is monomial, else None; ``_central_on_field`` gathers by it, and
    ``braiding._letter_plan`` reads S's for the braid words and the star tensor's plans.

    Monomial means finite with exactly one nonzero entry in each row and each column:
    ``source[c]`` is the row of column c's entry and ``coefficients[c]`` its value,
    ``None`` when every value is 1.  A NaN, an inf, a zero column or a second entry,
    however small, gives None.  The plan is a function of the values, so it is kept by
    them: an array's id or data address can come back holding other values.
    """
    if dtype.kind not in "biufc":
        return None
    mat = central_as_matrix(np.frombuffer(data, dtype=dtype).reshape(shape))
    nonzero = mat != 0
    if not (np.isfinite(mat).all() and (nonzero.sum(axis=0) == 1).all()
            and (nonzero.sum(axis=1) == 1).all()):
        return None
    source = nonzero.argmax(axis=0)
    coefficients = mat[source, np.arange(mat.shape[1])].reshape(-1, 1)
    return source, None if (coefficients == 1).all() else coefficients


def _central_on_field(a: np.ndarray, m: np.ndarray, pos: int) -> np.ndarray:
    """``central_at(a, m, pos)`` on a field's coefficients: by one gather along the
    contracted axes when mat(m) is monomial (``_monomial_plan``), times the
    coefficients unless all are 1; by ``central_at`` otherwise.

    Each entry of the matmul's result is then one product, so the gather gives its bits
    for coefficients of 1 and -1; a complex phase rounds as numpy's elementwise
    multiply.  A NaN or inf in ``a`` stays in the one entry it moves to, where the
    matmul also spreads NaN over its pair group.
    """
    plan = _monomial_plan(m.dtype, m.shape, m.tobytes())
    if plan is None:
        return central_at(a, m, pos)
    source, coefficients = plan
    k, n = m.ndim // 2, m.shape[0]
    out = np.take(a.reshape(n ** (pos - 1), n ** k, -1), source, axis=1)
    if coefficients is not None:
        out *= coefficients
    return out.reshape(a.shape)


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

    ``coeffs`` has shape (n,)*degree + (N, N); a ``COMPLEX`` ndarray is kept, not copied.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = self.coeffs
        if type(c) is not np.ndarray or c.dtype != COMPLEX:
            c = _as_complex(c)
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
    """``FrameTensorField(n, coeffs)`` without its checks, for a ``COMPLEX`` grid of a
    shape that an already checked input fixes."""
    t = object.__new__(FrameTensorField)
    object.__setattr__(t, "n", n)
    object.__setattr__(t, "coeffs", coeffs)
    return t


def basis_field(n: int, N: int, index) -> FrameTensorField:
    """The basis monomial theta^{a1} x ... x theta^{ap}: indices in [0, n), not bools, an int for p = 1."""
    index = tuple(index) if np.iterable(index) else (index,)
    if not all(isinstance(a, (int, np.integer)) and not isinstance(a, bool) and 0 <= a < n for a in index):
        raise ValueError(f"basis index {index} is not a tuple of integers in [0, n) for n={n}")
    c = np.zeros((n,) * len(index) + (N, N), dtype=COMPLEX)
    c[index].flat[::N + 1] = 1  # the identity matrix
    return FrameTensorField(n, c)


def left_mul(f: np.ndarray, t: FrameTensorField) -> FrameTensorField:
    """f t, coefficient by coefficient: ``f @ t.coeffs``.  ``f`` must be one (N, N)
    element, since matmul would broadcast a stack of them slot by slot."""
    if np.shape(f) != (t.N, t.N):
        raise ValueError(f"dimension mismatch: {np.shape(f)} vs N={t.N}")
    return replace(t, coeffs=f @ t.coeffs)


def right_mul(t: FrameTensorField, f: np.ndarray) -> FrameTensorField:
    """t f, coefficient by coefficient: ``t.coeffs @ f``, for one (N, N) element ``f``."""
    if np.shape(f) != (t.N, t.N):
        raise ValueError(f"dimension mismatch: {np.shape(f)} vs N={t.N}")
    return replace(t, coeffs=t.coeffs @ f)


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
    """Contract a rank-2k central tensor against field indices pos..pos+k-1 (1-based).

    By ``_central_on_field``: a gather when mat(m) is monomial, such as the flip,
    else ``central_at``'s matmul."""
    m = np.asarray(m)
    k = m.ndim // 2
    if m.ndim != 2 * k or m.ndim == 0:
        raise ValueError(f"central tensor of rank {m.ndim} is not of even rank 2k")
    if m.shape != (t.n,) * m.ndim:
        raise ValueError(f"frame dimension mismatch: tensor of shape {m.shape}, field n={t.n}")
    if not (1 <= pos and pos + k - 1 <= t.degree):
        raise ValueError(f"position {pos} (+{k} indices) out of range for degree {t.degree}")
    return _unchecked_field(t.n, _central_on_field(t.coeffs, m, pos))


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
