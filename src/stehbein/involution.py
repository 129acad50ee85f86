"""The star structure on forms and tensor fields.

The star of a degree-p field is realized on coefficients as: adjoint every
coefficient, then contract with a rank-2p central tensor J (an antilinear
basis operator).  J is built from the inverse-order permutation word with
each adjacent transposition replaced by the braiding:

    j_n = [sigma word for the reverse permutation] o l_n,

where l_n reverses the index order and adjoints the coefficient.  On a
field f_A theta^A this gives

    star(T)_B = sum_A J^{A}{}_{B} adjoint(f_A).

As matrices, J^(k) = R W_k with R the index reversal and W_k the composite
of the word.  ``build_jn`` runs the recursion of ``reverse_word`` itself,
W_k = (W_(k-1) x 1) o sigma_(k-1) ... sigma_1: one Kronecker lift of the
(k-1)-strand composite, then k-1 letter passes of n^(2k) n^2 MACs each.
``check_jn_involutive`` uses conj(J) J = R conj(W_k) J: the conjugate word
acts on J one letter at a time, k(k-1)/2 passes instead of one dense
(n^k)^2 product of n^(3k) MACs.

A letter acts only on the upper index block, so each column of J goes
through a word on its own.  Every step of ``build_jn``'s recursion is
``_word_by_column_block``: from J^(k-1) it makes J^(k)'s columns in blocks
of at most ``BLOCK_ENTRIES`` entries, reading W_(k-1) = R J^(k-1) a block's
columns at a time and running the block's letters through two reused
buffers.  ``build_jn`` writes the blocks into J^(k), so it peaks at J plus
4 MiB (and J^(k-1), 1/n^2 of J).  ``check_jn_involutive`` runs the conjugate
word on each block as it comes and keeps only the block's max entry, so no
check forms J^(k): it holds J^(k-1), 1/n^2 of J, plus the 4 MiB of buffers.
The passes and their MACs are those of building J and then acting on it.

When mat(S) is monomial (one nonzero per row and column, as for the flip and
the sign and phase twists; ``frametensor._monomial_plan`` decides), so is every
J^(k), and both functions take a second route, chosen once per call by S's
values: J^(k) as a plan, the row of each column's one entry and its value.
``_plan_step``, the twin of ``_word_by_column_block``, makes J^(k)'s plan from
J^(k-1)'s by integer index arithmetic and one complex multiply per letter and
column, O(k n^k) in place of k-1 passes of n^(2k) n^2 MACs.  ``build_jn``
scatters the plan into a zero J^(k); ``check_jn_involutive`` reads J^(n-1)'s
plan off its nonzero entries, runs the conjugate word on the plan and forms no
block.  For coefficients of 1 and -1 each product is exact, so J and the residual
keep the dense route's bits; a complex phase rounds as numpy's multiply, not as
the GEMM's, about 1e-16 apart.

``build_jn`` is the one builder of J, J^(2)^{ab}_{cd} = S^{ba}_{cd} included.
The involution residual of J^(2) is (S^{ba}_{cd})* S^{dc}_{ef} - delta^a_e delta^b_f,
the unitarity of sigma, so sigma-unitarity and jn-involutive-2 read one value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import FrameGeometry, differential0
from .braiding import Braiding, SingularBraidingError
from .connection import Connection, _intertwining_residual, dn
from .frametensor import (
    INVERSE_COND_LIMIT,
    FrameTensorField,
    _as_complex,
    _monomial_plan,
    adjoint,
    apply_central_at,
    central_as_matrix,
    central_at,
    max_coeff_norm,
    max_entry,
    tensor_product,
    worst,
)


# ---------------------------------------------------------------------------
# permutation words


@dataclass(frozen=True)
class PermutationWord:
    """A word in adjacent transpositions; the rightmost letter acts first."""

    letters: tuple[int, ...]


def reverse_word(n: int) -> PermutationWord:
    """Canonical reduced word for the inverse-order permutation of n objects.

    W_2 = [1]; W_n = W_{n-1} ++ [n-1, n-2, ..., 1].
    """
    if n < 2:
        raise ValueError(f"need at least 2 strands, got {n}")
    letters: list[int] = [1]
    for m in range(3, n + 1):
        letters += list(range(m - 1, 0, -1))
    return PermutationWord(tuple(letters))


# ---------------------------------------------------------------------------
# the central tensors I, J, J^(n)


def _letter_tensor(s: np.ndarray) -> np.ndarray:
    """S with its blocks swapped: ``central_at`` by it multiplies mat(S) in from the left."""
    return np.ascontiguousarray(np.einsum('abcd->cdab', s))


# Entries per column block of the dense route (S not monomial): at most 2**17 complex
# entries (2 MiB), so J and the two block buffers stay within J + 4 MiB.  A J that
# fits is one block, whose matmuls are the unblocked ones, bit for bit.  Swept on a
# dense S of braid-o5's size (n = 4, J^(5) 16 MiB, 2 cores; braid-o5's own phase
# twist now takes the plan route): check_jn_involutive took a median 104, 92 and
# 82 ms with 1, 2 and 4 MiB blocks (109 ms as one block), and one traced verify
# peaked at 19.6, 21.8 and 26.3 MiB (32.0 MiB before blocking).  2 MiB keeps the
# run's peak RSS under 55 MiB at the unblocked time.
BLOCK_ENTRIES = 2 ** 17


def _column_blocks(size: int) -> list[tuple[int, int]]:
    """The (start, stop) column ranges of a (size, size) star tensor, in order;
    all have one width but the last, which may be narrower."""
    width = max(1, min(BLOCK_ENTRIES // size, size))
    return [(start, min(start + width, size)) for start in range(0, size, width)]


def _reversal_rows(n: int, k: int) -> np.ndarray:
    """Row of the reversed index tuple for each row of a rank-2k tensor's upper block:
    column c of the index reversal R holds its 1 at row ``_reversal_rows(n, k)[c]``."""
    return np.arange(n ** k).reshape((n,) * k).transpose().ravel()


def _word_by_column_block(letter: np.ndarray, k: int, prev: np.ndarray):
    """J^(k)'s columns, one block of ``_column_blocks`` at a time, by step k of
    ``build_jn``'s recursion from J^(k-1), ``prev``, as a matrix or a rank-2(k-1) tensor.

    Each block is filled with its columns of W_(k-1) x 1, reading the rows of
    W_(k-1) = R J^(k-1) out of ``prev`` for that block alone, so W_(k-1) is
    never formed whole.  The block then runs the letters k-1, ..., 1 of L_k by
    ``letter`` (one ``central_at`` each, from one of two reused buffers into
    the other) and has its rows taken in R order into the free buffer.
    Yields (start, stop, block, spare): block holds J^(k)[:, start:stop]
    shaped (n,)*k + (stop - start,), and spare is the other buffer in the same
    shape.  Both are overwritten by the next block, so the caller may use them
    as scratch until then.
    """
    n = letter.shape[0]
    side = n ** (k - 1)
    size = side * n
    prev = prev.reshape(side, side)
    eye = np.eye(n, dtype=letter.dtype)
    rows = _reversal_rows(n, k)
    blocks = _column_blocks(size)
    width = blocks[0][1] - blocks[0][0]
    buffers = [np.empty(size * width, dtype=letter.dtype) for _ in range(2)]
    for start, stop in blocks:
        src, dst = (buf[:size * (stop - start)].reshape((n,) * k + (stop - start,))
                    for buf in buffers)
        # column (B, b) of W_(k-1) kron 1 is W[:, B] kron e_b: the Kronecker lift's
        # products.  Row r of W is row rows[n r] of J^(k-1), R's row on k-1 strands
        cols = np.arange(start, stop)
        np.multiply(prev[rows[::n, None, None], cols // n], eye[:, cols % n],
                    out=src.reshape(side, n, -1))
        for i in range(k - 1, 0, -1):
            src, dst = central_at(src, letter, i, out=dst), src
        # R is a real involution: row r of J is row rows[r] of W ('clip' skips take's buffer)
        np.take(src.reshape(size, -1), rows, axis=0, out=dst.reshape(size, -1), mode="clip")
        yield start, stop, dst, src


def _letter_plan(b: Braiding) -> tuple | None:
    """S's ``_monomial_plan``, (source, coefficients) or None: the route of the star tensor.

    When mat(S) is monomial, so is every J^(k), and ``build_jn`` and
    ``check_jn_involutive`` run on plans: J^(k) as the row of each column's one
    entry and its value.  Any other S takes ``_word_by_column_block``.
    """
    return _monomial_plan(b.S.dtype, b.S.shape, b.S.tobytes())


def _letters_on_plan(letter, n: int, k: int, letters, rows: np.ndarray, values: np.ndarray):
    """A star tensor's plan (rows, values) on k strands after the letters: for each i
    of ``letters`` in turn, mat(S) on strands (i, i+1) multiplies every column from
    the left, as ``central_at`` by ``_letter_tensor(S)`` does.  ``letter`` is S's
    plan, its coefficients conjugated for the conjugate word.

    mat(S) sends e_y, y the pair's digits, to coefficient[y] e_source[y]: a column's
    entry changes its row's pair and takes one complex multiply, skipped when every
    coefficient is 1.
    """
    source, coefficients = letter
    for i in letters:
        weight = n ** (k - i - 1)
        pair = rows // weight % (n * n)
        rows = rows + (source[pair] - pair) * weight
        if coefficients is not None:
            values = values * coefficients[pair, 0]
    return rows, values


def _plan_step(letter, n: int, k: int, rows: np.ndarray, values: np.ndarray):
    """J^(k)'s plan from J^(k-1)'s, (rows, values) with J^(k-1)[rows[c], c] = values[c]
    its only nonzero entries: step k of ``build_jn``'s recursion when S is monomial.

    The twin of ``_word_by_column_block``: W_(k-1) = R J^(k-1) moves column B's entry
    to row R(rows[B]) on k-1 strands; column (B, b) of W_(k-1) x 1 holds it at row
    (R(rows[B]), b); letters k-1, ..., 1 (``_letters_on_plan``) and R on k strands
    then move it on.  Integer index arithmetic and one multiply per letter, O(k n^k).
    """
    reversal = _reversal_rows(n, k)
    # R's row order on k-1 strands is every n-th row of R's on k, as in the dense step
    lifted = (reversal[::n][rows, None] * n + np.arange(n)).ravel()
    rows, values = _letters_on_plan(letter, n, k, range(k - 1, 0, -1), lifted, np.repeat(values, n))
    return reversal[rows], values


def _plan_of(jn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, values) of a star tensor with at most one nonzero entry per column, read
    by its nonzero entries, so no array of J's size is made; an all-zero column
    (underflow) reads as a 0 at row 0."""
    side = jn.shape[0] ** (jn.ndim // 2)
    jn = jn.reshape(side, side)
    found, columns = np.nonzero(jn)
    rows, values = np.zeros(side, dtype=np.intp), np.zeros(side, dtype=jn.dtype)
    rows[columns] = found
    values[columns] = jn[found, columns]
    return rows, values


def build_jn(b: Braiding, n: int) -> np.ndarray:
    """The rank-2n star tensor J^(n) = R W_n.

    W_n, the braiding word for the inverse-order permutation, is built by the
    recursion of ``reverse_word`` (module docstring).  From J^(1), the
    identity, each step m = 2, ..., n is ``_word_by_column_block`` on J^(m-1):
    one Kronecker lift of W_(m-1), then m-1 letter passes by ``central_at``,
    letter m-1 first, with the upper index block reversed (R, the action of
    l_m on basis monomials).  Its blocks are written into J^(m), so a step
    holds J^(m-1) and J^(m) plus the generator's buffers.  When S is monomial
    (``_letter_plan``) each step is ``_plan_step`` on J^(m-1)'s plan instead, and
    the plan of J^(n) is scattered into a zero J^(n).  W_n equals
    ``word_tensor(S, n, reverse_word(n).letters)`` up to rounding.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    size = b.n
    plan = _letter_plan(b)
    if plan is not None:
        rows, values = np.arange(size), np.ones(size, dtype=b.S.dtype)
        for m in range(2, n + 1):
            rows, values = _plan_step(plan, size, m, rows, values)
        jn = np.zeros((size ** n, size ** n), dtype=b.S.dtype)
        jn[rows, np.arange(size ** n)] = values
        return jn.reshape((size,) * (2 * n))
    letter = _letter_tensor(b.S)
    jn = np.eye(size, dtype=b.S.dtype)
    for m in range(2, n + 1):
        prev, jn = jn, np.empty((size ** m, size ** m), dtype=b.S.dtype)
        for start, stop, block, spare in _word_by_column_block(letter, m, prev):
            jn[:, start:stop] = block.reshape(size ** m, -1)
        # the last block's buffers and J^(m-1) would otherwise live on into step m + 1
        del prev, block, spare
    return jn.reshape((size,) * (2 * n))


# ---------------------------------------------------------------------------
# the star on fields


def star_form(t: FrameTensorField, jn: np.ndarray | None = None) -> FrameTensorField:
    """Antilinear star of a degree-p field: star(T)_B = J^{A}_{B} adjoint(T_A).

    Without ``jn``, degrees 0 and 1 are the plain adjoint (J^(1) is the
    identity: the frame is hermitian); higher degrees need the matching J^(p).
    """
    p = t.degree
    adj = adjoint(t.coeffs)
    if jn is None:
        if p > 1:
            raise ValueError(f"degree {p} needs an explicit rank-{2 * p} star tensor")
        return FrameTensorField(t.n, adj)
    jn = np.asarray(jn)
    if jn.ndim != 2 * p:
        raise ValueError(f"star tensor of rank {jn.ndim} does not match degree {p}")
    return FrameTensorField(t.n, central_at(adj, jn, 1))


# ---------------------------------------------------------------------------
# residual checks


def check_jn_involutive(b: Braiding, n: int) -> float:
    """Max entry of conj(J^(n)) o J^(n) - identity, never forming J^(n); exactly 0
    at n = 1, where J^(n) is the identity.

    With J = R W and R a real involution, conj(J) J - 1 is R (conj(W) J - R),
    the same entries in other rows.  Each column block of J comes from
    ``_word_by_column_block`` on J^(n-1), which ``build_jn`` makes.  The
    conjugate word then acts on the block one letter at a time, leftmost
    first, through the generator's two buffers, and R's block is subtracted.
    The block's max entry is kept and the block dropped, so the peak is
    J^(n-1) (1/n^2 of J^(n)) plus the two block buffers, at most 4 MiB; the
    letter passes and their MACs are those of ``build_jn``'s last step and the
    conjugate word over J.

    When S is monomial (``_letter_plan``), J^(n-1)'s plan is read off
    ``build_jn(b, n - 1)`` and taken to J^(n)'s by ``_plan_step``, and the
    conjugate word runs on the plan.  Each column of conj(W) J - R then holds
    its entry v and a -1 on R's row, so the residual is the max over columns of
    |v - 1| where v lands on R's row, else max(|v|, 1).

    No inverse is taken, so a singular S gives its residual and a NaN in S
    gives NaN.
    """
    if n == 1:
        return 0.0
    size = b.n
    # J^(1) is the identity; build_jn(b, 1) gives the same matrix but is one more
    # build_jn call per verify for a trace to count
    prev = np.eye(size, dtype=b.S.dtype) if n == 2 else build_jn(b, n - 1)
    plan = _letter_plan(b)
    if plan is not None:
        rows, values = _plan_step(plan, size, n, *_plan_of(prev))
        source, coefficients = plan
        conj_plan = source, None if coefficients is None else np.conj(coefficients)
        rows, values = _letters_on_plan(conj_plan, size, n, reverse_word(n).letters, rows, values)
        on_r = rows == _reversal_rows(size, n)
        return worst([max_entry(values - on_r), 0.0 if on_r.all() else 1.0])
    letter = _letter_tensor(b.S)
    conj_letter, letters = np.conj(letter), reverse_word(n).letters
    rows = _reversal_rows(size, n)
    peaks = []
    for start, stop, block, spare in _word_by_column_block(letter, n, prev):
        for i in letters:
            block, spare = central_at(block, conj_letter, i, out=spare), block
        block = block.reshape(-1, stop - start)
        block[rows[start:stop], np.arange(stop - start)] -= 1
        peaks.append(max_entry(block))
    return worst(peaks)


def check_fifa(b: Braiding) -> float:
    """Residual of sigma_{i(i+1)} o l_n = l_n o sigma^{-1}_{(n-i)(n+1-i)}, any n and i.

    Both sides are antilinear; on matrices the identity reads
    R S_i = conj(S^{-1}_{n-i}) R, with R the index reversal and S_i the lift
    of S to the strands (i, i+1).  R carries that pair onto (n+1-i, n-i), so
    R S_i - conj(S^{-1}_{n-i}) R is the n-strand lift of the rank-4 difference
    S^{ba}_{dc} - conj(S^{-1})^{ab}_{cd}, times R.  The identity factors and R
    only copy entries, so the maximum entry is this rank-4 one, bit for bit,
    for every n >= 2 and 1 <= i < n.  A non-finite S gives NaN rather than
    an inversion error.
    """
    if not np.all(np.isfinite(b.S)):
        return float("nan")
    sm = central_as_matrix(b.S)
    cond = np.linalg.cond(sm)
    if not np.isfinite(cond) or cond > INVERSE_COND_LIMIT:
        raise SingularBraidingError("braiding is singular or too ill-conditioned to invert")
    s_inv = np.linalg.inv(sm).reshape(b.S.shape)
    return max_entry(np.einsum('badc->abcd', b.S) - np.conj(s_inv))


def _d2_coefficient_residual(s: np.ndarray, om: np.ndarray) -> float:
    """Max coefficient norm of t1 - t2 + t3 - t4, with each J^{ab}_{cd} read as S^{ba}_{cd}:

        t1 = S^{ba}_{pe} omega^p_{cd},   t2 = S^{pa}_{de} omega^b_{cp},
        t3 = S^{ba}_{pq} S^{pr}_{cd} omega^q_{re},
        t4 = S^{bq}_{cp} S^{pr}_{de} omega^a_{qr},

    at (a, b, c, d, e).  t1 and t2 are one GEMM each over p.  t3 and t4
    first compose S with S over p (n^7 products on S alone), then take one
    GEMM with omega over (q, r): n^7 N^2 multiply-adds in BLAS, where a
    three-operand einsum is one nested loop of n^8 N^2 triple products.

    The route reads only S and omega, never ``d2``, ``dn``, ``central_at``
    or ``_omega_at_slot``, so it stays independent of the strong and
    braided forms it is compared with.
    """
    n, N = s.shape[0], om.shape[-1]
    m = N * N
    # t1: rows (a, b, e) of S^{ba}_{pe} times omega^p on its columns (c, d, i, j)
    t1 = s.transpose(1, 0, 3, 2).reshape(n ** 3, n) @ om.reshape(n, n * n * m)
    # t2: rows (a, d, e) of S^{pa}_{de} times omega^b_{cp} moved to rows p
    t2 = s.transpose(1, 2, 3, 0).reshape(n ** 3, n) @ om.transpose(2, 0, 1, 3, 4).reshape(n, -1)
    # the sum is accumulated in place, in the order t1 - t2 + t3 - t4
    out = np.subtract(t1.reshape((n,) * 5 + (N, N)).transpose(0, 1, 3, 4, 2, 5, 6),
                      t2.reshape((n,) * 5 + (N, N)).transpose(0, 3, 4, 1, 2, 5, 6))
    # t3: (S S)^{ba}_{cd, qr} by rows (a, b, c, d), then omega^q_{re} over (q, r)
    ss = np.einsum('bapq,prcd->abcdqr', s, s)
    out += (ss.reshape(n ** 4, n * n) @ om.reshape(n * n, n * m)).reshape(out.shape)
    # t4: omega^a_{qr} by rows (a, i, j) times (S S)^{bq}_{cde, r} on columns (b, c, d, e)
    ss = np.einsum('bqcp,prde->qrbcde', s, s)
    t4 = om.transpose(0, 3, 4, 1, 2).reshape(n * m, n * n) @ ss.reshape(n * n, n ** 4)
    out -= t4.reshape(n, N, N, n, n, n, n).transpose(0, 3, 4, 5, 6, 1, 2)
    return max_coeff_norm(out)


def check_Dn_reality(c: Connection, b: Braiding, n: int, op=None) -> float:
    """Residual of D_n o j_n = j_{n+1} o D_n over all degree-n basis monomials.

    The basis monomials stand for every n-form only given the right Leibniz rule:
    with the left rule, reality on f theta^A is equivalent to it (the paper's first
    result), and a connection that breaks it can be real on each theta^a but not on
    Omega^1.  For n = 1 this is the basic reality condition
    D xi* = (D xi)*: on theta^a, D(theta^a*) - (D theta^a)* is minus the adjoint of
    (omega^a_{bc})* - omega^a_{de} (J^{de}_{bc})*, so the Frobenius norms agree and
    the report reads its connection-reality residual here.  ``op`` stands for D_n as in
    ``connection.check_sigma_lemma``: ``dn`` by default, looked up when the
    check runs, or ``d2`` at n = 2.  Both checks sweep the basis with
    ``connection._intertwining_residual``.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    jn_t = build_jn(b, n)
    jn1_t = build_jn(b, n + 1)
    return _intertwining_residual(c, b, n, dn if op is None else op,
                                  lambda t: star_form(t, jn_t), lambda t: star_form(t, jn1_t))


def check_wedge_star(geom: FrameGeometry, b: Braiding, pairs) -> float:
    """Residual of the sign rule for the star of wedge products.

    Two routes are compared: the tensor identity that the star of a
    projected 2-form equals minus its reversed projection, and the field
    identity (df dg)* = -dg* df* on each (f, g) of ``pairs``, an iterable
    of element pairs.  Returns the max of both residuals.
    """
    p_t = geom.P
    j2 = build_jn(b, 2)
    lhs = np.einsum('abcd,cdef,efgh->abgh', np.conj(p_t), j2, p_t)
    rhs = -np.einsum('baef,efgh->abgh', p_t, p_t)
    tensor_res = max_entry(lhs - rhs)

    field_res = []
    for f, g in pairs:
        df = differential0(f, geom)
        dg = differential0(g, geom)
        prod = apply_central_at(tensor_product(df, dg), p_t, 1)
        lhs_f = apply_central_at(star_form(prod, j2), p_t, 1)
        rhs_f = apply_central_at(tensor_product(star_form(dg), star_form(df)), p_t, 1)
        field_res.append(max_coeff_norm((lhs_f + rhs_f).coeffs))
    return worst([tensor_res, *field_res])


def check_metric_compat_second(g: np.ndarray, b: Braiding) -> float:
    """Residual of the second metric compatibility form,
    S^{ae}_{df} g^{fg} S^{bc}_{eg} = g^{ab} delta^c_d: it reads S and g alone, so
    it needs no inverse of g and is judged on a singular metric too."""
    g = _as_complex(g)
    lhs = np.einsum('aedf,fg,bceg->abcd', b.S, g, b.S)
    rhs = np.einsum('ab,cd->abcd', g, np.eye(b.n))
    return max_entry(lhs - rhs)


def check_metric_reality(g: np.ndarray, b: Braiding) -> float:
    """Residual of S^{ab}_{cd} g^{cd} = (g^{ba})*."""
    g = np.asarray(g)
    lhs = np.einsum('abcd,cd->ab', b.S, g)
    return max_entry(lhs - np.conj(g.T))
