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
    adjoint,
    apply_central_at,
    central_as_matrix,
    central_at,
    max_coeff_norm,
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


def build_jn(b: Braiding, n: int) -> np.ndarray:
    """The rank-2n star tensor J^(n) = R W_n.

    W_n, the braiding word for the inverse-order permutation, is built by the
    recursion of ``reverse_word`` (module docstring): each step m is one
    Kronecker lift of W_(m-1), then m-1 letter passes by ``central_at``,
    letter m-1 first; W_n equals ``word_tensor(S, n, reverse_word(n).letters)``
    up to rounding.  Then the upper index block is reversed (R, the action of
    l_n on basis monomials).  At n = 1 both are the identity, and so is J^(1).
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    size = b.n
    letter = _letter_tensor(b.S)
    eye = np.eye(size, dtype=complex)
    w = eye
    for m in range(2, n + 1):
        # W_(m-1) kron 1 as one broadcast product: np.kron's products, not its overhead
        side = size ** (m - 1)
        w = (w.reshape(side, 1, side, 1) * eye[:, None]).reshape((size,) * (2 * m))
        for i in range(m - 1, 0, -1):
            w = central_at(w, letter, i)
    perm = list(range(n - 1, -1, -1)) + list(range(n, 2 * n))
    return np.ascontiguousarray(np.transpose(w, perm))


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
    """Max entry of conj(J^(n)) o J^(n) - identity: ``_involution_residual`` of
    ``build_jn(b, n)``, and exactly 0 at n = 1, where J^(1) is the identity.

    No inverse is taken, so a singular S gives its residual and a NaN in S
    gives NaN.
    """
    if n == 1:
        return 0.0
    # J^(n) is handed over as a temporary, so the helper holds its only reference
    return _involution_residual(b, build_jn(b, n))


def _involution_residual(b: Braiding, y: np.ndarray) -> float:
    """Max entry of conj(J) o J - identity for J = ``build_jn(b, k)``, k >= 2.

    With J = R W and R a real involution, conj(J) J - 1 is
    R (conj(W) J - R), the same entries in other rows: the conjugate word
    acts on J one letter at a time, leftmost first, and R is subtracted in
    place (see the module docstring), in the fresh tensor of the first letter.
    """
    n, k = b.n, y.ndim // 2
    letter = np.conj(_letter_tensor(b.S))
    # rebinding y drops a J passed as a temporary after the first letter, so at
    # most two rank-2k tensors are alive
    for i in reverse_word(k).letters:
        y = central_at(y, letter, i)
    # column c of R holds its 1 at the row of the reversed index tuple
    size = n ** k
    rows = np.arange(size).reshape((n,) * k).transpose().ravel()
    ym = y.reshape(size, size)
    ym[rows, np.arange(size)] -= 1
    return float(np.max(np.abs(ym)))


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
    return float(np.max(np.abs(np.einsum('badc->abcd', b.S) - np.conj(s_inv))))


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
    return max_coeff_norm(FrameTensorField(n, out))


def check_Dn_reality(c: Connection, b: Braiding, n: int, op=None) -> float:
    """Residual of D_n o j_n = j_{n+1} o D_n over all degree-n basis monomials.

    Additivity plus the Leibniz structure make the basis monomials
    sufficient.  For n = 1 this is the basic reality condition
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
    tensor_res = float(np.max(np.abs(lhs - rhs)))

    field_res = []
    for f, g in pairs:
        df = differential0(f, geom)
        dg = differential0(g, geom)
        prod = apply_central_at(tensor_product(df, dg), p_t, 1)
        lhs_f = apply_central_at(star_form(prod, j2), p_t, 1)
        rhs_f = apply_central_at(tensor_product(star_form(dg), star_form(df)), p_t, 1)
        field_res.append(max_coeff_norm(lhs_f + rhs_f))
    return worst([tensor_res, *field_res])


def check_metric_compat_second(g: np.ndarray, b: Braiding) -> float:
    """Residual of the second metric compatibility form,
    S^{ae}_{df} g^{fg} S^{bc}_{eg} = g^{ab} delta^c_d: it reads S and g alone, so
    it needs no inverse of g and is judged on a singular metric too."""
    g = np.asarray(g, dtype=complex)
    lhs = np.einsum('aedf,fg,bceg->abcd', b.S, g, b.S)
    rhs = np.einsum('ab,cd->abcd', g, np.eye(b.n))
    return float(np.max(np.abs(lhs - rhs)))


def check_metric_reality(g: np.ndarray, b: Braiding) -> float:
    """Residual of S^{ab}_{cd} g^{cd} = (g^{ba})*."""
    g = np.asarray(g, dtype=complex)
    lhs = np.einsum('abcd,cd->ab', b.S, g)
    return float(np.max(np.abs(lhs - np.conj(g.T))))
