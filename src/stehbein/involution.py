"""The star structure on forms and tensor fields.

The star of a degree-p field is realized on coefficients as: adjoint every
coefficient, then contract with a rank-2p central tensor J (an antilinear
basis operator).  J is built from the inverse-order permutation word with
each adjacent transposition replaced by the braiding:

    j_n = [sigma word for the reverse permutation] o l_n,

where l_n reverses the index order and adjoints the coefficient.  On a
field f_A theta^A this gives

    star(T)_B = sum_A J^{A}{}_{B} adjoint(f_A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matalg import adjoint
from .calculus import FrameGeometry, differential0
from .braiding import Braiding, SingularBraidingError
from .connection import Connection, d2, dn
from .frametensor import (
    FrameTensorField,
    basis_field,
    central_as_matrix,
    max_coeff_norm,
    tensor_product,
    wedge_project,
    word_tensor,
    worst,
)


INVERSE_COND_LIMIT = 1e12  # above it, check_fifa refuses to invert S


# ---------------------------------------------------------------------------
# permutation words


@dataclass(frozen=True)
class PermutationWord:
    """A word in adjacent transpositions; the rightmost letter acts first."""

    n_strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        for i in self.letters:
            if not 1 <= i <= self.n_strands - 1:
                raise ValueError(f"letter {i} out of range for {self.n_strands} strands")

    def permutation(self) -> tuple[int, ...]:
        """Evaluate the word on (1, ..., n) by swapping positions."""
        items = list(range(1, self.n_strands + 1))
        for i in reversed(self.letters):
            items[i - 1], items[i] = items[i], items[i - 1]
        return tuple(items)


def reverse_word(n: int) -> PermutationWord:
    """Canonical reduced word for the inverse-order permutation of n objects.

    W_2 = [1]; W_n = W_{n-1} ++ [n-1, n-2, ..., 1].
    """
    if n < 2:
        raise ValueError(f"need at least 2 strands, got {n}")
    letters: list[int] = [1]
    for m in range(3, n + 1):
        letters += list(range(m - 1, 0, -1))
    return PermutationWord(n, tuple(letters))


# ---------------------------------------------------------------------------
# the central tensors I, J, J^(n)


def build_J(s: np.ndarray) -> np.ndarray:
    """J^{ab}_{cd} = S^{ba}_{cd}: the star on 1-form x 1-form."""
    return np.einsum('bacd->abcd', np.asarray(s, dtype=complex))


def build_jn(b: Braiding, n: int, word: PermutationWord | None = None) -> np.ndarray:
    """The rank-2n star tensor J^(n).

    The braiding word for the inverse-order permutation is composed and the
    upper index block is reversed (the action of l_n on basis monomials).
    Any ``word`` evaluating to the inverse-order permutation is accepted;
    under the braid equation all such words give the same tensor.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n == 1:
        return np.eye(b.n, dtype=complex)
    if word is None:
        word = reverse_word(n)
    else:
        if word.n_strands != n:
            raise ValueError(f"word is on {word.n_strands} strands, expected {n}")
        if word.permutation() != tuple(range(n, 0, -1)):
            raise ValueError("word does not evaluate to the inverse-order permutation")
    w = word_tensor(b.S, n, word.letters)
    perm = list(range(n - 1, -1, -1)) + list(range(n, 2 * n))
    return np.ascontiguousarray(np.transpose(w, perm))


# ---------------------------------------------------------------------------
# the star on fields


def star_form(t: FrameTensorField, jn: np.ndarray | None = None) -> FrameTensorField:
    """Antilinear star of a degree-p field: star(T)_B = J^{A}_{B} adjoint(T_A).

    Degree 0 is the plain adjoint and degree 1 uses the identity tensor
    (the frame is hermitian); higher degrees need the matching J^(p).
    """
    p = t.degree
    adj = adjoint(t.coeffs)
    if p == 0:
        return FrameTensorField(t.n, adj)
    if jn is None:
        if p == 1:
            jn = np.eye(t.n, dtype=complex)
        else:
            raise ValueError(f"degree {p} needs an explicit rank-{2 * p} star tensor")
    jn = np.asarray(jn)
    if jn.ndim != 2 * p:
        raise ValueError(f"star tensor of rank {jn.ndim} does not match degree {p}")
    out = np.tensordot(jn, adj, axes=(list(range(p)), list(range(p))))
    return FrameTensorField(t.n, out)


# ---------------------------------------------------------------------------
# residual checks


def check_jn_involutive(b: Braiding, n: int) -> float:
    """Max entry of conj(J^(n)) o J^(n) - identity."""
    j = build_jn(b, n)
    jm = central_as_matrix(j)
    return float(np.max(np.abs(np.conj(jm) @ jm - np.eye(jm.shape[0]))))


def check_fifa(b: Braiding) -> float:
    """Residual of sigma_{i(i+1)} o l_n = l_n o sigma^{-1}_{(n-i)(n+1-i)}, any n and i.

    Both sides are antilinear; on matrices the identity reads
    R S_i = conj(S^{-1}_{n-i}) R, with R the index reversal and S_i the lift
    of S to the strands (i, i+1).  R carries that pair onto (n+1-i, n-i), so
    R S_i - conj(S^{-1}_{n-i}) R is the n-strand lift of the rank-4 difference
    S^{ba}_{dc} - conj(S^{-1})^{ab}_{cd}, times R.  The identity factors and R
    only copy entries, so the maximum entry is this rank-4 one, bit for bit,
    for every n >= 2 and 1 <= i < n.
    """
    sm = central_as_matrix(b.S)
    cond = np.linalg.cond(sm)
    if not np.isfinite(cond) or cond > INVERSE_COND_LIMIT:
        raise SingularBraidingError("braiding is singular or too ill-conditioned to invert")
    s_inv = np.linalg.inv(sm).reshape(b.S.shape)
    return float(np.max(np.abs(np.einsum('badc->abcd', b.S) - np.conj(s_inv))))


def check_connection_reality(c: Connection, j: np.ndarray) -> float:
    """Residual of (omega^a_{bc})* = omega^a_{de} (J^{de}_{bc})*."""
    lhs = adjoint(c.omega)
    rhs = np.einsum('adeij,debc->abcij', c.omega, np.conj(np.asarray(j)))
    return max_coeff_norm(FrameTensorField(c.geom.n, lhs - rhs))


def check_D2_reality(c: Connection, b: Braiding) -> tuple[float, float, float]:
    """The three second-order reality residuals:

    * strong form  D_2 o j_2 = j_3 o D_2,
    * the four-term coefficient identity in J and omega,
    * the braided form  D_2 o sigma = sigma_23 o D_2.

    These are provably equivalent once the connection itself is real; the
    caller is responsible for cross-checking them (see the verify runner).
    """
    from .frametensor import apply_central_at
    geom = c.geom
    n, N = geom.n, geom.N
    j2 = build_jn(b, 2)
    j3 = build_jn(b, 3)
    strong, braided = [], []
    for idx in np.ndindex(n, n):
        basis = basis_field(n, N, idx)
        lhs = d2(c, b, star_form(basis, j2))
        rhs = star_form(d2(c, b, basis), j3)
        strong.append(max_coeff_norm(lhs - rhs))
        lhs2 = d2(c, b, apply_central_at(basis, b.S, 1))
        rhs2 = apply_central_at(d2(c, b, basis), b.S, 2)
        braided.append(max_coeff_norm(lhs2 - rhs2))
    j = build_J(b.S)
    om = c.omega
    t1 = np.einsum('abpe,pcdij->abcdeij', j, om)
    t2 = np.einsum('apde,bcpij->abcdeij', j, om)
    t3 = np.einsum('abpq,rpcd,qreij->abcdeij', j, j, om)
    t4 = np.einsum('qbcp,rpde,aqrij->abcdeij', j, j, om)
    coeff = float(np.max(np.linalg.norm(t1 - t2 + t3 - t4, axis=(-2, -1))))
    return worst(strong), coeff, worst(braided)


def check_Dn_reality(c: Connection, b: Braiding, n: int) -> float:
    """Residual of D_n o j_n = j_{n+1} o D_n over all degree-n basis monomials.

    Additivity plus the Leibniz structure make the basis monomials
    sufficient.  For n = 1 this is the basic reality condition
    D xi* = (D xi)*.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    geom = c.geom
    jn_t = build_jn(b, n)
    jn1_t = build_jn(b, n + 1)
    residuals = []
    for idx in np.ndindex(*(geom.n,) * n):
        basis = basis_field(geom.n, geom.N, idx)
        lhs = dn(c, b, star_form(basis, jn_t))
        rhs = star_form(dn(c, b, basis), jn1_t)
        residuals.append(max_coeff_norm(lhs - rhs))
    return worst(residuals)


def check_wedge_star(geom: FrameGeometry, b: Braiding,
                     seed: int = 42, samples: int = 8) -> float:
    """Residual of the sign rule for the star of wedge products.

    Two routes are compared: the tensor identity that the star of a
    projected 2-form equals minus its reversed projection, and the field
    identity (df dg)* = -dg* df* on seeded random elements.  Returns the
    max of both residuals.
    """
    p_t = geom.P
    j = build_J(b.S)
    lhs = np.einsum('abcd,cdef,efgh->abgh', np.conj(p_t), j, p_t)
    rhs = -np.einsum('baef,efgh->abgh', p_t, p_t)
    tensor_res = float(np.max(np.abs(lhs - rhs)))

    rng = np.random.default_rng(seed)
    j2 = build_jn(b, 2)
    field_res = []
    for _ in range(samples):
        f = rng.uniform(0, 1, (geom.N, geom.N)) + 1j * rng.uniform(0, 1, (geom.N, geom.N))
        g = rng.uniform(0, 1, (geom.N, geom.N)) + 1j * rng.uniform(0, 1, (geom.N, geom.N))
        df = differential0(f, geom)
        dg = differential0(g, geom)
        prod = wedge_project(tensor_product(df, dg), 1, p_t)
        lhs_f = wedge_project(star_form(prod, j2), 1, p_t)
        rhs_f = wedge_project(tensor_product(star_form(dg), star_form(df)), 1, p_t)
        field_res.append(max_coeff_norm(lhs_f + rhs_f))
    return worst([tensor_res, *field_res])


def check_metric_reality(g: np.ndarray, s: np.ndarray) -> float:
    """Residual of S^{ab}_{cd} g^{cd} = (g^{ba})*."""
    g = np.asarray(g, dtype=complex)
    s = getattr(s, "S", s)
    lhs = np.einsum('abcd,cd->ab', np.asarray(s, dtype=complex), g)
    return float(np.max(np.abs(lhs - np.conj(g.T))))
