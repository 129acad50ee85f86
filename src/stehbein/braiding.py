"""The generalized permutation sigma: construction, braid checks, block extension.

Words of adjacent operators follow the convention fixed in ``frametensor``:
a word is a sequence of positions, the rightmost letter acting first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frametensor import (
    FrameTensorField,
    apply_central_at,
    central_as_matrix,
    matrix_as_central,
    max_coeff_norm,
    wedge_project,
    word_tensor,
)


class SingularBraidingError(ValueError):
    """Raised by ``check_fifa``, the one check that inverts S, when S is (near-)singular."""


@dataclass(frozen=True)
class Braiding:
    """sigma(theta^a x theta^b) = S^{ab}_{cd} theta^c x theta^d.

    Only S is stored; a singular S is accepted here and left for the
    checks to judge.
    """

    n: int
    S: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.S, dtype=complex)
        object.__setattr__(self, "S", s)
        if s.shape != (self.n,) * 4:
            raise ValueError(f"S has shape {s.shape}, expected {(self.n,) * 4}")


def make_braiding(s: np.ndarray) -> Braiding:
    s = np.asarray(s, dtype=complex)
    return Braiding(n=s.shape[0], S=s)


def sigma_from_tau(t: np.ndarray, p: np.ndarray) -> Braiding:
    """S^{ab}_{cd} = T^{ab}_{ef} (delta - P)^{ef}_{cd} - delta^a_c delta^b_d.

    Any tau yields a sigma satisfying pi o (sigma + 1) = 0 when P is a
    projector.
    """
    t = np.asarray(t, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if t.shape != p.shape or t.ndim != 4:
        raise ValueError(f"shape mismatch: tau {t.shape}, P {p.shape}")
    n = t.shape[0]
    eye = np.eye(n * n)
    sm = central_as_matrix(t) @ (eye - central_as_matrix(p)) - eye
    return make_braiding(matrix_as_central(sm, n))


def check_sigma_consistency(s, p: np.ndarray) -> float:
    """Max entry of (S + delta) o P; zero iff torsion can be right-linear."""
    s = getattr(s, "S", s)
    sm = central_as_matrix(np.asarray(s, dtype=complex))
    pm = central_as_matrix(np.asarray(p, dtype=complex))
    return float(np.max(np.abs((sm + np.eye(sm.shape[0])) @ pm)))


def sigma_unitarity_residual(s: np.ndarray) -> float:
    """Max entry of (S^{ba}_{cd})* S^{dc}_{ef} - delta^a_e delta^b_f."""
    s = np.asarray(s)
    lhs = np.einsum('bacd,dcef->abef', np.conj(s), s)
    n = s.shape[0]
    eye2 = np.einsum('ae,bf->abef', np.eye(n), np.eye(n))
    return float(np.max(np.abs(lhs - eye2)))


def apply_sigma_at(t: FrameTensorField, b: Braiding, pos: int) -> FrameTensorField:
    return apply_central_at(t, b.S, pos)


def apply_word(t: FrameTensorField, b: Braiding, letters) -> FrameTensorField:
    for letter in reversed(tuple(letters)):
        t = apply_sigma_at(t, b, letter)
    return t


def check_braid(b: Braiding) -> float:
    """Max-entry difference of sigma_12 sigma_23 sigma_12 and sigma_23 sigma_12 sigma_23."""
    lhs = word_tensor(b.S, 3, [1, 2, 1])
    rhs = word_tensor(b.S, 3, [2, 1, 2])
    return float(np.max(np.abs(lhs - rhs)))


def check_yang_baxter(j: np.ndarray) -> float:
    """Max-entry difference of the two triple compositions of a rank-4 tensor:

    J^{ab}_{pq} J^{pc}_{dr} J^{qr}_{ef}  vs  J^{bc}_{pq} J^{aq}_{rf} J^{rp}_{de}.
    """
    j = np.asarray(j, dtype=complex)
    lhs = np.einsum('abpq,pcdr,qref->abcdef', j, j, j)
    rhs = np.einsum('bcpq,aqrf,rpde->abcdef', j, j, j)
    return float(np.max(np.abs(lhs - rhs)))


def block_word(p: int, k: int, offset: int = 0) -> tuple[int, ...]:
    """Word moving a p-block past the following k-block, rightmost letter first.

    Built from the two splitting rules
      sigma((xi x eta) x zeta) = sigma_12 sigma_23,
      sigma(xi x (eta x zeta)) = sigma_23 sigma_12,
    applied until both blocks are single strands.
    """
    if p < 1 or k < 1:
        raise ValueError("block sizes must be >= 1")
    if p == 1 and k == 1:
        return (offset + 1,)
    if p > 1:
        return block_word(1, k, offset) + block_word(p - 1, k, offset + 1)
    return block_word(1, k - 1, offset + 1) + (offset + 1,)


def block_word_alt(p: int, k: int, offset: int = 0) -> tuple[int, ...]:
    """Same map via the opposite bracketing; equal to block_word under the braid equation."""
    if p < 1 or k < 1:
        raise ValueError("block sizes must be >= 1")
    if p == 1 and k == 1:
        return (offset + 1,)
    if k > 1:
        return block_word_alt(p, 1, offset + k - 1) + block_word_alt(p, k - 1, offset)
    return block_word_alt(p - 1, 1, offset) + block_word_alt(1, 1, offset + p - 1)


@dataclass(frozen=True)
class BlockSigma:
    """The braiding of a leading p-block past a trailing k-block."""

    braiding: Braiding
    p: int
    k: int
    word: tuple[int, ...]

    def __call__(self, t: FrameTensorField) -> FrameTensorField:
        if t.degree != self.p + self.k:
            raise ValueError(f"field of degree {t.degree} is not degree {self.p + self.k}")
        return apply_word(t, self.braiding, self.word)


def extend_sigma_block(b: Braiding, p: int, k: int) -> BlockSigma:
    return BlockSigma(b, p, k, block_word(p, k))


@dataclass(frozen=True)
class WedgeSigma:
    """sigma extended across a wedge factor, e.g. 2-form x 1-form -> 1-form x 2-form."""

    braiding: Braiding
    p_tensor: np.ndarray
    word: tuple[int, ...]
    input_pair: int
    output_pair: int

    def __call__(self, t: FrameTensorField, tol: float = 1e-8) -> FrameTensorField:
        if t.degree != 3:
            raise ValueError(f"expected a degree-3 field, got {t.degree}")
        projected = apply_central_at(t, self.p_tensor, self.input_pair)
        if max_coeff_norm(projected - t) > tol:
            raise ValueError(
                f"input is not projector-invariant on pair ({self.input_pair}, {self.input_pair + 1})")
        out = apply_word(t, self.braiding, self.word)
        return wedge_project(out, self.output_pair, self.p_tensor)


def sigma_on_wedge(b: Braiding, p_tensor: np.ndarray, side: str) -> WedgeSigma:
    """Extension of sigma to a wedge factor.

    ``side='left'`` maps 2-form x 1-form to 1-form x 2-form
    (project pair (2,3) after braiding the 2-block past the last strand);
    ``side='right'`` maps 1-form x 2-form to 2-form x 1-form.
    """
    if side == "left":
        return WedgeSigma(b, np.asarray(p_tensor, complex), block_word(2, 1), 1, 2)
    if side == "right":
        return WedgeSigma(b, np.asarray(p_tensor, complex), block_word(1, 2), 2, 1)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")
