"""The generalized permutation sigma: construction and braid checks.

Words of adjacent operators follow the convention fixed in ``frametensor``:
a word is a sequence of positions, the rightmost letter acting first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frametensor import (FrameTensorField, _as_complex, _read_only, apply_central_at,
                          central_as_matrix, max_entry, word_tensor)


class SingularBraidingError(ValueError):
    """Raised by ``check_fifa``, the one check that inverts S, when S is (near-)singular."""


# eq=False: array fields have no truth value, so equality and hashing are by identity
@dataclass(frozen=True, eq=False)
class Braiding:
    """sigma(theta^a x theta^b) = S^{ab}_{cd} theta^c x theta^d.

    Only S is stored, as a read-only copy; a singular S is accepted here
    and left for the checks to judge.
    """

    n: int
    S: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "S", _read_only(self.S, "S", (self.n,) * 4))


def make_braiding(s: np.ndarray) -> Braiding:
    return Braiding(n=np.shape(s)[0], S=s)


def sigma_from_tau(t: np.ndarray, p: np.ndarray) -> Braiding:
    """S^{ab}_{cd} = T^{ab}_{ef} (delta - P)^{ef}_{cd} - delta^a_c delta^b_d.

    Any tau yields a sigma satisfying pi o (sigma + 1) = 0 when P is a
    projector.
    """
    t, p = _as_complex(t), _as_complex(p)
    if t.shape != p.shape or t.ndim != 4:
        raise ValueError(f"shape mismatch: tau {t.shape}, P {p.shape}")
    n = t.shape[0]
    eye = np.eye(n * n)
    sm = central_as_matrix(t) @ (eye - central_as_matrix(p)) - eye
    return make_braiding(sm.reshape(t.shape))


def check_sigma_consistency(b: Braiding, p: np.ndarray) -> float:
    """Max entry of (S + delta) o P; zero iff torsion can be right-linear."""
    sm = central_as_matrix(b.S)
    pm = central_as_matrix(p)
    return max_entry((sm + np.eye(sm.shape[0])) @ pm)


def apply_word(t: FrameTensorField, b: Braiding, letters) -> FrameTensorField:
    for letter in reversed(tuple(letters)):
        t = apply_central_at(t, b.S, letter)
    return t


def check_braid(b: Braiding) -> float:
    """Max-entry difference of sigma_12 sigma_23 sigma_12 and sigma_23 sigma_12 sigma_23."""
    lhs = word_tensor(b.S, 3, [1, 2, 1])
    rhs = word_tensor(b.S, 3, [2, 1, 2])
    return max_entry(lhs - rhs)


def check_yang_baxter(j: np.ndarray) -> float:
    """Max-entry difference of the two triple compositions of a rank-4 tensor:

    J^{ab}_{pq} J^{pc}_{dr} J^{qr}_{ef}  vs  J^{bc}_{pq} J^{aq}_{rf} J^{rp}_{de}.

    Each side is contracted pairwise (``optimize=True``): two BLAS products of
    n^7 and n^8 multiply-adds, where a three-operand einsum is one nested loop of
    n^9 triple products.
    """
    j = _as_complex(j)
    lhs = np.einsum('abpq,pcdr,qref->abcdef', j, j, j, optimize=True)
    rhs = np.einsum('bcpq,aqrf,rpde->abcdef', j, j, j, optimize=True)
    return max_entry(lhs - rhs)
