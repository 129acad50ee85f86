"""The generalized permutation sigma: construction and braid checks.

Words of adjacent operators follow the convention fixed in ``frametensor``:
a word is a sequence of positions, the rightmost letter acting first.  When mat(S)
is monomial (``_letter_plan``), so is a word's matrix, and ``_word_on_plan`` composes
it as a plan: each column's one row and value.  With J^{ab}_{cd} = S^{ba}_{cd} the
Yang-Baxter residual of J is the braid residual of S, so the yang-baxter row is the
braid identity relabeled (``check_yang_baxter``), not independent evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frametensor import (FrameTensorField, _as_complex, _monomial_plan, _read_only,
                          apply_central_at, central_as_matrix, max_entry, word_tensor)


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
    _star_plans: list = field(default_factory=list, init=False, repr=False)  # involution's J^(k)

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


def _letter_plan(b: Braiding) -> tuple | None:
    """S's ``_monomial_plan``: (source, coefficients), mat(S)[source[y], y] = coefficients[y]."""
    return _monomial_plan(b.S.dtype, b.S.shape, b.S.tobytes())


def _word_on_plan(letter, n: int, strands: int, letters, rows: np.ndarray, values: np.ndarray):
    """The plan of W M, W the word ``letters`` in S's plan ``letter`` and M[rows[c], c] =
    values[c].  Letter i, in the order written, multiplies from the left by mat(S) on
    strands (i, i+1), as ``word_tensor`` composes: a column's entry moves its row's pair y
    to source[y] and takes one multiply by coefficient[y] (none when all are 1)."""
    source, coefficients = letter
    for i in letters:
        weight = n ** (strands - i - 1)
        pair = rows // weight % (n * n)
        rows = rows + (source[pair] - pair) * weight
        if coefficients is not None:
            values = values * coefficients[pair, 0]
    return rows, values


def check_braid(b: Braiding) -> float:
    """Max-entry difference of sigma_12 sigma_23 sigma_12 and sigma_23 sigma_12 sigma_23:
    by ``word_tensor``, or on a monomial S as plans from the identity's, where a column
    holds v1 - v2 if its two rows agree, else v1 and -v2.  With coefficients of 1 and -1
    the plans give ``word_tensor``'s bits; a complex phase rounds as numpy's multiply."""
    plan, words = _letter_plan(b), ((1, 2, 1), (2, 1, 2))
    if plan is None:
        lhs, rhs = (word_tensor(b.S, 3, word) for word in words)
        return max_entry(lhs - rhs)
    identity = np.arange(b.n ** 3), np.ones(b.n ** 3, dtype=b.S.dtype)
    (r1, v1), (r2, v2) = (_word_on_plan(plan, b.n, 3, word, *identity) for word in words)
    return max_entry(np.where(r1 == r2, abs(v1 - v2), np.maximum(abs(v1), abs(v2))))


def check_yang_baxter(j: np.ndarray) -> float:
    """Max-entry difference of J^{ab}_{pq} J^{pc}_{dr} J^{qr}_{ef} and J^{bc}_{pq} J^{aq}_{rf}
    J^{rp}_{de}: minus the braid difference of S^{ab}_{cd} = J^{ba}_{cd} with its upper
    indices a and c swapped, so ``check_braid`` of that S."""
    return check_braid(make_braiding(np.swapaxes(j, 0, 1)))
