"""The benchmark's workloads: seeded input generation and recorded verdicts.

Each workload is one input file plus the ``verify`` arguments a user would
pass.  The inputs are built here from the benchmark seed; ``stehbein``
receives only the written file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stehbein.braiding import make_braiding
from stehbein.calculus import FrameGeometry
from stehbein.connection import solve_torsionfree_chi
from stehbein.fixtures import build_fixture, levi_civita, random_phase_twist
from stehbein.frametensor import antisymmetrizer_central, flip_central
from stehbein.io import braiding_to_dict, geometry_to_dict, save_json


@dataclass(frozen=True)
class Workload:
    name: str
    max_order: int
    why: str
    # how strongly its operation time follows the interpreter's speed, which
    # run.scale corrects for: 1 if it is interpreter-bound throughout
    speed_exponent: float


WORKLOADS = {
    w.name: w for w in (
        Workload("su2-o4", 4,
                 "the su2-torsion-free fixture users run: time goes into per-call "
                 "overhead of the dn-lemma and dn-reality basis-monomial loops", 1.0),
        Workload("su2-wide", 2,
                 "spin-15/2 su(2) frame with N=16 at order 2: the same checks, but time goes "
                 "into matrix FLOPs and any batching allocates (n^p, n^(p+1), N, N) tensors",
                 1.0),
        Workload("braid-o5", 5,
                 "braiding-only phase twist with n=4: fifa krons and j_n words, "
                 "calculus and connection never run, so D_n work is bypassed",
                 # bound by memory and BLAS in part: measured on the reference
                 # machine, its time moved about half as much as the gauge's
                 0.5),
    )
}

SPIN_WIDE = 7.5  # spin of the su2-wide frame: N = 2j + 1 = 16
BRAID_FRAME_DIM = 4


def spin_generators(j: float) -> np.ndarray:
    """The frame lam_a = -i J_a of the spin-j irrep of su(2), shape (3, N, N).

    The basis is |m>, m = j, j-1, ..., -j, so [lam_1, lam_2] = lam_3
    cyclically, as for the Pauli frame lam_a = -(i/2) Pauli_a at j = 1/2.
    """
    dim = int(round(2 * j)) + 1
    if dim < 2 or abs(dim - (2 * j + 1)) > 1e-12:
        raise ValueError(f"spin {j} is not a positive half-integer")
    m = j - np.arange(dim)
    # J_+ |m> = sqrt(j(j+1) - m(m+1)) |m+1>; |m+1> sits one row up
    j_plus = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), k=1).astype(complex)
    j_minus = j_plus.conj().T
    jx = (j_plus + j_minus) / 2
    jy = (j_plus - j_minus) / 2j
    jz = np.diag(m).astype(complex)
    return -1j * np.array([jx, jy, jz])


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def spin_frame_geometry(j: float, rng: np.random.Generator | None = None) -> FrameGeometry:
    """The spin-j frame with F = eps, K = 0, antisymmetric P, flip S, metric delta
    and the torsion-free central chi; conjugated by a Haar unitary when ``rng``
    is given, which changes every coefficient but no identity."""
    lam = spin_generators(j)
    if rng is not None:
        u = haar_unitary(rng, lam.shape[-1])
        lam = u @ lam @ u.conj().T
    n = 3
    base = FrameGeometry(
        N=lam.shape[-1], n=n, lam=lam,
        P=antisymmetrizer_central(n), S=flip_central(n),
        F=levi_civita().astype(complex), K=np.zeros((n, n), dtype=complex),
        g=np.eye(n, dtype=complex))
    chi = solve_torsionfree_chi(base, make_braiding(base.S))
    return FrameGeometry(N=base.N, n=n, lam=base.lam, P=base.P, S=base.S,
                         F=base.F, K=base.K, g=base.g, chi=chi)


def input_document(name: str, seed: int) -> dict:
    """The JSON document of workload ``name`` for ``seed``."""
    rng = np.random.default_rng([seed, 0x5eb])
    if name == "su2-o4":
        # the fixture is exact and fixed; the seed enters through --seed only
        return geometry_to_dict(build_fixture("su2-torsion-free")[1])
    if name == "su2-wide":
        return geometry_to_dict(spin_frame_geometry(SPIN_WIDE, rng))
    if name == "braid-o5":
        braid, p = random_phase_twist(int(rng.integers(2 ** 31)), BRAID_FRAME_DIM)
        return braiding_to_dict(braid, p)
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")


def write_input(name: str, seed: int, directory: Path) -> tuple[Path, str]:
    """Write the workload input and return its path and sha256."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}-seed{seed}.json"
    save_json(input_document(name, seed), path)
    return path, hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# recorded verdicts: check names in report order, with the expected status

_FIXED_CHECKS = (
    "structure", "theta-squared", "d-squared", "sigma-consistency", "braid",
    "yang-baxter", "sigma-unitarity", "leibniz-left", "leibniz-right", "torsion",
    "metric-symmetry", "metric-compat-first", "metric-compat-second",
    "metric-reality", "connection-reality", "wedge-star", "d2-reality-strong",
    "d2-reality-coeffs", "d2-reality-braided", "d2-reality-triangle",
)
# the checks a braiding-only input can evaluate; everything else is skipped
_BRAIDING_CHECKS = ("sigma-consistency", "braid", "yang-baxter", "sigma-unitarity",
                    "jn-involutive", "fifa")


def check_names(max_order: int) -> list[str]:
    orders = range(2, max_order + 1)
    return (list(_FIXED_CHECKS)
            + [f"jn-involutive-{o}" for o in orders]
            + [f"fifa-{o}" for o in orders]
            + [f"dn-sigma-lemma-{o}" for o in orders]
            + [f"dn-reality-{o}" for o in range(1, max_order + 1)]
            + ["i-weak-yang-baxter"])


def expected_verdicts(name: str) -> list[tuple[str, str]]:
    """(check, status) pairs in report order for workload ``name``.

    The su2 frames pass every check except the always-skipped weak
    Yang-Baxter row; the phase twist passes its braiding checks and skips
    the rest.
    """
    w = WORKLOADS[name]
    out = []
    for check in check_names(w.max_order):
        if check == "i-weak-yang-baxter":
            status = "skipped"
        elif name == "braid-o5":
            family = check.rstrip("0123456789").rstrip("-")
            status = "pass" if family in _BRAIDING_CHECKS else "skipped"
        else:
            status = "pass"
        out.append((check, status))
    return out
