import dataclasses

import numpy as np
import pytest

from stehbein import (
    identity_central,
    make_braiding,
    phase_twist_braiding,
    su2_braiding,
    su2_flip_geometry,
    su2_torsionfree_connection,
)

# lam_a = -(i/2) Pauli_a, written out so the tests do not depend on the fixtures
LAM1 = np.array([[0, -0.5j], [-0.5j, 0]])
LAM2 = np.array([[0, -0.5], [0.5, 0]], dtype=complex)
LAM3 = np.array([[-0.5j, 0], [0, 0.5j]])
LAM = np.array([LAM1, LAM2, LAM3])


def levi_civita3() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[a, b, c] = 1.0
        eps[a, c, b] = -1.0
    return eps


# ---------------------------------------------------------------------------
# Kronecker reference forms of the lifted operators


def lift_central(m: np.ndarray, strands: int, pos: int) -> np.ndarray:
    """Embed a rank-4 tensor acting at pair (pos, pos+1) into `strands` slots."""
    n = m.shape[0]
    if not 1 <= pos <= strands - 1:
        raise ValueError(f"position {pos} out of range for {strands} strands")
    mat = np.kron(np.kron(np.eye(n ** (pos - 1)), m.reshape(n * n, n * n)),
                  np.eye(n ** (strands - pos - 1)))
    return mat.reshape((n,) * (2 * strands))


def reversal_central(n: int, strands: int) -> np.ndarray:
    """Linear index-reversal delta_{rev(A), B} on `strands` slots."""
    eye = identity_central(n, strands)
    perm = list(range(strands - 1, -1, -1)) + list(range(strands, 2 * strands))
    return np.ascontiguousarray(np.transpose(eye, perm))


@pytest.fixture(scope="session")
def su2_geom():
    return su2_flip_geometry()


@pytest.fixture(scope="session")
def su2_braid():
    return su2_braiding()


@pytest.fixture(scope="session")
def su2_chi_conn():
    return su2_torsionfree_connection()


@pytest.fixture(scope="session")
def pt3():
    """Phase-twist braiding on 3 frame indices with one nontrivial phase."""
    return phase_twist_braiding(3, {(0, 1): np.exp(1j * np.pi / 5)})


@pytest.fixture(scope="session")
def pt3_full():
    """Phase twist with every off-diagonal phase nontrivial."""
    return phase_twist_braiding(
        3, {(0, 1): np.exp(1j * np.pi / 5), (0, 2): np.exp(0.7j), (1, 2): np.exp(-0.3j)})


@pytest.fixture(scope="session")
def pauli_twist_geom():
    """Pauli frame, F = K = 0, with the phase twist whose phases are all -1.

    Its P is the off-diagonal symmetrizer, so it is not antisymmetric in its
    upper pair; the structure, theta^2 and braid residuals are exactly 0.
    """
    braid, p = phase_twist_braiding(3, {(0, 1): -1, (0, 2): -1, (1, 2): -1})
    geom = su2_flip_geometry()
    return dataclasses.replace(geom, P=p, S=braid.S, F=np.zeros((3, 3, 3)))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_matrix(rng, N=2):
    return rng.uniform(0, 1, (N, N)) + 1j * rng.uniform(0, 1, (N, N))
