"""Brute-force three-qubit density-matrix route, the check on the qudit constants.

The qudit family's reports read exact per-copy constants (qudit.py);
this module recomputes them from the 8-dimensional GHZ and W vectors
with numpy: the one-vs-rest tangle 4 det(rho_1), the pair concurrence,
the entropy of a one-qubit reduction and the negativity of a two-qubit
reduction.  States are plain complex arrays: a state vector with the
dimensions of its subsystems, a density matrix as a square matrix.
Only verification and the tests import it, so a qudit report loads no
numpy.
"""
from __future__ import annotations

import math

import numpy as np


def ghz3() -> np.ndarray:
    """(|000> + |111>) / sqrt(2)."""
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = amps[0b111] = 1.0 / math.sqrt(2.0)
    return amps


def w3() -> np.ndarray:
    """(|001> + |010> + |100>) / sqrt(3)."""
    amps = np.zeros(8, dtype=complex)
    amps[0b001] = amps[0b010] = amps[0b100] = 1.0 / math.sqrt(3.0)
    return amps


def reduced_density(psi: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace of |psi><psi| over subsystems of the given dimensions,
    keeping the listed ones in ascending original order."""
    kept = sorted(set(keep))
    tensor = psi.reshape(dims)
    traced = [i for i in range(len(dims)) if i not in kept]
    rho = np.tensordot(tensor, tensor.conj(), axes=(traced, traced))
    dim = math.prod(dims[i] for i in kept)
    return rho.reshape(dim, dim)


def vn_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits."""
    lams = np.linalg.eigvalsh(rho)
    lams = lams[lams > 1e-14]
    return float(-(lams * np.log2(lams)).sum())


_Y_Y = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence via the spin-flip spectrum.

    max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y).
    """
    flipped = rho @ _Y_Y @ rho.conj() @ _Y_Y
    eigs = np.linalg.eigvals(flipped).real
    # abs guards tiny negative noise before the square root
    lams = np.sort(np.sqrt(np.abs(eigs)))[::-1]
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))


def negativity(rho: np.ndarray, dim_a: int, dim_b: int) -> float:
    """Entanglement negativity across the dim_a x dim_b split.

    Trace norm of the partial transpose minus one, i.e. twice the
    magnitude sum of the negative eigenvalues, normalized so a two-qubit
    maximally entangled pair yields 1.
    """
    dim = dim_a * dim_b
    pt = rho.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 3, 2, 1).reshape(dim, dim)
    eigs = np.linalg.eigvalsh(pt)
    return max(0.0, float(np.abs(eigs).sum() - 1.0))


def one_vs_rest_tangle_qubit(psi: np.ndarray, probe: int) -> float:
    """Tangle of one qubit of a three-qubit vector against the rest: 4 det(rho_probe)."""
    rho = reduced_density(psi, (2, 2, 2), [probe])
    return 4.0 * float(np.linalg.det(rho).real)
