"""Brute-force three-qubit density-matrix route, the check on the qudit constants.

The qudit family's reports read exact per-copy constants (qudit.py);
this module recomputes them from the 8-dimensional GHZ and W vectors
with numpy: the one-vs-rest tangle 4 det(rho_1), the pair concurrence,
the entropy of a one-qubit reduction and the negativity of a two-qubit
reduction.  Only verification and the tests import it, so a qudit
report loads no numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
NORM_TOL = 1e-12


@dataclass(frozen=True)
class PureStateVector:
    """Normalized state vector over a tensor product of finite subsystems."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must all be >= 2, got {dims}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        expected = math.prod(dims)
        if amps.shape != (expected,):
            raise ValueError(f"amplitude vector must have length {expected}, got {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector norm deviates from 1 by {abs(norm - 1.0):.3e}")
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    dim: int
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=complex)
        if arr.shape != (self.dim, self.dim):
            raise ValueError(f"density matrix must be {self.dim}x{self.dim}, got {arr.shape}")
        herm = float(np.abs(arr - arr.conj().T).max())
        if herm > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian: defect {herm:.3e}")
        trace_dev = abs(complex(arr.trace()) - 1.0)
        if trace_dev > TRACE_TOL:
            raise ValueError(f"density matrix trace deviates from 1 by {trace_dev:.3e}")
        arr = (arr + arr.conj().T) / 2.0
        min_eig = float(np.linalg.eigvalsh(arr).min())
        if min_eig < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)


def ghz3() -> PureStateVector:
    """(|000> + |111>) / sqrt(2)."""
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = amps[0b111] = 1.0 / math.sqrt(2.0)
    return PureStateVector((2, 2, 2), amps)


def w3() -> PureStateVector:
    """(|001> + |010> + |100>) / sqrt(3)."""
    amps = np.zeros(8, dtype=complex)
    amps[0b001] = amps[0b010] = amps[0b100] = 1.0 / math.sqrt(3.0)
    return PureStateVector((2, 2, 2), amps)


def reduced_density(psi: PureStateVector, keep) -> DensityMatrix:
    """Partial trace of |psi><psi| keeping the listed subsystems.

    Kept subsystems stay in ascending original order.
    """
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("must keep at least one subsystem")
    if kept[0] < 0 or kept[-1] >= psi.n_subsystems:
        raise ValueError(f"keep={kept} out of range for {psi.n_subsystems} subsystems")
    tensor = psi.amplitudes.reshape(psi.dims)
    traced = [i for i in range(psi.n_subsystems) if i not in kept]
    rho = np.tensordot(tensor, tensor.conj(), axes=(traced, traced))
    dim = math.prod(psi.dims[i] for i in kept)
    return DensityMatrix(dim, rho.reshape(dim, dim))


def vn_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits."""
    lams = np.linalg.eigvalsh(rho.data)
    lams = lams[lams > 1e-14]
    return float(-(lams * np.log2(lams)).sum())


_Y_Y = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence via the spin-flip spectrum.

    max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y).
    """
    if rho.dim != 4:
        raise ValueError(f"concurrence is defined for two qubits (dim 4), got dim {rho.dim}")
    flipped = rho.data @ _Y_Y @ rho.data.conj() @ _Y_Y
    eigs = np.linalg.eigvals(flipped).real
    # abs guards tiny negative noise before the square root
    lams = np.sort(np.sqrt(np.abs(eigs)))[::-1]
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))


def negativity(rho: DensityMatrix, dim_a: int, dim_b: int) -> float:
    """Entanglement negativity across the dim_a x dim_b split.

    Trace norm of the partial transpose minus one, i.e. twice the
    magnitude sum of the negative eigenvalues, normalized so a two-qubit
    maximally entangled pair yields 1.
    """
    if dim_a * dim_b != rho.dim:
        raise ValueError(f"split {dim_a}x{dim_b} does not match dimension {rho.dim}")
    pt = (
        rho.data.reshape(dim_a, dim_b, dim_a, dim_b)
        .transpose(0, 3, 2, 1)
        .reshape(rho.dim, rho.dim)
    )
    eigs = np.linalg.eigvalsh(pt)
    return max(0.0, float(np.abs(eigs).sum() - 1.0))


def one_vs_rest_tangle_qubit(psi: PureStateVector, probe: int) -> float:
    """Tangle of a single-qubit probe against the rest: 4 det(rho_probe)."""
    if psi.dims[probe] != 2:
        raise ValueError("probe tangle is defined for qubit subsystems")
    rho = reduced_density(psi, [probe])
    return 4.0 * float(np.linalg.det(rho.data).real)
