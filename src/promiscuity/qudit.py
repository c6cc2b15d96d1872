"""GHZ/W qudit families and their entanglement sharing identities.

The family parameter d = 2N (N even, so d is a positive multiple of 4)
labels a three-party pure state assembled from N three-qubit copies:
N/2 GHZ copies and N/2 W copies.  Qubit k of every copy belongs to
party k, so each party ends up holding N qubits (a 2^N-dimensional
system); d is the family's own size label, not the party dimension.

Tangles compose additively over copies, which lets every report be
computed from per-copy brute force on 8-dimensional vectors and then
assembled in exact rational arithmetic.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
NORM_TOL = 1e-12
RATIONAL_SNAP_TOL = 1e-10


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


@dataclass(frozen=True)
class QuditTangleReport:
    """Tangle statistics of the d-family member, exact where exactness holds.

    The three rational tangles and the monogamy gap come from per-copy
    brute force snapped to exact fractions and composed additively;
    nongaussianity is a float and squashed holds the squashed bounds.
    """

    d: int
    three_tangle: Fraction
    pairwise_tangle: Fraction
    one_vs_rest_tangle: Fraction
    monogamy_gap: Fraction
    nongaussianity: float
    squashed: SquashedBounds


@dataclass(frozen=True)
class SquashedBounds:
    """Squashed-entanglement bookkeeping for the d-family member.

    The pairwise bound is only known in the form omega * d / 4 with
    omega > 0; pairwise_witness is the computed negativity of the
    two-qubit W reduction certifying the strict positivity.
    """

    one_vs_rest: float
    tripartite_lower: Fraction
    pairwise_form: str
    pairwise_witness: float


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


def _validate_d(d) -> int:
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"d must be an integer, got {d!r}")
    if d < 4 or d % 4 != 0:
        raise ValueError(
            f"d must be a positive multiple of 4 (d = 2N with N even), got {d}"
        )
    try:
        float(d)  # every float field of a report is at most d
    except OverflowError:
        raise OverflowError(
            f"d must not exceed the float64 limit {sys.float_info.max!r}, got d >= 2**{d.bit_length() - 1}"
        ) from None
    return d


def n_copies(d: int) -> tuple[int, int]:
    """(GHZ copies, W copies) making up the d-family member: (d/4, d/4)."""
    d = _validate_d(d)
    return d // 4, d // 4


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


def _snap_fraction(value: float, what: str) -> Fraction:
    # per-copy brute force is trusted only if it lands on the exact rational
    snapped = Fraction(value).limit_denominator(36)
    if abs(value - float(snapped)) > RATIONAL_SNAP_TOL:
        raise ArithmeticError(f"{what} = {value!r} does not snap to a small rational")
    return snapped


def _per_copy_tangles(psi: PureStateVector) -> tuple[Fraction, Fraction, Fraction]:
    """(one-vs-rest, pairwise, three-tangle) of one three-qubit copy.

    Brute-force density-matrix computation snapped to exact rationals;
    the three-tangle is the sharing residual tau_{0|12} - tau_{01} - tau_{02}.
    """
    one_rest = _snap_fraction(one_vs_rest_tangle_qubit(psi, 0), "one-vs-rest tangle")
    pair_01 = _snap_fraction(concurrence(reduced_density(psi, [0, 1])) ** 2, "pair tangle")
    pair_02 = _snap_fraction(concurrence(reduced_density(psi, [0, 2])) ** 2, "pair tangle")
    return one_rest, pair_01, one_rest - pair_01 - pair_02


@functools.cache
def _per_copy_ingredients() -> tuple:
    # independent of d: the GHZ and W per-copy tangles, and the entropy of
    # a W one-qubit reduction and negativity of its two-qubit reduction
    w = w3()
    one, two = reduced_density(w, [0]), reduced_density(w, [0, 1])
    return _per_copy_tangles(ghz3()), _per_copy_tangles(w), vn_entropy(one), negativity(two, 2, 2)


def nongaussianity(d: int) -> float:
    """Trace-distance-squared gap to the closest Gaussian-reachable state.

    1/2 + 2^(-3d/4 - 1) 3^(-d/4) - 2^(d/2) 3^(-3d/2) 7^(d/4), which with
    q = d/4 is 1/2 + (1/2)(1/24)^q - (28/729)^q; about 0.4824 at d = 4
    and converging to 1/2 as d grows.  Both powers have bases below 1, so
    they underflow to 0 for large d instead of overflowing.  The formula
    is quoted, not derived: the package neither builds the closest
    Gaussian-reachable state nor computes the distance by a second route.
    """
    q = _validate_d(d) // 4
    return 0.5 + 0.5 * (1 / 24) ** q - (28 / 729) ** q


def squashed_bounds(d: int) -> SquashedBounds:
    """Squashed-entanglement bounds composed from per-copy ingredients.

    one_vs_rest = (d/4)(1 + H) with H the brute-forced entropy of a W
    one-qubit reduction; the tripartite lower bound is exactly d/4 (one
    unit per GHZ copy); the pairwise bound keeps the symbolic form
    omega*d/4 with omega certified positive by the negativity of the
    two-qubit W reduction.
    """
    d = _validate_d(d)
    w_qubit_entropy, witness = _per_copy_ingredients()[2:]
    if witness <= 0.0:
        raise ArithmeticError("two-qubit W reduction lost its negativity witness")
    return SquashedBounds(
        one_vs_rest=(d / 4.0) * (1.0 + w_qubit_entropy),
        tripartite_lower=Fraction(d, 4),
        pairwise_form="omega*d/4",
        pairwise_witness=witness,
    )


def tangle_report(d: int) -> QuditTangleReport:
    """Tangle statistics of the d-family member.

    Per-copy values are brute-forced once on the 8-dimensional GHZ and W
    vectors, snapped to exact rationals, and composed additively over the
    d/4 + d/4 copies.  The monogamy gap
    one_vs_rest - 2 * pairwise - three_tangle is exactly zero.
    """
    d = _validate_d(d)
    ghz_copies, w_copies = n_copies(d)
    (ghz_rest, ghz_pair, ghz_three), (w_rest, w_pair, w_three), *_ = _per_copy_ingredients()

    one_vs_rest = ghz_copies * ghz_rest + w_copies * w_rest
    pairwise = ghz_copies * ghz_pair + w_copies * w_pair
    three = ghz_copies * ghz_three + w_copies * w_three
    return QuditTangleReport(
        d=d,
        three_tangle=three,
        pairwise_tangle=pairwise,
        one_vs_rest_tangle=one_vs_rest,
        monogamy_gap=one_vs_rest - 2 * pairwise - three,
        nongaussianity=nongaussianity(d),
        squashed=squashed_bounds(d),
    )
