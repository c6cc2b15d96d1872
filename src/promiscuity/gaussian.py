"""Covariance-matrix toolkit for Gaussian states of N bosonic modes.

Conventions
-----------
* Quadratures are ordered qqpp: X = (q_1, ..., q_N, p_1, ..., p_N).
* The vacuum covariance matrix is the identity, i.e. vacuum quadrature
  variance is 1.  Conventions with vacuum variance 1/2 differ from ours
  by a global factor of 2.
* The symplectic form is Omega = [[0, I], [-I, 0]].
* A covariance matrix sigma is physical iff sigma + i*Omega >= 0, and it
  describes a pure state iff every symplectic eigenvalue equals 1.
* Logarithmic negativity uses the natural logarithm, so a two-mode
  squeezed vacuum with squeezing r has log-negativity exactly 2r.

All mode indices in this module are 0-based.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

SYMMETRY_TOL = 1e-10
SYMPLECTIC_TOL = 1e-10
PHYSICALITY_TOL = 1e-9
SEPARABILITY_TOL = 1e-9


def _as_square_float_array(data, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape != (dim, dim):
        raise ValueError(f"{what} must have shape {(dim, dim)}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric 2N x 2N covariance matrix in qqpp ordering.

    The constructor validates shape, finiteness and symmetry (within
    SYMMETRY_TOL) and stores an exactly symmetrized copy.  Physicality is
    deliberately not enforced here: partial transposition produces valid
    instances that violate the uncertainty bound, which is precisely the
    signal the entanglement tests read off.
    """

    n_modes: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError("n_modes must be a positive integer")
        arr = _as_square_float_array(self.data, 2 * self.n_modes, "covariance matrix")
        defect = float(np.abs(arr - arr.T).max())
        if defect > SYMMETRY_TOL:
            raise ValueError(f"covariance matrix asymmetric beyond tolerance: {defect:.3e}")
        arr = (arr + arr.T) / 2.0
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        return 2 * self.n_modes

    def spectral_noise_floor(self) -> float:
        """Resolution limit of float64 spectral predicates on this matrix.

        Backward-stable dense eigensolvers place eigenvalues to within
        ~c*n*eps*norm(sigma); entries near e^10 (deep squeezing) push that
        past 1e-9, so fixed tolerances must widen with the matrix scale.
        The constant is calibrated against a 50-digit recomputation of the
        worst sampled case, which pins the true spectrum two decades below
        the float64 result.
        """
        return 2e-13 * self.dim * float(np.abs(self.data).max())

    def is_pure(self, tol: float = PHYSICALITY_TOL) -> bool:
        band = max(tol, self.spectral_noise_floor())
        return bool(np.abs(symplectic_eigenvalues(self) - 1.0).max() <= band)


@dataclass(frozen=True)
class SymplecticTransform:
    """Linear symplectic transform S acting on covariance matrices by congruence.

    Validates S Omega S^T = Omega within SYMPLECTIC_TOL.
    """

    n_modes: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError("n_modes must be a positive integer")
        arr = _as_square_float_array(self.data, 2 * self.n_modes, "symplectic matrix")
        omega = symplectic_form(self.n_modes)
        defect = float(np.abs(arr @ omega @ arr.T - omega).max())
        if defect > SYMPLECTIC_TOL:
            raise ValueError(f"matrix is not symplectic: defect {defect:.3e}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)


@dataclass(frozen=True)
class ModePartition:
    """Bipartition of a set of modes into two disjoint non-empty sides."""

    side_a: frozenset[int]
    side_b: frozenset[int]

    def __post_init__(self) -> None:
        a, b = frozenset(self.side_a), frozenset(self.side_b)
        object.__setattr__(self, "side_a", a)
        object.__setattr__(self, "side_b", b)
        if not a or not b:
            raise ValueError("both sides of a partition must be non-empty")
        if a & b:
            raise ValueError(f"partition sides overlap: {sorted(a & b)}")
        if any(m < 0 for m in a | b):
            raise ValueError("mode indices must be non-negative")

    @property
    def modes(self) -> frozenset[int]:
        return self.side_a | self.side_b

    def swapped(self) -> "ModePartition":
        return ModePartition(self.side_b, self.side_a)

    def validate_for(self, sigma: CovarianceMatrix) -> None:
        out = [m for m in self.modes if m >= sigma.n_modes]
        if out:
            raise ValueError(f"partition references modes {sorted(out)} outside 0..{sigma.n_modes - 1}")


def symplectic_form(n_modes: int) -> np.ndarray:
    """Omega = [[0, I], [-I, 0]] for the qqpp ordering."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    omega[:n_modes, n_modes:] = np.eye(n_modes)
    omega[n_modes:, :n_modes] = -np.eye(n_modes)
    return omega


def vacuum_cm(n_modes: int) -> CovarianceMatrix:
    """Covariance matrix of the N-mode vacuum (the identity)."""
    return CovarianceMatrix(n_modes, np.eye(2 * n_modes))


def two_mode_squeezer(i: int, j: int, r: float, n_modes: int) -> SymplecticTransform:
    """Two-mode squeezing transform on modes i and j embedded in N modes.

    The q-block of the active pair is [[cosh r, sinh r], [sinh r, cosh r]]
    and the p-block is [[cosh r, -sinh r], [-sinh r, cosh r]]; all other
    modes are untouched.  Symmetric in (i, j), and r = 0 gives the identity.

    Parameters
    ----------
    i, j : int
        Distinct 0-based mode indices in range(n_modes).
    r : float
        Squeezing degree, any finite real.
    n_modes : int
        Total number of modes of the embedding transform.
    """
    if not (0 <= i < n_modes and 0 <= j < n_modes):
        raise ValueError(f"mode indices ({i}, {j}) out of range for {n_modes} modes")
    if i == j:
        raise ValueError("two-mode squeezer needs two distinct modes")
    if not math.isfinite(r):
        raise ValueError("squeezing degree must be finite")
    c, sh = math.cosh(r), math.sinh(r)
    mat = np.eye(2 * n_modes)
    for x, y, sign in ((i, j, 1.0), (n_modes + i, n_modes + j, -1.0)):
        mat[x, x] = c
        mat[y, y] = c
        mat[x, y] = sign * sh
        mat[y, x] = sign * sh
    return SymplecticTransform(n_modes, mat)


def compose(*transforms: SymplecticTransform) -> SymplecticTransform:
    """Matrix product of symplectic transforms, rightmost applied first."""
    if not transforms:
        raise ValueError("compose needs at least one transform")
    n = transforms[0].n_modes
    if any(t.n_modes != n for t in transforms):
        raise ValueError("cannot compose transforms on different mode counts")
    total = transforms[0].data
    for t in transforms[1:]:
        total = total @ t.data
    return SymplecticTransform(n, total)


def apply(transform: SymplecticTransform, sigma: CovarianceMatrix) -> CovarianceMatrix:
    """Congruence action sigma -> S sigma S^T."""
    if transform.n_modes != sigma.n_modes:
        raise ValueError(
            f"transform acts on {transform.n_modes} modes, state has {sigma.n_modes}"
        )
    return CovarianceMatrix(sigma.n_modes, transform.data @ sigma.data @ transform.data.T)


def reduce(sigma: CovarianceMatrix, modes: Iterable[int]) -> CovarianceMatrix:
    """Reduced covariance matrix of a subset of modes (partial trace).

    Keeps the q and p rows/columns of the requested modes, preserving qqpp
    ordering; kept modes are reindexed 0..k-1 in ascending original order.
    """
    kept = sorted(set(modes))
    if not kept:
        raise ValueError("cannot reduce to an empty set of modes")
    if kept[0] < 0 or kept[-1] >= sigma.n_modes:
        raise ValueError(f"modes {kept} out of range for {sigma.n_modes}-mode state")
    idx = kept + [sigma.n_modes + m for m in kept]
    return CovarianceMatrix(len(kept), sigma.data[np.ix_(idx, idx)])


def partial_transpose(sigma: CovarianceMatrix, partition: ModePartition) -> CovarianceMatrix:
    """Partial transpose of sigma across a partition.

    Modes not covered by the partition are reduced away first.  On the
    remaining matrix the operation flips the sign of every p-row and
    p-column belonging to side_b, which is exact (no arithmetic beyond
    sign changes), hence involutive on full covers.
    """
    partition.validate_for(sigma)
    kept = sorted(partition.modes)
    sub = sigma if len(kept) == sigma.n_modes else reduce(sigma, kept)
    new_index = {m: k for k, m in enumerate(kept)}
    signs = np.ones(2 * sub.n_modes)
    for m in partition.side_b:
        signs[sub.n_modes + new_index[m]] = -1.0
    return CovarianceMatrix(sub.n_modes, sub.data * np.outer(signs, signs))


def symplectic_eigenvalues(sigma: CovarianceMatrix) -> np.ndarray:
    """Symplectic spectrum of sigma, ascending.

    The eigenvalues of i*Omega*sigma come in pairs +/-nu_k.  For positive
    definite sigma = L L^T they are computed from the Hermitian matrix
    i*L^T*Omega*L, which shares the spectrum of i*Omega*sigma (AB and BA
    have equal nonzero spectra) but is solvable by a backward-stable
    symmetric eigensolver with error ~ norm(sigma)*eps; both the general
    nonsymmetric solver and an explicit matrix square root lose several
    digits at deep squeezing.  Indefinite (unphysical) input falls back
    to the general route: moduli of the spectrum of Omega @ sigma,
    pair-collapsed.
    """
    omega = symplectic_form(sigma.n_modes)
    try:
        chol = np.linalg.cholesky(sigma.data)
    except np.linalg.LinAlgError:
        moduli = np.abs(np.linalg.eigvals(omega @ sigma.data))
        moduli.sort()
        return moduli.reshape(sigma.n_modes, 2).mean(axis=1)
    herm = 1j * (chol.T @ omega @ chol)
    spectrum = np.linalg.eigvalsh(herm)
    # the +/- pairing is exact in math; averaging each half cancels the
    # antisymmetric part of the solver noise
    nu = 0.5 * (spectrum[sigma.n_modes :] - spectrum[: sigma.n_modes][::-1])
    return np.sort(nu)


def log_negativity(sigma: CovarianceMatrix, partition: ModePartition) -> float:
    """Logarithmic negativity across a partition, in natural-log units.

    -sum(ln nu_k) over the partially transposed symplectic eigenvalues
    below 1; zero when the partial transpose is physical.  Symmetric under
    swapping the two sides.

    Pure states take an equivalent better-conditioned route: their Schmidt
    form is a tensor product of two-mode squeezed pairs across the cut, so
    the partially transposed spectrum is {e^(+/-2r_k)} with cosh(2r_k) the
    reduced-state symplectic spectrum, giving sum(arccosh nu_k) over the
    smaller side.  The direct route loses ~1e-7 at deep squeezing because
    the smallest PT eigenvalue sits far below the matrix norm.
    """
    partition.validate_for(sigma)
    if sigma.is_pure():
        side = min(partition.side_a, partition.side_b, key=len)
        reduced = reduce(sigma, side)
        nu = symplectic_eigenvalues(reduced)
        # arccosh is infinitely steep at 1: solver noise on unsqueezed
        # directions would surface as sqrt(noise), so values within the
        # reduced block's own spectral resolution of 1 count as exactly 1;
        # genuine squeezing above that floor stays resolvable
        nu = np.where(nu <= 1.0 + reduced.spectral_noise_floor(), 1.0, nu)
        return float(np.arccosh(nu).sum())
    nu = symplectic_eigenvalues(partial_transpose(sigma, partition))
    below = nu[nu < 1.0]
    if below.size == 0:
        return 0.0
    return max(0.0, float(-np.log(below).sum()))


def permute_modes(sigma: CovarianceMatrix, order: Iterable[int]) -> CovarianceMatrix:
    """Reorder modes: new mode k is old mode order[k]."""
    perm = list(order)
    if sorted(perm) != list(range(sigma.n_modes)):
        raise ValueError(f"order {perm} is not a permutation of 0..{sigma.n_modes - 1}")
    idx = perm + [sigma.n_modes + m for m in perm]
    return CovarianceMatrix(sigma.n_modes, sigma.data[np.ix_(idx, idx)])
