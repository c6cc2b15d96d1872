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
* Matrices may be stacked along leading axes.  Every function acts on
  the trailing two axes and gives one numpy value per matrix, shaped
  like the leading axes; a single 2-D matrix is a stack with no leading
  axes.  Each matrix of a stack is computed exactly as it would be
  alone.
* A covariance matrix is validated where its numbers are made: direct
  construction and pure_state.  reduce, reductions, partial_transpose
  and permute_modes are one gather: the q/p rows and columns of a mode
  tuple, or of a stack of equal-length ones, with each block's p rows
  and columns on its transposed side (side_b) negated.  The index
  arrays and +/-1 factors are one cached read-only plan per mode count,
  modes and transposed sides (_plan), which also checks the modes; a
  bad subset raises on every call.  Gathered and sign-flipped entries
  of a validated matrix are exactly symmetric and finite, so the gather
  returns a read-only view (_gather) that skips the check and equals
  what the constructor would store from its data, bit for bit.
* Every state is made as pure_state(S) = S S^T, the vacuum under a
  symplectic transform, and only pure_state flags a matrix pure; views
  of a pure state are unflagged.

All mode indices in this module are 0-based.
"""
from __future__ import annotations

import functools
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
    if arr.shape[-2:] != (dim, dim):
        raise ValueError(f"{what} must have shape {(dim, dim)}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def _check_defect(defect: np.ndarray, tol: float, message: str) -> None:
    # per-matrix defects; the first matrix of the stack beyond tol is reported
    bad = defect > tol
    if bad.any():
        raise ValueError(f"{message} {defect[bad].flat[0]:.3e}")


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric 2N x 2N covariance matrix in qqpp ordering, or a stack of them.

    The constructor validates shape, finiteness and symmetry (within
    SYMMETRY_TOL, for every matrix of a stack) and stores an exactly
    symmetrized copy; input whose symmetrized copy would overflow is
    refused as non-finite.  This is the module's one validation of
    covariance entries (see the module docstring for its views).
    Physicality is deliberately not enforced here:
    partial transposition produces valid instances that violate the
    uncertainty bound, which is precisely the signal the entanglement
    tests read off.

    `pure` records provenance, not a measurement: True promises that
    every matrix of the stack is a pure state.  Only pure_state sets it;
    views and direct construction leave it False.  log_negativity
    accepts only flagged states.  is_pure() is the numerical check,
    which float64 cannot settle at deep squeezing.
    """

    n_modes: int
    data: np.ndarray
    pure: bool = False

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError("n_modes must be a positive integer")
        arr = _as_square_float_array(self.data, 2 * self.n_modes, "covariance matrix")
        # entries past half the float64 range overflow the difference or the
        # sum: no warning is printed, and the overflow ends in a ValueError
        with np.errstate(over="ignore"):
            _check_defect(
                np.abs(arr - arr.swapaxes(-1, -2)).max(axis=(-2, -1)),
                SYMMETRY_TOL,
                "covariance matrix asymmetric beyond tolerance:",
            )
            arr = (arr + arr.swapaxes(-1, -2)) / 2.0
        if not np.isfinite(arr).all():
            raise ValueError("covariance matrix contains non-finite entries")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        return 2 * self.n_modes

    def spectral_noise_floor(self) -> np.ndarray:
        """Resolution limit of float64 spectral predicates on this matrix.

        Backward-stable dense eigensolvers place eigenvalues to within
        ~c*n*eps*norm(sigma); entries near e^10 (deep squeezing) push that
        past 1e-9, so fixed tolerances must widen with the matrix scale.
        The constant is calibrated against a 50-digit recomputation of the
        worst sampled case, which pins the true spectrum two decades below
        the float64 result.
        """
        return 2e-13 * self.dim * np.abs(self.data).max(axis=(-2, -1))

    def is_pure(self) -> np.ndarray:
        """Numerical purity check: every symplectic eigenvalue within max(PHYSICALITY_TOL, noise floor) of 1.

        A check only; no route reads it (see the `pure` field).  At deep
        squeezing the float64 spectrum strays past the band, so a state
        built pure can fail it.
        """
        band = np.maximum(PHYSICALITY_TOL, self.spectral_noise_floor())
        deviation = np.abs(symplectic_eigenvalues(self) - 1.0).max(axis=-1)
        return deviation <= band


@dataclass(frozen=True)
class SymplecticTransform:
    """Linear symplectic transform S; pure_state(S) is the state S S^T it makes from vacuum.

    One matrix or a stack of them, like CovarianceMatrix.  Validates
    S Omega S^T = Omega within SYMPLECTIC_TOL for every matrix.
    """

    n_modes: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError("n_modes must be a positive integer")
        arr = _as_square_float_array(self.data, 2 * self.n_modes, "symplectic matrix")
        omega = symplectic_form(self.n_modes)
        # entries past ~1e154 overflow the product: no warning is printed, and
        # the overflow still ends in a ValueError, here or on the finiteness
        # check of the state the transform produces
        with np.errstate(over="ignore", invalid="ignore"):
            defect = np.abs(arr @ omega @ arr.swapaxes(-1, -2) - omega).max(axis=(-2, -1))
        _check_defect(defect, SYMPLECTIC_TOL, "matrix is not symplectic: defect")
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


@functools.cache
def symplectic_form(n_modes: int) -> np.ndarray:
    """Omega = [[0, I], [-I, 0]] for the qqpp ordering; read-only, built once per N."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    omega[:n_modes, n_modes:] = np.eye(n_modes)
    omega[n_modes:, :n_modes] = -np.eye(n_modes)
    omega.flags.writeable = False
    return omega


def two_mode_squeezer(i: int, j: int, r, n_modes: int) -> SymplecticTransform:
    """Two-mode squeezing transform on modes i and j embedded in N modes.

    The q-block of the active pair is [[cosh r, sinh r], [sinh r, cosh r]]
    and the p-block is [[cosh r, -sinh r], [-sinh r, cosh r]]; all other
    modes are untouched.  Symmetric in (i, j), and r = 0 gives the identity.

    Parameters
    ----------
    i, j : int
        Distinct 0-based mode indices in range(n_modes).
    r : float or array_like of float
        Squeezing degree, any finite real; an array of degrees gives a
        stack of transforms of the same leading shape.
    n_modes : int
        Total number of modes of the embedding transform.
    """
    if not (0 <= i < n_modes and 0 <= j < n_modes):
        raise ValueError(f"mode indices ({i}, {j}) out of range for {n_modes} modes")
    if i == j:
        raise ValueError("two-mode squeezer needs two distinct modes")
    degrees = np.asarray(r, dtype=float)
    if not np.isfinite(degrees).all():
        raise ValueError("squeezing degree must be finite")
    # math.cosh/sinh per degree: libm values, and OverflowError past float64
    flat = degrees.ravel().tolist()
    c = np.array([math.cosh(x) for x in flat]).reshape(degrees.shape)
    sh = np.array([math.sinh(x) for x in flat]).reshape(degrees.shape)
    mat = np.broadcast_to(np.eye(2 * n_modes), degrees.shape + (2 * n_modes, 2 * n_modes)).copy()
    for x, y, sign in ((i, j, 1.0), (n_modes + i, n_modes + j, -1.0)):
        mat[..., x, x] = c
        mat[..., y, y] = c
        mat[..., x, y] = sign * sh
        mat[..., y, x] = sign * sh
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


def pure_state(transform: SymplecticTransform) -> CovarianceMatrix:
    """The state S S^T that S makes from the vacuum, per matrix of a stack; the one setter of `pure`."""
    return CovarianceMatrix(transform.n_modes, transform.data @ transform.data.swapaxes(-1, -2), pure=True)


@functools.cache
def _plan(n_modes: int, modes: tuple, transposed: tuple | None = None, ordered: bool = False) -> tuple:
    # the kept mode count, the q/p row and column indices and the +/-1
    # factors (None if `transposed` is) of the gather of an N-mode matrix
    # onto `modes`, a mode tuple or a tuple of equal-length ones, each
    # block keeping its modes in ascending order, or as given if
    # `ordered`.  The factors negate each block's p rows and columns of
    # its `transposed` modes, except where both are.  The cache keeps no
    # exceptions, so a bad subset raises on every call
    stacked = bool(modes) and isinstance(modes[0], tuple)
    blocks, sides = (modes, transposed) if stacked else ((modes,), (transposed,))
    if not ordered:
        blocks = tuple(tuple(sorted(set(kept))) for kept in blocks)
    for kept in blocks:
        if not kept:
            raise ValueError("cannot reduce to an empty set of modes")
        if min(kept) < 0 or max(kept) >= n_modes:
            raise ValueError(f"modes {list(kept)} out of range for {n_modes}-mode state")
    if len(set(map(len, blocks))) != 1:
        raise ValueError(f"reductions need mode subsets of one size, got {list(map(list, blocks))}")
    k = len(blocks[0])
    idx = np.array(blocks if stacked else blocks[0])
    idx = np.concatenate([idx, idx + n_modes], axis=-1)
    signs = None
    if transposed is not None:
        factors = np.ones((len(blocks), 2 * k))
        for factor, kept, side_b in zip(factors, blocks, sides, strict=True):
            if not set(side_b) <= set(kept):
                raise ValueError(f"transposed modes {sorted(side_b)} not in subset {list(kept)}")
            factor[[k + kept.index(m) for m in side_b]] = -1.0
        signs = factors[:, :, None] * factors[:, None, :]
        signs.flags.writeable = False
        signs = signs if stacked else signs[0]
    idx.flags.writeable = False
    return k, idx[..., :, None], idx[..., None, :], signs


def _gather(
    sigma: CovarianceMatrix, modes: tuple, transposed: tuple | None = None, ordered: bool = False
) -> CovarianceMatrix:
    # the one view constructor: the unflagged CovarianceMatrix of the
    # entries of sigma that _plan gathers and signs
    k, rows, cols, signs = _plan(sigma.n_modes, modes, transposed, ordered)
    data = sigma.data[..., rows, cols]
    if signs is not None:
        data *= signs
    data.flags.writeable = False
    view = object.__new__(CovarianceMatrix)
    object.__setattr__(view, "n_modes", k)
    object.__setattr__(view, "data", data)
    object.__setattr__(view, "pure", False)
    return view


def reduce(sigma: CovarianceMatrix, modes: Iterable[int]) -> CovarianceMatrix:
    """Reduced covariance matrix of a subset of modes (partial trace).

    Keeps the q and p rows/columns of the requested modes, preserving qqpp
    ordering; kept modes are reindexed 0..k-1 in ascending original order.
    """
    return _gather(sigma, tuple(modes))


def reductions(
    sigma: CovarianceMatrix, subsets: Iterable[Iterable[int]], transposed: Iterable[Iterable[int]] | None = None
) -> CovarianceMatrix:
    """Reductions to several mode subsets of one size, as one stack.

    The reduction to the k-th subset sits at index k of a new axis just
    before the matrix axes, and equals what reduce gives for that subset.
    `transposed`, if given, holds one set of modes per subset, each
    within it: the k-th reduction is then partially transposed with
    those modes as side_b, as partial_transpose does.
    """
    sides = None if transposed is None else tuple(map(tuple, transposed))
    return _gather(sigma, tuple(map(tuple, subsets)), sides)


def partial_transpose(sigma: CovarianceMatrix, partition: ModePartition) -> CovarianceMatrix:
    """Partial transpose of sigma across a partition.

    Modes not covered by the partition are reduced away first.  On the
    remaining matrix the operation flips the sign of every p-row and
    p-column belonging to side_b, which is exact (no arithmetic beyond
    sign changes), hence involutive on full covers.
    """
    return _gather(sigma, tuple(partition.modes), tuple(partition.side_b))


def symplectic_eigenvalues(sigma: CovarianceMatrix) -> np.ndarray:
    """Symplectic spectrum of sigma, ascending along the last axis.

    The eigenvalues of i*Omega*sigma come in pairs +/-nu_k.  For positive
    definite sigma = L L^T they are computed from the Hermitian matrix
    i*L^T*Omega*L, which shares the spectrum of i*Omega*sigma (AB and BA
    have equal nonzero spectra) but is solvable by a backward-stable
    symmetric eigensolver with error ~ norm(sigma)*eps; both the general
    nonsymmetric solver and an explicit matrix square root lose several
    digits at deep squeezing.  A matrix that is not positive definite has
    no symplectic spectrum (Williamson's theorem), so it raises
    ValueError, and a stack raises if any of its matrices does.  Partial
    transposition keeps a matrix positive definite: it is a congruence by
    a diagonal matrix of signs.
    """
    n_modes = sigma.n_modes
    omega = symplectic_form(n_modes)
    try:
        chol = np.linalg.cholesky(sigma.data)
    except np.linalg.LinAlgError:
        raise ValueError("symplectic spectrum needs a positive definite covariance matrix") from None
    herm = 1j * (chol.swapaxes(-1, -2) @ omega @ chol)
    spectrum = np.linalg.eigvalsh(herm)
    # the +/- pairing is exact in math; averaging each half cancels the
    # antisymmetric part of the solver noise
    nu = 0.5 * (spectrum[..., n_modes:] - spectrum[..., n_modes - 1 :: -1])
    return np.sort(nu, axis=-1)


def spectrum_log_negativity(nu: np.ndarray, floor) -> np.ndarray:
    """Log-negativity of a pure state across a cut, from the reduced spectrum of one side.

    sum(arccosh nu_k) along the last axis, per matrix of a stack: nu is
    the symplectic spectrum of one side's reduction and floor that
    reduction's spectral_noise_floor, one per matrix.  The caller vouches
    that the state the reduction came from is pure.
    """
    # arccosh is infinitely steep at 1: solver noise on unsqueezed
    # directions would surface as sqrt(noise), so values within the
    # reduced block's own spectral resolution of 1 count as exactly 1;
    # genuine squeezing above that floor stays resolvable
    nu = np.where(nu <= 1.0 + floor[..., None], 1.0, nu)
    return np.arccosh(nu).sum(axis=-1)


def log_negativity(sigma: CovarianceMatrix, partition: ModePartition) -> np.ndarray:
    """Logarithmic negativity of a state built pure across a partition, in natural-log units.

    -sum(ln nu_k) over the partially transposed symplectic eigenvalues
    below 1.  Symmetric under swapping the two sides in exact arithmetic;
    in float64 a cut whose sides are of one size is taken on side_a, so
    swapping them can move the value by rounding.

    The state's Schmidt form is a tensor product of two-mode squeezed
    pairs across the cut, so the partially transposed spectrum is
    {e^(+/-2r_k)} with cosh(2r_k) the reduced-state symplectic spectrum,
    giving sum(arccosh nu_k) over the smaller side
    (spectrum_log_negativity).  The direct route would lose 1e-7 to 1e-6
    at deep squeezing, where the smallest PT eigenvalue sits far below
    the matrix norm.  An unflagged matrix (sigma.pure False) raises
    ValueError; no numerical purity test stands in for the flag, since
    at deep squeezing the float64 spectrum of a pure state strays
    outside any band the noise floor justifies.
    """
    _plan(sigma.n_modes, tuple(partition.modes))  # the whole partition's check, as only one side is reduced
    if not sigma.pure:
        raise ValueError("log-negativity needs a state built pure (pure_state)")
    reduced = reduce(sigma, min(partition.side_a, partition.side_b, key=len))
    return spectrum_log_negativity(symplectic_eigenvalues(reduced), reduced.spectral_noise_floor())


def permute_modes(sigma: CovarianceMatrix, order: Iterable[int]) -> CovarianceMatrix:
    """Reorder modes: new mode k is old mode order[k]."""
    perm = list(order)
    if sorted(perm) != list(range(sigma.n_modes)):
        raise ValueError(f"order {perm} is not a permutation of 0..{sigma.n_modes - 1}")
    return _gather(sigma, tuple(perm), ordered=True)
