"""Covariance-matrix toolkit for Gaussian states of N bosonic modes.

Conventions
-----------
* Quadratures are ordered qqpp: X = (q_1, ..., q_N, p_1, ..., p_N).
* The vacuum covariance matrix is the identity, i.e. vacuum quadrature
  variance is 1.  Conventions with vacuum variance 1/2 differ from ours
  by a global factor of 2.
* The symplectic form is Omega = [[0, I], [-I, 0]].
* A covariance matrix sigma is physical iff sigma + i*Omega >= 0, and it
  describes a pure state iff every symplectic eigenvalue equals 1, as
  S S^T does for every symplectic S: log_negativity takes S, not a state.
* Logarithmic negativity uses the natural logarithm, so a two-mode
  squeezed vacuum with squeezing r has log-negativity exactly 2r.
* Matrices are 2N x 2N, with N read off the last axis, and may be
  stacked along leading axes.  Every function acts on the trailing two
  axes and gives one numpy value per matrix, shaped like the leading
  axes; a single 2-D matrix is a stack with no leading axes.  Each
  matrix of a stack is computed exactly as it would be alone.
* Every record comes read-only from the CovarianceMatrix constructor,
  which checks nothing: the caller vouches that its matrices are
  symmetric and finite, as it does for its mode tuples.  Each state is
  pure_state(S) = S S^T (numpy's one symmetric rank-k update, checked
  only for finiteness), and the views of reduce, reductions,
  partial_transpose and permute_modes are one gather (_gather) of the
  q/p rows and columns of a mode tuple, or of a stack of equal-length
  ones, each block's p rows and columns on its transposed side (side_b)
  negated, by one cached read-only plan per mode count, modes and sides
  (_plan).

All mode indices in this module are 0-based.
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable

import numpy as np

SYMPLECTIC_TOL = 1e-10
PHYSICALITY_TOL = 1e-9


def _as_finite_float_array(data, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric 2N x 2N covariance matrix in qqpp ordering, or a stack of them.

    N, the n_modes property, is read off the array's last axis.  The
    constructor checks nothing and makes the caller's array itself
    read-only: the caller vouches that every matrix of it is symmetric
    and finite (see the module docstring).  Physicality is deliberately
    not enforced: partial transposition produces valid instances that
    violate the uncertainty bound, which is precisely the signal the
    entanglement tests read off.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        self.data.flags.writeable = False

    @property
    def n_modes(self) -> int:
        return self.data.shape[-1] // 2

    def spectral_noise_floor(self) -> np.ndarray:
        """Resolution limit of float64 spectral predicates on this matrix.

        Backward-stable dense eigensolvers place eigenvalues to within
        ~c*n*eps*norm(sigma); entries near e^10 (deep squeezing) push that
        past 1e-9, so fixed tolerances must widen with the matrix scale.
        The constant is calibrated against a 50-digit recomputation of the
        worst sampled case, which pins the true spectrum two decades below
        the float64 result.
        """
        return 2e-13 * self.data.shape[-1] * np.abs(self.data).max(axis=(-2, -1))

    def is_pure(self) -> np.ndarray:
        """Numerical purity check: every symplectic eigenvalue within max(PHYSICALITY_TOL, noise floor) of 1.

        A check only, which no route reads (log_negativity takes a transform):
        at deep squeezing the float64 spectrum of S S^T strays past the band.
        """
        band = np.maximum(PHYSICALITY_TOL, self.spectral_noise_floor())
        deviation = np.abs(symplectic_eigenvalues(self) - 1.0).max(axis=-1)
        return deviation <= band


@dataclass(frozen=True)
class SymplecticTransform:
    """Linear symplectic transform S; pure_state(S) is the state S S^T it makes from vacuum.

    One 2N x 2N matrix or a stack of them, like CovarianceMatrix.  Validates
    S Omega S^T = Omega within SYMPLECTIC_TOL for every matrix.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_finite_float_array(self.data, "symplectic matrix")
        omega = symplectic_form(arr.shape[-1] // 2)
        # entries past ~1e154 overflow the product: no warning is printed, and
        # the overflow still ends in a ValueError, here or on the finiteness
        # check of the state the transform produces
        with np.errstate(over="ignore", invalid="ignore"):
            defect = np.abs(arr @ omega @ arr.swapaxes(-1, -2) - omega).max(axis=(-2, -1))
        # per-matrix defects; the first matrix of the stack beyond tolerance is reported
        bad = defect > SYMPLECTIC_TOL
        if bad.any():
            raise ValueError(f"matrix is not symplectic: defect {defect[bad].flat[0]:.3e}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)


ModePartition = namedtuple("ModePartition", "side_a side_b")
ModePartition.__doc__ = """Bipartition of some modes into two disjoint non-empty sets, side_a and side_b."""


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
    degrees = np.asarray(r, dtype=float)
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
    return SymplecticTransform(mat)


def compose(*transforms: SymplecticTransform) -> SymplecticTransform:
    """Matrix product of one or more symplectic transforms on one mode count, rightmost applied first."""
    total = transforms[0].data
    for t in transforms[1:]:
        total = total @ t.data
    return SymplecticTransform(total)


def pure_state(transform: SymplecticTransform) -> CovarianceMatrix:
    """The state S S^T that S makes from the vacuum, per matrix of a stack."""
    product = _as_finite_float_array(transform.data @ transform.data.swapaxes(-1, -2), "covariance matrix")
    return CovarianceMatrix(product)


@functools.cache
def _plan(n_modes: int, modes: tuple, transposed: tuple | None = None, ordered: bool = False) -> tuple:
    # the q/p row and column indices and the +/-1 factors (None if
    # `transposed` is) of the gather of an N-mode matrix onto `modes`, a
    # mode tuple or a tuple of equal-length ones, each block keeping its
    # modes in ascending order, or as given if `ordered`; the kept mode
    # count is read off the view's shape.  The factors negate each block's
    # p rows and columns of its `transposed` modes, except where both are
    stacked = isinstance(modes[0], tuple)
    blocks, sides = (modes, transposed) if stacked else ((modes,), (transposed,))
    if not ordered:
        blocks = tuple(tuple(sorted(set(kept))) for kept in blocks)
    k = len(blocks[0])
    idx = np.array(blocks if stacked else blocks[0])
    idx = np.concatenate([idx, idx + n_modes], axis=-1)
    signs = None
    if transposed is not None:
        factors = np.ones((len(blocks), 2 * k))
        for factor, kept, side_b in zip(factors, blocks, sides, strict=True):
            factor[[k + kept.index(m) for m in side_b]] = -1.0
        signs = factors[:, :, None] * factors[:, None, :]
        signs.flags.writeable = False
        signs = signs if stacked else signs[0]
    idx.flags.writeable = False
    return idx[..., :, None], idx[..., None, :], signs


def _gather(
    sigma: CovarianceMatrix, modes: tuple, transposed: tuple | None = None, ordered: bool = False
) -> CovarianceMatrix:
    # the view of the entries of sigma that _plan gathers and signs
    rows, cols, signs = _plan(sigma.n_modes, modes, transposed, ordered)
    data = sigma.data[..., rows, cols]
    if signs is not None:
        data *= signs
    return CovarianceMatrix(data)


def reduce(sigma: CovarianceMatrix, modes: Iterable[int]) -> CovarianceMatrix:
    """Reduced covariance matrix of a non-empty subset of the modes (partial trace).

    Keeps the q and p rows/columns of the requested modes, preserving qqpp
    ordering; kept modes are reindexed 0..k-1 in ascending original order.
    """
    return _gather(sigma, tuple(modes))


def reductions(
    sigma: CovarianceMatrix, subsets: Iterable[Iterable[int]], transposed: Iterable[Iterable[int]] | None = None
) -> CovarianceMatrix:
    """Reductions to several equal-size mode subsets, as one stack.

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
    return _gather(sigma, tuple(partition.side_a | partition.side_b), tuple(partition.side_b))


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


def log_negativity(transform: SymplecticTransform, partition: ModePartition) -> np.ndarray:
    """Logarithmic negativity of the pure state pure_state(transform) across a partition, in natural-log units.

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
    the matrix norm.  The transform makes the state pure, so no numerical
    purity test is run: at deep squeezing the float64 spectrum of a pure
    state strays outside any band the noise floor justifies.
    """
    reduced = reduce(pure_state(transform), min(partition.side_a, partition.side_b, key=len))
    return spectrum_log_negativity(symplectic_eigenvalues(reduced), reduced.spectral_noise_floor())


def permute_modes(sigma: CovarianceMatrix, order: Iterable[int]) -> CovarianceMatrix:
    """Reorder modes: new mode k is old mode order[k], for a permutation `order` of range(n_modes)."""
    return _gather(sigma, tuple(order), ordered=True)
