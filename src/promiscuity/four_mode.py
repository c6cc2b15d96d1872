"""Builder and entanglement reports for the four-mode squeezed family.

A family member gamma(a, s) is prepared from vacuum by squeezing the
middle pair and then the outer pairs:

    gamma = S S^T,  S = S_34(a) S_12(a) S_23(s)

with 1-based mode labels as in the contangle module.  build_state writes
S out entry by entry, each nonzero entry one libm value or a product of
two; it equals the product of the three squeezers bit for bit and is
checked once.  Every state is pure and invariant under the simultaneous
exchange 1<->4, 2<->3.

User-facing mode labels are 1-based; the gaussian layer underneath is
0-based.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import contangle, gaussian
from .contangle import SqueezingParams

ROUTE_TOL = 1e-6
THRESHOLD_FLAG_TOL = 1e-6
WITNESS_TOL = 1e-9
# verdict comparisons are skipped when either route sits within its own
# margin of the separability boundary: closed contangle below FAINT_TAU,
# or PT eigenvalue gap 1 - nu_min below PPT_MARGIN.  The two bands are
# not linearly related (tau ~ gap^2 on pure reductions, tau ~ gap on
# mixed ones), so both must be checked.
FAINT_TAU = 1e-6
PPT_MARGIN = 1e-6


EntanglementReport = namedtuple(
    "EntanglementReport", (*contangle.ClosedForms._fields, "near_threshold", "consistent", "max_route_deviation")
)
EntanglementReport.__doc__ = """Closed-form statistics of one four-mode state with their cross-checks.

The ClosedForms fields, then the spectral cross-checks of full_report,
folded into `consistent` / `max_route_deviation`; `near_threshold` flags
points whose middle-pair verdict was not compared.
"""


def _transform_entries(a: float, s: float) -> list[float]:
    # S = S_34(a) S_12(a) S_23(s), row-major in qqpp order: the q block and
    # then the p block.  The squeezers act on overlapping pairs in a fixed
    # order, so each entry of their matrix product has at most one nonzero
    # term; 0.0 - x in place of -x keeps a zero degree's entries at +0.0,
    # as in that product
    ca, sa, cs, ss = math.cosh(a), math.sinh(a), math.cosh(s), math.sinh(s)
    nsa, nss = 0.0 - sa, 0.0 - ss
    z = 0.0
    return [
        ca, sa * cs, sa * ss, z, z, z, z, z,
        sa, ca * cs, ca * ss, z, z, z, z, z,
        z, ca * ss, ca * cs, sa, z, z, z, z,
        z, sa * ss, sa * cs, ca, z, z, z, z,
        z, z, z, z, ca, nsa * cs, sa * ss, z,
        z, z, z, z, nsa, ca * cs, ca * nss, z,
        z, z, z, z, z, ca * nss, ca * cs, nsa,
        z, z, z, z, z, sa * ss, nsa * cs, ca,
    ]


def build_state(params: Sequence[SqueezingParams]) -> gaussian.CovarianceMatrix:
    """Stack of the covariance matrices gamma(a, s) of a sequence of points, in order.

    The transform S of each point is written out from math.cosh and
    math.sinh of a and s, the libm values two_mode_squeezer uses, so it
    equals two_mode_squeezer(2, 3, a) @ two_mode_squeezer(0, 1, a) @
    two_mode_squeezer(1, 2, s) bit for bit.  The stack of transforms is
    checked once, as one SymplecticTransform, and gives the states
    through gaussian.pure_state.
    """
    data = np.array([_transform_entries(p.a, p.s) for p in params]).reshape(-1, 8, 8)
    return gaussian.pure_state(gaussian.SymplecticTransform(4, data))


def bounding_tripartite_state(params: Sequence[SqueezingParams]) -> gaussian.CovarianceMatrix:
    """Stack of the pure three-mode states that majorize the 1, 2, 3 reductions of the points.

    Each is built from a pair squeezer of degree a on modes 1, 2 followed
    by an interpair squeezer of degree t =
    contangle.bounding_squeezing_degree on modes 2, 3, acting on vacuum.
    The defining property, checked in the test suite and by verify, is
    that reduce(state, {1,2,3}) - sigma_p is positive semidefinite for
    the matching four-mode state.
    """
    a, t = [p.a for p in params], [contangle.bounding_squeezing_degree(p) for p in params]
    transform = gaussian.compose(
        gaussian.two_mode_squeezer(0, 1, a, 3),
        gaussian.two_mode_squeezer(1, 2, t, 3),
    )
    return gaussian.pure_state(transform)


# the seven bipartitions of the four modes: the probe cuts in the order of
# contangle.PROBES, then {1,2}|{3,4}, {1,3}|{2,4} and {1,4}|{2,3}.  Each
# side_a is the side log_negativity reduces its cut to
GLOBAL_CUTS = tuple(
    gaussian.ModePartition(frozenset(side), frozenset(range(4)).difference(side))
    for side in [[p - 1] for p in contangle.PROBES] + [[0, 1], [0, 2], [0, 3]]
)
_PROBE_SIDES = [sorted(cut.side_a) for cut in GLOBAL_CUTS[:4]]
# spectral_forms' stack of nine two-mode blocks: the side_a reductions of
# the last three cuts as they are, then each pair of contangle.PAIRS
# transposed across its two modes
_TWO_MODE_SIDES = [sorted(cut.side_a) for cut in GLOBAL_CUTS[4:]] + [[i - 1, j - 1] for i, j in contangle.PAIRS]
_TWO_MODE_TRANSPOSED = [[]] * 3 + [[j - 1] for i, j in contangle.PAIRS]


class SpectralForms(NamedTuple):
    """The spectral side of every cross-check, for one state or a stack of them."""

    cut_ln: np.ndarray  # log-negativity across each cut, GLOBAL_CUTS along a new last axis
    pair_nu_min: np.ndarray  # smallest PT symplectic eigenvalue, pairs in contangle.PAIRS order


def spectral_forms(state: gaussian.CovarianceMatrix) -> SpectralForms:
    """The SpectralForms of a state built pure (build_state), from two spectrum calls.

    One call covers the four one-mode reductions, whose spectra give the
    probe log-negativities, the other the stack of nine two-mode blocks:
    the {1,2}, {1,3} and {1,4} reductions, whose spectra give the
    log-negativities across the last three cuts, then the six transposed
    pair blocks.  Each log-negativity is the one gaussian.log_negativity
    gives for its cut of GLOBAL_CUTS; verify's gaussian_invariants suite
    checks the record against that route and each pair's partial
    transpose, bit for bit.  A state not flagged pure raises ValueError,
    as in log_negativity.
    """
    if not state.pure:
        raise ValueError("spectral forms need a state built pure (pure_state)")
    probes = gaussian.reductions(state, _PROBE_SIDES)
    one_mode_ln = gaussian.spectrum_log_negativity(
        gaussian.symplectic_eigenvalues(probes), probes.spectral_noise_floor()
    )
    blocks = gaussian.reductions(state, _TWO_MODE_SIDES, transposed=_TWO_MODE_TRANSPOSED)
    nu = gaussian.symplectic_eigenvalues(blocks)
    two_mode_ln = gaussian.spectrum_log_negativity(nu[..., :3, :], blocks.spectral_noise_floor()[..., :3])
    return SpectralForms(np.concatenate([one_mode_ln, two_mode_ln], axis=-1), nu[..., 3:, :].min(axis=-1))


def ppt_separable(nu_min):
    """PPT verdict from a smallest partially transposed symplectic eigenvalue, elementwise.

    PPT decides Gaussian separability only when one side holds a single
    mode, as for the pairs.
    """
    return nu_min >= 1.0 - gaussian.SEPARABILITY_TOL


def fully_inseparable(cut_ln):
    """True iff every cut of GLOBAL_CUTS carries entanglement, from a SpectralForms.cut_ln, elementwise.

    Each log-negativity is witnessed above WITNESS_TOL.  In exact terms
    that holds iff both squeezing degrees are strictly positive, but the
    record resolves less: spectrum_log_negativity reads a reduced
    symplectic eigenvalue within the noise floor of 1 as exactly 1, so a
    cut whose log-negativity is below about 1e-6 reads 0.  The verdict is
    therefore False at faint points such as (a, s) = (1e-9, 0.5), whose
    1|234 cut carries 2.3e-9, and (0.5, 3e-8), whose 12|34 cut carries 6e-8.
    """
    return (cut_ln > WITNESS_TOL).all(axis=-1)


def near_threshold(params: SqueezingParams) -> bool:
    """True within THRESHOLD_FLAG_TOL of the middle-pair separability threshold, where
    full_report and the verify battery leave the pair-(2, 3) verdict unscored."""
    return abs(params.a - contangle.separability_threshold(params.s)) < THRESHOLD_FLAG_TOL


def full_report(params: SqueezingParams) -> EntanglementReport:
    """All contangle statistics of gamma(a, s), cross-checked spectrally.

    The closed forms fill the report; independently, log-negativities and
    PPT verdicts are recomputed from the covariance matrix, a stack of
    one state, through its spectral_forms record.  The state is pure by
    construction, so no purity test runs.  Any value
    deviating beyond ROUTE_TOL, or any verdict mismatch, marks the report
    inconsistent instead of raising.  Points near the middle-pair
    separability threshold (near_threshold) are flagged as such and
    exempted from the hard verdict comparison, as are pairs whose
    entanglement is too faint for either route to certify (see FAINT_TAU
    and PPT_MARGIN).
    """
    state = build_state([params])
    forms = contangle.closed_forms(params)
    spectral = spectral_forms(state)

    one_rest = forms.one_vs_rest_contangle
    cut_ln = spectral.cut_ln[0].tolist()
    deviations = [abs(value**2 - one_rest[p]) for p, value in zip(contangle.PROBES, cut_ln)]
    deviations.append(abs(cut_ln[4] ** 2 - forms.interpair_contangle))

    near = near_threshold(params)
    verdicts_ok = True
    for (i, j), nu_min in zip(contangle.PAIRS, spectral.pair_nu_min[0].tolist()):
        if near and (i, j) == (2, 3):
            continue
        closed_tau = forms.pairwise_contangle[(i, j)]
        if 0.0 < closed_tau <= FAINT_TAU:
            continue
        if 0.0 < 1.0 - nu_min <= PPT_MARGIN:
            continue
        if ppt_separable(nu_min) != (closed_tau == 0.0):
            verdicts_ok = False

    max_deviation = max(deviations)
    return EntanglementReport(
        *forms,
        near_threshold=near,
        consistent=verdicts_ok and max_deviation <= ROUTE_TOL,
        max_route_deviation=max_deviation,
    )
