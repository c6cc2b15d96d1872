"""Self-contained property suites behind the `verify` CLI command.

Each suite sweeps a parameter grid and counts independent checks; the
first failure is recorded with the parameter point that produced it.
One Grid per run computes each point's contangle.closed_forms record,
one four_mode.spectral_forms record for the whole grid and one for its
3x3 samples, and each point's four_mode.route_deviations, each once:
every closed side is a field of the first, and every spectral side a
field of the others.  A corruption of either layer (wrong log base,
wrong squeezer convention, broken partial transpose) therefore surfaces
as a counted failure, not silent drift.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import contangle, four_mode, gaussian, qubits, qudit
from .config import GridConfig

# spectral-vs-closed agreement on squared log-negativities
ROUTE_TOL = 1e-7
# slack for monotonicity and sign checks on sampled grids
SLACK = 1e-12
PSD_SLACK = -1e-8
# qudit's exact per-copy tangles, H and witness against the brute force: the
# two routes differ by <= 5.6e-16, and a relative fault of 1e-12 moves any
# nonzero one by > 4e-13
PER_COPY_TOL = 1e-14

QUDIT_DIMS = tuple(range(4, 44, 4))
NONGAUSSIANITY_DIMS = tuple(range(4, 100, 4))
# points per stacked spectral call: the speed of a whole-grid stack at a
# fraction of its memory
BLOCK_POINTS = 128


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, point: str) -> None:
        self.checks += 1
        if not condition:
            self.failures.append(point)


def _blocks(points: list[contangle.SqueezingParams]):
    for start in range(0, len(points), BLOCK_POINTS):
        yield points[start : start + BLOCK_POINTS]


def _ends_and_middle(values: list[float]) -> list[float]:
    # distinct values only, so a degenerate axis is sampled once
    return sorted({values[0], values[-1], values[len(values) // 2]})


class Grid:
    """The a-major points of one verify run and its 3x3 samples, with each
    point's closed record, the grid's spectral record and route
    deviations, the samples' transform and spectral record, and the
    brute-force per-copy values of the qudit family, each computed once
    on first use.
    A computation that raises is not cached, so each reader fails alone.
    """

    def __init__(self, cfg: GridConfig) -> None:
        self.cfg = cfg
        a_values, s_values = cfg.a_values(), cfg.s_values()
        self.points = [contangle.SqueezingParams(a, s) for a in a_values for s in s_values]
        a_samples, s_samples = _ends_and_middle(a_values), _ends_and_middle(s_values)
        self.samples = [contangle.SqueezingParams(a, s) for a in a_samples for s in s_samples]
        self._closed = {}

    def _closed_forms(self, params: contangle.SqueezingParams) -> contangle.ClosedForms:
        # contangle.closed_forms(params), computed once per point
        if params not in self._closed:
            self._closed[params] = contangle.closed_forms(params)
        return self._closed[params]

    @functools.cached_property
    def forms(self) -> list[contangle.ClosedForms]:
        return [self._closed_forms(params) for params in self.points]

    @functools.cached_property
    def spectral(self) -> four_mode.SpectralForms:
        # one record, taken in blocks of BLOCK_POINTS points and joined once
        records = [four_mode.spectral_forms(chunk) for chunk in _blocks(self.points)]
        return four_mode.SpectralForms(*map(np.concatenate, zip(*records)))

    @functools.cached_property
    def deviations(self) -> np.ndarray:
        # four_mode.route_deviations of each point, one row of five per point
        deviations = np.empty((len(self.points), 5))
        for k, (forms, row) in enumerate(zip(self.forms, self.spectral.cut_ln[:, :5].tolist())):
            deviations[k] = four_mode.route_deviations(forms, row)
        return deviations

    @functools.cached_property
    def sample_transform(self) -> gaussian.SymplecticTransform:
        return four_mode.build_transform(self.samples)

    @functools.cached_property
    def sample_spectral(self) -> four_mode.SpectralForms:
        return four_mode.spectral_forms(self.samples)

    @functools.cached_property
    def per_copy(self) -> tuple[float, float, float, float, float]:
        # the brute-force twins of qudit's per-copy constants, from the GHZ and
        # W vectors: GHZ and W one-vs-rest, W pair tangle, W entropy H, witness
        ghz, w = qubits.ghz3(), qubits.w3()
        w_pair = qubits.reduced_density(w, (2, 2, 2), [0, 1])
        rest = [qubits.one_vs_rest_tangle_qubit(state, 0) for state in (ghz, w)]
        entropy = qubits.vn_entropy(qubits.reduced_density(w, (2, 2, 2), [0]))
        return (*rest, qubits.concurrence(w_pair) ** 2, entropy, qubits.negativity(w_pair, 2, 2))


def suite_gaussian_invariants(grid: Grid) -> SuiteResult:
    """Squeezer product, purity, involution, mode exchange, and the spectral record.

    Each check is taken once on the stack of the samples and read per
    sample.  The spectral_forms record of that stack must equal, bit for
    bit, what the general routes give on it.
    """
    result = SuiteResult("gaussian_invariants")
    probe = four_mode.GLOBAL_CUTS[0]
    states = gaussian.pure_state(grid.sample_transform)
    # the written-out transform of build_transform against the product of its
    # three squeezers, S_34(a) S_12(a) S_23(s), byte for byte
    a, s = [params.a for params in grid.samples], [params.s for params in grid.samples]
    product = gaussian.compose(
        gaussian.two_mode_squeezer(2, 3, a, 4),
        gaussian.two_mode_squeezer(0, 1, a, 4),
        gaussian.two_mode_squeezer(1, 2, s, 4),
    )
    reference = gaussian.pure_state(product).data
    pure = states.is_pure().tolist()
    double_pt = gaussian.partial_transpose(gaussian.partial_transpose(states, probe), probe).data
    swap = gaussian.permute_modes(states, (3, 2, 1, 0)).data
    # the general routes: log_negativity on every cut, and each pair's
    # partial transpose
    record = grid.sample_spectral
    ln = np.stack([gaussian.log_negativity(grid.sample_transform, cut) for cut in four_mode.GLOBAL_CUTS], axis=-1)
    pair_cuts = [gaussian.ModePartition(frozenset({i - 1}), frozenset({j - 1})) for i, j in contangle.PAIRS]
    nu_min = np.stack(
        [gaussian.symplectic_eigenvalues(gaussian.partial_transpose(states, cut)).min(axis=-1) for cut in pair_cuts],
        axis=-1,
    )
    record_ok = ((record.cut_ln == ln).all(axis=-1) & (record.pair_nu_min == nu_min).all(axis=-1)).tolist()
    for k, params in enumerate(grid.samples):
        state = states.data[k]
        point = f"a={params.a:.6g} s={params.s:.6g}"
        result.check(
            state.tobytes() == reference[k].tobytes(),
            f"state differs from the squeezer product at {point}",
        )
        result.check(pure[k], f"purity lost at {point}")
        result.check(
            float(np.abs(double_pt[k] - state).max()) == 0.0,
            f"partial transpose not involutive at {point}",
        )
        result.check(record_ok[k], f"spectral record differs from the general routes at {point}")
        result.check(
            float(np.abs(swap[k] - state).max()) <= 1e-9,
            f"mode-exchange symmetry broken at {point}",
        )
    return result


def suite_one_vs_rest_agreement(grid: Grid) -> SuiteResult:
    """Closed-form g[m^2] vs squared spectral log-negativity, all probes."""
    result = SuiteResult("one_vs_rest_agreement")
    for params, row in zip(grid.points, grid.deviations[:, :4].tolist()):
        for probe, deviation in zip(contangle.PROBES, row):
            result.check(deviation <= ROUTE_TOL, f"probe {probe} at a={params.a:.6g} s={params.s:.6g}")
    return result


def suite_interpair_agreement(grid: Grid) -> SuiteResult:
    """Pair-block contangle equals 4s^2 spectrally."""
    result = SuiteResult("interpair_agreement")
    for params, deviation in zip(grid.points, grid.deviations[:, 4].tolist()):
        result.check(deviation <= 1e-8, f"a={params.a:.6g} s={params.s:.6g}")
    return result


def suite_pair_separability(grid: Grid) -> SuiteResult:
    """PPT verdicts match the closed-form separability rules.

    Of the skip reasons of four_mode.pair_verdicts only "near_threshold"
    is honoured; the threshold itself is checked for nu_min = 1 instead.
    """
    result = SuiteResult("pair_separability")
    for params, forms, row in zip(grid.points, grid.forms, grid.spectral.pair_nu_min.tolist()):
        point = f"a={params.a:.6g} s={params.s:.6g}"
        for pair, (agree, skip) in zip(contangle.PAIRS, four_mode.pair_verdicts(forms, row)):
            if skip != "near_threshold":
                result.check(agree, f"pair {pair} at {point}")
    at_threshold = [
        contangle.SqueezingParams(contangle.separability_threshold(s), s)
        for s in grid.cfg.s_values()
        if s > 0.0
    ]
    middle = contangle.PAIRS.index((2, 3))
    for block in _blocks(at_threshold):
        nu_min = four_mode.spectral_forms(block).pair_nu_min[:, middle]
        for params, value in zip(block, nu_min.tolist()):
            result.check(abs(value - 1.0) <= 1e-7, f"threshold nu_min at s={params.s:.6g}")
    return result


def suite_monogamy(grid: Grid) -> SuiteResult:
    """tau_23 equals its spectral twin and the probe-1 branch attains the minimum.

    The {2,3} reduction is a symmetric two-mode state, so its contangle is
    ln^2 of its smallest PT symplectic eigenvalue, and 0 where that is >= 1.
    """
    result = SuiteResult("monogamy")
    nu_23 = grid.spectral.pair_nu_min[:, contangle.PAIRS.index((2, 3))]
    twins = (np.log(np.minimum(nu_23, 1.0)) ** 2).tolist()
    for params, forms, twin in zip(grid.points, grid.forms, twins):
        point = f"a={params.a:.6g} s={params.s:.6g}"
        result.check(abs(twin - forms.pairwise_contangle[(2, 3)]) <= ROUTE_TOL, f"tau_23 twin at {point}")
        result.check(
            forms.probe1_slack <= forms.monogamy_slack + SLACK,
            f"probe-1 branch not minimal at {point}",
        )
    return result


def suite_strong_monogamy(grid: Grid) -> SuiteResult:
    """residual >= tripartite bound >= 0 everywhere on the grid."""
    result = SuiteResult("strong_monogamy")
    for params, outcome in zip(grid.points, grid.forms):
        point = f"a={params.a:.6g} s={params.s:.6g}"
        result.check(outcome.strong_monogamy_ok, f"chain fails at {point}")
        result.check(
            outcome.residual >= outcome.tripartite_bound - contangle.MONOGAMY_TOL,
            f"residual below bound at {point}",
        )
        result.check(outcome.tripartite_bound >= 0.0, f"negative bound at {point}")
    big = contangle.closed_forms(contangle.SqueezingParams(5.0, 1.0)).tripartite_bound
    result.check(big < 0.01, f"bound at a=5 s=1 not vanishing: {big:.6g}")
    return result


def suite_bounding_state(grid: Grid) -> SuiteResult:
    """reduce(gamma, {1,2,3}) majorizes the bounding three-mode state."""
    result = SuiteResult("bounding_state")
    interior = [params for params in grid.points if params.a > 0.0 and params.s > 0.0]
    for block in _blocks(interior):
        reduced = gaussian.reduce(four_mode.build_state(block), [0, 1, 2])
        bound_state = four_mode.bounding_tripartite_state(block)
        min_eig = np.linalg.eigvalsh(reduced.data - bound_state.data).min(axis=-1)
        for params, value in zip(block, min_eig.tolist()):
            result.check(
                value >= PSD_SLACK,
                f"min eig {value:.3e} at a={params.a:.6g} s={params.s:.6g}",
            )
    return result


def suite_shape(grid: Grid) -> SuiteResult:
    """Trend checks along fixed-s rays of the (a, s) grid.

    The residual grows strictly with a whenever s > 0 and stays flat,
    within SLACK, for s = 0.  The tripartite bound is NOT globally
    monotone in a: it vanishes identically at a = 0 (the probe mode
    decouples there, so the genuine tripartite entanglement it caps is
    zero), climbs to a single interior peak as the middle pair approaches
    disentanglement, and decays toward zero beyond it.  Each row is
    therefore checked for exact zero at a = 0, unimodality
    (non-decreasing up to the row peak, non-increasing after), and a
    decaying far tail.
    """
    result = SuiteResult("shape")
    a_values = grid.cfg.a_values()
    for j, s in enumerate(grid.cfg.s_values()):
        row = grid.forms[j :: grid.cfg.density]  # the density is the number of s values
        residuals = [forms.residual for forms in row]
        bounds = [forms.tripartite_bound for forms in row]
        if a_values[0] == 0.0:
            result.check(bounds[0] == 0.0, f"bound not exactly zero at a=0 s={s:.6g}")
        peak = max(range(len(bounds)), key=bounds.__getitem__)
        for k in range(len(a_values) - 1):
            point = f"s={s:.6g} a={a_values[k]:.6g}->{a_values[k + 1]:.6g}"
            if s > 0.0:
                result.check(residuals[k + 1] > residuals[k] + SLACK, f"residual not increasing at {point}")
            else:
                result.check(abs(residuals[k + 1] - residuals[k]) <= SLACK, f"residual not flat at {point}")
            if k < peak:
                result.check(bounds[k + 1] >= bounds[k] - SLACK, f"bound dips before its peak at {point}")
            else:
                result.check(bounds[k + 1] <= bounds[k] + SLACK, f"bound rises after its peak at {point}")
    growth = (
        contangle.closed_forms(contangle.SqueezingParams(6.0, 1.0)).residual
        - contangle.closed_forms(contangle.SqueezingParams(3.0, 1.0)).residual
    )
    result.check(growth > 10.0, f"residual growth 3->6 too small: {growth:.6g}")
    return result


def suite_inseparability(grid: Grid) -> SuiteResult:
    """Full inseparability iff both squeezing degrees are positive, at the samples."""
    result = SuiteResult("inseparability")
    verdicts = four_mode.fully_inseparable(grid.sample_spectral.cut_ln).tolist()
    for params, verdict in zip(grid.samples, verdicts):
        expected = params.a > 0.0 and params.s > 0.0
        result.check(verdict == expected, f"a={params.a:.6g} s={params.s:.6g}")
    return result


def suite_report_consistency(grid: Grid) -> SuiteResult:
    """full_report flags every sampled point consistent and carries its closed forms."""
    result = SuiteResult("report_consistency")
    closed_fields = len(contangle.ClosedForms._fields)
    for params in grid.samples:
        report = four_mode.full_report(params)
        result.check(report.consistent, f"a={params.a:.6g} s={params.s:.6g}")
        result.check(
            report[:closed_fields] == grid._closed_forms(params),
            f"closed forms differ from the report at a={params.a:.6g} s={params.s:.6g}",
        )
    return result


def suite_qudit_tangles(grid: Grid) -> SuiteResult:
    """Exact tangle identities for d in QUDIT_DIMS, and the per-copy
    tangles they are composed from against the brute force."""
    result = SuiteResult("qudit_tangles")
    for d in QUDIT_DIMS:
        report = qudit.tangle_report(d)
        point = f"d={d}"
        result.check(report.three_tangle == Fraction(d, 4), f"three-tangle at {point}")
        result.check(report.pairwise_tangle == Fraction(d, 9), f"pairwise tangle at {point}")
        result.check(
            report.one_vs_rest_tangle == Fraction(17 * d, 36), f"one-vs-rest at {point}"
        )
        result.check(report.monogamy_gap == 0, f"monogamy gap at {point}")
    ghz_rest, w_rest, w_pair = grid.per_copy[:3]
    result.check(abs(ghz_rest - qudit.GHZ_TANGLES.one_vs_rest) <= PER_COPY_TOL, "GHZ per-copy one-vs-rest")
    result.check(abs(w_rest - qudit.W_TANGLES.one_vs_rest) <= PER_COPY_TOL, "W per-copy one-vs-rest")
    result.check(abs(w_pair - qudit.W_TANGLES.pairwise) <= PER_COPY_TOL, "W per-copy pair tangle")
    return result


def suite_nongaussianity(_: Grid) -> SuiteResult:
    """Value, bounds and limit of the non-Gaussianity gap."""
    result = SuiteResult("nongaussianity")
    result.check(abs(qudit.nongaussianity(4) - 0.48242) <= 1e-5, "value at d=4")
    values = [qudit.nongaussianity(d) for d in NONGAUSSIANITY_DIMS]
    for d, value in zip(NONGAUSSIANITY_DIMS, values):
        result.check(value >= 0.48, f"below 0.48 at d={d}")
        result.check(value <= 0.5 + SLACK, f"above 1/2 at d={d}")
    for k in range(len(values) - 1):
        result.check(
            values[k + 1] > values[k] - SLACK,
            f"not increasing at d={NONGAUSSIANITY_DIMS[k]}",
        )
    result.check(abs(qudit.nongaussianity(200) - 0.5) < 1e-10, "limit at d=200")
    return result


def suite_squashed(grid: Grid) -> SuiteResult:
    """Squashed-entanglement bounds and the positivity witness against the brute force."""
    result = SuiteResult("squashed")
    entropy, witness = grid.per_copy[3:]
    for d in QUDIT_DIMS:
        bounds = qudit.squashed_bounds(d)
        point = f"d={d}"
        result.check(
            abs(bounds.one_vs_rest - (d / 4) * (1 + entropy)) <= PER_COPY_TOL * d, f"one-vs-rest at {point}"
        )
        result.check(bounds.tripartite_lower == Fraction(d, 4), f"tripartite at {point}")
        result.check(abs(bounds.pairwise_witness - witness) <= PER_COPY_TOL, f"witness at {point}")
    return result


SUITES = (
    suite_gaussian_invariants,
    suite_one_vs_rest_agreement,
    suite_interpair_agreement,
    suite_pair_separability,
    suite_monogamy,
    suite_strong_monogamy,
    suite_bounding_state,
    suite_shape,
    suite_inseparability,
    suite_report_consistency,
    suite_qudit_tangles,
    suite_nongaussianity,
    suite_squashed,
)


def run_all(cfg: GridConfig) -> list[SuiteResult]:
    """Run every suite; a suite that raises is reported as a failed check.

    Corruption severe enough to crash a suite (e.g. a hard monogamy
    violation) must still surface as a countable failure, not as a
    traceback that aborts the whole battery.  A grid with a_min = a_max
    raises ValueError, since the shape suite compares neighbouring a values.
    """
    if cfg.a_min == cfg.a_max:
        raise ValueError(f"verify needs a_min < a_max, got a_min = a_max = {cfg.a_min}")
    grid = Grid(cfg)
    results = []
    for suite in SUITES:
        try:
            results.append(suite(grid))
        except Exception as exc:
            crashed = SuiteResult(suite.__name__.removeprefix("suite_"))
            crashed.check(False, f"suite raised {exc!r}")
            results.append(crashed)
    return results
