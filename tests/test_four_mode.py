import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from promiscuity import contangle, four_mode, gaussian, verification
from promiscuity.config import GridConfig
from promiscuity.contangle import SqueezingParams, separability_threshold
from promiscuity.four_mode import (
    GLOBAL_CUTS,
    EntanglementReport,
    bounding_tripartite_state,
    build_state,
    full_report,
    fully_inseparable,
    ppt_separable,
    spectral_forms,
)

squeezings = st.floats(min_value=0.0, max_value=2.5, allow_nan=False)
PAIR_CUT = gaussian.ModePartition(frozenset({0}), frozenset({1}))


def test_build_state_basics():
    state = build_state([SqueezingParams(1.5, 1.0)])
    assert state.n_modes == 4
    assert gaussian.symplectic_eigenvalues(state).min() >= 1 - 1e-9
    assert state.is_pure()


def test_build_state_vacuum_limit():
    assert np.array_equal(build_state([SqueezingParams(0.0, 0.0)]).data[0], np.eye(8))


def test_build_state_factorizes_without_middle_squeezer():
    # s = 0 leaves two independent two-mode squeezed pairs
    a = 0.9
    state = build_state([SqueezingParams(a, 0.0)])
    pair = gaussian.pure_state(gaussian.two_mode_squeezer(0, 1, a, 2)).data
    expected = np.zeros((8, 8))
    for mi, mj in [(0, 1), (2, 3)]:
        block = [mi, mj, mi + 4, mj + 4]
        expected[np.ix_(block, block)] = pair
    assert np.allclose(state.data[0], expected, atol=1e-13)


def test_build_state_swap_symmetry():
    # simultaneous exchange 1 <-> 4, 2 <-> 3 leaves the state invariant
    state = build_state([SqueezingParams(1.1, 0.7)])
    swapped = gaussian.permute_modes(state, [3, 2, 1, 0])
    assert np.allclose(state.data, swapped.data, atol=1e-12)


def test_pair_ppt_separable_follows_closed_rules():
    params = SqueezingParams(0.5, 1.0)
    state = build_state([params])
    verdicts = dict(zip(contangle.PAIRS, ppt_separable(spectral_forms(state).pair_nu_min[0]).tolist()))
    assert not verdicts[(1, 2)]
    assert not verdicts[(3, 4)]
    for i, j in [(1, 3), (1, 4), (2, 4)]:
        assert verdicts[(i, j)]
    # below threshold 0.788 the middle pair is still entangled
    assert not verdicts[(2, 3)]
    middle = contangle.PAIRS.index((2, 3))
    assert ppt_separable(spectral_forms(build_state([SqueezingParams(1.0, 1.0)])).pair_nu_min[0, middle])


def test_full_report_benchmark_numbers():
    report = full_report(SqueezingParams(1.5, 1.0))
    assert report.pairwise_contangle[(1, 2)] == 9.0
    assert report.pairwise_contangle[(3, 4)] == 9.0
    assert report.pairwise_contangle[(1, 3)] == 0.0
    assert report.pairwise_contangle[(2, 3)] == 0.0
    assert report.interpair_contangle == 4.0
    assert report.residual == pytest.approx(5.517686046189343, abs=1e-11)
    assert report.tripartite_bound == pytest.approx(0.4511305571890842, abs=1e-11)
    assert report.monogamy_ok and report.strong_monogamy_ok
    assert report.consistent
    assert not report.near_threshold
    assert report.max_route_deviation < 1e-9


def test_full_report_keys_are_one_based():
    report = full_report(SqueezingParams(0.3, 0.2))
    assert sorted(report.one_vs_rest_contangle) == [1, 2, 3, 4]
    assert sorted(report.pairwise_contangle) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]


def test_full_report_flags_threshold_neighborhood():
    s = 1.0
    thr = separability_threshold(s)
    assert full_report(SqueezingParams(thr + 1e-8, s)).near_threshold
    assert not full_report(SqueezingParams(thr + 0.1, s)).near_threshold


def test_full_report_consistency_across_regimes():
    for a, s in [(0.0, 0.0), (0.2, 1.8), (1.0, 1.0), (2.5, 2.5)]:
        report = full_report(SqueezingParams(a, s))
        assert report.consistent, (a, s)
        assert report.max_route_deviation <= 1e-7


def test_full_inseparability_truth_table():
    points = [SqueezingParams(a, s) for a, s in ((1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0))]
    cut_ln = spectral_forms(build_state(points)).cut_ln
    assert fully_inseparable(cut_ln).tolist() == [True, False, False, False]


def _partition(*side_a: int) -> gaussian.ModePartition:
    return gaussian.ModePartition(frozenset(side_a), frozenset({0, 1, 2, 3}) - frozenset(side_a))


def test_global_cuts_are_the_seven_bipartitions_in_order():
    # probes 1..4 against the rest, then {1,2}|{3,4}, {1,3}|{2,4}, {1,4}|{2,3}
    sides = [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3)]
    assert GLOBAL_CUTS == tuple(_partition(*side) for side in sides)


@pytest.mark.parametrize(
    "point, verdict",
    # the last two are faint: a cut whose log-negativity is below about 1e-6
    # reads 0 (fully_inseparable's docstring), although both degrees are positive
    [((1.0, 1.0), True), ((0.0, 1.0), False), ((1.0, 0.0), False), ((4.75, 0.5), True),
     ((1e-9, 0.5), False), ((0.5, 3e-8), False)],
)
def test_fully_inseparable_reads_log_negativity_on_every_cut(monkeypatch, point, verdict):
    state = build_state([SqueezingParams(*point)])
    witnessed = all(gaussian.log_negativity(state, cut)[0] > four_mode.WITNESS_TOL for cut in GLOBAL_CUTS)
    calls = []
    monkeypatch.setattr(gaussian, "log_negativity", lambda *args: calls.append(args))
    assert fully_inseparable(spectral_forms(state).cut_ln).tolist() == [witnessed] == [verdict]
    assert calls == []


@given(a=squeezings, s=squeezings)
@settings(max_examples=40, deadline=None)
# a faint pair squeezer: tau_12 = 4a^2 > 0 (7.8e-90 at a = 1.4e-45) while
# the (1, 2) nu_min rounds to 1, so the FAINT_TAU skip decides the verdict
@example(a=1e-10, s=0.0)
@example(a=1.4e-45, s=0.0)
# a faint middle squeezer below the pair threshold: the closed m_23 rounds
# to 1, so tau_23 = 0, while the (2, 3) nu_min = 1 - 2e-9 lies past
# SEPARABILITY_TOL, so the PPT_MARGIN skip decides the verdict
@example(a=0.0, s=1e-9)
def test_reports_are_consistent_on_random_draws(a, s):
    report = full_report(SqueezingParams(a, s))
    assert report.consistent
    assert report.monogamy_ok
    assert report.strong_monogamy_ok


@given(a=st.floats(min_value=0.05, max_value=2.5, allow_nan=False),
       s=st.floats(min_value=0.05, max_value=2.5, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_positive_squeezing_gives_full_inseparability(a, s):
    assert fully_inseparable(spectral_forms(build_state([SqueezingParams(a, s)])).cut_ln).tolist() == [True]


def _seeded_points() -> list[SqueezingParams]:
    rng = random.Random(20)
    points = [SqueezingParams(rng.uniform(0, 2.5), rng.uniform(0, 2.5)) for _ in range(60)]
    # the corner of the square where a + s is 4 to 5
    for _ in range(20):
        total = rng.uniform(4.0, 5.0)
        a = rng.uniform(total - 2.5, 2.5)
        points.append(SqueezingParams(a, total - a))
    # a + s in [5.5, 6], where some states fail the numerical purity test
    for _ in range(20):
        total = rng.uniform(5.5, 6.0)
        a = rng.uniform(0.0, total)
        points.append(SqueezingParams(a, total - a))
    points += [SqueezingParams(separability_threshold(s), s) for s in (0.1, 0.5, 1.0, 2.0, 2.5)]
    return points + [SqueezingParams(0.0, 0.0), SqueezingParams(1.5, 1.0)]


def _spectral_quantities(states: gaussian.CovarianceMatrix) -> dict:
    values = {
        "state": states.data,
        "spectrum": gaussian.symplectic_eigenvalues(states),
        "pure": states.is_pure(),
        "floor": states.spectral_noise_floor(),
    }
    values.update({f"ln {cut}": gaussian.log_negativity(states, cut) for cut in GLOBAL_CUTS})
    values.update(spectral_forms(states)._asdict())
    return {name: np.asarray(value) for name, value in values.items()}


def test_stacked_route_equals_stacks_of_one_and_single_states():
    points = _seeded_points()
    stacked = _spectral_quantities(build_state(points))
    of_one = [_spectral_quantities(build_state([p])) for p in points]
    # one 2-D matrix, row 0 of a stack of one, through the trailing-axes rule
    single = [_spectral_quantities(gaussian.CovarianceMatrix(4, build_state([p]).data[0], pure=True)) for p in points]
    assert not stacked["pure"].all() and stacked["pure"].any()
    for name, values in stacked.items():
        assert values.shape[0] == len(points)
        assert np.array_equal(values, np.concatenate([row[name] for row in of_one])), name
        assert np.array_equal(values, np.stack([row[name] for row in single])), name
    # the record's log-negativity of each cut is the general route's, bit for bit
    for k, cut in enumerate(GLOBAL_CUTS):
        assert stacked["cut_ln"][..., k].tobytes() == stacked[f"ln {cut}"].tobytes(), cut
    interior = [p for p in points if p.a > 0 and p.s > 0]
    bounds = bounding_tripartite_state(interior).data
    for k, p in enumerate(interior):
        assert np.array_equal(bounds[k], bounding_tripartite_state([p]).data[0])


def _reference_report(params: SqueezingParams) -> EntanglementReport:
    # full_report's cross-checks through the general routes: log_negativity
    # across each probe cut and {1,2}|{3,4}, and each pair's reduction
    # partially transposed
    state = build_state([params])
    forms = contangle.closed_forms(params)
    probes = [gaussian.log_negativity(state, GLOBAL_CUTS[p - 1]).item() for p in contangle.PROBES]
    pairblock = gaussian.log_negativity(state, GLOBAL_CUTS[4]).item()
    deviations = [abs(ln**2 - forms.one_vs_rest_contangle[p]) for p, ln in zip(contangle.PROBES, probes)]
    deviations.append(abs(pairblock**2 - forms.interpair_contangle))
    near = four_mode.near_threshold(params)
    verdicts_ok = True
    for pair in contangle.PAIRS:
        reduced = gaussian.reduce(state, [pair[0] - 1, pair[1] - 1])
        nu_min = gaussian.symplectic_eigenvalues(gaussian.partial_transpose(reduced, PAIR_CUT)).min()
        tau = forms.pairwise_contangle[pair]
        skipped = (
            (near and pair == (2, 3))
            or 0.0 < tau <= four_mode.FAINT_TAU
            or 0.0 < 1.0 - nu_min <= four_mode.PPT_MARGIN
        )
        if not skipped and (nu_min >= 1.0 - gaussian.SEPARABILITY_TOL) != (tau == 0.0):
            verdicts_ok = False
    return EntanglementReport(
        **forms._asdict(),
        near_threshold=near,
        consistent=verdicts_ok and max(deviations) <= four_mode.ROUTE_TOL,
        max_route_deviation=max(deviations),
    )


def test_full_report_equals_the_report_from_separate_spectra():
    # the three inconsistent edge points and a point whose lone middle
    # squeezer fails the symplectic check
    extra = [SqueezingParams(a, s) for a, s in ((4.75, 0.5), (5.25, 0.5), (5.75, 1.0), (0.0625, 7.4375))]
    outcomes = set()
    for params in _seeded_points() + extra:
        report, expected = full_report(params), _reference_report(params)
        for field in expected._asdict():
            assert getattr(report, field) == getattr(expected, field), (params, field)
        assert report.max_route_deviation.hex() == expected.max_route_deviation.hex()
        assert report.consistent is expected.consistent
        outcomes.add(report.consistent)
    assert outcomes == {True, False}


# max_route_deviation and consistent of full_report, recorded bit for bit:
# tier-1's guard on the bytes of the spectral route.  The last three are
# the inconsistent edge points, all lost on the 12|34 cut
PINNED_REPORTS = [
    ((1.5, 1.0), "0x1.6000000000000p-47", True),
    ((2.5, 2.5), "0x1.2700000000000p-39", True),
    ((0.0625, 7.4375), "0x0.0p+0", True),
    ((4.75, 0.5), "0x1.3f5eff75bd000p-12", False),
    ((5.25, 0.5), "0x1.a2c2a4d82c000p-12", False),
    ((5.75, 1.0), "0x1.6b8245a72a400p-8", False),
]


@pytest.mark.parametrize("point, deviation, consistent", PINNED_REPORTS)
def test_full_report_bytes_are_pinned(point, deviation, consistent):
    report = full_report(SqueezingParams(*point))
    assert report.max_route_deviation.hex() == deviation
    assert report.consistent is consistent


def test_two_mode_signs_transpose_only_the_pair_blocks_and_are_read_only():
    # the {1,2}, {1,3} and {1,4} reductions as they are, then the six pairs
    # transposed: the cached plan of the stack negates only each pair block's
    # second-mode p row and column, and the stack is a read-only view
    sides, transposed = four_mode._TWO_MODE_SIDES, four_mode._TWO_MODE_TRANSPOSED
    assert four_mode._PROBE_SIDES == [[0], [1], [2], [3]]
    assert sides == [[0, 1], [0, 2], [0, 3]] + [[i - 1, j - 1] for i, j in contangle.PAIRS]
    plan = gaussian._plan(4, tuple(map(tuple, sides)), tuple(map(tuple, transposed)))
    signs = plan[3]
    flip = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])
    assert np.array_equal(signs, [np.ones((4, 4))] * 3 + [flip] * 6)
    with pytest.raises(ValueError, match="read-only"):
        signs[3, 3, 3] = 1.0
    state = build_state([SqueezingParams(1.5, 1.0), SqueezingParams(0.0, 2.5)])
    blocks = gaussian.reductions(state, sides, transposed)
    assert gaussian._plan(4, tuple(map(tuple, sides)), tuple(map(tuple, transposed))) is plan
    assert not blocks.data.flags.writeable
    assert blocks.data.tobytes() == (gaussian.reductions(state, sides).data * signs).tobytes()
    for k, (i, j) in enumerate(contangle.PAIRS):
        cut = gaussian.ModePartition(frozenset({i - 1}), frozenset({j - 1}))
        assert blocks.data[:, 3 + k].tobytes() == gaussian.partial_transpose(state, cut).data.tobytes()


def test_full_report_makes_two_spectra_and_no_purity_test(monkeypatch):
    calls = {"spectra": 0, "purity": 0}
    spectrum = gaussian.symplectic_eigenvalues
    purity = gaussian.CovarianceMatrix.is_pure

    def counting_spectrum(sigma):
        calls["spectra"] += 1
        return spectrum(sigma)

    def counting_purity(self, *args, **kwargs):
        calls["purity"] += 1
        return purity(self, *args, **kwargs)

    monkeypatch.setattr(gaussian, "symplectic_eigenvalues", counting_spectrum)
    monkeypatch.setattr(gaussian.CovarianceMatrix, "is_pure", counting_purity)
    report = full_report(SqueezingParams(1.5, 1.0))
    assert report.consistent
    assert calls["spectra"] == 2
    assert calls["purity"] == 0


def test_spectral_forms_refuse_a_state_not_built_pure():
    state = build_state([SqueezingParams(0.4, 0.3)])
    with pytest.raises(ValueError, match="built pure"):
        spectral_forms(gaussian.CovarianceMatrix(4, state.data))


def _squeezer_product(a, s) -> gaussian.SymplecticTransform:
    return gaussian.compose(
        gaussian.two_mode_squeezer(2, 3, a, 4),
        gaussian.two_mode_squeezer(0, 1, a, 4),
        gaussian.two_mode_squeezer(1, 2, s, 4),
    )


def test_build_state_writes_out_the_squeezer_product_exactly(monkeypatch):
    grid, size = verification.Grid(GridConfig()).points, verification.BLOCK_POINTS
    cases = [[SqueezingParams(a, s)] for a, s in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (2.5, 2.5))]
    cases += [grid[k : k + size] for k in range(0, len(grid), size)]
    transforms = []
    pure_state = gaussian.pure_state

    def recording(transform):
        transforms.append(transform)
        return pure_state(transform)

    monkeypatch.setattr(gaussian, "pure_state", recording)
    for params in cases:
        state = build_state(params)
        product = _squeezer_product([p.a for p in params], [p.s for p in params])
        assert np.array_equal(transforms[-1].data, product.data)
        expected = pure_state(product).data
        assert state.data.shape == expected.shape
        assert state.data.tobytes() == expected.tobytes()


def _count_validations(monkeypatch) -> dict:
    counts = {}
    for cls in (gaussian.SymplecticTransform, gaussian.CovarianceMatrix):
        counts[cls.__name__] = 0

        def counting(self, real=cls.__post_init__, name=cls.__name__):
            counts[name] += 1
            real(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


@pytest.mark.parametrize(
    "params", [[SqueezingParams(1.5, 1.0)], [SqueezingParams(1.5, 1.0), SqueezingParams(0.5, 2.0)]]
)
def test_build_state_checks_one_transform(monkeypatch, params):
    counts = _count_validations(monkeypatch)
    build_state(params)
    assert counts == {"SymplecticTransform": 1, "CovarianceMatrix": 1}


def test_full_report_validates_one_state_and_one_transform(monkeypatch):
    # the reductions, partial transposes and signed blocks are views of the
    # one validated state, so only build_state's transform and state are checked
    counts = _count_validations(monkeypatch)
    assert full_report(SqueezingParams(1.5, 1.0)).consistent
    assert counts == {"SymplecticTransform": 1, "CovarianceMatrix": 1}


def test_verify_validates_28_covariance_matrices(monkeypatch):
    counts = _count_validations(monkeypatch)
    results = verification.run_all(GridConfig())
    assert all(result.ok for result in results)
    assert counts["CovarianceMatrix"] == 28


def test_views_equal_validated_matrices(monkeypatch):
    points = [(0.0, 0.0), (0.0, 1.3), (1.0, 0.0), (4.75, 0.5), (2.5, 2.5)]
    state = build_state([SqueezingParams(a, s) for a, s in points])
    views = [
        gaussian.reduce(state, [0, 2]),
        gaussian.reduce(state, {3}),
        gaussian.reductions(state, four_mode._TWO_MODE_SIDES),
        gaussian.permute_modes(state, (3, 2, 1, 0)),
        gaussian.partial_transpose(state, PAIR_CUT),
    ]
    views += [gaussian.partial_transpose(state, cut) for cut in GLOBAL_CUTS]
    # spectral_forms' probe reductions and signed nine-block stack
    spectrum = gaussian.symplectic_eigenvalues

    def recording(sigma):
        views.append(sigma)
        return spectrum(sigma)

    monkeypatch.setattr(gaussian, "symplectic_eigenvalues", recording)
    spectral_forms(state)
    assert len(views) == 5 + len(GLOBAL_CUTS) + 2
    assert views[-1].data.shape == (len(points), 9, 4, 4)
    negative_zeros = 0
    for view in views:
        assert not view.data.flags.writeable
        checked = gaussian.CovarianceMatrix(view.n_modes, view.data)
        assert checked.data.shape == view.data.shape
        assert checked.data.tobytes() == view.data.tobytes()
        negative_zeros += np.count_nonzero((view.data == 0.0) & np.signbit(view.data))
    # the a = 0 points put signed zeros in the views, which must survive as they are
    assert negative_zeros > 0
