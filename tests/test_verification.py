from fractions import Fraction

import pytest

from promiscuity import contangle, four_mode, gaussian, qudit, verification
from promiscuity.config import GridConfig


def test_point_suites_take_s_from_the_s_axis(monkeypatch):
    cfg = GridConfig(a_max=2.5, s_max=0.5)
    visited = []

    def recording(name):
        real = getattr(four_mode, name)

        def wrapper(params, *args):
            visited.extend(params if isinstance(params, list) else [params])
            return real(params, *args)

        return wrapper

    for name in ("build_state", "full_report"):
        monkeypatch.setattr(four_mode, name, recording(name))
    for suite in (
        verification.suite_gaussian_invariants,
        verification.suite_inseparability,
        verification.suite_report_consistency,
    ):
        before = len(visited)
        assert suite(verification.Grid(cfg)).ok
        assert len(visited) > before
    assert all(cfg.s_min <= p.s <= cfg.s_max for p in visited)
    assert max(p.a for p in visited) == cfg.a_max


@pytest.mark.parametrize(
    "suite",
    [
        verification.suite_one_vs_rest_agreement,
        verification.suite_interpair_agreement,
        verification.suite_pair_separability,
    ],
)
def test_spectral_fault_turns_spectral_suites_red(monkeypatch, suite):
    cfg = GridConfig(density=6)
    assert suite(verification.Grid(cfg)).ok
    real = gaussian.symplectic_eigenvalues
    monkeypatch.setattr(gaussian, "symplectic_eigenvalues", lambda sigma: 1.01 * real(sigma))
    assert not suite(verification.Grid(cfg)).ok


@pytest.mark.parametrize(
    "suite, corrupted",
    [
        (
            verification.suite_one_vs_rest_agreement,
            lambda f: {"one_vs_rest_contangle": {**f.one_vs_rest_contangle, 2: f.one_vs_rest_contangle[2] + 1e-6}},
        ),
        (
            verification.suite_interpair_agreement,
            lambda f: {"interpair_contangle": f.interpair_contangle * (1 + 1e-6)},
        ),
        (
            # (2, 3) is already 0 above the threshold, so only points below it change
            verification.suite_pair_separability,
            lambda f: {"pairwise_contangle": {**f.pairwise_contangle, (2, 3): 0.0}},
        ),
    ],
    ids=["one_vs_rest", "interpair", "pair_separability"],
)
def test_closed_form_fault_turns_spectral_suites_red(monkeypatch, suite, corrupted):
    # the closed side of each check is read from the closed_forms record
    cfg = GridConfig(density=6)
    assert suite(verification.Grid(cfg)).ok
    real = contangle.closed_forms

    def corrupt(params):
        forms = real(params)
        return forms._replace(**corrupted(forms))

    monkeypatch.setattr(contangle, "closed_forms", corrupt)
    assert not suite(verification.Grid(cfg)).ok


# the part of the spectral_forms record each suite reads: the probe cuts of
# cut_ln, its {1,2}|{3,4} cut, and pair_nu_min
RECORD_SUITES = {
    "probe_ln": (verification.suite_one_vs_rest_agreement, "cut_ln", slice(0, 4)),
    "pairblock_ln": (verification.suite_interpair_agreement, "cut_ln", 4),
    "pair_nu_min": (verification.suite_pair_separability, "pair_nu_min", slice(None)),
}


@pytest.mark.parametrize(
    "field, report_red",
    # scaling nu_min by 1 + 1e-6 flips no verdict at the density-6 samples,
    # where every entangled pair's nu_min is at most 0.098 and every
    # separable pair's at least 1 - 1.1e-16, which the scaling lifts above
    # 1; the threshold nu_min check of verify still sees it
    [("probe_ln", True), ("pairblock_ln", True), ("pair_nu_min", False)],
)
def test_spectral_record_fault_turns_spectral_suites_red(monkeypatch, field, report_red):
    # report and verify read the spectral side of each check from one
    # four_mode.spectral_forms record, so scaling a slice turns red exactly
    # the suite that reads it
    cfg = GridConfig(density=6)
    suites = [suite for suite, _, _ in RECORD_SUITES.values()] + [verification.suite_report_consistency]
    assert all(suite(verification.Grid(cfg)).ok for suite in suites)
    real = four_mode.spectral_forms
    _, record_field, part = RECORD_SUITES[field]

    def scaled(state):
        forms = real(state)
        values = getattr(forms, record_field).copy()
        values[..., part] *= 1 + 1e-6
        return forms._replace(**{record_field: values})

    monkeypatch.setattr(four_mode, "spectral_forms", scaled)
    for name, (suite, _, _) in RECORD_SUITES.items():
        assert suite(verification.Grid(cfg)).ok is (name != field), name
    assert verification.suite_report_consistency(verification.Grid(cfg)).ok is not report_red


# check counts of `verify` on the default 26x26 grid
DEFAULT_COUNTS = {
    "gaussian_invariants": 45,
    "one_vs_rest_agreement": 2704,
    "interpair_agreement": 676,
    "pair_separability": 4080,
    "monogamy": 1352,
    "strong_monogamy": 2029,
    "bounding_state": 625,
    "shape": 1327,
    "inseparability": 9,
    "report_consistency": 18,
    "qudit_tangles": 43,
    "nongaussianity": 73,
    "squashed": 30,
}
# and on the 61x61 grid, which holds the one faint middle-pair verdict that
# verify scores and a report skips: tau_23 = 5.7e-7, below FAINT_TAU, at
# a=0.875 s=2.375
DENSE_COUNTS = {
    "gaussian_invariants": 45,
    "one_vs_rest_agreement": 14884,
    "interpair_agreement": 3721,
    "pair_separability": 22385,
    "monogamy": 7442,
    "strong_monogamy": 11164,
    "bounding_state": 3600,
    "shape": 7382,
    "inseparability": 9,
    "report_consistency": 18,
    "qudit_tangles": 43,
    "nongaussianity": 73,
    "squashed": 30,
}
# an interior point of the default grid that is not one of the 3x3 samples
FAULT_POINT = contangle.SqueezingParams(0.5, 1.0)


def _counts(results):
    return {r.name: (r.checks, len(r.failures)) for r in results}


def test_default_grid_suite_counts():
    for cfg, counts in ((GridConfig(), DEFAULT_COUNTS), (GridConfig(density=61), DENSE_COUNTS)):
        assert _counts(verification.run_all(cfg)) == {name: (n, 0) for name, n in counts.items()}


def _count_calls(monkeypatch, *targets) -> dict:
    calls = {}
    for module, name in targets:
        calls[name] = 0

        def wrapper(*args, real=getattr(module, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_each_grid_point_is_computed_once(monkeypatch):
    calls = _count_calls(
        monkeypatch,
        (contangle, "closed_forms"),
        (four_mode, "build_state"),
        (four_mode, "spectral_forms"),
        (four_mode, "route_deviations"),
    )
    verification.run_all(GridConfig())
    # closed_forms: 676 grid points, 3 off-grid points (strong_monogamy's
    # a=5 and shape's a=3 and a=6) and 9 sampled reports.  build_state: 6
    # grid blocks of BLOCK_POINTS, 5 interior blocks, 1 threshold block, 9
    # reports and the one stack of the 9 samples.  spectral_forms: 6 grid
    # blocks, 1 threshold block, 9 reports and that stack of the samples.
    # route_deviations: 676 grid points, read by two suites, and 9 reports
    assert calls["closed_forms"] <= 676 + 3 + 9
    assert calls["build_state"] <= 6 + 5 + 1 + 9 + 1
    assert calls["spectral_forms"] <= 6 + 1 + 9 + 1
    assert calls["route_deviations"] <= 676 + 9


def test_verify_work_is_pinned(monkeypatch):
    calls = _count_calls(
        monkeypatch, (gaussian, "symplectic_eigenvalues"), (gaussian, "log_negativity"), (four_mode, "build_state")
    )
    assert all(result.ok for result in verification.run_all(GridConfig()))
    # spectra: two per spectral_forms record (6 grid blocks, 1 threshold
    # block, 9 reports, 1 stack of the samples), then gaussian_invariants'
    # purity test, its log_negativity on the 7 cuts and its 6 pair
    # transposes.  build_state as in test_each_grid_point_is_computed_once
    assert calls == {"symplectic_eigenvalues": 2 * 17 + 1 + 7 + 6, "log_negativity": 7, "build_state": 22}


def test_closed_form_crash_stays_in_the_suites_that_read_records(monkeypatch):
    real = contangle.closed_forms

    def raising(params):
        if params == FAULT_POINT:
            raise ArithmeticError("injected at a=0.5, s=1.0")
        return real(params)

    monkeypatch.setattr(contangle, "closed_forms", raising)
    results = verification.run_all(GridConfig())
    readers = {
        "one_vs_rest_agreement", "interpair_agreement", "pair_separability",
        "monogamy", "strong_monogamy", "shape",
    }
    assert _counts(results) == {
        name: (1, 1) if name in readers else (n, 0) for name, n in DEFAULT_COUNTS.items()
    }
    assert {r.failures[0] for r in results if r.failures} == {
        "suite raised ArithmeticError('injected at a=0.5, s=1.0')"
    }


def test_state_crash_stays_in_the_suites_that_read_block_states(monkeypatch):
    real = four_mode.build_state

    def raising(params):
        if FAULT_POINT in params:
            raise ValueError("injected state fault")
        return real(params)

    monkeypatch.setattr(four_mode, "build_state", raising)
    counts = _counts(verification.run_all(GridConfig()))
    crashed = {"one_vs_rest_agreement", "interpair_agreement", "pair_separability", "monogamy", "bounding_state"}
    assert counts == {
        name: (1, 1) if name in crashed else (n, 0) for name, n in DEFAULT_COUNTS.items()
    }


def test_record_fault_that_only_the_record_check_sees(monkeypatch):
    # the pair-block value read off the {3,4} reduction in place of {1,2}:
    # on the default grid the two sides agree far inside interpair_agreement's
    # 1e-8, but log_negativity reduces {1,2}|{3,4} to {1,2}, and
    # gaussian_invariants compares the record with it bit for bit
    with monkeypatch.context() as fault:
        fault.setattr(four_mode, "_TWO_MODE_SIDES", [[2, 3]] + four_mode._TWO_MODE_SIDES[1:])
        counts = _counts(verification.run_all(GridConfig()))
    assert counts.pop("gaussian_invariants")[1] > 0
    assert counts == {name: (n, 0) for name, n in DEFAULT_COUNTS.items() if name != "gaussian_invariants"}
    # a transposition table that leaves the (1, 3) pair block unsigned: the
    # pair is separable, so its untransposed nu_min >= 1 gives the same
    # verdict, and only the record check against partial_transpose sees it
    transposed = list(four_mode._TWO_MODE_TRANSPOSED)
    transposed[3 + contangle.PAIRS.index((1, 3))] = []
    monkeypatch.setattr(four_mode, "_TWO_MODE_TRANSPOSED", transposed)
    counts = _counts(verification.run_all(GridConfig()))
    assert counts.pop("gaussian_invariants")[1] > 0
    assert counts == {name: (n, 0) for name, n in DEFAULT_COUNTS.items() if name != "gaussian_invariants"}


def test_report_that_drifts_from_its_closed_forms_turns_report_consistency_red(monkeypatch):
    # tripartite_bound is read from the closed forms alone, so no route check
    # of full_report sees a report that moves it; the check against the
    # point's closed_forms record does, at every sample where the bound is
    # nonzero, and the suite still counts 18 checks
    real = four_mode.full_report

    def drifted(params):
        report = real(params)
        return report._replace(tripartite_bound=report.tripartite_bound * (1 + 1e-9))

    monkeypatch.setattr(four_mode, "full_report", drifted)
    grid = verification.Grid(GridConfig())
    counts = _counts(verification.run_all(GridConfig()))
    red = [p for p in grid.samples if contangle.closed_forms(p).tripartite_bound != 0.0]
    assert len(red) > 0
    assert counts.pop("report_consistency") == (18, len(red))
    assert counts == {name: (n, 0) for name, n in DEFAULT_COUNTS.items() if name != "report_consistency"}
    result = verification.suite_report_consistency(grid)
    assert result.failures == [f"closed forms differ from the report at a={p.a:.6g} s={p.s:.6g}" for p in red]


def test_tau_23_fault_turns_only_monogamy_red(monkeypatch):
    # tau_23 x (1 - 1e-6) moves the closed value by up to 2.5e-5 on the
    # default grid and keeps every monogamy guard of point_forms passing;
    # only its spectral twin in the monogamy suite sees it, and every suite
    # still counts the same checks
    real = contangle.point_forms

    def scaled(at, st):
        tau_1_rest, tau_2_rest, tau_23, *tail = real(at, st)
        return (tau_1_rest, tau_2_rest, tau_23 * (1 - 1e-6), *tail)

    monkeypatch.setattr(contangle, "point_forms", scaled)
    grid = verification.Grid(GridConfig())
    counts = _counts(verification.run_all(GridConfig()))
    red = [p for p, forms in zip(grid.points, grid.forms) if forms.pairwise_contangle[(2, 3)] * 1e-6 > 1e-7]
    assert len(red) > 0
    assert counts.pop("monogamy") == (DEFAULT_COUNTS["monogamy"], len(red))
    assert counts == {name: (n, 0) for name, n in DEFAULT_COUNTS.items() if name != "monogamy"}
    failures = verification.suite_monogamy(grid).failures
    assert failures == [f"tau_23 twin at a={p.a:.6g} s={p.s:.6g}" for p in red]


def test_transform_fault_turns_gaussian_invariants_red(monkeypatch):
    # build_state's written-out S with a and s swapped: it is still a pure,
    # mode-exchange symmetric state, so only the squeezer-product check
    # sees it, at every sample off the diagonal a = s
    real = four_mode._transform_entries
    monkeypatch.setattr(four_mode, "_transform_entries", lambda a, s: real(s, a))
    grid = verification.Grid(GridConfig())
    result = verification.suite_gaussian_invariants(grid)
    assert result.checks == DEFAULT_COUNTS["gaussian_invariants"]
    assert result.failures == [
        f"state differs from the squeezer product at a={p.a:.6g} s={p.s:.6g}" for p in grid.samples if p.a != p.s
    ]
    assert len(result.failures) == 6


def test_negated_pair_verdicts_turn_report_and_pair_separability_red(monkeypatch):
    # full_report and pair_separability read their verdicts from the one
    # four_mode.pair_verdicts: negating agree turns both red, and every
    # suite still counts the same checks
    real = four_mode.pair_verdicts
    monkeypatch.setattr(
        four_mode, "pair_verdicts", lambda forms, row: [(not agree, skip) for agree, skip in real(forms, row)]
    )
    assert not four_mode.full_report(contangle.SqueezingParams(1.5, 1.0)).consistent
    counts = _counts(verification.run_all(GridConfig()))
    assert {name: checks for name, (checks, _) in counts.items()} == DEFAULT_COUNTS
    assert {name for name, (_, failed) in counts.items() if failed} == {"pair_separability", "report_consistency"}
    # every scored verdict fails; the threshold nu_min checks, one per s > 0, read no verdict
    threshold_checks = sum(s > 0.0 for s in GridConfig().s_values())
    assert counts["pair_separability"][1] == DEFAULT_COUNTS["pair_separability"] - threshold_checks


def test_shifted_probe_deviations_turn_report_and_one_vs_rest_red(monkeypatch):
    # full_report and one_vs_rest_agreement read their deviations from the
    # one four_mode.route_deviations: 1e-6 more on the four probe cuts
    # exceeds verify's 1e-7 everywhere and the report's 1e-6 wherever a
    # probe deviates at all, while interpair_agreement reads the
    # {1,2}|{3,4} deviation alone and stays green
    real = four_mode.route_deviations

    def shifted(forms, row):
        deviations = real(forms, row)
        return [value + 1e-6 for value in deviations[:4]] + deviations[4:]

    monkeypatch.setattr(four_mode, "route_deviations", shifted)
    assert not four_mode.full_report(contangle.SqueezingParams(1.5, 1.0)).consistent
    counts = _counts(verification.run_all(GridConfig()))
    assert {name: checks for name, (checks, _) in counts.items()} == DEFAULT_COUNTS
    assert {name for name, (_, failed) in counts.items() if failed} == {"one_vs_rest_agreement", "report_consistency"}


@pytest.mark.parametrize(
    "constant, corrupt, red",
    [
        # every d's one-vs-rest and monogamy gap, and the per-copy check
        ("W_TANGLES", lambda w: w._replace(one_vs_rest=Fraction(7, 9)), {"qudit_tangles": 2 * 10 + 1}),
        # every d's pairwise tangle and monogamy gap, and the per-copy check,
        # which holds the brute force to PER_COPY_TOL
        ("W_TANGLES", lambda w: w._replace(pairwise=w.pairwise * (1 + 1e-12)), {"qudit_tangles": 2 * 10 + 1}),
        ("W_QUBIT_ENTROPY", lambda h: h * (1 + 1e-12), {"squashed": 10}),
        ("W_PAIR_NEGATIVITY", lambda witness: witness * (1 + 1e-12), {"squashed": 10}),
    ],
    ids=["w_one_vs_rest", "w_pairwise", "w_qubit_entropy", "w_pair_negativity"],
)
def test_qudit_constant_fault_turns_verify_red(monkeypatch, constant, corrupt, red):
    # the reports read qudit's exact per-copy constants, and verify holds
    # each against the brute-force density-matrix route
    monkeypatch.setattr(qudit, constant, corrupt(getattr(qudit, constant)))
    results = verification.run_all(GridConfig(0.0, 2.5, 0.0, 2.5, 6))
    assert {r.name: len(r.failures) for r in results if not r.ok} == red
    assert not any(failure.startswith("suite raised") for r in results for failure in r.failures)
