"""Acceptance battery: one test per shipped guarantee.

Each test prints a single `[criterion NN] label: PASS/FAIL` line (visible
with `pytest -s`, or in captured output on failure) and then asserts.
Tolerances are stated inline next to each check; grid inequality claims
carry the documented 1e-12 slack.  Criterion 10 checks the sweep's
tripartite-bound column against a spectral twin computed here from the
bounding state's log-negativities, independently of `verification`.
"""
import time
from fractions import Fraction

import numpy as np

from promiscuity import contangle, four_mode, gaussian, qubits, qudit

GRID = [0.1 * k for k in range(26)]
SLACK = 1e-12


def _verdict(num: int, label: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num:02d}] {label}: {status}")
    assert not failures, f"criterion {num:02d} ({label}): " + "; ".join(failures)


def test_acceptance_01_benchmark_point():
    failures = []
    start = time.perf_counter()
    params = contangle.SqueezingParams(1.5, 1.0)
    tau_12 = contangle.closed_forms(params).pairwise_contangle[(1, 2)]
    tau_34 = contangle.closed_forms(params).pairwise_contangle[(3, 4)]
    strong = contangle.closed_forms(params)
    pair_squeezer = gaussian.two_mode_squeezer(0, 1, 1.5, 2)
    spectral = gaussian.log_negativity(
        pair_squeezer, gaussian.ModePartition(frozenset({0}), frozenset({1}))
    )
    elapsed = time.perf_counter() - start

    if tau_12 != 9.0:
        failures.append(f"closed-form pair (1,2) contangle {tau_12!r} != 9.0")
    if tau_34 != 9.0:
        failures.append(f"closed-form pair (3,4) contangle {tau_34!r} != 9.0")
    if abs(spectral * spectral - 9.0) > 1e-7:
        failures.append(f"spectral pure-pair route {spectral * spectral!r} off 9.0 by > 1e-7")
    if abs(strong.residual - 5.519) > 0.05:
        failures.append(f"residual {strong.residual:.6f} not within 0.05 of 5.519")
    if abs(strong.tripartite_bound - 0.451) > 0.01:
        failures.append(f"tripartite bound {strong.tripartite_bound:.6f} not within 0.01 of 0.451")
    if elapsed >= 0.1:
        failures.append(f"runtime {elapsed:.3f}s >= 0.1s")
    _verdict(1, "benchmark point", failures)


def test_acceptance_02_interpair_block():
    failures = []
    pairblock = gaussian.ModePartition(frozenset({0, 1}), frozenset({2, 3}))
    points = [(a, s) for a in (0.0, 0.625, 1.25, 1.875, 2.5) for s in (0.0, 0.625, 1.25, 1.875)]
    assert len(points) == 20
    start = time.perf_counter()
    for a, s in points:
        params = contangle.SqueezingParams(a, s)
        spectral = gaussian.log_negativity(four_mode.build_transform([params]), pairblock)[0]
        if abs(spectral * spectral - 4.0 * s * s) > 1e-8:
            failures.append(f"off 4s^2 by > 1e-8 at a={a} s={s}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    _verdict(2, "interpair block entanglement", failures)


def test_acceptance_03_monogamy_surface():
    failures = []
    start = time.perf_counter()
    for a in GRID:
        for s in GRID:
            params = contangle.SqueezingParams(a, s)
            forms = contangle.closed_forms(params)
            residual = forms.monogamy_slack
            if residual < -SLACK:
                failures.append(f"negative residual {residual:.3e} at a={a:.1f} s={s:.1f}")
            branches = [
                forms.one_vs_rest_contangle[probe]
                - sum(
                    forms.pairwise_contangle[(min(probe, o), max(probe, o))]
                    for o in contangle.PROBES
                    if o != probe
                )
                for probe in contangle.PROBES
            ]
            if branches[0] > min(branches) + SLACK:
                failures.append(f"probe-1 branch not minimal at a={a:.1f} s={s:.1f}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.3f}s >= 10s")
    _verdict(3, "monogamy surface", failures)


def test_acceptance_04_strong_monogamy_chain():
    failures = []
    for a in GRID:
        for s in GRID:
            outcome = contangle.closed_forms(contangle.SqueezingParams(a, s))
            if not outcome.residual >= outcome.tripartite_bound >= 0.0:
                failures.append(
                    f"chain {outcome.residual:.3e} >= {outcome.tripartite_bound:.3e} >= 0 "
                    f"broken at a={a:.1f} s={s:.1f}"
                )
    far = contangle.closed_forms(contangle.SqueezingParams(5.0, 1.0)).tripartite_bound
    if not far < 0.01:
        failures.append(f"bound at a=5 s=1 is {far:.4f}, not < 0.01")
    _verdict(4, "strong-monogamy chain", failures)


def test_acceptance_05_pair_separability():
    failures = []
    always_separable = ((1, 3), (2, 4), (1, 4))
    for a in GRID:
        for s in GRID:
            params = contangle.SqueezingParams(a, s)
            nu_min = four_mode.spectral_forms([params]).pair_nu_min[0]
            verdicts = dict(zip(contangle.PAIRS, four_mode.ppt_separable(nu_min).tolist()))
            threshold = contangle.separability_threshold(s)
            for pair in always_separable:
                if not verdicts[pair]:
                    failures.append(f"pair {pair} not separable at a={a:.1f} s={s:.1f}")
            if abs(a - threshold) > 1e-6:
                expected = a >= threshold
                if verdicts[(2, 3)] != expected:
                    failures.append(f"middle-pair verdict wrong at a={a:.1f} s={s:.1f}")
    for s in GRID:
        if s == 0.0:
            continue
        at = contangle.SqueezingParams(contangle.separability_threshold(s), s)
        reduced = gaussian.reduce(four_mode.build_state([at]), [1, 2])
        nu_min = float(
            gaussian.symplectic_eigenvalues(
                gaussian.partial_transpose(
                    reduced, gaussian.ModePartition(frozenset({0}), frozenset({1}))
                )
            ).min()
        )
        if abs(nu_min - 1.0) > 1e-7:
            failures.append(f"threshold nu_min {nu_min!r} off 1 by > 1e-7 at s={s:.1f}")
    _verdict(5, "pair separability structure", failures)


def test_acceptance_06_bounding_state_positivity():
    failures = []
    axis = np.linspace(0.1, 2.0, 20)
    for a in axis:
        for s in axis:
            params = contangle.SqueezingParams(float(a), float(s))
            reduced = gaussian.reduce(four_mode.build_state([params]), [0, 1, 2])
            bounding = four_mode.bounding_tripartite_state([params])
            min_eig = float(np.linalg.eigvalsh(reduced.data - bounding.data).min())
            if min_eig < -1e-8:
                failures.append(f"min eigenvalue {min_eig:.3e} at a={a:.3f} s={s:.3f}")
    _verdict(6, "bounding-state positivity", failures)


def test_acceptance_07_qudit_tangle_identities():
    failures = []
    for d in range(4, 44, 4):
        report = qudit.tangle_report(d)
        expected = (Fraction(d, 4), Fraction(d, 9), Fraction(17 * d, 36))
        got = (report.three_tangle, report.pairwise_tangle, report.one_vs_rest_tangle)
        if got != expected:
            failures.append(f"tangle triple {got} != {expected} at d={d}")
        if report.monogamy_gap != 0:
            failures.append(f"monogamy gap {report.monogamy_gap} != 0 at d={d}")
    ghz, w = qubits.ghz3(), qubits.w3()
    ghz_rest = qubits.one_vs_rest_tangle_qubit(ghz, 0)
    w_rest = qubits.one_vs_rest_tangle_qubit(w, 0)
    ghz_pair = qubits.concurrence(qubits.reduced_density(ghz, (2, 2, 2), [0, 1])) ** 2
    w_pair = qubits.concurrence(qubits.reduced_density(w, (2, 2, 2), [0, 1])) ** 2
    ingredients = (
        ("GHZ one-vs-rest", ghz_rest, 1.0),
        ("W one-vs-rest", w_rest, 8.0 / 9.0),
        ("W pairwise", w_pair, 4.0 / 9.0),
        ("GHZ pairwise", ghz_pair, 0.0),
        ("GHZ three-tangle", ghz_rest - 2.0 * ghz_pair, 1.0),
        ("W three-tangle", w_rest - 2.0 * w_pair, 0.0),
    )
    for name, value, target in ingredients:
        if abs(value - target) > 1e-10:
            failures.append(f"{name} ingredient {value!r} off {target} by > 1e-10")
    _verdict(7, "qudit tangle identities", failures)


def test_acceptance_08_nongaussianity_gap():
    failures = []
    exact_d4 = float(Fraction(1, 2) + Fraction(1, 48) - Fraction(28, 729))
    value = qudit.nongaussianity(4)
    if abs(value - 0.48242) > 1e-5:
        failures.append(f"value at d=4 {value!r} off 0.48242 by > 1e-5")
    if abs(value - exact_d4) > 1e-12:
        failures.append(f"value at d=4 {value!r} disagrees with the exact rational")
    for d in range(4, 100, 4):
        if qudit.nongaussianity(d) < 0.48:
            failures.append(f"below 0.48 at d={d}")
    if abs(qudit.nongaussianity(200) - 0.5) >= 1e-10:
        failures.append(f"limit at d=200 off 1/2: {qudit.nongaussianity(200)!r}")
    _verdict(8, "non-Gaussianity gap", failures)


def test_acceptance_09_squashed_bounds():
    failures = []
    eigs = np.linalg.eigvalsh(qubits.reduced_density(qubits.w3(), (2, 2, 2), [0]))
    if float(np.abs(eigs - np.array([1.0 / 3.0, 2.0 / 3.0])).max()) > 1e-10:
        failures.append(f"W one-qubit eigenvalues {eigs} not (1/3, 2/3)")
    for d in range(4, 44, 4):
        bounds = qudit.squashed_bounds(d)
        if abs(bounds.one_vs_rest - 0.47956 * d) > 1e-4 * d:
            failures.append(f"one-vs-rest {bounds.one_vs_rest!r} off 0.47956*d at d={d}")
        if bounds.tripartite_lower != Fraction(d, 4):
            failures.append(f"tripartite lower {bounds.tripartite_lower} != d/4 at d={d}")
        if not bounds.pairwise_witness > 0.29:
            failures.append(f"witness {bounds.pairwise_witness!r} not > 0.29 at d={d}")
    _verdict(9, "squashed-entanglement bounds", failures)


def _spectral_tripartite_bound(a: float, s: float) -> float:
    # second route to the tripartite bound of contangle.closed_forms:
    # squared log-negativities of the pure bounding state across 1|23 and
    # 3|12 in place of the g[m^2] closed forms, less the pair contangles
    # tau_12 and tau_23.  log_negativity takes the bounding state's transform,
    # whose state is four_mode.bounding_tripartite_state's
    params = contangle.SqueezingParams(a, s)
    bounding = gaussian.compose(
        gaussian.two_mode_squeezer(0, 1, [a], 3),
        gaussian.two_mode_squeezer(1, 2, [contangle.bounding_squeezing_degree(params)], 3),
    )
    assert np.array_equal(gaussian.pure_state(bounding).data, four_mode.bounding_tripartite_state([params]).data)
    cut_1 = gaussian.ModePartition(frozenset({0}), frozenset({1, 2}))
    cut_3 = gaussian.ModePartition(frozenset({2}), frozenset({0, 1}))
    tau = contangle.closed_forms(params).pairwise_contangle
    term1 = gaussian.log_negativity(bounding, cut_1).item() ** 2 - tau[(1, 2)]
    term2 = gaussian.log_negativity(bounding, cut_3).item() ** 2 - tau[(2, 3)]
    return max(0.0, min(term1, term2))


def test_acceptance_10_sweep_column_trends(run_cli, tmp_path):
    # The residual column grows with a while the tripartite-bound column
    # stays capped and dies away.  The bound is not monotone in a: it is
    # exactly zero at a=0 (mode 1 is vacuum and decouples), rises to one
    # interior peak and then decays.  Each fixed-s row is checked for that
    # shape, and every bound cell against a spectral twin, so a wrong bound
    # of any shape fails.
    failures = []
    out_file = tmp_path / "sweep.csv"
    start = time.perf_counter()
    code, _, err = run_cli("fourmode", "sweep", "--out", str(out_file))
    elapsed = time.perf_counter() - start
    assert code == 0, err
    if elapsed >= 30.0:
        failures.append(f"sweep runtime {elapsed:.1f}s >= 30s")

    header, *rows = out_file.read_text().splitlines()
    columns = header.split(",")
    i_a, i_s = columns.index("a"), columns.index("s")
    i_res, i_bound = columns.index("tau_res"), columns.index("tau_tri_bound")
    by_s: dict = {}
    for row in rows:
        cells = row.split(",")
        a, s = float(cells[i_a]), float(cells[i_s])
        bound = float(cells[i_bound])
        twin = _spectral_tripartite_bound(a, s)
        if abs(bound - twin) > 1e-9:
            failures.append(f"tau_tri_bound {bound!r} off spectral twin {twin!r} at a={a} s={s}")
        by_s.setdefault(cells[i_s], []).append((a, float(cells[i_res]), bound))
    assert len(by_s) == 26 and all(len(points) == 26 for points in by_s.values())
    for s_label, points in by_s.items():
        points.sort()
        flat = float(s_label) == 0.0
        bounds = [bound for _, _, bound in points]
        for (_, res_lo, _), (a_hi, res_hi, _) in zip(points, points[1:]):
            if flat and abs(res_hi - res_lo) > SLACK:
                failures.append(f"tau_res not flat at s={s_label} a->{a_hi}")
            if not flat and not res_hi > res_lo:
                failures.append(f"tau_res not increasing at s={s_label} a->{a_hi}")
        if bounds[0] != 0.0:
            failures.append(f"tau_tri_bound {bounds[0]!r} not exactly 0 at a=0 s={s_label}")
        if flat:
            if any(bound != 0.0 for bound in bounds):
                failures.append(f"tau_tri_bound not identically 0 at s={s_label}")
            continue
        peak = max(range(len(bounds)), key=bounds.__getitem__)
        if not 0 < peak < len(bounds) - 1:
            failures.append(f"tau_tri_bound peak at grid index {peak}, not interior, at s={s_label}")
        for k in range(len(bounds) - 1):
            a_hi = points[k + 1][0]
            if k < peak and not bounds[k + 1] >= bounds[k] - SLACK:
                failures.append(f"tau_tri_bound dips before its peak at s={s_label} a->{a_hi}")
            if k >= peak and not bounds[k + 1] <= bounds[k] + SLACK:
                failures.append(f"tau_tri_bound rises after its peak at s={s_label} a->{a_hi}")
        if not bounds[-1] < bounds[peak]:
            failures.append(f"tau_tri_bound has no decaying tail at s={s_label}")
    if len(failures) > 8:
        failures = failures[:8] + [f"... and {len(failures) - 8} more"]
    _verdict(10, "sweep column trends", failures)
