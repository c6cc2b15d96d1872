"""Tests of the benchmark itself: seeded inputs, output checks, tracer.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import streams  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

from promiscuity import cli, four_mode  # noqa: E402


def test_same_seed_gives_same_inputs():
    assert streams.sweep_config(7) == streams.sweep_config(7)
    assert streams.first_requests(7, 300) == streams.first_requests(7, 300)
    assert streams.probe_requests(7) == streams.probe_requests(7)
    assert streams.sweep_config(7) != streams.sweep_config(8)
    assert streams.first_requests(7, 50) != streams.first_requests(8, 50)


def test_request_stream_mix_and_ranges():
    requests = streams.first_requests(0, 4000)
    fourmode = [r for r in requests if r[0] == "fourmode"]
    qudit = [int(r[3]) for r in requests if r[0] == "qudit"]
    assert 0.12 < len(qudit) / len(requests) < 0.18
    assert all(d % 4 == 0 and 4 <= d <= streams.QUDIT_LARGE_D for d in qudit)
    points = [(float(r[3]), float(r[5])) for r in fourmode]
    assert all(0 <= a <= 2.5 and 0 <= s <= 2.5 for a, s in points)
    assert len(set(points)) == len(points)
    assert {r[7] for r in requests if r[0] == "fourmode"} == {"json", "csv"}


def _sweep_csv(tmp_path, steps=5):
    config_text = streams.sweep_config(0)
    config, out = tmp_path / "grid.cfg", tmp_path / "sweep.csv"
    config.write_text(config_text)
    _, rc, _ = run.call_cli(cli, streams.sweep_argv(str(config), str(out), steps))
    assert rc == 0
    return out.read_text(), config_text


def _corrupt(csv_text: str, row: int, column: int) -> str:
    lines = csv_text.split("\n")
    fields = lines[row + 1].split(",")
    digit = next(k for k in range(len(fields[column]) - 1, -1, -1) if fields[column][k].isdigit())
    value = fields[column]
    fields[column] = value[:digit] + str((int(value[digit]) + 1) % 10) + value[digit + 1 :]
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def test_sweep_check_accepts_the_program_and_rejects_a_corrupted_digit(tmp_path):
    csv_text, config_text = _sweep_csv(tmp_path)
    assert checks.check_sweep(csv_text, config_text, 5, sample_seed=0) == []
    last = 5 * 5 - 1  # the deepest-squeezed row is always in the oracle sample
    for column in (5, 6):  # tau_pairblock, tau_1_rest
        bad = _corrupt(csv_text, last, column)
        assert checks.check_sweep(bad, config_text, 5, sample_seed=0)
    flipped = csv_text.replace("true,true", "true,false", 1)
    assert checks.check_sweep(flipped, config_text, 5, sample_seed=0)


def test_oracle_matches_the_benchmark_point():
    one_rest, pairblock = checks.oracle_contangles(1.5, 1.0)
    assert abs(pairblock - 4.0) < 1e-12
    assert abs(one_rest - 14.517686046189343) < 1e-9


def test_verify_check_rejects_a_wrong_total():
    good = [f"{name}: {n}/{n} ok" for name, n in checks.VERIFY_COUNTS.items()]
    good.append(f"total: {checks.VERIFY_TOTAL}/{checks.VERIFY_TOTAL} checks passed")
    assert checks.check_verify(0, "\n".join(good) + "\n") == []
    wrong = good[:-1] + [f"total: {checks.VERIFY_TOTAL - 1}/{checks.VERIFY_TOTAL} checks passed"]
    assert checks.check_verify(0, "\n".join(wrong) + "\n")
    assert checks.check_verify(1, "\n".join(good) + "\n")


def test_report_check_rejects_consistent_false():
    for fmt in ("json", "csv"):
        argv = ["fourmode", "report", "--a", "1.25", "--s", "0.5", "--format", fmt]
        _, rc, out = run.call_cli(cli, argv)
        assert checks.check_request(argv, rc, out) == []
        forged = out.replace("true", "false") if fmt == "csv" else out.replace('"consistent": true', '"consistent": false')
        assert checks.check_request(argv, rc, forged)
    # a real inconsistency from the edge band, reported with exit 1
    argv = ["fourmode", "report", "--a", "0.0", "--s", "5.5", "--format", "json"]
    _, rc, out = run.call_cli(cli, argv)
    assert rc == 1 and checks.check_request(argv, rc, out)


def test_qudit_check_rejects_a_wrong_rational():
    argv = ["qudit", "report", "--d", "36", "--format", "json"]
    _, rc, out = run.call_cli(cli, argv)
    assert checks.check_request(argv, rc, out) == []
    assert checks.check_request(argv, rc, out.replace('"pairwise_tangle_exact": "4"', '"pairwise_tangle_exact": "5"'))


def test_tracer_counts_spans_and_restores_the_program():
    original = four_mode.build_state
    tracer = Tracer()
    tracer.install()
    try:
        assert four_mode.build_state is not original
        _, rc, _ = run.call_cli(cli, ["fourmode", "report", "--a", "1.5", "--s", "1.0"])
    finally:
        tracer.uninstall()
    assert rc == 0 and four_mode.build_state is original
    summary = summarize(tracer.spans())
    assert summary["four_mode.build_state"]["calls"] == 1
    assert summary["four_mode.full_report"]["calls"] == 1
    assert summary["cli.main"]["calls"] == 1
    assert tracer.counters["gaussian.linalg_calls"] > 0
    for span in summary.values():
        assert 0 <= span["self_s"] <= span["total_s"] + 1e-9


def test_fresh_process_throughput_follows_the_median_op():
    sweep = object.__new__(run.Sweep)
    metrics = run.time_metrics(sweep, [2.0, 2.0, 10.0])
    assert metrics["op_p50_ms"] == 2000.0
    assert metrics["work_per_s"] == run.Sweep.work_per_op / 2.0
