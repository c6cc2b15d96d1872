"""Benchmark of the promiscuity CLI: three workloads, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
its `src/` directory, and the run fails without printing a result when
that directory is missing.  The last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the line
before it, starting with `# env`, records the machine, nproc, Python
and numpy versions and the sweep pool width.  A readable summary goes
to stderr.

Workloads (see BENCHMARK.json for why each exists):
  sweep_dense     fresh-process `fourmode sweep --steps 201 --config CFG`,
                  a_max and s_max drawn from the seed
  verify_battery  fresh-process `verify` on the default grid; seed unused
  point_reports   seeded stream of `fourmode report` / `qudit report`
                  requests through in-process `promiscuity.cli.main`

`--trace 0` runs untraced ops for --seconds and reports the end-to-end
metrics.  Their times are taken at reference speed (see reference.py):
each op, and each set-up, is bracketed by runs of a fixed reference
computation, and its wall time is scaled by REF_UNIT_S over the
reference's time beside it, so that the host's swings in speed cancel.
Raw wall times go to stderr.

`--trace 1` runs a fixed TRACE_PAIRS pairs of untraced and traced
units (one op for the fresh-process workloads, a block of BLOCK
requests for point_reports), so its counts repeat exactly for a seed,
and reports the per-layer metrics; it then runs the seeded domain probe
of inputs known to fail.  Every op's output is checked outside
its timed span.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from array import array
from importlib import metadata
from pathlib import Path
from time import perf_counter

# perfbench/ is sys.path[0] when this file runs as a script
import checks
import reference
import streams
from child import peak_rss_kb

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

WORKLOADS = ("sweep_dense", "verify_battery", "point_reports")
SETUP_REPEATS = 15
SETUP_REF_UNITS = 150
TRACE_PAIRS = 3
BLOCK = 250
REF_EVERY = 20
DIGEST_REQUESTS = 200
CHILD_TIMEOUT_S = 120
DIGESTS = BENCH / "digests.json"


# -- running the program ---------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # the sweep pool stays at the program's default width
    env.pop("PROMISCUITY_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def run_child(cli_args: list[str], spans_path: Path | None = None):
    """One fresh-process CLI call: (seconds, rc, stdout, meta)."""
    meta_path = WORK / "child-meta.json"
    meta_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH / "child.py"), str(SRC), str(meta_path),
        str(spans_path) if spans_path else "-", "--", *cli_args,
    ]
    start = perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=child_env(), cwd=WORK
        )
    except subprocess.TimeoutExpired:
        return perf_counter() - start, -1, "", {}
    seconds = perf_counter() - start
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return seconds, proc.returncode, proc.stdout, meta


def call_cli(cli, argv: list[str]):
    """One in-process `cli.main(argv)` call: (seconds, rc, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # counted as a failed op, never fatal
            rc = 70
            err.write(repr(exc))
        seconds = perf_counter() - start
    finally:
        sys.stdout, sys.stderr = saved
    return seconds, rc, out.getvalue()


def import_cli():
    sys.path.insert(0, str(SRC))
    from promiscuity import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's src/")
    return cli


def measure_setup() -> tuple[float, float]:
    """Median time of a fresh interpreter importing promiscuity.cli.

    Returns (at reference speed, raw wall time).  Each import is
    bracketed by reference runs.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import promiscuity.cli"
    raw, scaled = [], []
    ref = reference.unit_seconds_all_cpus(SETUP_REF_UNITS)
    for k in range(SETUP_REPEATS + 1):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=child_env(), cwd=WORK)
        seconds = perf_counter() - start
        after = reference.unit_seconds_all_cpus(SETUP_REF_UNITS)
        if k:  # the first import may compile bytecode; it is not timed
            raw.append(seconds)
            scaled.append(seconds * reference.REF_UNIT_S * 2 / (ref + after))
        ref = after
    return statistics.median(scaled), statistics.median(raw)


# -- digests ------------------------------------------------------------------------


def recorded_digest(workload: str, seed: int) -> str | None:
    table = json.loads(DIGESTS.read_text())[workload]
    return table if isinstance(table, str) else table.get(str(seed))


def request_digest(records) -> str:
    """sha256 over (argv, exit code, stdout) of each request, in order."""
    h = hashlib.sha256()
    for argv, rc, stdout in records:
        h.update(f"{' '.join(argv)}\n{rc}\n{stdout}".encode())
    return h.hexdigest()


# -- one op per workload --------------------------------------------------------------


class Op:
    """Outcome of one op: time, failure, grid points and output size."""

    def __init__(self, seconds, problems, points, bytes_out, rss_kb=0, meta=None):
        self.seconds = seconds
        self.problems = problems
        self.points = points
        self.bytes_out = bytes_out
        self.rss_kb = rss_kb
        self.meta = meta or {}


class Sweep:
    work_unit = "points/s"
    tail_percentile = 50  # about 14 ops per run: no higher percentile has ten beyond
    ref_units = 500  # about 0.2 s of reference on each side of a 2.5 s op
    work_per_op = streams.SWEEP_STEPS ** 2

    def __init__(self, seed: int):
        self.seed = seed
        self.config_text = streams.sweep_config(seed)
        self.config = WORK / "sweep.cfg"
        self.config.write_text(self.config_text)
        self.out = WORK / "sweep.csv"
        self.expected = recorded_digest("sweep_dense", seed)
        self.verified: dict[str, list[str]] = {}

    def op(self, spans: Path | None = None) -> Op:
        self.out.unlink(missing_ok=True)
        seconds, rc, _, meta = run_child(streams.sweep_argv(str(self.config), str(self.out)), spans)
        data = self.out.read_bytes() if self.out.exists() else b""
        digest = hashlib.sha256(data).hexdigest()
        if rc != 0:
            problems = [f"sweep exited {rc}"]
        elif digest in self.verified:  # identical bytes pass or fail identically
            problems = self.verified[digest]
        else:
            problems = checks.check_sweep(data.decode(), self.config_text, streams.SWEEP_STEPS, self.seed)
            if self.expected and digest != self.expected:
                problems.append(f"sweep digest {digest} differs from the recorded {self.expected}")
            self.verified[digest] = problems
        return Op(seconds, problems, self.work_per_op, len(data), meta.get("peak_rss_kb", 0), meta)

    def unit(self) -> list[Op]:
        return [self.op()]


class Verify:
    work_unit = "checks/s"
    tail_percentile = 50  # about 14 ops per run: no higher percentile has ten beyond
    ref_units = 500
    work_per_op = checks.VERIFY_TOTAL
    points = 26 * 26

    def __init__(self, seed: int):
        self.expected = recorded_digest("verify_battery", seed)

    def op(self, spans: Path | None = None) -> Op:
        seconds, rc, stdout, meta = run_child(list(streams.VERIFY_ARGV), spans)
        problems = checks.check_verify(rc, stdout)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digest != self.expected:
            problems.append(f"verify digest {digest} differs from the recorded {self.expected}")
        return Op(seconds, problems, self.points, len(stdout.encode()), meta.get("peak_rss_kb", 0), meta)

    def unit(self) -> list[Op]:
        return [self.op()]


class Points:
    work_unit = "requests/s"
    tail_percentile = 90
    # reference runs bracket each group of REF_EVERY requests (about 60 ms)
    ref_units = 10

    def __init__(self, seed: int):
        self.cli = import_cli()
        self.stream = streams.point_requests(seed)
        self.expected = recorded_digest("point_reports", seed)
        self.head: list = []

    def request(self, argv: list[str]) -> Op:
        seconds, rc, stdout = call_cli(self.cli, argv)
        problems = checks.check_request(argv, rc, stdout)
        if len(self.head) < DIGEST_REQUESTS:
            self.head.append((argv, rc, stdout))
            if len(self.head) == DIGEST_REQUESTS and self.expected:
                digest = request_digest(self.head)
                if digest != self.expected:
                    problems.append(f"first-{DIGEST_REQUESTS} digest {digest} differs from {self.expected}")
        points = 1 if argv[0] == "fourmode" else 0
        return Op(seconds, problems, points, len(stdout.encode()))

    def op(self) -> Op:
        return self.request(next(self.stream))

    def unit(self) -> list[Op]:
        return [self.op() for _ in range(REF_EVERY)]

    def block(self, tracer=None) -> list[Op]:
        requests = [next(self.stream) for _ in range(BLOCK)]
        if tracer is not None:
            tracer.install()
        try:
            ops = []
            for k, argv in enumerate(requests):
                if tracer is not None:
                    tracer.request = k
                ops.append(self.request(argv))
            return ops
        finally:
            if tracer is not None:
                tracer.uninstall()


class Tally:
    """Totals over a run's ops.

    It keeps two floats per op, its wall time and its time at reference
    speed, and drops the rest of each op, so that the benchmark's own
    memory does not grow with the op count and leak into `peak_rss_mb`.
    """

    def __init__(self):
        self.times = array("d")
        self.scaled = array("d")
        self.rss_kb: list[int] = []
        self.failures: list[list[str]] = []
        self.ref_s: list[float] = []

    def add(self, op: Op, scale: float = 1.0) -> None:
        self.times.append(op.seconds)
        self.scaled.append(op.seconds * scale)
        if op.rss_kb:
            self.rss_kb.append(op.rss_kb)
        if op.problems:
            self.failures.append(op.problems)


def make_workload(name: str, seed: int):
    return {"sweep_dense": Sweep, "verify_battery": Verify, "point_reports": Points}[name](seed)


# -- metrics ---------------------------------------------------------------------------


def tail(times: list[float], percentile: int) -> float:
    """The op time at a workload's tail percentile.

    The percentile is fixed per workload, so the metric means the same
    thing in every run.
    """
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=100, method="inclusive")[percentile - 1]


def time_metrics(workload, times: list[float]) -> dict[str, float]:
    """op_p50_ms, op_tail_ms and work_per_s from a run's op times.

    Every fresh-process op does the same work, so there the throughput is
    one op's work over the median op time; a mean over about 14 ops moves
    with the one op that a burst of contention hit.  On point_reports the
    requests differ, so it is requests over their summed time.
    """
    p50_s = statistics.median(times)
    if isinstance(workload, Points):
        per_s = len(times) / sum(times)
    else:
        per_s = workload.work_per_op / p50_s
    return {
        "op_p50_ms": p50_s * 1e3,
        "op_tail_ms": tail(times, workload.tail_percentile) * 1e3,
        "work_per_s": per_s,
    }


def end_to_end(workload, tally: Tally, setup_s: float, own_rss_kb: int) -> dict:
    rss_kb = own_rss_kb or statistics.median(tally.rss_kb)
    timed = time_metrics(workload, list(tally.scaled))
    values = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (timed["op_p50_ms"], "ms"),
        "op_tail_ms": (timed["op_tail_ms"], "ms"),
        "work_per_s": (timed["work_per_s"], "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


LAYER_UNITS = {
    "cli.main.self_s": "s",
    "cli.bytes_out": "bytes",
    "contangle.calls": "count",
    "contangle.self_s": "s",
    "contangle.us_per_point": "us",
    "gaussian.symplectic_eigenvalues.calls": "count",
    "gaussian.symplectic_eigenvalues.self_s": "s",
    "gaussian.log_negativity.calls": "count",
    "gaussian.log_negativity.self_s": "s",
    "gaussian.is_pure.calls": "count",
    "gaussian.cm_validations": "count",
    "gaussian.transform_validations": "count",
    "gaussian.linalg_calls": "count",
    "gaussian.linalg_matrices": "count",
    "four_mode.build_state.calls": "count",
    "four_mode.build_state.self_s": "s",
    "four_mode.full_report.calls": "count",
    "four_mode.full_report.self_s": "s",
    "four_mode.builds_per_point": "ratio",
    **{f"verification.suite.{name}.s": "s" for name in checks.VERIFY_COUNTS},
    "verification.checks": "count",
    "qudit.tangle_report.calls": "count",
    "qudit.tangle_report.self_s": "s",
    "qudit.squashed_bounds.calls": "count",
    "config.load_config.calls": "count",
    "config.load_config.self_s": "s",
    "trace.overhead_pct": "%",
    "probe.edge_band_failed_share": "share",
    "probe.large_d_failed_share": "share",
}


def unit_layers(summary: dict, counters: dict, ops: list[Op]) -> dict[str, float]:
    """Per-layer values of one traced unit, normalised per op."""
    n = len(ops)
    points = sum(op.points for op in ops)

    def span(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0)

    contangle = [v for k, v in summary.items() if k.startswith("contangle.")]
    contangle_self = sum(v["self_s"] for v in contangle)
    values = {
        "cli.main.self_s": span("cli.main", "self_s") / n,
        "cli.bytes_out": sum(op.bytes_out for op in ops) / n,
        "contangle.calls": sum(v["calls"] for v in contangle) / n,
        "contangle.self_s": contangle_self / n,
        "contangle.us_per_point": contangle_self * 1e6 / points if points else 0.0,
        "four_mode.builds_per_point": span("four_mode.build_state", "calls") / points if points else 0.0,
        "verification.checks": counters.get("verification.checks", 0) / n,
    }
    for name in ("gaussian.symplectic_eigenvalues", "gaussian.log_negativity",
                 "four_mode.build_state", "four_mode.full_report", "qudit.tangle_report",
                 "config.load_config"):
        values[f"{name}.calls"] = span(name, "calls") / n
        values[f"{name}.self_s"] = span(name, "self_s") / n
    values["qudit.squashed_bounds.calls"] = span("qudit.squashed_bounds", "calls") / n
    for name in ("gaussian.is_pure.calls", "gaussian.cm_validations",
                 "gaussian.transform_validations", "gaussian.linalg_calls",
                 "gaussian.linalg_matrices"):
        values[name] = counters.get(name, 0) / n
    for suite in checks.VERIFY_COUNTS:
        values[f"verification.suite.{suite}.s"] = span(f"verification.suite.{suite}", "total_s") / n
    return values


def domain_probe(seed: int) -> dict[str, float]:
    """Failed share of the seeded inputs known to fail at the seed commit."""
    cli = import_cli()
    failed = {"fourmode": [], "qudit": []}
    for argv in streams.probe_requests(seed):
        _, rc, stdout = call_cli(cli, argv)
        failed[argv[0]].append(bool(checks.check_request(argv, rc, stdout)))
    return {
        "probe.edge_band_failed_share": sum(failed["fourmode"]) / len(failed["fourmode"]),
        "probe.large_d_failed_share": sum(failed["qudit"]) / len(failed["qudit"]),
    }


# -- the two kinds of run ----------------------------------------------------------------


def untraced_run(workload, seconds: float) -> Tally:
    """Closed-loop ops for `seconds`, each group bracketed by reference runs."""
    tally = Tally()
    deadline = perf_counter() + seconds
    # point requests run in this process, on the CPU its reference runs on
    measure = reference.unit_seconds if isinstance(workload, Points) else reference.unit_seconds_all_cpus
    ref = measure(workload.ref_units)
    while not tally.times or perf_counter() < deadline:
        ops = workload.unit()
        after = measure(workload.ref_units)
        scale = reference.REF_UNIT_S * 2 / (ref + after)
        for op in ops:
            tally.add(op, scale)
        tally.ref_s.append(after)
        ref = after
    return tally


def traced_run(name: str, workload, seed: int) -> tuple[list[Op], dict]:
    from tracer import Tracer, load, summarize

    ops, units, overheads = [], [], []
    spans_path = WORK / f"spans-{name}.npz"
    for _ in range(TRACE_PAIRS):
        if isinstance(workload, Points):
            plain = workload.block()
            tracer = Tracer()
            traced = workload.block(tracer)
            tracer.dump(spans_path)
            counters = dict(tracer.counters)
        else:
            plain = [workload.op()]
            traced = [workload.op(spans_path)]
            counters = traced[0].meta.get("counters", {})
        ops += plain + traced
        units.append(unit_layers(summarize(load(spans_path)), counters, traced))
        overheads.append(sum(op.seconds for op in traced) / sum(op.seconds for op in plain) - 1)
    layers = {name: statistics.median(u[name] for u in units) for name in units[0]}
    layers["trace.overhead_pct"] = statistics.median(overheads) * 100
    layers.update(domain_probe(seed))
    return ops, {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "sweep_pool_width": min(4, os.cpu_count() or 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of an untraced run (the traced run does fixed work)")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "promiscuity" / "cli.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.seed)
    env = environment()
    raw = {}
    if args.trace:
        tally = Tally()
        ops, metrics = traced_run(args.workload, workload, args.seed)
        for op in ops:
            tally.add(op)
    else:
        setup_s, raw["setup_s"] = measure_setup()
        tally = untraced_run(workload, args.seconds)
        own_rss = peak_rss_kb() if isinstance(workload, Points) else 0
        metrics = end_to_end(workload, tally, setup_s, own_rss)
        raw.update(time_metrics(workload, list(tally.times)))
        env["reference_unit_ms"] = statistics.median(tally.ref_s) * 1e3
    attempted, failed = len(tally.times), len(tally.failures)
    for problems in tally.failures[:5]:
        print(f"failed op: {problems[:3]}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, "
          f"{failed} failed, error_rate {failed / attempted:.4g} share", file=sys.stderr)
    if raw:
        print(f"  times at reference speed; raw wall time in brackets; reference unit "
              f"{env['reference_unit_ms']:.4g} ms against {reference.REF_UNIT_S * 1e3:.4g} ms",
              file=sys.stderr)
    for name, metric in metrics.items():
        note = {
            "op_tail_ms": f"  (p{workload.tail_percentile} of {attempted} ops)",
            "work_per_s": f"  ({workload.work_unit})",
        }.get(name, "")
        if name in raw:
            note = f"  [{raw[name]:.6g}]" + note
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}{note}", file=sys.stderr)
    print("# env " + json.dumps(env))
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
