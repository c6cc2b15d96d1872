import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from promiscuity import cli, contangle, verification
from promiscuity.config import GridConfig, load_config

BENCH_ROW = "1.5,1,9,0,0,4,14.5176860462,5.51768604619,0.451130557189,true,true"
SWEEP_HEADER = (
    "a,s,tau_12,tau_23,tau_14,tau_pairblock,tau_1_rest,"
    "tau_res,tau_tri_bound,monogamy_ok,strong_monogamy_ok"
)
REPORT_HEADER = (
    "a,s,tau_12,tau_13,tau_14,tau_23,tau_24,tau_34,"
    "tau_1_rest,tau_2_rest,tau_3_rest,tau_4_rest,tau_pairblock,tau_res,tau_tri_bound,"
    "monogamy_ok,strong_monogamy_ok,near_threshold,consistent,max_route_deviation"
)
QUDIT_HEADER = (
    "d,three_tangle,three_tangle_exact,pairwise_tangle,pairwise_tangle_exact,"
    "one_vs_rest_tangle,one_vs_rest_tangle_exact,monogamy_gap,monogamy_gap_exact,"
    "nongaussianity,squashed_one_vs_rest,squashed_tripartite_lower,"
    "squashed_tripartite_lower_exact,squashed_pairwise_form,squashed_pairwise_witness"
)


def test_report_json_is_deterministic(run_cli):
    code1, out1, _ = run_cli("fourmode", "report", "--a", "1.5", "--s", "1.0")
    code2, out2, _ = run_cli("fourmode", "report", "--a", "1.5", "--s", "1.0")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["tau_12"] == 9.0
    assert payload["tau_res"] == pytest.approx(5.51768604619, abs=1e-10)
    assert payload["monogamy_ok"] is True
    # round-trip stability: the printed floats survive a load/dump cycle
    assert json.loads(json.dumps(payload)) == payload


def test_report_csv_format(run_cli):
    code, out, _ = run_cli("fourmode", "report", "--a", "0.5", "--s", "0.25", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("a,s,tau_12,")
    assert row.startswith("0.5,0.25,1,")  # 4a^2 = 1 at a = 0.5


def test_report_rejects_negative_squeezing(run_cli):
    code, _, err = run_cli("fourmode", "report", "--a", "-1", "--s", "1")
    assert code == 2
    assert "non-negative" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_negative_zero_prints_as_zero(capsys, fmt):
    outputs = []
    for value in ("-0", "0"):
        assert cli.main(["fourmode", "report", "--a", value, "--s", value, "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_parsed_state_does_not_carry_over_between_calls(capsys):
    argv = ["fourmode", "report", "--a", "0.5", "--s", "0.25"]
    assert cli.main(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("a,s,tau_12,")
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["tau_12"] == 1.0
    assert cli.build_parser() is cli.build_parser()


def test_report_past_float64_prints_no_runtime_warning(run_cli):
    # the symplectic_400_1 row of test_exit_codes pins the error line; pytest captures
    # warnings in-process, so only a fresh interpreter shows whether one reaches stderr
    code, _, err = run_cli("fourmode", "report", "--a", "400", "--s", "1")
    assert code == 1 and "RuntimeWarning" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("a, s", [(4.0, 1.5), (0.0, 5.5), (4.8, 1.0), (2.8, 3.0)])
def test_report_is_consistent_where_float64_cannot_confirm_purity(capsys, a, s):
    # deep squeezing: the numerical purity test of these states says False,
    # and a partially transposed log-negativity route would lose 1e-6 to
    # 2e-6 there
    assert cli.main(["fourmode", "report", "--a", str(a), "--s", str(s)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["consistent"] is True
    assert payload["max_route_deviation"] < 1e-7


def test_report_where_only_the_lone_middle_squeezer_fails_the_symplectic_check(capsys):
    # the symplectic check reads the transform that builds the state: here
    # S_23(s) alone has defect 2.3e-10 > SYMPLECTIC_TOL, the whole
    # transform 1.3e-11
    assert cli.main(["fourmode", "report", "--a", "0.0625", "--s", "7.4375"]) == 0
    assert json.loads(capsys.readouterr().out)["consistent"] is True


@pytest.mark.parametrize("a, s", [("3", "5"), ("0", "8"), ("400", "1")])
def test_report_refuses_a_transform_that_is_not_symplectic(capsys, a, s):
    # a valid point where float64 loses the symplectic check is a failure (1), not a bad argument
    assert cli.main(["fourmode", "report", "--a", a, "--s", s]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "not symplectic" in lines[0] and f"at a={float(a)}, s={float(s)}" in lines[0]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_inconsistent_report_prints_the_report_and_exits_one(capsys, monkeypatch, fmt):
    # forge a disagreement: every route deviation exceeds a negative tolerance
    from promiscuity import four_mode

    monkeypatch.setattr(four_mode, "ROUTE_TOL", -1.0)
    assert cli.main(["fourmode", "report", "--a", "1.5", "--s", "1", "--format", fmt]) == 1
    captured = capsys.readouterr()
    if fmt == "json":
        payload = json.loads(captured.out)
    else:
        header, row = captured.out.splitlines()
        assert header == REPORT_HEADER
        payload = dict(zip(header.split(","), row.split(",")))
    assert list(payload) == REPORT_HEADER.split(",")
    assert payload["consistent"] in (False, "false")
    assert captured.err == "error: closed-form and spectral routes disagree\n"


def test_report_rejects_unknown_flag(run_cli):
    code, _, _ = run_cli("fourmode", "report", "--a", "1", "--s", "1", "--nope")
    assert code == 2


def test_sweep_header_and_benchmark_row(run_cli, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        "fourmode", "sweep", "--steps", "26", "--out", str(out_file)
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 26 * 26
    assert BENCH_ROW in lines


@pytest.mark.parametrize(
    "argv, header",
    [
        (["fourmode", "report", "--a", "1.5", "--s", "1.0"], REPORT_HEADER),
        (["qudit", "report", "--d", "8"], QUDIT_HEADER),
    ],
)
def test_report_schema(capsys, argv, header):
    # the key order lives only in the row dicts the commands build
    assert cli.main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == header
    assert cli.main([*argv, "--format", "json"]) == 0
    assert ",".join(json.loads(capsys.readouterr().out)) == header


def test_sweep_float64_edge_is_one_error_line(run_cli, tmp_path):
    # at a = 0 and s >= 19.1, tanh(s) rounds to 1 and the 3|12 bound diverges;
    # the first grid point past that edge names itself, even where columns
    # further on would overflow cosh(2s) or exp(2s)
    out_file = tmp_path / "sweep.csv"
    for argv, point in (
        (["--s-max", "30"], "a=0.0, s=19.2"),
        (["--s-max", "400"], "a=0.0, s=32.0"),
        (["--a-max", "1000", "--s-max", "1000"], "a=0.0, s=40.0"),
    ):
        code, _, err = run_cli("fourmode", "sweep", *argv, "--out", str(out_file))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error: tanh(s)/cosh(a) rounds to 1") and point in err
        assert "Traceback" not in err
        assert not out_file.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--a-max", "400"], "(g_function argument must be finite) at a=176.0, s=2.5"),
        (["--a-max", "360", "--steps", "2"], "((34, 'Numerical result out of range')) at a=360.0, s=0.0"),
    ],
    ids=["m_squared_not_finite", "cosh_a_squared"],
)
def test_sweep_float64_overflow_names_the_point(run_cli, tmp_path, argv, message):
    # a physically valid grid past float64 is a failure (1), not a bad argument (2)
    out_file = tmp_path / "sweep.csv"
    code, _, err = run_cli("fourmode", "sweep", *argv, "--out", str(out_file))
    assert code == 1
    assert err == f"error: float64 overflow {message}\n"
    assert not out_file.exists()


def _reference_sweep(cfg: GridConfig) -> str:
    # the sweep CSV rendered point by point from closed_forms records
    lines = [",".join(cli.SWEEP_FIELDS)]
    for a in cfg.a_values():
        for s in cfg.s_values():
            row = cli._closed_form_columns(contangle.closed_forms(contangle.SqueezingParams(a, s)))
            lines.append(",".join(cli._text(row[name]) for name in cli.SWEEP_FIELDS))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "cfg",
    [GridConfig(density=51), GridConfig(a_min=0.35, a_max=3.1, s_min=0.2, s_max=1.7, density=23)],
)
def test_sweep_equals_point_by_point_reference(tmp_path, cfg):
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "".join(f"{key} = {getattr(cfg, key)!r}\n" for key in ("a_max", "a_min", "s_max", "s_min"))
        + f"grid_density = {cfg.density}\n"
    )
    out_file = tmp_path / "sweep.csv"
    assert cli.main(["fourmode", "sweep", "--out", str(out_file), "--config", str(grid)]) == 0
    assert out_file.read_bytes() == _reference_sweep(cfg).encode("ascii")


PINNED_SWEEPS = pytest.mark.parametrize(
    "config, digest",
    [
        (None, "9ec180b81e50e5625fb99049fba0ffbbf76b67354fcd61edf4a8c6f10979b773"),
        ("a_max = 7.0\ns_max = 7.0\ngrid_density = 57\n",
         "25959cda0b47195ffa4aeb46e6ff36b0ef0764cc85901e62ca7db878e41e01a4"),
        ("a_max = 1e-4\ns_max = 5e-8\ngrid_density = 21\n",
         "12fc654643fcf334960b1a0fc508d4d0189354b17beeb7c24a9aa4d07d17df42"),
    ],
    ids=["default_201", "wide_57", "faint_21"],
)


@PINNED_SWEEPS
def test_sweep_bytes_are_pinned(tmp_path, config, digest):
    # The sweep and closed_forms share one kernel, so only a recorded digest
    # catches a bit change in it.  These are the bytes before the flat kernel;
    # ROADMAP item 6 (scale-aware faint-entanglement forms) re-records them on purpose.
    out_file = tmp_path / "sweep.csv"
    argv = ["fourmode", "sweep", "--out", str(out_file)]
    if config is None:
        argv += ["--steps", "201"]
    else:
        (tmp_path / "grid.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "grid.cfg")]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


# the real os.fork, taken once, so that a second _usable_cpus on one
# monkeypatch wraps it and not the first call's wrapper
_FORK = os.fork


def _usable_cpus(monkeypatch, count: int) -> list:
    """Make the sweep see `count` usable CPUs; return the list of its os.fork calls.

    On one CPU a fork raises, since the serial case must never reach it.
    """
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(count)))
    calls = []

    def counted_fork():
        calls.append(1)
        if count == 1:
            raise AssertionError("a one-CPU sweep forked")
        return _FORK()

    monkeypatch.setattr(cli.os, "fork", counted_fork)
    return calls


def _no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("cpus", [1, 2, 3])
@PINNED_SWEEPS
def test_sweep_blocks_reproduce_the_pinned_bytes(monkeypatch, tmp_path, cpus, config, digest):
    # one contiguous block of a-rows per usable CPU, joined in a-major order
    forks = _usable_cpus(monkeypatch, cpus)
    test_sweep_bytes_are_pinned(tmp_path, config, digest)
    assert len(forks) == cpus - 1
    assert _no_children_left()


@pytest.mark.parametrize("cpus, forks", [(1, 0), (2, 1), (3, 1), (8, 1)])
def test_sweep_never_splits_into_more_blocks_than_rows(monkeypatch, tmp_path, cpus, forks):
    calls = _usable_cpus(monkeypatch, cpus)
    out_file = tmp_path / "sweep.csv"
    assert cli.main(["fourmode", "sweep", "--steps", "2", "--a-max", "1.5", "--out", str(out_file)]) == 0
    assert len(calls) == forks
    lines = out_file.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER and [line.split(",")[:2] for line in lines[1:]] == [
        ["0", "0"], ["0", "2.5"], ["1.5", "0"], ["1.5", "2.5"]
    ]
    assert _no_children_left()


def test_sweep_without_cpu_affinity_runs_serially(monkeypatch, tmp_path):
    # macOS and Windows have no os.sched_getaffinity
    _usable_cpus(monkeypatch, 1)
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    out_file = tmp_path / "sweep.csv"
    assert cli.main(["fourmode", "sweep", "--steps", "3", "--out", str(out_file)]) == 0
    assert len(out_file.read_text().splitlines()) == 1 + 3 * 3


@pytest.mark.parametrize("cpus", [1, 2])  # a worker's failure crosses as the line a serial pass prints
@pytest.mark.parametrize(
    "argv, message",
    [
        # both blocks fail; the parent's a = 0 block comes first in a-major order
        (["--s-max", "400"], "error: tanh(s)/cosh(a) rounds to 1 in float64 at a=0.0, s=32.0\n"),
        # only the worker's a = 360 block fails
        (["--a-max", "360", "--steps", "2"],
         "error: float64 overflow ((34, 'Numerical result out of range')) at a=360.0, s=0.0\n"),
    ],
    ids=["parent_block", "worker_block"],
)
def test_sweep_failure_in_either_block_leaves_no_file_and_no_process(monkeypatch, capsys, tmp_path, cpus,
                                                                     argv, message):
    _usable_cpus(monkeypatch, cpus)
    out_file = tmp_path / "sweep.csv"
    assert cli.main(["fourmode", "sweep", *argv, "--out", str(out_file)]) == 1
    assert capsys.readouterr().err == message
    assert not out_file.exists()
    assert _no_children_left()


@pytest.mark.parametrize("how", ["killed", "exit_7"])
def test_sweep_recomputes_the_block_of_a_lost_worker(monkeypatch, capsys, tmp_path, how):
    # a worker killed before it sends its rows, or one that sends every row and then exits 7,
    # costs time, not the answer: its status decides, and the caller computes its block again
    argv = ["fourmode", "sweep", "--steps", "5", "--out", str(tmp_path / "serial.csv")]
    _usable_cpus(monkeypatch, 1)
    assert cli.main(argv) == 0
    if how == "killed":
        parent, rows = os.getpid(), cli._sweep_rows

        def dying_rows(a_values, s_values):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return rows(a_values, s_values)

        monkeypatch.setattr(cli, "_sweep_rows", dying_rows)
    else:
        leave = os._exit
        monkeypatch.setattr(cli.os, "_exit", lambda code: leave(7))
    forks = _usable_cpus(monkeypatch, 2)
    argv[-1] = str(tmp_path / "sweep.csv")
    assert cli.main(argv) == 0
    assert len(forks) == 1 and capsys.readouterr().err == ""
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert _no_children_left()


def test_sweep_bug_in_a_worker_block_fails_as_a_serial_pass(monkeypatch, tmp_path):
    # an error that is no numeric failure, raised in the worker's block (a = 1.25, 1.875
    # and 2.5 of --steps 5), reaches the caller as the same exception a serial pass raises
    rows = cli._sweep_rows

    def buggy_rows(a_values, s_values):
        if 1.25 in a_values:
            raise RuntimeError("bug in the block at a=1.25")
        return rows(a_values, s_values)

    monkeypatch.setattr(cli, "_sweep_rows", buggy_rows)
    out_file = tmp_path / "sweep.csv"
    for cpus in (1, 2):
        with monkeypatch.context() as split, pytest.raises(RuntimeError, match="^bug in the block at a=1.25$"):
            forks = _usable_cpus(split, cpus)
            cli.main(["fourmode", "sweep", "--steps", "5", "--out", str(out_file)])
        assert len(forks) == cpus - 1
        assert not out_file.exists()
        assert _no_children_left()


def test_sweep_interrupted_in_the_parent_kills_and_reaps_its_workers(monkeypatch, tmp_path):
    parent, rows = os.getpid(), cli._sweep_rows

    def interrupted_rows(a_values, s_values):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # a worker still busy: only a kill ends it in time
        return rows(a_values, s_values)

    monkeypatch.setattr(cli, "_sweep_rows", interrupted_rows)
    _usable_cpus(monkeypatch, 3)
    out_file = tmp_path / "sweep.csv"
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli.main(["fourmode", "sweep", "--out", str(out_file)])
    assert time.monotonic() - start < 30
    assert not out_file.exists()
    assert _no_children_left()


# a forked worker must leave through os._exit, never back into its caller's code
_FORK_PROBE = """
import os, sys
from promiscuity import cli
os.sched_getaffinity = lambda pid: {0, 1, 2}
print("before")  # still buffered at the fork: a worker that flushed it on its way out would repeat it
code = cli.main(sys.argv[1:])
print("after", code, sorted({"multiprocessing", "concurrent.futures", "pickle"} & set(sys.modules)))
"""


def test_sweep_workers_never_return_into_the_caller(tmp_path):
    out_file = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-c", _FORK_PROBE, "fourmode", "sweep", "--steps", "5", "--out", str(out_file)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout == "before\nafter 0 []\n" and proc.stderr == ""
    assert len(out_file.read_text().splitlines()) == 1 + 5 * 5


REPORT_POINTS = [("0", "0"), ("1.5", "1"), ("0.5", "0.25"), ("2.5", "2.5"), ("2.4", "2.3"),
                 ("0.0625", "7.4375"), ("-0", "1e-9")]


def test_report_bytes_are_pinned(capsys):
    # One digest over the argv, exit code and stdout of 22 report requests, so a
    # byte change in either report shows in tier-1.  ROADMAP items 1 (spectra from
    # the symplectic factor), 6 (closed forms without cancellation) and 7 (faint
    # entanglement from the correlation block) re-record it on purpose.
    requests = [["fourmode", "report", "--a", a, "--s", s, "--format", fmt]
                for a, s in REPORT_POINTS for fmt in ("json", "csv")]
    requests += [["qudit", "report", "--d", d, "--format", fmt]
                 for d in ("4", "8", "36", "1456") for fmt in ("json", "csv")]
    digest = hashlib.sha256()
    for argv in requests:
        rc = cli.main(argv)
        assert rc == 0
        digest.update(f"{' '.join(argv)}\n{rc}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == "866bed8d058bcf2eb2998bcffbc76f0c4a35a62d00b5b55f77e4212f7d7a9d7a"


def test_sweep_rejects_single_step(run_cli, tmp_path):
    code, _, err = run_cli(
        "fourmode", "sweep", "--steps", "1", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "grid density must be >= 2, got 1" in err


def test_sweep_columns_match_report_columns(run_cli, tmp_path):
    # sweep rows and report rows come from one record; every sweep column
    # must carry the report's bytes for the same point
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("a_min = 0.3\na_max = 1.5\ns_min = 0.5\ns_max = 1.0\ngrid_density = 2\n")
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli("fourmode", "sweep", "--out", str(out_file), "--config", str(cfg))
    assert code == 0
    header, *rows = out_file.read_text().splitlines()
    assert len(rows) == 4
    for row in rows:
        sweep = dict(zip(header.split(","), row.split(",")))
        code, out, _ = run_cli(
            "fourmode", "report", "--a", sweep["a"], "--s", sweep["s"], "--format", "csv"
        )
        assert code == 0
        report_header, report_row = out.splitlines()
        report = dict(zip(report_header.split(","), report_row.split(",")))
        assert {name: report[name] for name in sweep} == sweep


def test_sweep_unwritable_output_exits_one(run_cli, tmp_path):
    code, _, err = run_cli(
        "fourmode", "sweep", "--steps", "3", "--out", str(tmp_path / "missing" / "x.csv")
    )
    assert code == 1
    assert err != ""


def test_sweep_honors_config_file(run_cli, tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("# custom window\na_min = 1.0\na_max = 2.0\ngrid_density = 3\n")
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        "fourmode", "sweep", "--out", str(out_file), "--config", str(cfg)
    )
    assert code == 0
    rows = out_file.read_text().splitlines()[1:]
    a_values = sorted({row.split(",")[0] for row in rows})
    assert a_values == ["1", "1.5", "2"]


@pytest.mark.parametrize("command", [("fourmode", "sweep"), ("verify",)], ids=["sweep", "verify"])
@pytest.mark.parametrize(
    "name, reason",
    [("missing.cfg", "No such file or directory"), ("", "Is a directory")],
    ids=["missing", "dir"],
)
def test_unreadable_config_is_a_bad_argument(run_cli, tmp_path, command, name, reason):
    cfg = tmp_path / name
    out_file = tmp_path / "x.csv"
    argv = [*command, "--out", str(out_file)] if command[0] == "fourmode" else list(command)
    code, out, err = run_cli(*argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith(f"cannot read config file {cfg}: {reason}")
    assert not out_file.exists()


def test_qudit_report_fields(run_cli):
    code, out, _ = run_cli("qudit", "report", "--d", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["three_tangle_exact"] == "2"
    assert payload["pairwise_tangle_exact"] == "8/9"
    assert payload["one_vs_rest_tangle_exact"] == "34/9"
    assert payload["monogamy_gap"] == 0.0
    assert payload["squashed_pairwise_form"] == "omega*d/4"
    assert payload["squashed_pairwise_witness"] == pytest.approx(0.412022659167, abs=1e-11)


def test_qudit_report_large_dimension(run_cli):
    code, out, err = run_cli("qudit", "report", "--d", "2000")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["nongaussianity"] == 0.5
    assert payload["three_tangle_exact"] == "500"


def test_qudit_report_past_float64_names_d_and_the_limit(capsys):
    assert cli.main(["qudit", "report", "--d", "1" + "0" * 310]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: d ")
    assert "float64 limit" in lines[0] and repr(sys.float_info.max) in lines[0]


def test_qudit_report_rejects_bad_dimension(run_cli):
    code, _, err = run_cli("qudit", "report", "--d", "6")
    assert code == 2
    assert "multiple of 4" in err


def test_verify_passes_and_prints_suite_lines(run_cli):
    code, out, _ = run_cli("verify", "--grid-density", "6")
    assert code == 0
    lines = out.strip().splitlines()
    names = {line.split(":")[0] for line in lines[:-1]}
    assert "gaussian_invariants" in names
    assert "shape" in names
    assert "qudit_tangles" in names
    assert lines[-1].startswith("total:")
    assert " ok" in lines[0]


def test_verify_detects_injected_fault(monkeypatch, capsys):
    # corrupting one closed form must flip the battery to failure
    real = contangle.closed_forms

    def broken(params):
        forms = real(params)
        pairwise = {**forms.pairwise_contangle, (2, 3): forms.pairwise_contangle[(2, 3)] + 0.05}
        return forms._replace(pairwise_contangle=pairwise)

    monkeypatch.setattr(contangle, "closed_forms", broken)
    results = verification.run_all(GridConfig(0.0, 2.5, 0.0, 2.5, 6))
    # exactly the suites that hold tau_23 against a second route; run_all would
    # also turn a crash of the injector itself into failed checks
    assert {r.name for r in results if not r.ok} == {"pair_separability", "report_consistency"}
    assert not any(failure.startswith("suite raised") for r in results for failure in r.failures)


def test_verify_cli_reports_failure_exit(monkeypatch):
    # drive main() in-process so the monkeypatch reaches the suites
    import contextlib
    import io

    real = contangle.closed_forms

    def raised_bound(params):
        forms = real(params)
        return forms._replace(tripartite_bound=forms.tripartite_bound + 1e-3)

    monkeypatch.setattr(contangle, "closed_forms", raised_bound)
    failed = [r for r in verification.run_all(GridConfig(density=5)) if r.failures]
    assert any(len(r.failures) > 1 for r in failed)
    # one first failure per failing suite; every failure under --verbose
    for flags, expected in (
        ([], [f"  first failure: {r.failures[0]}" for r in failed]),
        (["--verbose"], [f"  {failure}" for r in failed for failure in r.failures]),
    ):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--grid-density", "5", *flags])
        assert code == 1
        assert "FAIL" in buf.getvalue()
        assert [line for line in buf.getvalue().splitlines() if line.startswith("  ")] == expected


def _main_exit_code(argv) -> int:
    # cli.main returns its exit code, or argparse exits with it
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


REPORT = ["fourmode", "report"]
SWEEP = ["fourmode", "sweep", "--out", "{out}"]


@pytest.mark.parametrize(
    "argv, config, code, fragment",
    [
        # a valid point where float64 fails the symplectic check: a numeric failure at that point
        ([*REPORT, "--a", "3", "--s", "5"], None, 1, "not symplectic"),
        ([*REPORT, "--a", "0", "--s", "8"], None, 1, "not symplectic"),
        ([*REPORT, "--a", "5", "--s", "6"], None, 1, "not symplectic"),
        ([*REPORT, "--a", "400", "--s", "1"], None, 1, "not symplectic"),
        ([*REPORT, "--a", "710", "--s", "0"], None, 1, "not symplectic"),
        # cosh(a) overflows float64 at a valid point
        ([*REPORT, "--a", "1000", "--s", "0"], None, 1, "float64 overflow"),
        # the config file overrides the flags, and the merged grid is checked once
        ([*SWEEP, "--steps", "1", "--config", "{cfg}"], "grid_density = 3\n", 0, ""),
        ([*SWEEP, "--config", "{cfg}"], "a_min = 3\na_max = 5\n", 0, ""),
        ([*SWEEP, "--a-min", "3", "--config", "{cfg}"], "a_max = 5\n", 0, ""),
        # a sweep takes a single a value; verify does not (verify_degenerate_a_axis)
        ([*SWEEP, "--config", "{cfg}"], "a_min = 1\na_max = 1\ngrid_density = 3\n", 0, ""),
        # broken rules: bad arguments
        ([*REPORT, "--a", "nan", "--s", "1"], None, 2, "squeezing degree a must be a finite number"),
        ([*REPORT, "--a", "inf", "--s", "1"], None, 2, "squeezing degree a must be a finite number"),
        ([*REPORT, "--a", "-1", "--s", "1"], None, 2, "squeezing degree a must be non-negative, got -1.0"),
        ([*SWEEP, "--steps", "1"], None, 2, "grid density must be >= 2, got 1"),
        (["verify", "--grid-density", "1"], None, 2, "grid density must be >= 2, got 1"),
        # inf * 0 would otherwise name a point at a = nan that nobody asked for
        ([*SWEEP, "--a-max", "inf"], None, 2, "grid bound a_max must be finite, got inf"),
        ([*SWEEP, "--s-max", "inf"], None, 2, "grid bound s_max must be finite, got inf"),
        (
            [*SWEEP, "--config", "{cfg}"], "a_min = 0\nwhat even is this\n", 2,
            "grid.cfg:2: expected 'key = value', got 'what even is this'",
        ),
        (
            [*SWEEP, "--config", "{cfg}"], "a_max = inf\n", 2,
            "grid.cfg:1: grid bound a_max must be finite, got inf",
        ),
        (
            ["verify", "--config", "{cfg}"], "a_max = inf\n", 2,
            "grid.cfg:1: grid bound a_max must be finite, got inf",
        ),
        (
            [*SWEEP, "--config", "{cfg}"], "a_max = -1\n", 2,
            "grid.cfg:1: grid bound a_max must be non-negative, got -1.0",
        ),
        (
            [*SWEEP, "--config", "{cfg}"], "a_min = 5\na_max = 3\n", 2,
            "grid ranges must satisfy min <= max, "
            "got GridConfig(a_min=5.0, a_max=3.0, s_min=0.0, s_max=2.5, density=26)",
        ),
        (["verify", "--config", "{cfg}"], "a_min = 1\na_max = 1\n", 2, "a_min = a_max = 1.0"),
        (["qudit", "report", "--d", "5"], None, 2, "positive multiple of 4 (d = 2N with N even), got 5"),
    ],
    ids=[
        "symplectic_3_5", "symplectic_0_8", "symplectic_5_6", "symplectic_400_1", "symplectic_710_0",
        "overflow_1000_0", "file_density_over_steps", "file_lines_in_any_order", "flag_and_file_bounds",
        "sweep_degenerate_a_axis", "a_nan", "a_inf", "a_negative", "single_step", "single_grid_point",
        "flag_bound_a_inf", "flag_bound_s_inf", "file_line_without_equals", "file_bound_inf",
        "verify_file_bound_inf", "file_bound_negative", "file_min_over_max", "verify_degenerate_a_axis",
        "qudit_d_5",
    ],
)
def test_exit_codes(capsys, tmp_path, argv, config, code, fragment):
    # 0 ok, 1 a failure at a valid input (one error line), 2 a broken argument rule
    out_file = tmp_path / "sweep.csv"
    if config is not None:
        (tmp_path / "grid.cfg").write_text(config)
    argv = [arg.format(out=out_file, cfg=tmp_path / "grid.cfg") for arg in argv]
    assert _main_exit_code(argv) == code
    captured = capsys.readouterr()
    # a sweep opens --out only once every point has succeeded
    assert out_file.exists() == (code == 0 and argv[:2] == SWEEP[:2])
    if code == 0:
        assert captured.err == ""
    else:
        assert captured.out == ""
    if code == 1:
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
        assert fragment in captured.err
        assert captured.err.endswith(f"at a={float(argv[3])}, s={float(argv[5])}\n")
    elif code == 2:
        # the usage line of the subcommand that took the argument, not the top-level one
        command = argv[:1] if argv[0] == "verify" else argv[:2]
        assert captured.err.startswith(f"usage: promiscuity {' '.join(command)} [-h]")
        assert captured.err.endswith(f"{fragment}\n")


def test_config_lines_apply_in_any_order(tmp_path):
    # the file's settings are merged before the grid is checked, so line order is moot
    cfg, out_file = tmp_path / "grid.cfg", tmp_path / "sweep.csv"
    outputs = []
    for text in ("a_min = 3\na_max = 5\n", "a_max = 5\na_min = 3\n"):
        cfg.write_text(text)
        assert cli.main(["fourmode", "sweep", "--out", str(out_file), "--config", str(cfg)]) == 0
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[1].startswith(b"3,0,")


def test_load_config_round_trip(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("grid_density = 11\ns_min = 0.5\ns_max = 1.5\n")
    loaded = load_config(cfg)
    # only the fields the file sets, keyed as GridConfig fields
    assert loaded == {"density": 11, "s_min": 0.5, "s_max": 1.5}
    grid = GridConfig(**loaded)
    assert grid.s_values()[0] == 0.5
    assert grid.s_values()[-1] == 1.5
    assert len(grid.s_values()) == 11


def test_load_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("a_max = 3\n")
    assert load_config(cfg) == {"a_max": 3.0}
    # a bad line refuses the whole file: no partial dict comes back
    cfg.write_text("a_max = 3\nmystery = 3\n")
    with pytest.raises(ValueError, match="grid.cfg:2: unknown config key 'mystery'"):
        load_config(cfg)


def test_main_module_entry_point(run_cli):
    code, out, _ = run_cli("--help")
    assert code == 0
    for sub in ("fourmode", "qudit", "verify"):
        assert sub in out


# runs cli.main in a fresh interpreter; its last stderr line is the exit code, then
# whether numpy, json, dataclasses and inspect were loaded
_NUMPY_PROBE = """
import sys
from promiscuity import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, *(name in sys.modules for name in ("numpy", "json", "dataclasses", "inspect")), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, code, loads_numpy",
    [
        (["fourmode", "sweep", "--steps", "3", "--out", "{out}"], 0, False),
        (["--help"], 0, False),
        (["fourmode", "report", "--a", "-1", "--s", "0"], 2, False),
        # control: the spectral route does load numpy, so the probe sees imports
        (["fourmode", "report", "--a", "1.5", "--s", "1"], 0, True),
        # a broken rule is refused before the spectral layers load
        (["fourmode", "report", "--a", "nan", "--s", "0"], 2, False),
        # qudit reports read exact per-copy constants; csv keeps json unloaded
        (["qudit", "report", "--d", "8", "--format", "csv"], 0, False),
        (["qudit", "report", "--d", "6"], 2, False),
    ],
)
def test_closed_form_paths_load_no_numpy(tmp_path, argv, code, loads_numpy):
    argv = [arg.format(out=tmp_path / "sweep.csv") for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *argv], capture_output=True, text=True, timeout=120
    )
    # json loads only where a report is rendered, and dataclasses and inspect only with the
    # spectral layers, which here is the numpy control row
    assert proc.stderr.splitlines()[-1] == f"{code}" + f" {loads_numpy}" * 4
