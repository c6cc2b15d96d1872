"""The experiment scripts in scripts/ run end to end, each in a fresh interpreter."""
import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(*argv: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_scripts_run_and_agree_with_the_cli(tmp_path):
    script_csv, cli_csv = tmp_path / "script.csv", tmp_path / "cli.csv"
    summary = _run(str(SCRIPTS / "sweep_surfaces.py"), "--steps", "6", "--out", str(script_csv)).stdout
    # one "wrote" line, the table header and one line per fixed-s row
    assert summary.count(f"wrote {script_csv}\n") == 1
    assert len(summary.splitlines()) == 1 + 1 + 6
    _run("-m", "promiscuity", "fourmode", "sweep", "--steps", "6", "--out", str(cli_csv))
    assert script_csv.read_bytes() == cli_csv.read_bytes()


def test_reach_scan_lists_each_module_after_the_calls_it_is_given():
    calls = ["fourmode report --a 1.5 --s 1", "fourmode sweep --steps 3 --out {tmp}/sweep.csv",
             "qudit report --d 4", "verify --grid-density 2"]
    argv = [str(SCRIPTS / "reach_scan.py")]
    for call in calls:
        argv += ["--call", call]
    lines = _run(*argv).stdout.splitlines()
    assert lines[:4] == [f"exit 0: {call}" for call in calls]
    package = SCRIPTS.parent / "src" / "promiscuity"
    modules = sorted(package.glob("*.py"))
    assert [line.split(":")[0] for line in lines[4:]] == [path.name for path in modules]
    for line, path in zip(lines[4:], modules):
        count, listed = line.split(": ", 1)[1].split(" unreached: ")
        missed = [] if listed == "-" else [int(n) for n in listed.split(", ")]
        # each count matches its list, and every listed line is a line of the module
        assert len(missed) == int(count) and all(0 < n <= len(path.read_text().splitlines()) for n in missed)


def test_reach_scan_calls_exit_as_their_group_promises():
    # CALLS_BY_EXIT groups the default calls by the exit code each promises
    spec = importlib.util.spec_from_file_location("reach_scan", SCRIPTS / "reach_scan.py")
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    expected = [f"exit {code}: {call}" for code, calls in scan.CALLS_BY_EXIT.items() for call in calls]
    assert sorted(scan.CALLS_BY_EXIT) == [0, 1, 2]
    lines = _run(str(SCRIPTS / "reach_scan.py")).stdout.splitlines()
    assert lines[: len(expected)] == expected
    # a ratchet on code no call reaches: new unreached lines must be reached
    # by a call, or this pin moves with a reason in CHANGES.md
    unreached = {line.split(":")[0]: int(line.split(": ")[1].split()[0]) for line in lines[len(expected) :]}
    pinned = {"__main__.py": 3, "cli.py": 1, "contangle.py": 3, "gaussian.py": 2, "qudit.py": 1, "verification.py": 4}
    package = SCRIPTS.parent / "src" / "promiscuity"
    assert unreached == {path.name: pinned.get(path.name, 0) for path in sorted(package.glob("*.py"))}
