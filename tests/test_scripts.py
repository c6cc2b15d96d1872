"""The experiment scripts in scripts/ run end to end, each in a fresh interpreter."""
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
