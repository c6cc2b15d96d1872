import subprocess
import sys

import pytest


@pytest.fixture
def run_cli():
    """Run the CLI in a subprocess and return (exit_code, stdout, stderr).

    Spawning a fresh interpreter keeps the byte-determinism checks honest:
    nothing from the test process (hash seed, warm caches, monkeypatches)
    can leak into the output being compared.
    """

    def _run(*args: str):
        proc = subprocess.run(
            [sys.executable, "-m", "promiscuity", *args],
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    return _run
