"""The benchmark's tracer (perfbench/tracer.py) finds every name it wraps.

The tracer wraps program functions and methods by name, from outside the
program.  A rename or deletion in src/ of a traced name would otherwise
show only in a traced benchmark run (`perfbench/run.py --trace 1`).
"""
import importlib.util
from pathlib import Path

import numpy as np

from promiscuity import cli, config, contangle, four_mode, gaussian, qudit, verification

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
OWNERS = (
    cli, config, contangle, four_mode, gaussian, qudit, verification,
    gaussian.CovarianceMatrix, gaussian.SymplecticTransform, np.linalg,
)
# a sample of what the tracer wraps: spans, counters and linalg calls
WRAPPED = {
    ("promiscuity.cli", "main"),
    ("promiscuity.config", "load_config"),
    ("promiscuity.gaussian", "symplectic_eigenvalues"),
    ("promiscuity.gaussian", "log_negativity"),
    ("promiscuity.four_mode", "build_state"),
    ("promiscuity.four_mode", "full_report"),
    ("promiscuity.contangle", "closed_forms"),
    ("promiscuity.verification", "SUITES"),
    ("CovarianceMatrix", "is_pure"),
    ("CovarianceMatrix", "__post_init__"),
    ("SymplecticTransform", "__post_init__"),
    ("numpy.linalg", "cholesky"),
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes() -> dict:
    return {(owner.__name__, attr): value for owner in OWNERS for attr, value in vars(owner).items()}


def test_tracer_wraps_the_program_and_restores_it():
    tracer = _load_tracer().Tracer()
    before = _attributes()
    try:
        tracer.install()
        installed = _attributes()
    finally:
        tracer.uninstall()
    wrapped = {key for key, value in installed.items() if value is not before.get(key)}
    assert WRAPPED <= wrapped
    after = _attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
