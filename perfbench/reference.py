"""A fixed reference computation that measures the host's current speed.

The benchmark runs on shared hosts whose speed swings by up to 1.8x
within seconds, and stays slow for minutes at a time, as other tenants
load the machine.  Process CPU time swings with it, so it is no cure.
Each timed op is therefore paired with a run of this reference, taken
right before and right after it, and its time is reported at reference
speed: multiplied by REF_UNIT_S over the reference unit's measured time.

The unit mixes what the program does: float arithmetic and `math` calls
in Python loops, float formatting and parsing, dict updates, small
symmetric `eigvalsh` calls and JSON.  It is code of the benchmark, not
of the program, so a change to the program never changes it.
"""
from __future__ import annotations

import json
import math
import os
from time import perf_counter

import numpy as np

# the unit's median time on the 2-vCPU Xeon host the baseline was taken
# on; a fixed scale, so that normalised times read close to wall times
REF_UNIT_S = 4.0e-4

_BASE = np.array([[4.0 + 2.0 * (i == j) + 0.1 * (i + j) for j in range(8)] for i in range(8)])


def _unit() -> None:
    x = 0.0
    for k in range(300):
        x += math.sqrt(k + 1.0) * math.log1p(k) / (1.0 + math.cosh(k * 1e-3))
    text = ",".join(f"{x * k:.17g}" for k in range(60))
    fields = {}
    for field in text.split(","):
        fields[field[:6]] = float(field)
    for _ in range(12):
        w = np.linalg.eigvalsh(_BASE + x * 1e-9)
    json.dumps({"x": x, "w": w.tolist(), "n": len(fields)})


def unit_seconds(units: int) -> float:
    """Mean wall time of one reference unit over `units` units, run now."""
    start = perf_counter()
    for _ in range(units):
        _unit()
    return (perf_counter() - start) / units


def unit_seconds_all_cpus(units: int) -> float:
    """As unit_seconds, with the units shared out over every usable CPU.

    The host's CPUs change speed independently of each other, and a fresh
    process may run on any of them (the sweep's pool on several at once),
    so its reference is their mean speed.  This process is pinned to each
    CPU in turn and unpinned before it returns, so children it starts
    later may run anywhere.
    """
    cpus = sorted(os.sched_getaffinity(0))
    share = max(1, units // len(cpus))
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(unit_seconds(share))
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)
