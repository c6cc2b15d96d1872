"""Seeded inputs of the three workloads and of the domain probe.

Everything here is a pure function of the seed, so the same seed gives
the same sweep config and the same request stream on any machine.  The
program under test only ever sees the generated argv lists and config
text, never the seed.
"""
from __future__ import annotations

import itertools
import random

SWEEP_STEPS = 201
SWEEP_RANGE = (1.5, 2.5)
VERIFY_ARGV = ("verify",)

# point_reports mix: share of each request kind, in draw order
SQUARE_SHARE = 0.70
CORNER_SHARE = 0.15
SQUARE_MAX = 2.5
# deep-squeezing corner of the square, where a + s is 4..5; every point
# there is still reported consistent at the seed commit
CORNER_SUM = (4.0, 5.0)
# qudit d: mostly up to 1024, the rest up to the largest d whose
# nongaussianity still fits a float (1460 overflows at the seed commit)
QUDIT_SMALL_D = 1024
QUDIT_LARGE_D = 1456
QUDIT_LARGE_SHARE = 0.2

# domain probe: the inputs known to fail at the seed commit, measured
# apart from the timed stream so that their failures stay visible
PROBE_EDGE_SUM = (4.5, 6.5)
PROBE_QUDIT_D = (1460, 2048)
PROBE_EDGE_COUNT = 60
PROBE_QUDIT_COUNT = 20


def sweep_config(seed: int) -> str:
    """Config file text of the sweep_dense run for this seed."""
    rng = random.Random(f"sweep_dense:{seed}")
    a_max = rng.uniform(*SWEEP_RANGE)
    s_max = rng.uniform(*SWEEP_RANGE)
    return f"a_max = {a_max!r}\ns_max = {s_max!r}\n"


def sweep_argv(config_path: str, out_path: str, steps: int = SWEEP_STEPS) -> list[str]:
    return [
        "fourmode", "sweep", "--steps", str(steps),
        "--config", config_path, "--out", out_path,
    ]


def _fourmode(a: float, s: float, fmt: str) -> list[str]:
    return ["fourmode", "report", "--a", repr(a), "--s", repr(s), "--format", fmt]


def _qudit(d: int, fmt: str) -> list[str]:
    return ["qudit", "report", "--d", str(d), "--format", fmt]


def point_requests(seed: int):
    """Endless stream of point_reports argv lists for this seed."""
    rng = random.Random(f"point_reports:{seed}")
    while True:
        kind = rng.random()
        fmt = rng.choice(("json", "csv"))
        if kind < SQUARE_SHARE:
            yield _fourmode(rng.uniform(0.0, SQUARE_MAX), rng.uniform(0.0, SQUARE_MAX), fmt)
        elif kind < SQUARE_SHARE + CORNER_SHARE:
            total = rng.uniform(*CORNER_SUM)
            a = rng.uniform(total - SQUARE_MAX, SQUARE_MAX)
            yield _fourmode(a, total - a, fmt)
        elif rng.random() < QUDIT_LARGE_SHARE:
            yield _qudit(4 * rng.randint(QUDIT_SMALL_D // 4 + 1, QUDIT_LARGE_D // 4), fmt)
        else:
            yield _qudit(4 * rng.randint(1, QUDIT_SMALL_D // 4), fmt)


def first_requests(seed: int, count: int) -> list[list[str]]:
    return list(itertools.islice(point_requests(seed), count))


def probe_requests(seed: int) -> list[list[str]]:
    """Known-failing inputs: the a + s edge band and d past the overflow."""
    rng = random.Random(f"domain_probe:{seed}")
    edge = []
    for _ in range(PROBE_EDGE_COUNT):
        total = rng.uniform(*PROBE_EDGE_SUM)
        a = rng.uniform(0.0, total)
        edge.append(_fourmode(a, total - a, "json"))
    lo, hi = (d // 4 for d in PROBE_QUDIT_D)
    large_d = [_qudit(4 * rng.randint(lo, hi), "json") for _ in range(PROBE_QUDIT_COUNT)]
    return edge + large_d
