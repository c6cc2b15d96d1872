"""Summarise one set of benchmark results, or compare two.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds result lines, one per run of perfbench/run.py (its last
stdout line), all from one workload; other lines are skipped.  For each
metric this prints the median, the quartiles and their distance as a
share of the median (the spread).  Given NEW, it also prints how far
NEW's median moved from BASE's, signed so that a positive share is
worse, and marks a move beyond the metric's bound in BENCHMARK.json.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        for name, metric in json.loads(line)["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def stats(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return med, q1, q3


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load(path) for path in argv]
    for name, base in sets[0].items():
        med, q1, q3 = stats(base)
        spread = (q3 - q1) / med if med else 0.0
        bound = meta.get(name, {}).get("bound")
        line = f"{name:44s} n={len(base):2d} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3%}"
        if bound is not None:
            line += f" (bound {bound:.0%}{', WIDER' if spread > bound else ''})"
        if len(sets) == 2 and name in sets[1]:
            new = stats(sets[1][name])[0]
            sign = 1 if meta.get(name, {}).get("better") == "lower" else -1
            worse = sign * (new - med) / med if med else 0.0
            line += f"\n{'':44s} new median {new:.6g}  worse by {worse:+.3%}"
            if bound is not None and worse > bound:
                line += "  REGRESSION"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
