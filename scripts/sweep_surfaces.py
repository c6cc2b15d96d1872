#!/usr/bin/env python3
"""Sweep the (a, s) grid and summarize the entanglement surfaces.

Writes the same CSV as `promiscuity fourmode sweep` and then prints,
for every fixed-s row (one per grid value of s, 26 at the default
--steps), where the residual and the tripartite bound sit along a: the
residual climbs monotonically while the bound rises to a single
interior peak and decays, so the peak location is the interesting
number to track between revisions.
"""
import argparse
import csv
from collections import defaultdict

from promiscuity.cli import main as cli_main


def summarize(path: str) -> None:
    rows = defaultdict(list)
    with open(path, newline="") as handle:
        for record in csv.DictReader(handle):
            rows[float(record["s"])].append(
                (float(record["a"]), float(record["tau_res"]), float(record["tau_tri_bound"]))
            )
    print(f"{'s':>6} {'max residual':>14} {'bound peak a':>13} {'bound peak':>12} {'bound tail':>12}")
    for s in sorted(rows):
        points = sorted(rows[s])
        peak_a, _, peak_bound = max(points, key=lambda p: p[2])
        print(
            f"{s:6.2f} {points[-1][1]:14.6f} {peak_a:13.2f} "
            f"{peak_bound:12.6f} {points[-1][2]:12.6f}"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="sweep.csv", help="CSV output path")
    parser.add_argument("--steps", type=int, default=26)
    parser.add_argument("--a-max", type=float, default=2.5)
    parser.add_argument("--s-max", type=float, default=2.5)
    args = parser.parse_args()

    code = cli_main(
        [
            "fourmode", "sweep",
            "--steps", str(args.steps),
            "--a-max", str(args.a_max),
            "--s-max", str(args.s_max),
            "--out", args.out,
        ]
    )
    if code != 0:
        raise SystemExit(code)
    print(f"wrote {args.out}")
    summarize(args.out)


if __name__ == "__main__":
    main()
