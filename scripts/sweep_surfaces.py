#!/usr/bin/env python3
"""Sweep the (a, s) grid and summarize the entanglement surfaces.

Writes the same CSV as `promiscuity fourmode sweep` and then prints,
for every fixed-s row (one per grid value of s), where the residual and
the tripartite bound sit along a: the residual climbs monotonically
while the bound rises to a single interior peak and decays, so the peak
location is the interesting number to track between revisions.  The
grid flags go to the CLI as given, and those left unset take its
defaults.
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
    grid_flags = ("--steps", "--a-max", "--s-max")
    for flag in grid_flags:
        parser.add_argument(flag)
    args = parser.parse_args()

    # only the grid flags given are passed on, and the CLI checks them
    argv = ["fourmode", "sweep", "--out", args.out]
    for flag in grid_flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            argv += [flag, value]
    code = cli_main(argv)
    if code != 0:
        raise SystemExit(code)
    print(f"wrote {args.out}")
    summarize(args.out)


if __name__ == "__main__":
    main()
