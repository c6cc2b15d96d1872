#!/usr/bin/env python3
"""Print the headline numbers of both families in one place.

Four-mode family at the reference point (a=1.5, s=1.0), then the d=8
qudit member.  Everything here is recomputed on the spot; compare
against a sweep CSV row or the CLI report to spot drift.
"""
import argparse
import time

from promiscuity import contangle, four_mode, qudit


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=float, default=1.5)
    parser.add_argument("--s", type=float, default=1.0)
    parser.add_argument("--d", type=int, default=8)
    args = parser.parse_args()

    start = time.perf_counter()
    report = four_mode.full_report(contangle.SqueezingParams(args.a, args.s))
    elapsed = time.perf_counter() - start

    print(f"four-mode family at a={args.a}, s={args.s}  ({elapsed * 1e3:.1f} ms)")
    print(f"  pair contangle (1,2) = (3,4)   {report.pairwise_contangle[(1, 2)]:.12g}")
    print(f"  pair contangle (2,3)           {report.pairwise_contangle[(2, 3)]:.12g}")
    print(f"  interpair block                {report.interpair_contangle:.12g}")
    print(f"  one-vs-rest, probe 1           {report.one_vs_rest_contangle[1]:.12g}")
    print(f"  residual contangle             {report.residual:.12g}")
    print(f"  genuine tripartite bound       {report.tripartite_bound:.12g}")
    print(f"  monogamy / strong monogamy     {report.monogamy_ok} / {report.strong_monogamy_ok}")
    print(f"  closed-form vs spectral dev    {report.max_route_deviation:.3g}")
    print(f"  consistent                     {report.consistent}")

    tangles = qudit.tangle_report(args.d)
    bounds = tangles.squashed
    print(f"qudit family member d={args.d}")
    print(f"  three-tangle                   {tangles.three_tangle}")
    print(f"  pairwise tangle                {tangles.pairwise_tangle}")
    print(f"  one-vs-rest tangle             {tangles.one_vs_rest_tangle}")
    print(f"  monogamy gap                   {tangles.monogamy_gap}")
    print(f"  non-Gaussianity                {tangles.nongaussianity:.12g}")
    print(f"  squashed one-vs-rest           {bounds.one_vs_rest:.12g}")
    print(f"  squashed tripartite lower      {bounds.tripartite_lower}")
    print(f"  pairwise witness ({bounds.pairwise_form})  {bounds.pairwise_witness:.12g}")


if __name__ == "__main__":
    main()
