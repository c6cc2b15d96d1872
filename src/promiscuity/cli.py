"""Command-line interface.

Subcommands
-----------
fourmode report   one-point entanglement report (json or csv)
fourmode sweep    grid sweep written as a CSV file
qudit report      tangle/bound report of the d-family member
verify            run every property suite and report counts

All numeric output is rendered with 12 significant digits and newline
"\n" line endings, so identical inputs produce byte-identical output.
Exit codes: 0 success, 1 internal inconsistency, failed verification or
a numeric failure at a valid input, 2 bad arguments.  Each argument rule
lives in the type that owns it and raises ValueError there, so a
ValueError that reaches main always means a broken rule, reported with
the usage line of the subcommand that took the argument; one raised
while a report or sweep computes is a numeric failure at that point.

Only the closed forms and the grid config load with this module, and
their records are namedtuples; each handler imports the layers it needs,
so `fourmode sweep`, `qudit report` (whose layer is standard library
only), `--help` and argument errors run without numpy, `dataclasses` or
`inspect`.

`fourmode sweep` computes its rows in one a-major pass, spooling each
finished row to an unnamed temporary file in TMPDIR, and opens `--out`
only once every row has succeeded, so a failure leaves no file and the
peak memory stays flat as the grid grows (about 15 MB from 51² to 601²
points under CPython 3.11).
"""
from __future__ import annotations

import argparse
import functools
import sys

from . import contangle
from .config import GridConfig, load_config

SWEEP_FIELDS = (
    "a",
    "s",
    "tau_12",
    "tau_23",
    "tau_14",
    "tau_pairblock",
    "tau_1_rest",
    "tau_res",
    "tau_tri_bound",
    "monogamy_ok",
    "strong_monogamy_ok",
)


def _round12(value: float) -> float:
    # 12 significant digits; the shortened float re-renders identically
    return float(f"{value:.12g}")


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


# the monogamy_ok and strong_monogamy_ok cells of a sweep line, keyed by strong_monogamy_ok:
# monogamy_ok is always true, since point_forms raises wherever monogamy fails
_FLAG_CELLS = {strong: f"{_text(True)},{_text(strong)}" for strong in (False, True)}


def _json_ready(value):
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    return _round12(value)


def _closed_form_columns(forms: contangle.ClosedForms) -> dict:
    # the closed-form columns of a report row, a superset of SWEEP_FIELDS
    tau = forms.pairwise_contangle
    rest = forms.one_vs_rest_contangle
    return {
        "a": forms.params.a,
        "s": forms.params.s,
        "tau_12": tau[(1, 2)],
        "tau_13": tau[(1, 3)],
        "tau_14": tau[(1, 4)],
        "tau_23": tau[(2, 3)],
        "tau_24": tau[(2, 4)],
        "tau_34": tau[(3, 4)],
        "tau_1_rest": rest[1],
        "tau_2_rest": rest[2],
        "tau_3_rest": rest[3],
        "tau_4_rest": rest[4],
        "tau_pairblock": forms.interpair_contangle,
        "tau_res": forms.residual,
        "tau_tri_bound": forms.tripartite_bound,
        "monogamy_ok": True,  # a constant column, as in _FLAG_CELLS
        "strong_monogamy_ok": forms.strong_monogamy_ok,
    }


def _format_table(row: dict, style: str) -> str:
    if style == "csv":
        header = ",".join(row)
        values = ",".join(_text(value) for value in row.values())
        return f"{header}\n{values}\n"
    import json  # only a rendered report needs it, so sweep, --help and argument errors skip it
    # the bytes of json.dumps(payload, indent=2) + "\n" for a flat row, from the C encoder that indent= rules out
    payload = {name: _json_ready(value) for name, value in row.items()}
    return "{\n  " + json.dumps(payload, separators=(",\n  ", ": "))[1:-1] + "\n}\n"


def _failed_at(exc: Exception, a: float, s: float) -> ArithmeticError:
    # a valid point where float64 gives out is a numeric failure (exit 1), not a bad argument
    if isinstance(exc, OverflowError):
        return OverflowError(f"float64 overflow ({exc}) at a={a}, s={s}")
    return ArithmeticError(f"{exc} at a={a}, s={s}")


def cmd_fourmode_report(args) -> int:
    # -0.0 + 0.0 is 0.0, so -0 and 0 print the same bytes
    params = contangle.SqueezingParams(args.a + 0.0, args.s + 0.0)
    from . import four_mode  # after the argument check, so a bad argument loads no numpy

    try:
        report = four_mode.full_report(params)
    except (OverflowError, ValueError) as exc:
        raise _failed_at(exc, params.a, params.s) from None
    row = {
        **_closed_form_columns(report),
        "near_threshold": report.near_threshold,
        "consistent": report.consistent,
        "max_route_deviation": report.max_route_deviation,
    }
    sys.stdout.write(_format_table(row, args.format))
    if not row["consistent"]:
        print("error: closed-form and spectral routes disagree", file=sys.stderr)
        return 1
    return 0


def _grid(args) -> GridConfig:
    # the grid flags given (unset ones leave no entry), overridden by the config file, checked once
    settings = {name: value for name, value in vars(args).items() if name in GridConfig._fields}
    if args.config:
        settings.update(load_config(args.config))
    return GridConfig(**settings)


def _sweep_rows(a_values: list, s_values: list, out) -> None:
    """Write the CSV lines of the grid rows at `a_values` to the binary file `out`, a row at a time."""

    @functools.cache  # on first use, so an s past float64 fails at its own first point
    def column(s: float) -> tuple:
        terms = contangle.s_terms(s)
        return terms, _text(s), _text(terms.tau_pairblock)

    tau_14 = _text(contangle.SEPARABLE_CONTANGLE)
    try:
        for a in a_values:
            s = s_values[0]
            row = contangle.a_terms(a)
            # the a, tau_12 and tau_14 cells are fixed along a row
            template = f"{_text(a)},%s,{_text(row.tau_pair)},%.12g,{tau_14},%s,%.12g,%.12g,%.12g,%s\n"
            lines = []
            for s in s_values:
                terms, s_cell, tau_pairblock = column(s)
                tau_1_rest, _, tau_23, _, _, res, bound, strong = contangle.point_forms(row, terms)
                lines.append(template % (s_cell, tau_23, tau_pairblock, tau_1_rest, res, bound,
                                         _FLAG_CELLS[strong]))
            out.write("".join(lines).encode("ascii"))
    except (OverflowError, ValueError) as exc:
        raise _failed_at(exc, a, s) from None


def cmd_fourmode_sweep(args) -> int:
    import shutil  # only the sweep spools, so importing this module loads neither
    import tempfile

    cfg = _grid(args)
    # an unnamed file (O_TMPFILE on Linux) in TMPDIR, gone with the process however it ends
    with tempfile.TemporaryFile() as spool:
        _sweep_rows(cfg.a_values(), cfg.s_values(), spool)
        spool.seek(0)
        with open(args.out, "wb") as out:  # opened only once every row has succeeded
            out.write((",".join(SWEEP_FIELDS) + "\n").encode("ascii"))
            shutil.copyfileobj(spool, out)
    return 0


def cmd_qudit_report(args) -> int:
    from . import qudit

    report = qudit.tangle_report(args.d)
    bounds = report.squashed
    row = {
        "d": report.d,
        "three_tangle": float(report.three_tangle),
        "three_tangle_exact": str(report.three_tangle),
        "pairwise_tangle": float(report.pairwise_tangle),
        "pairwise_tangle_exact": str(report.pairwise_tangle),
        "one_vs_rest_tangle": float(report.one_vs_rest_tangle),
        "one_vs_rest_tangle_exact": str(report.one_vs_rest_tangle),
        "monogamy_gap": float(report.monogamy_gap),
        "monogamy_gap_exact": str(report.monogamy_gap),
        "nongaussianity": report.nongaussianity,
        "squashed_one_vs_rest": bounds.one_vs_rest,
        "squashed_tripartite_lower": float(bounds.tripartite_lower),
        "squashed_tripartite_lower_exact": str(bounds.tripartite_lower),
        "squashed_pairwise_form": bounds.pairwise_form,
        "squashed_pairwise_witness": bounds.pairwise_witness,
    }
    sys.stdout.write(_format_table(row, args.format))
    return 0


def cmd_verify(args) -> int:
    from . import verification

    results = verification.run_all(_grid(args))
    failed = False
    for result in results:
        status = "ok" if result.ok else "FAIL"
        print(f"{result.name}: {result.checks - len(result.failures)}/{result.checks} {status}")
        if result.failures:
            failed = True
            shown = result.failures if args.verbose else result.failures[:1]
            for failure in shown:
                print(f"  first failure: {failure}" if not args.verbose else f"  {failure}")
    total = sum(r.checks for r in results)
    bad = sum(len(r.failures) for r in results)
    print(f"total: {total - bad}/{total} checks passed")
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="promiscuity",
        description="Entanglement sharing diagnostics for four-mode squeezed states "
        "and GHZ/W qudit families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fourmode = sub.add_parser("fourmode", help="four-mode family diagnostics")
    fsub = fourmode.add_subparsers(dest="subcommand", required=True)

    report = fsub.add_parser("report", help="entanglement report at one (a, s) point")
    report.add_argument("--a", type=float, required=True, help="pair squeezing degree")
    report.add_argument("--s", type=float, required=True, help="interpair squeezing degree")
    report.add_argument("--format", choices=("json", "csv"), default="json")
    report.set_defaults(handler=cmd_fourmode_report, parser=report)

    sweep = fsub.add_parser("sweep", help="grid sweep written to a CSV file")
    # the grid flags have no default of their own: GridConfig's apply (see _grid)
    for bound in ("--a-min", "--a-max", "--s-min", "--s-max"):
        sweep.add_argument(bound, type=float, default=argparse.SUPPRESS)
    sweep.add_argument("--steps", type=int, dest="density", metavar="STEPS", default=argparse.SUPPRESS,
                       help="grid points per axis (>= 2)")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--config", help="key = value file overriding grid settings")
    sweep.set_defaults(handler=cmd_fourmode_sweep, parser=sweep)

    quditp = sub.add_parser("qudit", help="GHZ/W qudit family diagnostics")
    qsub = quditp.add_subparsers(dest="subcommand", required=True)
    qreport = qsub.add_parser("report", help="tangle and bound report for one d")
    qreport.add_argument("--d", type=int, required=True, help="family label (positive multiple of 4)")
    qreport.add_argument("--format", choices=("json", "csv"), default="json")
    qreport.set_defaults(handler=cmd_qudit_report, parser=qreport)

    verify = sub.add_parser("verify", help="run every property suite")
    verify.add_argument("--grid-density", type=int, dest="density", metavar="GRID_DENSITY",
                        default=argparse.SUPPRESS, help="grid points per axis (>= 2)")
    verify.add_argument("--config", help="key = value file overriding grid settings")
    verify.add_argument("--verbose", action="store_true", help="print every failure, not just the first")
    verify.set_defaults(handler=cmd_verify, parser=verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        args.parser.error(str(exc))
    except (ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
