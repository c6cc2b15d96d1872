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

Only the closed forms and the grid config load with this module; each
handler imports the spectral layers it needs, so `fourmode sweep`,
`--help` and argument errors run without numpy.

`fourmode sweep` splits the grid into contiguous blocks of a-rows, one
per usable CPU (never more blocks than rows; one where the OS reports no
CPU affinity).  The calling process computes the first block; each other
block runs in an `os.fork` worker that sends its encoded rows, or its
ArithmeticError's type and message, down a pipe and leaves through
`os._exit`.  The first failure in a-major order is raised, a worker that
dies is an OSError naming it, and `--out` is opened only once every
block has succeeded, so the bytes are those of one serial pass.
"""
from __future__ import annotations

import argparse
import functools
import os
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


# the monogamy_ok and strong_monogamy_ok cells of a sweep line
_FLAG_CELLS = {
    (mono, strong): f"{_text(mono)},{_text(strong)}" for mono in (False, True) for strong in (False, True)
}


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
        "monogamy_ok": forms.monogamy_ok,
        "strong_monogamy_ok": forms.strong_monogamy_ok,
    }


def _format_table(row: dict, style: str) -> str:
    if style == "csv":
        header = ",".join(row)
        values = ",".join(_text(value) for value in row.values())
        return f"{header}\n{values}\n"
    import json  # only a rendered report needs it, so sweep, --help and argument errors skip it

    payload = {name: _json_ready(value) for name, value in row.items()}
    return json.dumps(payload, indent=2) + "\n"


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


def _grid(args, **flags) -> GridConfig:
    # the flags, overridden by the config file, checked once as one grid
    if args.config:
        flags.update(load_config(args.config))
    return GridConfig(**flags)


def _sweep_rows(a_values: list, s_values: list) -> list:
    """The encoded CSV lines of the grid rows at `a_values`, one bytes object per row."""

    @functools.cache  # on first use, so an s past float64 fails at its own first point
    def column(s: float) -> tuple:
        terms = contangle.s_terms(s)
        return terms, _text(s), _text(terms.tau_pairblock)

    tau_14 = _text(contangle.SEPARABLE_CONTANGLE)
    # each row is encoded as soon as it is done, so its per-point lines are freed row by row
    rows = []
    try:
        for a in a_values:
            s = s_values[0]
            row = contangle.a_terms(a)
            # the a, tau_12 and tau_14 cells are fixed along a row
            template = f"{_text(a)},%s,{_text(row.tau_pair)},%.12g,{tau_14},%s,%.12g,%.12g,%.12g,%s\n"
            lines = []
            for s in s_values:
                terms, s_cell, tau_pairblock = column(s)
                tau_1_rest, _, tau_23, _, _, res, bound, mono, strong = contangle.point_forms(row, terms)
                lines.append(template % (s_cell, tau_23, tau_pairblock, tau_1_rest, res, bound,
                                         _FLAG_CELLS[mono, strong]))
            rows.append("".join(lines).encode("ascii"))
    except (OverflowError, ValueError) as exc:
        raise _failed_at(exc, a, s) from None
    return rows


# a worker's payload: one kind byte, the body's length in 8 big-endian bytes, then the body
_ROWS, _FAILED = b"R", b"F"
_HEAD = 9
# a worker's failure crosses the pipe as its type name and message
_ARITHMETIC = {error.__name__: error for error in (ArithmeticError, OverflowError, ZeroDivisionError)}


def _fork_rows(a_values: list, s_values: list) -> tuple:
    """Fork a worker that sends `_sweep_rows(a_values, s_values)` down a pipe: (pid, read end).

    The worker never returns: it leaves through os._exit, so nothing of the
    caller (buffered output, atexit handlers, a test runner) runs twice.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:
        os.close(read_end)
        try:
            kind, body = _ROWS, _sweep_rows(a_values, s_values)
        except ArithmeticError as exc:
            kind, body = _FAILED, [f"{type(exc).__name__}\n{exc}".encode()]
        with open(write_end, "wb") as pipe:
            pipe.write(kind + sum(map(len, body)).to_bytes(_HEAD - 1, "big"))
            pipe.writelines(body)
        status = 0
    finally:
        os._exit(status)


def _read_payload(read_end: int) -> tuple:
    """(head, body, bytes received) from a worker's pipe; short if the worker died."""
    with open(read_end, "rb", buffering=0, closefd=False) as pipe:
        head = pipe.read(_HEAD)
        body = bytearray(int.from_bytes(head[1:], "big") if len(head) == _HEAD else 0)
        view, got = memoryview(body), 0
        while got < len(body) and (chunk := pipe.readinto(view[got:])):
            got += chunk
    return head, body, got


def cmd_fourmode_sweep(args) -> int:
    cfg = _grid(args, a_min=args.a_min, a_max=args.a_max, s_min=args.s_min, s_max=args.s_max,
                density=args.steps)
    a_values, s_values = cfg.a_values(), cfg.s_values()
    # contiguous blocks of a-rows, one per usable CPU, each past the first in a forked worker:
    # threads would take turns on the GIL, and numpy's transcendentals differ from libm in the
    # last bit.  Where the OS reports no CPU affinity (macOS, Windows) the sweep stays serial.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    count = min(cpus, len(a_values))
    edges = [len(a_values) * k // count for k in range(count + 1)]
    blocks = [a_values[lo:hi] for lo, hi in zip(edges, edges[1:])]
    workers = []  # (pid, read end of its pipe, block), in a-major order
    try:
        for block in blocks[1:]:
            workers.append((*_fork_rows(block, s_values), block))
        rows = _sweep_rows(blocks[0], s_values)  # the parent's own failure comes first in a-major order
        payloads = [_read_payload(read_end) for _, read_end, _ in workers]
    except BaseException:
        import signal  # only a failed sweep needs it

        for pid, _, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = []
        for pid, read_end, _ in workers:
            os.close(read_end)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _, block), status, (head, body, got) in zip(workers, statuses, payloads):
        if status != 0 or len(head) != _HEAD or got != len(body):
            raise OSError(f"sweep worker {pid} for a={block[0]} to {block[-1]} exited with status "
                          f"{status} after sending {len(head) + got} bytes of its payload")
        if head[:1] == _FAILED:
            name, message = body.decode().split("\n", 1)
            raise _ARITHMETIC.get(name, ArithmeticError)(message)
        rows.append(body)
    with open(args.out, "wb") as out:  # opened only once every block has succeeded
        out.write((",".join(SWEEP_FIELDS) + "\n").encode("ascii"))
        out.writelines(rows)
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

    results = verification.run_all(_grid(args, density=args.grid_density))
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
    sweep.add_argument("--a-min", type=float, default=0.0)
    sweep.add_argument("--a-max", type=float, default=2.5)
    sweep.add_argument("--s-min", type=float, default=0.0)
    sweep.add_argument("--s-max", type=float, default=2.5)
    sweep.add_argument("--steps", type=int, default=26, help="grid points per axis (>= 2)")
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
    verify.add_argument("--grid-density", type=int, default=26, help="grid points per axis (>= 2)")
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


if __name__ == "__main__":
    sys.exit(main())
