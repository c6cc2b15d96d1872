#!/usr/bin/env python3
"""List the lines of the promiscuity package that a set of CLI calls never runs.

A line tracer is set on every frame of the package's source files before
the package is imported, and each call goes through `cli.main` in this
one process, its output discarded.  Per module, the script then prints
the executable lines (those the compiled module's code objects list, by
co_lines) that no call reached.  It decides nothing: an unreached line
is a candidate for deletion only once no input can reach it.

With no --call, the calls are the fixed list below: every subcommand,
every exit code, the refused and the faint points, the configs the byte
pins use, and each error path a user input reaches (a point where the
two routes disagree, a grid or d past float64, min > max, and a missing,
malformed or non-UTF-8 config file), grouped by the exit code each
promises (CALLS_BY_EXIT).  Each --call is one argv in shell syntax, and
`{tmp}` in it names a scratch directory holding the config files of
CONFIGS and BROKEN_CONFIGS.

    python scripts/reach_scan.py
    python scripts/reach_scan.py --call "fourmode report --a 1 --s 1"
"""
import argparse
import contextlib
import importlib.util
import io
import shlex
import sys
import tempfile
from pathlib import Path

CONFIGS = {
    "wide_57.cfg": "a_max = 7.0\ns_max = 7.0\ngrid_density = 57\n",
    "faint_21.cfg": "a_max = 1e-4\ns_max = 5e-8\ngrid_density = 21\n",
    "faint_verify.cfg": "a_max = 1e-4\ns_max = 5e-8\ngrid_density = 6\n",
    "equal_a.cfg": "a_min = 1\na_max = 1\n",
}
BROKEN_CONFIGS = {
    "no_equals.cfg": "# a comment, then a blank line\n\na_min = 0\nwhat even is this\n",
    "unknown_key.cfg": "steps = 3\n",
    "density_x.cfg": "grid_density = x\n",
    "negative_a.cfg": "a_max = -1\n",
    "density_1.cfg": "grid_density = 1\n",
    "s_max_inf.cfg": "s_max = inf\n",
    "not_utf8.cfg": b"\xff\xfea_max = 1\n",
}
REPORT_POINTS = [
    ("0", "0"), ("1.5", "1"), ("0.5", "0.25"), ("2.5", "2.5"), ("2.4", "2.3"), ("0.0625", "7.4375"),
    ("-0", "1e-9"), ("4.8", "1.0"), ("1e-9", "0.5"), ("0.5", "3e-8"),
]
# each fails numerically at a valid point
REFUSED_POINTS = [("3", "5"), ("0", "8"), ("5", "6"), ("400", "1"), ("709", "3"), ("710", "0"), ("1000", "0")]


def _reports(points) -> list:
    return [f"fourmode report --a {a} --s {s} --format {fmt}" for a, s in points for fmt in ("json", "csv")]


CALLS_BY_EXIT = {
    0: [
        *_reports(REPORT_POINTS),
        "fourmode sweep --steps 26 --out {tmp}/sweep.csv",
        "fourmode sweep --config {tmp}/wide_57.cfg --out {tmp}/sweep.csv",
        "fourmode sweep --config {tmp}/faint_21.cfg --out {tmp}/sweep.csv",
        "qudit report --d 4",
        "qudit report --d 36 --format csv",
        "qudit report --d 1456",
        "verify",
        "verify --grid-density 26",
    ],
    # refused: a failure or an inconsistency at a valid input
    1: [
        *_reports(REFUSED_POINTS),
        "fourmode report --a 4.75 --s 0.5",
        "fourmode sweep --a-max 400 --out {tmp}/sweep.csv",
        "fourmode sweep --s-max 30 --out {tmp}/sweep.csv",
        "qudit report --d 4" + "0" * 320,
        "verify --config {tmp}/faint_verify.cfg",
    ],
    # bad arguments
    2: [
        "fourmode report --a nan --s 1",
        "fourmode report --a -1 --s 1",
        "fourmode sweep --steps 1 --out {tmp}/sweep.csv",
        "fourmode sweep --a-max inf --out {tmp}/sweep.csv",
        "fourmode sweep --a-min 5 --a-max 3 --out {tmp}/sweep.csv",
        "verify --grid-density 1",
        "verify --config {tmp}/equal_a.cfg",
        "verify --config {tmp}/missing.cfg",
        *(f"fourmode sweep --config {{tmp}}/{name} --out {{tmp}}/sweep.csv" for name in BROKEN_CONFIGS),
        "qudit report --d 5",
    ],
}
CALLS = [call for calls in CALLS_BY_EXIT.values() for call in calls]


def _executable_lines(path: Path) -> set:
    code_objects, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while code_objects:
        code = code_objects.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        code_objects.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--call", action="append", help="one CLI argv in shell syntax (repeatable)")
    calls = parser.parse_args().call or CALLS

    package = Path(importlib.util.find_spec("promiscuity").submodule_search_locations[0]).resolve()
    reached = {str(path): set() for path in sorted(package.glob("*.py"))}

    def trace(frame, event, arg):
        lines = reached.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in {**CONFIGS, **BROKEN_CONFIGS}.items():
            Path(tmp, name).write_bytes(text if isinstance(text, bytes) else text.encode())
        sys.settrace(trace)
        try:
            from promiscuity import cli

            codes = []
            for call in calls:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        codes.append(cli.main(shlex.split(call.format(tmp=tmp))))
                    except SystemExit as exc:
                        codes.append(exc.code)
        finally:
            sys.settrace(None)

    for code, call in zip(codes, calls):
        print(f"exit {code}: {call}")
    for path, lines in reached.items():
        missed = sorted(_executable_lines(Path(path)) - lines)
        print(f"{Path(path).name}: {len(missed)} unreached: {', '.join(map(str, missed)) or '-'}")


if __name__ == "__main__":
    main()
