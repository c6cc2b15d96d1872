"""One fresh-process CLI call, as a user would make it.

    python3 perfbench/child.py SRC_DIR META_JSON SPANS_FILE|- -- CLI_ARGS...

Runs `promiscuity.cli.main(CLI_ARGS)` from SRC_DIR, then writes the exit
code and this process's peak resident memory to META_JSON.  The peak is
read from VmHWM, which counts only this interpreter's own memory, not
the parent's pages a fork carries over.  Given a SPANS_FILE, the
tracer is installed first; its spans go to that file and its counters
into META_JSON.
"""
from __future__ import annotations

import json
import sys
import traceback


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv: list[str]) -> int:
    src, meta_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py SRC_DIR META_JSON SPANS_FILE|- -- CLI_ARGS...")
    sys.path.insert(0, src)
    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from promiscuity import cli

    try:
        rc = cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = 70
    sys.stdout.flush()
    meta = {"rc": rc, "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path)
        meta["counters"] = dict(tracer.counters)
    with open(meta_path, "w", encoding="ascii") as out:
        json.dump(meta, out)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
