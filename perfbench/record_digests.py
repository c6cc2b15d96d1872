"""Record the output digests that later runs must reproduce byte for byte.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json from the program in the checkout's src/:
the sha256 of the sweep_dense CSV and of the first DIGEST_REQUESTS
point_reports outputs for seeds 0..SEEDS-1, and of the verify output.
Run it only at a commit whose outputs are the reference; the digests in
the repository were taken at the commit that added this benchmark.
"""
from __future__ import annotations

import hashlib
import json

import run
import streams

SEEDS = 64


def main() -> None:
    cli = run.import_cli()
    run.WORK.mkdir(exist_ok=True)
    config, out = run.WORK / "record.cfg", run.WORK / "record.csv"
    sweep, points = {}, {}
    for seed in range(SEEDS):
        config.write_text(streams.sweep_config(seed))
        _, rc, _ = run.call_cli(cli, streams.sweep_argv(str(config), str(out)))
        if rc != 0:
            raise SystemExit(f"sweep failed for seed {seed}")
        sweep[str(seed)] = hashlib.sha256(out.read_bytes()).hexdigest()
        records = [
            (argv, *run.call_cli(cli, argv)[1:])
            for argv in streams.first_requests(seed, run.DIGEST_REQUESTS)
        ]
        points[str(seed)] = run.request_digest(records)
    _, rc, stdout = run.call_cli(cli, list(streams.VERIFY_ARGV))
    if rc != 0:
        raise SystemExit("verify failed")
    digests = {
        "sweep_dense": sweep,
        "verify_battery": hashlib.sha256(stdout.encode()).hexdigest(),
        "point_reports": points,
    }
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    config.unlink()
    out.unlink()


if __name__ == "__main__":
    main()
