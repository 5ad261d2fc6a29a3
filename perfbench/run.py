"""End-to-end, layer-attributed benchmark of the streaming detection path.

Replays a seeded synthetic flow trace through the public
``StreamingSession`` API (ingest -> seal -> forecast -> detect ->
archive) on one named workload, checks every report against an untimed
reference, and prints the metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload collector_64 --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
prints the per-layer metrics from a traced run, with its overhead.
Every run also appends its result and environment provenance to
``.bench_build/perfbench/runs.jsonl``; ``perfbench/compare.py`` compares
two such logs and refuses when their provenance differs.  ``--tiny``
shrinks the traces for the benchmark's own tests.

Exits 2 without a result when the program source is missing or the
compiled kernels do not load.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env  # noqa: E402

WORKLOAD_NAMES = ("collector_64", "bulk_columnar_invertible", "seal_heavy_archive")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    return parser.parse_args(argv)


def _table(title, rows) -> str:
    lines = [title]
    for name, value, unit in rows:
        lines.append(f"  {name:<34} {value:>16.6g} {unit}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.bootstrap()
        env.require_kernels()
    except (env.EnvError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from perfbench import measure

    started = time.time()
    mode = measure.traced if args.trace else measure.end_to_end
    tally, metrics, detail = mode(args.workload, args.seed, args.seconds, args.tiny)
    units = measure.LAYER_UNITS if args.trace else measure.E2E_UNITS
    provenance = env.provenance()

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    if args.trace:
        print(_table(
            "per-span (per traced replay): calls, inclusive s, self s",
            [
                (f"{k} {col}", v[col], unit)
                for k, v in detail["by_span"].items()
                for col, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))
            ],
        ))
    print(_table(
        f"{args.workload} metrics",
        [(k, metrics[k], units[k]) for k in units],
    ))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    env.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(env.OUT_DIR / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "started": started, "provenance": provenance, **result,
        }) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
