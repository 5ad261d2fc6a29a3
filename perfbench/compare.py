"""Compare two benchmark run logs, workload by workload and metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each log holds one JSON line per run, as ``perfbench/run.py`` appends to
``.bench_build/perfbench/runs.jsonl``.  Runs are grouped by workload,
mode (``trace``), run length and size; for each group present in both
logs the tool prints each metric's median and quartiles per side and the
change of the median.  End-to-end metrics whose median got worse by more
than the bound in ``BENCHMARK.json`` are flagged WORSE.  A metric whose
quartile spread (IQR / median) exceeds its bound on either side is
flagged UNRESOLVED -- its median says nothing at that noise -- unless
every new run beats every base run.

Exits 2, comparing nothing, when any two runs' environment provenance
differs (kernel thread count, compiled kernels, Python or NumPy version,
CPU count, ...): such runs measure different things.  Exits 1 when a
metric is flagged WORSE or UNRESOLVED, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def group(runs) -> dict:
    out: dict = {}
    for run in runs:
        key = (run["workload"], run["trace"], run["seconds"], run["tiny"])
        out.setdefault(key, []).append(run)
    return out


def bounds() -> dict:
    """``{metric: (better, bound)}`` for the end-to-end metrics."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except FileNotFoundError:
        return {}
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    med, q1, q3 = summary(values)
    return (q3 - q1) / med if med else float("inf")


def summary(values) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def compare(base: list, new: list, limits: dict) -> int:
    """Print the comparison; returns the number of flagged metrics."""
    flagged = 0
    base_groups, new_groups = group(base), group(new)
    for key in sorted(set(base_groups) & set(new_groups)):
        workload, trace, seconds, tiny = key
        print(f"{workload} trace={trace} seconds={seconds} tiny={tiny} "
              f"runs={len(base_groups[key])}/{len(new_groups[key])}")
        metrics = base_groups[key][0]["metrics"]
        for name, first in metrics.items():
            base_values = [r["metrics"][name]["value"] for r in base_groups[key]]
            new_values = [r["metrics"][name]["value"] for r in new_groups[key]]
            old, cur = summary(base_values), summary(new_values)
            change = (cur[0] - old[0]) / old[0] if old[0] else float("nan")
            mark = ""
            if name in limits:
                better, bound = limits[name]
                worse = -change if better == "higher" else change
                beats = (
                    min(new_values) > max(base_values)
                    if better == "higher"
                    else max(new_values) < min(base_values)
                )
                noisy = max(spread(base_values), spread(new_values)) > bound
                if noisy and not beats:
                    mark = f"  UNRESOLVED: spread above bound {bound}"
                    flagged += 1
                elif worse > bound:
                    mark = f"  WORSE than bound {bound}"
                    flagged += 1
            print(f"  {name:<34} {old[0]:>14.6g} [{old[1]:.6g}, {old[2]:.6g}] -> "
                  f"{cur[0]:>14.6g} [{cur[1]:.6g}, {cur[2]:.6g}] "
                  f"{change:+.2%} {first['unit']}{mark}")
    return flagged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    provenances = {json.dumps(r["provenance"], sort_keys=True) for r in base + new}
    if len(provenances) > 1:
        print("refusing to compare runs whose provenance differs:", file=sys.stderr)
        for p in sorted(provenances):
            print(f"  {p}", file=sys.stderr)
        return 2
    return 1 if compare(base, new, bounds()) else 0


if __name__ == "__main__":
    sys.exit(main())
