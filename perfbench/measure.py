"""One benchmark run: generate, replay, gate, and derive the metrics.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced replays and reports the
per-layer metrics plus the tracing overhead.  Both modes gate every
replay against the reference and count operations attempted and failed:
an operation is one sealed-interval report, one archive query, one
planted-change check, or one retrospective check.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.hashing import kernel_call_counts, kernel_seconds

from perfbench import gate
from perfbench.env import OUT_DIR, ROOT, EnvError
from perfbench.traces import make_trace, probe_keys
from perfbench.tracing import SESSION, Tracer
from perfbench.workloads import get_workload, replay

PROBE_KEYS = 256
QUERY_COUNT = 128
#: Passes over the query batch in a traced run (``archive.query_s`` is per pass).
QUERY_PASSES = 4
SETUP_PROBES = 7

#: End-to-end metric units (BENCHMARK.json mirrors these).
E2E_UNITS = {
    "records_per_s": "rec/s",
    "detect_latency_p50_ms": "ms",
    "detect_latency_p90_ms": "ms",
    "archive_query_p50_ms": "ms",
    "archive_query_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: Per-layer metric units, in table order.
LAYER_UNITS = {
    "streams.extract_s": "s",
    "streams.columns_s": "s",
    "sketch.update_batch_s": "s",
    "sketch.update_batch_calls": "count",
    "sketch.records_per_update_call": "rec/call",
    "hashing.update_kernel_s": "s",
    "hashing.estimate_kernel_s": "s",
    "hashing.kernel_calls": "count",
    "detection.ingest_self_s": "s",
    "detection.keysource_s": "s",
    "detection.report_s": "s",
    "detection.candidates": "count",
    "detection.median_evaluated": "count",
    "detection.intervals_sealed": "count",
    "forecast.step_s": "s",
    "archive.ingest_s": "s",
    "archive.compactions": "count",
    "archive.bytes": "B",
    "archive.query_s": "s",
    "trace.named_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Tally:
    """Operations attempted and failed over a run."""

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


class Run:
    """State shared by both modes: trace, schema, reference and gate."""

    def __init__(self, name: str, seed: int, tiny: bool) -> None:
        self.workload = get_workload(name, tiny)
        self.seed = seed
        self.records, self.planted = make_trace(self.workload.trace, seed)
        self.feed = self.workload.feed(self.records)
        self.probe = probe_keys(self.records, self.planted, PROBE_KEYS, seed)
        self.schema = None
        self.reference = None
        self.tally = Tally()

    def new_session(self, sink_archive: bool):
        archive = self.workload.archive(self.schema) if sink_archive else None
        session = self.workload.session(
            self.schema, sink=None if archive is None else archive.ingest
        )
        return session, archive

    def check(self, result) -> None:
        """Gate one replay's reports and planted changes."""
        failures = gate.report_failures(result.reports, self.reference)
        missed = gate.missed_changes(result.reports, self.planted)
        self.tally.add(
            max(len(result.reports), len(self.reference)) + len(self.planted),
            failures + len(missed),
        )

    def check_archive(self, archive) -> None:
        """Every planted change must be found in its compacted span."""
        for change in self.planted:
            found = gate.retrospective_found(archive, change, self.probe)
            self.tally.add(1, 0 if found else 1)

    def query_pass(self, archive, batch, tracer=None) -> List[float]:
        """Run the query batch once; seconds per query that did not raise."""
        width = self.workload.trace.interval_seconds
        clock = time.perf_counter
        samples = []
        for range_a, range_b, key in batch:
            t0 = clock()
            try:
                if tracer is None:
                    _query(archive, range_a, range_b, key, self.probe, width)
                else:
                    tracer.call(
                        "archive.query", _query,
                        archive, range_a, range_b, key, self.probe, width,
                    )
            except Exception:  # a query that raises is a failed operation
                self.tally.add(1, 1)
                continue
            samples.append(clock() - t0)
            self.tally.add(1, 0)
        return samples


def _query(archive, range_a, range_b, key, probe, width) -> None:
    archive.diff(range_a, range_b, t_fraction=gate.T_FRACTION, keys=probe)
    archive.estimate(key, range_a[0] * width, range_a[1] * width)


# -- end-to-end mode -----------------------------------------------------------


def _proc_kib(field: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise EnvError(f"/proc/self/status has no {field}")


def _reset_peak_rss() -> None:
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError as exc:
        raise EnvError(f"cannot reset the RSS high-water mark: {exc}") from exc


def setup_seconds(name: str) -> float:
    """Set-up time of one fresh process.

    The calling process has already compiled and loaded the kernels, so
    the compile cache is warm: users compile once per host, not per run.
    """
    argv = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), name]
    out = subprocess.run(
        argv, cwd=ROOT, env=os.environ, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def end_to_end(name: str, seed: int, seconds: float, tiny: bool = False):
    run = Run(name, seed, tiny)
    workload = run.workload

    # Peak RSS over set-up plus one untimed warm-up replay configured like
    # the timed ones, above the RSS of the loaded trace.
    gc.collect()
    base_kib = _proc_kib("VmRSS")
    _reset_peak_rss()
    run.schema = workload.schema()
    session, archive = run.new_session(workload.archive_in_path)
    warm = replay(workload, session, run.feed)
    peak_mib = (_proc_kib("VmHWM") - base_kib) / 1024.0
    del session

    run.reference = gate.reference_reports(workload, run.schema, run.records)
    run.check(warm)
    del warm
    if archive is None:
        # The query batch reads an archive: fill one in an untimed replay.
        session, archive = run.new_session(True)
        run.check(replay(workload, session, run.feed))
        del session
    run.check_archive(archive)
    batch = gate.query_batch(archive, run.probe, QUERY_COUNT, seed)

    # Host speed drifts over seconds, so every sample kind is interleaved
    # across the whole measured span rather than taken in one burst.
    walls, latencies, queries, setups = [], [], [], []
    deadline = time.perf_counter() + seconds
    while (
        not walls
        or len(setups) < (1 if tiny else SETUP_PROBES)
        or time.perf_counter() < deadline
    ):
        session, _ = run.new_session(workload.archive_in_path)
        result = replay(workload, session, run.feed)
        del session
        run.check(result)
        walls.append(result.wall)
        latencies.extend(result.latencies)
        queries.extend(run.query_pass(archive, batch))
        if len(setups) < SETUP_PROBES:
            setups.append(setup_seconds(name))

    n_records = len(run.records)
    metrics = {
        "records_per_s": n_records / statistics.median(walls),
        "detect_latency_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
        "detect_latency_p90_ms": 1e3 * float(np.percentile(latencies, 90)),
        "archive_query_p50_ms": 1e3 * float(np.percentile(queries, 50)),
        "archive_query_p90_ms": 1e3 * float(np.percentile(queries, 90)),
        "peak_rss_mb": peak_mib,
        "setup_s": statistics.median(setups),
    }
    detail = {
        "replays": len(walls),
        "records": n_records,
        "latency_samples": len(latencies),
        "query_samples": len(queries),
        "archive": archive.stats,
    }
    return run.tally, metrics, detail


# -- traced mode ---------------------------------------------------------------


def _kernel_totals(*kinds: str) -> float:
    return sum(
        s for k, s in kernel_seconds().items() if any(x in k for x in kinds)
    )


def traced(name: str, seed: int, seconds: float, tiny: bool = False):
    run = Run(name, seed, tiny)
    workload = run.workload
    run.schema = workload.schema()
    run.reference = gate.reference_reports(workload, run.schema, run.records)
    sketch_cls = type(run.schema.empty())
    tracer = Tracer()

    plain_walls, traced_walls, traced_runs = [], [], []
    update_s = estimate_s = 0.0
    kernel_calls = 0
    deadline = time.perf_counter() + seconds
    while not traced_runs or time.perf_counter() < deadline:
        session, archive = run.new_session(workload.archive_in_path)
        result = replay(workload, session, run.feed)
        run.check(result)
        plain_walls.append(result.wall)

        session, archive = run.new_session(workload.archive_in_path)
        tracer.run = f"replay-{len(traced_runs)}"
        update0 = _kernel_totals("update")
        estimate0 = _kernel_totals("estimate", "gather")
        calls0 = sum(kernel_call_counts().values())
        tracer.instrument(session, sketch_cls)
        try:
            result = replay(workload, session, run.feed)
        finally:
            tracer.restore()
        update_s += _kernel_totals("update") - update0
        estimate_s += _kernel_totals("estimate", "gather") - estimate0
        kernel_calls += sum(kernel_call_counts().values()) - calls0
        run.check(result)
        traced_walls.append(result.wall)
        traced_runs.append(tracer.run)

    replay_session = session
    archive_runs = traced_runs
    if not workload.archive_in_path:
        session, archive = run.new_session(True)
        tracer.run = "archive-fill"
        tracer.patch(session, "sink", "archive.ingest")
        try:
            run.check(replay(workload, session, run.feed))
        finally:
            tracer.restore()
        archive_runs = [tracer.run]
    run.check_archive(archive)
    tracer.run = "queries"
    batch = gate.query_batch(archive, run.probe, QUERY_COUNT, seed)
    for _ in range(QUERY_PASSES):
        run.query_pass(archive, batch, tracer)

    n = len(traced_runs)
    totals = tracer.totals(traced_runs)
    archive_totals = tracer.totals(archive_runs)
    query_totals = tracer.totals(["queries"])

    def seconds_of(name: str, table=totals, per: int = n) -> float:
        return table.get(name, {}).get("ns", 0) / per / 1e9

    update_calls = totals.get("sketch.update_batch", {}).get("calls", 0) / n
    metrics = {
        "streams.extract_s": seconds_of("streams.extract"),
        "streams.columns_s": seconds_of("streams.columns"),
        "sketch.update_batch_s": seconds_of("sketch.update_batch"),
        "sketch.update_batch_calls": update_calls,
        "sketch.records_per_update_call": len(run.records) / update_calls,
        "hashing.update_kernel_s": update_s / n,
        "hashing.estimate_kernel_s": estimate_s / n,
        "hashing.kernel_calls": kernel_calls / n,
        "detection.ingest_self_s": totals[SESSION]["self_ns"] / n / 1e9,
        "detection.keysource_s": seconds_of("detection.keysource"),
        "detection.report_s": seconds_of("detection.report"),
        "detection.candidates": replay_session.stats["detection"]["candidates"],
        "detection.median_evaluated": replay_session.stats["detection"][
            "median_evaluated"
        ],
        "detection.intervals_sealed": replay_session.intervals_sealed,
        "forecast.step_s": seconds_of("forecast.step"),
        "archive.ingest_s": seconds_of(
            "archive.ingest", archive_totals, len(archive_runs)
        ),
        "archive.compactions": archive.stats["time_compactions"]
        + archive.stats["item_compactions"],
        "archive.bytes": archive.nbytes,
        "archive.query_s": seconds_of("archive.query", query_totals, QUERY_PASSES),
        "trace.named_share": statistics.median(
            tracer.named_ns(r) / 1e9 / wall
            for r, wall in zip(traced_runs, traced_walls)
        ),
        "trace.overhead_ratio": statistics.median(traced_walls)
        / statistics.median(plain_walls),
    }
    detail = {
        "traced_replays": n,
        "plain_replays": len(plain_walls),
        "spans": len(tracer.spans),
        "by_span": {
            k: {
                "calls": v["calls"] / n,
                "s": v["ns"] / n / 1e9,
                "self_s": v["self_ns"] / n / 1e9,
            }
            for k, v in sorted(totals.items())
        },
    }
    tracer.write(OUT_DIR / "spans" / f"{name}-seed{seed}.jsonl")
    return run.tally, metrics, detail
