"""The named workloads and the closed-loop replay that drives them.

Load model: one process, closed loop.  The caller hands the session its
next chunk only after ``ingest`` / ``ingest_columns`` returns, the way a
collector daemon drives this blocking in-process API, so the measured
rate is the sustainable rate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.archive import TemporalArchive
from repro.detection import OfflineTwoPassDetector, StreamingSession
from repro.sketch import InvertibleKArySchema, KArySchema
from repro.streams import sharding
from repro.traffic import ROUTER_PROFILES

from perfbench.traces import TraceSpec

#: The session's default threshold; the model parameters below are the
#: model zoo's defaults, and the fold limit and tail window the archive's.
T_FRACTION = 0.05
DEPTH = 5
WIDTH = 8192
SCHEMA_SEED = 11
MAX_FOLDS = 3
#: Archive byte budget in full-width tables: tight enough that the
#: seal-heavy trace forces both time and item (fold) compactions.
BUDGET_TABLES = 10
TAIL_INTERVALS = 8


@dataclass(frozen=True)
class Workload:
    """One named workload: a trace shape plus how the session consumes it.

    ``BENCHMARK.json`` records why each workload was chosen.

    ``chunk_records`` is the record-array chunk handed to each ``ingest``
    call; ``None`` means whole-interval columnar blocks into
    ``ingest_columns``.  ``archive_in_path`` attaches the temporal
    archive as the session sink on every timed replay; otherwise the
    archive is filled by one untimed replay before the query batch.
    """

    name: str
    trace: TraceSpec
    chunk_records: Optional[int]
    key_source: str
    model: str
    model_params: Dict[str, float] = field(default_factory=dict)
    top_n: int = 0
    archive_in_path: bool = False

    def schema(self):
        invertible = self.key_source == "invertible"
        cls = InvertibleKArySchema if invertible else KArySchema
        return cls(depth=DEPTH, width=WIDTH, seed=SCHEMA_SEED)

    def session(self, schema, sink=None) -> StreamingSession:
        return StreamingSession(
            schema,
            self.model,
            interval_seconds=self.trace.interval_seconds,
            t_fraction=T_FRACTION,
            top_n=self.top_n,
            key_source=self.key_source,
            sink=sink,
            **self.model_params,
        )

    def archive(self, schema) -> TemporalArchive:
        return TemporalArchive(
            schema,
            self.trace.interval_seconds,
            byte_budget=BUDGET_TABLES * schema.table_bytes,
            max_folds=MAX_FOLDS,
            tail_intervals=TAIL_INTERVALS,
        )

    def detector(self, schema) -> OfflineTwoPassDetector:
        """The untimed reference: same schema, model and key source."""
        return OfflineTwoPassDetector(
            schema,
            self.model,
            t_fraction=T_FRACTION,
            top_n=self.top_n,
            key_source=self.key_source,
            **self.model_params,
        )

    def feed(self, records: np.ndarray):
        """What the caller hands in: record chunks, or the trace for columns."""
        if self.chunk_records is None:
            return records
        step = self.chunk_records
        return [records[i : i + step] for i in range(0, len(records), step)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The realistic collector batch: per-call overhead dominates --
        # interval slicing, per-chunk key dedup and kernel marshalling on
        # every UPDATE -- and seal work is a small share.  Traffic is the
        # "medium" router's: 8,500 records per interval over 18,000 Zipf
        # keys, so 120 intervals make about 1M records.
        Workload(
            name="collector_64",
            trace=TraceSpec(
                profile=ROUTER_PROFILES["medium"], n_intervals=120,
                interval_seconds=300.0, dos_at=0.4, flash_at=0.7,
            ),
            chunk_records=64,
            key_source="twopass",
            model="ewma",
            model_params={"alpha": 0.5},
        ),
        # The fused hash + vote UPDATE loop and seal-time key recovery
        # dominate; per-call overhead and key dedup are absent, so a fix
        # to either must show no change here.  The "large" router's rate
        # and skew (40,000 records per interval, about 4.4M in all) over a
        # 1M-key population, which spreads recovery over many keys.
        Workload(
            name="bulk_columnar_invertible",
            trace=TraceSpec(
                profile=replace(
                    ROUTER_PROFILES["large"], key_population=1_000_000
                ),
                n_intervals=110, interval_seconds=300.0,
                dos_at=0.4, flash_at=0.7,
            ),
            chunk_records=None,
            key_source="invertible",
            model="ewma",
            model_params={"alpha": 0.5},
        ),
        # Forecast step, threshold, report build and archive compaction
        # dominate and UPDATE is a small share; archive writes (sink and
        # compaction) sit beside archive reads (the query batch), so a
        # gain on one that costs the other shows.  The "medium" router's
        # rate at 60 s intervals (1,700 records each) with uniform keys, so
        # nearly every record of an interval is a distinct key.
        Workload(
            name="seal_heavy_archive",
            trace=TraceSpec(
                profile=replace(ROUTER_PROFILES["medium"], zipf_exponent=0.0),
                n_intervals=440, interval_seconds=60.0,
                dos_at=0.15, flash_at=0.6,
            ),
            chunk_records=4096,
            key_source="twopass",
            model="nshw",
            model_params={"alpha": 0.5, "beta": 0.2},
            top_n=20,
            archive_in_path=True,
        ),
    )
}


def get_workload(name: str, tiny: bool = False) -> Workload:
    """The named workload; ``tiny`` shrinks its trace for self-tests."""
    workload = WORKLOADS[name]
    if not tiny:
        return workload
    spec = workload.trace
    profile = spec.profile
    return replace(
        workload,
        trace=replace(
            spec,
            # At least 1280 records per 300 s, so 256 per 60 s interval.
            profile=replace(
                profile,
                records_per_interval=max(1280, profile.records_per_interval // 64),
                key_population=min(profile.key_population, 20_000),
            ),
            n_intervals=40,
        ),
    )


@dataclass
class Replay:
    """One closed-loop pass over the trace."""

    reports: list
    wall: float
    #: Per report: seconds of the call that emitted it.
    latencies: List[float]


def replay(workload: Workload, session: StreamingSession, feed) -> Replay:
    """Drive ``session`` over ``feed`` in a closed loop.

    Wall time runs from the start of feeding (for the columnar workload:
    from the start of column extraction) to the return of ``flush()``.
    A report's latency is the duration of the call that emitted it --
    the chunk carrying the first record past its interval's end, or the
    final ``flush()``.
    """
    clock = time.perf_counter
    reports: list = []
    latencies: List[float] = []
    start = clock()
    if workload.chunk_records is None:
        chunks = sharding.iter_interval_columns(
            feed,
            workload.trace.interval_seconds,
            key_scheme=session.key_scheme,
            value_scheme=session.value_scheme,
        )
        ingest = session.ingest_columns
    else:
        chunks, ingest = feed, session.ingest
    for chunk in chunks:
        t0 = clock()
        out = ingest(chunk)
        if out:
            latencies.extend([clock() - t0] * len(out))
            reports.extend(out)
    t0 = clock()
    out = session.flush()
    end = clock()
    latencies.extend([end - t0] * len(out))
    reports.extend(out)
    return Replay(reports, end - start, latencies)
