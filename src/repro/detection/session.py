"""Streaming ingestion session: live change detection over record chunks.

The batch pipelines in this package consume whole traces.  A deployed
monitor instead receives flow records continuously, in arbitrary chunks
whose boundaries have nothing to do with analysis intervals.
:class:`StreamingSession` bridges that gap:

* records are ingested in any chunk sizes (within a chunk they may be
  unsorted; chunks themselves must not go backwards in time past an
  already-closed interval -- the tolerance is configurable);
* whenever ingestion crosses an interval boundary, the finished
  interval's sketch is sealed, stepped through the forecast model, and a
  detection report is emitted;
* candidate keys come from the sealed interval itself (the data is in
  hand by the time the interval closes, so unlike the strict one-pass
  :class:`~repro.detection.online.OnlineDetector` there is no missed-key
  risk and no one-interval latency).

This is the "near real-time change detection" operating mode the paper's
Section 6 argues the technique is capable of.
"""

from __future__ import annotations

import math
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Union

import numpy as np

from repro.detection.keysource import (
    CANDIDATES_COUNTER,
    KEY_SOURCES,
    resolve_key_source,
    unique_keys,
)
from repro.detection.threshold import IntervalDetection, build_interval_report
from repro.forecast.base import Forecaster
from repro.forecast.model_zoo import make_forecaster
from repro.hashing._kernels import (
    KERNEL_NAMES,
    kernel_call_counts,
    kernel_seconds,
    kernel_thread_count,
)
from repro.hashing.index_cache import BucketIndexCache, hashing_accelerated
from repro.obs.recorder import NULL_RECORDER

#: Adaptive index-cache probation: an *auto-enabled* cache that has seen
#: this many lookups with a hit rate below the floor is dropped -- on
#: low-recurrence key populations (every interval brings fresh keys) the
#: memo table only adds probe/insert overhead, so cache-off is the right
#: fallback.  Explicitly-passed caches are never dropped.
_CACHE_PROBATION_LOOKUPS = 8
_CACHE_MIN_HIT_RATE = 0.1

#: Counter series created at zero whenever a real recorder attaches, so
#: a metrics export always carries the full detection set -- "no cache
#: hits yet" (or "hashing is kernel-accelerated, no cache at all") stays
#: distinguishable from "not instrumented".
_SESSION_COUNTERS = (
    "repro_records_ingested_total",
    "repro_intervals_sealed_total",
    "repro_detect_candidates_total",
    "repro_detect_median_evaluated_total",
    "repro_alarms_total",
    "repro_index_cache_hits_total",
    "repro_index_cache_misses_total",
    "repro_index_cache_evictions_total",
)
from repro.streams.intervals import interval_runs
from repro.streams.keys import KeyScheme, ValueScheme, make_key_scheme, make_value_scheme
from repro.streams.records import validate_records


def resolve_index_cache(schema, index_cache) -> Optional[BucketIndexCache]:
    """Normalize an ``index_cache`` knob into a cache instance (or None).

    ``True`` means *cache when profitable*: a private
    :class:`BucketIndexCache` is built over ``schema`` unless the schema
    has nothing to cache (exact/dense) or its hashing already runs in the
    compiled C kernels (:func:`~repro.hashing.index_cache.hashing_accelerated`)
    -- a fused kernel (tabulation *or* polynomial / two-universal) beats
    any memo-table gather, so with kernels compiled no schema attaches a
    cache; only the no-compiler NumPy fallbacks still profit.  Sessions
    additionally drop an auto-enabled cache at runtime when measured
    recurrence is too low to pay for the probes (see
    ``_CACHE_PROBATION_LOOKUPS``).
    ``False``/``None`` disables; an existing cache is validated against
    the schema and used as-is regardless of profitability (pass
    :func:`~repro.hashing.index_cache.shared_index_cache` output to share
    one cache across sessions on the same schema, or a private instance
    to force caching).
    """
    if index_cache is None or index_cache is False:
        return None
    if index_cache is True:
        if getattr(schema, "bucket_indices", None) is None:
            return None
        if hashing_accelerated(schema):
            return None
        return BucketIndexCache(schema)
    if not isinstance(index_cache, BucketIndexCache):
        raise TypeError(
            f"index_cache must be a bool or BucketIndexCache, "
            f"got {type(index_cache).__name__}"
        )
    if index_cache.schema != schema:
        raise ValueError("index_cache was built for a different schema")
    return index_cache


class StreamingSession:
    """Incremental sketch-based change detection over live record chunks.

    Parameters
    ----------
    schema:
        k-ary schema for the per-interval sketches.
    forecaster:
        Forecaster instance or registry name (+ ``model_params``).
    interval_seconds:
        Analysis interval length.
    key_scheme / value_scheme:
        How records become Turnstile items (defaults: the paper's
        ``dst_ip`` / ``bytes``).
    t_fraction:
        Alarm threshold parameter ``T``.
    top_n:
        Report the top-N changed keys per interval (0 disables).
    lateness_tolerance:
        Records older than the current open interval by more than this
        many seconds are rejected (default 0: anything belonging to an
        already-sealed interval is an error -- sealing is irrevocable).
    index_cache:
        Bucket-index cache knob (see :func:`resolve_index_cache`): ``True``
        (default) amortizes candidate-key hashing across intervals when
        the schema's hashing is not already kernel-accelerated, ``False``
        disables, or pass a
        :class:`~repro.hashing.index_cache.BucketIndexCache` to share or
        force one.  An execution choice, not result state: reports are
        identical either way, and checkpoints never carry the cache.
    prescreen:
        Exact median prescreen in the per-interval report (default on);
        see :func:`~repro.detection.threshold.build_interval_report`.
    key_source:
        Where each sealed interval's candidate keys come from (see
        :mod:`~repro.detection.keysource`).  ``"twopass"`` (default)
        collects the interval's own keys during ingestion -- reports
        unchanged.  ``"invertible"`` / ``"grouptesting"`` recover
        candidates from the sealed error summary, skipping per-chunk key
        collection entirely (the schema must produce the matching
        summary type).  Checkpointed with the session config.
    pipeline:
        Pipelined sealing (default off).  When on, each interval
        boundary snapshots the finished interval on the calling thread
        (cheap) and hands the seal -- forecast step, threshold, report
        build, recovery -- to a single background worker, so interval
        ``t``'s detection work overlaps interval ``t+1``'s UPDATEs.
        One worker executing FIFO means reports are still emitted in
        interval order and the forecast recursion still consumes sealed
        summaries in sequence -- reports are **bit-identical** to the
        blocking path.  An execution choice, not result state:
        checkpoints never record it (but see
        :func:`~repro.detection.checkpoint.restore_session`'s
        ``pipeline`` override), and :func:`checkpoint_session` drains
        in-flight seals first so captured state is always quiescent.
        Call :meth:`close` (or :meth:`drain`) at end of life to collect
        the last in-flight reports.
    pipeline_depth:
        Max sealed-but-unfinished intervals in flight (default 2).
        Ingestion blocks (in order) once the queue is full, bounding
        memory at ``pipeline_depth`` detached interval summaries.
    sink:
        Optional callable ``sink(observed, keys, index)`` invoked for
        every sealed interval *before* the forecast step consumes the
        observed summary -- the attachment point for the temporal
        archive (pass ``archive.ingest``).  The sink receives the live
        summary object and collected key array by reference and must
        not mutate them (copy what it keeps; the forecaster retains
        ``observed`` in its model state).  Runs on whatever thread
        executes the seal: inline for a blocking session, the single
        FIFO pipeline worker when ``pipeline=True`` -- either way,
        strictly in interval order, one seal at a time.  ``keys`` is
        the interval's deduplicated key set under ``key_source=
        "twopass"`` and empty for recovery key sources.  An execution
        attachment, not result state: reports are identical with or
        without one, and checkpoints never carry it.
    recorder:
        Optional :class:`~repro.obs.recorder.PipelineRecorder`.  When
        attached, the session reports stage timings (ingest, seal,
        forecast step, report build, hash/index-cache, F2/threshold),
        counters (records, sealed intervals, candidates,
        median-evaluated, alarms), index-cache gauges, and
        ``interval_sealed`` / ``alarm_raised`` trace events.  The
        default is the shared allocation-free
        :class:`~repro.obs.recorder.NullRecorder` -- an execution
        observer, never result state: reports are bit-identical with or
        without a recorder, and checkpoints never carry one.
    """

    def __init__(
        self,
        schema,
        forecaster: Union[Forecaster, str],
        interval_seconds: float = 300.0,
        key_scheme: Union[KeyScheme, str] = "dst_ip",
        value_scheme: Union[ValueScheme, str] = "bytes",
        t_fraction: float = 0.05,
        top_n: int = 0,
        lateness_tolerance: float = 0.0,
        index_cache: Union[bool, BucketIndexCache] = True,
        prescreen: bool = True,
        key_source: str = "twopass",
        pipeline: bool = False,
        pipeline_depth: int = 2,
        sink=None,
        recorder=None,
        **model_params,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError(f"interval_seconds must be > 0, got {interval_seconds}")
        if t_fraction < 0:
            raise ValueError(f"t_fraction must be >= 0, got {t_fraction}")
        if top_n < 0:
            raise ValueError(f"top_n must be >= 0, got {top_n}")
        if lateness_tolerance < 0:
            raise ValueError(
                f"lateness_tolerance must be >= 0, got {lateness_tolerance}"
            )
        if pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
        self.schema = schema
        if isinstance(forecaster, str):
            forecaster = make_forecaster(forecaster, **model_params)
        elif model_params:
            raise ValueError("model_params only apply when forecaster is given by name")
        self.forecaster = forecaster
        self.interval_seconds = float(interval_seconds)
        self.key_scheme = (
            make_key_scheme(key_scheme) if isinstance(key_scheme, str) else key_scheme
        )
        self.value_scheme = (
            make_value_scheme(value_scheme)
            if isinstance(value_scheme, str)
            else value_scheme
        )
        self.t_fraction = float(t_fraction)
        self.top_n = int(top_n)
        self.lateness_tolerance = float(lateness_tolerance)
        self.prescreen = bool(prescreen)
        if key_source == "online":
            raise ValueError(
                "key_source='online' needs the next interval's keys; "
                "use repro.detection.online.OnlineDetector"
            )
        self.key_source = key_source
        if sink is not None and not callable(sink):
            raise TypeError(
                f"sink must be callable, got {type(sink).__name__}"
            )
        self.sink = sink
        self.pipeline = bool(pipeline)
        self.pipeline_depth = int(pipeline_depth)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._pending: deque = deque()
        self._stashed_reports: List[IntervalDetection] = []
        self._pipe_seal_seconds = 0.0
        self._pipe_wait_seconds = 0.0
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self._preregister_obs()
        self._index_cache = resolve_index_cache(schema, index_cache)
        # Only auto-enabled caches are subject to the runtime recurrence
        # probation; a cache the caller passed in explicitly is theirs.
        self._index_cache_auto = index_cache is True
        self._dropped_index_cache: Optional[BucketIndexCache] = None
        self._detection_stats = {"candidates": 0, "median_evaluated": 0}
        # Reusable Sf/Se scratch summaries for step_into (lazily built;
        # None when the summary type has no combine_into).
        self._seal_scratch = None

        self._current_index: Optional[int] = None
        self._current_sketch = None
        self._current_keys: List[np.ndarray] = []
        self._records_ingested = 0
        self._intervals_sealed = 0
        self._watermark = float("-inf")

    def _preregister_obs(self) -> None:
        """Create every session-owned series at zero on the recorder."""
        obs = self.recorder
        obs.preregister(*_SESSION_COUNTERS)
        obs.preregister_labelled(
            "repro_kernel_calls_total", "kernel", KERNEL_NAMES
        )
        obs.preregister_labelled(
            "repro_kernel_seconds", "kernel", KERNEL_NAMES
        )
        obs.preregister_labelled(CANDIDATES_COUNTER, "source", KEY_SOURCES)
        obs.preregister_stage("recover", "collect", "pipeline_wait")
        if self.sink is not None:
            obs.preregister_stage("archive_sink")
        if obs.enabled:
            obs.gauge("repro_kernel_threads", kernel_thread_count())
            obs.gauge("repro_pipeline_queue_depth", 0)

    def attach_recorder(self, recorder) -> None:
        """Attach (or replace) the observability recorder on a live session.

        Recorders are execution state, not result state -- checkpoints
        never carry them -- so a restored session starts with the no-op
        default.  This re-attaches one; pass ``None`` to detach.
        """
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self._preregister_obs()

    # -- introspection -------------------------------------------------------

    @property
    def current_interval(self) -> Optional[int]:
        """Index of the interval currently accumulating (None before data)."""
        return self._current_index

    @property
    def records_ingested(self) -> int:
        """Total records accepted so far."""
        return self._records_ingested

    @property
    def intervals_sealed(self) -> int:
        """Intervals completed and stepped through the model."""
        return self._intervals_sealed

    @property
    def index_cache(self) -> Optional[BucketIndexCache]:
        """The session's bucket-index cache (None when disabled)."""
        return self._index_cache

    @property
    def stats(self) -> dict:
        """Amortization counters for the detection hot path.

        ``detection`` carries ``candidates`` (keys handed to the report
        builder) and ``median_evaluated`` (keys that actually paid the
        H-way median; the gap is what the prescreen excluded exactly).
        ``index_cache`` carries the cache's hit/miss/eviction counters
        when a cache is attached.
        """
        stats = {"detection": dict(self._detection_stats)}
        if self._index_cache is not None:
            stats["index_cache"] = self._index_cache.stats
        elif self._dropped_index_cache is not None:
            # Final counters of a cache retired by the recurrence
            # probation, flagged so dashboards can tell "dropped" from
            # "never attached".
            stats["index_cache"] = {
                **self._dropped_index_cache.stats,
                "dropped": True,
            }
        return stats

    @property
    def watermark(self) -> float:
        """Latest record timestamp accepted (``-inf`` before any data).

        The recovery cursor: after restoring a checkpoint, re-feed only
        records with ``timestamp > watermark`` to continue exactly where
        the checkpointed session left off.
        """
        return self._watermark

    # -- ingestion -----------------------------------------------------------

    def ingest(self, records: np.ndarray) -> List[IntervalDetection]:
        """Feed a chunk of records; returns reports for intervals sealed.

        A chunk may span several intervals; every interval strictly before
        the chunk's latest timestamp gets sealed in order (including empty
        gap intervals, so the forecast series stays evenly spaced).
        """
        validate_records(records)
        if not len(records):
            return []
        with self.recorder.time("ingest"):
            reports = self._ingest_sorted(records)
        # Reports stashed by a checkpoint barrier surface on the next
        # public call, still ahead of anything sealed after them.
        if self._stashed_reports:
            reports = self._take_stash() + reports
        obs = self.recorder
        if obs.enabled:
            obs.count("repro_records_ingested_total", len(records))
            obs.gauge("repro_watermark_seconds", self._watermark)
        return reports

    def _ingest_sorted(self, records: np.ndarray) -> List[IntervalDetection]:
        timestamps = records["timestamp"]
        # Chunks from real collectors are usually already time-sorted; a
        # single monotonicity scan is far cheaper than the stable argsort.
        if len(records) > 1 and not (timestamps[1:] >= timestamps[:-1]).all():
            order = np.argsort(timestamps, kind="stable")
            records = records[order]
            timestamps = records["timestamp"]
        # Sorted, so -inf can only come first and NaN/+inf only last:
        # checking the two ends rejects every non-finite timestamp before
        # any state changes.
        first, last = float(timestamps[0]), float(timestamps[-1])
        if not (math.isfinite(first) and math.isfinite(last)):
            raise ValueError(
                f"chunk holds a non-finite timestamp "
                f"(earliest {first!r}, latest {last!r})"
            )
        floor = (
            None
            if self._current_index is None
            else self._current_index * self.interval_seconds
            - self.lateness_tolerance
        )
        if floor is not None and first < floor:
            raise ValueError(
                f"record at t={first:.3f}s predates the "
                f"open interval (starting {floor + self.lateness_tolerance:.3f}s) "
                "by more than the lateness tolerance"
            )

        reports: List[IntervalDetection] = []
        # Late-but-tolerated records are clamped into the open interval.
        for index, lo, hi in interval_runs(
            timestamps, self.interval_seconds, floor_index=self._current_index
        ):
            reports.extend(self._advance_to(index))
            self._accumulate(records[lo:hi])
        self._records_ingested += len(records)
        self._watermark = max(self._watermark, last)
        return reports

    def ingest_columns(self, block) -> List[IntervalDetection]:
        """Feed one columnar block; returns reports for intervals sealed.

        The zero-copy twin of :meth:`ingest`: ``block`` is a
        :class:`~repro.streams.model.ColumnarBlock` (or anything exposing
        ``index``, ``keys``, ``values``) whose key/value arrays were
        extracted upstream -- typically views produced by
        :func:`~repro.streams.sharding.iter_interval_columns` -- and they
        flow into the fused UPDATE kernels without copying or re-sorting.
        Blocks must arrive in nondecreasing interval order (each block
        already belongs to exactly one interval, so there is no lateness
        window to tolerate); results are bit-identical to record-chunk
        ingestion of the same data.  This session keeps no reference to
        the block's arrays once the call returns, so a caller may refill
        one columnar buffer between blocks;
        :class:`~repro.detection.sharded.ShardedStreamingSession` buffers
        both columns by reference until the interval seals.
        """
        index = int(block.index)
        if self._current_index is not None and index < self._current_index:
            raise ValueError(
                f"columnar block for interval {index} predates the open "
                f"interval {self._current_index}; blocks must arrive in "
                "nondecreasing interval order"
            )
        keys = np.asarray(block.keys, dtype=np.uint64)
        values = np.asarray(block.values, dtype=np.float64)
        if keys.shape != values.shape or keys.ndim != 1:
            raise ValueError(
                f"keys/values must be matching 1-D arrays, got "
                f"{keys.shape} and {values.shape}"
            )
        with self.recorder.time("ingest"):
            reports = self._advance_to(index)
            if len(keys):
                self._accumulate_columns(keys, values)
        if self._stashed_reports:
            reports = self._take_stash() + reports
        self._records_ingested += len(keys)
        # Columnar blocks carry no per-record timestamps; the recovery
        # cursor advances to the open interval's start, so a columnar
        # replay resumes at block granularity (feed blocks with
        # ``block.index >= current_interval`` after a restore).
        self._watermark = max(self._watermark, index * self.interval_seconds)
        obs = self.recorder
        if obs.enabled:
            obs.count("repro_records_ingested_total", len(keys))
            obs.gauge("repro_watermark_seconds", self._watermark)
        return reports

    def _advance_to(self, interval_index: int) -> List[IntervalDetection]:
        """Seal every interval before ``interval_index``."""
        reports: List[IntervalDetection] = []
        if self._current_index is None:
            self._current_index = interval_index
            self._open_interval()
            return reports
        while self._current_index < interval_index:
            if self.pipeline:
                reports.extend(self._seal_current_async())
            else:
                reports.extend(self._seal_current())
            self._current_index += 1
            self._open_interval()
        return reports

    # -- accumulation hooks (overridden by ShardedStreamingSession) ----------

    def _open_interval(self) -> None:
        """Start accumulating a fresh interval."""
        self._current_sketch = self.schema.empty()

    def _accumulate(self, chunk: np.ndarray) -> None:
        """Fold one single-interval record chunk into the open interval."""
        keys = self.key_scheme.extract(chunk)
        values = self.value_scheme.extract(chunk)
        self._current_sketch.update_batch(keys, values)
        # Raw keys, deduplicated once at seal time (_collect_current).
        # Recovery key sources reconstruct candidates from the sealed
        # summary and collect nothing.
        if len(keys) and self.key_source == "twopass":
            self._current_keys.append(keys)

    def _accumulate_columns(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Fold one single-interval columnar batch into the open interval.

        ``keys``/``values`` are already extracted and dtype-correct; they
        pass straight into the sketch's fused UPDATE (no copies).  The
        keys kept for the seal-time dedup are copied, since the caller
        owns the block's buffers.
        """
        self._current_sketch.update_batch(keys, values)
        if self.key_source == "twopass":
            self._current_keys.append(keys.copy())

    def _collect_current(self):
        """Finish accumulation: return ``(observed_summary, unique_keys)``.

        The interval's one key dedup: the raw per-chunk key arrays are
        concatenated and sorted unique here, so the open interval holds
        one ``uint64`` per accepted record until it seals.
        """
        observed = self._current_sketch
        keys = unique_keys(self._current_keys)
        self._current_keys = []
        return observed, keys

    # -- checkpoint hooks (overridden by ShardedStreamingSession) ------------

    def _accumulation_state(self) -> dict:
        """Open-interval accumulation state, in checkpoint-codec values.

        Deduplicating the accumulated key chunks here is safe: the
        sorted unique set of the concatenation is idempotent and
        order-insensitive, so sealing after a restore yields the same key
        set (and the same sketch table -- its float64 counters round-trip
        exactly) as the uninterrupted run.
        """
        return {
            "sketch": self._current_sketch,
            "keys": unique_keys(self._current_keys),
        }

    def _restore_accumulation(self, state: dict) -> None:
        """Install accumulation state captured by :meth:`_accumulation_state`."""
        self._current_sketch = state["sketch"]
        keys = state["keys"]
        self._current_keys = [keys] if len(keys) else []

    # -- sealing -------------------------------------------------------------

    def _scratch_summaries(self):
        """Lazily built ``(error_out, forecast_out)`` scratch pair.

        Two distinct reusable summaries that receive ``Se(t)`` / ``Sf(t)``
        in place each seal (``(None, None)`` for summary types without
        ``combine_into``).  Safe to reuse across intervals: the report
        builder consumes the error within the seal, and nothing retains
        the scratch objects -- the forecaster only retains ``observed``,
        which is always freshly allocated.
        """
        if self._seal_scratch is None:
            error_out = self.schema.empty()
            if hasattr(error_out, "combine_into"):
                self._seal_scratch = (error_out, self.schema.empty())
            else:
                self._seal_scratch = (None, None)
        return self._seal_scratch

    def _seal_current(self) -> List[IntervalDetection]:
        """Blocking seal of the open interval (collect + seal inline)."""
        with self.recorder.time("collect"):
            observed, keys = self._collect_current()
        return self._seal_interval(observed, keys, self._current_index)

    def _seal_interval(
        self, observed, keys: np.ndarray, index: int
    ) -> List[IntervalDetection]:
        """Forecast-step, threshold and report one detached interval.

        Takes everything it needs by value (``observed`` summary,
        collected ``keys``, interval ``index``) so it can run on the
        pipeline's background worker as well as inline.  Single-writer
        state -- the forecaster, the scratch summaries, the detection
        stats, the index cache -- is only ever touched here, and the
        pipeline runs at most one seal at a time, so no locking is
        needed in either mode.
        """
        obs = self.recorder
        with obs.time("seal"):
            if self.sink is not None:
                # Archive hook: before the forecast step so the sink sees
                # the observed summary exactly as sealed (the forecaster
                # retains but never mutates it; the sink must copy).
                with obs.time("archive_sink"):
                    self.sink(observed, keys, index)
            error_out, forecast_out = self._scratch_summaries()
            with obs.time("forecast_step"):
                step = self.forecaster.step_into(
                    observed, error_out=error_out, forecast_out=forecast_out
                )
            self._intervals_sealed += 1
            obs.count("repro_intervals_sealed_total")
            if step.error is None:
                if obs.enabled:
                    obs.event(
                        "interval_sealed", interval=index,
                        warmup=True, candidates=int(len(keys)),
                    )
                return []
            keys = resolve_key_source(
                self.key_source,
                step.error,
                t_fraction=self.t_fraction,
                collected=keys,
                recorder=obs if obs.enabled else None,
            )
            evaluated_before = self._detection_stats["median_evaluated"]
            with obs.time("report_build"):
                report = build_interval_report(
                    step.error,
                    keys,
                    interval=index,
                    t_fraction=self.t_fraction,
                    top_n=self.top_n,
                    schema=self.schema,
                    index_cache=self._index_cache,
                    prescreen=self.prescreen,
                    stats=self._detection_stats,
                    recorder=obs if obs.enabled else None,
                )
        self._maybe_drop_index_cache()
        if obs.enabled:
            self._record_seal(report, len(keys), evaluated_before)
        return [report]

    # -- pipelined sealing ---------------------------------------------------

    def _detach_current(self) -> Callable[[], List[IntervalDetection]]:
        """Snapshot the open interval into a seal thunk (caller's thread).

        Everything the background seal needs is captured by value; once
        this returns, the accumulation buffers are free for the next
        interval.  Subclasses override to keep the expensive half of
        collection (e.g. the sharded COMBINE) on the worker.
        """
        with self.recorder.time("collect"):
            observed, keys = self._collect_current()
        index = self._current_index

        def work() -> List[IntervalDetection]:
            return self._seal_interval(observed, keys, index)

        return work

    def _ensure_executor(self) -> ThreadPoolExecutor:
        # Exactly one worker: seals execute FIFO, so the forecast
        # recursion sees sealed summaries in interval order and report
        # emission order matches the blocking path.
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-seal"
            )
        return self._executor

    def _timed_seal(self, work) -> List[IntervalDetection]:
        t0 = time.perf_counter()
        try:
            return work()
        finally:
            self._pipe_seal_seconds += time.perf_counter() - t0

    def _await_head(self) -> List[IntervalDetection]:
        """Block on the oldest in-flight seal; returns its reports."""
        t0 = time.perf_counter()
        with self.recorder.time("pipeline_wait"):
            result = self._pending.popleft().result()
        self._pipe_wait_seconds += time.perf_counter() - t0
        return result

    def _seal_current_async(self) -> List[IntervalDetection]:
        """Detach the open interval and queue its seal on the worker.

        Returns reports from previously queued seals that have finished
        (in interval order) -- plus, when the in-flight queue is full,
        whatever it had to wait for (backpressure).
        """
        reports: List[IntervalDetection] = []
        if self._stashed_reports:
            reports.extend(self._take_stash())
        work = self._detach_current()
        while len(self._pending) >= self.pipeline_depth:
            reports.extend(self._await_head())
        self._pending.append(self._ensure_executor().submit(self._timed_seal, work))
        while self._pending and self._pending[0].done():
            reports.extend(self._pending.popleft().result())
        obs = self.recorder
        if obs.enabled:
            obs.gauge("repro_pipeline_queue_depth", len(self._pending))
        return reports

    def _take_stash(self) -> List[IntervalDetection]:
        out, self._stashed_reports = self._stashed_reports, []
        return out

    def _barrier(self) -> None:
        """Wait for every in-flight seal; stash (never drop) the reports.

        The checkpoint layer calls this before capturing state so the
        forecaster and detection stats are quiescent; the stashed
        reports surface on the next public call, still in order.
        """
        while self._pending:
            self._stashed_reports.extend(self._await_head())
        obs = self.recorder
        if obs.enabled:
            obs.gauge("repro_pipeline_queue_depth", 0)
            if self._pipe_seal_seconds > 0.0:
                overlap = 1.0 - self._pipe_wait_seconds / self._pipe_seal_seconds
                obs.gauge(
                    "repro_pipeline_overlap_ratio",
                    min(1.0, max(0.0, overlap)),
                )

    def drain(self) -> List[IntervalDetection]:
        """Complete all in-flight seals and return their reports.

        A no-op returning ``[]`` on a blocking session (nothing is ever
        in flight).  The open interval stays open -- this is a barrier,
        not a flush.
        """
        self._barrier()
        return self._take_stash()

    def close(self) -> List[IntervalDetection]:
        """Drain the pipeline and release the background worker.

        Returns any reports completed by the drain.  The session remains
        usable; a later interval boundary simply restarts the worker.
        """
        reports = self.drain()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        return reports

    def __enter__(self) -> "StreamingSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _maybe_drop_index_cache(self) -> None:
        """Retire an auto-enabled cache once measured recurrence is too low.

        The build-time auto rule (:func:`resolve_index_cache`) decides
        from the schema alone; this is the runtime half of the satellite:
        after ``_CACHE_PROBATION_LOOKUPS`` lookups, a hit rate below
        ``_CACHE_MIN_HIT_RATE`` means the key population barely recurs
        and every lookup is probe overhead plus a full hash anyway -- so
        the session falls back to **cache-off**, keeping the retired
        cache only for its final stats.
        """
        cache = self._index_cache
        if cache is None or not self._index_cache_auto:
            return
        if cache.lookups < _CACHE_PROBATION_LOOKUPS:
            return
        served = cache.hits + cache.misses
        if served and cache.hits / served < _CACHE_MIN_HIT_RATE:
            self._dropped_index_cache = cache
            self._index_cache = None
            obs = self.recorder
            if obs.enabled:
                obs.event(
                    "index_cache_dropped",
                    lookups=cache.lookups,
                    hit_rate=cache.hits / served,
                )

    def _record_seal(
        self, report: IntervalDetection, n_candidates: int,
        evaluated_before: int,
    ) -> None:
        """Feed one sealed interval's outcome to the attached recorder."""
        obs = self.recorder
        obs.count("repro_detect_candidates_total", n_candidates)
        obs.count(
            "repro_detect_median_evaluated_total",
            self._detection_stats["median_evaluated"] - evaluated_before,
        )
        if report.alarm_count:
            obs.count("repro_alarms_total", report.alarm_count)
        obs.gauge("repro_interval_index", report.index)
        cache = self._index_cache
        if cache is not None:
            cache_stats = cache.stats
            obs.sync_counter("repro_index_cache_hits_total", cache_stats["hits"])
            obs.sync_counter(
                "repro_index_cache_misses_total", cache_stats["misses"]
            )
            obs.sync_counter(
                "repro_index_cache_evictions_total", cache_stats["evictions"]
            )
            obs.gauge("repro_index_cache_size", cache_stats["size"])
        for kernel, calls in kernel_call_counts().items():
            if calls:
                obs.sync_counter(
                    "repro_kernel_calls_total", calls, kernel=kernel
                )
        for kernel, secs in kernel_seconds().items():
            if secs:
                obs.sync_counter(
                    "repro_kernel_seconds", secs, kernel=kernel
                )
        obs.gauge("repro_kernel_threads", kernel_thread_count())
        obs.event(
            "interval_sealed", interval=report.index,
            alarms=report.alarm_count, candidates=n_candidates,
            error_l2=report.error_l2, threshold=report.threshold,
        )
        if report.alarm_count:
            obs.event(
                "alarm_raised", interval=report.index,
                count=report.alarm_count,
                top_keys=[a.key for a in report.alarms[:5]],
            )

    def flush(self) -> List[IntervalDetection]:
        """Seal the currently open interval (end of stream / shutdown).

        The session remains usable afterwards; the next ingested record
        opens a fresh interval (which must not predate the flushed one).
        """
        if self._current_index is None:
            return self.drain() if self.pipeline else []
        if self.pipeline:
            reports = self._seal_current_async()
            self._current_index += 1
            self._open_interval()
            reports.extend(self.drain())
            return reports
        reports = self._seal_current()
        self._current_index += 1
        self._open_interval()
        return reports
