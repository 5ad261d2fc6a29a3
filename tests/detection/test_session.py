"""Tests for the streaming ingestion session."""

import numpy as np
import pytest

from repro.detection import (
    OfflineTwoPassDetector,
    ShardedStreamingSession,
    StreamingSession,
)
from repro.detection.checkpoint import checkpoint_session, restore_session
from repro.sketch import KArySchema
from repro.streams import (
    ColumnarBlock,
    IntervalStream,
    make_records,
    slice_by_interval,
)
from repro.streams.intervals import interval_edge
from repro.streams.sharding import iter_interval_columns


@pytest.fixture
def schema():
    return KArySchema(depth=5, width=4096, seed=0)


def _records(rng, n=20000, duration=3000.0, population=800):
    keys = rng.integers(0, population, n).astype(np.uint32)
    return make_records(
        timestamps=np.sort(rng.uniform(0, duration, n)),
        dst_ips=keys,
        byte_counts=rng.pareto(1.3, n) * 500 + 40,
    )


class TestStreamingSession:
    def test_validation(self, schema):
        with pytest.raises(ValueError):
            StreamingSession(schema, "ewma", interval_seconds=0)
        with pytest.raises(ValueError):
            StreamingSession(schema, "ewma", t_fraction=-1)
        with pytest.raises(ValueError):
            StreamingSession(schema, "ewma", top_n=-1)
        with pytest.raises(ValueError):
            StreamingSession(schema, "ewma", lateness_tolerance=-1)

    def test_matches_batch_detector(self, rng, schema):
        """Chunked ingestion must reproduce the batch pipeline exactly."""
        records = _records(rng)
        session = StreamingSession(
            schema, "ewma", alpha=0.5, interval_seconds=300.0, t_fraction=0.1
        )
        streamed = []
        for start in range(0, len(records), 1777):  # awkward chunk size
            streamed.extend(session.ingest(records[start : start + 1777]))
        streamed.extend(session.flush())

        batch_detector = OfflineTwoPassDetector(
            schema, "ewma", alpha=0.5, t_fraction=0.1
        )
        batch = batch_detector.detect(
            IntervalStream(records, interval_seconds=300.0)
        )
        assert len(streamed) == len(batch)
        for s_report, b_report in zip(streamed, batch):
            assert s_report.index == b_report.index
            assert s_report.error_l2 == pytest.approx(b_report.error_l2)
            assert {a.key for a in s_report.alarms} == {
                a.key for a in b_report.alarms
            }

    def test_single_chunk(self, rng, schema):
        records = _records(rng, duration=1500.0)
        session = StreamingSession(schema, "ewma", alpha=0.5)
        reports = session.ingest(records) + session.flush()
        assert len(reports) == 4  # 5 intervals - 1 warm-up
        assert session.intervals_sealed == 5

    def test_unsorted_chunk_accepted(self, schema, rng):
        records = _records(rng, n=500, duration=900.0)
        shuffled = records[rng.permutation(len(records))]
        session = StreamingSession(schema, "ewma", alpha=0.5)
        session.ingest(shuffled)
        reports = session.flush()
        assert session.intervals_sealed == 3
        assert reports  # last interval scored

    def test_gap_intervals_sealed_empty(self, schema):
        early = make_records([10.0], [1], [100])
        late = make_records([950.0], [2], [200])
        session = StreamingSession(schema, "ewma", alpha=0.5)
        session.ingest(early)
        reports = session.ingest(late)
        # Sealing 0 (warm-up), 1 and 2 (both empty) before opening 3.
        assert session.intervals_sealed == 3
        assert [r.index for r in reports] == [1, 2]

    def test_late_record_rejected(self, schema):
        session = StreamingSession(schema, "ewma", alpha=0.5)
        session.ingest(make_records([700.0], [1], [100]))
        with pytest.raises(ValueError, match="predates"):
            session.ingest(make_records([100.0], [2], [100]))

    def test_lateness_tolerance_clamps(self, schema):
        session = StreamingSession(
            schema, "ewma", alpha=0.5, lateness_tolerance=200.0
        )
        session.ingest(make_records([700.0], [1], [100]))
        # 550s is within 200s of the open interval's start (600s): accepted
        # and folded into the open interval.
        session.ingest(make_records([550.0], [2], [100]))
        assert session.records_ingested == 2
        assert session.current_interval == 2

    def test_detects_planted_spike(self, rng, schema):
        records = _records(rng, duration=3000.0)
        spike = make_records([1950.0] * 30, [999999] * 30, [100000.0] * 30)
        from repro.streams import concat_records

        merged = concat_records([records, spike])
        session = StreamingSession(
            schema, "ewma", alpha=0.5, t_fraction=0.3
        )
        reports = session.ingest(merged) + session.flush()
        spike_report = next(r for r in reports if r.index == 6)
        assert 999999 in {a.key for a in spike_report.alarms}

    def test_top_n_reporting(self, rng, schema):
        records = _records(rng, duration=1200.0)
        session = StreamingSession(
            schema, "ewma", alpha=0.5, top_n=10, t_fraction=0.05
        )
        reports = session.ingest(records) + session.flush()
        assert all(len(r.top_keys) == 10 for r in reports)

    def test_flush_then_continue(self, rng, schema):
        session = StreamingSession(schema, "ewma", alpha=0.5)
        session.ingest(make_records([100.0], [1], [50]))
        session.flush()
        # Next record must land in a later interval than the flushed one.
        session.ingest(make_records([400.0], [2], [60]))
        assert session.current_interval == 1

    def test_empty_chunk_noop(self, schema):
        session = StreamingSession(schema, "ewma", alpha=0.5)
        assert session.ingest(make_records([], [], [])) == []
        assert session.records_ingested == 0

    def test_lateness_exact_boundary(self, schema):
        """A record exactly at (interval_start - tolerance) is accepted."""
        session = StreamingSession(
            schema, "ewma", alpha=0.5, lateness_tolerance=200.0
        )
        session.ingest(make_records([700.0], [1], [100]))  # opens interval 2
        session.ingest(make_records([400.0], [2], [100]))  # floor: 600 - 200
        assert session.records_ingested == 2
        with pytest.raises(ValueError, match="predates"):
            session.ingest(make_records([399.0], [3], [100]))

    def test_flush_at_boundary_keeps_forecast_continuity(self, rng, schema):
        """Flushing between interval-aligned chunks changes nothing."""
        records = _records(rng, n=6000, duration=1800.0)
        split = np.searchsorted(records["timestamp"], 900.0)
        kwargs = dict(alpha=0.5, t_fraction=0.1)

        continuous = StreamingSession(schema, "ewma", **kwargs)
        expected = continuous.ingest(records) + continuous.flush()

        interrupted = StreamingSession(schema, "ewma", **kwargs)
        got = interrupted.ingest(records[:split])
        got += interrupted.flush()  # seals interval 2 early...
        got += interrupted.ingest(records[split:])  # ...record 900.x continues at 3
        got += interrupted.flush()
        assert [r.index for r in got] == [r.index for r in expected]
        # Intervals untouched by the early flush score identically.
        for g, e in zip(got, expected):
            if g.index != 2:
                assert g.error_l2 == e.error_l2

    def test_gap_intervals_keep_forecast_evenly_spaced(self, rng, schema):
        """An empty middle interval must appear in the series, not vanish."""
        records = _records(rng, n=3000, duration=1500.0)
        mask = (records["timestamp"] < 600.0) | (records["timestamp"] >= 900.0)
        gappy = records[mask]  # interval 2 is empty
        session = StreamingSession(schema, "ewma", alpha=0.5, t_fraction=0.1)
        reports = session.ingest(gappy) + session.flush()
        assert [r.index for r in reports] == [1, 2, 3, 4]
        gap = next(r for r in reports if r.index == 2)
        # The gap's observation is zero, so its error is the forecast itself.
        assert gap.error_l2 > 0

    @staticmethod
    def _key_sink(seen):
        return lambda observed, keys, index: seen.append((index, keys.copy()))

    @pytest.mark.parametrize("chunk", [1, 63, 64, 65, None])
    @pytest.mark.parametrize("mode", ["plain", "checkpoint", "pipeline"])
    def test_sorted_and_shuffled_chunks_report_identically(
        self, rng, schema, chunk, mode
    ):
        # Keys are collected raw per chunk and deduplicated once per
        # seal; neither the reports nor the key set a sink receives may
        # depend on how the stream was chunked, shuffled within chunks,
        # checkpointed or pipelined.  300 keys over 4000 records: every
        # key recurs across chunks.
        records = _records(rng, n=4000, duration=1200.0, population=300)
        kwargs = dict(alpha=0.5, t_fraction=0.1, top_n=5)

        want = []
        sorted_session = StreamingSession(
            schema, "ewma", sink=self._key_sink(want), **kwargs
        )
        expected = sorted_session.ingest(records) + sorted_session.flush()

        step = len(records) if chunk is None else chunk
        seen = []
        session = StreamingSession(
            schema, "ewma", sink=self._key_sink(seen),
            pipeline=mode == "pipeline", **kwargs,
        )
        got = []
        starts = range(0, len(records), step)
        for n, lo in enumerate(starts):
            part = records[lo : lo + step]
            got.extend(session.ingest(part[rng.permutation(len(part))]))
            if mode == "checkpoint" and n == len(starts) // 2:
                # Mid-interval for every chunking here: the open
                # interval's raw key chunks go through the checkpoint.
                assert session.current_interval is not None
                session = restore_session(checkpoint_session(session))
                session.sink = self._key_sink(seen)
        got.extend(session.flush())
        got.extend(session.close())

        _assert_same_reports(got, expected)
        assert [i for i, _ in seen] == [i for i, _ in want]
        for (_, keys), (_, ref) in zip(seen, want):
            assert np.array_equal(keys, ref)
            assert np.all(np.diff(keys.astype(np.int64)) > 0)  # sorted unique

    def test_columnar_blocks_collect_the_same_keys(self, rng, schema):
        # The blocks arrive through one reused buffer, as from a
        # collector refilling a preallocated columnar batch: the session
        # must not keep the caller's key array past the call.
        records = _records(rng, n=4000, duration=1200.0, population=300)
        kwargs = dict(alpha=0.5, t_fraction=0.1, top_n=5)
        want, seen = [], []
        one_shot = StreamingSession(
            schema, "ewma", sink=self._key_sink(want), **kwargs
        )
        expected = one_shot.ingest(records) + one_shot.flush()
        session = StreamingSession(
            schema, "ewma", sink=self._key_sink(seen), **kwargs
        )
        key_buffer = np.empty(64, dtype=np.uint64)
        value_buffer = np.empty(64, dtype=np.float64)
        got = []
        for block in iter_interval_columns(records, 300.0, chunk_records=64):
            n = len(block.keys)
            key_buffer[:n] = block.keys
            value_buffer[:n] = block.values
            got.extend(session.ingest_columns(
                ColumnarBlock(block.index, key_buffer[:n], value_buffer[:n])
            ))
            key_buffer[:] = 0
        got.extend(session.flush())
        _assert_same_reports(got, expected)
        assert len(seen) == len(want)
        for (i, keys), (j, ref) in zip(seen, want):
            assert i == j and np.array_equal(keys, ref)


def _assert_same_reports(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.index == e.index
        assert g.threshold == e.threshold
        assert g.error_l2 == e.error_l2
        assert [(a.key, a.estimated_error) for a in g.alarms] == [
            (a.key, a.estimated_error) for a in e.alarms
        ]
        assert np.array_equal(g.top_keys, e.top_keys)


class TestEdgeExactTimestamps:
    """Regression: the session binned records by floor division while
    the offline detector (through ``slice_by_interval``) uses the
    multiplied edges, so a record sitting exactly on an edge of a
    non-dyadic interval length was counted in different intervals."""

    def test_session_matches_offline_detector(self, rng, schema):
        interval = 300.1
        n_intervals = 40
        # Edges whose floor-division index is one short of the edge's own.
        disputed = [
            i for i in range(1, n_intervals)
            if interval_edge(i, interval) // interval != i
        ]
        assert len(disputed) >= 5
        background = _records(
            rng, n=6000, duration=n_intervals * interval, population=500
        )
        edge_times = np.array([interval_edge(i, interval) for i in disputed])
        edge_records = make_records(
            timestamps=edge_times,
            dst_ips=np.full(len(disputed), 4242, dtype=np.uint32),
            byte_counts=np.full(len(disputed), 5e6),
        )
        records = np.concatenate([background, edge_records])
        records = records[np.argsort(records["timestamp"], kind="stable")]
        kwargs = dict(alpha=0.5, t_fraction=0.1, top_n=5)

        sealed = {}
        session = StreamingSession(
            schema, "ewma", interval_seconds=interval,
            sink=lambda observed, keys, index: sealed.__setitem__(
                index, keys.copy()
            ),
            **kwargs,
        )
        streamed = []
        for start in range(0, len(records), 64):
            streamed.extend(session.ingest(records[start : start + 64]))
        streamed.extend(session.flush())

        offline = OfflineTwoPassDetector(schema, "ewma", **kwargs).detect(
            IntervalStream(records, interval_seconds=interval)
        )
        _assert_same_reports(streamed, offline)
        for index, chunk in slice_by_interval(records, interval):
            assert np.array_equal(
                sealed[index], np.unique(chunk["dst_ip"].astype(np.uint64))
            )
        # The heavy edge-exact key alarms in its own interval.
        alarmed = {r.index for r in streamed if 4242 in {a.key for a in r.alarms}}
        assert set(disputed) & alarmed


class TestNonFiniteTimestamps:
    """A NaN or infinite timestamp used to become interval INT64_MIN:
    clamped silently into an open interval, or -- on a fresh session --
    opening interval -2**63 so the next valid record sealed ~2**63 gaps."""

    @staticmethod
    def _make(kind, schema):
        if kind == "serial":
            return StreamingSession(schema, "ewma", alpha=0.5)
        return ShardedStreamingSession(
            schema, "ewma", n_workers=2, backend="serial", alpha=0.5
        )

    @pytest.mark.parametrize("kind", ["serial", "sharded"])
    @pytest.mark.parametrize("opened", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_before_any_state_changes(
        self, rng, schema, kind, opened, bad
    ):
        records = _records(rng, n=600, duration=900.0)
        session = self._make(kind, schema)
        reference = self._make(kind, schema)
        head, tail = records[:300], records[300:]
        if opened:
            session.ingest(head)
            reference.ingest(head)
        before = (
            session.records_ingested,
            session.current_interval,
            session.watermark,
        )
        poisoned = make_records(
            timestamps=[float(tail["timestamp"][0]), bad, 5.0],
            dst_ips=[1, 2, 3],
            byte_counts=[10, 10, 10],
        )
        with pytest.raises(ValueError, match="non-finite"):
            session.ingest(poisoned)
        after = (
            session.records_ingested,
            session.current_interval,
            session.watermark,
        )
        assert after == before
        # The session carries on exactly as if the chunk never came.
        got = session.ingest(tail) + session.flush()
        want = reference.ingest(tail) + reference.flush()
        session.close()
        reference.close()
        _assert_same_reports(got, want)
