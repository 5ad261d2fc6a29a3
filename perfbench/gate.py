"""Correctness gate: every timed report is checked against a reference.

* Reports must equal an untimed :class:`OfflineTwoPassDetector` run on
  the same trace, schema and key source: same interval indices, same
  alarm key sets, and ``error_l2`` exactly equal.
* Every planted change must alarm on its key in one of its intervals
  (or the interval right after it, where a stopped flood shows).
* A planted change that aged into a merged or folded archive tier must
  be found by a retrospective ``diff`` against an adjacent span.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.streams import sharding

from perfbench.workloads import T_FRACTION


def reference_reports(workload, schema, records: np.ndarray) -> dict:
    """The reference run: whole-interval batches through the two-pass detector.

    Kept as ``{index: (error_l2, alarm keys)}`` with the keys as sorted
    ``uint64`` bytes, a table the cyclic garbage collector need not scan,
    so holding it adds nothing to the program's own collections.
    """
    reports = workload.detector(schema).detect(
        sharding.iter_interval_columns(records, workload.trace.interval_seconds)
    )
    return {r.index: (r.error_l2, _key_bytes(r)) for r in reports}


def _alarm_keys(report) -> frozenset:
    return frozenset(int(a.key) for a in report.alarms)


def _key_bytes(report) -> bytes:
    return np.array(sorted(_alarm_keys(report)), dtype=np.uint64).tobytes()


def report_failures(got: Sequence, expected: dict) -> int:
    """Reports that are missing, extra, or differ from the reference."""
    failures = 0
    seen = set()
    for report in got:
        if (
            report.index in seen
            or expected.get(report.index) != (report.error_l2, _key_bytes(report))
        ):
            failures += 1
        seen.add(report.index)
    return failures + len(set(expected) - seen)


def missed_changes(reports: Sequence, planted) -> list:
    """Planted changes whose key never alarmed inside their window."""
    missed = []
    for change in planted:
        if not any(
            change.first <= r.index <= change.end and change.key in _alarm_keys(r)
            for r in reports
        ):
            missed.append(change)
    return missed


def _compacted(span) -> bool:
    return span.length > 1 or span.folds > 0


def retrospective_found(archive, change, probe: np.ndarray) -> bool:
    """Is ``change`` found by a diff over the compacted span holding its onset?

    The baseline is an adjacent span the change does not touch.  The
    workloads are sized so that every planted change has aged out of the
    full-resolution tail by the end of the trace; a change whose onset
    still sits in an uncompacted span counts as not found.
    """
    spans = archive.spans
    pos = next(
        (i for i, s in enumerate(spans) if s.start <= change.first < s.end), None
    )
    if pos is None or not _compacted(spans[pos]):
        return False
    span = spans[pos]
    neighbours = [spans[i] for i in (pos - 1, pos + 1) if 0 <= i < len(spans)]
    baseline = next(
        (s for s in neighbours if s.end <= change.first or s.start >= change.end),
        None,
    )
    if baseline is None:
        return False
    result = archive.diff(
        (span.start, span.end),
        (baseline.start, baseline.end),
        t_fraction=T_FRACTION,
        keys=probe,
    )
    return change.key in _alarm_keys(result.report)


def query_batch(archive, probe: np.ndarray, count: int, seed: int) -> List[tuple]:
    """A fixed batch of ``(span_a, span_b, key)`` adjacent-span queries.

    Retrospective queries read the compacted history: the full-resolution
    tail intervals still have their live reports.  The batch walks every
    adjacent pair of compacted spans in turn, so its mix of cheap and
    costly spans follows the archive layout, which the trace shape fixes;
    only the probed keys come from ``seed``.
    """
    spans = archive.spans
    pairs = [
        ((a.start, a.end), (b.start, b.end))
        for a, b in zip(spans, spans[1:])
        if _compacted(a) and _compacted(b)
    ]
    keys = probe[np.random.default_rng(seed).integers(0, len(probe), count)]
    return [
        (*pairs[i % len(pairs)], int(key)) for i, key in enumerate(keys.tolist())
    ]
