"""Span tracing from outside the program: wrap each layer's entry points.

Nothing in ``src/`` knows about this module.  A traced replay patches
the public entry points of each ``repro`` layer at the attribute its
caller resolves them through -- a module global of the session module, a
method on the sketch class, an attribute of one session or forecaster
instance -- records one span per call, and restores every attribute
afterwards.

Spans carry integer nanosecond stamps, so a span's self time (its
duration minus the durations of its direct children) is exact and never
negative: a single-threaded synchronous loop nests every child inside
its parent.  Spans stay in memory and are written once, at the end.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Dict, List, NamedTuple

import repro.detection.session as session_module
from repro.streams import sharding

#: The session layer's span: the caller's ``ingest`` / ``ingest_columns``
#: / ``flush`` call.  Its self time is work no other layer's span covers.
SESSION = "detection.ingest"


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for a top-level span
    run: str
    self_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run = ""
        self._stack: List[list] = []  # [span index, child ns] per open span
        self._patches: list = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - start
            self.spans[index] = Span(
                name, start, end, parent, self.run, duration - frame[1]
            )
            if stack:
                stack[-1][1] += duration

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def wrap_iter(self, name: str, fn):
        """Wrap a generator function: each ``next()`` is one span."""

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                try:
                    item = self.call(name, next, it)
                except StopIteration:
                    return
                yield item

        return traced

    def patch(self, owner, attr: str, name: str, *, iterator: bool = False) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`."""
        own = vars(owner)
        saved = (attr in own, own.get(attr))
        wrapper = self.wrap_iter if iterator else self.wrap
        setattr(owner, attr, wrapper(name, getattr(owner, attr)))
        self._patches.append((owner, attr, saved))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, (had, value) = self._patches.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def instrument(self, session, sketch_cls) -> None:
        """Patch every layer entry point a replay of ``session`` reaches."""
        self.patch(session_module, "build_interval_report", "detection.report")
        self.patch(session_module, "resolve_key_source", "detection.keysource")
        self.patch(sketch_cls, "update_batch", "sketch.update_batch")
        self.patch(session.forecaster, "step_into", "forecast.step")
        self.patch(session.key_scheme, "extract", "streams.extract")
        self.patch(session.value_scheme, "extract", "streams.extract")
        self.patch(sharding, "iter_interval_columns", "streams.columns", iterator=True)
        if session.sink is not None:
            self.patch(session, "sink", "archive.ingest")
        for method in ("ingest", "ingest_columns", "flush"):
            self.patch(session, method, SESSION)

    # -- analysis ------------------------------------------------------------

    def totals(self, runs) -> Dict[str, Dict[str, int]]:
        """Per span name over ``runs``: calls, inclusive ns and self ns."""
        runs = set(runs)
        out: Dict[str, Dict[str, int]] = {}
        for span in self.spans:
            if span.run in runs:
                row = out.setdefault(span.name, {"calls": 0, "ns": 0, "self_ns": 0})
                row["calls"] += 1
                row["ns"] += span.duration_ns
                row["self_ns"] += span.self_ns
        return out

    def named_ns(self, run: str) -> int:
        """Time of ``run`` inside spans of layers other than the session.

        Counts each outermost non-session span once: top-level ones (the
        columnar extraction the caller drives) and direct children of a
        session span.
        """
        spans = self.spans
        return sum(
            s.duration_ns
            for s in spans
            if s.run == run
            and s.name != SESSION
            and (s.parent < 0 or spans[s.parent].name == SESSION)
        )

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s.name, "start_ns": s.start_ns,
                         "end_ns": s.end_ns, "parent": s.parent, "run": s.run,
                         "self_ns": s.self_ns}
                    )
                    + "\n"
                )
