"""Spans around the public oucv calls the benchmark makes.

Every call the benchmark times goes through :meth:`Tracer.span`, which
always measures the call. With tracing on it also keeps the span in
memory: its name, start, end, parent and operation id. Spans are written
out once, when the run ends.

A span's parent is the span that caused it. For a call nested in time
that is the enclosing span. The benchmark cannot see inside an oucv
call, so it also replays a call's constituent public calls right after
it (for example the ``sample_path`` and estimator calls of the
replicates a ``run_experiment`` call ran) and gives them the replayed
call as parent. Self time is then the span's duration minus its
children's, either way.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class Span:
    __slots__ = ("tracer", "name", "parent", "op", "index", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, parent: "Span | None"):
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.op = tracer.op
        self.index = None
        self.start = self.end = 0.0

    def __enter__(self) -> "Span":
        tracer = self.tracer
        if self.parent is None and tracer.stack:
            self.parent = tracer.stack[-1]
        tracer.stack.append(self)
        if tracer.enabled:
            self.index = len(tracer.spans)
            tracer.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer.stack.pop()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Times calls; with ``enabled`` also keeps every span."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = 0

    def next_op(self) -> int:
        self.op += 1
        return self.op

    def span(self, name: str, parent: Span | None = None) -> Span:
        return Span(self, name, parent)

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def self_seconds(self) -> dict[int, float]:
        """Each kept span's duration minus the durations of its children."""
        own = {s.index: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent is not None and s.parent.index is not None:
                own[s.parent.index] -= s.seconds
        return own

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent is span]

    def write(self, path: Path) -> None:
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": None if s.parent is None else s.parent.index,
                "op": s.op,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows))
