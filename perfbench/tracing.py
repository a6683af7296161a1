"""Outside-in spans around the benchmark's calls into the program's layers.

The program is not instrumented for this: the benchmark wraps each call it
makes into a layer's public function in a span, records name, layer,
start, end, parent and shard id in memory, and reduces them at the end.
A span's self time is its duration minus the part its child spans cover;
a layer's self time is the sum over its spans. Whatever the root span's
children do not cover is reported as ``unattributed``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

#: The repo's modules, in pipeline order; every span names one of them.
LAYERS = ("workload", "analysis", "core", "mitigation", "runtime")


@dataclass
class Span:
    name: str
    layer: str | None
    start: float
    end: float
    parent: int | None
    shard: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str | None, shard: str | None = None):
        if layer is not None and layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, layer, 0.0, 0.0, parent, shard))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            record = self.spans[index]
            record.start, record.end = start, end

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            reach = span.start
            for child in sorted(children.get(index, ()), key=lambda s: s.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span.duration - covered)
        return out

    def layer_report(self) -> dict[str, float]:
        """Self seconds per layer, plus ``unattributed`` and ``wall``.

        ``wall`` is the total duration of the root spans (one per pass);
        ``unattributed`` is the part of it no layer span covers.
        """
        report = {layer: 0.0 for layer in LAYERS}
        report["unattributed"] = 0.0
        wall = 0.0
        for span, own in zip(self.spans, self.self_times()):
            if span.parent is None:
                wall += span.duration
            report[span.layer or "unattributed"] += own
        report["wall"] = wall
        return report

    def total(self, layer: str, name: str) -> float:
        """Summed duration of the spans of ``layer`` called ``name``."""
        return sum(span.duration for span in self.spans
                   if span.layer == layer and span.name == name)


class NullTracer:
    """Same interface, records nothing: the untraced reference pass."""

    @contextmanager
    def span(self, name: str, layer: str | None, shard: str | None = None):
        yield
