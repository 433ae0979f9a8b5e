"""Spans: timed, nested phases of a build or query run.

A span is one timed region — ``str.sort`` over dimension 0, writing one
tree level, replaying one query batch.  Spans nest (the tracer keeps a
stack), record both wall-clock and CPU time, and serialise to JSONL for
offline analysis.  :func:`phase_of` maps the span taxonomy onto the
coarse sort/tile/pack/query phases the timing-breakdown tables report.

The tracer is deliberately not thread-safe: one tracer per worker, merge
the finished span lists afterwards (same rule as the metrics registry).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

__all__ = [
    "Span",
    "Tracer",
    "phase_of",
    "PHASES",
    "write_spans_jsonl",
    "read_spans_jsonl",
]


#: Coarse phase of each span-name prefix/suffix; see docs/observability.md.
#: ``read``/``decode``/``walk`` split the query path three ways — raw page
#: I/O, page-to-node decoding, and the in-memory tree walk — so the
#: self-time tables answer the ROADMAP's "decode vs walk" question.
PHASES = ("sort", "tile", "pack", "read", "decode", "walk", "query",
          "other")

#: Exact span-name -> phase assignments (checked before the rules below).
_PHASE_EXACT = {
    "hs.key": "sort",
    "bulk.load": "pack",
    "bulk.build": "pack",
    "bulk.write_level": "pack",
    "pack.order": "pack",
    "query.page_read": "read",
    "query.page_decode": "decode",
    "query.node_walk": "walk",
}


def phase_of(name: str) -> str:
    """Coarse phase (one of :data:`PHASES`) of a span name."""
    exact = _PHASE_EXACT.get(name)
    if exact is not None:
        return exact
    if name.endswith(".sort"):
        return "sort"
    if name.endswith(".tile"):
        return "tile"
    if name.startswith("query."):
        return "query"
    return "other"


@dataclass
class Span:
    """One finished (or in-flight) timed region."""

    name: str
    labels: dict[str, object] = field(default_factory=dict)
    #: Start/end on the wall clock (``time.perf_counter`` seconds).
    start: float = 0.0
    end: float | None = None
    #: Start/end on the process CPU clock (``time.process_time`` seconds).
    cpu_start: float = 0.0
    cpu_end: float | None = None
    #: Nesting depth at start (0 = top level).
    depth: int = 0
    #: Name of the enclosing span, if any.
    parent: str | None = None
    #: Start-order sequence number within the tracer.
    index: int = 0

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Wall-clock seconds (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def cpu_time(self) -> float:
        """Process CPU seconds (0.0 while still open)."""
        return 0.0 if self.cpu_end is None else self.cpu_end - self.cpu_start

    @property
    def phase(self) -> str:
        return phase_of(self.name)

    def as_dict(self) -> dict:
        """JSON-able record (the JSONL trace line)."""
        return {
            "name": self.name,
            "phase": self.phase,
            "labels": dict(self.labels),
            "start": self.start,
            "duration_s": self.duration,
            "cpu_s": self.cpu_time,
            "depth": self.depth,
            "parent": self.parent,
            "index": self.index,
        }


class Tracer:
    """Collects spans; hand out timed regions with :meth:`span`.

    Finished spans are kept in completion order; ``index`` preserves the
    start order for reconstruction.  The tracer never prints — export is
    :meth:`to_jsonl`, aggregation is :meth:`summary`.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_index = 0

    @contextmanager
    def span(self, name: str, **labels: object) -> Iterator[Span]:
        """Time a region; nests under whatever span is currently open."""
        parent = self._stack[-1] if self._stack else None
        record = Span(
            name=name,
            labels=labels,
            depth=len(self._stack),
            parent=parent.name if parent is not None else None,
            index=self._next_index,
        )
        self._next_index += 1
        self._stack.append(record)
        record.cpu_start = time.process_time()
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            record.cpu_end = time.process_time()
            self._stack.pop()
            self.spans.append(record)

    def adopt(self, spans: Iterable[Span]) -> None:
        """Add spans another process finished (a forked child), keeping
        their start order but numbering them with this tracer's counter,
        so their indices never collide with this tracer's own."""
        adopted = list(spans)
        for record in sorted(adopted, key=lambda s: s.index):
            record.index = self._next_index
            self._next_index += 1
        self.spans.extend(adopted)

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def open_depth(self) -> int:
        """How many spans are currently open (0 when idle)."""
        return len(self._stack)

    def summary(self) -> dict[str, dict[str, float]]:
        """Aggregate finished spans by name.

        Returns ``{name: {count, wall_s, cpu_s, phase}}`` — the input to
        :func:`repro.experiments.report.timing_breakdown_table`.  Wall
        time sums *self* time would require subtracting children; since
        the breakdown tables group by phase (where nesting rarely crosses
        phases), plain sums per name are reported and nested names are
        kept distinct.
        """
        agg: dict[str, dict[str, float]] = {}
        for s in self.spans:
            slot = agg.setdefault(
                s.name, {"count": 0, "wall_s": 0.0, "cpu_s": 0.0,
                         "phase": s.phase}
            )
            slot["count"] += 1
            slot["wall_s"] += s.duration
            slot["cpu_s"] += s.cpu_time
        return agg

    def self_times(self) -> dict[int, tuple[float, float]]:
        """Per-span ``(wall, cpu)`` *self* time, keyed by span index.

        Self time is the span's duration minus the durations of its
        direct children, so summing self times over any partition of the
        spans never double-counts nested regions.
        """
        # Rebuild direct parentage from depth + start order: the parent
        # of a span is the most recent earlier-started span with smaller
        # depth (completion order does not matter).
        ordered = sorted(self.spans, key=lambda s: s.index)
        child_wall: dict[int, float] = {}
        child_cpu: dict[int, float] = {}
        stack: list[Span] = []
        for s in ordered:
            while stack and stack[-1].depth >= s.depth:
                stack.pop()
            if stack:
                parent = stack[-1]
                child_wall[parent.index] = (
                    child_wall.get(parent.index, 0.0) + s.duration
                )
                child_cpu[parent.index] = (
                    child_cpu.get(parent.index, 0.0) + s.cpu_time
                )
            stack.append(s)
        return {
            s.index: (
                max(0.0, s.duration - child_wall.get(s.index, 0.0)),
                max(0.0, s.cpu_time - child_cpu.get(s.index, 0.0)),
            )
            for s in ordered
        }

    def phase_summary(self) -> dict[str, dict[str, float]]:
        """Aggregate *self* time by coarse phase.

        Because each span contributes only the time not covered by its
        children, the phase totals sum exactly to the traced wall time:
        ``sort`` is the time actually inside argsorts, ``pack`` the page
        writing plus packing overhead, ``query`` the search loops.
        """
        selfs = self.self_times()
        agg: dict[str, dict[str, float]] = {}
        for s in self.spans:
            wall, cpu = selfs[s.index]
            slot = agg.setdefault(
                s.phase, {"count": 0, "wall_s": 0.0, "cpu_s": 0.0}
            )
            slot["count"] += 1
            slot["wall_s"] += wall
            slot["cpu_s"] += cpu
        return agg

    # -- lifecycle / export --------------------------------------------------

    def clear(self) -> None:
        """Drop all finished spans (open spans are unaffected)."""
        self.spans.clear()

    def to_jsonl(self, path_or_file: str | os.PathLike | IO[str]) -> int:
        """Write one JSON object per finished span; returns span count."""
        return write_spans_jsonl(self.spans, path_or_file)


def write_spans_jsonl(spans: Iterable[Span],
                      path_or_file: str | os.PathLike | IO[str]) -> int:
    """Serialise spans as JSONL (one compact object per line)."""
    def _dump(f: IO[str]) -> int:
        n = 0
        for s in spans:
            f.write(json.dumps(s.as_dict(), sort_keys=True))
            f.write("\n")
            n += 1
        return n

    if hasattr(path_or_file, "write"):
        return _dump(path_or_file)  # type: ignore[arg-type]
    with open(os.fspath(path_or_file), "w") as f:  # type: ignore[arg-type]
        return _dump(f)


def read_spans_jsonl(path: str | os.PathLike) -> list[dict]:
    """Load a JSONL trace back as a list of span dicts."""
    out = []
    with open(os.fspath(path)) as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
