"""Metrics registry: named counters, gauges and histograms.

One :class:`MetricsRegistry` is the single sink every component reports
into — the buffer pool's hit/miss/eviction counts and the page stores'
read and write traffic (:class:`~repro.storage.counters.IOStats` totals,
copied in at batch boundaries), per-query latency and access
histograms, and tree-shape gauges.  Experiments snapshot the
registry into run manifests; parallel or per-shard registries fold back
together with :meth:`MetricsRegistry.merge`.

Design rules
------------
* A metric is identified by ``(name, labels)``; asking for the same pair
  twice returns the *same* object, so call sites never need to cache.
* Metric names are dotted paths (``io.disk_reads``, ``query.latency_s``)
  — the taxonomy lives in ``docs/observability.md``.
* Snapshots are plain JSON-able dicts; no export library is required.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence, TypeVar, Union

#: Any concrete instrument (they share the name/labels/kind shape but
#: no base class — __slots__ classes stay lean on the hot path).
Metric = Union["Counter", "Gauge", "Histogram"]

_M = TypeVar("_M", "Counter", "Gauge", "Histogram")

__all__ = [
    "MetricsError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
]


def percentile(values: Sequence[float], q: float) -> float:
    """Exact q-th percentile of ``values`` (linear interpolation).

    NaN when ``values`` is empty; shared by :class:`Histogram` and the
    rolling latency windows in :mod:`repro.obs.slo`.
    """
    if not values:
        return float("nan")
    if not 0.0 <= q <= 100.0:
        raise MetricsError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (q / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

#: A labels mapping frozen into a hashable, order-insensitive key.
LabelKey = tuple[tuple[str, object], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    return tuple(sorted(labels.items()))


class MetricsError(RuntimeError):
    """Raised on metric type conflicts or malformed names."""


class Counter:
    """A monotonically increasing count (resettable between runs)."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, object]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (negative increments are rejected)."""
        if amount < 0:
            raise MetricsError(
                f"counter {self.name!r}: negative increment {amount}"
            )
        self.value += amount

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def snapshot_value(self) -> int:
        """The current count."""
        return self.value

    def merge_from(self, other: "Counter") -> None:
        """Add the other counter's count into this one."""
        self.value += other.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.labels!r}, value={self.value})"


class Gauge:
    """A point-in-time value (tree height, pages, buffer capacity...)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, object]) -> None:
        self.name = name
        self.labels = labels
        self.value: float | int | None = None

    def set(self, value: float | int) -> None:
        """Record the current value."""
        self.value = value

    def reset(self) -> None:
        """Forget the value (back to never-set)."""
        self.value = None

    def snapshot_value(self) -> float | int | None:
        """The last value set, or ``None`` if never set."""
        return self.value

    def merge_from(self, other: "Gauge") -> None:
        """Take the other gauge's value when it has one."""
        # Last writer wins; a never-set gauge does not clobber a set one.
        if other.value is not None:
            self.value = other.value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.labels!r}, value={self.value})"


class Histogram:
    """A distribution of observed values.

    Raw observations are kept (experiment scale is thousands of samples,
    not billions), so any percentile is exact and merging two histograms
    is concatenation.  Snapshots report the summary statistics only.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "values")

    #: Percentiles included in every snapshot.
    SNAPSHOT_PERCENTILES = (50.0, 90.0, 99.0)

    def __init__(self, name: str, labels: dict[str, object]) -> None:
        self.name = name
        self.labels = labels
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.values.append(float(value))

    def reset(self) -> None:
        """Drop all samples."""
        self.values = []

    @property
    def count(self) -> int:
        """Number of samples observed."""
        return len(self.values)

    @property
    def total(self) -> float:
        """Exact sum of all samples."""
        return math.fsum(self.values)

    @property
    def mean(self) -> float:
        """Sample mean; NaN when empty."""
        if not self.values:
            return float("nan")
        return self.total / len(self.values)

    def percentile(self, q: float) -> float:
        """Exact q-th percentile (linear interpolation); NaN when empty."""
        return percentile(self.values, q)

    def snapshot_value(self) -> dict[str, float | int]:
        """Summary stats (count/sum/mean/min/max/p50/p90/p99)."""
        if not self.values:
            return {"count": 0}
        summary: dict[str, float | int] = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": min(self.values),
            "max": max(self.values),
        }
        for q in self.SNAPSHOT_PERCENTILES:
            summary[f"p{q:g}"] = self.percentile(q)
        return summary

    def merge_from(self, other: "Histogram") -> None:
        """Concatenate the other histogram's samples into this one."""
        self.values.extend(other.values)

    def __repr__(self) -> str:
        return (f"Histogram({self.name!r}, {self.labels!r}, "
                f"count={self.count})")


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """Get-or-create home for every metric of one run (or one component).

    The registry is deliberately tiny: components ask for a metric by
    name + labels, increment/observe it, and the experiment layer calls
    :meth:`snapshot` once at the end.  Two registries (e.g. per parallel
    shard) combine with :meth:`merge`.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelKey], Metric] = {}

    # -- get-or-create -------------------------------------------------------

    def _get(self, cls: type[_M], name: str,
             labels: dict[str, object]) -> _M:
        if not name:
            raise MetricsError("metric name must be non-empty")
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise MetricsError(
                f"metric {name!r}{labels!r} already registered as "
                f"{metric.kind}, requested as {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        return self._get(Histogram, name, labels)

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator:
        return iter(self._metrics.values())

    def names(self) -> list[str]:
        """Sorted distinct metric names."""
        return sorted({name for name, _ in self._metrics})

    def get(self, name: str, **labels: object) -> "Metric | None":
        """The existing metric for ``(name, labels)``, or ``None``."""
        return self._metrics.get((name, _label_key(labels)))

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Zero every registered metric (the metrics stay registered)."""
        for metric in self._metrics.values():
            metric.reset()

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry.

        Counters add, gauges take the other side's value when set,
        histograms concatenate observations.  Type conflicts raise.
        """
        for key, metric in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                mine = self._get(type(metric), metric.name, metric.labels)
            elif type(mine) is not type(metric):
                raise MetricsError(
                    f"cannot merge {metric.kind} into {mine.kind} "
                    f"for {metric.name!r}"
                )
            mine.merge_from(metric)

    def snapshot(self) -> dict:
        """JSON-able dump: ``{name: [{labels, kind, value}, ...]}``.

        Metrics with no labels collapse their list entry's ``labels`` to
        ``{}``; the list is sorted by label key so snapshots are stable.
        """
        out: dict[str, list[dict]] = {}
        for (name, _), metric in sorted(
            self._metrics.items(), key=lambda kv: kv[0]
        ):
            out.setdefault(name, []).append({
                "kind": metric.kind,
                "labels": dict(metric.labels),
                "value": metric.snapshot_value(),
            })
        return out

    def as_dict(self) -> dict:
        """Alias for :meth:`snapshot` (the manifest writer's spelling)."""
        return self.snapshot()

    # -- cross-process transport ---------------------------------------------

    def to_jsonable(self) -> list[dict]:
        """Lossless JSON-able dump, unlike :meth:`snapshot` which
        summarises histograms.

        Used to ship a per-shard registry across a process boundary
        (worker ``done`` records) so the orchestrator can :meth:`merge`
        it with full fidelity — merged percentiles stay exact because
        the raw histogram samples travel too.
        """
        out = []
        for (name, _), metric in sorted(
            self._metrics.items(), key=lambda kv: kv[0]
        ):
            entry: dict = {"name": name, "kind": metric.kind,
                           "labels": dict(metric.labels)}
            if metric.kind == "histogram":
                entry["values"] = list(metric.values)
            else:
                entry["value"] = metric.snapshot_value()
            out.append(entry)
        return out

    @classmethod
    def from_jsonable(cls, dump: list[dict]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_jsonable` output."""
        registry = cls()
        for entry in dump:
            try:
                kind = _KINDS[entry["kind"]]
                metric = registry._get(kind, entry["name"],
                                       dict(entry["labels"]))
                if kind is Histogram:
                    metric.values.extend(float(v) for v in entry["values"])
                elif kind is Counter:
                    metric.value = int(entry["value"])
                elif entry["value"] is not None:
                    metric.value = entry["value"]
            except (KeyError, TypeError, ValueError) as exc:
                raise MetricsError(
                    f"malformed metrics dump entry {entry!r}: {exc}"
                ) from exc
        return registry
