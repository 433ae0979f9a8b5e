"""Rolling latency windows for long-lived servers.

:class:`RollingWindow` is a bounded window of the most recent
observations.  Unlike :class:`~repro.obs.metrics.Histogram` (which keeps
every sample of a finite experiment), a long-lived server needs *rolling*
p50/p99 that reflect recent traffic, not its entire uptime; the query
server's ``healthz`` and ``stats`` report one over ``query.latency_s``.

It is import-light and thread-friendly: ``deque.append`` is atomic, so
executor threads observe without locks and readers snapshot consistently.
"""

from __future__ import annotations

from collections import deque

from .metrics import percentile

__all__ = ["RollingWindow"]


class RollingWindow:
    """The most recent ``maxlen`` observations of a streaming quantity."""

    def __init__(self, maxlen: int = 1024) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self.maxlen = maxlen
        self._values: deque[float] = deque(maxlen=maxlen)
        self.total_observed = 0

    def observe(self, value: float) -> None:
        """Record one sample (the oldest falls out when the window is full)."""
        self._values.append(float(value))
        self.total_observed += 1

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> list[float]:
        """A consistent copy of the current window."""
        return list(self._values)

    def percentile(self, q: float) -> float:
        """Exact q-th percentile of the window; NaN when empty."""
        return percentile(self.values(), q)

    def summary(self) -> dict:
        """JSON-able rolling summary (count/window/p50/p99/max)."""
        values = self.values()
        out: dict = {
            "total_observed": self.total_observed,
            "window": len(values),
        }
        if values:
            out["p50"] = percentile(values, 50.0)
            out["p99"] = percentile(values, 99.0)
            out["max"] = max(values)
        return out
