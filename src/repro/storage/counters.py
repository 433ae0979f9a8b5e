"""I/O accounting.

The paper's primary comparison metric is the *number of disk accesses*
required to satisfy a query, measured through an LRU buffer over a raw disk
partition.  :class:`IOStats` is the single source of truth for that count:
every component that touches a page (buffer pool, page store) increments the
same counters, and experiment runners snapshot/reset them around each query
batch.

Each field is a plain ``int`` slot, so a hit, miss, read or eviction is
one attribute write on the hot path.  Telemetry copies the totals into
its registry only at batch boundaries (``obs.record_iostats``).
"""

from __future__ import annotations

__all__ = ["IOStats"]


class IOStats:
    """Mutable counter bundle for page-level I/O.

    Attributes
    ----------
    disk_reads:
        Pages fetched from the backing store (buffer misses).  This is the
        paper's "disk accesses" figure.
    disk_writes:
        Pages written to the store.
    buffer_hits:
        Page requests satisfied from the buffer pool.
    buffer_misses:
        Page requests that had to go to the store.  Equal to ``disk_reads``
        when the fetch function reads through the same ``IOStats``; kept
        separate so a miss and the read it causes are counted by the
        component that does each.
    evictions:
        Pages pushed out of the buffer pool to make room.
    """

    FIELDS = (
        "disk_reads",
        "disk_writes",
        "buffer_hits",
        "buffer_misses",
        "evictions",
    )

    __slots__ = FIELDS

    def __init__(self, disk_reads: int = 0, disk_writes: int = 0,
                 buffer_hits: int = 0, buffer_misses: int = 0,
                 evictions: int = 0) -> None:
        self.disk_reads = disk_reads
        self.disk_writes = disk_writes
        self.buffer_hits = buffer_hits
        self.buffer_misses = buffer_misses
        self.evictions = evictions

    def reset(self) -> None:
        """Zero all counters."""
        for name in self.FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> "IOStats":
        """An independent copy of the current counts."""
        return IOStats(**self.as_dict())

    @property
    def total_accesses(self) -> int:
        """Reads + writes: total page traffic to the store."""
        return self.disk_reads + self.disk_writes

    @property
    def hit_ratio(self) -> float:
        """Fraction of page requests served from the buffer (0 when idle)."""
        total = self.buffer_hits + self.buffer_misses
        if total == 0:
            return 0.0
        return self.buffer_hits / total

    def as_dict(self) -> dict[str, int]:
        """Plain ``{field: count}`` dict (the metrics-export form)."""
        return {name: getattr(self, name) for name in self.FIELDS}

    def __add__(self, other: "IOStats") -> "IOStats":
        if not isinstance(other, IOStats):
            return NotImplemented
        return IOStats(*(getattr(self, name) + getattr(other, name)
                         for name in self.FIELDS))

    def __iadd__(self, other: "IOStats") -> "IOStats":
        """Accumulate ``other`` in place (this object, new counts)."""
        if not isinstance(other, IOStats):
            return NotImplemented
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IOStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"IOStats({body})"
