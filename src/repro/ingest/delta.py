"""In-memory delta layer over a packed base tree.

A :class:`DeltaTree` holds the writes that arrived since the last
re-pack.  The logical model is ``unique int id -> rect`` with
last-writer-wins upserts, plus a tombstone set recording deletes so
the overlay can subtract them from base-tree answers.

The live entries are one flat table: row ``r`` of three growable
numpy arrays (``ids``, ``los``, ``his``) holds one id and its
rectangle, and a dict maps each live id to its row.  A new id appends
a row, an upsert overwrites its row, and a delete moves the last row
into the hole, so every mutation is O(1).  Window and kNN queries scan
the live rows vectorized: a delta is drained by every merge, so a scan
of a few hundred rows is cheaper than maintaining a dynamic index.

The structure is deliberately tiny and rebuildable: every op in it is
also in the fsynced WAL, so a crash loses nothing — the delta is
replayed from the segments on open, one :meth:`DeltaTree.apply` per
op.

Op counters land in the ``ingest.*`` metrics namespace; none of them
move on error paths (RL003 counter purity applies to this package).
"""

from __future__ import annotations

from typing import AbstractSet, Sequence

import numpy as np

from ..core.geometry import GeometryError, Rect, overlap_mask
from ..obs import runtime as obs
from ..rtree.knn import _min_dists
from .wal import IngestError, WalOp

__all__ = ["DeltaTree"]

#: Rows allocated up front; the arrays double whenever they fill.
_INITIAL_ROWS = 64


class DeltaTree:
    """The mutable overlay layer: live upserts plus tombstones.

    Parameters
    ----------
    ndim:
        Dimensionality of the indexed rectangles (must match the
        packed base tree).
    """

    def __init__(self, ndim: int):
        if ndim < 1:
            raise GeometryError("ndim must be >= 1")
        self.ndim = ndim
        self._ids = np.empty(_INITIAL_ROWS, dtype=np.int64)
        self._los = np.empty((_INITIAL_ROWS, ndim), dtype=np.float64)
        self._his = np.empty((_INITIAL_ROWS, ndim), dtype=np.float64)
        #: Live id -> its row; rows ``0 .. len(self) - 1`` are live.
        self._rows: dict[int, int] = {}
        self._tombstones: set[int] = set()
        #: Ids whose base-tree answer this layer overrides (live upsert
        #: or tombstone).  Grows monotonically until the layer is
        #: dropped at merge cutover.
        self._overridden: set[int] = set()

    # -- accessors ---------------------------------------------------------

    def __len__(self) -> int:
        """Number of live (upserted, not-deleted) entries."""
        return len(self._rows)

    @property
    def tombstone_count(self) -> int:
        return len(self._tombstones)

    @property
    def overridden(self) -> set[int]:
        """Ids this layer shadows in any layer below it (base included)."""
        return self._overridden

    def get(self, data_id: int) -> Rect | None:
        """The live rectangle for ``data_id``, if this layer holds one."""
        row = self._rows.get(data_id)
        if row is None:
            return None
        return Rect(tuple(self._los[row].tolist()),
                    tuple(self._his[row].tolist()))

    def is_tombstoned(self, data_id: int) -> bool:
        """True when this layer carries a delete marker for ``data_id``."""
        return data_id in self._tombstones

    # -- mutation ----------------------------------------------------------

    def insert(self, data_id: int, rect: Rect) -> None:
        """Upsert ``data_id`` to ``rect`` (replaces any prior mapping)."""
        if rect.ndim != self.ndim:
            raise GeometryError(
                f"rect has {rect.ndim} dims, delta has {self.ndim}")
        data_id = int(data_id)
        row = self._rows.get(data_id)
        if row is None:
            row = len(self._rows)
            if row == len(self._ids):  # full: double the arrays
                self._ids, self._los, self._his = (
                    np.concatenate([a, np.empty_like(a)])
                    for a in (self._ids, self._los, self._his))
            self._ids[row] = data_id
            self._rows[data_id] = row
        self._los[row] = rect.lo
        self._his[row] = rect.hi
        self._tombstones.discard(data_id)
        self._overridden.add(data_id)
        obs.inc("ingest.delta_ops", op="insert")

    def delete(self, data_id: int) -> bool:
        """Tombstone ``data_id``; returns True when this layer itself
        held a live entry for it (base-only ids still tombstone)."""
        data_id = int(data_id)
        row = self._rows.pop(data_id, None)
        if row is not None:
            last = len(self._rows)
            if row != last:
                moved = int(self._ids[last])
                self._ids[row] = moved
                self._los[row] = self._los[last]
                self._his[row] = self._his[last]
                self._rows[moved] = row
        self._tombstones.add(data_id)
        self._overridden.add(data_id)
        obs.inc("ingest.delta_ops", op="delete")
        return row is not None

    def apply(self, op: WalOp) -> None:
        """Apply one WAL op (the replay/write entry point)."""
        if op.op == "insert":
            if op.rect is None:
                raise IngestError(f"lsn {op.lsn}: insert without rect")
            self.insert(op.data_id, op.rect)
        elif op.op == "delete":
            self.delete(op.data_id)
        else:
            raise IngestError(f"lsn {op.lsn}: unknown op {op.op!r}")

    # -- queries -----------------------------------------------------------

    def search(self, query: Rect) -> list[int]:
        """Live delta ids intersecting ``query`` (closed bounds)."""
        if query.ndim != self.ndim:
            raise GeometryError(
                f"query has {query.ndim} dims, delta has {self.ndim}")
        n = len(self._rows)
        hit = overlap_mask(self._los[:n], self._his[:n], query.lo, query.hi)
        return self._ids[:n][hit].tolist()

    def knn_candidates(self, point: Sequence[float],
                       exclude: AbstractSet[int] | None = None
                       ) -> list[tuple[int, float]]:
        """``(id, distance)`` for every live entry (minus ``exclude``),
        by vectorized MINDIST over the live rows."""
        n = len(self._rows)
        if n == 0:
            return []
        q = np.asarray([float(c) for c in point], dtype=np.float64)
        if q.shape != (self.ndim,):
            raise GeometryError(
                f"point has {q.shape[0]} dims, delta has {self.ndim}")
        dists = _min_dists(self._los[:n], self._his[:n], q)
        out: list[tuple[int, float]] = []
        for data_id, dist in zip(self._ids[:n].tolist(), dists.tolist()):
            if exclude is None or data_id not in exclude:
                out.append((data_id, dist))
        return out
