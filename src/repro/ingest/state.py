"""Serving-side ingest state: the WAL, the delta layers, and the
book-keeping that ties acks, backpressure, and merge cutover together.

One :class:`IngestState` belongs to one server process.  Its lifecycle:

* :meth:`IngestState.open` resolves the current packed generation,
  sweeps crash leftovers, opens the WAL past the drained prefix, and
  replays every pending op into a fresh live delta — after which the
  overlay answers exactly as it did before the restart.
* Writes go through :meth:`append` (fsync'd WAL append — the ack
  point) then :meth:`apply` (delta mutation, done under the server's
  search lock so readers see each op atomically).
* :meth:`begin_merge` seals the active segment and freezes the live
  delta; queries keep overlaying ``frozen + live`` while the merge
  re-packs in the background, so cutover needs no write or read stall
  beyond one pointer swap.
* :meth:`finish_merge` drops the frozen layers (their ops are now in
  the packed base) and forgets the drained segments.

Thread-safety: all mutation happens either on the event loop or inside
the server's single-flight write executor under ``_write_lock``; this
class adds no locking of its own.
"""

from __future__ import annotations

import os

from ..core.geometry import Rect
from ..obs import runtime as obs
from ..storage.faults import CrashPlan
from .delta import DeltaTree
from .merge import resolve_current, sweep_drained
from .wal import WalOp, WriteAheadLog, ingest_dir

__all__ = ["IngestState", "DEFAULT_WAL_LIMIT"]

#: Default bound on un-merged WAL bytes before writes shed (64 MiB).
DEFAULT_WAL_LIMIT = 64 << 20


class IngestState:
    """Everything the server needs to accept writes durably."""

    def __init__(self, tree_path: str, wal: WriteAheadLog, *,
                 ndim: int, max_wal_bytes: int = DEFAULT_WAL_LIMIT):
        self.tree_path = tree_path
        self.wal = wal
        self.ndim = ndim
        self.max_wal_bytes = max_wal_bytes
        self.live = DeltaTree(ndim)
        self._frozen: list[DeltaTree] = []
        self.merging = False
        self.writes_acked = 0
        self.writes_shed = 0
        self.merges_total = 0
        #: Memory of the last merge's child process (``peak_rss_mb``,
        #: ``private_dirty_mb``); the server sets it.
        self.merge_child: dict[str, float] | None = None

    @classmethod
    def open(cls, tree_path: str | os.PathLike[str], *, ndim: int,
             max_wal_bytes: int = DEFAULT_WAL_LIMIT,
             crash_plan: CrashPlan | None = None
             ) -> tuple["IngestState", str]:
        """Recover ingest state from disk.

        Returns ``(state, base_path)`` where ``base_path`` is the
        packed generation the overlay should serve under the replayed
        delta.  Replay is exact: the WAL constructor discards a torn
        tail, and every surviving (i.e. previously acked) op lands in
        the live delta in LSN order.
        """
        tree_path = os.fspath(tree_path)
        base_path, pointer = resolve_current(tree_path)
        sweep_drained(tree_path)
        wal = WriteAheadLog(
            ingest_dir(tree_path),
            start_after_seq=pointer.merged_seq if pointer else 0,
            min_lsn=pointer.merged_lsn if pointer else 0,
            crash_plan=crash_plan,
        )
        state = cls(tree_path, wal, ndim=ndim,
                    max_wal_bytes=max_wal_bytes)
        replayed = 0
        for replayed, op in enumerate(wal.iter_ops(), 1):
            state.live.apply(op)
        if replayed:
            obs.inc("ingest.replayed_ops", replayed)
        return state, base_path

    # -- write path --------------------------------------------------------

    @property
    def pending_bytes(self) -> int:
        """Bytes of WAL not yet drained by a merge."""
        return self.wal.pending_bytes

    @property
    def overloaded(self) -> bool:
        """True when the un-merged WAL exceeds its bound; the server
        sheds writes (before appending anything) until a merge drains
        it.  Reads are never shed."""
        return self.wal.pending_bytes >= self.max_wal_bytes

    def append(self, op: str, data_id: int,
               rect: Rect | None = None) -> WalOp:
        """Durably log one op.  When this returns, the record is
        fsync'd — the caller may ack."""
        walop = self.wal.append(op, data_id, rect)
        self.writes_acked += 1
        return walop

    def apply(self, walop: WalOp) -> None:
        """Make a logged op visible to queries (live delta upsert or
        tombstone).  Call under the search lock."""
        self.live.apply(walop)

    # -- merge lifecycle ---------------------------------------------------

    def layers(self) -> tuple[DeltaTree, ...]:
        """Overlay layers, oldest first (frozen snapshots, then live)."""
        return (*self._frozen, self.live)

    def begin_merge(self) -> None:
        """Seal the active WAL segment and freeze the live delta.

        After this, new writes land in a new segment and a new live
        delta; the sealed prefix is exactly what the background merge
        will drain.  Call under the search lock so readers never see a
        half-frozen layer stack.
        """
        self.wal.seal_active()
        self._frozen.append(self.live)
        self.live = DeltaTree(self.ndim)
        self.merging = True

    def finish_merge(self, merged_seq: int) -> None:
        """Drop the frozen layers and forget drained segments after the
        new generation is live.  Call under the search lock (the base
        searcher swap and the layer drop must be one atomic step from a
        reader's point of view)."""
        self._frozen.clear()
        self.merging = False
        self.merges_total += 1
        self.wal.forget_through(merged_seq)

    def abort_merge(self) -> None:
        """A merge attempt failed before cutover: fold the frozen
        layers back under the live delta so the layer stack stays
        minimal.  The sealed segments remain on disk; the next merge
        retries them.  Call under the search lock."""
        if self._frozen:
            # Replay the live delta's ops *over* the oldest frozen
            # layer: frozen layers are older, so fold newer into older.
            merged = self._frozen[0]
            for layer in (*self._frozen[1:], self.live):
                for data_id in sorted(layer.overridden):
                    rect = layer.get(data_id)
                    if rect is not None:
                        merged.insert(data_id, rect)
                    else:
                        merged.delete(data_id)
            self._frozen.clear()
            self.live = merged
        self.merging = False

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Health/monitoring view (served by healthz)."""
        active = self.wal.active_segment
        return {
            "wal": {
                "dir": self.wal.dir_path,
                "last_lsn": self.wal.last_lsn,
                "pending_bytes": self.wal.pending_bytes,
                "pending_ops": self.wal.pending_ops,
                "max_bytes": self.max_wal_bytes,
                "active_seq": active.seq if active else None,
                "sealed_segments": len(self.wal.sealed_segments()),
            },
            "delta": {
                "live": len(self.live),
                "live_tombstones": self.live.tombstone_count,
                "frozen_layers": len(self._frozen),
                "frozen": sum(len(f) for f in self._frozen),
            },
            "merge": {
                "merging": self.merging,
                "merges_total": self.merges_total,
                "child": self.merge_child,
            },
            "writes": {
                "acked": self.writes_acked,
                "shed": self.writes_shed,
            },
            "overloaded": self.overloaded,
        }

    def close(self) -> None:
        """Release the WAL's active-segment file handle."""
        self.wal.close()
