"""External-memory bulk loading.

The paper's General Algorithm starts from a *data file* ("Preprocess the
data file so that the r rectangles are ordered...") — in 1997 the input
typically did not fit in memory, and packing was attractive precisely
because it only needs sorts, which have classic external-memory
implementations.  This module provides that substrate:

* :class:`ExternalRectSorter` — run-generation + k-way merge sort of
  rectangle records keyed by an arbitrary float key, spilling fixed-size
  binary runs to a spill directory.
* :func:`external_str_order` — STR's two-pass structure on top of it:
  sort by center-x into slices, then sort each slice by center-y, writing
  the final order as a stream of (rect, id) records.
* :func:`external_bulk_load` — end-to-end: stream -> ordered runs ->
  packed pages, with peak memory bounded by ``chunk_size`` records.

In-memory packing (:mod:`repro.rtree.bulk`) remains the fast path; this
exists for datasets beyond RAM and is validated against it bit-for-bit on
shared inputs (same capacity, same data => identical leaf MBR multisets).
"""

from __future__ import annotations

import heapq
import os
import struct
import tempfile
from typing import Iterable, Iterator

import numpy as np

from ...core.geometry import GeometryError, RectArray
from ...obs import runtime as obs
from .base import PackingError
from .str_ import str_slab_sizes

__all__ = [
    "RectRecord",
    "ExternalRectSorter",
    "external_str_order",
    "external_bulk_load",
]

# One record: key float64, id int64, k lo float64, k hi float64.
_KEY_ID = struct.Struct("<dq")


def _record_struct(ndim: int) -> struct.Struct:
    return struct.Struct(f"<dq{2 * ndim}d")


class RectRecord(tuple):
    """A ``(key, data_id, lo..., hi...)`` record; plain tuple subtype."""

    __slots__ = ()


class ExternalRectSorter:
    """Run-generation + k-way-merge external sort of rectangle records.

    Records are ``(key, id, lo..., hi...)`` tuples.  ``chunk_size`` bounds
    how many records are held in memory at once; each sorted chunk is
    spilled as a binary run file, and :meth:`sorted_records` merges the
    runs with a heap.

    Spills are **crash-clean**: every run is published with
    :func:`repro.pipeline.staging.atomic_publish` (pid-suffixed
    temporary, fsync, rename), so a killed sorter never leaves a torn
    run behind — only ignorable ``*.tmp-*`` litter.  Runs live in a
    temporary directory (under ``spill_dir`` when given) that
    :meth:`close` removes, on clean exit and on exception alike.
    """

    def __init__(self, ndim: int, *, chunk_size: int = 100_000,
                 spill_dir: str | None = None):
        if ndim < 1:
            raise GeometryError("ndim must be >= 1")
        if chunk_size < 2:
            raise PackingError("chunk_size must be >= 2")
        self.ndim = ndim
        self.chunk_size = chunk_size
        self._struct = _record_struct(ndim)
        self._runs: list[str] = []
        self._buffer: list[tuple] = []
        self._count = 0
        self._spills = 0
        self._tmp = tempfile.TemporaryDirectory(
            prefix="repro-extsort-", dir=spill_dir
        )
        self._dir = self._tmp.name

    # -- feeding -------------------------------------------------------------

    def add(self, key: float, data_id: int, lo, hi) -> None:
        """Add one record; spills a run when the buffer fills."""
        record = (float(key), int(data_id), *map(float, lo), *map(float, hi))
        self._buffer.append(record)
        self._count += 1
        if len(self._buffer) >= self.chunk_size:
            self._spill()

    def __len__(self) -> int:
        return self._count

    @property
    def run_count(self) -> int:
        """Spilled runs so far (diagnostic; excludes the live buffer)."""
        return self._spills

    # -- spilling ------------------------------------------------------------

    def _spill(self) -> None:
        # Imported here so importing core.packing never loads
        # repro.pipeline.
        from ...pipeline.staging import atomic_publish

        if not self._buffer:
            return
        with obs.span("extsort.spill", run=self._spills,
                      count=len(self._buffer)):
            self._buffer.sort()
            path = os.path.join(self._dir, f"run-{self._spills:06d}.bin")
            # Publish atomically: a crash mid-spill leaves a *.tmp-<pid>
            # file, never a torn run.
            pack = self._struct.pack
            atomic_publish(path, lambda f: f.writelines(
                pack(*record) for record in self._buffer))
        obs.inc("extsort.records_spilled", len(self._buffer))
        self._runs.append(path)
        self._spills += 1
        self._buffer = []

    def _iter_run(self, path: str) -> Iterator[tuple]:
        size = self._struct.size
        with open(path, "rb") as f:
            while True:
                blob = f.read(size * 4096)
                if not blob:
                    break
                for off in range(0, len(blob), size):
                    yield self._struct.unpack_from(blob, off)

    # -- draining ------------------------------------------------------------

    def sorted_records(self) -> Iterator[tuple]:
        """Yield every record in key order; consumes the sorter."""
        self._spill()
        streams = [self._iter_run(path) for path in self._runs]
        yield from heapq.merge(*streams)

    def close(self) -> None:
        """Delete all spill files."""
        self._tmp.cleanup()

    def __enter__(self) -> "ExternalRectSorter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _center_key(record: tuple, ndim: int, dim: int) -> float:
    lo = record[2 + dim]
    hi = record[2 + ndim + dim]
    return (lo + hi) / 2.0


def external_str_order(
    records: Iterable[tuple], ndim: int, capacity: int, *,
    chunk_size: int = 100_000, spill_dir: str | None = None,
) -> Iterator[tuple]:
    """Stream records in STR order using external sorts only.

    ``records`` yields ``(key_ignored, id, lo, hi)`` tuples (the key slot
    is recomputed).  Two passes: sort by center of dimension ``dim``; cut
    into the paper's slabs; recurse into each slab with the next
    dimension.  Peak memory is ``O(chunk_size)`` records.
    """
    if capacity < 1:
        raise PackingError("capacity must be >= 1")

    def flatten(stream: Iterable[tuple]) -> Iterator[tuple]:
        """User records are (key, id, lo-tuple, hi-tuple); flatten them."""
        for key, data_id, lo, hi in stream:
            yield (float(key), int(data_id), *map(float, lo),
                   *map(float, hi))

    def order_pass(stream: Iterable[tuple], count_hint: int | None,
                   dim: int) -> Iterator[tuple]:
        with ExternalRectSorter(ndim, chunk_size=chunk_size,
                                spill_dir=spill_dir) as sorter:
            for record in stream:
                data_id = record[1]
                lo = record[2:2 + ndim]
                hi = record[2 + ndim:2 + 2 * ndim]
                sorter.add(_center_key(record, ndim, dim), data_id, lo, hi)
            total = len(sorter)
            if total == 0:
                return
            dims_left = ndim - dim
            if dims_left <= 1:
                yield from sorter.sorted_records()
                return
            sizes = str_slab_sizes(total, capacity, dims_left)
            stream_sorted = sorter.sorted_records()
            for size in sizes:
                slab = [next(stream_sorted) for _ in range(size)]
                yield from order_pass(iter(slab), size, dim + 1)

    # NOTE: slabs are materialised one at a time; a slab holds
    # capacity * ceil(P^((k-1)/k)) records, which for the paper's
    # parameters (k=2, n=100) is ~sqrt(P)*100 — far below the input size.
    yield from order_pass(flatten(records), None, 0)


def external_bulk_load(
    records: Iterable[tuple], ndim: int, *, capacity: int = 100,
    store=None, chunk_size: int = 100_000, spill_dir: str | None = None,
):
    """Bulk-load a paged R-tree from a record stream with bounded memory.

    ``records`` yields ``(key_ignored, data_id, lo, hi)``.  Returns the
    same ``(tree, report)`` pair as :func:`repro.rtree.bulk.bulk_load`.
    Leaf ordering is STR (the only algorithm here needing the external
    machinery; NX/HS are single external sorts users can run through
    :class:`ExternalRectSorter` directly).

    Upper levels are built in memory: even a 10^9-rectangle input has only
    ~10^7 leaf MBRs at capacity 100, well within RAM — matching how
    real systems implement packed loading.
    """
    from ...storage.page import NodePage, encode_node, required_page_size
    from ...storage.store import MemoryPageStore

    page_size = required_page_size(capacity, ndim)
    if store is None:
        store = MemoryPageStore(page_size)

    ordered = external_str_order(records, ndim, capacity,
                                 chunk_size=chunk_size, spill_dir=spill_dir)

    # Write leaves straight off the stream.
    leaf_mbrs_lo: list[tuple] = []
    leaf_mbrs_hi: list[tuple] = []
    leaf_pages: list[int] = []
    batch: list[tuple] = []

    def flush_leaf() -> None:
        ids = np.array([r[1] for r in batch], dtype=np.int64)
        los = np.array([r[2:2 + ndim] for r in batch])
        his = np.array([r[2 + ndim:2 + 2 * ndim] for r in batch])
        rects = RectArray(los, his, copy=False)
        page_id = store.allocate()
        store.write_page(
            page_id,
            encode_node(NodePage(level=0, children=ids, rects=rects),
                        store.page_size),
        )
        leaf_pages.append(page_id)
        mbr = rects.mbr()
        leaf_mbrs_lo.append(mbr.lo)
        leaf_mbrs_hi.append(mbr.hi)
        batch.clear()

    # The leaf loop drives the whole external pipeline (sorts and spills
    # happen lazily as `ordered` is consumed), so this span is the total
    # external-load time; nested extsort.spill spans attribute the sorts.
    with obs.span("bulk.external_load", capacity=capacity):
        total = 0
        for record in ordered:
            batch.append(record)
            total += 1
            if len(batch) == capacity:
                flush_leaf()
        if batch:
            flush_leaf()
    if total == 0:
        raise GeometryError("cannot bulk-load zero records")

    # Upper levels: reuse the in-memory machinery over the leaf MBRs.
    from ...core.packing.str_ import SortTileRecursive
    from ...rtree.paged import PagedRTree
    from ...rtree.bulk import BulkLoadReport, pack_upper_levels
    from ...storage.counters import IOStats

    level_rects = RectArray(np.array(leaf_mbrs_lo), np.array(leaf_mbrs_hi))
    level_ids = np.array(leaf_pages, dtype=np.int64)
    root_page, height = pack_upper_levels(
        store, SortTileRecursive(), capacity, level_rects, level_ids,
    )

    tree = PagedRTree(store, root_page, height=height, ndim=ndim,
                      capacity=capacity, size=total)
    # Durable destinations get the same atomic superblock commit as
    # bulk_load, so externally-built files are self-describing too.
    tree.commit_meta()
    report = BulkLoadReport(
        pages_written=store.stats.disk_writes,
        height=tree.height,
        leaf_pages=len(leaf_pages),
        build_io=IOStats(disk_writes=store.stats.disk_writes),
    )
    return tree, report
