"""Bulk loading: packing algorithms -> paged R-trees.

This implements steps 2 and 3 of the paper's General Algorithm: given an
ordering from a :class:`~repro.core.packing.base.PackingAlgorithm`, write
full leaf pages, collect their ``(MBR, page id)`` pairs, and recurse upward
until a single root page remains.

Internal levels are re-ordered with the *same* algorithm by default (the
natural reading of "recursively pack these MBRs"); passing
``reorder_internal=False`` packs upper levels in child-emission order
instead, which is what a strictly streaming implementation would do — the
difference is one of the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.geometry import GeometryError, RectArray
from ..core.packing.base import PackingAlgorithm, leaf_group_sizes
from ..obs import runtime as obs
from ..storage.counters import IOStats
from ..storage.page import NodePage, encode_node, required_page_size
from ..storage.store import MemoryPageStore, PageStore
from .paged import PagedRTree
from .node import RTreeError
from .tree import RTree

__all__ = ["BulkLoadReport", "bulk_load", "pack_upper_levels",
           "paged_from_dynamic"]


@dataclass(frozen=True)
class BulkLoadReport:
    """What building the tree cost — the paper's claim (a) load-time metric."""

    pages_written: int
    height: int
    leaf_pages: int
    build_io: IOStats


def _write_level(
    rects: RectArray,
    children: np.ndarray,
    level: int,
    store: PageStore,
    page_size: int,
    capacity: int,
) -> tuple[RectArray, np.ndarray]:
    """Pack one level into pages; return (MBRs, page ids) for the next."""
    sizes = leaf_group_sizes(len(rects), capacity)
    page_ids = np.empty(len(sizes), dtype=np.int64)
    offset = 0
    for i, size in enumerate(sizes):
        node = NodePage(
            level=level,
            children=children[offset:offset + size],
            rects=rects[offset:offset + size],
        )
        page_id = store.allocate()
        store.write_page(page_id, encode_node(node, page_size))
        page_ids[i] = page_id
        offset += size
    return rects.group_mbrs(sizes), page_ids


def pack_upper_levels(
    store: PageStore,
    algorithm: PackingAlgorithm,
    capacity: int,
    mbrs: RectArray,
    page_ids: np.ndarray,
    *,
    reorder_internal: bool = True,
    start_level: int = 1,
) -> tuple[int, int]:
    """Pack ``(MBR, page id)`` pairs upward until a single root remains.

    This is steps 2-3 of the paper's General Algorithm above the leaves,
    shared by the serial loader and the sharded parallel orchestrator so
    both produce byte-identical internal levels from the same leaf
    sequence.  Returns ``(root_page, height)`` where height counts levels
    including leaves.
    """
    if len(page_ids) == 1:
        return int(page_ids[0]), start_level
    level = start_level
    level_rects, level_ids = mbrs, np.asarray(page_ids, dtype=np.int64)
    while True:
        if reorder_internal:
            with obs.span("pack.order", algorithm=algorithm.name,
                          level=level, count=len(level_rects)):
                perm = algorithm.order(level_rects, capacity)
                level_rects = level_rects.take(perm)
                level_ids = level_ids[perm]
        with obs.span("bulk.write_level", level=level,
                      count=len(level_rects)):
            next_mbrs, next_ids = _write_level(
                level_rects, level_ids, level, store, store.page_size,
                capacity,
            )
        if len(next_ids) == 1:
            return int(next_ids[0]), level + 1
        level_rects, level_ids = next_mbrs, next_ids
        level += 1


def bulk_load(
    rects: RectArray,
    algorithm: PackingAlgorithm,
    *,
    data_ids: np.ndarray | None = None,
    capacity: int = 100,
    store: PageStore | None = None,
    reorder_internal: bool = True,
) -> tuple[PagedRTree, BulkLoadReport]:
    """Build a packed, paged R-tree.

    Parameters
    ----------
    rects:
        The input rectangles (points are degenerate rectangles).
    algorithm:
        Any packing algorithm; the paper's three live in
        :mod:`repro.core.packing`.
    data_ids:
        Optional int64 ids stored in leaf entries; defaults to positional
        indices ``0..len(rects)-1``.
    capacity:
        Entries per node, the paper's ``n`` (default 100).
    store:
        Destination page store; a fresh :class:`MemoryPageStore` with the
        right page size is created if omitted.
    reorder_internal:
        Re-apply ``algorithm`` at internal levels (default, the paper's
        reading) or keep child-emission order.

    Returns
    -------
    ``(tree, report)`` where ``report`` records pages written and build I/O.
    """
    if len(rects) == 0:
        raise GeometryError("cannot bulk-load zero rectangles")
    if capacity < 2:
        raise RTreeError("capacity must be >= 2")
    if data_ids is None:
        ids = np.arange(len(rects), dtype=np.int64)
    else:
        ids = np.asarray(data_ids, dtype=np.int64)
        if ids.shape != (len(rects),):
            raise RTreeError(
                f"data_ids shape {ids.shape} does not match {len(rects)} rects"
            )

    page_size = required_page_size(capacity, rects.ndim)
    if store is None:
        store = MemoryPageStore(page_size)
    elif store.payload_size < page_size:
        # payload_size < page_size when the store reserves trailer bytes
        # for checksums; entries must never spill into that region.
        raise RTreeError(
            f"store payload size {store.payload_size} cannot hold "
            f"{capacity} {rects.ndim}-d entries (need {page_size})"
        )
    build_io = store.stats.snapshot()

    with obs.span("bulk.load", algorithm=algorithm.name, size=len(rects),
                  capacity=capacity):
        with obs.span("pack.order", algorithm=algorithm.name,
                      level=0, count=len(rects)):
            perm = algorithm.order(rects, capacity)
            leaf_rects = rects.take(perm)
            leaf_ids = ids[perm]
        with obs.span("bulk.write_level", level=0, count=len(leaf_rects)):
            mbrs, page_ids = _write_level(
                leaf_rects, leaf_ids, 0, store, store.page_size, capacity
            )
        root_page, height = pack_upper_levels(
            store, algorithm, capacity, mbrs, page_ids,
            reorder_internal=reorder_internal,
        )

    io_delta = IOStats(
        disk_reads=store.stats.disk_reads - build_io.disk_reads,
        disk_writes=store.stats.disk_writes - build_io.disk_writes,
    )
    tree = PagedRTree(
        store,
        root_page,
        height=height,
        ndim=rects.ndim,
        capacity=capacity,
        size=len(rects),
    )
    # Durable stores get the tree header committed into their superblock:
    # the atomic point after which a reopened file is a complete tree.
    tree.commit_meta()
    report = BulkLoadReport(
        pages_written=io_delta.disk_writes,
        height=tree.height,
        leaf_pages=int(np.ceil(len(rects) / capacity)),
        build_io=io_delta,
    )
    if obs.enabled():
        obs.record_iostats(io_delta, "build.io", algorithm=algorithm.name)
        obs.set_gauge("tree.height", tree.height, algorithm=algorithm.name)
        obs.set_gauge("tree.pages", report.pages_written,
                      algorithm=algorithm.name)
    return tree, report


def paged_from_dynamic(tree: RTree, store: PageStore | None = None
                       ) -> PagedRTree:
    """Serialise a dynamic (Guttman) tree into the paged representation.

    This lets the experiment harness measure a dynamically-built tree with
    exactly the same buffer-pool instrumentation as the packed trees —
    needed for the packed-vs-inserted extension experiments.
    """
    if tree.is_empty():
        raise RTreeError("cannot serialise an empty tree")
    page_size = required_page_size(tree.capacity, tree.ndim)
    if store is None:
        store = MemoryPageStore(page_size)
    elif store.payload_size < page_size:
        raise RTreeError(
            f"store payload size {store.payload_size} cannot hold "
            f"{tree.capacity} {tree.ndim}-d entries (need {page_size})"
        )

    # Allocate pages in BFS order so sibling locality is preserved, then
    # write children before parents need their ids (two passes).
    order = list(tree.iter_nodes())
    page_of = {id(node): store.allocate() for node in order}
    for node in order:
        if node.is_leaf:
            children = np.array(
                [e.data_id for e in node.entries], dtype=np.int64
            )
        else:
            children = np.array(
                [page_of[id(e.child)] for e in node.entries], dtype=np.int64
            )
        rects = RectArray.from_rects(e.rect for e in node.entries)
        page = NodePage(level=node.level, children=children, rects=rects)
        store.write_page(page_of[id(node)], encode_node(page, store.page_size))

    paged = PagedRTree(
        store,
        page_of[id(tree.root)],
        height=tree.height,
        ndim=tree.ndim,
        capacity=tree.capacity,
        size=len(tree),
    )
    paged.commit_meta()
    return paged
