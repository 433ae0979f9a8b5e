"""Read-optimised paged R-tree.

A :class:`PagedRTree` is what a packing algorithm produces: a static tree
whose nodes live one-per-page in a :class:`~repro.storage.store.PageStore`.
Queries run through a :class:`PagedSearcher`, which routes every node visit
through an LRU (or other) buffer pool so that *disk accesses per query* —
the paper's primary metric — falls straight out of the shared
:class:`~repro.storage.counters.IOStats`.

Design notes
------------
* Node visits are vectorized: the buffer caches decoded
  :class:`~repro.storage.page.NodePage` values, each internal node gets one
  numpy overlap test over its entries, and the matched leaves under a
  node one level above them are fetched in the order the depth-first
  stack would pop them, then tested in a single pass over all their
  entries.  The *unit of caching and accounting is still a page*, and the
  sequence of page requests is exactly that of a node-at-a-time walk, so
  the access counts are identical to a byte-level buffer.
* Every walk requires a child to sit one level below its parent, so a
  corrupt pointer that loops back up the tree is a
  :class:`~repro.storage.page.PageFormatError`, never an endless walk.
* The root page is read on every query like any other page (the paper uses
  plain LRU for all levels; pinning is available for the ablation).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Container, Iterator, Sequence

import numpy as np

from ..core.geometry import GeometryError, Rect, overlap_mask
from ..obs import runtime as obs
from ..storage.buffer import BufferPool, ReplacementPolicy
from ..storage.counters import IOStats
from ..storage.integrity import IntegrityError
from ..storage.page import NodePage, PageFormatError, decode_node
from ..storage.store import PageStore, StoreError

__all__ = ["PagedRTree", "PagedSearcher", "SearchResult", "LevelSummary"]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one (possibly degraded) paged search.

    ``partial=True`` means at least one subtree was skipped — because its
    root page was quarantined or failed to read in degraded mode — so
    ``ids`` is a *subset* of the true answer, never a superset: a degraded
    response can miss matches but cannot invent them.
    """

    ids: np.ndarray
    partial: bool
    skipped_subtrees: int
    nodes_visited: int


@dataclass(frozen=True)
class LevelSummary:
    """Per-level aggregate used by the area/perimeter tables."""

    level: int
    node_count: int
    entry_count: int
    total_area: float
    total_perimeter: float


class PagedRTree:
    """A static R-tree whose nodes are pages in a store.

    Instances are produced by :func:`repro.rtree.bulk.bulk_load`; the
    constructor only wires up already-written pages.
    """

    def __init__(self, store: PageStore, root_page: int, *, height: int,
                 ndim: int, capacity: int, size: int):
        if height < 1:
            raise GeometryError("height must be >= 1")
        self.store = store
        self.root_page = root_page
        self.height = height
        self.ndim = ndim
        self.capacity = capacity
        self._size = size

    def __len__(self) -> int:
        """Number of indexed data rectangles."""
        return self._size

    @property
    def page_count(self) -> int:
        """Total pages (nodes) in the tree's store."""
        return self.store.page_count

    # -- persistence ------------------------------------------------------

    def commit_meta(self) -> bool:
        """Persist the tree header into the store's superblock, when the
        store has one (returns whether it did).

        For a durable :class:`~repro.storage.store.FilePageStore` this is
        the build's atomic commit point: pages are fsynced, then the
        superblock is shadow-written.
        """
        if not getattr(self.store, "supports_tree_meta", False):
            return False
        self.store.set_tree_meta({
            "height": self.height,
            "root_page": self.root_page,
            "ndim": self.ndim,
            "capacity": self.capacity,
            "size": self._size,
        })
        return True

    @classmethod
    def from_store(cls, store: PageStore) -> "PagedRTree":
        """Reattach a tree from a self-describing (durable) store alone.

        The tree header lives in the store's superblock, committed by
        :meth:`commit_meta` (which :func:`repro.rtree.bulk.bulk_load` calls
        automatically).  A store whose build never committed refuses with
        a precise error rather than serving a half-written tree.
        """
        meta = getattr(store, "tree_meta", None)
        if meta is None:
            path = getattr(store, "path", "store")
            raise StoreError(
                f"{path}: superblock holds no tree metadata — the build "
                f"never committed (crash before completion?) or the store "
                f"is not durable"
            )
        return cls(
            store,
            int(meta["root_page"]),
            height=int(meta["height"]),
            ndim=int(meta["ndim"]),
            capacity=int(meta["capacity"]),
            size=int(meta["size"]),
        )

    # -- uncounted access (stats, validation, visualisation) -----------------

    def read_node(self, page_id: int) -> NodePage:
        """Decode one node *without* touching I/O counters.

        Metric collection (area/perimeter tables, validation, SVG plots)
        must not pollute the experiment's access counts, so it uses
        :meth:`PageStore.peek_page`.
        """
        return decode_node(self.store.peek_page(page_id), page_id=page_id,
                           source=getattr(self.store, "path", None))

    def root_node(self) -> NodePage:
        """Decode the root page (uncounted)."""
        return self.read_node(self.root_page)

    def iter_nodes(self) -> Iterator[tuple[int, NodePage]]:
        """Breadth-first ``(page_id, node)`` walk, uncounted.

        Raises :class:`~repro.storage.page.PageFormatError` at a child
        that is not one level below its parent (see :func:`_check_node`).
        """
        queue: deque[tuple[int, int | None]] = deque([(self.root_page, None)])
        while queue:
            page_id, level = queue.popleft()
            node = self.read_node(page_id)
            _check_node(page_id, node, level, self.ndim)
            yield page_id, node
            if not node.is_leaf:
                queue.extend((c, node.level - 1)
                             for c in node.children.tolist())

    def iter_level(self, level: int) -> Iterator[tuple[int, NodePage]]:
        """All nodes at a leaf-anchored level (0 = leaves), uncounted."""
        for page_id, node in self.iter_nodes():
            if node.level == level:
                yield page_id, node

    def level_pages(self, level: int) -> list[int]:
        """Page ids of every node at a leaf-anchored level."""
        return [pid for pid, _ in self.iter_level(level)]

    def level_summaries(self) -> list[LevelSummary]:
        """Area/perimeter roll-up per level (root level included).

        Summaries cover the MBRs *stored in* nodes at each level, i.e. the
        leaf summary aggregates over leaf nodes' own MBRs as the paper's
        "leaf" rows do — see :mod:`repro.rtree.stats` for the exact paper
        metric computed from these.
        """
        acc: dict[int, list] = {}
        for _, node in self.iter_nodes():
            slot = acc.setdefault(node.level, [0, 0, 0.0, 0.0])
            slot[0] += 1
            slot[1] += node.count
            slot[2] += node.rects.total_area()
            slot[3] += node.rects.total_perimeter()
        return [
            LevelSummary(level, *acc[level])
            for level in sorted(acc, reverse=True)
        ]

    def mbr(self) -> Rect:
        """MBR of the whole dataset."""
        return self.root_node().rects.mbr()

    # -- searchers ------------------------------------------------------------

    def searcher(self, buffer_pages: int, *,
                 policy: str | ReplacementPolicy = "lru",
                 stats: IOStats | None = None) -> "PagedSearcher":
        """A query executor with its own buffer of ``buffer_pages`` pages."""
        return PagedSearcher(self, buffer_pages, policy=policy, stats=stats)


class PagedSearcher:
    """Executes queries against a :class:`PagedRTree` through a buffer pool.

    One searcher corresponds to one experiment run in the paper: a freshly
    cold buffer of a given size, then a stream of queries whose misses are
    disk accesses.
    """

    def __init__(self, tree: PagedRTree, buffer_pages: int, *,
                 policy: str | ReplacementPolicy = "lru",
                 stats: IOStats | None = None):
        self.tree = tree
        self.stats = stats = stats if stats is not None else IOStats()

        def fetch(page_id: int) -> NodePage:
            # Reads triggered by this searcher are charged to its own stats,
            # keeping per-experiment accounting separate from build I/O.
            # The store opens the read/decode spans, so their self time is
            # separable from the node walk above.  The closure holds no
            # reference to the searcher: a searcher dropped by a reload
            # frees its buffered nodes (views of a mapped generation) at
            # once, so closing that generation unmaps it.
            return tree.store.read_node(page_id, stats)

        self.buffer: BufferPool[int, NodePage] = BufferPool(
            buffer_pages, fetch, stats=self.stats, policy=policy
        )

    # -- queries -----------------------------------------------------------

    #: Exceptions a *degraded* search absorbs as unreachable subtrees:
    #: store failures (including a fast-failing open circuit breaker),
    #: checksum mismatches, undecodable pages, and raw I/O errors.
    DEGRADED_ERRORS = (StoreError, IntegrityError, PageFormatError, OSError)

    def search(self, query: Rect) -> np.ndarray:
        """Data ids of all rectangles intersecting ``query``."""
        return self.search_detailed(query).ids

    def search_detailed(
        self,
        query: Rect,
        *,
        check: Callable[[], None] | None = None,
        quarantined: Container[int] | None = None,
        degraded: bool = False,
        on_page_error: Callable[[int, Exception], None] | None = None,
    ) -> SearchResult:
        """Search with serving-layer hooks; returns a :class:`SearchResult`.

        Parameters
        ----------
        check:
            Called between node visits (cooperative cancellation): a
            deadline's ``check`` raises there to abandon an expired query
            mid-walk instead of finishing useless work.
        quarantined:
            Page ids known to be bad (e.g. from ``repro fsck
            --quarantine``).  Their subtrees are skipped without any I/O
            and the result is flagged partial.
        degraded:
            Absorb :data:`DEGRADED_ERRORS` raised while reading a node:
            the failed subtree is skipped and counted instead of failing
            the whole query.  Off (the default) such errors propagate.
        on_page_error:
            Observer called with ``(page_id, exc)`` for every absorbed
            page failure — the server uses it to grow its runtime
            quarantine set.
        """
        if query.ndim != self.tree.ndim:
            raise GeometryError("query dimensionality mismatch")
        ndim = self.tree.ndim
        qlo, qhi = query.lo, query.hi
        hits: list[np.ndarray] = []
        skipped = 0
        visited = 0

        def visit(page_id: int, level: int | None) -> NodePage | None:
            """One page request: the node, or ``None`` when skipped."""
            nonlocal skipped, visited
            if check is not None:
                check()
            if quarantined is not None and page_id in quarantined:
                skipped += 1
                return None
            try:
                node = self.buffer.get(page_id)
                _check_node(page_id, node, level, ndim)
            except self.DEGRADED_ERRORS as exc:
                if not degraded:
                    raise
                skipped += 1
                if on_page_error is not None:
                    on_page_error(page_id, exc)
                return None
            visited += 1
            return node

        # The spans only *time* the walk; all counting stays in the
        # buffer/store IOStats, so telemetry cannot shift access counts.
        # ``query.node_walk`` covers the whole loop while page fetches
        # open nested read/decode spans, so the walk's *self* time is
        # pure in-memory tree work — the decode-vs-walk split the
        # ROADMAP's raw-speed item asks for.
        with obs.span("query.search"), obs.span("query.node_walk"):
            # (page, the level it must sit at; None for the root)
            stack: list[tuple[int, int | None]] = [(self.tree.root_page,
                                                     None)]
            while stack:
                node = visit(*stack.pop())
                if node is None:
                    continue
                mask = overlap_mask(node.rects.los, node.rects.his, qlo, qhi)
                if not mask.any():
                    continue
                if node.level == 0:  # a leaf root
                    hits.append(node.children[mask])
                    continue
                matched = node.children[mask].tolist()
                if node.level > 1:
                    stack.extend((c, node.level - 1) for c in matched)
                else:
                    # The leaves would be pushed here and popped next,
                    # last first: request them in that order, then test
                    # all their entries at once.
                    leaves = [leaf for leaf in (visit(c, 0)
                                                for c in reversed(matched))
                              if leaf is not None]
                    if leaves:
                        hits.append(_leaf_hits(leaves, qlo, qhi))
            ids = (np.concatenate(hits) if hits
                   else np.empty(0, dtype=np.int64))
            return SearchResult(ids=ids, partial=skipped > 0,
                                skipped_subtrees=skipped,
                                nodes_visited=visited)

    def point_query(self, point: Sequence[float]) -> np.ndarray:
        """Data ids of all rectangles containing ``point``."""
        return self.search(Rect.from_point(point))

    def count(self, query: Rect) -> int:
        """Number of matches without keeping the ids."""
        return int(self.search(query).size)

    # -- experiment plumbing --------------------------------------------------

    def pin_levels(self, levels: Sequence[int]) -> None:
        """Pin every page at the given leaf-anchored levels (ablation)."""
        for level in levels:
            for page_id in self.tree.level_pages(level):
                self.buffer.pin(page_id)

    def warm(self, queries: Sequence[Rect]) -> None:
        """Run queries without keeping their results (buffer warm-up)."""
        for q in queries:
            self.search(q)

    def reset_stats(self) -> None:
        """Zero this searcher's access counters."""
        self.stats.reset()

    @property
    def disk_accesses(self) -> int:
        """Total page fetches so far (the paper's metric, before averaging)."""
        return self.stats.disk_reads


def _leaf_hits(leaves: list[NodePage], qlo: Sequence[float],
               qhi: Sequence[float]) -> np.ndarray:
    """Data ids of the entries of ``leaves`` overlapping ``[qlo, qhi]``,
    leaf by leaf in list order, in one vectorized pass."""
    ids = np.concatenate([leaf.children for leaf in leaves])
    los = np.concatenate([leaf.rects.los for leaf in leaves])
    his = np.concatenate([leaf.rects.his for leaf in leaves])
    return ids[overlap_mask(los, his, qlo, qhi)]


def _check_node(page_id: int, node: NodePage, level: int | None,
                ndim: int) -> None:
    """Raise :class:`~repro.storage.page.PageFormatError` unless ``node``
    sits at ``level`` (one below its parent; ``None`` for the root) and
    holds ``ndim``-dimensional entries.

    Both are corrupt pointers or pages that still decode: a child
    pointer that loops back up the tree would make a walk endless, and
    entries of another dimensionality would be tested on the wrong axes.
    """
    if level is not None and node.level != level:
        raise PageFormatError(
            f"page {page_id} at level {node.level} where its parent needs "
            f"level {level}")
    if node.ndim != ndim:
        raise PageFormatError(
            f"page {page_id} holds {node.ndim}-d entries in a {ndim}-d tree")
