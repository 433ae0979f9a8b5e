"""k-nearest-neighbour search over paged R-trees.

Not part of the paper's evaluation, but a packing algorithm's quality shows
up in every query type an R-tree serves, and any library a downstream user
would adopt needs kNN.  This is the standard best-first (priority-queue)
algorithm of Hjaltason & Samet: expand the node/object with the smallest
minimum distance to the query point until k objects have surfaced.

Distance accounting runs through the same buffer pool as range queries, so
the packed-vs-packed kNN comparison benchmark reuses the paper's disk-access
metric unchanged.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Container, Sequence

import numpy as np

from ..core.geometry import GeometryError
from ..obs import runtime as obs
from .paged import PagedSearcher, _check_node

__all__ = ["knn", "knn_detailed", "KnnResult"]


def _min_dists(los: np.ndarray, his: np.ndarray, point: np.ndarray
               ) -> np.ndarray:
    """Vectorized MINDIST: Euclidean distance from point to each rect."""
    below = np.maximum(los - point, 0.0)
    above = np.maximum(point - his, 0.0)
    delta = np.maximum(below, above)
    return np.sqrt((delta * delta).sum(axis=1))


class KnnResult:
    """Outcome of one (possibly degraded) kNN search.

    Mirrors :class:`~repro.rtree.paged.SearchResult`: ``partial=True``
    means at least one node was skipped (quarantined or unreadable in
    degraded mode), so ``neighbours`` may under-report — the true k-th
    neighbour could have lived in a skipped subtree — but every pair
    returned is a real indexed rectangle at its true distance.
    """

    __slots__ = ("neighbours", "partial", "skipped_subtrees")

    def __init__(self, neighbours: list[tuple[int, float]],
                 partial: bool, skipped_subtrees: int):
        self.neighbours = neighbours
        self.partial = partial
        self.skipped_subtrees = skipped_subtrees


def knn(searcher: PagedSearcher, point: Sequence[float], k: int
        ) -> list[tuple[int, float]]:
    """The ``k`` data rectangles nearest to ``point``.

    Returns ``(data_id, distance)`` pairs in ``(distance, id)`` order.
    Distance is Euclidean point-to-rectangle (zero inside a rectangle).
    Page fetches are charged to the searcher's stats like any query.
    """
    return knn_detailed(searcher, point, k).neighbours


def knn_detailed(
    searcher: PagedSearcher,
    point: Sequence[float],
    k: int,
    *,
    check: Callable[[], None] | None = None,
    quarantined: Container[int] | None = None,
    degraded: bool = False,
    on_page_error: Callable[[int, Exception], None] | None = None,
    exclude: Container[int] | None = None,
) -> KnnResult:
    """kNN with the serving-layer hooks of
    :meth:`~repro.rtree.paged.PagedSearcher.search_detailed`.

    ``check`` runs between heap expansions (cooperative deadline
    cancellation); ``quarantined`` subtrees are skipped without I/O;
    ``degraded=True`` absorbs page failures as skipped subtrees instead
    of failing the query, reporting each through ``on_page_error``.
    Data ids in ``exclude`` are dropped as they surface and do not count
    toward ``k``, so the walk stops at the ``k`` nearest other objects.

    Neighbours come back as the ``k`` smallest by ``(distance, id)``:
    ties, even ones straddling ``k``, break on the data id, so every
    tree over the same rectangles gives the same answer.
    """
    if k < 1:
        raise GeometryError(f"k must be >= 1, got {k}")
    tree = searcher.tree
    q = np.asarray([float(c) for c in point], dtype=np.float64)
    if q.shape != (tree.ndim,):
        raise GeometryError(
            f"point has {q.shape[0]} dims, tree has {tree.ndim}"
        )

    results: list[tuple[int, float]] = []
    skipped = 0
    pushes = itertools.count()
    # Heap entries: (distance, kind, tie, payload, level); kind 0 = node,
    # 1 = object.  At equal distance nodes pop first, so when an object
    # pops every object as near is already queued; objects then tie on
    # their data id (tie == payload), nodes on push order.  ``level`` is
    # the level a node must sit at: one below its parent (None for the
    # root; unused for objects).
    heap: list[tuple[float, int, int, int, int | None]] = [
        (0.0, 0, next(pushes), tree.root_page, None)
    ]
    # The walk span nests the buffer's read/decode spans, so kNN reports
    # the same decode-vs-walk self-time split as region queries.
    with obs.span("query.knn"), obs.span("query.node_walk"):
        while heap and len(results) < k:
            dist, kind, _, payload, level = heapq.heappop(heap)
            if kind == 1:
                if exclude is None or payload not in exclude:
                    results.append((payload, dist))
                continue
            if check is not None:
                check()
            if quarantined is not None and payload in quarantined:
                skipped += 1
                continue
            try:
                node = searcher.buffer.get(payload)
                _check_node(payload, node, level, tree.ndim)
            except searcher.DEGRADED_ERRORS as exc:
                if not degraded:
                    raise
                skipped += 1
                if on_page_error is not None:
                    on_page_error(payload, exc)
                continue
            dists = _min_dists(node.rects.los, node.rects.his, q)
            child_kind = 1 if node.is_leaf else 0
            child_level = node.level - 1
            for d, child in zip(dists.tolist(), node.children.tolist()):
                tie = child if child_kind else next(pushes)
                heapq.heappush(heap, (d, child_kind, tie, child, child_level))
    return KnnResult(results, skipped > 0, skipped)
