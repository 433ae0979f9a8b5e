"""Query overlay: packed base ∪ delta layers − tombstones.

The serving contract of the ingest path in one line: a query answered
through the overlay returns **exactly** what a from-scratch packed
build of the current logical set would return.  The composition rule
is last-writer-wins by layer order: the packed base is layer 0, frozen
deltas (mid-merge snapshots) come next, and the live delta is last —
an id mentioned by a later layer (upserted *or* tombstoned) shadows
every earlier layer's answer for that id.

Window and point queries run the base search through the full serving
hook set (deadlines, quarantine, degraded reads) and add in each
layer's scanned hits, dropping shadowed ids.  kNN walks the base for
the ``k`` nearest ids no layer shadows (the walk skips shadowed ids as
they surface; those ``k`` hold every base id of the final answer),
brute-forces the small deltas with the same vectorized MINDIST the
paged walk uses, and merges by ``(distance, id)`` — the order the
paged kNN walk itself returns, so overlay kNN equals a rebuild even
under distance ties.

An overlay with no layers hands back the base walk's result untouched:
it is how read-only servers and pool workers answer through the same
executor as ingest servers (:mod:`repro.serve.query`).

Degradation composes honestly: ``partial`` / ``skipped_subtrees`` come
from the base walk (deltas are in-memory and never degrade), so a
partial overlay answer under-reports exactly like a partial base
answer — it never fabricates.
"""

from __future__ import annotations

import dataclasses
from typing import AbstractSet, Any, Sequence

import numpy as np

from ..core.geometry import Rect
from ..rtree.knn import KnnResult, knn_detailed
from ..rtree.paged import PagedSearcher, SearchResult
from .delta import DeltaTree

__all__ = ["OverlaySearcher"]


def _overridden_by(layers: Sequence[DeltaTree]) -> AbstractSet[int]:
    """The ids ``layers`` override, for membership tests only.

    One layer, the common case outside a merge, hands back its own set
    rather than a copy: a read and ``apply`` both hold the server's
    search lock, so the set cannot change under the read.  Only two or
    more layers need a union.
    """
    if not layers:
        return frozenset()
    if len(layers) == 1:
        return layers[0].overridden
    out: set[int] = set()
    for layer in layers:
        out |= layer.overridden
    return out


class OverlaySearcher:
    """Compose a packed-tree searcher with ordered delta layers.

    The query methods take the serving hooks of
    :meth:`~repro.rtree.paged.PagedSearcher.search_detailed`
    (``check``, ``quarantined``, ``degraded``, ``on_page_error``) and
    apply them to the base walk.
    """

    def __init__(self, searcher: PagedSearcher,
                 layers: Sequence[DeltaTree] = ()):
        self.searcher = searcher
        self.layers = tuple(layers)

    def _shadowed(self) -> AbstractSet[int]:
        """Ids overridden by any layer (hidden from the base answer)."""
        return _overridden_by(self.layers)

    def _shadowed_above(self, index: int) -> AbstractSet[int]:
        """Ids overridden by layers *after* ``index``."""
        return _overridden_by(self.layers[index + 1:])

    # -- window / point ----------------------------------------------------

    def search_detailed(self, query: Rect, **hooks: Any) -> SearchResult:
        """Window query over base ∪ layers − tombstones (ids unsorted)."""
        base = self.searcher.search_detailed(query, **hooks)
        if not self.layers:
            return base
        shadowed = self._shadowed()
        ids = [i for i in base.ids.tolist() if i not in shadowed]
        for index, layer in enumerate(self.layers):
            hidden = self._shadowed_above(index)
            ids.extend(i for i in layer.search(query) if i not in hidden)
        return dataclasses.replace(base, ids=np.array(ids, dtype=np.int64))

    # -- kNN ---------------------------------------------------------------

    def knn_detailed(self, point: Sequence[float], k: int,
                     **hooks: Any) -> KnnResult:
        """k nearest neighbours over the overlay, in ``(distance, id)``
        order — the answer a rebuilt packed tree gives."""
        if not self.layers:
            return knn_detailed(self.searcher, point, k, **hooks)
        base = knn_detailed(self.searcher, point, k,
                            exclude=self._shadowed(), **hooks)
        merged = [(dist, data_id) for data_id, dist in base.neighbours]
        for index, layer in enumerate(self.layers):
            hidden = self._shadowed_above(index)
            merged.extend((dist, data_id) for data_id, dist
                          in layer.knn_candidates(point, exclude=hidden))
        merged.sort()
        neighbours = [(data_id, dist) for dist, data_id in merged[:k]]
        return KnnResult(neighbours, base.partial, base.skipped_subtrees)
