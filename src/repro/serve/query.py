"""The query executor: one code path from request to response body.

Every way the server answers a query — in-process under the search
lock, on a pool worker, and over the ingest overlay — runs
:func:`execute` on an :class:`~repro.ingest.overlay.OverlaySearcher`
(one with no layers is the packed searcher itself), so all of them give
the same answer in the same shape:

* :func:`payload_for` validates a query
  :class:`~repro.serve.protocol.Request` into a plain (picklable)
  payload dict;
* :func:`execute` runs a payload and returns the response body —
  ``ids`` (ascending for window ops, ``(distance, id)`` order for
  ``knn``, absent for ``count``), ``distances`` (``knn`` only),
  ``count``, ``partial`` and ``unreachable_subtrees`` — plus
  ``faults``, the exception name of every page failure the walk
  absorbed, which the server pops for its counters.

Pool workers import this module across ``spawn``, so it holds no
module-global mutable state (lint rule RL006).
"""

from __future__ import annotations

from typing import Callable, MutableSet

import numpy as np

from ..core.geometry import Rect
from ..ingest.overlay import OverlaySearcher
from ..rtree.knn import KnnResult
from ..rtree.paged import SearchResult
from ..storage.integrity import IntegrityError
from ..storage.page import PageFormatError
from .protocol import BadRequest, Request, rect_from_wire, rect_to_wire

__all__ = ["QUARANTINABLE", "execute", "payload_for"]

#: Page failures that are the *page's* fault (vs. the device's): these
#: are deterministic, so the page joins the quarantine.
QUARANTINABLE = (IntegrityError, PageFormatError)


def payload_for(req: Request, ndim: int, degraded: bool) -> dict:
    """Validate a query request against an ``ndim``-dimensional tree
    into the payload :func:`execute` runs (raises ``BadRequest``)."""
    if req.op == "knn":
        coords = _point(req, ndim)
        if req.k is None:
            raise BadRequest("op 'knn' needs k >= 1")
        return {"op": "knn", "point": coords, "k": int(req.k),
                "degraded": degraded}
    if req.op == "point":
        rect = Rect.from_point(_point(req, ndim))
    elif req.rect is None:
        raise BadRequest(f"op {req.op!r} needs a rect [[lo...], [hi...]]")
    else:
        rect = rect_from_wire(req.rect)
        if rect.ndim != ndim:
            raise BadRequest(f"rect has {rect.ndim} dims, tree has {ndim}")
    return {"op": req.op, "rect": rect_to_wire(rect), "degraded": degraded}


def _point(req: Request, ndim: int) -> list[float]:
    point = req.point
    if not isinstance(point, (list, tuple)) or not point:
        raise BadRequest(
            f"op {req.op!r} needs a point [x, y, ...], got {point!r}")
    try:
        coords = [float(x) for x in point]
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"malformed point {point!r}: {exc}") from None
    if len(coords) != ndim:
        raise BadRequest(f"point has {len(coords)} dims, tree has {ndim}")
    return coords


def execute(searcher: OverlaySearcher, payload: dict,
            check: Callable[[], None], quarantine: MutableSet[int]) -> dict:
    """Run one payload through ``searcher``; returns the response body.

    ``check`` runs between node visits (the request deadline).  The walk
    skips every page in ``quarantine`` and, in degraded mode, adds each
    page that failed through its own fault (:data:`QUARANTINABLE`).  Ids
    are sorted and made Python ints here, on their way to the wire (the
    socket, or a worker's pipe, which carries them JSON-encoded);
    ``count`` never builds them.
    """
    faults: list[str] = []

    def absorb(page_id: int, exc: Exception) -> None:
        faults.append(type(exc).__name__)
        if isinstance(exc, QUARANTINABLE):
            quarantine.add(page_id)

    hooks = {"check": check, "quarantined": quarantine,
             "degraded": payload["degraded"], "on_page_error": absorb}
    found: KnnResult | SearchResult
    if payload["op"] == "knn":
        found = searcher.knn_detailed(payload["point"], payload["k"],
                                      **hooks)
        body: dict = {"ids": [i for i, _ in found.neighbours],
                      "distances": [d for _, d in found.neighbours],
                      "count": len(found.neighbours)}
    else:
        found = searcher.search_detailed(
            rect_from_wire(payload["rect"]), **hooks)
        body = {"count": len(found.ids)}
        if payload["op"] != "count":
            body["ids"] = np.sort(found.ids).tolist()
    body.update(partial=found.partial,
                unreachable_subtrees=found.skipped_subtrees, faults=faults)
    return body

