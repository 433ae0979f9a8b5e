"""Wire protocol for the query server: newline-delimited JSON.

One request per line, one response per line, matched by ``id``.  The
format is deliberately boring — any language can speak it with a socket
and a JSON library — and every failure mode is a *typed* error code, so a
client can always tell "no answer yet" from "no answer ever" from "partial
answer":

Request::

    {"id": 7, "op": "search", "rect": [[0.1, 0.1], [0.4, 0.2]],
     "deadline_s": 0.25}

Response::

    {"id": 7, "ok": true, "op": "search", "ids": [3, 17], "partial": false,
     "unreachable_subtrees": 0, "elapsed_s": 0.0012}

Error response::

    {"id": 7, "ok": false, "op": "search", "error": "DeadlineExceeded",
     "message": "..."}

Operations: ``search`` (region query), ``point`` (point query), ``count``
(match count only), ``knn`` (``point`` + ``k``; ``ids`` come back in
``(distance, id)`` order — equal distances ascend by id — with a
parallel ``distances`` list),
``healthz`` / ``readyz`` / ``stats`` (health payloads in ``data``),
``ping``, and the admin op ``reload`` (``path`` names a freshly built
durable tree file; the server fsck-verifies it and swaps generations
atomically — rejections come back as the typed ``ReloadRejected`` error
and the old generation keeps serving).

Servers started with streaming ingest additionally accept the write ops
``insert`` (``data_id`` + ``rect``, last-writer-wins upsert) and
``delete`` (``data_id``), acked only after the op is fsync'd to the
write-ahead log — the success ``data`` carries the assigned ``lsn`` —
plus the admin op ``merge``, which drains the sealed WAL into a fresh
packed generation and cuts over with zero downtime.  When the un-merged
WAL exceeds its bound the server sheds writes with the typed
``IngestOverloaded`` error *before* logging anything (reads are never
shed); a failed merge comes back as ``MergeFailed`` with the old
generation still serving.

Window ops return ``ids`` in ascending order.  Every serving path
(in-process, ``--workers``, ``--ingest``) runs the same executor
(:mod:`repro.serve.query`), so a request gets the same response bytes,
``elapsed_s`` aside, whichever path answers it.  A pooled answer's
``ids`` are encoded once, in the worker, as :class:`EncodedIds`: the
JSON text of the list, which :func:`encode_response` splices into the
line unchanged.  The bytes are the ones the list would give, and
:func:`decode_response` returns a list either way.

``partial=true`` marks a degraded read: some subtrees were unreachable
(corrupt, quarantined, or behind an open circuit breaker) and were
skipped, so ``ids`` is a subset of the true answer — degraded responses
under-report, they never fabricate.  ``unreachable_subtrees`` counts
the skipped subtrees.

``WorkerLost`` is the multi-process pool's honesty error: the worker
executing the request died, the at-most-once re-dispatch was already
spent, and the server refuses to guess — the client retries or gives
up, but is never handed a silently wrong answer.
"""

from __future__ import annotations

import json
from typing import Any
from dataclasses import dataclass, fields

from ..core.geometry import GeometryError, Rect

__all__ = [
    "PROTOCOL_VERSION",
    "REQUEST_LINE_LIMIT",
    "RESPONSE_LINE_LIMIT",
    "QUERY_OPS",
    "WRITE_OPS",
    "OPS",
    "ServeError",
    "BadRequest",
    "DeadlineExceeded",
    "Overloaded",
    "IngestOverloaded",
    "StoreUnavailable",
    "ReloadRejected",
    "MergeFailed",
    "WorkerLost",
    "ERROR_TYPES",
    "Request",
    "Response",
    "EncodedIds",
    "encode_ids",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "check_data_id",
    "rect_from_wire",
    "rect_to_wire",
]

PROTOCOL_VERSION = 1

#: Longest request line, newline aside, a server reads.  Past it the
#: server answers one ``BadRequest`` and closes that connection.
REQUEST_LINE_LIMIT = 1 << 16
#: Longest response line, newline aside, a client reads: a whole-square
#: ``search`` on a large tree runs to megabytes.  Past it the client
#: raises :class:`ServeError` and drops that connection.
RESPONSE_LINE_LIMIT = 1 << 24

#: ``json.dumps`` separators of every line: no whitespace.
_SEPARATORS = (",", ":")

#: Operations that run a tree walk (deadline + admission controlled).
QUERY_OPS = ("search", "point", "count", "knn")
#: Write operations (ingest-enabled servers only; acked after WAL fsync).
WRITE_OPS = ("insert", "delete")
#: Administrative operations (no tree walk; ``reload`` swaps generations,
#: ``merge`` drains the WAL into a new generation).
ADMIN_OPS = ("healthz", "readyz", "stats", "ping", "reload", "merge")
#: All operations the server understands.
OPS = QUERY_OPS + WRITE_OPS + ADMIN_OPS


class ServeError(Exception):
    """Base of every typed serving error; ``code`` is the wire name."""

    code = "Internal"


class BadRequest(ServeError):
    """The request line could not be parsed or validated."""

    code = "BadRequest"


class DeadlineExceeded(ServeError):
    """The request's deadline passed before a result could be returned."""

    code = "DeadlineExceeded"


class Overloaded(ServeError):
    """Admission control shed the request instead of queueing it."""

    code = "Overloaded"


class IngestOverloaded(ServeError):
    """The un-merged write-ahead log reached its byte bound, so this
    write was shed *before anything was logged* — nothing was acked and
    nothing durable changed.  Run (or wait for) a merge and retry."""

    code = "IngestOverloaded"


class StoreUnavailable(ServeError):
    """The page store failed (I/O error, corruption, open breaker) and
    degraded reads were not allowed to absorb it."""

    code = "StoreUnavailable"


class ReloadRejected(ServeError):
    """A ``reload`` was refused — reloads are disabled, the candidate
    file is unreadable or fails fsck — and the serving generation is
    unchanged."""

    code = "ReloadRejected"


class MergeFailed(ServeError):
    """A ``merge`` admin op failed before its cutover committed.  The
    old generation keeps serving, the WAL keeps its sealed segments,
    and no acked write was lost — retrying the merge is always safe."""

    code = "MergeFailed"


class WorkerLost(ServeError):
    """The pool worker executing this request died (crash or hang) and
    the at-most-once re-dispatch budget was already spent.  The query
    ran zero or one complete times — never partially answered — so
    retrying is always safe for these read-only operations."""

    code = "WorkerLost"


#: Wire code -> exception class (for clients raising typed errors).
ERROR_TYPES: dict[str, type[ServeError]] = {
    cls.code: cls
    for cls in (ServeError, BadRequest, DeadlineExceeded, Overloaded,
                IngestOverloaded, StoreUnavailable, ReloadRejected,
                MergeFailed, WorkerLost)
}


def rect_to_wire(rect: Rect) -> list:
    """``Rect`` -> ``[[lo...], [hi...]]``."""
    return [list(map(float, rect.lo)), list(map(float, rect.hi))]


def rect_from_wire(value: Any) -> Rect:
    """``[[lo...], [hi...]]`` -> ``Rect`` (raises :class:`BadRequest`)."""
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(side, (list, tuple)) for side in value)
            or len(value[0]) != len(value[1]) or not value[0]):
        raise BadRequest(f"rect must be [[lo...], [hi...]], got {value!r}")
    try:
        return Rect(tuple(float(x) for x in value[0]),
                    tuple(float(x) for x in value[1]))
    except (TypeError, ValueError, GeometryError) as exc:
        raise BadRequest(f"malformed rect {value!r}: {exc}") from None


@dataclass
class Request:
    """One client request (see the module docstring for the wire form)."""

    op: str
    id: int = 0
    rect: list | None = None
    point: list | None = None
    #: Relative deadline budget in seconds; the server clamps it to its
    #: ``max_deadline_s`` and applies its default when omitted.
    deadline_s: float | None = None
    #: ``knn`` only: how many neighbours to return.
    k: int | None = None
    #: ``reload`` only: filesystem path of the candidate tree file.
    path: str | None = None
    #: ``insert``/``delete`` only: the record's unique integer id.
    data_id: int | None = None


class EncodedIds(str):
    """A response's ``ids`` as the JSON text :func:`encode_response`
    would write for the list (``"[3,17]"``).  A pool worker encodes its
    answer into one with :func:`encode_ids`, so no list of ints crosses
    its pipe and none is encoded on the server's event loop."""

    __slots__ = ()


def encode_ids(ids: list[int]) -> EncodedIds:
    """``ids`` as the text a response line carries for them."""
    return EncodedIds(json.dumps(ids, separators=_SEPARATORS))


@dataclass
class Response:
    """One server response; ``ok=False`` carries a typed ``error`` code."""

    id: int
    ok: bool
    op: str = ""
    ids: list[int] | EncodedIds | None = None
    #: ``knn`` only: distances parallel to ``ids`` (non-decreasing;
    #: equal distances list their ids in ascending order).
    distances: list[float] | None = None
    count: int | None = None
    partial: bool = False
    unreachable_subtrees: int = 0
    error: str | None = None
    message: str | None = None
    data: dict | None = None
    elapsed_s: float | None = None

    def raise_for_error(self) -> "Response":
        """Return self when ``ok``; raise the typed exception otherwise."""
        if self.ok:
            return self
        exc_type = ERROR_TYPES.get(self.error or "", ServeError)
        raise exc_type(self.message or self.error or "request failed")


#: Field names in declaration order, which is the order on the wire.
_REQUEST_FIELDS = tuple(f.name for f in fields(Request))
_RESPONSE_FIELDS = tuple(f.name for f in fields(Response))
_RESPONSE_FIELD_SET = frozenset(_RESPONSE_FIELDS)
#: The fields on either side of ``ids``, for splicing in EncodedIds.
_BEFORE_IDS = _RESPONSE_FIELDS[:_RESPONSE_FIELDS.index("ids")]
_AFTER_IDS = _RESPONSE_FIELDS[len(_BEFORE_IDS) + 1:]


def _payload(obj: Request | Response, names: tuple[str, ...]) -> dict:
    """``obj``'s non-``None`` fields, uncopied: a deep copy would copy
    every id of a window answer one by one, for ``json.dumps`` to read
    once."""
    return {name: value for name in names
            if (value := getattr(obj, name)) is not None}


def _encode(payload: dict) -> bytes:
    return (json.dumps(payload, separators=_SEPARATORS) + "\n").encode("utf-8")


def encode_request(req: Request) -> bytes:
    """Request -> one JSON line (``None`` fields omitted)."""
    return _encode(_payload(req, _REQUEST_FIELDS))


def decode_request(line: bytes | str) -> Request:
    """One JSON line -> validated Request (raises :class:`BadRequest`).

    A raisable :class:`BadRequest` keeps the offending request ``id`` in
    ``.request_id`` when one could be parsed, so the error response still
    correlates.
    """
    try:
        payload = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise _bad_request(f"request is not valid JSON: {exc}", 0) from None
    if not isinstance(payload, dict):
        raise _bad_request(f"request must be a JSON object, got "
                           f"{type(payload).__name__}", 0)
    req_id = payload.get("id", 0)
    if not isinstance(req_id, int) or isinstance(req_id, bool):
        raise _bad_request(f"id must be an integer, got {req_id!r}", 0)
    op = payload.get("op")
    if op not in OPS:
        raise _bad_request(f"unknown op {op!r}; expected one of {OPS}",
                           req_id)
    deadline_s = payload.get("deadline_s")
    if deadline_s is not None:
        if (not isinstance(deadline_s, (int, float))
                or isinstance(deadline_s, bool) or deadline_s <= 0):
            raise _bad_request(
                f"deadline_s must be a positive number, got {deadline_s!r}",
                req_id)
        deadline_s = float(deadline_s)
    k = payload.get("k")
    if k is not None:
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise _bad_request(f"k must be a positive integer, got {k!r}",
                               req_id)
    path = payload.get("path")
    if path is not None and not isinstance(path, str):
        raise _bad_request(f"path must be a string, got {path!r}", req_id)
    data_id = payload.get("data_id")
    if data_id is not None:
        check_data_id(data_id, req_id)
    unknown = set(payload) - {"id", "op", "rect", "point", "deadline_s",
                              "k", "path", "data_id"}
    if unknown:
        raise _bad_request(f"unknown request fields {sorted(unknown)}",
                           req_id)
    return Request(op=op, id=req_id, rect=payload.get("rect"),
                   point=payload.get("point"), deadline_s=deadline_s,
                   k=k, path=path, data_id=data_id)


def check_data_id(data_id: object, req_id: int = 0) -> int:
    """``data_id`` when it fits the int64 ids are stored as (the delta,
    the merged tree); :class:`BadRequest` otherwise, before a write
    could reach the WAL."""
    if (not isinstance(data_id, int) or isinstance(data_id, bool)
            or not -(1 << 63) <= data_id < 1 << 63):
        raise _bad_request(
            f"data_id must be a 64-bit signed integer, got {data_id!r}",
            req_id)
    return data_id


def _bad_request(message: str, req_id: int) -> BadRequest:
    exc = BadRequest(message)
    exc.request_id = req_id
    return exc


def encode_response(resp: Response) -> bytes:
    """Response -> one JSON line (``None`` fields omitted).

    :class:`EncodedIds` go in as written, between the fields encoded
    before and after them, which gives the line a list would."""
    if not isinstance(resp.ids, EncodedIds):
        return _encode(_payload(resp, _RESPONSE_FIELDS))
    members = (_members(resp, _BEFORE_IDS), '"ids":' + resp.ids,
               _members(resp, _AFTER_IDS))
    return ("{" + ",".join(m for m in members if m) + "}\n").encode("utf-8")


def _members(resp: Response, names: tuple[str, ...]) -> str:
    """``resp``'s non-``None`` fields among ``names`` as the members of
    a JSON object, without its braces."""
    return json.dumps(_payload(resp, names), separators=_SEPARATORS)[1:-1]


def decode_response(line: bytes | str) -> Response:
    """One JSON line -> Response (raises :class:`ServeError` on garbage)."""
    try:
        payload = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServeError(f"response is not valid JSON: {exc}") from None
    if (not isinstance(payload, dict) or "ok" not in payload
            or type(payload.get("id")) is not int):
        raise ServeError(f"malformed response line: {line!r}")
    return Response(**{k: v for k, v in payload.items()
                       if k in _RESPONSE_FIELD_SET})
