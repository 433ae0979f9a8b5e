"""Asyncio client for the query server's newline-JSON protocol.

A :class:`QueryClient` speaks one request/response pair at a time over
one connection (an internal lock serializes concurrent callers); open
several clients for parallel load, as the chaos tests do::

    async with await QueryClient.connect(host, port) as client:
        resp = await client.search(rect, deadline_s=0.25)
        if resp.ok:
            ids = resp.ids          # sorted; subset-of-truth if partial
        else:
            resp.raise_for_error()  # typed: DeadlineExceeded, Overloaded...

Pass ``reconnect=RetryPolicy(...)`` to survive server restarts: a
dropped connection is re-dialled with the policy's bounded, seeded
full-jitter backoff (the same :class:`~repro.storage.faults.RetryPolicy`
the storage layer uses, so a fleet of clients reconnecting to a
restarted server does not stampede it in lockstep), and the in-flight
request is retransmitted **once** — safe for every query op because they
are read-only, and safe for ``insert``/``delete`` because writes are
last-writer-wins upserts by unique id (re-sending one is idempotent).
A ``reload`` or ``merge`` is never auto-retried across a reconnect: the
cutover may already have committed, and re-sending it would advance the
generation twice.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Sequence

from ..core.geometry import Rect
from .protocol import (
    RESPONSE_LINE_LIMIT,
    Request,
    Response,
    ServeError,
    decode_response,
    encode_request,
    rect_to_wire,
)

if TYPE_CHECKING:
    from ..storage.faults import RetryPolicy

__all__ = ["QueryClient"]


class QueryClient:
    """One connection to a :class:`~repro.serve.server.QueryServer`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *,
                 host: str | None = None, port: int | None = None,
                 reconnect: "RetryPolicy | None" = None):
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()
        self._next_id = 0
        self._host = host
        self._port = port
        self._reconnect = reconnect
        #: Set when a response overran :data:`RESPONSE_LINE_LIMIT`: the
        #: reader lost its place in the stream, so the connection is
        #: closed and reads as dropped until a re-dial replaces it.
        self._dropped = False
        #: Successful re-dials since :meth:`connect`.
        self.reconnects_total = 0

    @classmethod
    async def connect(cls, host: str, port: int, *,
                      reconnect: "RetryPolicy | None" = None
                      ) -> "QueryClient":
        """Open a connection to a running server.

        ``reconnect`` enables transparent re-dial-and-retry on dropped
        connections (see the module docstring for its semantics).
        """
        reader, writer = await asyncio.open_connection(
            host, port, limit=RESPONSE_LINE_LIMIT)
        return cls(reader, writer, host=host, port=port,
                   reconnect=reconnect)

    async def request(self, req: Request) -> Response:
        """Send one request and await its matching response.

        Returns the :class:`~repro.serve.protocol.Response` whether or
        not it carries an error — call
        :meth:`~repro.serve.protocol.Response.raise_for_error` to turn
        typed wire errors back into exceptions.
        """
        async with self._lock:
            if req.id == 0:
                self._next_id += 1
                req.id = self._next_id
            line = await self._send_once(req)
            if not line and self._reconnect is not None:
                await self._redial()
                if req.op in ("reload", "merge"):
                    raise ServeError(
                        f"connection lost during {req.op!r}; reconnected "
                        "but not auto-retrying a generation cutover — "
                        "check the server's generation before re-sending")
                line = await self._send_once(req)
            if not line:
                raise ServeError("server closed the connection")
        resp = decode_response(line)
        if resp.id != req.id:
            raise ServeError(
                f"response id {resp.id} does not match request id {req.id}")
        return resp

    async def _send_once(self, req: Request) -> bytes:
        """One write + readline; a dead connection reads as ``b""``.

        A response line longer than :data:`RESPONSE_LINE_LIMIT` raises
        :class:`ServeError` and drops the connection."""
        if self._dropped:
            return b""
        line = encode_request(req)
        try:
            self._writer.write(line)
            await self._writer.drain()
            return await self._reader.readline()
        except (ConnectionResetError, BrokenPipeError, OSError):
            return b""
        except ValueError:  # readline overran the stream's limit
            self._dropped = True
            self._writer.close()
            raise ServeError(
                f"response line exceeds {RESPONSE_LINE_LIMIT} bytes; "
                "connection closed") from None

    async def _redial(self) -> None:
        """Reconnect with the policy's seeded full-jitter schedule."""
        policy = self._reconnect
        if policy is None or self._host is None or self._port is None:
            raise ServeError("server closed the connection")
        # The old connection is dead; release its transport before
        # replacing it, or the writer is collected unclosed.
        await self._close_writer()
        last_exc: OSError | None = None
        # Try immediately, then once per backoff delay in the schedule.
        attempts = [0.0]
        attempts.extend(policy.delays())
        for delay in attempts:
            if delay > 0:
                await asyncio.sleep(delay)
            try:
                self._reader, self._writer = await asyncio.open_connection(
                    self._host, self._port, limit=RESPONSE_LINE_LIMIT)
            except OSError as exc:
                last_exc = exc
                continue
            self._dropped = False
            self.reconnects_total += 1
            return
        raise ServeError(
            f"reconnect to {self._host}:{self._port} failed after "
            f"{len(attempts)} attempts: {last_exc}")

    # -- convenience wrappers ---------------------------------------------

    async def search(self, rect: Rect | Sequence,
                     deadline_s: float | None = None) -> Response:
        """Region query: ids of all rectangles intersecting ``rect``."""
        wire = rect_to_wire(rect) if isinstance(rect, Rect) else rect
        return await self.request(
            Request(op="search", rect=wire, deadline_s=deadline_s))

    async def point(self, point: Sequence[float],
                    deadline_s: float | None = None) -> Response:
        """Point query: ids of all rectangles containing ``point``."""
        return await self.request(
            Request(op="point", point=list(point), deadline_s=deadline_s))

    async def count(self, rect: Rect | Sequence,
                    deadline_s: float | None = None) -> Response:
        """Match count only (no id list on the wire)."""
        wire = rect_to_wire(rect) if isinstance(rect, Rect) else rect
        return await self.request(
            Request(op="count", rect=wire, deadline_s=deadline_s))

    async def knn(self, point: Sequence[float], k: int,
                  deadline_s: float | None = None) -> Response:
        """k nearest neighbours of ``point``: ``ids`` in non-decreasing
        distance order with a parallel ``distances`` list."""
        return await self.request(
            Request(op="knn", point=list(point), k=k,
                    deadline_s=deadline_s))

    async def insert(self, data_id: int, rect: Rect | Sequence,
                     deadline_s: float | None = None) -> Response:
        """Durably upsert ``data_id`` to ``rect`` (last-writer-wins).

        A success response means the write is fsync'd in the server's
        WAL and visible to every subsequent query; ``data["lsn"]`` is
        its log sequence number.  Typed ``IngestOverloaded`` means the
        write was shed *before* anything was logged."""
        wire = rect_to_wire(rect) if isinstance(rect, Rect) else rect
        return await self.request(
            Request(op="insert", data_id=int(data_id), rect=wire,
                    deadline_s=deadline_s))

    async def delete(self, data_id: int,
                     deadline_s: float | None = None) -> Response:
        """Durably delete ``data_id`` (idempotent; deleting an absent
        id still acks — the tombstone is what is durable)."""
        return await self.request(
            Request(op="delete", data_id=int(data_id),
                    deadline_s=deadline_s))

    async def merge(self) -> dict:
        """Drain the server's sealed WAL into a fresh packed generation
        and cut over (zero downtime).  Returns the merge/cutover info;
        typed ``MergeFailed`` when the re-pack failed with the old
        generation still serving."""
        resp = await self.request(Request(op="merge"))
        return resp.raise_for_error().data

    async def healthz(self) -> dict:
        """The server's liveness/operational snapshot."""
        resp = await self.request(Request(op="healthz"))
        return resp.raise_for_error().data

    async def readyz(self) -> dict:
        """The server's readiness payload (``ready`` may be false)."""
        resp = await self.request(Request(op="readyz"))
        return resp.raise_for_error().data

    async def stats(self) -> dict:
        """The full numeric stats dump."""
        resp = await self.request(Request(op="stats"))
        return resp.raise_for_error().data

    async def reload(self, path: str) -> dict:
        """Ask the server to cut over to the tree file at ``path``.

        Returns the new generation info; typed ``ReloadRejected`` when
        the server refuses (reloads disabled, file unreadable, fsck
        failed) — the old generation keeps serving in that case.
        """
        resp = await self.request(Request(op="reload", path=path))
        return resp.raise_for_error().data

    async def ping(self) -> dict:
        """Round-trip liveness check; returns the protocol version."""
        resp = await self.request(Request(op="ping"))
        return resp.raise_for_error().data

    async def aclose(self) -> None:
        """Close the connection."""
        await self._close_writer()

    async def _close_writer(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except OSError:  # a dead socket may reset or refuse the close
            pass

    async def __aenter__(self) -> "QueryClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()
