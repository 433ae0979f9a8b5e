"""The resilient query server.

:class:`QueryServer` serves region/point/count queries from a persisted
:class:`~repro.rtree.paged.PagedRTree` to many concurrent clients over
the newline-JSON protocol, and stays *honestly* available while the
store misbehaves:

* every request carries a :class:`~repro.serve.deadline.Deadline`
  propagated into the paged search loop (cooperative cancellation
  between node visits; no success is ever written after its deadline);
* transient page faults are absorbed by the store's
  :class:`~repro.storage.faults.RetryPolicy`, behind a per-store
  :class:`~repro.storage.breaker.CircuitBreaker` that trips on sustained
  failures and fast-fails reads while open;
* reads that still fail are served *degraded*: the unreachable subtree
  is skipped, the response is flagged ``partial=true`` with an
  ``unreachable_subtrees`` count — a subset of the truth, never a
  fabrication — and deterministically-corrupt pages join the runtime
  quarantine so they stop feeding the breaker;
* an :class:`~repro.serve.admission.AdmissionController` bounds
  in-flight work and sheds excess load with typed ``Overloaded`` errors;
* ``healthz``/``readyz``/``stats`` report breaker state,
  journal-recovery status, rolling latency percentiles and the active
  tree generation;
* when started with ``allow_reload=True``, the ``reload`` admin op
  cuts over to a freshly built tree file with zero downtime: the
  candidate is fsck-verified and opened while the old generation keeps
  answering, then swapped in under the search lock (which drains any
  in-flight walk); rejections are typed ``ReloadRejected`` errors and
  never disturb the serving generation.

* started with ``ingest=IngestState(...)``, the server accepts
  ``insert``/``delete`` writes: each is fsync'd to the write-ahead log
  *before* it is acked (the response carries the assigned LSN), then
  applied to the in-memory delta layer under the search lock, so
  read-your-writes holds immediately; queries answer over
  ``packed ∪ delta − tombstones`` via
  :class:`~repro.ingest.overlay.OverlaySearcher` — exactly what a
  from-scratch rebuild would answer.  A bounded WAL sheds writes with
  typed ``IngestOverloaded`` errors before logging anything, and the
  ``merge`` admin op seals the active segment, re-packs the sealed ops
  into a fresh generation in a forked child process (kill-resumable at
  every write boundary) that also fscks it, and cuts over through the
  same zero-downtime swap ``reload`` uses.  An ingest server has no
  worker pool: its workers could not see the delta.

* started with ``workers=N``, queries execute in a supervised pool of
  ``N`` crash-isolated worker *processes* (:mod:`repro.serve.pool`),
  each mmapping the generation file read-only and skipping the
  server's quarantine as the in-process walk does; a crashed or hung
  worker is restarted with backoff, its in-flight requests are
  re-dispatched at most once (typed ``WorkerLost`` after that), a
  flapping pool degrades to in-process serving instead of
  crash-looping, and ``reload`` starts a fresh pool on the new
  generation, then closes the old one, with zero downtime.

Every path — in-process, pooled, overlay — executes queries
through :mod:`repro.serve.query`, so all of them answer byte-for-byte
alike.

Concurrency model: asyncio handles sockets and admission; searches run
on a small thread pool under one lock (the shared file handle and
buffer pool are single-accessor) or on the worker-process pool, so
queueing, shedding and deadline expiry overlap real work.  A merge's
re-pack with the ``fsck`` of its generation, and a reload's ``fsck``,
each run in one forked child (:mod:`repro.serve.child`) that an
executor thread waits on without holding the GIL, so they never
compete with reads and writes for it.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter as TallyCounter
from concurrent.futures import ThreadPoolExecutor
from threading import Lock
from typing import TYPE_CHECKING, Callable, Iterable

from ..core.geometry import GeometryError, Rect
from ..ingest.overlay import OverlaySearcher
from ..ingest.state import IngestState
from ..ingest.wal import IngestError, WalOp
from ..obs import runtime as obs
from ..obs.slo import RollingWindow
from ..rtree.paged import PagedRTree
from ..storage.breaker import CircuitBreaker
from ..storage.integrity import IntegrityError
from ..storage.page import PageFormatError
from ..storage.store import StoreError
from .admission import AdmissionController
from .child import run_in_child
from .deadline import Deadline
from .health import healthz_payload, readyz_payload, stats_payload
from .pool import PoolUnavailable, TreeSpec, WorkerPool
from .query import execute, payload_for
from .protocol import (
    PROTOCOL_VERSION,
    QUERY_OPS,
    REQUEST_LINE_LIMIT,
    WRITE_OPS,
    BadRequest,
    IngestOverloaded,
    MergeFailed,
    ReloadRejected,
    Request,
    Response,
    ServeError,
    check_data_id,
    decode_request,
    encode_response,
    rect_from_wire,
)

if TYPE_CHECKING:
    from ..fsck import FsckReport

__all__ = ["QueryServer"]

#: Exceptions from the storage stack that map to the ``StoreUnavailable``
#: wire code when degraded reads could not absorb them.
_STORE_FAILURES = (StoreError, IntegrityError, PageFormatError, OSError)

#: Threads in the in-process search executor (tree walks still
#: serialize on the search lock).
SEARCH_THREADS = 2
#: Most recent requests the rolling latency percentiles cover.
LATENCY_WINDOW = 1024
#: Seed of the worker pool's restart-backoff jitter.
POOL_SEED = 0


def _merge_child(
        tree_path: str, serving: str | None
) -> tuple[str, int, dict, FsckReport | str] | None:
    """A served merge's child process: re-pack the sealed WAL, then
    fsck the generation to cut over to.

    Returns ``(generation path, drained segment seq, merge summary,
    fsck report)``, the report being the text of the exception that
    ended the check if one did, or ``None`` when there is nothing to
    cut over to.  With nothing new sealed, the committed pointer may
    still name a generation other than ``serving``: a cutover rejected
    after the pointer commit.  That generation already holds the
    drained ops, so its fsck and cutover are all that is left of its
    merge.  ``merge_segments`` and ``fsck`` are looked up at call
    time, so a wrapped one is the one that runs.
    """
    from ..fsck import fsck
    from ..ingest.merge import merge_segments, resolve_current

    merged = merge_segments(tree_path)
    if merged is not None:
        path, merged_seq = merged.path, merged.merged_seq
        merge = {"ops_applied": merged.ops_applied,
                 "segments": merged.segments_merged,
                 "merged_lsn": merged.merged_lsn}
    else:
        path, pointer = resolve_current(tree_path)
        if pointer is None or path == serving:
            return None
        merged_seq = pointer.merged_seq
        merge = {"ops_applied": 0, "segments": 0,
                 "merged_lsn": pointer.merged_lsn}
    report: FsckReport | str
    try:
        report = fsck(path)
    except Exception as exc:
        report = f"{type(exc).__name__}: {exc}"
    return path, merged_seq, merge, report


class QueryServer:
    """A multi-client asyncio query server over one paged R-tree."""

    def __init__(
        self,
        tree: PagedRTree,
        *,
        buffer_pages: int = 64,
        max_inflight: int = 8,
        max_queue: int = 16,
        default_deadline_s: float = 1.0,
        max_deadline_s: float = 30.0,
        breaker: CircuitBreaker | None = None,
        quarantine: Iterable[int] | None = None,
        degraded: bool = True,
        clock: Callable[[], float] = time.monotonic,
        allow_reload: bool = False,
        workers: int = 0,
        ingest: IngestState | None = None,
    ):
        if ingest is not None and workers > 0:
            raise ValueError(
                "an ingest server answers in-process: pool workers map "
                "the packed file and cannot see the delta, so ingest "
                "needs workers=0")
        self.tree = tree
        self.clock = clock
        self.default_deadline_s = default_deadline_s
        self.max_deadline_s = max_deadline_s
        self.degraded = degraded
        self.allow_reload = allow_reload
        self.buffer_pages = buffer_pages
        self.generation = 1
        self.generation_path = getattr(tree.store, "path", None)
        self.reloads_total = 0

        # One breaker guards the store the searcher reads through; reuse
        # the store's own if it already has one, otherwise attach ours.
        if breaker is None:
            breaker = getattr(tree.store, "breaker", None)
        if breaker is None:
            breaker = CircuitBreaker(clock=clock)
        if getattr(tree.store, "breaker", None) is not breaker:
            tree.store.breaker = breaker
        self.breaker = breaker

        self.searcher = tree.searcher(buffer_pages)
        self.admission = AdmissionController(max_inflight, max_queue)
        self.latency = RollingWindow(LATENCY_WINDOW)
        self.quarantine: set[int] = set(quarantine or ())
        self.quarantined_runtime = 0

        self.requests_total = 0
        self.partial_total = 0
        self.degraded_reads = 0
        self.error_counts: TallyCounter[str] = TallyCounter()
        self.session_count = 0
        self.started_at = clock()

        # The buffer pool and the store's file handle are single-accessor:
        # one lock serializes tree walks while asyncio keeps admission,
        # shedding and deadline expiry concurrent above them.
        self._search_lock = Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=SEARCH_THREADS, thread_name_prefix="repro-serve"
        )
        self._server: asyncio.AbstractServer | None = None
        self.address: tuple | None = None
        #: Accepted connections' writers and handler tasks (aclose ends
        #: them all); once closing, a handler that starts late returns.
        self._clients: dict[asyncio.StreamWriter,
                            asyncio.Task[object] | None] = {}
        self._closing = False

        # Streaming ingest (enabled with ingest=IngestState; see
        # repro.ingest).  Writes are serialized single-flight: one
        # asyncio lock orders WAL appends, so LSNs ack in order.  The
        # same lock orders every assignment of self.pool.
        self.ingest = ingest
        self._write_lock = asyncio.Lock()

        # Multi-process pool (enabled with workers >= 1; see serve.pool).
        # draining is set while a reload replaces the pool.
        self.workers = workers
        self.pool: WorkerPool | None = None
        self.pool_fallbacks = 0
        self.pool_start_error: str | None = None
        self.draining = False

    def stats_snapshot(self) -> dict:
        """The ``stats`` payload as a plain dict, callable off-protocol.

        Graceful shutdown files this into a run manifest so a serving
        session leaves the same lab-notebook trail as a benchmark run.
        """
        return stats_payload(self)

    # -- request handling --------------------------------------------------

    async def handle_request(self, req: Request) -> Response:
        """Execute one request, always returning a (possibly error)
        :class:`~repro.serve.protocol.Response`."""
        self.requests_total += 1
        obs.inc("serve.requests", op=req.op)
        try:
            if req.op == "ping":
                return Response(id=req.id, ok=True, op="ping",
                                data={"version": PROTOCOL_VERSION})
            if req.op == "healthz":
                return Response(id=req.id, ok=True, op="healthz",
                                data=healthz_payload(self))
            if req.op == "readyz":
                return Response(id=req.id, ok=True, op="readyz",
                                data=readyz_payload(self))
            if req.op == "stats":
                return Response(id=req.id, ok=True, op="stats",
                                data=stats_payload(self))
            if req.op == "reload":
                return await self._handle_reload(req)
            if req.op == "merge":
                return await self._handle_merge(req)
            if req.op in WRITE_OPS:
                return await self._handle_write(req)
            if req.op in QUERY_OPS:
                return await self._handle_query(req)
            raise BadRequest(f"unknown op {req.op!r}")
        except ServeError as exc:
            return self._error_response(req, exc.code, str(exc))
        except GeometryError as exc:
            return self._error_response(req, BadRequest.code, str(exc))
        except IngestError as exc:
            # The WAL refused or failed: nothing was acked, so report
            # the storage layer honestly rather than a generic 500.
            return self._error_response(
                req, "StoreUnavailable",
                f"{type(exc).__name__}: {exc}")
        except _STORE_FAILURES as exc:
            return self._error_response(
                req, "StoreUnavailable",
                f"{type(exc).__name__}: {exc}")

    async def _handle_query(self, req: Request) -> Response:
        start = self.clock()
        budget = (req.deadline_s if req.deadline_s is not None
                  else self.default_deadline_s)
        deadline = Deadline.after(min(budget, self.max_deadline_s),
                                  self.clock)
        payload = payload_for(req, self.tree.ndim, self.degraded)

        await self.admission.acquire()
        try:
            # Re-check after any queue wait: a request that expired while
            # queued must not start a tree walk.
            deadline.check("queued request")
            body = await self._dispatch_query(payload, deadline)
        finally:
            self.admission.release()
        for fault in body.pop("faults"):
            self.degraded_reads += 1
            obs.inc("serve.degraded_pages", fault=fault)

        # The walk finished, but if its deadline passed meanwhile the
        # client has already moved on — never respond after the deadline.
        deadline.check("completed request")

        elapsed = self.clock() - start
        self.latency.observe(elapsed)
        obs.observe("query.latency_s", elapsed)
        if body["partial"]:
            self.partial_total += 1
            obs.inc("serve.partial_responses")
        return Response(id=req.id, ok=True, op=req.op, elapsed_s=elapsed,
                        **body)

    async def _dispatch_query(self, payload: dict,
                              deadline: Deadline) -> dict:
        """Pool first when it is serving this generation; in-process
        otherwise — pool unavailability costs latency, never answers."""
        pool = self.pool
        if (pool is not None and pool.available
                and pool.generation == self.generation):
            dispatch = dict(payload,
                            budget_s=max(deadline.remaining(), 1e-3))
            try:
                return await pool.execute(dispatch, deadline)
            except PoolUnavailable:
                self.pool_fallbacks += 1
                obs.inc("serve.pool.fallbacks")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self._run_query_blocking, payload, deadline)

    # -- streaming ingest --------------------------------------------------

    async def _handle_write(self, req: Request) -> Response:
        """One durable write: shed → WAL fsync → delta apply → ack.

        The ack invariant: a success response exists *only after* the
        op's WAL record is fsync'd, and the response's ``lsn`` is the
        record's.  An error response means nothing durable changed
        (shedding happens before any append; an append that raises
        leaves at worst a torn tail the next open discards un-acked).
        """
        ingest = self.ingest
        if ingest is None:
            raise BadRequest(
                f"op {req.op!r} needs an ingest-enabled server (start "
                "it with --ingest)")
        if req.data_id is None:
            raise BadRequest(f"op {req.op!r} needs a data_id")
        data_id = check_data_id(req.data_id, req.id)
        rect: Rect | None = None
        if req.op == "insert":
            if req.rect is None:
                raise BadRequest("op 'insert' needs a rect "
                                 "[[lo...], [hi...]]")
            rect = rect_from_wire(req.rect)
            if rect.ndim != self.tree.ndim:
                raise BadRequest(
                    f"rect has {rect.ndim} dims, tree has "
                    f"{self.tree.ndim}")
        start = self.clock()
        async with self._write_lock:
            # Backpressure *before* the append: a shed write never
            # touches the log, so the error honestly means "not acked".
            if ingest.overloaded:
                ingest.writes_shed += 1
                obs.inc("ingest.writes_shed")
                raise IngestOverloaded(
                    f"write-ahead log holds {ingest.pending_bytes} "
                    f"unmerged bytes (bound {ingest.max_wal_bytes}); "
                    "merge before writing more")
            loop = asyncio.get_running_loop()
            walop = await loop.run_in_executor(
                self._executor, self._write_blocking, req.op, data_id,
                rect)
        elapsed = self.clock() - start
        obs.inc("ingest.writes", op=req.op)
        obs.observe("ingest.write_latency_s", elapsed)
        return Response(id=req.id, ok=True, op=req.op, elapsed_s=elapsed,
                        data={"lsn": walop.lsn,
                              "generation": self.generation})

    def _write_blocking(self, op: str, data_id: int,
                        rect: Rect | None) -> WalOp:
        """Append (fsync) then make visible; runs on the executor."""
        ingest = self.ingest
        assert ingest is not None
        walop = ingest.append(op, data_id, rect)
        # Visibility is a separate step under the search lock: readers
        # see each op atomically, and a crash between append and apply
        # is indistinguishable from a crash just after ack — replay
        # covers both.
        with self._search_lock:
            ingest.apply(walop)
        return walop

    async def _handle_merge(self, req: Request) -> Response:
        """Drain the sealed WAL into a new packed generation.

        Overlap-safe by construction: the seal happens under the write
        lock (no append races the segment roll) and the freeze under
        the search lock (no reader sees a half-frozen layer stack);
        the re-pack itself runs in a forked child, without any lock,
        while queries keep answering over ``base ∪ frozen ∪ live``;
        the same child fscks the new generation, and the cutover judges
        that report and swaps as a reload does.  A failure before the
        pointer commit (the child's exception, or the child dying
        under a signal) leaves the old generation serving and raises
        typed ``MergeFailed``; a cutover that fails after it (say
        ``ReloadRejected``) also keeps the old generation serving, with
        the frozen layers folded back so the next merge can run — and
        cut over to the committed generation even when nothing new was
        sealed.
        """
        ingest = self.ingest
        if ingest is None:
            raise MergeFailed("this server has no ingest state (start "
                              "it with --ingest)")
        loop = asyncio.get_running_loop()
        async with self._write_lock:
            # Checked under the write lock: two concurrent merge
            # requests that both read `merging == False` before
            # suspending would otherwise both begin_merge (RL009).
            if ingest.merging:
                raise MergeFailed("a merge is already in flight")
            await loop.run_in_executor(self._executor,
                                       self._begin_merge_blocking)
        try:
            cutover = await loop.run_in_executor(
                self._executor, self._merge_blocking)
        except Exception as exc:
            # Any failure before cutover (a typed IngestError, ENOSPC,
            # a bug) must unfreeze the layers, or every later merge
            # would answer "already in flight" until restart.
            with self._search_lock:
                ingest.abort_merge()
            raise MergeFailed(f"{type(exc).__name__}: {exc}") from None
        if cutover is None:
            with self._search_lock:
                ingest.abort_merge()
            return Response(id=req.id, ok=True, op="merge",
                            data={"merged": False,
                                  "generation": self.generation})
        try:
            data = await loop.run_in_executor(
                self._executor, self._cutover_blocking, *cutover)
        except Exception:
            with self._search_lock:
                ingest.abort_merge()
            raise
        return Response(id=req.id, ok=True, op="merge", data=data)

    def _begin_merge_blocking(self) -> None:
        ingest = self.ingest
        assert ingest is not None
        with self._search_lock:
            ingest.begin_merge()

    def _merge_blocking(
            self) -> tuple[str, int, dict, FsckReport | str] | None:
        """Drain the sealed WAL into a new generation; returns what to
        cut over to — ``(generation path, drained segment seq, merge
        summary, fsck report)`` — or ``None`` when there is nothing to
        do.  One forked child (:func:`_merge_child`) does the work, and
        the summary carries its memory (``child``).
        """
        ingest = self.ingest
        assert ingest is not None
        outcome, ingest.merge_child = run_in_child(
            "merge", _merge_child, ingest.tree_path, self.generation_path)
        if outcome is None:
            return None
        path, merged_seq, merge, report = outcome
        merge["child"] = ingest.merge_child
        return path, merged_seq, merge, report

    def _cutover_blocking(self, path: str, merged_seq: int, merge: dict,
                          report: FsckReport | str) -> dict:
        """Swap in the merged generation and drop the frozen layers.

        Reuses the reload swap (judge the fsck report, open, swap under
        the search lock); the frozen-layer drop happens under the same
        lock right after the swap, so no query ever sees the new base
        *without* the frozen deltas — between pointer-commit and this
        swap the frozen upserts merely shadow identical base entries,
        which is invisible.
        """
        ingest = self.ingest
        assert ingest is not None
        data = self._swap_in(path, report)
        with self._search_lock:
            ingest.finish_merge(merged_seq)
        data["merged"] = True
        data["merge"] = {**merge, "size": data["tree"]["size"]}
        return data

    # -- generation reload -------------------------------------------------

    async def _handle_reload(self, req: Request) -> Response:
        if not self.allow_reload:
            raise ReloadRejected(
                "reloads are disabled on this server (start it with "
                "allow_reload / --allow-reload)")
        if not req.path:
            raise BadRequest("op 'reload' needs a path to the new tree "
                             "file")
        loop = asyncio.get_running_loop()
        data = await loop.run_in_executor(
            self._executor, self._reload_blocking, req.path)
        if self.workers:
            data["pool"] = await self._replace_pool()
        return Response(id=req.id, ok=True, op="reload", data=data)

    async def _replace_pool(self) -> dict:
        """Start a pool on the generation just swapped in, then close
        the old pool, whose requests in flight finish first.

        Queries answer in-process until the new pool is published (the
        old one serves another generation), and ``readyz`` reports the
        drain.  Each generation gets a fresh pool and so a fresh flap
        circuit: a reload rejoins a degraded pool.  Under the write
        lock, which orders every assignment of ``self.pool``: a second
        reload or ``aclose`` waits for this one.
        """
        async with self._write_lock:
            old = self.pool
            new: WorkerPool | None = None
            self.draining = True
            try:
                if not self._closing:
                    new = await self._start_pool()
            finally:
                self.pool = new
                if old is not None:
                    await old.aclose()
                self.draining = False
        live = 0 if new is None else new.workers_live
        return {"remapped": live, "workers_live": live}

    def _reload_blocking(self, path: str) -> dict:
        """Verify the candidate in a forked ``fsck`` child, then hand
        the report to :meth:`_swap_in`.  Every failure raises
        :class:`ReloadRejected` with the old generation untouched.
        """
        from ..fsck import fsck as run_fsck

        report: FsckReport | str
        try:
            report, _ = run_in_child("fsck", run_fsck, path)
        except Exception as exc:
            report = f"{type(exc).__name__}: {exc}"
        return self._swap_in(path, report)

    def _swap_in(self, path: str, report: FsckReport | str) -> dict:
        """Judge ``path``'s fsck report (or the text of the exception
        that ended the check), then open it and swap generations
        atomically.

        Opening the store and priming the searcher happen *before* the
        swap, while the old generation keeps answering queries; the
        swap itself only reassigns references under the search lock,
        which by construction drains any in-flight tree walk first.
        Every failure raises :class:`ReloadRejected` with the old
        generation untouched.
        """
        from ..storage.mmap_store import MmapPageStore

        if isinstance(report, str):
            raise ReloadRejected(f"fsck of {path} failed: {report}")
        if report.bad_pages:
            raise ReloadRejected(
                f"fsck found {len(set(report.bad_pages))} bad page(s) "
                f"in {path}; refusing to cut over")
        if not report.clean:
            first = report.fatal or (report.structural_errors
                                     + report.wal_errors)[0]
            raise ReloadRejected(
                f"fsck found {report.error_count} error(s) in {path}, "
                f"first: {first}; refusing to cut over")
        store = None
        try:
            store = MmapPageStore.open_existing(path)
            tree = PagedRTree.from_store(store)
            searcher = tree.searcher(self.buffer_pages)
        except Exception as exc:
            # The candidate store must not outlive its rejection: a
            # leaked fd per failed reload adds up under a flapping
            # deployer, and the *next* attempt reopens the same file.
            if store is not None:
                try:
                    store.close()
                except _STORE_FAILURES:
                    obs.inc("serve.reload.close_errors")
            raise ReloadRejected(
                f"cannot open {path}: "
                f"{type(exc).__name__}: {exc}") from None
        # A new generation is a new device: it gets a fresh breaker and
        # an empty quarantine (old page ids mean nothing in this file).
        breaker = getattr(store, "breaker", None)
        if breaker is None:
            breaker = CircuitBreaker(clock=self.clock)
            store.breaker = breaker
        with self._search_lock:
            old_store = self.tree.store
            self.tree = tree
            self.searcher = searcher
            self.breaker = breaker
            self.quarantine = set()
            self.quarantined_runtime = 0
            self.generation += 1
            self.generation_path = path
            self.reloads_total += 1
        obs.inc("serve.reloads")
        if old_store is not store:
            try:
                old_store.close()
            except _STORE_FAILURES:  # pragma: no cover - best-effort release
                # The old generation is already unreachable; a failed
                # close only matters to operators, so count it rather
                # than let it abort an otherwise-committed reload.
                obs.inc("serve.reload.close_errors")
        return {
            "generation": self.generation,
            "path": path,
            "tree": {"size": len(tree), "height": tree.height,
                     "pages": tree.page_count},
            "fsck": {"clean": True},
        }

    def _run_query_blocking(self, payload: dict,
                            deadline: Deadline) -> dict:
        """In-process execution (no pool, or pool fallback).

        The overlay is composed fresh per query (a tuple of references —
        cheap), so with ingest enabled every acked write up to this
        instant is visible; without ingest it has no layers.  Pages the
        walk quarantines join the server's runtime quarantine."""
        with self._search_lock:
            layers = () if self.ingest is None else self.ingest.layers()
            known = len(self.quarantine)
            try:
                return execute(OverlaySearcher(self.searcher, layers),
                               payload, deadline.check, self.quarantine)
            finally:
                added = len(self.quarantine) - known
                if added:
                    self.quarantined_runtime += added
                    obs.inc("serve.quarantined_pages", added)

    def _error_response(self, req: Request, code: str,
                        message: str) -> Response:
        self.error_counts[code] += 1
        obs.inc("serve.errors", code=code)
        return Response(id=req.id, ok=False, op=req.op,
                        error=code, message=message)

    def _bad_line(self, req_id: int, message: str) -> Response:
        """``BadRequest`` for a line that never became a request."""
        resp = self._error_response(Request(op="", id=req_id),
                                    BadRequest.code, message)
        resp.op = None  # unknown; omitted on the wire
        return resp

    # -- socket layer ------------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> tuple:
        """Bind and start accepting clients; returns ``(host, port)``."""
        if self.workers:
            async with self._write_lock:
                self.pool = await self._start_pool()
        self._server = await asyncio.start_server(
            self._serve_client, host, port, limit=REQUEST_LINE_LIMIT
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def _start_pool(self) -> WorkerPool | None:
        """A started pool of ``workers`` processes on the serving
        generation, or ``None`` with the reason in ``pool_start_error``
        (serving then stays in-process — degraded latency, never down).
        The caller holds the write lock and publishes the result."""
        spec = TreeSpec.for_tree(self.tree,
                                 buffer_pages=self.buffer_pages,
                                 generation=self.generation,
                                 quarantine=frozenset(self.quarantine))
        if spec is None:
            self.pool_start_error = (
                "tree store is not a durable file-backed store; worker "
                "processes cannot re-open it — serving in-process")
            obs.inc("serve.pool.start_failures")
            return None
        pool = WorkerPool(spec, self.workers, seed=POOL_SEED)
        try:
            await pool.start()
        except PoolUnavailable as exc:
            self.pool_start_error = str(exc)
            obs.inc("serve.pool.start_failures")
            return None
        self.pool_start_error = None
        return pool

    async def serve_forever(self) -> None:
        """Block serving clients until cancelled (used by the CLI)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        if self._closing:  # accepted just before aclose took the clients
            writer.transport.abort()
            return
        self.session_count += 1
        self._clients[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The line overran REQUEST_LINE_LIMIT, and readline
                    # lost the stream's place in it, so the next request
                    # cannot be found: answer once and close.
                    writer.write(encode_response(self._bad_line(
                        0, f"request line exceeds {REQUEST_LINE_LIMIT} "
                           "bytes; closing the connection")))
                    await writer.drain()
                    break
                if not line or self._closing:
                    break  # EOF, or aclose dropped a line already read
                if not line.strip():
                    continue
                try:
                    req = decode_request(line)
                except BadRequest as exc:
                    resp = self._bad_line(getattr(exc, "request_id", 0),
                                          str(exc))
                else:
                    resp = await self.handle_request(req)
                writer.write(encode_response(resp))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self.session_count -= 1
            self._clients.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def aclose(self) -> None:
        """Stop accepting clients, close every accepted connection,
        release the search pools and, if a reload or merge cutover
        opened the serving generation's store, close that store.

        Each connection is aborted, so its unsent bytes are dropped and
        its handler ends even when the client has stopped reading; the
        handlers are awaited (a request already in flight finishes, its
        answer dropped) before the executor shuts down, so no request is
        dispatched to a closed executor.

        Swap-then-close: each reference is detached before it is
        closed, so a concurrent (or re-entrant) aclose never
        double-closes it; the pool is detached under the write lock, so
        a reload replacing it finishes first and its new pool is the
        one closed here.
        """
        self._closing = True
        server, self._server = self._server, None
        clients, self._clients = self._clients, {}
        if server is not None:
            server.close()
        for writer in clients:
            # Not close(): that waits for the send buffer to drain, and
            # a client that stopped reading would keep it full.
            writer.transport.abort()
        await asyncio.gather(*(task for task in clients.values()
                               if task is not None),
                             return_exceptions=True)
        if server is not None:
            await server.wait_closed()
        async with self._write_lock:
            pool, self.pool = self.pool, None
        if pool is not None:
            await pool.aclose()
        self._executor.shutdown(wait=True)
        if self.ingest is not None:
            self.ingest.close()
        if self.reloads_total:
            # A reload or merge cutover swapped in a store this server
            # opened; the tree it was constructed with is the caller's.
            self.tree.store.close()

    async def __aenter__(self) -> "QueryServer":
        if self._server is None:
            await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()
