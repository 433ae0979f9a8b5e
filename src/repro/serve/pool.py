"""Supervised worker-process pool: crash-isolated query execution.

One wedged or segfaulting worker must never take the serving process —
or a correct answer — with it.  :class:`WorkerPool` runs queries in
``N`` child processes, each of which opens the *same* generation page
file read-only through :class:`~repro.storage.mmap_store.MmapPageStore`,
so the OS page cache holds one copy of every hot page no matter how many
workers serve it, and no worker can scribble on the tree no matter how
it dies.

The contract is the server's, extended across process boundaries: every
response is **exact**, **explicitly partial** (a subset of the truth,
flagged), or a **typed error** — never silently wrong.

* A worker death with requests in flight re-dispatches each of them to a
  live sibling **at most once**; a request that loses its worker twice
  fails with the typed :class:`~repro.serve.protocol.WorkerLost` (these
  are read-only queries, so the retry is always safe and never observed
  a partial execution).
* A request that exceeds its deadline plus a grace period on a worker is
  evidence the worker is *wedged* (healthy workers cancel cooperatively
  between node visits, well inside the grace): the supervisor kills the
  worker and the request fails ``DeadlineExceeded`` — late answers are
  never written.
* Dead workers restart under a seeded exponential
  :class:`~repro.serve.supervisor.RestartBackoff`; a
  :class:`~repro.serve.supervisor.FlapDetector` watching the death rate
  trips the pool into **degraded** mode instead of crash-looping, after
  which :meth:`WorkerPool.execute` raises :class:`PoolUnavailable` and
  the server falls back to in-process serving — slower, but correct and
  alive.
* A pool serves one generation file for its whole life.  A reload
  starts a fresh pool on the new file and then closes the old one
  (:meth:`WorkerPool.aclose` lets requests in flight finish first);
  the server answers in-process between the two, so clients never see
  the cutover, only the ``generation`` counter moving.
* Workers answer as the server would: each opens the generation's
  durable file from its superblock alone and skips the pages the
  server had quarantined when the pool started (a reload's fresh pool
  starts from the new generation's empty quarantine, as the server
  does).  A worker exits the moment its server dies
  (:func:`~repro.serve.child.exit_with_parent`), so a ``kill -9`` of
  the server leaves no worker holding the mapped file.
* A pool that cannot fork its workers stops those it started and
  raises :class:`PoolUnavailable`, so the server serves in-process; a
  restart whose fork fails counts as one more death and is retried
  after backoff.

Workers answer through the same executor as the in-process server
(:func:`repro.serve.query.execute` on an
:class:`~repro.ingest.overlay.OverlaySearcher` with no layers), so a
pooled answer is byte-for-byte the in-process one.  Everything a child
process touches lives at module top level (:func:`worker_main`,
:class:`TreeSpec`) and is picklable, so the pool works identically
under ``fork`` and ``spawn`` start methods.

The transport is two one-way pipes per worker and starts no threads.
Requests go down one with a blocking ``Connection.send``.  Answers come
back on the other as length-prefixed pickle frames (:func:`_send`,
:class:`_FrameReader`), ids already JSON-encoded
(:class:`~repro.serve.protocol.EncodedIds`).  The frontend's end of
that pipe is non-blocking and read by the event loop itself
(``loop.add_reader``), so an answer resolves its request's future in
the callback that reads it, and a worker stopped mid-frame cannot
block the loop.  EOF on the pipe is the crash signal; the loop then
watches the process sentinel and handles the exit once it fires.  Each
request awaits its own future under one timer at deadline plus grace.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import pickle
import struct
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..core.geometry import GeometryError
from ..ingest.overlay import OverlaySearcher
from ..obs import runtime as obs
from ..storage.store import StoreError
from .deadline import Deadline
from .protocol import (
    ERROR_TYPES,
    BadRequest,
    DeadlineExceeded,
    ServeError,
    WorkerLost,
    encode_ids,
)
from . import query
from .child import exit_with_parent
from .supervisor import FlapDetector, RestartBackoff, WorkerState

__all__ = ["TreeSpec", "WorkerPool", "PoolUnavailable", "worker_main"]

#: Seconds a worker must stay ready before its restart backoff resets;
#: one that dies sooner restarts after a longer backoff.
PROBATION_S = 2.0
#: Seconds :meth:`WorkerPool.start` waits for workers to report ready.
START_TIMEOUT_S = 15.0


class PoolUnavailable(Exception):
    """The pool cannot take this request (not started, closing,
    flap-tripped into degraded mode, or no live workers).

    Deliberately *not* a :class:`~repro.serve.protocol.ServeError`: it
    never reaches the wire.  The server catches it and serves the
    request in-process instead — pool unavailability degrades latency,
    not correctness or availability.
    """


# -- result frames --------------------------------------------------------

#: A result-pipe frame: the pickled message's length, then the pickle.
_FRAME = struct.Struct("!Q")
#: Most bytes the frontend takes off a result pipe per read: a pipe's
#: default buffer.
_READ_SIZE = 1 << 16


def _frame(msg: tuple) -> bytes:
    """``msg`` as one frame of a result pipe."""
    data = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME.pack(len(data)) + data


def _send(fd: int, msg: tuple) -> None:
    """Write ``msg`` as one frame to the worker's (blocking) result
    pipe; a write the pipe takes in part is finished in a loop."""
    view = memoryview(_frame(msg))
    while view:
        view = view[os.write(fd, view):]


class _FrameReader:
    """Reads frames back off a result pipe: :meth:`feed` takes the bytes
    of one read and returns the messages they complete, in order; a
    frame split across reads waits here for the rest."""

    __slots__ = ("_pending",)

    def __init__(self) -> None:
        self._pending = bytearray()

    def feed(self, data: bytes) -> list[tuple]:
        """Append ``data``; return every message now complete."""
        buf = self._pending
        buf += data
        messages: list[tuple] = []
        start = 0
        while len(buf) - start >= _FRAME.size:
            (size,) = _FRAME.unpack_from(buf, start)
            end = start + _FRAME.size + size
            if end > len(buf):
                break
            messages.append(pickle.loads(buf[start + _FRAME.size:end]))
            start = end
        del buf[:start]
        return messages


# -- worker-side ----------------------------------------------------------


@dataclass(frozen=True)
class TreeSpec:
    """Everything a worker process needs to serve one tree generation.

    Plain data (picklable under ``spawn``): the durable file's path,
    whose superblock describes the tree, and the server's quarantine
    when the pool started, which every worker of the pool skips.
    """

    path: str
    buffer_pages: int
    generation: int
    quarantine: frozenset[int]

    @classmethod
    def for_tree(cls, tree: Any, *, buffer_pages: int, generation: int,
                 quarantine: frozenset[int] = frozenset()
                 ) -> "TreeSpec | None":
        """Build a spec for a live server tree, or ``None`` unless a
        durable file backs it: a worker opens its generation by path,
        from the superblock alone, which memory, striped and plain page
        stores do not have."""
        path = getattr(tree.store, "path", None)
        if path is None or getattr(tree.store, "tree_meta", None) is None:
            return None
        return cls(path=str(path), buffer_pages=buffer_pages,
                   generation=generation, quarantine=quarantine)


def _open_spec(spec: TreeSpec) -> tuple[OverlaySearcher, Any]:
    """(searcher, store) for one generation, opened read-only via mmap;
    the searcher is an overlay with no layers, as the executor takes."""
    from ..rtree.paged import PagedRTree
    from ..storage.mmap_store import MmapPageStore

    store = MmapPageStore(spec.path)
    tree = PagedRTree.from_store(store)
    return OverlaySearcher(tree.searcher(spec.buffer_pages)), store


def worker_main(requests: Any, results: Any, spec: TreeSpec) -> None:
    """Child-process entry point: serve query messages until told to stop.

    Protocol: tuples on two one-way pipes.  ``requests`` carries what
    the frontend sends with ``Connection.send``; ``results`` carries one
    frame per answer (:func:`_send`: an 8-byte big-endian length, then
    the pickled tuple), which the frontend reads on its event loop::

        requests -> ("search", req_id, payload) | ("stop",)
        results  -> ("ready", pid, generation)
                  | ("result", req_id, result) | ("error", req_id, code, msg)

    A result's ``ids`` are encoded here, once, as
    :class:`~repro.serve.protocol.EncodedIds`.  A query failure answers
    a typed error and the worker lives on; only a genuine crash (signal,
    unhandled corruption of the process itself) drops the result pipe,
    which is exactly the signal the supervisor watches.

    The worker skips the pages of ``spec.quarantine`` (and those its own
    degraded walks quarantine), as the server's in-process walk does.
    It exits the moment its server does: under ``fork`` it holds the
    write end of its own request pipe, so ``recv`` alone would never
    see EOF.
    """
    exit_with_parent()
    searcher, store = _open_spec(spec)
    quarantine = set(spec.quarantine)
    out = results.fileno()
    _send(out, ("ready", os.getpid(), spec.generation))
    try:
        while True:
            try:
                msg = requests.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            req_id, payload = msg[1], msg[2]
            try:
                deadline = Deadline.after(float(payload["budget_s"]))
                result = query.execute(searcher, payload,
                                       deadline.check, quarantine)
            except ServeError as exc:
                _send(out, ("error", req_id, exc.code, str(exc)))
            except GeometryError as exc:
                _send(out, ("error", req_id, BadRequest.code, str(exc)))
            except Exception as exc:
                # Absorb per-request failures as typed errors so one
                # malformed request cannot kill a healthy worker.
                _send(out, ("error", req_id, "StoreUnavailable",
                            f"{type(exc).__name__}: {exc}"))
            else:
                if "ids" in result:
                    result["ids"] = encode_ids(result["ids"])
                _send(out, ("result", req_id, result))
    finally:
        try:
            store.close()
        except (StoreError, OSError):
            pass  # process is exiting anyway
        requests.close()
        results.close()


# -- parent-side ----------------------------------------------------------


class _Inflight:
    """One dispatched request, from send until its future resolves."""

    __slots__ = ("req_id", "payload", "future", "worker", "attempts")

    def __init__(self, req_id: int, payload: dict,
                 future: "asyncio.Future[dict]", worker: int) -> None:
        self.req_id = req_id
        self.payload = payload
        self.future = future
        self.worker = worker
        self.attempts = 0


class _Worker:
    """Parent-side bookkeeping for one child process: ``requests`` is
    the write end of its request pipe, ``results`` the non-blocking read
    end of its result pipe (``None`` once it reached EOF)."""

    __slots__ = ("index", "proc", "requests", "results", "frames", "state",
                 "generation", "backoff", "pid", "restarts")

    def __init__(self, index: int, backoff: RestartBackoff) -> None:
        self.index = index
        self.proc: Any = None
        self.requests: Any = None
        self.results: Any = None
        self.frames = _FrameReader()
        self.state = WorkerState.STOPPED
        self.generation = 0
        self.backoff = backoff
        self.pid: int | None = None
        self.restarts = 0

    @property
    def live(self) -> bool:
        return self.state == WorkerState.READY


class WorkerPool:
    """Supervised pool of crash-isolated query worker processes."""

    def __init__(
        self,
        spec: TreeSpec,
        size: int,
        *,
        grace_s: float = 1.0,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        flap_threshold: int = 6,
        flap_window_s: float = 30.0,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.spec = spec
        self.size = size
        self.grace_s = grace_s
        self.clock = clock
        self.flap = FlapDetector(flap_threshold, flap_window_s)
        self._workers = [
            _Worker(i, RestartBackoff(backoff_base_s, 2.0, backoff_max_s,
                                      seed=seed + i))
            for i in range(size)
        ]
        self._inflight: dict[int, _Inflight] = {}
        self._req_ids: Iterator[int] = itertools.count(1)
        self._rr = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        self._started = False
        self._closing = False
        self.restarts_total = 0
        self.requeues_total = 0
        self.worker_lost_total = 0
        self.hung_kills_total = 0
        self.last_restart_reason: str | None = None
        self._state_waiters: list[asyncio.Future[None]] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> int:
        """Spawn all workers; returns how many became ready in time.

        Workers that miss the start timeout are left to the supervisor
        (they either turn up late or die and restart).  A pool where
        *none* come up, or whose workers die fast enough to trip the
        flap circuit, raises :class:`PoolUnavailable` so the caller can
        fall back to in-process serving with a clear reason; a tripped
        circuit ends the wait at once, since no worker will follow.  So
        does a pool that cannot start its workers at all (``fork``
        failing with ``EAGAIN``, say), after it has stopped those it
        did start.
        """
        self._loop = asyncio.get_running_loop()
        self._started = True
        try:
            for worker in self._workers:
                self._spawn(worker)
        except Exception as exc:
            await self.aclose()
            raise PoolUnavailable(f"cannot start worker processes: "
                                  f"{type(exc).__name__}: {exc}") from exc
        deadline = Deadline.after(START_TIMEOUT_S, self.clock)
        while not deadline.expired() and not self.flap.tripped:
            if self.workers_live == self.size:
                break
            await self._state_changed(deadline.remaining())
        live = self.workers_live
        if self.flap.tripped or live == 0:
            reason = (f"workers flapped while starting: "
                      f"{self.last_restart_reason}" if self.flap.tripped
                      else f"no worker became ready within "
                           f"{START_TIMEOUT_S}s")
            await self.aclose()
            raise PoolUnavailable(reason)
        self._set_gauges()
        return live

    def _spawn(self, worker: _Worker) -> None:
        loop = asyncio.get_running_loop()
        # One-way pipes: O_NONBLOCK on a duplex socket's end would make
        # its sends non-blocking too.  Every end opened so far closes if
        # a pipe or the fork fails (EMFILE, EAGAIN); the child's two
        # ends close once it is forked.
        ends: list[Any] = []
        try:
            ends += self._ctx.Pipe(duplex=False)
            ends += self._ctx.Pipe(duplex=False)
            requests_in, requests, results, results_out = ends
            proc = self._ctx.Process(
                target=worker_main,
                args=(requests_in, results_out, self.spec),
                name=f"repro-serve-worker-{worker.index}", daemon=True)
            proc.start()
        except BaseException:
            for end in ends:
                end.close()
            raise
        requests_in.close()
        results_out.close()
        os.set_blocking(results.fileno(), False)
        worker.proc = proc
        worker.requests = requests
        worker.results = results
        worker.frames = _FrameReader()
        worker.state = WorkerState.STARTING
        worker.generation = 0
        worker.pid = proc.pid
        loop.add_reader(results.fileno(), self._on_readable, worker)

    def _on_readable(self, worker: _Worker) -> None:
        """Loop callback: take what the result pipe holds and hand each
        whole message to :meth:`_on_message`.  On EOF, stop reading and
        wait for the process to exit."""
        try:
            data = os.read(worker.results.fileno(), _READ_SIZE)
        except BlockingIOError:
            return  # nothing to read after all
        except OSError:
            data = b""
        if data:
            for msg in worker.frames.feed(data):
                self._on_message(worker.index, msg)
            return
        self._close_results(worker)
        proc = worker.proc
        asyncio.get_running_loop().add_reader(
            proc.sentinel, self._on_sentinel, worker.index, proc)

    def _on_sentinel(self, index: int, proc: Any) -> None:
        """Loop callback: the process's sentinel fired, so it has exited."""
        asyncio.get_running_loop().remove_reader(proc.sentinel)
        # Only reaps: the sentinel is readable, so the process is past
        # closing its files and the wait ends as soon as it is a zombie.
        proc.join(timeout=1.0)
        self._on_worker_exit(index, proc)

    def _close_results(self, worker: _Worker) -> None:
        results, worker.results = worker.results, None
        if results is not None:
            asyncio.get_running_loop().remove_reader(results.fileno())
            results.close()

    async def aclose(self) -> None:
        """Take no new requests, let those in flight finish, then stop
        every worker.

        The wait is bounded: each request in flight ends by its answer,
        its deadline-plus-grace timer, or its worker's death (which
        still re-dispatches it at most once).
        """
        if self._closing:
            return
        self._closing = True
        pending = [rec.future for rec in self._inflight.values()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for worker in self._workers:
            if worker.requests is not None:
                try:
                    worker.requests.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass  # already dead is fine here
        # Exits arrive through the loop (EOF, then the sentinel); a
        # worker that has not stopped after 2 s is killed.
        await self._exits(2.0)
        for worker in self._running():
            worker.proc.kill()
        await self._exits(2.0)
        loop = asyncio.get_running_loop()
        for worker in self._workers:
            self._close_results(worker)
            if worker.proc is not None:
                loop.remove_reader(worker.proc.sentinel)
            if worker.requests is not None:
                worker.requests.close()
                worker.requests = None
            worker.state = WorkerState.STOPPED
        self._wake_state_waiters()
        self._set_gauges()

    def _running(self) -> list[_Worker]:
        """Workers whose process has not been seen to exit."""
        return [w for w in self._workers
                if w.state in (WorkerState.STARTING, WorkerState.READY,
                               WorkerState.KILLED)]

    async def _exits(self, timeout: float) -> None:
        """Wait up to ``timeout`` s for every running worker to exit."""
        wait = Deadline.after(timeout, self.clock)
        while self._running() and not wait.expired():
            await self._state_changed(wait.remaining())

    # -- supervision -------------------------------------------------------

    def _on_message(self, index: int, msg: tuple) -> None:
        worker = self._workers[index]
        kind = msg[0]
        if kind == "ready":
            worker.state = WorkerState.READY
            worker.generation = int(msg[2])
            self._wake_state_waiters()
            self._set_gauges()
            if self._loop is not None:
                pid = worker.pid
                self._loop.call_later(PROBATION_S,
                                      self._end_probation, index, pid)
            return
        if kind == "result" or kind == "error":
            rec = self._inflight.pop(int(msg[1]), None)
            if rec is None or rec.future.done():
                return  # late answer for a timed-out request: drop it
            if kind == "result":
                rec.future.set_result(msg[2])
            else:
                exc_type = ERROR_TYPES.get(msg[2], ServeError)
                rec.future.set_exception(exc_type(msg[3]))
            return

    def _end_probation(self, index: int, pid: int | None) -> None:
        worker = self._workers[index]
        if worker.live and worker.pid == pid:
            worker.backoff.reset()

    def _on_worker_exit(self, index: int, proc: Any) -> None:
        """The result pipe reached EOF and the process has exited."""
        worker = self._workers[index]
        if worker.proc is not proc:
            return  # stale event from a previous incarnation
        worker.state = WorkerState.STOPPED
        if worker.requests is not None:
            worker.requests.close()
            worker.requests = None
        exitcode = proc.exitcode
        self._wake_state_waiters()
        if self._closing:
            # Closing: no restart, but a request still in flight (aclose
            # waits for those) goes to a sibling as it would otherwise.
            self._redispatch_from(index)
            self._set_gauges()
            return
        obs.inc("serve.pool.worker_deaths")
        self.last_restart_reason = (
            f"worker {index} (pid {worker.pid}) exited with code "
            f"{exitcode}")
        self._redispatch_from(index)
        self._schedule_restart(worker, proc)

    def _schedule_restart(self, worker: _Worker, proc: Any) -> None:
        """Count a death toward the flap circuit, then degrade or
        restart the worker after its backoff."""
        now = self.clock()
        if self.flap.record(now):
            self._degrade(now)
            return
        worker.state = WorkerState.RESTARTING
        delay = worker.backoff.next_delay()
        if self._loop is not None:
            self._loop.call_later(delay, self._restart, worker.index, proc)
        self._set_gauges()

    def _restart(self, index: int, old_proc: Any) -> None:
        worker = self._workers[index]
        if self._closing or self.flap.tripped:
            return
        if worker.proc is not old_proc:
            return  # already respawned
        worker.restarts += 1
        self.restarts_total += 1
        obs.inc("serve.pool.restarts")
        try:
            self._spawn(worker)
        except OSError as exc:
            # A failed fork is one more death: retry after backoff, or
            # trip the circuit, rather than fail in a loop callback.
            self.last_restart_reason = (
                f"worker {index} could not be restarted: "
                f"{type(exc).__name__}: {exc}")
            self._schedule_restart(worker, old_proc)

    def _redispatch_from(self, index: int) -> None:
        """At-most-once re-dispatch of a dead worker's in-flight work."""
        lost = [rec for rec in self._inflight.values()
                if rec.worker == index]
        for rec in lost:
            if rec.future.done():
                self._inflight.pop(rec.req_id, None)
                continue
            target = self._pick() if rec.attempts == 0 else None
            if target is None:
                self._inflight.pop(rec.req_id, None)
                if rec.attempts > 0:
                    self.worker_lost_total += 1
                    obs.inc("serve.pool.worker_lost")
                    rec.future.set_exception(WorkerLost(
                        f"worker died executing request {rec.req_id} "
                        f"after one re-dispatch; not retrying again"))
                else:
                    rec.future.set_exception(PoolUnavailable(
                        "worker died and no live sibling can take the "
                        "request"))
                continue
            rec.attempts += 1
            rec.worker = target.index
            self.requeues_total += 1
            obs.inc("serve.pool.requeues")
            try:
                target.requests.send(("search", rec.req_id, rec.payload))
            except (OSError, BrokenPipeError):
                # The sibling is dying too; its own exit event will
                # finish the job (and the attempt budget is now spent).
                continue

    def _degrade(self, now: float) -> None:
        """Flap circuit tripped: stop restarting, fall back in-process."""
        obs.inc("serve.pool.degraded")
        self.last_restart_reason = (
            f"{self.flap.in_window(now)} worker deaths in "
            f"{self.flap.window_s}s — pool degraded to in-process serving")
        for rec in list(self._inflight.values()):
            if not rec.future.done():
                rec.future.set_exception(
                    PoolUnavailable("pool degraded (flapping workers)"))
        self._inflight.clear()
        for worker in self._workers:
            if worker.requests is not None and worker.live:
                try:
                    worker.requests.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass  # dying anyway
        self._set_gauges()

    # -- dispatch ----------------------------------------------------------

    @property
    def workers_live(self) -> int:
        return sum(1 for w in self._workers if w.live)

    @property
    def degraded(self) -> bool:
        return self.flap.tripped

    @property
    def generation(self) -> int:
        return self.spec.generation

    @property
    def available(self) -> bool:
        return (self._started and not self._closing
                and not self.flap.tripped and self.workers_live > 0)

    def _pick(self) -> _Worker | None:
        """Next live worker, round-robin; ``None`` when none is live."""
        for offset in range(len(self._workers)):
            worker = self._workers[(self._rr + offset)
                                   % len(self._workers)]
            if worker.live:
                self._rr = (self._rr + offset + 1) % len(self._workers)
                return worker
        return None

    async def execute(self, payload: dict, deadline: Deadline) -> dict:
        """Run one query payload on a worker; the full crash contract.

        Returns the worker's result dict, or raises a typed
        :class:`~repro.serve.protocol.ServeError`
        (``DeadlineExceeded`` / ``WorkerLost`` / ...) or
        :class:`PoolUnavailable` when the pool cannot serve at all.
        """
        if not self.available:
            raise PoolUnavailable(self._unavailable_reason())
        worker = self._pick()
        if worker is None:
            raise PoolUnavailable("no live workers")
        if self._loop is None:
            raise PoolUnavailable("pool not started")
        req_id = next(self._req_ids)
        future: "asyncio.Future[dict]" = self._loop.create_future()
        rec = _Inflight(req_id, payload, future, worker.index)
        self._inflight[req_id] = rec
        try:
            worker.requests.send(("search", req_id, payload))
        except (OSError, BrokenPipeError):
            # Death raced the dispatch; the exit handler re-dispatches.
            pass
        timer = self._loop.call_later(
            max(deadline.remaining(), 0.0) + self.grace_s, self._expire, rec)
        try:
            return await future
        finally:
            timer.cancel()

    def _expire(self, rec: _Inflight) -> None:
        """Loop timer at deadline plus grace.  A healthy worker answers
        ``DeadlineExceeded`` itself well inside the grace; silence past
        it means the worker is wedged.  Fail the request and kill the
        worker — its other in-flight requests get the at-most-once
        re-dispatch."""
        if rec.future.done():
            return
        self._inflight.pop(rec.req_id, None)
        rec.future.set_exception(DeadlineExceeded(
            f"request deadline exceeded and worker silent for "
            f"{self.grace_s}s grace (worker killed)"))
        self._kill_hung(rec.worker)

    def _unavailable_reason(self) -> str:
        if not self._started or self._closing:
            return "pool is not running"
        if self.flap.tripped:
            return "pool degraded after flapping workers"
        return "no live workers"

    def _kill_hung(self, index: int) -> None:
        worker = self._workers[index]
        proc = worker.proc
        if proc is None or not proc.is_alive():
            return
        self.hung_kills_total += 1
        obs.inc("serve.pool.hung_kills")
        self.last_restart_reason = (
            f"worker {index} (pid {worker.pid}) killed: unresponsive "
            f"past deadline grace")
        proc.kill()  # the result pipe reaches EOF -> normal death path
        # Out of _pick's rotation now, not when the exit is handled: a
        # request sent in between would go to a dead process.
        worker.state = WorkerState.KILLED
        self._set_gauges()

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict:
        """Health-payload view of the pool (JSON-able)."""
        return {
            "workers_total": self.size,
            "workers_live": self.workers_live,
            "degraded": self.degraded,
            "generation": self.generation,
            "restarts_total": self.restarts_total,
            "requeues_total": self.requeues_total,
            "worker_lost_total": self.worker_lost_total,
            "hung_kills_total": self.hung_kills_total,
            "deaths_in_window": self.flap.in_window(self.clock()),
            "last_restart_reason": self.last_restart_reason,
            "workers": [
                {"index": w.index, "state": w.state, "pid": w.pid,
                 "generation": w.generation, "restarts": w.restarts}
                for w in self._workers
            ],
        }

    def _set_gauges(self) -> None:
        obs.set_gauge("serve.pool.workers_live", float(self.workers_live))
        obs.set_gauge("serve.pool.workers_total", float(self.size))
        obs.set_gauge("serve.pool.degraded",
                      1.0 if self.degraded else 0.0)

    async def _state_changed(self, timeout: float) -> None:
        """Wait (bounded) for any worker state transition."""
        if self._loop is None or timeout <= 0:
            return
        waiter: asyncio.Future[None] = self._loop.create_future()
        self._state_waiters.append(waiter)
        try:
            await asyncio.wait_for(waiter, timeout)
        except asyncio.TimeoutError:
            pass  # bounded wait; the caller re-checks state
        finally:
            if waiter in self._state_waiters:
                self._state_waiters.remove(waiter)

    def _wake_state_waiters(self) -> None:
        waiters, self._state_waiters = self._state_waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)
