"""Fault-tolerant sharded bulk load: supervise, verify, assemble.

:func:`parallel_bulk_load` is the multi-process twin of
:func:`repro.rtree.bulk.bulk_load` with three extra guarantees:

**Bit-identical output.**  Shards are the top-level STR slabs — a
function of the data, never of the worker count — and workers replay the
serial loader's per-slab recursion over the same staged float64 arrays.
Assembly writes every shard's pages in slab order through the ordinary
``store.allocate()`` sequence and reuses
:func:`~repro.rtree.bulk.pack_upper_levels` for the internal levels, so
a 7-worker build and a serial ``bulk_load`` produce the same bytes in
the same page ids.

**Crash tolerance.**  All intermediate state lives in a staging
directory under CRC-verified, atomically-published files.  A shard's
checkpoint is its worker's done record, published after the run files
it checksums: a shard is done exactly when that record and its run
files verify.  Kill anything — worker or orchestrator, any instant —
and ``resume=True`` re-runs exactly the shards that do not verify.
``workers`` processes are started once and each runs one shard at a
time until every shard is verified.  A worker that dies or stops
heartbeating costs only the shard it holds, which is retried up to
``max_attempts`` times while a new process takes the worker's place;
a shard that keeps failing raises a typed :class:`PoisonShard`
(staging kept, ``poison.json`` written) rather than ever committing a
partial tree.

**Observability.**  Every shard ships its own
:class:`~repro.obs.metrics.MetricsRegistry` home inside its done
record; the orchestrator merges them (resumed shards included, so
resumed builds keep the metrics of work done before the crash) and
returns the merged registry in the :class:`PipelineReport` for the run
manifest.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Callable

import numpy as np

from ..core.geometry import GeometryError, RectArray
from ..core.packing.str_ import SortTileRecursive
from ..obs import runtime as obs
from ..obs.metrics import MetricsRegistry
from ..rtree.bulk import BulkLoadReport, pack_upper_levels
from ..rtree.node import RTreeError
from ..rtree.paged import PagedRTree
from ..storage.counters import IOStats
from ..storage.page import required_page_size
from ..storage.store import MemoryPageStore, PageStore
from .plan import (
    BuildPlan,
    ResumeMismatch,
    input_fingerprint,
    load_plan,
    make_plan,
    stage_input,
    write_plan,
)
from .staging import (
    StagingDir,
    StagingError,
    atomic_write_json,
    file_checksum,
    parse_record,
)
from . import worker as shard_worker

__all__ = [
    "PipelineError",
    "PoisonShard",
    "PipelineReport",
    "parallel_bulk_load",
]

#: Seconds the supervisor waits for a worker to report or exit before
#: it checks the busy workers' heartbeats again.
POLL_S = 0.05


class PipelineError(RTreeError):
    """Raised for unusable pipeline configuration or corrupted staging."""


class PoisonShard(PipelineError):
    """A shard failed every allowed attempt.

    The staging directory is kept (healthy shards' done records survive)
    and ``poison.json`` records the diagnosis; fixing the cause and
    re-running with ``resume=True`` only re-executes the poisoned shard.
    """

    def __init__(self, shard: int, attempts: int, reason: str,
                 staging_path: str):
        super().__init__(
            f"shard {shard} failed {attempts} attempt(s): {reason} "
            f"(staging kept at {staging_path}; fix and resume)"
        )
        self.shard = shard
        self.attempts = attempts
        self.reason = reason
        self.staging_path = staging_path


@dataclass(frozen=True)
class PipelineReport:
    """What the parallel build did (superset of the serial report)."""

    bulk: BulkLoadReport
    plan: BuildPlan
    workers: int
    #: Failed attempts per shard (shards absent never failed).
    retries: dict[int, int]
    #: Shards a resume found already done (record and runs verified).
    resumed_shards: tuple[int, ...]
    #: Merged per-shard worker registries + orchestrator counters.
    metrics: MetricsRegistry = field(compare=False)
    staging_path: str = ""


def _verify_shard_output(staging: StagingDir, shard: int,
                         plan: BuildPlan, record: dict | None
                         ) -> tuple[dict | None, str]:
    """Validate a shard's done record against the plan and the
    published files.

    Returns ``(record, "")`` when the shard's output is provably
    complete, else ``(None, reason)``.
    """
    if record is None:
        return None, "no valid done record"
    if int(record.get("shard", -1)) != shard:
        return None, f"record names shard {record.get('shard')}"
    if int(record.get("fingerprint", -1)) != plan.fingerprint:
        return None, "record fingerprint does not match the plan"
    start, stop = plan.shard_ranges()[shard]
    if int(record.get("records", -1)) != stop - start:
        return None, (f"record count {record.get('records')} != slab "
                      f"size {stop - start}")
    if int(record.get("pages", -1)) != plan.shard_pages(shard):
        return None, (f"page count {record.get('pages')} != expected "
                      f"{plan.shard_pages(shard)}")
    for name, crc_key, bytes_key in (
        (shard_worker.run_name(shard), "run_crc", "run_bytes"),
        (shard_worker.mbrs_name(shard), "mbrs_crc", "mbrs_bytes"),
    ):
        path = staging.file(name)
        if not os.path.exists(path):
            return None, f"{name} missing"
        crc, size = file_checksum(path)
        if crc != record.get(crc_key) or size != record.get(bytes_key):
            return None, f"{name} does not match its recorded CRC"
    return record, ""


def _load_done_record(staging: StagingDir, shard: int) -> dict | None:
    """The shard's done record, or ``None`` when it is missing or fails
    its checks (the shard is then re-run)."""
    path = staging.file(shard_worker.done_name(shard))
    try:
        with open(path, "rb") as f:
            return parse_record(f.read(), (shard_worker.DONE_FORMAT,),
                                f"{path}: done record")
    except (OSError, StagingError):
        return None


def _failure_reason(staging: StagingDir, shard: int, fallback: str) -> str:
    path = staging.file(shard_worker.error_name(shard))
    try:
        with open(path) as f:
            tail = f.read().strip().splitlines()
    except OSError:
        return fallback
    return f"{fallback}: {tail[-1]}" if tail else fallback


class _ShardWorker:
    """A long-lived worker process, its two pipe ends, and the shard it
    holds (``None`` while idle)."""

    __slots__ = ("proc", "tasks", "results", "shard", "started_at")

    def __init__(self, proc: Any, tasks: Any, results: Any):
        self.proc = proc
        self.tasks = tasks
        self.results = results
        self.shard: int | None = None
        self.started_at = 0.0

    def reported(self) -> bool:
        """Whether the worker's done message for its shard has arrived."""
        if not self.results.poll():
            return False
        try:
            self.results.recv()
        except (EOFError, OSError):
            return False  # it exited: the pipe reads EOF
        return True

    def stop(self) -> None:
        """End the process (an idle one is asked to stop, a busy one is
        terminated), reap it and close both pipe ends."""
        if self.shard is None:
            try:
                self.tasks.send(None)
            except OSError:
                pass  # already gone
        else:
            self.proc.terminate()
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():  # pragma: no cover
            self.proc.kill()
            self.proc.join()
        self.tasks.close()
        self.results.close()


class _Supervisor:
    """Runs pending shards under process supervision with retries."""

    def __init__(self, staging: StagingDir, plan: BuildPlan, *,
                 workers: int, heartbeat_s: float, deadline_s: float,
                 max_attempts: int, fault: dict | None, throttle_s: float,
                 wall_clock: Callable[[], float] = time.time):
        # Injected wall clock: heartbeat files carry wall-clock mtimes,
        # so calibrating against the monotonic clock needs one wall
        # read — tests substitute a fake to drive staleness.
        self.wall_clock = wall_clock
        self.staging = staging
        self.plan = plan
        self.workers = workers
        self.heartbeat_s = heartbeat_s
        self.deadline_s = deadline_s
        self.max_attempts = max_attempts
        self.fault = fault or {}
        self.throttle_s = throttle_s
        self.retries: dict[int, int] = {}
        self.attempts: dict[int, int] = {}

    # -- shared bits ---------------------------------------------------------

    def _fault_for(self, shard: int) -> str | None:
        plan = self.fault.get(shard)
        if plan is None:
            return None
        attempt = self.attempts.get(shard, 0)
        return plan[attempt] if attempt < len(plan) else None

    def _spec(self, shard: int) -> dict:
        """``run_shard``'s arguments for the shard's next attempt."""
        start, stop = self.plan.shard_ranges()[shard]
        return {
            "staging_path": self.staging.path,
            "shard": shard,
            "start": start,
            "stop": stop,
            "capacity": self.plan.capacity,
            "page_size": self.plan.page_size,
            "ndim": self.plan.ndim,
            "fingerprint": self.plan.fingerprint,
            "attempt": self.attempts.get(shard, 0),
            "fault": self._fault_for(shard),
            "throttle_s": self.throttle_s,
        }

    def _record_failure(self, shard: int, reason: str,
                        pending: deque) -> None:
        self.attempts[shard] = self.attempts.get(shard, 0) + 1
        self.retries[shard] = self.attempts[shard]
        obs.inc("pipeline.shard_failures")
        if self.attempts[shard] >= self.max_attempts:
            diagnosis = {
                "shard": shard,
                "attempts": self.attempts[shard],
                "reason": reason,
                "slab": list(self.plan.shard_ranges()[shard]),
            }
            atomic_write_json(self.staging.file("poison.json"), diagnosis)
            self.staging.keep()
            raise PoisonShard(shard, self.attempts[shard], reason,
                              self.staging.path)
        pending.append(shard)

    # -- inline mode (workers == 0) ------------------------------------------

    def run_inline(self, pending_shards: list[int]) -> None:
        pending = deque(pending_shards)
        while pending:
            shard = pending.popleft()
            try:
                record = shard_worker.run_shard(**self._spec(shard),
                                                inline=True)
            except shard_worker.InjectedWorkerFault as exc:
                self._record_failure(shard, str(exc), pending)
                continue
            record, reason = _verify_shard_output(
                self.staging, shard, self.plan, record)
            if record is None:
                self._record_failure(shard, reason, pending)
            else:
                obs.inc("pipeline.shards_verified")

    # -- subprocess mode -----------------------------------------------------

    def _launch(self, ctx: Any) -> _ShardWorker:
        tasks_in, tasks = ctx.Pipe(duplex=False)
        results, results_out = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=shard_worker._process_main,
                           args=(tasks_in, results_out, self.heartbeat_s),
                           name="repro-shard-worker")
        proc.start()
        # The child holds these ends now: once it exits, a send to it
        # fails and its result pipe reads EOF.
        tasks_in.close()
        results_out.close()
        obs.inc("pipeline.workers_launched")
        return _ShardWorker(proc, tasks, results)

    def _heartbeat_age(self, shard: int, started_at: float) -> float:
        try:
            mtime = os.path.getmtime(
                self.staging.file(shard_worker.heartbeat_name(shard)))
        except OSError:
            mtime = started_at
        return time.monotonic() - max(mtime - self._mtime_skew, started_at)

    def _dispatch(self, ctx: Any, pool: list[_ShardWorker], size: int,
                  pending: deque) -> None:
        """While shards wait, bring the pool up to ``size`` workers and
        hand each idle one the next pending shard."""
        while pending:
            if len(pool) < size:
                pool.append(self._launch(ctx))
                continue
            worker = next((w for w in pool if w.shard is None), None)
            if worker is None:
                return
            shard = pending.popleft()
            try:
                worker.tasks.send(self._spec(shard))
            except OSError:
                # It died while idle: replace it; the shard never left.
                pending.appendleft(shard)
                worker.stop()
                pool.remove(worker)
                continue
            worker.shard = shard
            worker.started_at = time.monotonic()

    def run_processes(self, pending_shards: list[int]) -> None:
        method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                  else "spawn")
        ctx = multiprocessing.get_context(method)
        # Heartbeats are file mtimes (wall clock); supervision runs on
        # the monotonic clock.  Calibrate the offset once.
        self._mtime_skew = self.wall_clock() - time.monotonic()
        pending = deque(pending_shards)
        size = min(self.workers, len(pending))
        pool: list[_ShardWorker] = []
        try:
            while True:
                self._dispatch(ctx, pool, size, pending)
                busy = [w for w in pool if w.shard is not None]
                if not busy:
                    return  # nothing pending: every shard is settled
                # Wake the moment a worker reports or exits; otherwise
                # after one poll interval, for the heartbeat checks.
                wait([w.results for w in busy]
                     + [w.proc.sentinel for w in busy],
                     timeout=POLL_S)
                for worker in busy:
                    self._settle(worker, pool, pending)
        finally:
            for worker in pool:
                worker.stop()

    def _settle(self, worker: _ShardWorker, pool: list[_ShardWorker],
                pending: deque) -> None:
        """Verify ``worker``'s shard once it reports or exits, or reap
        the worker once its heartbeat is stale; a worker that exits or
        is reaped leaves the pool, and its shard is charged an attempt
        unless its output verifies."""
        shard = worker.shard
        assert shard is not None
        alive = worker.proc.is_alive()
        if not worker.reported() and alive:
            if self._heartbeat_age(shard, worker.started_at) \
                    <= self.deadline_s:
                return
            worker.stop()
            pool.remove(worker)
            obs.inc("pipeline.workers_reaped")
            self._record_failure(
                shard, f"heartbeat stale for >{self.deadline_s}s", pending)
            return
        worker.shard = None
        if not alive:
            worker.stop()
            pool.remove(worker)
        record, reason = _verify_shard_output(
            self.staging, shard, self.plan,
            _load_done_record(self.staging, shard))
        if record is not None:
            obs.inc("pipeline.shards_verified")
        else:
            if not alive:
                reason = _failure_reason(
                    self.staging, shard,
                    f"worker exit code {worker.proc.exitcode}, {reason}")
            self._record_failure(shard, reason, pending)


def _assemble(staging: StagingDir, plan: BuildPlan, store: PageStore
              ) -> tuple[PagedRTree, BulkLoadReport, list[dict]]:
    """Write verified shard runs into the store and pack upward; also
    returns the shards' done records, in slab order."""
    build_io = store.stats.snapshot()
    records: list[dict] = []
    page_ids: list[int] = []
    mbr_los: list[np.ndarray] = []
    mbr_his: list[np.ndarray] = []
    with obs.span("pipeline.assemble", shards=plan.shard_count,
                  leaf_pages=plan.leaf_pages):
        for shard in range(plan.shard_count):
            record, reason = _verify_shard_output(
                staging, shard, plan, _load_done_record(staging, shard))
            if record is None:
                raise PipelineError(
                    f"cannot assemble: shard {shard} {reason}")
            records.append(record)
            with open(staging.file(shard_worker.run_name(shard)),
                      "rb") as f:
                blob = f.read()
            npages = int(record["pages"])
            for i in range(npages):
                page_id = store.allocate()
                store.write_page(
                    page_id,
                    blob[i * plan.page_size:(i + 1) * plan.page_size])
                page_ids.append(page_id)
            mbrs = np.load(staging.file(shard_worker.mbrs_name(shard)))
            mbr_los.append(mbrs[:, 0, :])
            mbr_his.append(mbrs[:, 1, :])
        mbr_rects = RectArray(np.concatenate(mbr_los),
                              np.concatenate(mbr_his), copy=False)
        root_page, height = pack_upper_levels(
            store, SortTileRecursive(), plan.capacity, mbr_rects,
            np.asarray(page_ids, dtype=np.int64),
        )
    tree = PagedRTree(store, root_page, height=height, ndim=plan.ndim,
                      capacity=plan.capacity, size=plan.count)
    # Same atomic cutover as the serial loader: a durable store's
    # superblock now names a complete tree, or never changed at all.
    tree.commit_meta()
    io_delta = IOStats(
        disk_reads=store.stats.disk_reads - build_io.disk_reads,
        disk_writes=store.stats.disk_writes - build_io.disk_writes,
    )
    report = BulkLoadReport(
        pages_written=io_delta.disk_writes,
        height=tree.height,
        leaf_pages=plan.leaf_pages,
        build_io=io_delta,
    )
    return tree, report, records


def parallel_bulk_load(
    rects: RectArray | None = None,
    *,
    data_ids: np.ndarray | None = None,
    capacity: int = 100,
    store: PageStore | None = None,
    staging_path: str | os.PathLike,
    workers: int = 2,
    resume: bool = False,
    heartbeat_s: float = 0.5,
    deadline_s: float = 30.0,
    max_attempts: int = 3,
    fault: dict | None = None,
    throttle_s: float = 0.0,
    keep_staging: bool = False,
) -> tuple[PagedRTree, PipelineReport]:
    """Bulk-load an R-tree with sharded workers, resumable per shard.

    Parameters mirror :func:`repro.rtree.bulk.bulk_load` plus:

    staging_path:
        Directory for staged input, shard runs and done records.
        Survives any crash; removed only after a successful build
        (unless ``keep_staging``).
    workers:
        Concurrent worker processes, started once and kept until every
        shard is verified; ``0`` runs shards inline in this process
        (fast, still staged and verified — the property tests' mode).
    resume:
        Re-open an existing staging directory: the plan is CRC-verified
        against ``rects`` (or trusted from staging when ``rects`` is
        ``None``), shards whose done record and run files verify are
        skipped, the rest re-run.
    heartbeat_s / deadline_s / max_attempts:
        Liveness cadence, staleness deadline, and per-shard attempt cap
        before :class:`PoisonShard`.
    fault / throttle_s:
        Test hooks: ``{shard: ["crash" | "hang", ...]}`` per attempt,
        and a per-shard sleep before publication.
    """
    if workers < 0:
        raise PipelineError("workers must be >= 0")
    if max_attempts < 1:
        raise PipelineError("max_attempts must be >= 1")
    if rects is None and not resume:
        raise PipelineError("a fresh build needs input rectangles")
    if rects is not None and len(rects) == 0:
        raise GeometryError("cannot bulk-load zero rectangles")
    if capacity < 2:
        raise RTreeError("capacity must be >= 2")

    # Never remove on error: any interruption — including exceptions —
    # must leave resumable state behind.  Success cleans up.
    staging = StagingDir(staging_path, remove_on_error=False,
                         remove_on_success=not keep_staging)
    with staging, obs.span("pipeline.build", workers=workers,
                           resume=resume):
        staging.sweep_tmp()
        if resume:
            plan = load_plan(staging)
            if plan.capacity != capacity:
                raise ResumeMismatch(
                    f"resume with capacity {capacity}, plan has "
                    f"{plan.capacity}")
            if store is None:
                if plan.page_size != required_page_size(capacity,
                                                        plan.ndim):
                    raise ResumeMismatch(
                        "resume without a store, but the plan was made "
                        f"for page size {plan.page_size}")
                store = MemoryPageStore(plan.page_size)
            elif store.page_size != plan.page_size:
                raise ResumeMismatch(
                    f"resume with page size {store.page_size}, plan has "
                    f"{plan.page_size}")
            if rects is not None:
                ids = (np.arange(len(rects), dtype=np.int64)
                       if data_ids is None
                       else np.asarray(data_ids, dtype=np.int64))
                if input_fingerprint(rects, ids, capacity=capacity,
                                     page_size=plan.page_size) \
                        != plan.fingerprint:
                    raise ResumeMismatch(
                        "resume input does not match the staged plan "
                        "(different data, ids, capacity or page size)")
        else:
            if staging.exists("plan.json"):
                raise PipelineError(
                    f"{staging.file('plan.json')} already exists; resume "
                    "the build (resume=True, or --resume on the command "
                    "line) or remove the staging directory")
            if store is None:
                store = MemoryPageStore(required_page_size(capacity,
                                                           rects.ndim))
            if store.payload_size < required_page_size(capacity,
                                                       rects.ndim):
                raise RTreeError(
                    f"store payload size {store.payload_size} cannot "
                    f"hold {capacity} {rects.ndim}-d entries")
            ids = (np.arange(len(rects), dtype=np.int64)
                   if data_ids is None
                   else np.asarray(data_ids, dtype=np.int64))
            if ids.shape != (len(rects),):
                raise RTreeError(
                    f"data_ids shape {ids.shape} does not match "
                    f"{len(rects)} rects")
            with obs.span("pipeline.plan", size=len(rects)):
                plan = make_plan(rects, ids, capacity=capacity,
                                 page_size=store.page_size)
                # The one global computation: STR's stable x-sort.  Every
                # worker replays the remaining recursion on its own slab.
                xorder = np.argsort(rects.centers()[:, 0], kind="stable")
                inputs = stage_input(staging, plan, rects, ids, xorder)
                write_plan(staging, plan, inputs)

        resumed: list[int] = []
        pending: list[int] = []
        for shard in range(plan.shard_count):
            record, _ = _verify_shard_output(
                staging, shard, plan, _load_done_record(staging, shard))
            if record is not None:
                resumed.append(shard)
            else:
                pending.append(shard)
        obs.set_gauge("pipeline.shards", plan.shard_count)
        obs.set_gauge("pipeline.shards_resumed", len(resumed))

        supervisor = _Supervisor(
            staging, plan, workers=workers,
            heartbeat_s=heartbeat_s, deadline_s=deadline_s,
            max_attempts=max_attempts, fault=fault,
            throttle_s=throttle_s,
        )
        with obs.span("pipeline.shards", pending=len(pending),
                      workers=workers):
            if workers == 0:
                supervisor.run_inline(pending)
            else:
                supervisor.run_processes(pending)

        tree, bulk_report, records = _assemble(staging, plan, store)

        merged = MetricsRegistry()
        for record in records:
            dump = record.get("metrics")
            if dump:
                merged.merge(MetricsRegistry.from_jsonable(dump))
        merged.counter("pipeline.shard_retries").inc(
            sum(supervisor.retries.values()))
        merged.counter("pipeline.shards_resumed").inc(len(resumed))
        merged.gauge("pipeline.workers").set(workers)

        report = PipelineReport(
            bulk=bulk_report,
            plan=plan,
            workers=workers,
            retries=dict(supervisor.retries),
            resumed_shards=tuple(resumed),
            metrics=merged,
            staging_path=staging.path,
        )
        return tree, report
