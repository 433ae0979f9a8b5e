"""The supervised worker pool: supervision policy units (fake clock),
pool answers against the oracle over real processes, crash recovery,
flap degradation with in-process fallback, reloads that replace the
pool, and the pool blocks of the health endpoints.  No worker process
outlives a test."""

import asyncio
import dataclasses
import errno
import json
import multiprocessing
import os
import pickle
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.serve.pool
from repro import RectArray, SortTileRecursive, bulk_load
from repro.core.geometry import Rect
from repro.queries import region_queries
from repro.rtree.knn import knn
from repro.serve import (
    FlapDetector,
    PoolUnavailable,
    QueryClient,
    QueryServer,
    Request,
    RestartBackoff,
    TreeSpec,
    WorkerPool,
    WorkerState,
)
from repro.serve.deadline import Deadline
from repro.serve.pool import START_TIMEOUT_S, _frame, _FrameReader
from repro.serve.protocol import (
    DeadlineExceeded,
    EncodedIds,
    encode_ids,
    rect_to_wire,
)
from repro.storage import FilePageStore, MemoryPageStore, StripedPageStore
from repro.storage.integrity import TRAILER_SIZE
from repro.storage.page import required_page_size

CAPACITY = 25
NDIM = 2
PAGE_SIZE = required_page_size(CAPACITY, NDIM) + TRAILER_SIZE
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _build(rng, store=None, n=2_000):
    rects = RectArray.from_points(rng.random((n, NDIM)))
    tree, _ = bulk_load(rects, SortTileRecursive(), capacity=CAPACITY,
                        store=store or MemoryPageStore(4096))
    return rects, tree


def _durable_tree(tmp_path, rng, name="tree.pages", n=2_000):
    store = FilePageStore(tmp_path / name, PAGE_SIZE, checksums=True)
    _, tree = _build(rng, store=store, n=n)
    return tree


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(autouse=True)
def no_process_outlives_the_test():
    yield
    assert multiprocessing.active_children() == []


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers see a patched _open_spec only when forked")


class TestRestartBackoff:
    def test_first_death_is_free_then_exponential_capped(self):
        backoff = RestartBackoff(base_s=0.05, multiplier=2.0, max_s=0.4,
                                 seed=3)
        assert backoff.next_delay() == 0.0
        nominal = 0.05
        for _ in range(8):
            delay = backoff.next_delay()
            assert nominal / 2.0 <= delay <= nominal
            nominal = min(nominal * 2.0, 0.4)
        assert backoff.deaths == 9

    def test_seeded_schedule_is_reproducible(self):
        a = [RestartBackoff(seed=11).next_delay() for _ in range(1)]
        schedules = []
        for _ in range(2):
            backoff = RestartBackoff(seed=11)
            schedules.append([backoff.next_delay() for _ in range(6)])
        assert schedules[0] == schedules[1]
        assert a[0] == 0.0

    def test_reset_forgets_the_streak(self):
        backoff = RestartBackoff(base_s=0.1, max_s=1.0, seed=0)
        backoff.next_delay()
        backoff.next_delay()
        assert backoff.deaths == 2
        backoff.reset()
        assert backoff.deaths == 0
        assert backoff.next_delay() == 0.0  # first death again

    def test_rejects_nonsense_parameters(self):
        with pytest.raises(ValueError):
            RestartBackoff(base_s=-1.0)
        with pytest.raises(ValueError):
            RestartBackoff(multiplier=0.5)


class TestFlapDetector:
    def test_trips_at_threshold_within_window(self):
        flap = FlapDetector(threshold=3, window_s=10.0)
        assert flap.record(100.0) is False
        assert flap.record(101.0) is False
        assert flap.record(102.0) is True
        assert flap.tripped

    def test_old_deaths_age_out_of_the_window(self):
        flap = FlapDetector(threshold=3, window_s=10.0)
        flap.record(0.0)
        flap.record(1.0)
        # 11s later the first two are outside the window.
        assert flap.in_window(11.5) == 0
        assert flap.record(11.5) is False
        assert not flap.tripped

    def test_tripped_is_sticky_until_reset(self):
        flap = FlapDetector(threshold=2, window_s=5.0)
        flap.record(0.0)
        assert flap.record(0.1) is True
        # Far in the future, still tripped: rejoining multi-process mode
        # takes an operator action (a reload or restart starts a fresh
        # pool with a fresh circuit), not quiet oscillation.
        assert flap.record(1000.0) is True
        assert flap.tripped

    def test_rejects_nonsense_parameters(self):
        with pytest.raises(ValueError):
            FlapDetector(threshold=0)
        with pytest.raises(ValueError):
            FlapDetector(window_s=0.0)


class TestTreeSpec:
    def test_memory_backed_tree_has_no_spec(self, tmp_path, rng):
        _, tree = _build(rng, n=300)
        assert TreeSpec.for_tree(tree, buffer_pages=32,
                                 generation=1) is None
        # A stripe over files has no single path for a worker to mmap:
        # it serves in-process, like a memory tree.
        disks = [FilePageStore(tmp_path / f"disk{i}.pages", PAGE_SIZE)
                 for i in range(2)]
        _, striped = _build(rng, store=StripedPageStore(disks), n=300)
        assert TreeSpec.for_tree(striped, buffer_pages=32,
                                 generation=1) is None
        striped.store.close()
        # Nor can a plain page file describe itself to a worker.
        store = FilePageStore(tmp_path / "plain.pages", PAGE_SIZE)
        _, plain = _build(rng, store=store, n=300)
        assert TreeSpec.for_tree(plain, buffer_pages=32,
                                 generation=1) is None
        store.close()

    def test_durable_tree_spec_round_trips(self, tmp_path, rng):
        tree = _durable_tree(tmp_path, rng, n=600)
        spec = TreeSpec.for_tree(tree, buffer_pages=32, generation=7,
                                 quarantine=frozenset({3}))
        assert spec is not None
        assert [f.name for f in dataclasses.fields(spec)] == [
            "path", "buffer_pages", "generation", "quarantine"]
        assert spec.path == str(tmp_path / "tree.pages")
        assert spec.buffer_pages == 32
        assert spec.generation == 7
        assert spec.quarantine == frozenset({3})
        assert pickle.loads(pickle.dumps(spec)) == spec
        # A worker needs nothing else: the superblock describes the tree.
        searcher, store = repro.serve.pool._open_spec(spec)
        reopened = searcher.searcher.tree
        assert (reopened.root_page, reopened.height, len(reopened)) == (
            tree.root_page, tree.height, len(tree))
        store.close()
        tree.store.close()


class TestResultFrames:
    MESSAGES = [
        ("ready", 4242, 1),
        ("result", 7, {"count": 503, "ids": encode_ids(list(range(-3, 500))),
                       "partial": False, "unreachable_subtrees": 0,
                       "faults": []}),
        ("error", 8, "BadRequest", "x" * 300),
        ("ready", 4243, 2),
    ]

    def _stream(self):
        return b"".join(_frame(msg) for msg in self.MESSAGES)

    def test_a_stream_split_at_every_offset_reads_back_in_order(self):
        stream = self._stream()
        for cut in range(len(stream) + 1):
            reader = _FrameReader()
            got = reader.feed(stream[:cut]) + reader.feed(stream[cut:])
            assert got == self.MESSAGES, cut
            assert type(got[1][2]["ids"]) is EncodedIds

    def test_many_frames_per_read_and_one_byte_per_read(self):
        stream = self._stream()
        assert _FrameReader().feed(stream) == self.MESSAGES
        reader = _FrameReader()
        got = [msg for at in range(len(stream))
               for msg in reader.feed(stream[at:at + 1])]
        assert got == self.MESSAGES
        assert reader.feed(b"") == []


def _payload(rect, budget_s=30.0):
    return {"op": "search", "rect": rect_to_wire(rect),
            "degraded": True, "budget_s": budget_s}


def _ids(result):
    """A pooled result's ids, which the worker sent already encoded."""
    assert isinstance(result["ids"], EncodedIds)
    return json.loads(result["ids"])


def _check_pool_against_the_oracle(tmp_path, rng):
    tree = _durable_tree(tmp_path, rng)
    oracle = tree.searcher(256)
    spec = TreeSpec.for_tree(tree, buffer_pages=64, generation=1)
    queries = list(region_queries(0.05, 20, seed=5))

    async def scenario():
        pool = WorkerPool(spec, 2, seed=0)
        assert await pool.start() == 2
        try:
            assert pool.generation == 1
            for q in queries:
                result = await pool.execute(_payload(q),
                                            Deadline.after(30.0))
                expected = sorted(int(x) for x in oracle.search(q))
                assert _ids(result) == expected
                assert not result["partial"]
        finally:
            await pool.aclose()
        snap = pool.snapshot()
        assert snap["workers_live"] == 0
        assert all(w["state"] == WorkerState.STOPPED
                   for w in snap["workers"])
        return pool

    pool = run(scenario())
    tree.store.close()
    return pool


class TestWorkerPoolDirect:
    def test_pool_answers_match_the_oracle(self, tmp_path, rng):
        _check_pool_against_the_oracle(tmp_path, rng)

    def test_pool_answers_match_the_oracle_under_spawn(
            self, tmp_path, rng, monkeypatch):
        # The pool picks fork where the platform has it; a spawned
        # worker starts from a fresh import and gets only what pickles.
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        pool = _check_pool_against_the_oracle(tmp_path, rng)
        assert pool._ctx.get_start_method() == "spawn"

    def test_wedged_worker_is_killed_at_deadline_plus_grace(
            self, tmp_path, rng):
        tree = _durable_tree(tmp_path, rng)
        oracle = tree.searcher(256)
        spec = TreeSpec.for_tree(tree, buffer_pages=64, generation=1)
        q = list(region_queries(0.05, 1, seed=10))[0]
        deadline_s, grace_s = 0.5, 0.3

        async def scenario():
            pool = WorkerPool(spec, 1, seed=0, grace_s=grace_s)
            await pool.start()
            try:
                # A stopped worker neither answers nor cancels itself:
                # only the supervisor's timer can end the request.
                os.kill(pool.snapshot()["workers"][0]["pid"], signal.SIGSTOP)
                start = time.monotonic()
                with pytest.raises(DeadlineExceeded, match="worker killed"):
                    await pool.execute(_payload(q, budget_s=deadline_s),
                                       Deadline.after(deadline_s))
                elapsed = time.monotonic() - start
                assert deadline_s + grace_s <= elapsed
                assert elapsed < deadline_s + grace_s + 3.0
                assert pool.hung_kills_total == 1
                # The killed worker leaves the rotation at once: the next
                # request is refused, never sent to the dead process.
                assert pool.workers_live == 0
                with pytest.raises(PoolUnavailable, match="no live workers"):
                    await pool.execute(_payload(q), Deadline.after(30.0))
                assert pool.requeues_total == 0
                wait = Deadline.after(10.0)
                while (pool.restarts_total < 1
                       or pool.workers_live < pool.size) \
                        and not wait.expired():
                    await asyncio.sleep(0.05)
                assert pool.restarts_total == 1
                assert pool.workers_live == pool.size
                result = await pool.execute(_payload(q),
                                            Deadline.after(30.0))
                assert _ids(result) == sorted(
                    int(x) for x in oracle.search(q))
            finally:
                await pool.aclose()

        run(scenario())
        tree.store.close()

    def test_aclose_reaps_a_worker_killed_just_before(self, tmp_path, rng):
        tree = _durable_tree(tmp_path, rng)
        spec = TreeSpec.for_tree(tree, buffer_pages=64, generation=1)
        q = list(region_queries(0.05, 1, seed=10))[0]

        async def scenario():
            pool = WorkerPool(spec, 1, seed=0, grace_s=0.2)
            await pool.start()
            proc = pool._workers[0].proc
            os.kill(proc.pid, signal.SIGSTOP)
            with pytest.raises(DeadlineExceeded, match="worker killed"):
                await pool.execute(_payload(q, budget_s=0.2),
                                   Deadline.after(0.2))
            assert pool.snapshot()["workers"][0]["state"] == \
                WorkerState.KILLED
            await pool.aclose()
            return proc

        proc = run(scenario())
        assert proc.exitcode == -signal.SIGKILL   # reaped by aclose
        tree.store.close()

    def test_sigkill_mid_traffic_recovers_to_full_strength(
            self, tmp_path, rng):
        tree = _durable_tree(tmp_path, rng)
        oracle = tree.searcher(256)
        spec = TreeSpec.for_tree(tree, buffer_pages=64, generation=1)
        queries = list(region_queries(0.05, 30, seed=6))

        async def scenario():
            pool = WorkerPool(spec, 2, seed=0)
            await pool.start()
            try:
                victim = pool.snapshot()["workers"][0]["pid"]
                os.kill(victim, signal.SIGKILL)
                # Every in-flight and subsequent query still answers
                # correctly (at-most-once requeue onto the live sibling).
                for q in queries:
                    result = await pool.execute(_payload(q),
                                                Deadline.after(30.0))
                    assert _ids(result) == sorted(
                        int(x) for x in oracle.search(q))
                deadline = Deadline.after(10.0)
                while pool.workers_live < 2 and not deadline.expired():
                    await asyncio.sleep(0.05)
                assert pool.workers_live == 2
                assert pool.restarts_total >= 1
                assert pool.last_restart_reason is not None
            finally:
                await pool.aclose()

        run(scenario())
        tree.store.close()

    def test_flapping_pool_degrades_instead_of_thrashing(
            self, tmp_path, rng):
        tree = _durable_tree(tmp_path, rng, n=600)
        spec = TreeSpec.for_tree(tree, buffer_pages=32, generation=1)

        async def scenario():
            pool = WorkerPool(spec, 2, seed=0, flap_threshold=3,
                              flap_window_s=60.0, backoff_base_s=0.01,
                              backoff_max_s=0.02)
            await pool.start()
            try:
                deadline = Deadline.after(20.0)
                while not pool.degraded and not deadline.expired():
                    for worker in pool.snapshot()["workers"]:
                        if worker["pid"] and worker["state"] == "ready":
                            try:
                                os.kill(worker["pid"], signal.SIGKILL)
                            except ProcessLookupError:
                                pass
                    await asyncio.sleep(0.05)
                assert pool.degraded
                assert not pool.available
                with pytest.raises(PoolUnavailable):
                    await pool.execute(
                        _payload(list(region_queries(0.05, 1, seed=1))[0]),
                        Deadline.after(5.0))
            finally:
                await pool.aclose()

        run(scenario())
        tree.store.close()

    @needs_fork
    def test_start_gives_up_once_the_flap_circuit_trips(
            self, tmp_path, rng, monkeypatch):
        tree = _durable_tree(tmp_path, rng, n=600)
        spec = TreeSpec.for_tree(tree, buffer_pages=32, generation=1)
        monkeypatch.setattr(repro.serve.pool, "_open_spec", _no_fds)

        async def scenario():
            pool = WorkerPool(spec, 2, seed=0)
            start = time.monotonic()
            with pytest.raises(PoolUnavailable, match="flapped"):
                await pool.start()
            return time.monotonic() - start, pool

        elapsed, pool = run(scenario())
        assert pool.degraded
        assert elapsed < START_TIMEOUT_S / 3, elapsed
        tree.store.close()

    def test_a_restart_that_cannot_fork_counts_as_a_death(
            self, tmp_path, rng):
        """A fork failing when a dead worker restarts is retried after
        backoff and trips the flap circuit, never raised into the
        event loop."""
        tree = _durable_tree(tmp_path, rng, n=600)
        spec = TreeSpec.for_tree(tree, buffer_pages=32, generation=1)
        loop_errors = []

        def no_fork(worker):
            raise BlockingIOError(errno.EAGAIN,
                                  "Resource temporarily unavailable")

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context))
            pool = WorkerPool(spec, 1, seed=0, flap_threshold=3,
                              flap_window_s=60.0, backoff_base_s=0.01,
                              backoff_max_s=0.02)
            await pool.start()
            try:
                pool._spawn = no_fork
                os.kill(pool.snapshot()["workers"][0]["pid"],
                        signal.SIGKILL)
                deadline = Deadline.after(10.0)
                while not pool.degraded and not deadline.expired():
                    await asyncio.sleep(0.02)
                assert pool.degraded
                assert pool.restarts_total == 2
            finally:
                await pool.aclose()

        run(scenario())
        assert loop_errors == []
        tree.store.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts open descriptors in /proc")
    def test_a_pipe_that_cannot_open_leaks_no_fd(self, tmp_path, rng):
        """A worker's second pipe fails with EMFILE: the pool cannot
        start, and the first pipe's two ends are closed, not leaked."""
        tree = _durable_tree(tmp_path, rng, n=600)
        spec = TreeSpec.for_tree(tree, buffer_pages=32, generation=1)
        pool = WorkerPool(spec, 1, seed=0)
        ctx = pool._ctx
        pipes = []

        class OutOfFds:
            def __getattr__(self, name):
                return getattr(ctx, name)

            def Pipe(self, duplex=True):
                pipes.append(duplex)
                if len(pipes) == 2:
                    raise OSError(errno.EMFILE, "Too many open files")
                return ctx.Pipe(duplex)

        pool._ctx = OutOfFds()
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(PoolUnavailable, match="Too many open files"):
            run(pool.start())
        assert len(pipes) == 2
        assert len(os.listdir("/proc/self/fd")) == fds
        tree.store.close()


def _no_fds(spec):
    """A worker's ``_open_spec`` on a host out of file descriptors."""
    raise OSError(errno.EMFILE, "Too many open files")


_REAL_OPEN_SPEC = repro.serve.pool._open_spec


def _open_but_generation_2(spec):
    if spec.generation == 2:
        _no_fds(spec)
    return _REAL_OPEN_SPEC(spec)


def _two_generations(tmp_path, rng):
    """Generation 1 and a generation-2 file holding other records under
    other ids; returns (tree 1, gen-2 path, gen-2 brute force)."""
    tree = _durable_tree(tmp_path, rng, n=1_500)
    points = np.random.default_rng(99).random((1_200, NDIM))
    ids = np.arange(50_000, 51_200, dtype=np.int64)
    store = FilePageStore(tmp_path / "gen2.pages", PAGE_SIZE,
                          checksums=True)
    bulk_load(RectArray.from_points(points), SortTileRecursive(),
              capacity=CAPACITY, data_ids=ids, store=store)
    store.close()

    def brute_force(q):
        inside = np.all((points >= q.lo) & (points <= q.hi), axis=1)
        return sorted(int(i) for i in ids[inside])

    return tree, str(tmp_path / "gen2.pages"), brute_force


class TestServerWithPool:
    def test_pool_that_cannot_fork_serves_in_process(
            self, tmp_path, rng, monkeypatch):
        """The pool's second fork fails with EAGAIN: the worker already
        started is stopped, and the server answers in process with the
        error as the pool's reason."""
        tree = _durable_tree(tmp_path, rng)
        oracle = tree.searcher(256)
        queries = list(region_queries(0.05, 10, seed=14))
        spawn = WorkerPool._spawn
        calls = []

        def fork_once(pool, worker):
            calls.append(worker.index)
            if len(calls) == 2:
                raise BlockingIOError(errno.EAGAIN,
                                      "Resource temporarily unavailable")
            spawn(pool, worker)

        monkeypatch.setattr(WorkerPool, "_spawn", fork_once)

        async def scenario():
            async with QueryServer(tree, buffer_pages=64,
                                   workers=2) as server:
                assert server.pool is None
                assert "BlockingIOError" in server.pool_start_error
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    for q in queries:
                        resp = (await client.search(q)).raise_for_error()
                        assert resp.ids == sorted(
                            int(x) for x in oracle.search(q))
                    health = await client.healthz()
                    assert health["pool"]["enabled"] is False
                    assert "BlockingIOError" in health["pool"]["reason"]

        run(scenario())
        assert calls == [0, 1]
        tree.store.close()

    def test_pooled_server_matches_oracle_including_knn(
            self, tmp_path, rng):
        tree = _durable_tree(tmp_path, rng)
        oracle = tree.searcher(256)
        queries = list(region_queries(0.05, 20, seed=9))

        async def scenario():
            async with QueryServer(tree, buffer_pages=64,
                                   workers=2) as server:
                assert server.pool is not None, server.pool_start_error
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    for q in queries:
                        resp = (await client.search(q)).raise_for_error()
                        assert resp.ids == sorted(
                            int(x) for x in oracle.search(q))
                        assert not resp.partial
                    resp = (await client.knn([0.5, 0.5], 7)
                            ).raise_for_error()
                    expected = knn(oracle, [0.5, 0.5], 7)
                    assert resp.ids == [i for i, _ in expected]
                    assert resp.distances == pytest.approx(
                        [d for _, d in expected])

        run(scenario())
        tree.store.close()

    def test_whole_square_answer_outgrows_the_pipe_buffer(
            self, tmp_path, rng):
        # 20,000 ids are about 110 KB on the wire, past a pipe's 64 KiB
        # buffer: the worker's result arrives over several reads.
        tree = _durable_tree(tmp_path, rng, n=20_000)
        whole = Rect((0.0, 0.0), (1.0, 1.0))

        async def scenario():
            async with QueryServer(tree, buffer_pages=64,
                                   workers=2) as server:
                assert server.pool is not None, server.pool_start_error
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    resp = (await client.search(whole)).raise_for_error()
                    assert resp.ids == list(range(20_000))
                    assert (await client.ping())["version"] == 1
                assert server.pool_fallbacks == 0

        run(scenario())
        tree.store.close()

    def test_memory_tree_falls_back_in_process_with_reason(self, rng):
        _, tree = _build(rng, n=500)
        oracle = tree.searcher(256)
        q = list(region_queries(0.05, 1, seed=2))[0]

        async def scenario():
            async with QueryServer(tree, workers=2) as server:
                assert server.pool is None
                assert "file-backed" in server.pool_start_error
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    resp = (await client.search(q)).raise_for_error()
                    assert resp.ids == sorted(
                        int(x) for x in oracle.search(q))
                    health = await client.healthz()
                    assert health["pool"]["enabled"] is False
                    assert "file-backed" in health["pool"]["reason"]
                    ready = await client.readyz()
                    assert ready["ready"] is True
                    assert ready["pool"]["enabled"] is False

        run(scenario())

    def test_health_payloads_expose_pool_state(self, tmp_path, rng):
        tree = _durable_tree(tmp_path, rng, n=800)

        async def scenario():
            async with QueryServer(tree, buffer_pages=64,
                                   workers=2) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    health = await client.healthz()
                    pool = health["pool"]
                    assert pool["enabled"] is True
                    assert pool["workers_total"] == 2
                    assert pool["workers_live"] == 2
                    assert pool["degraded"] is False
                    assert pool["generation"] == 1
                    assert pool["restarts_total"] == 0
                    assert {w["state"] for w in pool["workers"]} == {
                        WorkerState.READY}
                    ready = await client.readyz()
                    assert ready["ready"] is True
                    assert ready["pool"]["workers_live"] == 2
                    assert ready["pool"]["draining"] is False

        run(scenario())
        tree.store.close()

    @needs_fork
    def test_reload_the_workers_cannot_open_answers_the_new_generation(
            self, tmp_path, rng, monkeypatch):
        """Workers that cannot open generation 2 must not keep serving
        generation 1 under its number: the new pool fails to start, the
        old one is closed, and every answer is generation 2's."""
        tree, path2, brute_force = _two_generations(tmp_path, rng)
        queries = list(region_queries(0.05, 30, seed=12))
        monkeypatch.setattr(repro.serve.pool, "_open_spec",
                            _open_but_generation_2)

        async def scenario():
            async with QueryServer(tree, buffer_pages=64, workers=2,
                                   allow_reload=True) as server:
                assert server.pool is not None, server.pool_start_error
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    start = time.monotonic()
                    data = await client.reload(path2)
                    assert time.monotonic() - start < START_TIMEOUT_S / 3
                    assert data["generation"] == 2
                    for q in queries:
                        resp = (await client.search(q)).raise_for_error()
                        assert resp.ids == brute_force(q)
                    assert data["pool"] == {"remapped": 0,
                                            "workers_live": 0}
                    health = await client.healthz()
                    assert health["pool"]["enabled"] is False
                    assert "flapped" in health["pool"]["reason"]
                    assert (await client.readyz())["ready"] is True

        run(scenario())

    def test_reload_rejoins_a_flap_degraded_pool(self, tmp_path, rng):
        tree, path2, brute_force = _two_generations(tmp_path, rng)
        queries = list(region_queries(0.05, 30, seed=13))

        async def scenario():
            async with QueryServer(tree, buffer_pages=64, workers=2,
                                   allow_reload=True) as server:
                assert server.pool is not None, server.pool_start_error
                pool = server.pool
                deadline = Deadline.after(20.0)
                while not pool.degraded and not deadline.expired():
                    for worker in pool.snapshot()["workers"]:
                        if worker["pid"] and worker["state"] == "ready":
                            try:
                                os.kill(worker["pid"], signal.SIGKILL)
                            except ProcessLookupError:
                                pass
                    await asyncio.sleep(0.05)
                assert pool.degraded
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    assert (await client.healthz())["pool"]["degraded"]
                    data = await client.reload(path2)
                    assert data["pool"] == {"remapped": 2,
                                            "workers_live": 2}
                    health = await client.healthz()
                    assert health["pool"]["degraded"] is False
                    assert health["pool"]["workers_live"] == 2
                    assert health["pool"]["generation"] == 2
                    assert {w["generation"] for w in
                            health["pool"]["workers"]} == {2}
                    fallbacks = server.pool_fallbacks
                    for q in queries:
                        resp = (await client.search(q)).raise_for_error()
                        assert resp.ids == brute_force(q)
                    assert server.pool_fallbacks == fallbacks

        run(scenario())

    @pytest.mark.parametrize("moment", ["fsck", "pool start"])
    def test_reload_racing_aclose_leaves_no_process(self, tmp_path, rng,
                                                     moment):
        """``aclose`` while a reload checks its file, or while it starts
        the new pool: either way every worker and child is reaped."""
        tree, path2, _ = _two_generations(tmp_path, rng)

        def reached():
            if moment == "fsck":
                return any(p.name == "repro-fsck-child"
                           for p in multiprocessing.active_children())
            return server.draining

        async def scenario():
            await server.start()
            assert server.pool is not None, server.pool_start_error
            reload = asyncio.ensure_future(server.handle_request(
                Request(op="reload", id=1, path=path2)))
            deadline = Deadline.after(10.0)
            while not reached() and not deadline.expired():
                await asyncio.sleep(0.001)
            assert reached(), moment
            await server.aclose()
            resp = await reload
            assert resp.ok, resp.message
            assert server.pool is None

        server = QueryServer(tree, buffer_pages=64, workers=2,
                             allow_reload=True)
        run(scenario())


def _still_running(pids, within_s):
    """The pids of ``pids`` neither gone nor a zombie after waiting up
    to ``within_s`` seconds."""
    deadline = time.monotonic() + within_s
    while True:
        running = []
        for pid in pids:
            try:
                with open(f"/proc/{pid}/stat") as f:
                    state = f.read().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                continue
            if state != "Z":
                running.append(pid)
        if not running or time.monotonic() > deadline:
            return running
        time.sleep(0.05)


@needs_fork
def test_workers_exit_when_their_server_is_killed(tmp_path, rng):
    """SIGKILL the server alone, not its process group: its workers
    exit at once instead of living on, reparented, with the file
    mapped."""
    _durable_tree(tmp_path, rng).store.close()
    env = dict(os.environ, PYTHONPATH=SRC)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         str(tmp_path / "tree.pages"), "--port", "0", "--workers", "2",
         "--no-manifest"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        stdin=subprocess.DEVNULL, start_new_session=True, text=True)
    try:
        line = server.stdout.readline()
        assert "2/2 worker process(es)" in line, line
        port = int(line.split(" on ")[1].split(" ")[0].rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            sock.sendall(b'{"op":"stats","id":1}\n')
            stats = json.loads(sock.makefile().readline())
        pids = [w["pid"] for w in stats["data"]["pool"]["workers"]]
        assert len(pids) == 2 and server.pid not in pids
        os.kill(server.pid, signal.SIGKILL)
        server.wait(timeout=10)
        assert _still_running(pids, 5.0) == []
    finally:
        try:
            os.killpg(server.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        server.wait()
        server.stdout.close()
