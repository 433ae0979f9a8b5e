"""End-to-end streaming ingest over real sockets: fsync-backed write
acks, read-your-writes visibility, typed backpressure, the merge op
with zero-downtime cutover, durability across restarts, a concurrent
writer soak checked against an oracle, and a merge killed mid-re-pack
then resumed with zero lost acked writes."""

import asyncio
import errno
import hashlib

import numpy as np
import pytest

import repro.serve.server
from repro import RectArray, SortTileRecursive, bulk_load
from repro.core.geometry import Rect
from repro.ingest import (
    DEFAULT_WAL_LIMIT,
    IngestState,
    merge_segments,
    resolve_current,
)
from repro.rtree.paged import PagedRTree
from repro.serve import QueryClient, QueryServer, ReloadRejected, Request
from repro.storage import FilePageStore, MmapPageStore
from repro.storage.faults import CrashPlan
from repro.storage.integrity import TRAILER_SIZE
from repro.storage.page import required_page_size
from repro.storage.store import SimulatedCrash

CAPACITY = 8
NDIM = 2
N_BASE = 300


def run(coro):
    return asyncio.run(coro)


def _rect(i: int, size: float = 0.01) -> Rect:
    lo = ((i % 97) / 100.0, (i % 89) / 100.0)
    return Rect(lo, tuple(c + size for c in lo))


def _build_base(tree_path, n=N_BASE, seed=7):
    """Durable packed base of ids 0..n-1; returns the oracle dict."""
    rng = np.random.default_rng(seed)
    lo = rng.random((n, NDIM)) * 0.9
    rects = RectArray(lo, lo + rng.random((n, NDIM)) * 0.05)
    page_size = required_page_size(CAPACITY, NDIM) + TRAILER_SIZE
    store = FilePageStore(tree_path, page_size, checksums=True)
    bulk_load(rects, SortTileRecursive(), capacity=CAPACITY,
              store=store)
    store.close()
    return {i: (tuple(rects.los[i]), tuple(rects.his[i]))
            for i in range(n)}


def _open_serving(tree_path, **kwargs):
    """Recover ingest state and map the current generation read-only,
    exactly as ``repro serve --ingest`` does."""
    state, base_path = IngestState.open(tree_path, ndim=NDIM, **kwargs)
    store = MmapPageStore.open_existing(base_path)
    tree = PagedRTree.from_store(store)
    return tree, state


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _brute_search(oracle, rect: Rect):
    """Oracle window query over the logical ``{id: (lo, hi)}`` set."""
    out = []
    for data_id, (lo, hi) in oracle.items():
        if all(lo[d] <= rect.hi[d] and hi[d] >= rect.lo[d]
               for d in range(NDIM)):
            out.append(data_id)
    return sorted(out)


QUERIES = [Rect((x, y), (x + 0.3, y + 0.3))
           for x in (0.0, 0.35, 0.65) for y in (0.0, 0.35, 0.65)]


async def _assert_oracle_exact(client, oracle):
    for q in QUERIES:
        resp = (await client.search(q)).raise_for_error()
        assert resp.ids == _brute_search(oracle, q)


class TestWritePath:
    def test_ack_read_your_writes_and_health(self, tmp_path):
        tree_path = str(tmp_path / "tree.rt")
        oracle = _build_base(tree_path)
        tree, state = _open_serving(tree_path)

        async def scenario():
            async with QueryServer(tree, ingest=state) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as c:
                    r = (await c.insert(9000, _rect(9000))
                         ).raise_for_error()
                    assert r.data["lsn"] == 1
                    oracle[9000] = (_rect(9000).lo, _rect(9000).hi)
                    r = (await c.delete(0)).raise_for_error()
                    assert r.data["lsn"] == 2
                    del oracle[0]
                    # Read-your-writes: the very next queries see both.
                    await _assert_oracle_exact(c, oracle)
                    knn = (await c.knn(_rect(9000).lo, 1)
                           ).raise_for_error()
                    assert knn.ids[0] == 9000

                    health = await c.healthz()
                    ing = health["ingest"]
                    assert ing["wal"]["last_lsn"] == 2
                    assert ing["delta"]["live"] == 1
                    assert ing["delta"]["live_tombstones"] == 1
                    assert ing["writes"]["acked"] == 2
                    ready = await c.readyz()
                    assert ready["ingest"]["enabled"] is True
                    assert ready["ingest"]["overloaded"] is False

        try:
            run(scenario())
        finally:
            tree.store.close()

    def test_upsert_is_last_writer_wins(self, tmp_path):
        tree_path = str(tmp_path / "tree.rt")
        oracle = _build_base(tree_path, n=50)
        tree, state = _open_serving(tree_path)

        async def scenario():
            async with QueryServer(tree, ingest=state) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as c:
                    first = Rect((0.0, 0.0), (0.01, 0.01))
                    second = Rect((0.8, 0.8), (0.81, 0.81))
                    (await c.insert(7000, first)).raise_for_error()
                    (await c.insert(7000, second)).raise_for_error()
                    oracle[7000] = (second.lo, second.hi)
                    await _assert_oracle_exact(c, oracle)

        try:
            run(scenario())
        finally:
            tree.store.close()

    def test_in_process_data_id_outside_int64_is_refused(self, tmp_path):
        """A ``Request`` built in code skips the wire decoder; the write
        path runs the same int64 check, so nothing reaches the WAL and
        overlapping reads keep answering."""
        tree_path = str(tmp_path / "tree.rt")
        oracle = _build_base(tree_path, n=50)
        tree, state = _open_serving(tree_path)
        window = Rect((0.4, 0.4), (0.6, 0.6))

        async def scenario():
            async with QueryServer(tree, ingest=state) as server:
                before = state.wal.last_lsn
                for op, data_id in (("insert", 2 ** 64),
                                    ("insert", -2 ** 63 - 1),
                                    ("delete", 2 ** 63)):
                    resp = await server.handle_request(Request(
                        op=op, id=3, data_id=data_id,
                        rect=[[0.5, 0.5], [0.5, 0.5]]))
                    assert (resp.ok, resp.error) == (False, "BadRequest")
                    assert "64-bit" in resp.message
                assert state.wal.last_lsn == before
                resp = await server.handle_request(Request(
                    op="search", id=4,
                    rect=[list(window.lo), list(window.hi)]))
                assert resp.ok and resp.ids == _brute_search(oracle, window)

        try:
            run(scenario())
        finally:
            tree.store.close()

    def test_writes_rejected_without_ingest(self, tmp_path):
        tree_path = str(tmp_path / "tree.rt")
        _build_base(tree_path, n=50)
        store = FilePageStore.open_existing(tree_path)
        tree = PagedRTree.from_store(store)

        async def scenario():
            async with QueryServer(tree) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as c:
                    resp = await c.insert(1, _rect(1))
                    assert resp.ok is False
                    assert resp.error == "BadRequest"
                    resp = await c.request(Request(op="merge"))
                    assert resp.error == "MergeFailed"

        try:
            run(scenario())
        finally:
            store.close()

    def test_overload_sheds_with_typed_error(self, tmp_path):
        tree_path = str(tmp_path / "tree.rt")
        _build_base(tree_path, n=50)
        tree, state = _open_serving(tree_path, max_wal_bytes=1)

        async def scenario():
            async with QueryServer(tree, ingest=state) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as c:
                    ok = await c.insert(6000, _rect(6000))
                    assert ok.ok is True  # log was empty: admitted
                    shed = await c.insert(6001, _rect(6001))
                    assert shed.ok is False
                    assert shed.error == "IngestOverloaded"
                    # Shedding happened before any append: reads still
                    # serve and nothing durable changed for 6001.
                    q = Rect(_rect(6001).lo, _rect(6001).hi)
                    resp = (await c.search(q)).raise_for_error()
                    assert 6001 not in resp.ids
                    ready = await c.readyz()
                    assert ready["ingest"]["overloaded"] is True
                    health = await c.healthz()
                    assert health["ingest"]["writes"]["shed"] == 1

        try:
            run(scenario())
        finally:
            tree.store.close()
        assert state.wal.last_lsn == 1  # the shed write has no LSN

    def test_ingest_server_refuses_a_worker_pool(self, tmp_path):
        """Pool workers map the packed file and cannot see the delta,
        so an ingest server with workers is refused outright."""
        tree_path = str(tmp_path / "tree.rt")
        _build_base(tree_path, n=50)
        tree, state = _open_serving(tree_path)
        try:
            with pytest.raises(ValueError, match="workers=0"):
                QueryServer(tree, ingest=state, workers=2)
        finally:
            state.close()
            tree.store.close()


class TestMergeCutover:
    def test_merge_bumps_generation_answers_unchanged(self, tmp_path):
        tree_path = str(tmp_path / "tree.rt")
        oracle = _build_base(tree_path)
        tree, state = _open_serving(tree_path)

        async def scenario():
            async with QueryServer(tree, ingest=state) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as c:
                    for i in range(40):
                        (await c.insert(8000 + i, _rect(8000 + i))
                         ).raise_for_error()
                        oracle[8000 + i] = (_rect(8000 + i).lo,
                                            _rect(8000 + i).hi)
                    for i in range(5):
                        (await c.delete(i)).raise_for_error()
                        del oracle[i]
                    await _assert_oracle_exact(c, oracle)

                    data = await c.merge()
                    assert data["merged"] is True
                    assert data["generation"] == 2
                    assert data["merge"]["ops_applied"] == 45
                    assert server.generation == 2
                    # Zero-downtime equivalence: identical answers
                    # through the new generation.
                    await _assert_oracle_exact(c, oracle)
                    health = await c.healthz()
                    assert health["ingest"]["merge"]["merges_total"] == 1
                    assert health["ingest"]["delta"]["live"] == 0

                    # Writes keep flowing after cutover, LSNs continue.
                    r = (await c.insert(9999, _rect(9999))
                         ).raise_for_error()
                    assert r.data["lsn"] == 46
                    oracle[9999] = (_rect(9999).lo, _rect(9999).hi)
                    await _assert_oracle_exact(c, oracle)

                    # A second merge drains the post-cutover write.
                    data = await c.merge()
                    assert data["merged"] is True
                    assert data["generation"] == 3
                    await _assert_oracle_exact(c, oracle)

        run(scenario())

    def test_a_merge_forks_one_child(self, tmp_path, monkeypatch):
        """The re-pack and the fsck of the generation it commits share
        one forked child; the cutover forks no second one."""
        tree_path = str(tmp_path / "tree.rt")
        oracle = _build_base(tree_path, n=50)
        tree, state = _open_serving(tree_path)
        real_run_in_child = repro.serve.server.run_in_child
        forks = []

        def counting(what, fn, *args):
            forks.append(what)
            return real_run_in_child(what, fn, *args)

        monkeypatch.setattr(repro.serve.server, "run_in_child", counting)

        async def scenario():
            async with QueryServer(tree, ingest=state) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as c:
                    for i in range(8000, 8010):
                        (await c.insert(i, _rect(i))).raise_for_error()
                        oracle[i] = (_rect(i).lo, _rect(i).hi)
                    data = await c.merge()
                    assert data["merged"] is True
                    assert server.generation == 2
                    assert forks == ["merge"]
                    await _assert_oracle_exact(c, oracle)

        run(scenario())

    def test_served_generations_are_never_written(self, tmp_path):
        """The merge maps its base read-only, and neither its cutover
        nor a reload writes the generation it retires."""
        tree_path = str(tmp_path / "tree.rt")
        _build_base(tree_path)
        base_sha = _sha256(tree_path)
        tree, state = _open_serving(tree_path)

        async def scenario():
            async with QueryServer(tree, ingest=state,
                                   allow_reload=True) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as c:
                    for i in range(10):
                        (await c.insert(8000 + i, _rect(8000 + i))
                         ).raise_for_error()
                    assert (await c.merge())["generation"] == 2
                    assert _sha256(tree_path) == base_sha
                    merged = server.generation_path
                    merged_sha = _sha256(merged)
                    data = await c.reload(merged)
                    assert data["generation"] == 3
                    assert _sha256(merged) == merged_sha
                    assert _sha256(tree_path) == base_sha

        run(scenario())

    def test_failed_merge_does_not_block_the_next(self, tmp_path,
                                                   monkeypatch):
        """A merge that fails unfreezes the delta, so the next merge runs
        instead of answering "already in flight".  Two failures: a
        re-pack hitting a plain ``OSError`` (a full disk) answers
        ``MergeFailed``; a cutover whose reload is rejected *after* the
        pointer commit answers ``ReloadRejected`` and keeps the old
        generation serving."""
        tree_path = str(tmp_path / "tree.rt")
        oracle = _build_base(tree_path, n=50)
        tree, state = _open_serving(tree_path)
        real_merge = QueryServer._merge_blocking
        real_swap = QueryServer._swap_in
        failures = []

        def full_disk_once(server):
            if "merge" not in failures:
                failures.append("merge")
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_merge(server)

        def reject_once(server, path, report):
            if "reload" not in failures:
                failures.append("reload")
                raise ReloadRejected(f"fsck of {path} failed")
            return real_swap(server, path, report)

        monkeypatch.setattr(QueryServer, "_merge_blocking", full_disk_once)
        monkeypatch.setattr(QueryServer, "_swap_in", reject_once)

        async def insert(c, first, count):
            for i in range(first, first + count):
                (await c.insert(i, _rect(i))).raise_for_error()
                oracle[i] = (_rect(i).lo, _rect(i).hi)

        async def scenario():
            async with QueryServer(tree, ingest=state) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as c:
                    await insert(c, 8000, 10)
                    resp = await c.request(Request(op="merge"))
                    assert resp.error == "MergeFailed"
                    assert "OSError" in resp.message
                    assert state.merging is False
                    assert server.generation == 1
                    await _assert_oracle_exact(c, oracle)

                    resp = await c.request(Request(op="merge"))
                    assert resp.error == "ReloadRejected"
                    assert state.merging is False
                    assert server.generation == 1
                    await _assert_oracle_exact(c, oracle)

                    await insert(c, 8100, 5)
                    data = await c.merge()
                    assert data["merged"] is True
                    assert data["merge"]["ops_applied"] == 5
                    assert server.generation == 2
                    await _assert_oracle_exact(c, oracle)

        run(scenario())
        assert failures == ["merge", "reload"]

    def test_merge_after_rejected_cutover_adopts_committed_generation(
            self, tmp_path, monkeypatch):
        """A cutover rejected after the pointer commit leaves the
        committed generation unserved.  The next merge, even with
        nothing new sealed, cuts over to it and drains the delta and
        the WAL's pending count."""
        tree_path = str(tmp_path / "tree.rt")
        oracle = _build_base(tree_path, n=50)
        tree, state = _open_serving(tree_path)
        real_swap = QueryServer._swap_in
        rejected = []

        def reject_once(server, path, report):
            if not rejected:
                rejected.append(path)
                raise ReloadRejected(f"fsck of {path} failed")
            return real_swap(server, path, report)

        monkeypatch.setattr(QueryServer, "_swap_in", reject_once)

        async def scenario():
            async with QueryServer(tree, ingest=state) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as c:
                    for i in range(8000, 8005):
                        (await c.insert(i, _rect(i))).raise_for_error()
                        oracle[i] = (_rect(i).lo, _rect(i).hi)
                    resp = await c.request(Request(op="merge"))
                    assert resp.error == "ReloadRejected"
                    committed, pointer = resolve_current(tree_path)
                    assert pointer is not None
                    assert rejected == [committed]
                    assert server.generation_path != committed

                    data = await c.merge()
                    assert data["merged"] is True
                    assert data["merge"]["ops_applied"] == 0
                    assert data["merge"]["size"] == len(oracle)
                    assert server.generation == 2
                    assert server.generation_path == committed
                    assert resolve_current(tree_path)[0] == committed
                    health = await c.healthz()
                    assert health["ingest"]["delta"]["live"] == 0
                    assert health["ingest"]["wal"]["pending_ops"] == 0
                    assert state.merging is False
                    await _assert_oracle_exact(c, oracle)

                    # Serving the committed generation, a merge with
                    # nothing new is a no-op again.
                    data = await c.merge()
                    assert data["merged"] is False

        run(scenario())

    def test_merge_with_nothing_pending_is_a_noop(self, tmp_path):
        tree_path = str(tmp_path / "tree.rt")
        _build_base(tree_path, n=50)
        tree, state = _open_serving(tree_path)

        async def scenario():
            async with QueryServer(tree, ingest=state) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as c:
                    data = await c.merge()
                    assert data["merged"] is False
                    assert state.merging is False

        try:
            run(scenario())
        finally:
            tree.store.close()

    def test_durability_across_restart_and_offline_merge(self, tmp_path):
        tree_path = str(tmp_path / "tree.rt")
        oracle = _build_base(tree_path)
        tree, state = _open_serving(tree_path)

        async def write_phase():
            async with QueryServer(tree, ingest=state) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as c:
                    for i in range(20):
                        (await c.insert(4000 + i, _rect(4000 + i))
                         ).raise_for_error()
                        oracle[4000 + i] = (_rect(4000 + i).lo,
                                            _rect(4000 + i).hi)
                    (await c.delete(10)).raise_for_error()
                    del oracle[10]

        run(write_phase())
        tree.store.close()

        async def read_phase():
            tree2, state2 = _open_serving(tree_path)
            try:
                async with QueryServer(tree2, ingest=state2) as server:
                    host, port = server.address
                    async with await QueryClient.connect(host, port) as c:
                        await _assert_oracle_exact(c, oracle)
            finally:
                tree2.store.close()

        # Every acked write survives the restart, via WAL replay...
        run(read_phase())
        # ...and via a merge between restarts (ops now in the base).
        state3, _ = IngestState.open(tree_path, ndim=NDIM)
        state3.wal.seal_active()
        state3.close()
        report = merge_segments(tree_path)
        assert report is not None and report.ops_applied == 21
        run(read_phase())


class TestWriterSoak:
    def test_concurrent_writers_and_readers_match_oracle(self, tmp_path):
        """4 writers (disjoint id ranges, occasional deletes) race 2
        readers and a mid-soak merge; the final answers must be
        oracle-exact and every ack monotone in LSN."""
        tree_path = str(tmp_path / "tree.rt")
        oracle = _build_base(tree_path)
        tree, state = _open_serving(tree_path)
        per_writer = 30

        async def writer(host, port, lane):
            lsns = []
            async with await QueryClient.connect(host, port) as c:
                base_id = 10_000 + lane * 1000
                for k in range(per_writer):
                    data_id = base_id + k
                    r = (await c.insert(data_id, _rect(data_id))
                         ).raise_for_error()
                    lsns.append(r.data["lsn"])
                    oracle[data_id] = (_rect(data_id).lo,
                                       _rect(data_id).hi)
                    if k % 7 == 3:
                        (await c.delete(data_id)).raise_for_error()
                        del oracle[data_id]
            return lsns

        async def reader(host, port, stop):
            async with await QueryClient.connect(host, port) as c:
                while not stop.is_set():
                    for q in QUERIES[:3]:
                        (await c.search(q)).raise_for_error()
                    await asyncio.sleep(0)

        async def scenario():
            async with QueryServer(tree, ingest=state,
                                   max_inflight=16,
                                   max_queue=64) as server:
                host, port = server.address
                stop = asyncio.Event()
                readers = [asyncio.create_task(reader(host, port, stop))
                           for _ in range(2)]
                lanes = await asyncio.gather(
                    *[writer(host, port, lane) for lane in range(4)])
                stop.set()
                await asyncio.gather(*readers)
                # Acks are globally unique and each lane sees them in
                # strictly increasing order (single-flight WAL).
                flat = [l for lane in lanes for l in lane]
                assert len(set(flat)) == len(flat)
                for lane in lanes:
                    assert lane == sorted(lane)
                async with await QueryClient.connect(host, port) as c:
                    await _assert_oracle_exact(c, oracle)
                    data = await c.merge()
                    assert data["merged"] is True
                    await _assert_oracle_exact(c, oracle)

        run(scenario())


class TestMergeKillResume:
    def test_killed_merge_resumes_with_zero_lost_acked_writes(
            self, tmp_path):
        """Serve + write, kill the re-pack mid-build, restart serving
        (old generation + replay — every ack visible), re-run the
        merge to completion, restart again on the new generation."""
        tree_path = str(tmp_path / "tree.rt")
        oracle = _build_base(tree_path)
        tree, state = _open_serving(tree_path)

        async def write_phase():
            async with QueryServer(tree, ingest=state) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as c:
                    for i in range(25):
                        (await c.insert(3000 + i, _rect(3000 + i))
                         ).raise_for_error()
                        oracle[3000 + i] = (_rect(3000 + i).lo,
                                            _rect(3000 + i).hi)
                    (await c.delete(1)).raise_for_error()
                    del oracle[1]

        run(write_phase())
        tree.store.close()

        # Seal (as begin_merge would) and kill the re-pack mid-build.
        seal_state, _ = IngestState.open(tree_path, ndim=NDIM)
        seal_state.wal.seal_active()
        seal_state.close()
        with pytest.raises(SimulatedCrash):
            merge_segments(tree_path,
                           crash_plan=CrashPlan(5, tear_bytes=3))

        async def serve_and_check():
            tree2, state2 = _open_serving(tree_path)
            try:
                async with QueryServer(tree2, ingest=state2) as server:
                    host, port = server.address
                    async with await QueryClient.connect(host,
                                                         port) as c:
                        await _assert_oracle_exact(c, oracle)
            finally:
                tree2.store.close()
            return state2

        # The kill lost nothing: the old generation still serves and
        # replay covers every acked write.
        current, pointer = resolve_current(tree_path)
        assert current == tree_path and pointer is None
        run(serve_and_check())

        # Resume: the merge is a pure function of the sealed bytes.
        report = merge_segments(tree_path)
        assert report is not None
        current, pointer = resolve_current(tree_path)
        assert current == report.path
        assert pointer is not None and pointer.merged_lsn == 26
        run(serve_and_check())


class TestDefaults:
    def test_default_wal_limit_is_sane(self):
        assert DEFAULT_WAL_LIMIT == 64 << 20
