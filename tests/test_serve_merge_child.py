"""A served merge re-packs in a forked child: the child's crash
semantics, its output bytes and its telemetry.

A child killed mid-merge fails the merge with ``MergeFailed`` naming the
signal, while reads and acked writes keep answering, and the next merge
converges.  An exception the re-pack or the cutover's ``fsck`` raises in
the child answers as it would in the server, by type and message.  A
server killed mid-merge takes its child with it.  A served
merge writes the bytes an offline ``merge_segments`` writes, and its
spans and metrics land in the server's tracer and registry.  No process
outlives any of it."""

import asyncio
import errno
import hashlib
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np

import repro.fsck
import repro.ingest.merge
from repro import RectArray, SortTileRecursive, bulk_load, obs
from repro.core.geometry import Rect
from repro.ingest import IngestState, merge_segments
from repro.rtree.paged import PagedRTree
from repro.serve import QueryClient, QueryServer, Request
from repro.storage import FilePageStore, MmapPageStore
from repro.storage.integrity import TRAILER_SIZE, IntegrityError
from repro.storage.page import required_page_size

CAPACITY = 8
NDIM = 2
N_BASE = 300
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
WHOLE = Rect((-1.0, -1.0), (2.0, 2.0))


def _rect(i: int) -> Rect:
    lo = ((i % 97) / 100.0, (i % 89) / 100.0)
    return Rect(lo, (lo[0] + 0.01, lo[1] + 0.01))


def _build_base(tree_path):
    """Durable packed base of ids 0..N_BASE-1; returns the oracle."""
    rng = np.random.default_rng(11)
    lo = rng.random((N_BASE, NDIM)) * 0.9
    rects = RectArray(lo, lo + rng.random((N_BASE, NDIM)) * 0.05)
    store = FilePageStore(tree_path,
                          required_page_size(CAPACITY, NDIM) + TRAILER_SIZE,
                          checksums=True)
    bulk_load(rects, SortTileRecursive(), capacity=CAPACITY, store=store)
    store.close()
    return {i: (tuple(rects.los[i]), tuple(rects.his[i]))
            for i in range(N_BASE)}


def _open_serving(tree_path):
    state, base_path = IngestState.open(tree_path, ndim=NDIM)
    return PagedRTree.from_store(MmapPageStore.open_existing(base_path)), \
        state


def _matching(oracle, rect: Rect):
    return sorted(i for i, (lo, hi) in oracle.items()
                  if all(lo[d] <= rect.hi[d] and hi[d] >= rect.lo[d]
                         for d in range(NDIM)))


async def _assert_exactly_once(client, oracle):
    """Every live id answers once, and nothing else answers."""
    ids = (await client.search(WHOLE)).raise_for_error().ids
    assert len(ids) == len(set(ids))
    assert sorted(ids) == sorted(oracle)
    for x in (0.0, 0.5):
        q = Rect((x, x), (x + 0.4, x + 0.4))
        assert (await client.search(q)).raise_for_error().ids == \
            _matching(oracle, q)


async def _write(client, oracle, data_id, delete=False):
    if delete:
        (await client.delete(data_id)).raise_for_error()
        oracle.pop(data_id, None)
    else:
        (await client.insert(data_id, _rect(data_id))).raise_for_error()
        oracle[data_id] = (_rect(data_id).lo, _rect(data_id).hi)


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _stalled_merge(tree_path, **kwargs):
    """``merge_segments`` that waits first, so a test can kill it."""
    time.sleep(60.0)
    return merge_segments(tree_path, **kwargs)


def _gone_or_zombie(pid: int, within_s: float) -> bool:
    deadline = time.monotonic() + within_s
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return True
        if state == "Z":
            return True
        time.sleep(0.05)
    return False


def test_killed_merge_child_fails_the_merge_and_the_next_converges(
        tmp_path, monkeypatch):
    tree_path = str(tmp_path / "tree.rt")
    oracle = _build_base(tree_path)
    tree, state = _open_serving(tree_path)
    monkeypatch.setattr(repro.ingest.merge, "merge_segments",
                        _stalled_merge)

    async def scenario():
        async with QueryServer(tree, ingest=state) as server:
            host, port = server.address
            async with await QueryClient.connect(host, port) as c, \
                    await QueryClient.connect(host, port) as admin:
                for i in range(5000, 5030):
                    await _write(c, oracle, i)
                for i in range(0, 20):
                    await _write(c, oracle, i, delete=True)
                merge = asyncio.ensure_future(
                    admin.request(Request(op="merge")))
                child = None
                for _ in range(500):
                    child = next((p for p in multiprocessing
                                  .active_children()
                                  if p.name == "repro-merge-child"), None)
                    if child is not None:
                        break
                    await asyncio.sleep(0.02)
                assert child is not None, "no merge child was forked"
                # The stalled child holds the merge; reads and acked
                # writes keep answering beside it.
                for i in range(5100, 5110):
                    await _write(c, oracle, i)
                await _write(c, oracle, 5000, delete=True)
                await _assert_exactly_once(c, oracle)
                os.kill(child.pid, signal.SIGKILL)
                resp = await asyncio.wait_for(merge, 30.0)
                assert resp.error == "MergeFailed"
                assert "SIGKILL" in resp.message
                assert state.merging is False
                assert server.generation == 1
                await _assert_exactly_once(c, oracle)

                monkeypatch.undo()
                await _write(c, oracle, 5200)
                data = await admin.merge()
                assert data["merged"] is True
                assert data["merge"]["size"] == len(oracle)
                assert server.generation == 2
                await _assert_exactly_once(c, oracle)
                health = await c.healthz()
                assert health["ingest"]["delta"]["live"] == 0
        assert multiprocessing.active_children() == []

    asyncio.run(scenario())


def _full_disk_merge(tree_path, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


def _failing_fsck(path, **kwargs):
    raise IntegrityError(f"cannot verify {os.path.basename(path)}")


def test_an_exception_in_the_child_crosses_back_by_type_and_message(
        tmp_path, monkeypatch):
    tree_path = str(tmp_path / "tree.rt")
    oracle = _build_base(tree_path)
    tree, state = _open_serving(tree_path)

    async def scenario():
        async with QueryServer(tree, ingest=state) as server:
            host, port = server.address
            async with await QueryClient.connect(host, port) as c:
                await _write(c, oracle, 9000)
                monkeypatch.setattr(repro.ingest.merge, "merge_segments",
                                    _full_disk_merge)
                resp = await c.request(Request(op="merge"))
                assert resp.error == "MergeFailed"
                assert resp.message == ("OSError: [Errno 28] No space "
                                        "left on device")
                monkeypatch.undo()
                monkeypatch.setattr(repro.fsck, "fsck", _failing_fsck)
                resp = await c.request(Request(op="merge"))
                assert resp.error == "ReloadRejected"
                gen = resp.message.split("fsck of ")[1].split(" failed")[0]
                assert resp.message == (
                    f"fsck of {gen} failed: IntegrityError: cannot verify "
                    f"{os.path.basename(gen)}")
                assert server.generation == 1
                monkeypatch.undo()
                data = await c.merge()
                assert data["merged"] is True
                assert server.generation == 2
                await _assert_exactly_once(c, oracle)
        assert multiprocessing.active_children() == []

    asyncio.run(scenario())


#: Serves ``argv`` like ``python -m repro``, with a merge that records
#: the pid of the process running it and then stalls.
_STALLED_SERVER = """\
import os, sys, time
import repro.ingest.merge as merge
from repro.cli import main

def stalled(tree_path, **kwargs):
    with open(os.environ["MERGE_PID_FILE"] + ".tmp", "w") as f:
        f.write(str(os.getpid()))
    os.rename(os.environ["MERGE_PID_FILE"] + ".tmp",
              os.environ["MERGE_PID_FILE"])
    time.sleep(60.0)

merge.merge_segments = stalled
sys.exit(main(sys.argv[1:]))
"""


def test_server_killed_mid_merge_takes_its_child_and_restart_converges(
        tmp_path):
    tree_path = str(tmp_path / "tree.rt")
    oracle = _build_base(tree_path)
    pid_file = str(tmp_path / "merge.pid")
    env = dict(os.environ, PYTHONPATH=SRC, MERGE_PID_FILE=pid_file)
    server = subprocess.Popen(
        [sys.executable, "-c", _STALLED_SERVER, "serve", tree_path,
         "--port", "0", "--ingest", "--no-manifest"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        stdin=subprocess.DEVNULL, start_new_session=True, text=True)
    try:
        line = server.stdout.readline()
        assert line.startswith("serving"), line
        port = int(line.split(" on ")[1].split(" ")[0].rsplit(":", 1)[1])

        async def write_then_merge():
            async with await QueryClient.connect("127.0.0.1", port) as c:
                for i in range(6000, 6040):
                    await _write(c, oracle, i)
                for i in range(40, 50):
                    await _write(c, oracle, i, delete=True)
                merge = asyncio.ensure_future(c.request(Request(op="merge")))
                for _ in range(500):
                    if os.path.exists(pid_file):
                        break
                    await asyncio.sleep(0.02)
                merge.cancel()

        asyncio.run(write_then_merge())
        with open(pid_file) as f:
            child = int(f.read())
        assert child != server.pid
        os.kill(server.pid, signal.SIGKILL)
        server.wait(timeout=10)
        assert _gone_or_zombie(child, 10.0)
    finally:
        if server.poll() is None:
            os.killpg(server.pid, signal.SIGKILL)
            server.wait()
        server.stdout.close()

    copy = tmp_path / "copy"
    copy.mkdir()
    copy_tree = str(copy / "tree.rt")
    shutil.copyfile(tree_path, copy_tree)
    shutil.copytree(tree_path + ".ingest", copy_tree + ".ingest")
    offline = merge_segments(copy_tree)
    assert offline is not None

    tree, state = _open_serving(tree_path)

    async def restart_and_merge():
        async with QueryServer(tree, ingest=state) as restarted:
            host, port = restarted.address
            async with await QueryClient.connect(host, port) as c:
                data = await c.merge()
                assert data["merged"] is True
                await _assert_exactly_once(c, oracle)
                return data["path"]
        assert multiprocessing.active_children() == []

    served = asyncio.run(restart_and_merge())
    assert os.path.basename(served) == os.path.basename(offline.path)
    assert _sha256(served) == _sha256(offline.path)


def test_served_merge_writes_the_offline_merge_bytes(tmp_path):
    tree_path = str(tmp_path / "tree.rt")
    oracle = _build_base(tree_path)
    tree, state = _open_serving(tree_path)
    copy_tree = str(tmp_path / "copy" / "tree.rt")

    async def scenario():
        async with QueryServer(tree, ingest=state) as server:
            host, port = server.address
            async with await QueryClient.connect(host, port) as c:
                for i in range(7000, 7050):
                    await _write(c, oracle, i)
                for i in range(100, 130):
                    await _write(c, oracle, i, delete=True)
                await _write(c, oracle, 7003)  # an upsert
                # Every write above is acked, so fsync'd: the WAL on
                # disk is the pre-merge state.
                os.makedirs(os.path.dirname(copy_tree))
                shutil.copyfile(tree_path, copy_tree)
                shutil.copytree(tree_path + ".ingest",
                                copy_tree + ".ingest")
                data = await c.merge()
                assert data["merged"] is True
                child = data["merge"]["child"]
                assert child["peak_rss_mb"] > 0
                assert 0 <= child["private_dirty_mb"] <= child["peak_rss_mb"]
                stats = await c.stats()
                assert stats["ingest"]["merge"]["child"] == child
                await _assert_exactly_once(c, oracle)
                return data["path"]

    served = asyncio.run(scenario())
    assert multiprocessing.active_children() == []
    copy_state, _ = IngestState.open(copy_tree, ndim=NDIM)
    copy_state.wal.seal_active()
    copy_state.close()
    offline = merge_segments(copy_tree)
    assert offline is not None
    assert os.path.basename(served) == os.path.basename(offline.path)
    assert _sha256(served) == _sha256(offline.path)


def test_served_merge_telemetry_lands_in_the_server_tracer(tmp_path,
                                                          monkeypatch):
    """The child's spans and metrics join the server's; an ``fsck``
    wrapped at module level (as ``perfbench`` wraps it) is the one the
    cutover's child runs."""
    tree_path = str(tmp_path / "tree.rt")
    oracle = _build_base(tree_path)
    tree, state = _open_serving(tree_path)
    real_fsck = repro.fsck.fsck

    def spanned_fsck(*args, **kwargs):
        with obs.span("test.verify"):
            return real_fsck(*args, **kwargs)

    monkeypatch.setattr(repro.fsck, "fsck", spanned_fsck)

    async def scenario():
        async with QueryServer(tree, ingest=state) as server:
            host, port = server.address
            async with await QueryClient.connect(host, port) as c:
                for i in range(8000, 8020):
                    await _write(c, oracle, i)
                with obs.span("test.merge_request"):
                    data = await c.merge()
                assert data["merged"] is True

    with obs.telemetry() as (tracer, registry):
        asyncio.run(scenario())
    names = [s.name for s in tracer.spans]
    assert names.count("ingest.merge") == 1
    assert names.count("test.verify") == 1
    assert len({s.index for s in tracer.spans}) == len(tracer.spans)
    merge = next(s for s in tracer.spans if s.name == "ingest.merge")
    request = next(s for s in tracer.spans
                   if s.name == "test.merge_request")
    assert request.start <= merge.start <= merge.end <= request.end
    assert registry.get("ingest.merges").value == 1
    assert registry.get("ingest.merged_ops").value == 20
    assert multiprocessing.active_children() == []
