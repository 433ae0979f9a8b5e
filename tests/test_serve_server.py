"""End-to-end server tests over real sockets: oracle-exact answers,
degraded reads over corrupted durable files, fsck-quarantine startup, and
the health endpoints."""

import asyncio
import json
import struct

import pytest

from repro import RectArray, SortTileRecursive, bulk_load
from repro.core.geometry import Rect
from repro.cli import main as cli_main
from repro.fsck import fsck, read_quarantine, write_quarantine
from repro.queries import point_queries, region_queries
from repro.serve import REQUEST_LINE_LIMIT, QueryClient, QueryServer, Request
from repro.storage import FilePageStore, MemoryPageStore
from repro.storage.faults import corrupt_pages
from repro.storage.integrity import TRAILER_SIZE
from repro.storage.page import required_page_size

CAPACITY = 25
NDIM = 2


def _build(rng, n=2_000, store=None, capacity=CAPACITY):
    rects = RectArray.from_points(rng.random((n, NDIM)))
    tree, _ = bulk_load(rects, SortTileRecursive(), capacity=capacity,
                        store=store or MemoryPageStore(4096))
    return rects, tree


def _durable_store(tmp_path, name="tree.pages", capacity=CAPACITY):
    page_size = required_page_size(capacity, NDIM) + TRAILER_SIZE
    return FilePageStore(tmp_path / name, page_size, checksums=True)


def run(coro):
    """Drive one async test scenario to completion."""
    return asyncio.run(coro)


class TestServedAnswersMatchOracle:
    def test_search_point_count_over_sockets(self, rng):
        rects, tree = _build(rng)
        oracle = tree.searcher(256)
        regions = region_queries(0.05, 40, seed=9)
        points = point_queries(40, seed=10)

        async def scenario():
            async with QueryServer(tree, buffer_pages=64) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    assert (await client.ping())["version"] == 1
                    for q in regions:
                        resp = (await client.search(q)).raise_for_error()
                        expected = sorted(int(x) for x in oracle.search(q))
                        assert resp.ids == expected
                        assert resp.count == len(expected)
                        assert not resp.partial
                        counted = (await client.count(q)).raise_for_error()
                        assert counted.count == len(expected)
                        assert counted.ids is None  # count keeps ids off the wire
                    for q in points:
                        resp = (await client.point(q.lo)).raise_for_error()
                        expected = sorted(int(x)
                                          for x in oracle.point_query(q.lo))
                        assert resp.ids == expected

        run(scenario())

    def test_many_clients_interleave(self, rng):
        rects, tree = _build(rng)
        oracle = tree.searcher(256)
        queries = list(region_queries(0.1, 30, seed=3))

        async def one_client(host, port, my_queries):
            async with await QueryClient.connect(host, port) as client:
                out = []
                for q in my_queries:
                    resp = (await client.search(q)).raise_for_error()
                    out.append((q, resp.ids))
                return out

        async def scenario():
            async with QueryServer(tree, buffer_pages=64) as server:
                host, port = server.address
                results = await asyncio.gather(*[
                    one_client(host, port, queries[i::5]) for i in range(5)
                ])
            for batch in results:
                for q, ids in batch:
                    assert ids == sorted(int(x) for x in oracle.search(q))

        run(scenario())

    def test_malformed_lines_get_typed_errors_and_session_survives(self, rng):
        _, tree = _build(rng, n=500)

        async def scenario():
            async with QueryServer(tree) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not json\n")
                writer.write(b'{"op": "explode", "id": 3}\n')
                writer.write(b'{"op": "search", "id": 4, '
                             b'"rect": [[0.1, 0.1], [0.2, 0.2]]}\n')
                await writer.drain()
                import json
                first = json.loads(await reader.readline())
                second = json.loads(await reader.readline())
                third = json.loads(await reader.readline())
                assert first["ok"] is False
                assert first["error"] == "BadRequest"
                assert second["error"] == "BadRequest"
                assert second["id"] == 3  # parseable id is echoed back
                assert third["ok"] is True and third["id"] == 4
                writer.close()
                await writer.wait_closed()

        run(scenario())

    def test_oversized_request_line_gets_one_bad_request_then_eof(self, rng):
        _, tree = _build(rng, n=500)
        line = (b'{"op": "ping", "id": 5, "pad": "' + b"x" * 70_000
                + b'"}\n')
        assert len(line) > REQUEST_LINE_LIMIT

        async def scenario():
            async with QueryServer(tree) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(line)
                await writer.drain()
                replies = (await reader.read()).splitlines()  # to EOF
                writer.close()
                await writer.wait_closed()
                assert len(replies) == 1
                reply = json.loads(replies[0])
                assert reply["ok"] is False
                assert reply["error"] == "BadRequest"
                assert reply["id"] == 0 and "op" not in reply
                assert str(REQUEST_LINE_LIMIT) in reply["message"]
                # The server lives on; only that connection closed.
                async with await QueryClient.connect(host, port) as client:
                    assert (await client.ping())["version"] == 1
                    stats = await client.stats()
                assert stats["errors"] == {"BadRequest": 1}

        run(scenario())


class TestDegradedReadsOverCorruptFile:
    def test_corrupt_leaf_served_partial_and_quarantined(self, tmp_path, rng):
        store = _durable_store(tmp_path)
        rects, tree = _build(rng, store=store)
        leaf = tree.level_pages(0)[0]
        clean = sorted(int(x) for x in
                       tree.searcher(256).search(Rect((0.0,) * 2, (1.0,) * 2)))
        corrupt_pages(store, [(leaf, store.page_size * 4 + 3)])

        async def scenario():
            async with QueryServer(tree, buffer_pages=64) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    wide = [[0.0, 0.0], [1.0, 1.0]]
                    resp = (await client.search(wide)).raise_for_error()
                    assert resp.partial
                    assert resp.unreachable_subtrees == 1
                    assert set(resp.ids) < set(clean)  # strict subset
                    # The checksum failure put the page in the runtime
                    # quarantine: the next query skips it with no new I/O
                    # error, still honestly partial.
                    assert server.quarantine == {leaf}
                    failures = store.checksum_failures
                    again = (await client.search(wide)).raise_for_error()
                    assert again.partial
                    assert again.ids == resp.ids
                    assert store.checksum_failures == failures
                    health = await client.healthz()
                    assert health["quarantine"]["pages"] == 1
                    assert health["quarantine"]["added_at_runtime"] == 1
                    assert health["store"]["checksum_failures"] >= 1
                    # A query that never touches the bad subtree is exact.
                    narrow = (await client.search(
                        [[0.9, 0.9], [0.91, 0.91]])).raise_for_error()
                    assert isinstance(narrow.partial, bool)

        run(scenario())
        store.close()

    def test_corrupt_coordinate_is_a_page_fault(self, tmp_path, rng):
        """A NaN behind a valid CRC is the page's fault, not the
        client's: degraded reads absorb and quarantine the page, strict
        ones answer StoreUnavailable naming it."""
        store = _durable_store(tmp_path, capacity=50)
        _, tree = _build(rng, store=store, capacity=50)
        leaf = tree.level_pages(0)[0]
        data = bytearray(store.read_page(leaf))
        struct.pack_into("<d", data, 16 + 8, float("nan"))  # entry 0, lo[0]
        store.write_page(leaf, bytes(data))  # stamps a fresh trailer
        wide = [[0.0, 0.0], [1.0, 1.0]]

        async def scenario():
            async with QueryServer(tree, buffer_pages=64) as server:
                resp = await server.handle_request(Request(
                    op="search", id=1, rect=wide))
                assert resp.ok and resp.partial
                assert resp.unreachable_subtrees == 1
                assert server.quarantine == {leaf}
            async with QueryServer(tree, buffer_pages=64,
                                   degraded=False) as strict:
                resp = await strict.handle_request(Request(
                    op="search", id=2, rect=wide))
                assert resp.ok is False
                assert resp.error == "StoreUnavailable"
                assert f"page {leaf} of {store.path}" in resp.message
                assert "non-finite coordinates" in resp.message

        run(scenario())
        store.close()

    def test_strict_server_fails_queries_instead(self, tmp_path, rng):
        store = _durable_store(tmp_path)
        _, tree = _build(rng, store=store)
        leaf = tree.level_pages(0)[0]
        corrupt_pages(store, [(leaf, store.page_size * 4 + 3)])

        async def scenario():
            async with QueryServer(tree, buffer_pages=64,
                                   degraded=False) as server:
                resp = await server.handle_request(Request(
                    op="search", id=1, rect=[[0.0, 0.0], [1.0, 1.0]]))
                assert resp.ok is False
                assert resp.error == "StoreUnavailable"

        run(scenario())
        store.close()


class TestFsckQuarantineFeedsTheServer:
    def test_fsck_writes_quarantine_server_consumes_it(self, tmp_path, rng):
        store = _durable_store(tmp_path)
        rects, tree = _build(rng, store=store)
        leaves = tree.level_pages(0)[:2]
        meta = {"root": tree.root_page, "height": tree.height}
        for leaf in leaves:
            corrupt_pages(store, [(leaf, store.page_size * 4 + 1)])
        store.close()

        tree_path = tmp_path / "tree.pages"
        qpath = tmp_path / "tree.quarantine.json"
        exit_code = cli_main(["fsck", str(tree_path),
                              "--quarantine", str(qpath), "--no-manifest"])
        assert exit_code == 1  # corruption found
        quarantined = read_quarantine(qpath)
        assert quarantined == set(leaves)

        async def scenario():
            reopened = FilePageStore.open_existing(tree_path)
            from repro.rtree.paged import PagedRTree
            served = PagedRTree.from_store(reopened)
            assert served.root_page == meta["root"]
            async with QueryServer(served, buffer_pages=64,
                                   quarantine=quarantined) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    wide = [[0.0, 0.0], [1.0, 1.0]]
                    resp = (await client.search(wide)).raise_for_error()
                    assert resp.partial
                    assert resp.unreachable_subtrees == len(leaves)
                    # Quarantined pages are skipped *without I/O*: no
                    # checksum failures were even provoked.
                    assert reopened.checksum_failures == 0
            reopened.close()

        run(scenario())

    def test_clean_fsck_writes_empty_quarantine(self, tmp_path, rng):
        store = _durable_store(tmp_path)
        _build(rng, n=400, store=store)
        store.close()
        qpath = tmp_path / "clean.quarantine.json"
        exit_code = cli_main(["fsck", str(tmp_path / "tree.pages"),
                              "--quarantine", str(qpath), "--no-manifest"])
        assert exit_code == 0
        assert read_quarantine(qpath) == set()

    def test_read_quarantine_rejects_foreign_files(self, tmp_path):
        bogus = tmp_path / "not-quarantine.json"
        bogus.write_text('{"format": "something-else", "bad_pages": [1]}')
        with pytest.raises(ValueError, match="repro-quarantine-v1"):
            read_quarantine(bogus)
        report_like = tmp_path / "list.json"
        report_like.write_text('[1, 2, 3]')
        with pytest.raises(ValueError):
            read_quarantine(report_like)

    def test_quarantine_round_trip_helpers(self, tmp_path, rng):
        store = _durable_store(tmp_path)
        _build(rng, n=400, store=store)
        pid = 5
        corrupt_pages(store, [(pid, store.page_size * 4 + 2)])
        store.close()
        report = fsck(tmp_path / "tree.pages")
        assert report.bad_pages == [pid]
        assert report.as_dict()["bad_pages"] == [pid]
        path = write_quarantine(report, tmp_path / "q.json")
        assert read_quarantine(path) == {pid}


class TestHealthEndpoints:
    def test_payload_content(self, rng):
        _, tree = _build(rng, n=800)

        async def scenario():
            async with QueryServer(tree, buffer_pages=32) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    for q in region_queries(0.05, 10, seed=1):
                        (await client.search(q)).raise_for_error()
                    health = await client.healthz()
                    assert health["ok"] is True
                    assert health["tree"]["size"] == len(tree)
                    assert health["breaker"]["state"] == "closed"
                    assert health["requests_total"] >= 10
                    assert health["latency_s"]["window"] >= 10
                    assert health["latency_s"]["p99"] >= health["latency_s"]["p50"]
                    assert health["store"]["recoveries"] == 0
                    ready = await client.readyz()
                    assert ready["ready"] is True
                    assert ready["journal"]["recovered"] is False
                    stats = await client.stats()
                    assert stats["ready"] is True
                    assert stats["admission"]["admitted_total"] >= 10
                    # Everything must be JSON-able end-to-end (it just
                    # crossed a socket), and sessions tracked.
                    assert health["sessions"] == 1

        run(scenario())


class TestStatsSnapshotAndShutdownManifest:
    def test_snapshot_matches_the_on_wire_stats_payload(self, rng):
        _, tree = _build(rng, n=500)

        async def scenario():
            server = QueryServer(tree)
            for i in range(3):
                await server.handle_request(Request(
                    op="search", id=i + 1,
                    rect=[[0.1, 0.1], [0.2, 0.2]]))
            resp = await server.handle_request(Request(op="stats", id=9))
            snapshot = server.stats_snapshot()
            # The off-protocol snapshot is the same payload shutdown
            # files into the run manifest.
            assert snapshot.keys() == resp.data.keys()
            assert snapshot["requests_total"] >= 3
            assert snapshot["ready"] is True
            await server.aclose()

        run(scenario())

    def test_graceful_serve_shutdown_writes_a_run_manifest(
            self, rng, tmp_path, monkeypatch, capsys):
        import json

        from repro.serve import server as server_mod

        store = _durable_store(tmp_path)
        _build(rng, n=400, store=store)
        store.close()
        run_dir = tmp_path / "runs"

        async def _interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(server_mod.QueryServer, "serve_forever",
                            _interrupted)
        code = cli_main(["serve", str(tmp_path / "tree.pages"),
                         "--port", "0", "--run-dir", str(run_dir)])
        capsys.readouterr()
        assert code == 0
        (manifest_path,) = run_dir.glob("serve-*.json")
        with open(manifest_path) as f:
            manifest = json.load(f)
        snapshot = manifest["extra"]["serve"]
        assert snapshot["ready"] is True
        assert "admission" in snapshot and "breaker" in snapshot
