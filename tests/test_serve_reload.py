"""Zero-downtime generation cutover: the server's ``reload`` admin op.

The contract under test: a reload either *fully* replaces the serving
generation with an fsck-verified durable file, or is rejected with a
typed ``ReloadRejected`` and the old generation keeps serving untouched.
There is no third outcome, and queries in flight during the swap never
fail or silently mix generations.
"""

import asyncio
import struct

import pytest

from repro import RectArray, SortTileRecursive, bulk_load
from repro.core.geometry import Rect
from repro.queries import region_queries
from repro.rtree.paged import PagedRTree
from repro.serve import QueryClient, QueryServer, ReloadRejected, Request
from repro.storage import FilePageStore, StoreError
from repro.storage.faults import corrupt_pages
from repro.storage.integrity import TRAILER_SIZE
from repro.storage.page import required_page_size

CAPACITY = 25
NDIM = 2


def run(coro):
    return asyncio.run(coro)


def _durable_tree(tmp_path, rng, name, n=1500, offset=0.0):
    """Build a committed durable tree file; returns (rects, tree, path)."""
    rects = RectArray.from_points(rng.random((n, NDIM)) + offset)
    page_size = required_page_size(CAPACITY, NDIM) + TRAILER_SIZE
    path = tmp_path / name
    store = FilePageStore(path, page_size, checksums=True)
    tree, _ = bulk_load(rects, SortTileRecursive(), capacity=CAPACITY,
                        store=store)
    return rects, tree, path


def _query_around(point, pad=0.02):
    return Rect(tuple(x - pad for x in point), tuple(x + pad for x in point))


class TestReloadRejections:
    def test_disabled_by_default(self, tmp_path, rng):
        _, tree, path = _durable_tree(tmp_path, rng, "gen1.rt")

        async def scenario():
            async with QueryServer(tree) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    resp = await client.request(
                        Request(op="reload", path=str(path)))
                    assert not resp.ok
                    assert resp.error == "ReloadRejected"
                    assert "disabled" in resp.message
                    assert (await client.healthz())["generation"][
                        "reload_enabled"] is False

        run(scenario())
        tree.store.close()

    def test_missing_path_and_missing_file(self, tmp_path, rng):
        _, tree, _ = _durable_tree(tmp_path, rng, "gen1.rt")

        async def scenario():
            async with QueryServer(tree, allow_reload=True) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    resp = await client.request(Request(op="reload"))
                    assert not resp.ok and resp.error == "BadRequest"
                    with pytest.raises(ReloadRejected):
                        await client.reload(str(tmp_path / "nope.rt"))
                    health = await client.healthz()
                    assert health["generation"]["active"] == 1
                    assert health["generation"]["reloads"] == 0

        run(scenario())
        tree.store.close()

    def test_rejects_non_durable_file(self, tmp_path, rng):
        _, tree, _ = _durable_tree(tmp_path, rng, "gen1.rt")
        plain = tmp_path / "plain.pages"
        store = FilePageStore(plain, required_page_size(CAPACITY, NDIM))
        bulk_load(RectArray.from_points(rng.random((200, NDIM))),
                  SortTileRecursive(), capacity=CAPACITY, store=store)
        store.close()

        async def scenario():
            async with QueryServer(tree, allow_reload=True) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    with pytest.raises(ReloadRejected, match="superblock"):
                        await client.reload(str(plain))
                    assert (await client.healthz())["generation"][
                        "active"] == 1

        run(scenario())
        tree.store.close()

    def test_rejects_corrupt_file_and_keeps_serving(self, tmp_path, rng):
        rects, tree, _ = _durable_tree(tmp_path, rng, "gen1.rt")
        _, tree2, path2 = _durable_tree(tmp_path, rng, "gen2.rt")
        leaf = tree2.level_pages(0)[0]
        tree2.store.close()
        bad = FilePageStore.open_existing(path2)
        corrupt_pages(bad, [(leaf, bad.page_size * 4 + 1)])
        bad.close(flush=False)

        oracle = tree.searcher(256)
        query = _query_around(tuple(rects.los[0]))
        expected = sorted(int(x) for x in oracle.search(query))

        async def scenario():
            async with QueryServer(tree, allow_reload=True) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    with pytest.raises(ReloadRejected, match="bad page"):
                        await client.reload(str(path2))
                    # Old generation untouched and still correct.
                    resp = (await client.search(query)).raise_for_error()
                    assert resp.ids == expected
                    health = await client.healthz()
                    assert health["generation"]["active"] == 1
                    assert health["generation"]["reloads"] == 0

        run(scenario())
        tree.store.close()


    def test_structural_rejection_names_its_cause(self, tmp_path, rng):
        """A file with no bad page but a broken invariant is refused
        with the report's first message, not "0 bad page(s)"."""
        _, tree, _ = _durable_tree(tmp_path, rng, "gen1.rt")
        _, tree2, path2 = _durable_tree(tmp_path, rng, "b.rt")
        tree2.store.close()
        with FilePageStore.open_existing(path2) as store:
            meta = store.tree_meta
            root = bytearray(store.peek_page(meta["root_page"]))
            # Nudge entry 0's low x (16-byte header, 8-byte pointer) so
            # the parent entry no longer equals its child's MBR.
            (x,) = struct.unpack_from("<d", root, 24)
            struct.pack_into("<d", root, 24, x - 0.5)
            store.write_page(meta["root_page"], bytes(root))
            store.set_tree_meta(meta)

        async def scenario():
            async with QueryServer(tree, allow_reload=True) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    with pytest.raises(ReloadRejected,
                                       match="parent entry") as caught:
                        await client.reload(str(path2))
                    assert "1 error(s)" in str(caught.value)
                    assert "bad page" not in str(caught.value)
                    assert (await client.healthz())["generation"][
                        "active"] == 1

        run(scenario())
        tree.store.close()


class TestReloadCutover:
    def test_swap_changes_answers_and_generation(self, tmp_path, rng):
        rects1, tree, _ = _durable_tree(tmp_path, rng, "gen1.rt")
        rects2, tree2, path2 = _durable_tree(tmp_path, rng, "gen2.rt",
                                             n=900, offset=10.0)
        oracle2 = tree2.searcher(256)
        new_q = _query_around(tuple(rects2.los[0]))
        old_q = _query_around(tuple(rects1.los[0]))
        expected_new = sorted(int(x) for x in oracle2.search(new_q))
        expected_old = sorted(int(x) for x in oracle2.search(old_q))
        tree2.store.close()

        async def scenario():
            async with QueryServer(tree, allow_reload=True,
                                   quarantine=[3]) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    data = await client.reload(str(path2))
                    assert data["generation"] == 2
                    assert data["tree"]["size"] == 900
                    assert data["fsck"]["clean"] is True

                    # The server now answers from the new file ...
                    resp = (await client.search(new_q)).raise_for_error()
                    assert resp.ids == expected_new
                    # ... including for regions only the old data had.
                    old = (await client.search(old_q)).raise_for_error()
                    assert old.ids == expected_old

                    health = await client.healthz()
                    assert health["generation"]["active"] == 2
                    assert health["generation"]["reloads"] == 1
                    assert health["generation"]["path"] == str(path2)
                # The stale generation's quarantine meant page ids in the
                # *old* file; it must not survive the swap.
                assert server.quarantine == set()
                assert server.generation == 2

        run(scenario())

    def test_mid_traffic_reload_loses_no_queries(self, tmp_path, rng):
        """In-flight and follow-on queries all succeed across the swap,
        and every answer matches one of the two generations' oracles."""
        rects, tree, path1 = _durable_tree(tmp_path, rng, "gen1.rt",
                                           n=2000)
        rects2, tree2, path2 = _durable_tree(tmp_path, rng, "gen2.rt",
                                             n=2000, offset=0.25)
        queries = list(region_queries(0.06, 120, seed=41))
        oracle1 = tree.searcher(256)
        oracle2 = tree2.searcher(256)
        expected1 = [frozenset(int(x) for x in oracle1.search(q))
                     for q in queries]
        expected2 = [frozenset(int(x) for x in oracle2.search(q))
                     for q in queries]
        tree2.store.close()
        failures = []
        wrong = []

        async def querier(host, port, index):
            async with await QueryClient.connect(host, port) as client:
                for qi in range(index, len(queries), 4):
                    resp = await client.search(queries[qi])
                    if not resp.ok:
                        failures.append(resp.__dict__)
                        continue
                    got = frozenset(resp.ids)
                    if got not in (expected1[qi], expected2[qi]):
                        wrong.append({"query": qi, "got": sorted(got)})
                    await asyncio.sleep(0)

        async def reloader(host, port):
            async with await QueryClient.connect(host, port) as client:
                # Flip generations repeatedly while traffic flows.
                for target in (path2, path1, path2):
                    await asyncio.sleep(0.01)
                    data = await client.reload(str(target))
                    assert data["fsck"]["clean"] is True

        async def scenario():
            async with QueryServer(tree, allow_reload=True,
                                   max_inflight=8,
                                   default_deadline_s=30.0) as server:
                host, port = server.address
                await asyncio.gather(
                    *[querier(host, port, i) for i in range(4)],
                    reloader(host, port),
                )
                return server

        server = run(scenario())
        assert failures == []
        assert wrong == []
        assert server.generation == 4  # three successful swaps
        assert server.reloads_total == 3

    def test_aclose_closes_the_store_a_reload_opened(self, tmp_path, rng):
        _, tree, _ = _durable_tree(tmp_path, rng, "gen1.rt")
        _, tree2, path2 = _durable_tree(tmp_path, rng, "gen2.rt", n=900,
                                        offset=10.0)
        tree2.store.close()

        async def scenario():
            async with QueryServer(tree, allow_reload=True) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    await client.reload(str(path2))
            return server.tree

        reloaded = run(scenario())
        with pytest.raises(StoreError, match="closed"):
            reloaded.store.read_page(reloaded.root_page)

    def test_reload_same_file_is_a_fresh_generation(self, tmp_path, rng):
        _, tree, path = _durable_tree(tmp_path, rng, "gen1.rt")
        tree.store.close()
        serving = PagedRTree.from_store(FilePageStore.open_existing(path))

        async def scenario():
            async with QueryServer(serving, allow_reload=True) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    data = await client.reload(str(path))
                    assert data["generation"] == 2
                    ping = await client.ping()
                    assert ping["version"] == 1

        run(scenario())
