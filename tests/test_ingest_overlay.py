"""The overlay correctness contract: for any interleaving of inserts,
upserts, and deletes, a query through ``packed base ∪ delta layers −
tombstones`` returns exactly what a from-scratch packed rebuild of the
final logical set returns — for window, point, and kNN queries, with
one layer or a frozen+live stack."""

import tracemalloc

import numpy as np

from repro import RectArray, SortTileRecursive, bulk_load
from repro.core.geometry import Rect
from repro.ingest.delta import DeltaTree
from repro.ingest.overlay import OverlaySearcher
from repro.queries import point_queries, region_queries
from repro.rtree.knn import knn_detailed
from repro.storage import MemoryPageStore

CAPACITY = 8
NDIM = 2


def _pack(entries: dict):
    """From-scratch packed build of a logical ``{id: (lo, hi)}`` set."""
    ids = np.array(sorted(entries), dtype=np.int64)
    los = np.array([entries[int(i)][0] for i in ids], dtype=np.float64)
    his = np.array([entries[int(i)][1] for i in ids], dtype=np.float64)
    tree, _ = bulk_load(RectArray(los, his), SortTileRecursive(),
                        data_ids=ids, capacity=CAPACITY,
                        store=MemoryPageStore(4096))
    return tree


def _random_entries(rng, ids):
    lo = rng.random((len(ids), NDIM)) * 0.9
    hi = lo + rng.random((len(ids), NDIM)) * 0.1
    return {int(i): (tuple(lo[k]), tuple(hi[k]))
            for k, i in enumerate(ids)}


def _apply_random_ops(rng, oracle, deltas, steps, next_id):
    """Mutate the live (last) delta and the oracle dict in lockstep."""
    live = deltas[-1]
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.45 or not oracle:
            data_id = next_id
            next_id += 1
        else:
            keys = sorted(oracle)
            data_id = keys[int(rng.integers(0, len(keys)))]
        if roll < 0.75 or not oracle:
            lo = tuple(rng.random(NDIM) * 0.9)
            hi = tuple(l + e for l, e in
                       zip(lo, rng.random(NDIM) * 0.1))
            live.insert(data_id, Rect(lo, hi))
            oracle[data_id] = (lo, hi)
        else:
            live.delete(data_id)
            oracle.pop(data_id, None)
    return next_id


def _assert_overlay_equals_rebuild(overlay, oracle, rng):
    rebuilt = _pack(oracle)
    oracle_searcher = rebuilt.searcher(64)
    for q in region_queries(0.15, 25, seed=41):
        got = overlay.search_detailed(q)
        assert not got.partial
        assert sorted(got.ids.tolist()) == sorted(
            int(x) for x in oracle_searcher.search(q))
    for p in point_queries(25, seed=42):
        got = overlay.search_detailed(Rect.from_point(p.lo))
        assert sorted(got.ids.tolist()) == sorted(
            int(x) for x in oracle_searcher.point_query(p.lo))
    for _ in range(10):
        point = tuple(rng.random(NDIM))
        k = int(rng.integers(1, 12))
        got = overlay.knn_detailed(point, k)
        want = knn_detailed(oracle_searcher, point, k)
        assert got.neighbours == want.neighbours


class TestSingleLayer:
    def test_randomized_interleaving_matches_rebuild(self, rng):
        oracle = _random_entries(rng, range(300))
        base = _pack(oracle)
        delta = DeltaTree(NDIM)
        _apply_random_ops(rng, oracle, [delta], steps=250,
                          next_id=10_000)
        overlay = OverlaySearcher(base.searcher(64), (delta,))
        _assert_overlay_equals_rebuild(overlay, oracle, rng)

    def test_empty_delta_is_identity(self, rng):
        oracle = _random_entries(rng, range(120))
        base = _pack(oracle)
        overlay = OverlaySearcher(base.searcher(64),
                                  (DeltaTree(NDIM),))
        _assert_overlay_equals_rebuild(overlay, oracle, rng)

    def test_delete_everything_in_region(self, rng):
        oracle = _random_entries(rng, range(100))
        base = _pack(oracle)
        delta = DeltaTree(NDIM)
        victims = [i for i, (lo, hi) in oracle.items() if lo[0] < 0.5]
        for data_id in victims:
            delta.delete(data_id)
            del oracle[data_id]
        assert oracle, "test needs survivors"
        overlay = OverlaySearcher(base.searcher(64), (delta,))
        _assert_overlay_equals_rebuild(overlay, oracle, rng)
        # A query fully inside the purged half-plane finds nothing new.
        got = overlay.search_detailed(Rect((0.0, 0.0), (0.2, 1.0)))
        assert all(i not in victims for i in got.ids)


class TestFrozenPlusLive:
    def test_mid_merge_layer_stack_matches_rebuild(self, rng):
        """Simulate a merge in flight: ops land in a frozen layer, the
        layer is frozen (as begin_merge does), and newer ops — some
        shadowing frozen-layer ids — land in the live layer."""
        oracle = _random_entries(rng, range(200))
        base = _pack(oracle)
        frozen = DeltaTree(NDIM)
        next_id = _apply_random_ops(rng, oracle, [frozen], steps=120,
                                    next_id=10_000)
        live = DeltaTree(NDIM)
        _apply_random_ops(rng, oracle, [frozen, live], steps=120,
                          next_id=next_id)
        overlay = OverlaySearcher(base.searcher(64), (frozen, live))
        _assert_overlay_equals_rebuild(overlay, oracle, rng)

    def test_live_layer_shadows_frozen(self, rng):
        oracle = _random_entries(rng, range(50))
        base = _pack(oracle)
        frozen = DeltaTree(NDIM)
        live = DeltaTree(NDIM)
        # Frozen upserts id 1; live deletes it — the delete wins.
        frozen.insert(1, Rect((0.1, 0.1), (0.2, 0.2)))
        live.delete(1)
        # Frozen deletes id 2; live re-inserts it — the insert wins.
        frozen.delete(2)
        live.insert(2, Rect((0.3, 0.3), (0.4, 0.4)))
        oracle.pop(1, None)
        oracle[2] = ((0.3, 0.3), (0.4, 0.4))
        overlay = OverlaySearcher(base.searcher(64), (frozen, live))
        everything = Rect((0.0, 0.0), (1.0, 1.0))
        got = overlay.search_detailed(everything)
        assert 1 not in got.ids and 2 in got.ids
        _assert_overlay_equals_rebuild(overlay, oracle, rng)


class TestDistanceTies:
    def test_ties_straddling_k_match_rebuild(self, rng):
        """Every rectangle is one of a few large overlapping shapes
        shared by many ids, so kNN distances tie (at zero and beyond)
        across the k boundary; the overlay must still return exactly the
        rebuild's neighbours, in the rebuild's order."""
        shapes = list(_random_entries(rng, range(10)).values())
        shapes = [(lo, tuple(x + 0.3 for x in lo)) for lo, _ in shapes]
        oracle = {i: shapes[i % len(shapes)] for i in range(200)}
        base = _pack(oracle)
        delta = DeltaTree(NDIM)
        for step in range(120):
            data_id = (int(rng.integers(0, 200)) if step % 3
                       else 10_000 + step)
            if step % 5 == 4:
                delta.delete(data_id)
                oracle.pop(data_id, None)
            else:
                lo, hi = shapes[int(rng.integers(0, len(shapes)))]
                delta.insert(data_id, Rect(lo, hi))
                oracle[data_id] = (lo, hi)
        overlay = OverlaySearcher(base.searcher(64), (delta,))
        _assert_overlay_equals_rebuild(overlay, oracle, rng)

        rebuilt = _pack(oracle).searcher(64)
        straddling = 0
        for _ in range(20):
            point = tuple(rng.random(NDIM))
            k = int(rng.integers(1, 12))
            want = knn_detailed(rebuilt, point, k + 1).neighbours
            straddling += want[k - 1][1] == want[k][1]
            assert overlay.knn_detailed(point, k).neighbours == want[:k]
        assert straddling >= 10, "the case must tie across k"


class TestKnnBaseWalk:
    def test_shadowed_ids_do_not_lengthen_the_base_walk(self, rng):
        """500 shadowed ids far from the query point: the overlay's base
        walk requests exactly the pages a plain k=10 walk requests."""
        oracle = _random_entries(rng, range(2000))
        base = _pack(oracle)
        delta = DeltaTree(NDIM)
        far = [i for i, (lo, _) in oracle.items() if lo[0] > 0.6][:500]
        assert len(far) == 500
        for data_id in far:
            delta.delete(data_id)
        point = (0.05, 0.05)
        plain = base.searcher(64)
        want = knn_detailed(plain, point, 10)
        overlay = OverlaySearcher(base.searcher(64), (delta,))
        got = overlay.knn_detailed(point, 10)
        assert got.neighbours == want.neighbours
        requested = [s.stats.buffer_hits + s.stats.buffer_misses
                     for s in (overlay.searcher, plain)]
        assert requested[0] == requested[1]


class TestShadowedIds:
    def test_one_layer_read_makes_no_copy_of_its_overridden_ids(self, rng):
        """With one layer, the common case outside a merge, a read
        filters the base answer against the layer's own ``overridden``
        set: what a read allocates does not grow with that set."""
        base = _random_entries(rng, range(3000))
        searcher = _pack(base).searcher(64)
        query = Rect((0.4, 0.4), (0.5, 0.5))
        # Deleted ids outside the window, so every read below gets the
        # same base answer and returns the same ids.
        outside = [i for i, (lo, hi) in sorted(base.items())
                   if hi[0] < 0.4 or lo[0] > 0.5
                   or hi[1] < 0.4 or lo[1] > 0.5][:500]
        assert len(outside) == 500

        def read_peak(deleted):
            delta = DeltaTree(NDIM)
            for data_id in deleted:
                delta.delete(data_id)
            overlay = OverlaySearcher(searcher, (delta,))
            expected = overlay.search_detailed(query).ids  # warm buffer
            tracemalloc.start()
            try:
                result = overlay.search_detailed(query)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sorted(result.ids.tolist()) == sorted(expected.tolist())
            return peak

        one = read_peak(outside[:1])
        five_hundred = read_peak(outside)
        # A copy of 500 ids is a set table of at least 16 KiB.
        assert five_hundred - one < 4 * 1024
