"""Unit tests for external-memory sorting and bulk loading."""

import tempfile

import numpy as np
import pytest

from repro.core.geometry import GeometryError, Rect, RectArray
from repro.core.packing import SortTileRecursive
from repro.core.packing.base import PackingError
from repro.core.packing.external import (
    ExternalRectSorter,
    external_bulk_load,
    external_str_order,
)
from repro.rtree.bulk import bulk_load
from repro.rtree.validate import validate_paged

from tests.conftest import brute_force_search


def point_records(points):
    """(key, id, lo, hi) record stream for a point array."""
    for i, p in enumerate(points):
        yield (0.0, i, tuple(p), tuple(p))


class TestExternalSorter:
    def test_sorts_across_spills(self, rng):
        with ExternalRectSorter(2, chunk_size=64) as sorter:
            keys = rng.random(1000)
            for i, k in enumerate(keys):
                sorter.add(k, i, (0.0, 0.0), (1.0, 1.0))
            assert sorter.run_count >= 15
            out = [r[0] for r in sorter.sorted_records()]
        assert out == sorted(keys.tolist())

    def test_preserves_payload(self, rng):
        with ExternalRectSorter(2, chunk_size=16) as sorter:
            pts = rng.random((100, 2))
            for i, p in enumerate(pts):
                sorter.add(p[0], i, tuple(p), tuple(p + 0.1))
            for record in sorter.sorted_records():
                key, data_id, lx, ly, hx, hy = record
                assert (lx, ly) == tuple(pts[data_id])
                assert hx == pytest.approx(pts[data_id][0] + 0.1)

    def test_empty_sorter(self):
        with ExternalRectSorter(2, chunk_size=16) as sorter:
            assert list(sorter.sorted_records()) == []

    def test_len(self):
        with ExternalRectSorter(2, chunk_size=4) as sorter:
            for i in range(10):
                sorter.add(i, i, (0, 0), (1, 1))
            assert len(sorter) == 10

    def test_stable_within_memory_limits(self, rng):
        """Records with equal keys keep a deterministic (id) order."""
        with ExternalRectSorter(2, chunk_size=8) as sorter:
            for i in range(50):
                sorter.add(1.0, i, (0, 0), (1, 1))
            ids = [r[1] for r in sorter.sorted_records()]
        assert ids == sorted(ids)

    def test_bad_chunk_size(self):
        with pytest.raises(PackingError):
            ExternalRectSorter(2, chunk_size=1)

    def test_bad_ndim(self):
        with pytest.raises(GeometryError):
            ExternalRectSorter(0)

    def test_spill_dir_cleanup(self, tmp_path):
        sorter = ExternalRectSorter(2, chunk_size=4,
                                    spill_dir=str(tmp_path))
        for i in range(20):
            sorter.add(i, i, (0, 0), (1, 1))
        list(sorter.sorted_records())
        assert any(tmp_path.iterdir())
        sorter.close()
        assert not any(tmp_path.iterdir())

    def test_spill_runs_removed_on_clean_exit_and_exception(
            self, tmp_path, monkeypatch):
        # The default spill directory lives under the system temp dir.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with ExternalRectSorter(2, chunk_size=4) as sorter:
            for i in range(10):
                sorter.add(float(i), i, (0.0, 0.0), (1.0, 1.0))
            assert sorter.run_count == 2
            assert any(tmp_path.iterdir())
        assert not any(tmp_path.iterdir())  # clean exit removes the runs

        with pytest.raises(RuntimeError):
            with ExternalRectSorter(2, chunk_size=4) as sorter:
                for i in range(10):
                    sorter.add(float(i), i, (0.0, 0.0), (1.0, 1.0))
                assert any(tmp_path.iterdir())
                raise RuntimeError("boom")
        assert not any(tmp_path.iterdir())  # exception removes them too


class TestExternalStrOrder:
    def test_matches_in_memory_str_leaf_tiles(self, rng):
        """Same data, same capacity: the leaf MBR multiset must match the
        in-memory STR packer exactly."""
        pts = rng.random((5_000, 2))
        capacity = 50

        ordered = list(external_str_order(point_records(pts), 2, capacity,
                                          chunk_size=256))
        ext_pts = np.array([r[2:4] for r in ordered])
        ra = RectArray.from_points(ext_pts)
        sizes = [capacity] * (len(pts) // capacity)
        ext_mbrs = ra.group_mbrs(sizes)

        mem = RectArray.from_points(pts)
        perm = SortTileRecursive().order(mem, capacity)
        mem_mbrs = mem.take(perm).group_mbrs(sizes)

        ext_set = {(m.lo, m.hi) for m in ext_mbrs}
        mem_set = {(m.lo, m.hi) for m in mem_mbrs}
        assert ext_set == mem_set

    def test_every_record_survives(self, rng):
        pts = rng.random((777, 2))
        ordered = list(external_str_order(point_records(pts), 2, 10,
                                          chunk_size=100))
        assert sorted(r[1] for r in ordered) == list(range(777))

    def test_3d(self, rng):
        pts = rng.random((500, 3))
        recs = ((0.0, i, tuple(p), tuple(p)) for i, p in enumerate(pts))
        ordered = list(external_str_order(recs, 3, 8, chunk_size=64))
        assert len(ordered) == 500


class TestExternalBulkLoad:
    def test_tree_valid_and_correct(self, rng):
        pts = rng.random((3_000, 2))
        tree, report = external_bulk_load(point_records(pts), 2,
                                          capacity=20, chunk_size=128)
        validate_paged(tree, range(3_000))
        assert report.leaf_pages == 150
        ra = RectArray.from_points(pts)
        searcher = tree.searcher(buffer_pages=5)
        q = Rect((0.25, 0.25), (0.6, 0.6))
        assert set(searcher.search(q).tolist()) == brute_force_search(ra, q)

    def test_identical_quality_to_memory_loader(self, rng):
        from repro.rtree.stats import measure_paged

        pts = rng.random((2_000, 2))
        ext_tree, _ = external_bulk_load(point_records(pts), 2,
                                         capacity=25, chunk_size=100)
        mem_tree, _ = bulk_load(RectArray.from_points(pts),
                                SortTileRecursive(), capacity=25)
        ext_q = measure_paged(ext_tree)
        mem_q = measure_paged(mem_tree)
        assert ext_q.leaf_area == pytest.approx(mem_q.leaf_area)
        assert ext_q.leaf_perimeter == pytest.approx(mem_q.leaf_perimeter)

    def test_single_leaf(self):
        tree, report = external_bulk_load(
            point_records(np.array([[0.5, 0.5]])), 2, capacity=10
        )
        assert tree.height == 1
        validate_paged(tree, [0])

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            external_bulk_load(iter(()), 2, capacity=10)

    def test_rectangles_not_just_points(self, rng):
        lo = rng.random((400, 2)) * 0.9
        hi = lo + rng.random((400, 2)) * 0.1
        recs = ((0.0, i, tuple(lo[i]), tuple(hi[i])) for i in range(400))
        tree, _ = external_bulk_load(recs, 2, capacity=16)
        validate_paged(tree, range(400))
