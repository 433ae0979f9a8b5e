"""DeltaTree semantics: last-writer-wins upserts, tombstones, the row
bookkeeping behind them checked against a dict oracle, and the
``ingest.*`` metric counters."""

import math

import numpy as np
import pytest

from repro.core.geometry import GeometryError, Rect
from repro.ingest.delta import _INITIAL_ROWS, DeltaTree
from repro.ingest.wal import IngestError, WalOp
from repro.obs import runtime as obs

NDIM = 2


def _rect(i: int, size: float = 1.0) -> Rect:
    return Rect((float(i), float(i)),
                (float(i) + size, float(i) + size))


def _random_rect(rng, size: float = 0.1) -> Rect:
    lo = rng.random(NDIM) * 0.9
    return Rect(tuple(lo), tuple(lo + rng.random(NDIM) * size))


def _min_dist(rect: Rect, point) -> float:
    return math.sqrt(sum(max(lo - p, 0.0, p - hi) ** 2
                         for lo, hi, p in zip(rect.lo, rect.hi, point)))


class TestUpsertsAndTombstones:
    def test_insert_get_len(self):
        d = DeltaTree(NDIM)
        d.insert(7, _rect(7))
        assert len(d) == 1
        assert d.get(7) == _rect(7)
        assert d.overridden == {7}
        assert not d.is_tombstoned(7)

    def test_upsert_replaces_and_moves_in_index(self):
        d = DeltaTree(NDIM)
        d.insert(1, _rect(0))
        d.insert(1, _rect(10))
        assert len(d) == 1
        assert d.get(1) == _rect(10)
        assert d.search(_rect(0, 0.5)) == []
        assert d.search(_rect(10, 0.5)) == [1]

    def test_delete_tombstones_even_base_only_ids(self):
        d = DeltaTree(NDIM)
        assert d.delete(42) is False  # not in this layer, still marks
        assert d.is_tombstoned(42)
        assert d.overridden == {42}
        d.insert(1, _rect(1))
        assert d.delete(1) is True
        assert len(d) == 0 and d.tombstone_count == 2
        assert d.search(_rect(1, 0.5)) == []

    def test_reinsert_clears_tombstone(self):
        d = DeltaTree(NDIM)
        d.delete(5)
        d.insert(5, _rect(5))
        assert not d.is_tombstoned(5)
        assert d.get(5) == _rect(5)
        assert d.overridden == {5}  # still shadows the base

    def test_dimension_mismatch_rejected(self):
        d = DeltaTree(2)
        with pytest.raises(GeometryError):
            d.insert(1, Rect((0.0,), (1.0,)))
        with pytest.raises(GeometryError):
            d.search(Rect((0.0,), (1.0,)))

    def test_apply_rejects_malformed_ops(self):
        d = DeltaTree(NDIM)
        with pytest.raises(IngestError):
            d.apply(WalOp(1, "insert", 1, None))
        with pytest.raises(IngestError):
            d.apply(WalOp(1, "upsert", 1, _rect(1)))
        assert len(d) == 0 and not d.overridden


class TestRowBookkeeping:
    """Rows move on delete (the last row fills the hole), so every
    accessor is checked against a plain dict after every op."""

    def _check(self, d, oracle, tombstones, pool, rng):
        assert len(d) == len(oracle)
        assert d.tombstone_count == len(tombstones)
        assert d.overridden == set(oracle) | tombstones
        for data_id in pool:
            assert d.get(data_id) == oracle.get(data_id)
            assert d.is_tombstoned(data_id) == (data_id in tombstones)
        windows = [_random_rect(rng, size=0.4) for _ in range(3)]
        if oracle:  # closed bounds: a corner touches its own rect
            corner = oracle[sorted(oracle)[0]]
            windows += [Rect.from_point(corner.lo),
                        Rect.from_point(corner.hi)]
        for q in windows:
            got = d.search(q)
            assert all(type(i) is int for i in got)
            assert sorted(got) == sorted(
                i for i, r in oracle.items() if r.intersects(q))
        point = tuple(rng.random(NDIM))
        exclude = {i for i in oracle if rng.random() < 0.2}
        got = d.knn_candidates(point, exclude=exclude)
        assert sorted(i for i, _ in got) == sorted(set(oracle) - exclude)
        for data_id, dist in got:
            assert dist == pytest.approx(_min_dist(oracle[data_id], point))

    def test_matches_a_dict_oracle(self):
        rng = np.random.default_rng(2026)
        d = DeltaTree(NDIM)
        oracle: dict[int, Rect] = {}
        tombstones: set[int] = set()
        pool = range(200)

        def insert(data_id):
            rect = _random_rect(rng)
            d.insert(data_id, rect)
            oracle[data_id] = rect
            tombstones.discard(data_id)

        def delete(data_id):
            assert d.delete(data_id) is (data_id in oracle)
            oracle.pop(data_id, None)
            tombstones.add(data_id)

        # Scripted cases: the only row, a re-inserted deleted id, an
        # upsert in place, the last row, a middle row, the first row.
        script = [(insert, 1), (delete, 1), (insert, 1), (insert, 2),
                  (insert, 3), (insert, 2), (insert, 4), (delete, 4),
                  (delete, 2), (delete, 1), (delete, 3), (insert, 3)]
        for op, data_id in script:
            op(data_id)
            self._check(d, oracle, tombstones, pool, rng)
        peak = 0
        for _ in range(600):
            data_id = int(rng.integers(0, len(pool)))
            if rng.random() < 0.65:
                insert(data_id)
            else:
                delete(data_id)
            peak = max(peak, len(d))
            self._check(d, oracle, tombstones, pool, rng)
        assert peak > _INITIAL_ROWS  # the arrays grew at least once


class TestKnnCandidates:
    def test_distances_and_exclusion(self):
        d = DeltaTree(NDIM)
        d.insert(1, Rect((0.0, 0.0), (1.0, 1.0)))
        d.insert(2, Rect((3.0, 0.0), (4.0, 1.0)))
        got = dict(d.knn_candidates((0.5, 0.5)))
        assert got[1] == 0.0         # containing rect is distance 0
        assert got[2] == pytest.approx(2.5)
        only = d.knn_candidates((0.5, 0.5), exclude={1})
        assert [i for i, _ in only] == [2]

    def test_empty_delta(self):
        assert DeltaTree(NDIM).knn_candidates((0.0, 0.0)) == []

    def test_point_dimension_mismatch(self):
        d = DeltaTree(NDIM)
        d.insert(1, _rect(1))
        with pytest.raises(GeometryError):
            d.knn_candidates((0.0, 0.0, 0.0))


class TestMetrics:
    def test_delta_ops_counters(self):
        with obs.telemetry() as (_, registry):
            d = DeltaTree(NDIM)
            d.insert(1, _rect(1))
            d.apply(WalOp(1, "insert", 2, _rect(2)))
            d.apply(WalOp(2, "insert", 3, _rect(3)))
            d.apply(WalOp(3, "delete", 2, None))
            ins = registry.counter("ingest.delta_ops", op="insert")
            dels = registry.counter("ingest.delta_ops", op="delete")
            assert ins.value == 3
            assert dels.value == 1
