"""Unit tests for the buffer pool and its replacement policies."""

import pytest

from repro.storage.buffer import (
    BufferError,
    BufferPool,
    ClockPolicy,
    FIFOPolicy,
    LRUPolicy,
    make_policy,
)
from repro.storage.counters import IOStats


class CountingFetch:
    """Fetch stub that records which keys were fetched, in order."""

    def __init__(self):
        self.calls = []

    def __call__(self, key):
        self.calls.append(key)
        return f"page-{key}"


@pytest.fixture
def fetch():
    return CountingFetch()


class TestBasics:
    def test_miss_then_hit(self, fetch):
        pool = BufferPool(4, fetch)
        assert pool.get(1) == "page-1"
        assert pool.get(1) == "page-1"
        assert fetch.calls == [1]
        assert pool.stats.buffer_misses == 1
        assert pool.stats.buffer_hits == 1

    def test_capacity_one_works(self, fetch):
        pool = BufferPool(1, fetch)
        pool.get(1)
        pool.get(2)
        pool.get(1)
        assert fetch.calls == [1, 2, 1]

    def test_zero_capacity_rejected(self, fetch):
        with pytest.raises(BufferError):
            BufferPool(0, fetch)

    def test_len_tracks_residency(self, fetch):
        pool = BufferPool(3, fetch)
        for k in range(5):
            pool.get(k)
        assert len(pool) == 3

    def test_contains_has_no_side_effects(self, fetch):
        pool = BufferPool(2, fetch)
        pool.get(1)
        pool.get(2)
        assert pool.contains(1)
        # If contains() refreshed LRU position, 1 would survive instead of 2.
        pool.get(3)
        assert not pool.contains(1) or not pool.contains(2)

    def test_shared_stats_object(self, fetch):
        stats = IOStats()
        pool = BufferPool(2, fetch, stats=stats)
        pool.get(1)
        assert stats.buffer_misses == 1

    def test_clear_empties_the_pool(self, fetch):
        pool = BufferPool(4, fetch)
        pool.pin(1)
        pool.get(2)
        pool.clear()
        assert len(pool) == 0
        assert not pool.pinned_keys
        assert pool.stats.buffer_misses == 2   # counters are kept
        pool.get(1)
        assert fetch.calls == [1, 2, 1]


class TestLRU:
    def test_evicts_least_recently_used(self, fetch):
        pool = BufferPool(2, fetch, policy="lru")
        pool.get(1)
        pool.get(2)
        pool.get(1)       # refresh 1; victim should be 2
        pool.get(3)
        assert pool.contains(1) and pool.contains(3)
        assert not pool.contains(2)

    def test_sequential_scan_thrashes(self, fetch):
        """A scan over capacity+1 pages misses every time under LRU."""
        pool = BufferPool(3, fetch, policy="lru")
        for _ in range(3):
            for k in range(4):
                pool.get(k)
        assert pool.stats.buffer_hits == 0
        assert pool.stats.buffer_misses == 12


class TestFIFO:
    def test_access_does_not_refresh(self, fetch):
        pool = BufferPool(2, fetch, policy="fifo")
        pool.get(1)
        pool.get(2)
        pool.get(1)       # hit, but FIFO ignores it
        pool.get(3)       # evicts 1 (first in)
        assert not pool.contains(1)
        assert pool.contains(2) and pool.contains(3)


class TestClock:
    def test_second_chance(self, fetch):
        pool = BufferPool(2, fetch, policy="clock")
        pool.get(1)
        pool.get(2)
        pool.get(1)       # reference bit of 1 set
        pool.get(3)       # hand skips 1 (clears bit), evicts 2
        assert pool.contains(1)
        assert not pool.contains(2)

    def test_behaves_when_all_referenced(self, fetch):
        pool = BufferPool(2, fetch, policy="clock")
        pool.get(1)
        pool.get(2)
        pool.get(1)
        pool.get(2)
        pool.get(3)       # everything referenced: sweep clears, then evicts
        assert len(pool) == 2
        assert pool.contains(3)


class TestPolicyFactory:
    @pytest.mark.parametrize("name,cls", [
        ("lru", LRUPolicy), ("LRU", LRUPolicy),
        ("fifo", FIFOPolicy), ("clock", ClockPolicy),
    ])
    def test_make_policy(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_unknown_policy(self):
        with pytest.raises(BufferError):
            make_policy("magic")

    def test_pool_accepts_instance(self, fetch):
        pool = BufferPool(2, fetch, policy=LRUPolicy())
        pool.get(1)
        assert pool.contains(1)


class TestPinning:
    def test_pinned_page_survives_eviction_pressure(self, fetch):
        pool = BufferPool(2, fetch)
        pool.pin(1)
        for k in range(2, 8):
            pool.get(k)
        assert pool.contains(1)

    def test_pin_fetches_if_absent(self, fetch):
        pool = BufferPool(2, fetch)
        pool.pin(5)
        assert fetch.calls == [5]

    def test_unpin_restores_evictability(self, fetch):
        pool = BufferPool(2, fetch)
        pool.pin(1)
        pool.unpin(1)
        pool.get(2)
        pool.get(3)
        pool.get(4)
        assert not pool.contains(1)

    def test_unpin_unpinned_rejected(self, fetch):
        pool = BufferPool(2, fetch)
        pool.get(1)
        with pytest.raises(BufferError):
            pool.unpin(1)

    def test_nested_pins(self, fetch):
        pool = BufferPool(2, fetch)
        pool.pin(1)
        pool.pin(1)
        pool.unpin(1)
        assert 1 in pool.pinned_keys
        pool.unpin(1)
        assert 1 not in pool.pinned_keys

    def test_everything_pinned_raises_on_eviction(self, fetch):
        pool = BufferPool(2, fetch)
        pool.pin(1)
        pool.pin(2)
        with pytest.raises(BufferError):
            pool.get(3)
