"""Model-based (hypothesis) tests for the buffer pool.

A naive reference implementation of an LRU cache (ordered dict, no
policy/pinning machinery) is driven with the same random operation
sequence as the real pool; residency and miss counts must agree exactly.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.buffer import BufferPool


class ReferenceLRU:
    """The obviously-correct LRU: an OrderedDict with move-to-end."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.data = OrderedDict()
        self.misses = 0
        self.hits = 0

    def get(self, key):
        if key in self.data:
            self.hits += 1
            self.data.move_to_end(key)
            return self.data[key]
        self.misses += 1
        if len(self.data) >= self.capacity:
            self.data.popitem(last=False)
        self.data[key] = f"page-{key}"
        return self.data[key]


ops = st.lists(st.integers(0, 12), min_size=1, max_size=200)


@given(st.integers(1, 8), ops)
@settings(max_examples=150)
def test_lru_pool_matches_reference(capacity, keys):
    pool = BufferPool(capacity, lambda k: f"page-{k}")
    ref = ReferenceLRU(capacity)
    for key in keys:
        assert pool.get(key) == ref.get(key)
    assert pool.stats.buffer_misses == ref.misses
    assert pool.stats.buffer_hits == ref.hits
    assert set(ref.data) == {
        k for k in range(13) if pool.contains(k)
    }


@given(st.integers(2, 8), ops, st.integers(0, 12))
@settings(max_examples=80)
def test_pinned_key_never_evicted(capacity, keys, pinned):
    for policy in ("lru", "fifo", "clock"):
        pool = BufferPool(capacity, lambda k: f"page-{k}", policy=policy)
        pool.pin(pinned)
        for key in keys:
            pool.get(key)
            assert pool.contains(pinned)


@given(st.integers(1, 6), ops)
@settings(max_examples=80)
def test_residency_never_exceeds_capacity(capacity, keys):
    for policy in ("lru", "fifo", "clock"):
        pool = BufferPool(capacity, lambda k: f"page-{k}", policy=policy)
        for key in keys:
            pool.get(key)
            assert len(pool) <= capacity


@given(st.integers(1, 6), ops)
@settings(max_examples=80)
def test_fifo_and_clock_agree_on_values(capacity, keys):
    """Whatever the policy, get() must always return the right value."""
    for policy in ("fifo", "clock"):
        pool = BufferPool(capacity, lambda k: f"page-{k}", policy=policy)
        for key in keys:
            assert pool.get(key) == f"page-{key}"


@given(st.integers(2, 8), ops)
@settings(max_examples=60)
def test_miss_count_bounds(capacity, keys):
    """Any sane policy misses at least |distinct keys| times and at most
    once per access."""
    for policy in ("lru", "fifo", "clock"):
        pool = BufferPool(capacity, lambda k: f"page-{k}", policy=policy)
        for key in keys:
            pool.get(key)
        assert len(set(keys)) <= pool.stats.buffer_misses <= len(keys)
