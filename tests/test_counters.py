"""Unit tests for IOStats."""

from repro.storage.counters import IOStats


def test_starts_at_zero():
    s = IOStats()
    assert s.disk_reads == s.disk_writes == 0
    assert s.buffer_hits == s.buffer_misses == 0


def test_reset():
    s = IOStats(disk_reads=5, disk_writes=2, buffer_hits=9, buffer_misses=1)
    s.reset()
    assert s.disk_reads == 0 and s.buffer_hits == 0


def test_snapshot_is_independent():
    s = IOStats(disk_reads=3)
    snap = s.snapshot()
    s.disk_reads += 10
    assert snap.disk_reads == 3


def test_instances_share_no_state():
    a, b = IOStats(), IOStats()
    a.disk_reads += 2
    assert b.disk_reads == 0


def test_total_accesses():
    s = IOStats(disk_reads=3, disk_writes=4)
    assert s.total_accesses == 7


def test_hit_ratio():
    s = IOStats(buffer_hits=3, buffer_misses=1)
    assert s.hit_ratio == 0.75


def test_hit_ratio_idle_is_zero():
    assert IOStats().hit_ratio == 0.0


def test_addition():
    a = IOStats(disk_reads=1, buffer_hits=2)
    b = IOStats(disk_reads=3, buffer_misses=4)
    c = a + b
    assert c.disk_reads == 4
    assert c.buffer_hits == 2
    assert c.buffer_misses == 4


def test_addition_wrong_type():
    try:
        IOStats() + 3
        assert False, "expected TypeError"
    except TypeError:
        pass


def test_inplace_addition():
    a = IOStats(disk_reads=1, evictions=2)
    b = IOStats(disk_reads=3, buffer_hits=4)
    before = a
    a += b
    assert a is before      # updates in place, no new object
    assert a.disk_reads == 4
    assert a.buffer_hits == 4
    assert a.evictions == 2
    assert b.disk_reads == 3     # right-hand side untouched


def test_inplace_addition_wrong_type():
    a = IOStats()
    try:
        a += "nope"
        assert False, "expected TypeError"
    except TypeError:
        pass


def test_as_dict_has_all_fields():
    s = IOStats(disk_reads=1, disk_writes=2, buffer_hits=3,
                buffer_misses=4, evictions=5)
    assert s.as_dict() == {
        "disk_reads": 1,
        "disk_writes": 2,
        "buffer_hits": 3,
        "buffer_misses": 4,
        "evictions": 5,
    }


def test_evictions_counted_by_buffer_pool():
    from repro.storage.buffer import BufferPool

    pool = BufferPool(2, fetch=lambda key: key)
    for page_id in range(4):
        pool.get(page_id)
    assert pool.stats.evictions == 2
    assert pool.stats.buffer_misses == 4


def test_equality_compares_counters():
    assert IOStats(disk_reads=1) == IOStats(disk_reads=1)
    assert IOStats(disk_reads=1) != IOStats(disk_reads=2)
