"""The paged walk and the read-only store's decode-once cache change no
answer and no count.

* The node-at-a-time depth-first walk the batched leaf test replaced is
  kept here as a reference; a Hypothesis property drives both over the
  same trees, windows, buffers, quarantines and injected faults and
  requires identical ids (unsorted), visit and skip counts, and
  ``IOStats``.
* ``MmapPageStore.read_node`` decodes exactly what a ``FilePageStore``
  read decodes, counts like ``read_page``, feeds the breaker, and
  tolerates ``close()`` while nodes are alive.
* A child pointer that loops back up the tree ends every walk at once.
* ``repro serve`` replays a legacy journal before mapping the file.
"""

import os
import shutil
import signal
import struct
import tempfile
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import RectArray, SortTileRecursive, bulk_load
from repro.cli import main as cli_main
from repro.core.geometry import Rect
from repro.ingest import merge as merge_module
from repro.rtree.knn import knn_detailed
from repro.rtree.paged import PagedRTree, PagedSearcher, SearchResult
from repro.serve import QueryServer, Request
from repro.storage import FilePageStore, MemoryPageStore, MmapPageStore
from repro.storage.breaker import CircuitBreaker
from repro.storage.buffer import BufferPool
from repro.storage.faults import FaultInjectingPageStore, FaultPlan, \
    RetryPolicy
from repro.storage.integrity import SUPERBLOCK_SLOTS, TRAILER_SIZE, \
    ChecksumError
from repro.storage.page import (
    NodePage,
    PageFormatError,
    decode_node,
    encode_node,
    required_page_size,
)
from repro.storage.store import StoreError

LEGACY = os.path.join(os.path.dirname(__file__), "data", "checksum-v1")


# -- the reference walk -------------------------------------------------------


def reference_searcher(tree, buffer_pages, policy):
    """A searcher whose buffer fetches as the node-at-a-time walk did:
    ``read_page`` then ``decode_node``, every miss."""
    searcher = tree.searcher(buffer_pages, policy=policy)

    def fetch(page_id):
        data = tree.store.read_page(page_id, searcher.stats)
        return decode_node(data, page_id=page_id,
                           source=getattr(tree.store, "path", None))

    searcher.buffer = BufferPool(buffer_pages, fetch, stats=searcher.stats,
                                 policy=policy)
    return searcher


def reference_search(searcher, query, *, check=None, quarantined=None,
                     degraded=False, on_page_error=None):
    """The depth-first walk that tested one node at a time."""
    hits = []
    skipped = 0
    visited = 0
    stack = [searcher.tree.root_page]
    while stack:
        page_id = stack.pop()
        if check is not None:
            check()
        if quarantined is not None and page_id in quarantined:
            skipped += 1
            continue
        try:
            node = searcher.buffer.get(page_id)
        except PagedSearcher.DEGRADED_ERRORS as exc:
            if not degraded:
                raise
            skipped += 1
            if on_page_error is not None:
                on_page_error(page_id, exc)
            continue
        visited += 1
        mask = node.rects.intersects_rect(query)
        if not mask.any():
            continue
        matched = node.children[mask]
        if node.is_leaf:
            hits.append(matched)
        else:
            stack.extend(int(c) for c in matched)
    ids = np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)
    return SearchResult(ids=ids, partial=skipped > 0,
                        skipped_subtrees=skipped, nodes_visited=visited)


class _Expired(Exception):
    """A deadline's ``check`` firing."""


def _deadline(calls):
    """A ``check`` that raises on its ``calls``-th call (never if None)."""
    seen = []

    def check():
        seen.append(None)
        if calls is not None and len(seen) >= calls:
            raise _Expired(len(seen))
    return check


def _io(stats):
    return (stats.disk_reads, stats.buffer_hits, stats.buffer_misses,
            stats.evictions)


def _run(search, searcher, query, hooks):
    """Outcome of one search: its result (or exception type), the
    absorbed page errors, and the searcher's counters after it."""
    errors = []
    try:
        found = search(searcher, query, on_page_error=lambda p, e:
                       errors.append((p, type(e).__name__)), **hooks)
        outcome = (found.ids.tolist(), found.partial,
                   found.skipped_subtrees, found.nodes_visited)
    except (_Expired,) + PagedSearcher.DEGRADED_ERRORS as exc:
        outcome = type(exc).__name__
    return outcome, errors, _io(searcher.stats)


# -- the property -------------------------------------------------------------

_FRACTIONS = (0.0, 0.01, 0.09, 1.0)  # point, 1%, 9%, full window


@st.composite
def walk_cases(draw):
    capacity = draw(st.integers(3, 100))
    ndim = draw(st.integers(1, 3))
    # Enough records for up to five levels at small capacities.
    n = draw(st.integers(1, min(300, capacity ** 5)))
    seed = draw(st.integers(0, 2 ** 31))
    windows = draw(st.lists(
        st.tuples(st.sampled_from(_FRACTIONS), st.integers(0, 2 ** 31)),
        min_size=1, max_size=6))
    return {
        "capacity": capacity, "ndim": ndim, "n": n, "seed": seed,
        "windows": windows,
        "buffer": draw(st.sampled_from([1, 10, 64, 250])),
        "policy": draw(st.sampled_from(["lru", "fifo", "clock"])),
        "store": draw(st.sampled_from(["memory", "mmap"])),
        "quarantine_frac": draw(st.sampled_from([0.0, 0.0, 0.1, 0.3])),
        "p_fault": draw(st.sampled_from([0.0, 0.0, 0.2, 0.5])),
        "retry_attempts": draw(st.sampled_from([None, 2, 3])),
        "degraded": draw(st.booleans()),
        "deadline_calls": draw(st.sampled_from([None, None, 3, 20])),
    }


def _window(rng, fraction, ndim):
    side = fraction ** (1.0 / ndim)
    lo = rng.random(ndim) * (1.0 - side)
    return Rect(tuple(lo), tuple(lo + side))


def _tree_on(case, workdir, rng):
    """Pack the case's records; returns a factory of fresh trees over
    identical stores (each its own fault plan)."""
    ndim, capacity = case["ndim"], case["capacity"]
    lo = rng.random((case["n"], ndim))
    rects = RectArray(lo, np.minimum(lo + rng.random(lo.shape) * 0.05, 1.0))
    if case["store"] == "memory":
        built, _ = bulk_load(rects, SortTileRecursive(), capacity=capacity,
                             store=MemoryPageStore(
                                 required_page_size(capacity, ndim)))
    else:
        path = os.path.join(workdir, "tree.rt")
        store = FilePageStore(
            path, required_page_size(capacity, ndim) + TRAILER_SIZE,
            checksums=True)
        bulk_load(rects, SortTileRecursive(), capacity=capacity,
                  store=store)
        store.close()
    opened = []

    def fresh():
        if case["store"] == "memory":
            inner = built.store
        else:
            inner = MmapPageStore(path)
            opened.append(inner)
        store = inner
        if case["p_fault"]:
            plan = FaultPlan(seed=case["seed"],
                             p_transient_read=case["p_fault"])
            retry = (None if case["retry_attempts"] is None else
                     RetryPolicy(attempts=case["retry_attempts"],
                                 backoff_s=0.0, jitter=False))
            store = FaultInjectingPageStore(inner, plan, retry=retry)
        if case["store"] == "memory":
            return PagedRTree(store, built.root_page, height=built.height,
                              ndim=built.ndim, capacity=built.capacity,
                              size=len(built))
        return PagedRTree.from_store(store)
    return fresh, opened


@given(walk_cases())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_batched_walk_matches_the_node_at_a_time_walk(case):
    rng = np.random.default_rng(case["seed"])
    with tempfile.TemporaryDirectory() as workdir:
        fresh, opened = _tree_on(case, workdir, rng)
        try:
            ref_tree, new_tree = fresh(), fresh()
            assert 1 <= new_tree.height <= 5
            ref = reference_searcher(ref_tree, case["buffer"],
                                     case["policy"])
            new = new_tree.searcher(case["buffer"], policy=case["policy"])
            pages = np.arange(new_tree.page_count)
            quarantined = set(pages[rng.random(len(pages))
                                    < case["quarantine_frac"]].tolist())
            for fraction, qseed in case["windows"]:
                query = _window(np.random.default_rng(qseed), fraction,
                                case["ndim"])
                want, got = (
                    _run(search, searcher, query, {
                        "check": _deadline(case["deadline_calls"]),
                        "quarantined": quarantined,
                        "degraded": case["degraded"]})
                    for search, searcher in (
                        (reference_search, ref),
                        (PagedSearcher.search_detailed, new)))
                assert got == want
        finally:
            for store in opened:
                store.close()


# -- the decode-once cache ----------------------------------------------------


def _durable(tmp_path, n=1_500, capacity=25, name="tree.rt"):
    rng = np.random.default_rng(11)
    path = str(tmp_path / name)
    store = FilePageStore(path, required_page_size(capacity, 2)
                          + TRAILER_SIZE, checksums=True)
    bulk_load(RectArray.from_points(rng.random((n, 2))), SortTileRecursive(),
              capacity=capacity, store=store)
    store.close()
    return path


def _same_node(a, b):
    return (a.level == b.level
            and np.array_equal(a.children, b.children)
            and a.children.dtype == b.children.dtype
            and a.rects == b.rects)


class TestReadNode:
    @pytest.mark.parametrize("source", ["v2", "checksum-v1"])
    def test_every_page_decodes_as_a_file_read_does(self, tmp_path, source):
        if source == "v2":
            path = _durable(tmp_path)
        else:
            shutil.copytree(os.path.join(LEGACY, "tree"), tmp_path / "v1")
            path = str(tmp_path / "v1" / "tree.rt")
        mapped = MmapPageStore(path)
        stored = FilePageStore.open_existing(path)
        try:
            for _ in range(2):  # first touch, then the kept node
                for pid in range(mapped.page_count):
                    assert _same_node(mapped.read_node(pid),
                                      decode_node(stored.read_page(pid)))
            assert mapped.verified_pages == mapped.page_count
            assert mapped.stats.disk_reads == 2 * mapped.page_count
        finally:
            mapped.close()
            stored.close(flush=False)

    def test_kept_nodes_view_the_mapping(self, tmp_path):
        mapped = MmapPageStore(_durable(tmp_path))
        node = mapped.read_node(0)
        assert mapped.read_node(0) is node
        for array in (node.children, node.rects.los, node.rects.his):
            assert not array.flags.owndata and not array.flags.writeable
        mapped.close()

    def test_a_failed_first_touch_is_not_kept(self, tmp_path):
        path = _durable(tmp_path)
        page_size = required_page_size(25, 2) + TRAILER_SIZE
        with open(path, "r+b") as f:  # flip a payload bit of page 3
            f.seek((SUPERBLOCK_SLOTS + 3) * page_size + 40)
            byte = f.read(1)
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([byte[0] ^ 0x10]))
        mapped = MmapPageStore(path)
        for _ in range(2):
            with pytest.raises(ChecksumError):
                mapped.read_node(3)
        assert mapped.checksum_failures == 2
        assert mapped.stats.disk_reads == 2
        mapped.close()

    @pytest.mark.parametrize("kept", [False, True])
    def test_half_open_breaker_closes_on_reads(self, tmp_path, kept):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=1.0,
                                 half_open_successes=2,
                                 clock=lambda: now[0])
        mapped = MmapPageStore(_durable(tmp_path), breaker=breaker)
        if kept:
            mapped.read_node(0)
            mapped.read_node(1)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        now[0] += 1.5
        assert breaker.state == CircuitBreaker.HALF_OPEN
        mapped.read_node(0)
        mapped.read_node(1)
        assert breaker.state == CircuitBreaker.CLOSED
        mapped.close()

    def test_an_open_breaker_refuses_kept_nodes_uncounted(self, tmp_path):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=60.0)
        mapped = MmapPageStore(_durable(tmp_path), breaker=breaker)
        mapped.read_node(0)
        breaker.record_failure()
        with pytest.raises(StoreError, match="circuit breaker is open"):
            mapped.read_node(0)
        assert mapped.stats.disk_reads == 1
        mapped.close()

    def test_close_with_live_nodes(self, tmp_path):
        path = _durable(tmp_path)
        mapped = MmapPageStore(path)
        tree = PagedRTree.from_store(mapped)
        searcher = tree.searcher(64)
        window = Rect((0.2, 0.2), (0.4, 0.4))
        before = np.sort(searcher.search(window))
        node = mapped.read_node(tree.root_page)
        mapped.close()  # the buffer and `node` still view the mapping
        assert node.rects.los.sum() > 0  # and stay readable
        with pytest.raises(StoreError, match="closed"):
            mapped.read_node(tree.root_page)
        with pytest.raises(StoreError, match="closed"):
            searcher.search(Rect((0.6, 0.6), (0.9, 0.9)))
        assert np.array_equal(np.sort(searcher.search(window)), before)


# -- a child pointer that loops back up the tree ------------------------------


class _StillWalking(BaseException):
    """Raised into a walk that overran its time; a ``BaseException`` so
    that no degraded read can absorb it as a page failure."""


@contextmanager
def _within(seconds):
    """Fail a walk that is still running after ``seconds`` (re-raised
    every 0.1 s after that, should anything swallow it)."""
    def expire(signum, frame):
        raise _StillWalking(f"walk still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds, 0.1)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def cyclic_tree(tmp_path):
    """A 500-point durable tree (capacity 10) whose root's first entry
    points at the root itself, with a recommitted superblock."""
    path = _durable(tmp_path, n=500, capacity=10)
    store = FilePageStore.open_existing(path)
    tree = PagedRTree.from_store(store)
    root = tree.root_node()
    children = root.children.copy()
    children[0] = tree.root_page
    store.write_page(tree.root_page, encode_node(
        NodePage(level=root.level, children=children, rects=root.rects),
        store.page_size))
    store.set_tree_meta(store.tree_meta)
    store.close()
    return path


@pytest.mark.skipif(not hasattr(signal, "setitimer"),
                    reason="needs SIGALRM interval timers")
class TestCyclicPointer:
    SECONDS = 2.0  # a clean walk of this tree takes milliseconds

    def test_uncounted_walks_raise(self, cyclic_tree):
        tree = PagedRTree.from_store(MmapPageStore(cyclic_tree))
        with _within(self.SECONDS):
            with pytest.raises(PageFormatError, match="level"):
                list(tree.iter_nodes())
            with pytest.raises(PageFormatError, match="level"):
                tree.level_summaries()
            with pytest.raises(PageFormatError, match="level"):
                merge_module._read_base(cyclic_tree)
        tree.store.close()

    @pytest.mark.parametrize("opener", [MmapPageStore,
                                        FilePageStore.open_existing])
    def test_queries_raise_or_answer_partial(self, cyclic_tree, opener):
        store = opener(cyclic_tree)
        tree = PagedRTree.from_store(store)
        unit = Rect((0.0, 0.0), (1.0, 1.0))
        with _within(self.SECONDS):
            with pytest.raises(PageFormatError, match="level"):
                tree.searcher(10).search(unit)
            with pytest.raises(PageFormatError, match="level"):
                knn_detailed(tree.searcher(10), (0.5, 0.5), 600)
            failed = []
            found = tree.searcher(10).search_detailed(
                unit, degraded=True,
                on_page_error=lambda p, e: failed.append(p))
            near = knn_detailed(tree.searcher(10), (0.5, 0.5), 600,
                                degraded=True)
        assert found.partial and found.skipped_subtrees == 1
        assert failed == [tree.root_page]
        assert 0 < len(found.ids) < 500
        assert near.partial and len(near.neighbours) < 500
        store.close()

    def test_fsck_still_reports_the_cycle(self, cyclic_tree):
        from repro.fsck import fsck
        report = fsck(cyclic_tree)
        assert not report.clean
        assert any("level" in e for e in report.structural_errors)


# -- repro serve over a legacy journal ----------------------------------------


def test_repro_serve_replays_a_legacy_journal(tmp_path, monkeypatch,
                                              capsys):
    """``repro serve`` maps the file read-only, so a journal with
    unreplayed records is replayed first, and healthz reports it."""
    import json
    shutil.copytree(os.path.join(LEGACY, "journaled"), tmp_path / "j")
    path = str(tmp_path / "j" / "tree.rt")
    with open(os.path.join(LEGACY, "fixtures.json")) as f:
        records = sorted(r[0] for r in json.load(f)["records"])
    seen = {}

    async def probe(self):
        seen["store"] = type(self.tree.store)
        health = await self.handle_request(Request(op="healthz", id=1))
        seen["health"] = health.data
        seen["search"] = await self.handle_request(Request(
            op="search", id=2, rect=[[-1.0, -1.0], [2.0, 2.0]]))
        raise KeyboardInterrupt

    monkeypatch.setattr(QueryServer, "serve_forever", probe)
    assert cli_main(["serve", path, "--port", "0", "--no-manifest"]) == 0
    assert "serving" in capsys.readouterr().out
    assert seen["store"] is MmapPageStore
    store = seen["health"]["store"]
    assert (store["recoveries"], store["recovered_pages"],
            store["journal_recovered"]) == (1, 2, True)
    answer = seen["search"]
    assert answer.ok and not answer.partial
    assert answer.ids == records
    assert not os.path.exists(path + ".journal")


def test_nan_page_is_a_format_error(tmp_path):
    path = _durable(tmp_path, n=200, capacity=10)
    store = FilePageStore.open_existing(path)
    tree = PagedRTree.from_store(store)
    leaf = tree.level_pages(0)[0]
    data = bytearray(store.read_page(leaf))
    struct.pack_into("<d", data, 16 + 8, float("nan"))
    store.write_page(leaf, bytes(data))
    with pytest.raises(PageFormatError, match=f"page {leaf} .*non-finite"):
        decode_node(store.read_page(leaf), page_id=leaf, source=path)
    struct.pack_into("<d", data, 16 + 8, 2.0)  # lo > hi
    with pytest.raises(PageFormatError, match="rectangle 0 has lo > hi"):
        decode_node(bytes(data))
    store.close()
