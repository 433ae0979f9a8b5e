"""MmapPageStore: byte-parity with FilePageStore, first-touch CRC
verification, read-only enforcement, legacy journal refusal,
fault-injection compatibility, and real multi-process shared readers."""

import dataclasses
import hashlib
import multiprocessing
import os
import shutil

import pytest

from repro import RectArray, SortTileRecursive, bulk_load
from repro.rtree.paged import PagedRTree
from repro.storage import FilePageStore, MmapPageStore
from repro.storage.faults import (
    FaultInjectingPageStore,
    FaultPlan,
    RetryPolicy,
    corrupt_pages,
)
from repro.storage.integrity import (
    FLAG_JOURNAL,
    SUPERBLOCK_SLOTS,
    TRAILER_SIZE,
    ChecksumError,
    Superblock,
)
from repro.storage.journal import journal_path
from repro.storage.page import required_page_size
from repro.storage.store import StoreError

CAPACITY = 25
NDIM = 2
PAGE_SIZE = required_page_size(CAPACITY, NDIM) + TRAILER_SIZE
#: Durable files written when stores could still journal page writes.
LEGACY = os.path.join(os.path.dirname(__file__), "data", "checksum-v1")


def _build(rng, path, *, n=1_500, checksums=True):
    store = FilePageStore(path, PAGE_SIZE, checksums=checksums)
    rects = RectArray.from_points(rng.random((n, NDIM)))
    tree, _ = bulk_load(rects, SortTileRecursive(), capacity=CAPACITY,
                        store=store)
    return store, tree


def _flag_journal(path):
    """Set the legacy journal flag in both superblock slots of a closed
    durable file, as every durable file written while stores journaled
    carried it."""
    with open(path, "r+b") as f:
        for slot in range(SUPERBLOCK_SLOTS):
            f.seek(slot * PAGE_SIZE)
            sb = Superblock.decode(f.read(PAGE_SIZE))
            f.seek(slot * PAGE_SIZE)
            f.write(dataclasses.replace(
                sb, flags=sb.flags | FLAG_JOURNAL).encode())


class TestByteParity:
    @pytest.mark.parametrize("checksums,legacy_journal", [
        (True, True), (True, False), (False, False),
    ])
    def test_every_page_byte_identical(self, tmp_path, rng,
                                       checksums, legacy_journal):
        path = tmp_path / "tree.pages"
        store, tree = _build(rng, path, checksums=checksums)
        if legacy_journal:
            store.close()
            _flag_journal(path)
            store = FilePageStore.open_existing(path)
        # A plain (flagless) file has no superblock, so the mmap opener
        # needs the page size spelled out; durable files self-describe.
        kwargs = {} if checksums else {"page_size": PAGE_SIZE}
        mapped = MmapPageStore(path, **kwargs)
        assert mapped.page_count == store.page_count
        assert mapped.payload_size == store.payload_size
        for pid in range(store.page_count):
            assert mapped.read_page(pid) == store.read_page(pid), pid
            assert mapped.raw_read(pid) == store.raw_read(pid), pid
        mapped.close()
        store.close()

    def test_interchangeable_under_a_searcher(self, tmp_path, rng):
        store, tree = _build(rng, tmp_path / "tree.pages")
        queries = [((0.1, 0.1), (0.4, 0.4)), ((0.0, 0.5), (0.9, 0.9))]
        oracle = tree.searcher(128)
        mapped = MmapPageStore(tmp_path / "tree.pages")
        served = PagedRTree.from_store(mapped)
        assert len(served) == len(tree)
        searcher = served.searcher(128)
        from repro.core.geometry import Rect
        for lo, hi in queries:
            q = Rect(lo, hi)
            assert sorted(searcher.search(q)) == sorted(oracle.search(q))
        mapped.close()
        store.close()

    def test_plain_file_requires_page_size(self, tmp_path, rng):
        path = tmp_path / "plain.pages"
        store, _ = _build(rng, path, checksums=False)
        store.close()
        with pytest.raises(StoreError, match="page_size"):
            MmapPageStore(path)

    def test_page_size_mismatch_refused(self, tmp_path, rng):
        store, _ = _build(rng, tmp_path / "tree.pages")
        store.close()
        with pytest.raises(StoreError, match="page size"):
            MmapPageStore(tmp_path / "tree.pages",
                          page_size=PAGE_SIZE * 2)


class TestFirstTouchVerification:
    def test_corrupt_page_fails_loud_on_first_read(self, tmp_path, rng):
        store, tree = _build(rng, tmp_path / "tree.pages")
        victim = tree.level_pages(0)[0]
        corrupt_pages(store, [(victim, PAGE_SIZE * 4 + 3)])
        store.close()
        mapped = MmapPageStore(tmp_path / "tree.pages")
        with pytest.raises(ChecksumError):
            mapped.read_page(victim)
        assert mapped.checksum_failures == 1
        # Healthy pages still serve.
        other = [p for p in range(mapped.page_count) if p != victim][0]
        mapped.read_page(other)
        mapped.close()

    def test_verification_is_cached_per_page(self, tmp_path, rng):
        store, _ = _build(rng, tmp_path / "tree.pages")
        store.close()
        mapped = MmapPageStore(tmp_path / "tree.pages")
        first = mapped.read_page(0)
        assert mapped.verified_pages == 1
        assert mapped.read_page(0) == first  # zeroed-trailer fast path
        assert mapped.verified_pages == 1
        mapped.read_page(1)
        assert mapped.verified_pages == 2
        mapped.close()


class TestReadOnlyByConstruction:
    def test_allocate_and_write_raise(self, tmp_path, rng):
        store, _ = _build(rng, tmp_path / "tree.pages")
        store.close()
        mapped = MmapPageStore(tmp_path / "tree.pages")
        with pytest.raises(StoreError, match="read-only"):
            mapped.allocate()
        with pytest.raises(StoreError, match="read-only"):
            mapped.write_page(0, b"x" * mapped.page_size)
        mapped.close()

    def test_closed_store_refuses_reads(self, tmp_path, rng):
        store, _ = _build(rng, tmp_path / "tree.pages")
        store.close()
        mapped = MmapPageStore(tmp_path / "tree.pages")
        mapped.close()
        mapped.close()  # idempotent
        with pytest.raises(StoreError, match="closed"):
            mapped.read_page(0)


class TestJournalRefusal:
    def _legacy(self, tmp_path, name):
        shutil.copytree(os.path.join(LEGACY, name), tmp_path / name)
        return tmp_path / name / "tree.rt"

    def test_pending_journal_records_refused(self, tmp_path):
        # A crash left unreplayed double-write records: read-only
        # serving must hand the file back to the write side.
        path = self._legacy(tmp_path, "journaled")
        with pytest.raises(StoreError, match="unreplayed"):
            MmapPageStore(path)
        # The write-side opener recovers it; after that mmap works.
        recovered = FilePageStore.open_existing(path)
        recovered.close()
        assert not os.path.exists(journal_path(path))
        mapped = MmapPageStore(path)
        mapped.read_page(0)
        mapped.close()

    def test_checkpointed_journal_is_fine(self, tmp_path):
        # A clean close left the sidecar header-only.
        path = self._legacy(tmp_path, "tree")
        mapped = MmapPageStore(path)
        assert mapped.page_count > 0
        mapped.close()


class TestFaultInjectionCompatibility:
    def test_transient_read_faults_retry_through(self, tmp_path, rng):
        store, tree = _build(rng, tmp_path / "tree.pages")
        store.close()
        mapped = MmapPageStore(tmp_path / "tree.pages")
        plan = FaultPlan(seed=7, p_transient_read=0.3,
                         max_transient_per_op=2)
        flaky = FaultInjectingPageStore(
            mapped, plan, retry=RetryPolicy(attempts=4, seed=7))
        for pid in range(flaky.page_count):
            assert flaky.read_page(pid) == mapped.read_page(pid)
        assert plan.injected["transient_read"] > 0
        mapped.close()


def _digest_worker(path, out_queue):
    mapped = MmapPageStore(path)
    digest = hashlib.sha256()
    for pid in range(mapped.page_count):
        digest.update(mapped.read_page(pid))
    out_queue.put((os.getpid(), digest.hexdigest()))
    mapped.close()


class TestConcurrentProcessReaders:
    def test_real_processes_share_one_file(self, tmp_path, rng):
        store, _ = _build(rng, tmp_path / "tree.pages")
        expected = hashlib.sha256()
        for pid in range(store.page_count):
            expected.update(store.read_page(pid))
        store.close()

        mp = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        out = mp.Queue()
        procs = [mp.Process(target=_digest_worker,
                            args=(str(tmp_path / "tree.pages"), out))
                 for _ in range(3)]
        for p in procs:
            p.start()
        results = [out.get(timeout=60) for _ in procs]
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        pids = {pid for pid, _ in results}
        assert len(pids) == len(procs)  # genuinely separate processes
        assert {d for _, d in results} == {expected.hexdigest()}
