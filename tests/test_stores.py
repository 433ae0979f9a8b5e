"""Unit tests for MemoryPageStore and FilePageStore."""

import os

import pytest

from repro.storage.counters import IOStats
from repro.storage.integrity import (
    FLAG_CHECKSUMS,
    FLAG_JOURNAL,
    TRAILER_SIZE,
    ChecksumError,
    Superblock,
)
from repro.storage.store import FilePageStore, MemoryPageStore, StoreError

PAGE = 512


def _superblock_flags(path):
    """The flags of both superblock slots of a durable file."""
    with open(path, "rb") as f:
        page_size = Superblock.decode(f.read(4096)).page_size
        f.seek(0)
        return {Superblock.decode(f.read(page_size)).flags
                for _ in range(2)}


def _legacy_journal_only(path):
    """A new journaled store without checksums, as stores created it
    while they journaled: both superblock slots flag the journal alone,
    and pages carry no checksum trailer."""
    with open(path, "wb") as f:
        for seq in (2, 1):  # slot 0 holds the even sequence number
            f.write(Superblock(page_size=PAGE, flags=FLAG_JOURNAL,
                               seq=seq).encode())
    return path


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        yield MemoryPageStore(PAGE)
    else:
        s = FilePageStore(tmp_path / "pages.bin", PAGE)
        yield s
        s.close()


class TestCommonBehaviour:
    def test_allocate_returns_dense_ids(self, store):
        assert [store.allocate() for _ in range(3)] == [0, 1, 2]
        assert store.page_count == 3

    def test_write_read_roundtrip(self, store):
        pid = store.allocate()
        payload = bytes(range(256)) * 2
        store.write_page(pid, payload)
        assert store.read_page(pid) == payload

    def test_overwrite(self, store):
        pid = store.allocate()
        store.write_page(pid, b"a" * PAGE)
        store.write_page(pid, b"b" * PAGE)
        assert store.read_page(pid) == b"b" * PAGE

    def test_wrong_size_write_rejected(self, store):
        pid = store.allocate()
        with pytest.raises(StoreError):
            store.write_page(pid, b"short")

    def test_read_unallocated_rejected(self, store):
        with pytest.raises(StoreError):
            store.read_page(0)

    def test_negative_id_rejected(self, store):
        with pytest.raises(StoreError):
            store.read_page(-1)

    def test_counters(self, store):
        pid = store.allocate()
        store.write_page(pid, b"x" * PAGE)
        store.read_page(pid)
        store.read_page(pid)
        assert store.stats.disk_writes == 1
        assert store.stats.disk_reads == 2

    def test_read_with_stats_override(self, store):
        pid = store.allocate()
        store.write_page(pid, b"x" * PAGE)
        other = IOStats()
        store.read_page(pid, other)
        assert other.disk_reads == 1
        assert store.stats.disk_reads == 0

    def test_peek_does_not_count(self, store):
        pid = store.allocate()
        store.write_page(pid, b"x" * PAGE)
        store.stats.reset()
        assert store.peek_page(pid) == b"x" * PAGE
        assert store.stats.disk_reads == 0

    def test_page_ids_iterates_all(self, store):
        for _ in range(4):
            store.allocate()
        assert list(store.page_ids()) == [0, 1, 2, 3]

    def test_tiny_page_size_rejected(self):
        with pytest.raises(StoreError):
            MemoryPageStore(8)


class TestMemorySpecific:
    def test_read_allocated_unwritten_rejected(self):
        s = MemoryPageStore(PAGE)
        pid = s.allocate()
        with pytest.raises(StoreError):
            s.read_page(pid)


class TestFileSpecific:
    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "p.bin"
        with FilePageStore(path, PAGE) as s:
            pid = s.allocate()
            s.write_page(pid, b"z" * PAGE)
        with FilePageStore(path, PAGE) as s2:
            assert s2.page_count == 1
            assert s2.read_page(pid) == b"z" * PAGE

    def test_bytes_really_on_disk(self, tmp_path):
        path = tmp_path / "p.bin"
        with FilePageStore(path, PAGE) as s:
            pid = s.allocate()
            s.write_page(pid, b"q" * PAGE)
            s.flush()
            assert os.path.getsize(path) == PAGE
            with open(path, "rb") as f:
                assert f.read() == b"q" * PAGE

    def test_misaligned_existing_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"x" * (PAGE + 1))
        with pytest.raises(StoreError):
            FilePageStore(path, PAGE)

    def test_closed_store_rejects_io(self, tmp_path):
        s = FilePageStore(tmp_path / "c.bin", PAGE)
        pid = s.allocate()
        s.write_page(pid, b"x" * PAGE)
        s.close()
        with pytest.raises(StoreError, match="closed"):
            s.read_page(pid)

    def test_every_operation_rejected_after_close(self, tmp_path):
        s = FilePageStore(tmp_path / "c2.bin", PAGE)
        pid = s.allocate()
        s.write_page(pid, b"x" * PAGE)
        s.close()
        for op in (s.allocate,
                   lambda: s.write_page(pid, b"y" * PAGE),
                   lambda: s.peek_page(pid),
                   lambda: s.raw_read(pid),
                   lambda: s.raw_write(pid, b"y" * PAGE),
                   s.flush):
            with pytest.raises(StoreError, match="closed"):
                op()

    def test_double_close_is_safe(self, tmp_path):
        s = FilePageStore(tmp_path / "d.bin", PAGE)
        s.close()
        s.close()

    def test_path_property(self, tmp_path):
        path = tmp_path / "e.bin"
        with FilePageStore(path, PAGE) as s:
            assert s.path == str(path)

    def test_batched_allocation_trims_back_on_flush(self, tmp_path):
        """allocate() extends the file in doubling truncate batches, but
        flush/close always trim to exactly page_count pages."""
        path = tmp_path / "batch.bin"
        with FilePageStore(path, PAGE) as s:
            for i in range(37):
                pid = s.allocate()
                s.write_page(pid, bytes([i % 251]) * PAGE)
            s.flush()
            assert os.path.getsize(path) == 37 * PAGE
        assert os.path.getsize(path) == 37 * PAGE
        with FilePageStore(path, PAGE) as s2:
            assert s2.page_count == 37
            assert s2.read_page(36) == bytes([36 % 251]) * PAGE

    def test_allocated_unwritten_pages_do_not_linger_on_disk(self, tmp_path):
        path = tmp_path / "over.bin"
        with FilePageStore(path, PAGE) as s:
            s.allocate()
            s.write_page(0, b"a" * PAGE)
            s.allocate()  # extended but never written
        assert os.path.getsize(path) == 2 * PAGE  # exact, not the batch


class TestDurableFile:
    """Checksums + superblock (the opt-in durability layer), and the
    files stores wrote while they could journal page writes."""

    def _durable(self, tmp_path, name="d.pages"):
        return FilePageStore(tmp_path / name, PAGE, checksums=True)

    def _payload(self, store, fill=b"v"):
        return fill * store.payload_size + b"\x00" * TRAILER_SIZE

    def test_payload_size_reserves_trailer(self, tmp_path):
        with self._durable(tmp_path) as s:
            assert s.payload_size == PAGE - TRAILER_SIZE

    def test_roundtrip_and_self_describing_reopen(self, tmp_path):
        with self._durable(tmp_path) as s:
            pid = s.allocate()
            s.write_page(pid, self._payload(s))
            path = s.path
        with FilePageStore.open_existing(path) as s2:
            assert s2.checksums
            assert s2.page_count == 1
            assert s2.read_page(0) == self._payload(s2)

    def test_payload_into_trailer_region_rejected(self, tmp_path):
        with self._durable(tmp_path) as s:
            pid = s.allocate()
            with pytest.raises(StoreError, match="trailer"):
                s.write_page(pid, b"x" * PAGE)

    def test_corruption_detected_on_read(self, tmp_path):
        with self._durable(tmp_path) as s:
            pid = s.allocate()
            s.write_page(pid, self._payload(s))
            raw = bytearray(s.raw_read(pid))
            raw[10] ^= 0x40
            s.raw_write(pid, bytes(raw))
            with pytest.raises(ChecksumError):
                s.read_page(pid)
            assert s.checksum_failures == 1

    def test_flag_mismatch_on_reopen_rejected(self, tmp_path):
        path = _legacy_journal_only(tmp_path / "legacy.pages")
        with pytest.raises(StoreError, match="flags"):
            FilePageStore(path, PAGE, checksums=True)

    def test_legacy_journal_only_file_opens(self, tmp_path):
        path = _legacy_journal_only(tmp_path / "legacy.pages")
        with FilePageStore.open_existing(path) as s:
            assert not s.checksums and s.supports_tree_meta
            s.write_page(s.allocate(), b"j" * PAGE)
        with FilePageStore(path, PAGE) as s:
            assert s.read_page(0) == b"j" * PAGE
        # Each close committed one slot without the journal flag.
        assert _superblock_flags(path) == {0}

    @pytest.mark.parametrize("writer", ["store", "journal-keyword",
                                        "repro-build"])
    def test_fresh_file_is_never_journaled(self, tmp_path, writer):
        """No writer sets the journal flag or leaves a sidecar — not even
        a caller still passing the ignored ``journal=`` keyword, as the
        benchmark's traced build does."""
        path = tmp_path / "tree.rt"
        if writer == "repro-build":
            from repro.cli import main
            assert main(["build", str(path), "--size", "2000",
                         "--capacity", "50", "--workers", "1",
                         "--no-manifest"]) == 0
        else:
            extra = {"journal": True} if writer == "journal-keyword" else {}
            with FilePageStore(path, PAGE, checksums=True, **extra) as s:
                s.write_page(s.allocate(), self._payload(s))
        assert _superblock_flags(path) == {FLAG_CHECKSUMS}
        assert os.listdir(tmp_path) == ["tree.rt"]

    def test_plain_open_of_durable_file_rejected(self, tmp_path):
        with self._durable(tmp_path) as s:
            path = s.path
        with pytest.raises(StoreError, match="superblock"):
            FilePageStore(path, PAGE)

    def test_open_existing_on_plain_file_rejected(self, tmp_path):
        path = tmp_path / "plain.bin"
        with FilePageStore(path, PAGE) as s:
            s.allocate()
            s.write_page(0, b"x" * PAGE)
        with pytest.raises(StoreError, match="no superblock"):
            FilePageStore.open_existing(path)

    def test_page_size_mismatch_on_reopen_rejected(self, tmp_path):
        with self._durable(tmp_path) as s:
            path = s.path
        with pytest.raises(StoreError, match="page size"):
            FilePageStore(path, PAGE * 2, checksums=True)

    def test_tree_meta_roundtrip(self, tmp_path):
        meta = {"height": 2, "root_page": 4, "ndim": 2,
                "capacity": 10, "size": 33}
        with self._durable(tmp_path) as s:
            assert s.tree_meta is None
            s.set_tree_meta(meta)
            path = s.path
        with FilePageStore.open_existing(path) as s2:
            assert s2.tree_meta == meta

    def test_tree_meta_requires_durability(self, tmp_path):
        with FilePageStore(tmp_path / "p.bin", PAGE) as s:
            assert not s.supports_tree_meta
            with pytest.raises(StoreError, match="superblock"):
                s.set_tree_meta({"height": 1, "root_page": 0, "ndim": 2,
                                 "capacity": 1, "size": 1})

    def test_tree_meta_missing_keys_rejected(self, tmp_path):
        with self._durable(tmp_path) as s:
            with pytest.raises(StoreError, match="missing keys"):
                s.set_tree_meta({"height": 1})

    def test_uncommitted_pages_discarded_on_reopen(self, tmp_path):
        """The superblock's page count is the committed truth: pages
        allocated after the last flush do not exist after reopen."""
        s = self._durable(tmp_path)
        path = s.path
        s.allocate()
        s.write_page(0, self._payload(s))
        s.flush()
        s.allocate()
        s.write_page(1, self._payload(s, b"w"))
        # no flush: simulate losing the process
        s._crashed = True
        s.close()
        with FilePageStore.open_existing(path) as s2:
            assert s2.page_count == 1

    def test_memory_store_has_no_superblock_features(self):
        s = MemoryPageStore(PAGE)
        assert not getattr(s, "supports_tree_meta", False)
