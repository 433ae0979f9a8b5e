"""Checksum format versions: version-1 (CRC32C) files stay readable.

Writers stamp checksum version 2 (CRC-32 via ``zlib``); readers take the
function from the version the bytes name.  The fixtures under
``tests/data/checksum-v1/`` are real bytes written by the last commit
whose writers stamped version 1.  They were made, from the repo root,
with::

    v1=$(mktemp -d)
    git archive e98224f src | tar -x -C "$v1"
    PYTHONPATH="$v1/src" python tests/data/checksum-v1/make_fixtures.py

``make_fixtures.py`` describes each fixture.  Every test copies the
fixture it needs into ``tmp_path`` first, since opening a store for
writing, replaying a journal and merging all rewrite files.
"""

import json
import os
import shutil
import zlib

import numpy as np
import pytest

from repro.cli import main
from repro.core.geometry import Rect, RectArray
from repro.core.packing import SortTileRecursive
from repro.fsck import fsck
from repro.ingest import (
    IngestError,
    IngestState,
    OverlaySearcher,
    WalCorrupt,
    WalSegment,
    WriteAheadLog,
    ingest_dir,
    merge_segments,
    read_pointer,
)
from repro.pipeline import ResumeMismatch, parallel_bulk_load
from repro.rtree.bulk import bulk_load
from repro.rtree.paged import PagedRTree
from repro.storage.faults import flip_bit
from repro.storage.integrity import (
    CHECKSUM_VERSION,
    FLAG_CHECKSUMS,
    FLAG_JOURNAL,
    TRAILER_SIZE,
    ChecksumError,
    IntegrityError,
    Superblock,
    SuperblockError,
    checksum,
    crc32c,
    stamp_trailer,
    trailer_info,
    verify_trailer,
)
from repro.storage.journal import JournalError, WriteJournal, journal_path
from repro.storage.mmap_store import MmapPageStore
from repro.storage.store import FilePageStore, MemoryPageStore, StoreError

FIXTURES = os.path.join(os.path.dirname(__file__), "data", "checksum-v1")
TREE = "tree.rt"

with open(os.path.join(FIXTURES, "fixtures.json")) as _f:
    MANIFEST = json.load(_f)

CAPACITY = MANIFEST["capacity"]
PAGE_SIZE = MANIFEST["page_size"]

WINDOWS = [Rect((x, y), (x + w, y + w))
           for x in (0.0, 0.3, 0.6) for y in (0.05, 0.45, 0.8)
           for w in (0.05, 0.2)] + [Rect((-1.0, -1.0), (2.0, 2.0))]


def _copy(tmp_path, name):
    """Copy one fixture directory into ``tmp_path``; return its path."""
    target = os.path.join(tmp_path, name)
    shutil.copytree(os.path.join(FIXTURES, name), target)
    return target


def _base_records():
    return {int(i): (tuple(lo), tuple(hi))
            for i, lo, hi in MANIFEST["records"]}


def _apply(entries, ops):
    for _lsn, op, data_id, lo, hi in ops:
        if op == "insert":
            entries[data_id] = (tuple(lo), tuple(hi))
        else:
            entries.pop(data_id, None)
    return entries


def _fresh_v2(entries, path):
    """A fresh (version-2) durable build of ``entries``."""
    ids = np.array(sorted(entries), dtype=np.int64)
    los = np.array([entries[int(i)][0] for i in ids], dtype=np.float64)
    his = np.array([entries[int(i)][1] for i in ids], dtype=np.float64)
    store = FilePageStore(path, PAGE_SIZE, checksums=True)
    bulk_load(RectArray(los, his), SortTileRecursive(), data_ids=ids,
              capacity=CAPACITY, store=store)
    store.close()
    return path


def _answers(search):
    return [sorted(int(i) for i in search(w)) for w in WINDOWS]


def _tree_answers(store):
    try:
        return _answers(PagedRTree.from_store(store).searcher(8).search)
    finally:
        store.close()


def _fresh_answers(entries, tmp_path):
    path = _fresh_v2(entries, os.path.join(tmp_path, "fresh.rt"))
    return _tree_answers(FilePageStore.open_existing(path))


def _versions(path):
    """Trailer version of every committed page of a durable file."""
    store = FilePageStore.open_existing(path)
    try:
        return [trailer_info(store.raw_read(p))["version"]
                for p in range(store.page_count)]
    finally:
        store.close(flush=False)


def _flip_digit(line: bytes, key: bytes) -> bytes:
    """Flip the low bit of the last digit of the number after ``key``:
    the record still parses, with a different number."""
    at = line.index(key) + len(key)
    while line[at + 1:at + 2].isdigit():
        at += 1
    return line[:at] + bytes([line[at] ^ 1]) + line[at + 1:]


# -- the version table --------------------------------------------------------


class TestVectors:
    def test_v2_is_zlib_crc32(self):
        # The CRC-32 (IEEE) check value.
        assert zlib.crc32(b"123456789") == 0xCBF43926
        assert checksum(b"123456789") == 0xCBF43926
        assert checksum(b"123456789", version=2) == 0xCBF43926
        assert CHECKSUM_VERSION == 2

    def test_v1_is_crc32c(self):
        assert checksum(b"123456789", version=1) == crc32c(b"123456789")
        assert checksum(b"123456789", version=1) == 0xE3069283

    def test_incremental_equals_one_shot(self):
        data = bytes(range(256)) * 3
        for version in (1, 2):
            assert (checksum(data[100:], checksum(data[:100],
                                                  version=version),
                             version=version)
                    == checksum(data, version=version))

    def test_unknown_version_refused(self):
        with pytest.raises(IntegrityError, match="version 3"):
            checksum(b"x", version=3)


# -- a version-1 tree ----------------------------------------------------------


class TestV1Tree:
    def test_file_store_answers_like_fresh_v2(self, tmp_path):
        path = os.path.join(_copy(tmp_path, "tree"), TREE)
        got = _tree_answers(FilePageStore.open_existing(path))
        assert got == _fresh_answers(_base_records(), tmp_path)
        assert any(got)

    def test_mmap_store_answers_like_fresh_v2(self, tmp_path):
        path = os.path.join(_copy(tmp_path, "tree"), TREE)
        store = MmapPageStore(path)
        got = _tree_answers(store)
        assert store.verified_pages > 0
        assert got == _fresh_answers(_base_records(), tmp_path)

    def test_layout_matches_fresh_v2_but_for_trailer(self, tmp_path):
        old = os.path.join(_copy(tmp_path, "tree"), TREE)
        new = _fresh_v2(_base_records(), os.path.join(tmp_path, "new.rt"))
        assert os.path.getsize(old) == os.path.getsize(new)
        assert set(_versions(old)) == {1}
        assert set(_versions(new)) == {2}
        a, b = FilePageStore.open_existing(old), \
            FilePageStore.open_existing(new)
        try:
            assert a.tree_meta == b.tree_meta
            for pid in range(a.page_count):
                assert (a.raw_read(pid)[:PAGE_SIZE - TRAILER_SIZE]
                        == b.raw_read(pid)[:PAGE_SIZE - TRAILER_SIZE])
        finally:
            a.close(flush=False)
            b.close(flush=False)

    def test_fsck_counts_v1_pages(self, tmp_path, capsys):
        path = os.path.join(_copy(tmp_path, "tree"), TREE)
        report = fsck(path)
        assert report.clean
        assert report.trailer_versions == {1: report.pages_checked}
        assert report.as_dict()["trailer_versions"] == {
            "1": report.pages_checked}
        assert main(["fsck", path, "--no-manifest"]) == 0
        assert (f"trailer versions: v1 {report.pages_checked} page(s)"
                in capsys.readouterr().out)

    def test_fsck_manifest_records_versions(self, tmp_path):
        path = os.path.join(_copy(tmp_path, "tree"), TREE)
        run_dir = os.path.join(tmp_path, "runs")
        assert main(["fsck", path, "--run-dir", run_dir]) == 0
        (name,) = os.listdir(run_dir)
        with open(os.path.join(run_dir, name)) as f:
            extra = json.load(f)["extra"]["fsck"]
        assert list(extra["trailer_versions"]) == ["1"]
        assert extra["wal_versions"] == {}

    def test_rewritten_page_is_stamped_v2(self, tmp_path):
        path = os.path.join(_copy(tmp_path, "tree"), TREE)
        with FilePageStore.open_existing(path) as store:
            store.write_page(3, store.read_page(3))
        versions = _versions(path)
        assert versions[3] == 2
        assert versions.count(1) == len(versions) - 1
        # Pages of both versions, and superblock slots of both versions
        # (the close committed a v2 slot), in one file.
        report = fsck(path)
        assert report.clean
        assert report.trailer_versions == {1: len(versions) - 1, 2: 1}
        assert _tree_answers(FilePageStore.open_existing(path)) \
            == _fresh_answers(_base_records(), tmp_path)


# -- a version-1 journal with unreplayed records -------------------------------


class TestV1Journal:
    def test_mmap_refuses_unreplayed_journal(self, tmp_path):
        path = os.path.join(_copy(tmp_path, "journaled"), TREE)
        with pytest.raises(StoreError, match="unreplayed"):
            MmapPageStore(path)

    def test_scan_uses_header_version(self, tmp_path):
        path = os.path.join(_copy(tmp_path, "journaled"), TREE)
        journal = WriteJournal(journal_path(path), PAGE_SIZE)
        try:
            assert journal.version == 1
            records = list(journal.scan())
            assert [pid for pid, _ in records] == MANIFEST["journal_pages"]
            for pid, image in records:
                assert trailer_info(image)["version"] == 1
                verify_trailer(image, pid)
        finally:
            journal.close()

    def test_open_existing_replays_and_deletes_sidecar(self, tmp_path):
        path = os.path.join(_copy(tmp_path, "journaled"), TREE)
        torn = MANIFEST["journal_pages"][1]
        with pytest.raises(ChecksumError):
            # Only the journal holds an intact image of this page.
            verify_trailer(_raw_page(path, torn), torn)
        store = FilePageStore.open_existing(path)
        assert store.recoveries == 1
        assert store.recovered_pages == 2
        assert not os.path.exists(journal_path(path))
        assert _newest_flags(path) & FLAG_JOURNAL
        store.close()
        # The close's superblock commit drops the journal flag.
        assert _newest_flags(path) == FLAG_CHECKSUMS
        verify_trailer(_raw_page(path, torn), torn)
        assert _tree_answers(FilePageStore.open_existing(path)) \
            == _fresh_answers(_base_records(), tmp_path)

    def test_fsck_replays_v1_journal(self, tmp_path):
        path = os.path.join(_copy(tmp_path, "journaled"), TREE)
        report = fsck(path)
        assert report.journal_recovered
        assert report.recovered_pages == 2
        assert report.clean
        assert report.trailer_versions == {1: report.pages_checked}
        assert not os.path.exists(journal_path(path))
        assert _newest_flags(path) == FLAG_CHECKSUMS


def _raw_page(path, page_id):
    with open(path, "rb") as f:
        f.seek((2 + page_id) * PAGE_SIZE)
        return f.read(PAGE_SIZE)


def _newest_flags(path):
    """Durability flags of the newest superblock slot."""
    with open(path, "rb") as f:
        slots = [Superblock.decode(f.read(PAGE_SIZE)) for _ in range(2)]
    return max(slots, key=lambda sb: sb.seq).flags


# -- a version-1 ingest directory ---------------------------------------------


@pytest.fixture
def ingest_tree(tmp_path, monkeypatch):
    """The ingest fixture, with the working directory set so the
    pointer's relative generation path resolves."""
    monkeypatch.chdir(_copy(tmp_path, "ingest"))
    return TREE


def _wal_view(op):
    rect = op.rect
    return [op.lsn, op.op, op.data_id,
            list(rect.lo) if rect is not None else None,
            list(rect.hi) if rect is not None else None]


class TestV1Ingest:
    def test_read_pointer_accepts_v1(self, ingest_tree):
        pointer = read_pointer(ingest_dir(ingest_tree))
        assert pointer is not None
        assert (pointer.generation, pointer.merged_seq,
                pointer.merged_lsn) == (2, 1, 30)
        assert os.path.exists(pointer.path)

    def test_wal_replays_v1_segments(self, ingest_tree):
        pointer = read_pointer(ingest_dir(ingest_tree))
        with WriteAheadLog(ingest_dir(ingest_tree),
                           start_after_seq=pointer.merged_seq,
                           min_lsn=pointer.merged_lsn) as wal:
            assert [(s.seq, s.sealed) for s in wal.segments] == [
                (2, True), (3, False)]
            assert [_wal_view(op) for op in wal.iter_ops()] == (
                MANIFEST["sealed_ops"] + MANIFEST["active_ops"])
            assert [s.versions for s in wal.segments] == [
                {1: len(MANIFEST["sealed_ops"]) + 1},
                {1: len(MANIFEST["active_ops"])}]

    def test_overlay_answers_like_fresh_v2(self, ingest_tree, tmp_path):
        state, base_path = IngestState.open(ingest_tree, ndim=2)
        try:
            store = FilePageStore.open_existing(base_path)
            try:
                overlay = OverlaySearcher(
                    PagedRTree.from_store(store).searcher(8),
                    state.layers())
                got = _answers(lambda w: overlay.search_detailed(w).ids)
            finally:
                store.close()
        finally:
            state.close()
        want = _apply(_base_records(), MANIFEST["merged_ops"]
                      + MANIFEST["sealed_ops"] + MANIFEST["active_ops"])
        assert got == _fresh_answers(want, tmp_path)

    def test_fsck_counts_v1_wal_records(self, ingest_tree, capsys):
        report = fsck(ingest_tree)
        assert report.clean, report.render()
        records = (len(MANIFEST["sealed_ops"]) + 1
                   + len(MANIFEST["active_ops"]))
        assert report.wal_versions == {1: records}
        assert report.as_dict()["wal_versions"] == {"1": records}
        assert f"record versions: v1 {records} record(s)" in report.render()

    def test_v2_appends_to_v1_active_segment_replay(self, ingest_tree):
        pointer = read_pointer(ingest_dir(ingest_tree))
        kwargs = {"start_after_seq": pointer.merged_seq,
                  "min_lsn": pointer.merged_lsn}
        with WriteAheadLog(ingest_dir(ingest_tree), **kwargs) as wal:
            added = [wal.append("insert", 5000 + i,
                                Rect((0.1 * i, 0.5), (0.1 * i + 0.01, 0.51)))
                     for i in range(3)]
            added.append(wal.append("delete", 7, None))
        with WriteAheadLog(ingest_dir(ingest_tree), **kwargs) as wal:
            active = wal.active_segment
            assert active is not None and active.seq == 3
            assert active.versions == {1: len(MANIFEST["active_ops"]),
                                       2: len(added)}
            assert [_wal_view(op) for op in active.ops] == (
                MANIFEST["active_ops"] + [_wal_view(op) for op in added])
        with open(active.path, "rb") as f:
            tags = [json.loads(line)["format"] for line in f]
        assert set(tags[:-len(added)]) == {"repro-ingest-wal-v1"}
        assert set(tags[-len(added):]) == {"repro-ingest-wal-v2"}
        report = fsck(ingest_tree)
        assert report.clean, report.render()
        assert report.wal_versions[2] == len(added)

    def test_merge_of_v1_wal_commits_v2_generation(self, ingest_tree,
                                                   tmp_path):
        result = merge_segments(ingest_tree)
        assert result is not None and result.generation == 3
        with open(os.path.join(ingest_dir(ingest_tree),
                               "generation.json")) as f:
            assert json.load(f)["format"] == "repro-ingest-generation-v2"
        pointer = read_pointer(ingest_dir(ingest_tree))
        assert (pointer.generation, pointer.merged_seq) == (3, 2)
        assert set(_versions(pointer.path)) == {2}
        assert fsck(pointer.path).trailer_versions == {
            2: len(_versions(pointer.path))}
        want = _apply(_base_records(),
                      MANIFEST["merged_ops"] + MANIFEST["sealed_ops"])
        assert _tree_answers(FilePageStore.open_existing(pointer.path)) \
            == _fresh_answers(want, tmp_path)
        # The v1 active segment is still pending and still replays.
        with WriteAheadLog(ingest_dir(ingest_tree),
                           start_after_seq=pointer.merged_seq,
                           min_lsn=pointer.merged_lsn) as wal:
            assert [_wal_view(op) for op in wal.iter_ops()] \
                == MANIFEST["active_ops"]


# -- damage is still caught, on both versions ---------------------------------


def _v2_segment(tmp_path):
    """A sealed all-v2 segment written by this build."""
    with WriteAheadLog(os.path.join(tmp_path, "v2.ingest")) as wal:
        for i in range(4):
            wal.append("insert", 10 + i, Rect((0.1, 0.2), (0.3, 0.4)))
        return wal.seal_active().path


def _v1_segment(tmp_path):
    return os.path.join(_copy(tmp_path, "ingest"), "tree.rt.ingest",
                        "wal-00000002.log")


class TestBitFlips:
    @pytest.mark.parametrize("version", [1, 2])
    def test_page_flip_is_checksum_error(self, tmp_path, version):
        if version == 1:
            path = os.path.join(_copy(tmp_path, "tree"), TREE)
        else:
            path = _fresh_v2(_base_records(),
                             os.path.join(tmp_path, "v2.rt"))
        with FilePageStore.open_existing(path) as store:
            assert trailer_info(store.raw_read(4))["version"] == version
            store.raw_write(4, flip_bit(store.raw_read(4), 8 * 40 + 3))
            with pytest.raises(ChecksumError, match="checksum mismatch"):
                store.read_page(4)
            store.close(flush=False)

    @pytest.mark.parametrize("version", [1, 2])
    def test_superblock_flip_is_superblock_error(self, tmp_path, version):
        if version == 1:
            with open(os.path.join(FIXTURES, "tree", TREE), "rb") as f:
                slot = f.read(PAGE_SIZE)
        else:
            slot = Superblock(page_size=PAGE_SIZE, seq=3).encode()
        assert int.from_bytes(slot[4:6], "little") == version
        Superblock.decode(slot)
        with pytest.raises(SuperblockError, match="checksum mismatch"):
            Superblock.decode(flip_bit(slot, 8 * 20 + 1))

    @pytest.mark.parametrize("make", [_v1_segment, _v2_segment],
                             ids=["v1", "v2"])
    def test_wal_flip_is_wal_corrupt(self, tmp_path, make):
        path = make(tmp_path)
        WalSegment.load(path)
        with open(path, "rb") as f:
            lines = f.read().split(b"\n")
        lines[0] = _flip_digit(lines[0], b'"id":')
        with open(path, "wb") as f:
            f.write(b"\n".join(lines))
        with pytest.raises(WalCorrupt, match="fails its CRC"):
            WalSegment.load(path)


# -- an unknown version is refused by name --------------------------------------


class TestUnknownVersion:
    def test_trailer(self):
        page = stamp_trailer(b"p" * (PAGE_SIZE - TRAILER_SIZE)
                             + b"\x00" * TRAILER_SIZE, 0)
        at = PAGE_SIZE - TRAILER_SIZE + 4
        page = page[:at] + (3).to_bytes(2, "little") + page[at + 2:]
        with pytest.raises(ChecksumError, match="trailer version 3"):
            verify_trailer(page, 0)

    def test_superblock(self):
        slot = Superblock(page_size=PAGE_SIZE).encode()
        slot = slot[:4] + (3).to_bytes(2, "little") + slot[6:]
        with pytest.raises(SuperblockError, match="superblock version 3"):
            Superblock.decode(slot)

    def test_journal(self, tmp_path):
        path = journal_path(os.path.join(_copy(tmp_path, "tree"), TREE))
        with open(path, "r+b") as f:
            f.seek(4)
            f.write((3).to_bytes(2, "little"))
        with pytest.raises(JournalError, match="journal version 3"):
            WriteJournal(path, PAGE_SIZE)

    def test_wal_record(self, tmp_path):
        path = _v2_segment(tmp_path)
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(data.replace(b"repro-ingest-wal-v2",
                                 b"repro-ingest-wal-v3", 1))
        with pytest.raises(WalCorrupt, match="repro-ingest-wal-v3"):
            WalSegment.load(path)

    def test_generation_pointer(self, ingest_tree):
        path = os.path.join(ingest_dir(ingest_tree), "generation.json")
        with open(path) as f:
            payload = json.load(f)
        payload["format"] = "repro-ingest-generation-v3"
        with open(path, "w") as f:
            json.dump(payload, f)
        with pytest.raises(IngestError, match="repro-ingest-generation-v3"):
            read_pointer(ingest_dir(ingest_tree))


# -- build staging is never resumed across versions ----------------------------


def test_v1_staging_dir_refused_on_resume(tmp_path):
    staging = _copy(tmp_path, "staging")
    entries = _base_records()
    ids = np.array(sorted(entries), dtype=np.int64)
    rects = RectArray(np.array([entries[int(i)][0] for i in ids]),
                      np.array([entries[int(i)][1] for i in ids]))
    with pytest.raises(ResumeMismatch, match="repro-build-plan-v1"):
        parallel_bulk_load(rects, data_ids=ids, capacity=CAPACITY,
                           store=MemoryPageStore(512), staging_path=staging,
                           workers=0, resume=True)
    assert os.path.exists(os.path.join(staging, "plan.json"))
