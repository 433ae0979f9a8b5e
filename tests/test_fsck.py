"""``repro fsck``: page-level and structural checking, CLI surface."""

import json
import os
import shutil
import struct

import numpy as np
import pytest

from repro import RectArray, SortTileRecursive, bulk_load
from repro.cli import main
from repro.core.geometry import Rect
from repro.fsck import fsck
from repro.ingest.merge import merge_segments
from repro.ingest.wal import WriteAheadLog, ingest_dir, segment_name
from repro.storage import FilePageStore, flip_bit
from repro.storage.integrity import TRAILER_SIZE
from repro.storage.page import required_page_size

CAPACITY = 20
PAGE_SIZE = required_page_size(CAPACITY, 2) + TRAILER_SIZE


@pytest.fixture
def rects(rng):
    return RectArray.from_points(rng.random((500, 2)))


def _durable_tree(tmp_path, rects, name="t.pages"):
    path = tmp_path / name
    store = FilePageStore(path, PAGE_SIZE, checksums=True)
    tree, _ = bulk_load(rects, SortTileRecursive(), capacity=CAPACITY,
                        store=store)
    store.close()
    return path


class TestFsckModule:
    def test_clean_durable_tree(self, tmp_path, rects):
        report = fsck(_durable_tree(tmp_path, rects))
        assert report.clean, report.render()
        assert report.checksums and not report.journal_recovered
        assert report.pages_checked > 0
        assert report.tree["size"] == 500
        assert "clean" in report.render()

    def test_clean_plain_tree_with_sidecar(self, tmp_path, rects):
        path = tmp_path / "plain.pages"
        store = FilePageStore(path, required_page_size(CAPACITY, 2))
        tree, _ = bulk_load(rects, SortTileRecursive(), capacity=CAPACITY,
                            store=store)
        meta = tmp_path / "plain.meta.json"
        tree.save_meta(meta)
        store.close()
        report = fsck(path, meta_path=meta)
        assert report.clean, report.render()
        assert not report.checksums

    def test_dynamic_conversion_commits_a_checkable_durable_file(
            self, tmp_path, rng):
        """``paged_from_dynamic`` into a durable store goes through the
        same atomic superblock commit as ``bulk_load``: the file is
        self-describing, fsck-clean, and reopens with the right
        metadata."""
        from repro import paged_from_dynamic
        from repro.rtree.tree import RTree
        from repro.core.geometry import Rect
        from repro.rtree.paged import PagedRTree

        dyn = RTree(capacity=CAPACITY)
        points = rng.random((300, 2))
        for i, p in enumerate(points):
            dyn.insert(Rect.from_point(tuple(p)), i)
        path = tmp_path / "converted.pages"
        store = FilePageStore(path, PAGE_SIZE, checksums=True)
        paged = paged_from_dynamic(dyn, store=store)
        store.close()

        report = fsck(path)
        assert report.clean, report.render()
        assert report.tree["size"] == 300
        assert report.tree["height"] == paged.height
        assert report.tree["root_page"] == paged.root_page

        reopened = PagedRTree.from_store(FilePageStore.open_existing(path))
        assert len(reopened) == 300
        query = Rect.from_point(tuple(points[0]))
        assert 0 in reopened.searcher(16).search(query)
        reopened.store.close()

    def test_missing_file_is_fatal(self, tmp_path):
        report = fsck(tmp_path / "nope.pages")
        assert report.fatal == "file does not exist"
        assert not report.clean

    def test_plain_file_without_sidecar_is_fatal(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(b"\x00" * 1024)
        report = fsck(path)
        assert "no superblock" in report.fatal

    def test_bit_flip_reported_per_page(self, tmp_path, rects):
        path = _durable_tree(tmp_path, rects)
        with FilePageStore.open_existing(path) as store:
            for pid in (1, 3):
                store.raw_write(pid, flip_bit(store.raw_read(pid), 777))
        report = fsck(path)
        assert len(report.checksum_errors) == 2
        assert not report.structural_errors  # walk skipped, not crashed
        assert "structural walk skipped" in report.render()

    def test_decode_error_reported(self, tmp_path, rects):
        """A page whose checksum is valid but whose payload is garbage
        (re-stamped, as a buggy writer would) fails decode, not checksum."""
        from repro.storage.integrity import stamp_trailer

        path = _durable_tree(tmp_path, rects)
        with FilePageStore.open_existing(path) as store:
            bad = b"\xff" * (PAGE_SIZE - TRAILER_SIZE) + b"\x00" * TRAILER_SIZE
            store.raw_write(2, stamp_trailer(bad, 2))
        report = fsck(path)
        assert len(report.decode_errors) == 1
        assert "bad magic" in report.decode_errors[0]

    def test_structural_error_reported(self, tmp_path, rects):
        """Corrupt an MBR through the proper write path: checksums stay
        valid, decode succeeds, only the tree invariants break."""
        path = _durable_tree(tmp_path, rects)
        with FilePageStore.open_existing(path) as store:
            meta = store.tree_meta
            root = store.peek_page(meta["root_page"])
            # Nudge the first child rectangle's low-x (offset 16 = header,
            # +8 skips the child pointer) so parent MBR != child MBR.
            doctored = bytearray(root)
            (x,) = struct.unpack_from("<d", doctored, 24)
            struct.pack_into("<d", doctored, 24, x - 0.5)
            store.write_page(meta["root_page"], bytes(doctored[:store.page_size]))
            store.set_tree_meta(meta)
        report = fsck(path)
        assert not report.clean
        assert any("parent entry" in e for e in report.structural_errors)

    def test_never_committed_build_is_fatal(self, tmp_path, rects):
        path = tmp_path / "uncommitted.pages"
        store = FilePageStore(path, PAGE_SIZE, checksums=True)
        # Write pages by hand, never commit tree metadata.
        from repro.storage.page import NodePage, encode_node

        node = NodePage(level=0,
                        children=np.arange(3, dtype=np.int64),
                        rects=rects[:3])
        pid = store.allocate()
        store.write_page(pid, encode_node(node, store.payload_size)
                         + b"\x00" * TRAILER_SIZE)
        store.close()
        report = fsck(path)
        assert "never committed" in report.fatal

    def test_as_dict_is_json_roundtrippable(self, tmp_path, rects):
        report = fsck(_durable_tree(tmp_path, rects))
        out = json.loads(json.dumps(report.as_dict()))
        assert out["clean"] is True
        assert out["tree"]["capacity"] == CAPACITY


class TestFsckCli:
    def test_clean_exit_zero_and_manifest(self, tmp_path, rects, capsys):
        path = _durable_tree(tmp_path, rects)
        run_dir = tmp_path / "runs"
        code = main(["fsck", str(path), "--run-dir", str(run_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean" in out
        manifests = list(run_dir.glob("fsck-*.json"))
        assert len(manifests) == 1
        m = json.load(open(manifests[0]))
        assert m["experiment"] == "fsck"
        assert m["extra"]["fsck"]["clean"] is True
        assert m["extra"]["fsck"]["path"] == str(path)

    def test_corrupt_exit_one(self, tmp_path, rects, capsys):
        path = _durable_tree(tmp_path, rects)
        with FilePageStore.open_existing(path) as store:
            store.raw_write(0, flip_bit(store.raw_read(0), 123))
        code = main(["fsck", str(path), "--no-manifest"])
        assert code == 1
        assert "checksum mismatch" in capsys.readouterr().out

    def test_plain_file_with_meta_flag(self, tmp_path, rects, capsys):
        path = tmp_path / "plain.pages"
        store = FilePageStore(path, required_page_size(CAPACITY, 2))
        tree, _ = bulk_load(rects, SortTileRecursive(), capacity=CAPACITY,
                            store=store)
        meta = tmp_path / "m.json"
        tree.save_meta(meta)
        store.close()
        code = main(["fsck", str(path), "--meta", str(meta),
                     "--no-manifest"])
        assert code == 0

    def test_missing_target_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["fsck"])


class TestFsckIngestSidecar:
    """Phase 4: verification of the streaming-ingest WAL sidecar
    (``<path>.ingest/``, see ``repro.ingest``)."""

    def _sidecar(self, tmp_path, rects):
        """A durable tree plus a WAL sidecar holding one sealed segment
        (4 inserts) and one active segment (1 delete)."""
        path = _durable_tree(tmp_path, rects)
        with WriteAheadLog(ingest_dir(path)) as wal:
            for i in range(4):
                wal.append("insert", 1000 + i,
                           Rect((0.1, 0.1), (0.2, 0.2)))
            wal.seal_active()
            wal.append("delete", 1000, None)
        return path

    def test_clean_sidecar_is_summarised(self, tmp_path, rects):
        path = self._sidecar(tmp_path, rects)
        report = fsck(path)
        assert report.clean, report.render()
        assert not report.wal_errors
        ingest = report.ingest
        assert ingest is not None
        assert [s["state"] for s in ingest["segments"]] == \
            ["sealed", "active"]
        assert [s["ops"] for s in ingest["segments"]] == [4, 1]
        assert ingest["pending_ops"] == 5
        assert ingest["generation"] is None
        assert ingest["merged_seq"] == 0
        assert "ingest: 2 WAL segment(s)" in report.render()
        out = json.loads(json.dumps(report.as_dict()))
        assert out["ingest"]["pending_ops"] == 5

    def test_no_sidecar_leaves_ingest_unset(self, tmp_path, rects):
        report = fsck(_durable_tree(tmp_path, rects))
        assert report.clean
        assert report.ingest is None
        assert "WAL segment" not in report.render()

    def test_torn_active_tail_is_not_an_error(self, tmp_path, rects):
        """A torn tail on the *active* segment is the normal crash
        signature — reported in the summary, never as damage."""
        path = self._sidecar(tmp_path, rects)
        active = os.path.join(ingest_dir(path), segment_name(2))
        with open(active, "ab") as f:
            f.write(b'{"half a rec')
        report = fsck(path)
        assert report.clean, report.render()
        states = [s["state"] for s in report.ingest["segments"]]
        assert states == ["sealed", "active+torn"]
        assert report.ingest["segments"][1]["ops"] == 1

    def test_corrupt_sealed_segment_fails_the_check(self, tmp_path, rects):
        path = self._sidecar(tmp_path, rects)
        sealed = os.path.join(ingest_dir(path), segment_name(1))
        data = bytearray(open(sealed, "rb").read())
        data[5] ^= 0x01  # inside the first record: pre-tail damage
        with open(sealed, "wb") as f:
            f.write(data)
        report = fsck(path)
        assert not report.clean
        assert report.wal_errors
        assert report.ingest["segments"][0]["state"] == "corrupt"
        assert "wal" in report.render()

    def test_unsealed_segment_below_active_is_reported(
            self, tmp_path, rects):
        path = _durable_tree(tmp_path, rects)
        d = ingest_dir(path)
        with WriteAheadLog(d) as wal:
            wal.append("insert", 1, Rect((0.0, 0.0), (1.0, 1.0)))
        # Fake a later segment by copying the unsealed segment-1 file:
        # now an unsealed segment sits below the active one, which the
        # seal protocol never produces.
        shutil.copyfile(os.path.join(d, segment_name(1)),
                        os.path.join(d, segment_name(2)))
        report = fsck(path)
        assert not report.clean
        assert any("unsealed segment below" in e
                   for e in report.wal_errors)

    def test_damaged_pointer_is_reported(self, tmp_path, rects):
        path = self._sidecar(tmp_path, rects)
        pointer = os.path.join(ingest_dir(path), "generation.json")
        with open(pointer, "wb") as f:
            f.write(b'{"truncated')
        report = fsck(path)
        assert not report.clean
        assert any("generation pointer" in e for e in report.wal_errors)

    def test_merged_sidecar_reports_generation(self, tmp_path, rects):
        path = self._sidecar(tmp_path, rects)
        with WriteAheadLog(ingest_dir(path)) as wal:
            wal.seal_active()
        assert merge_segments(path) is not None
        report = fsck(path)
        assert report.clean, report.render()
        assert report.ingest["generation"] == 2
        assert report.ingest["merged_seq"] == 2
        assert report.ingest["pending_ops"] == 0
        assert "generation 2" in report.render()

    def test_pointer_naming_missing_file_is_reported(
            self, tmp_path, rects):
        path = self._sidecar(tmp_path, rects)
        with WriteAheadLog(ingest_dir(path)) as wal:
            wal.seal_active()
        merged = merge_segments(path)
        os.unlink(merged.path)
        report = fsck(path)
        assert not report.clean
        assert any("missing file" in e for e in report.wal_errors)

    def test_cli_exit_one_on_wal_corruption(self, tmp_path, rects,
                                            capsys):
        path = self._sidecar(tmp_path, rects)
        sealed = os.path.join(ingest_dir(path), segment_name(1))
        data = bytearray(open(sealed, "rb").read())
        data[5] ^= 0x01
        with open(sealed, "wb") as f:
            f.write(data)
        code = main(["fsck", str(path), "--no-manifest"])
        assert code == 1
