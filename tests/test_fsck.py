"""``repro fsck``: page-level and structural checking, CLI surface."""

import json
import os
import shutil
import struct
import sys
import threading

import numpy as np
import pytest

from repro import RectArray, SortTileRecursive, bulk_load
from repro.cli import main
from repro.core.geometry import Rect
from repro.fsck import fsck
from repro.ingest.merge import merge_segments
from repro.ingest.wal import WriteAheadLog, ingest_dir, segment_name
from repro.storage import FilePageStore, flip_bit
from repro.storage.integrity import TRAILER_SIZE, stamp_trailer
from repro.storage.page import (
    NodePage, decode_node, encode_node, required_page_size,
)

CAPACITY = 20
PAGE_SIZE = required_page_size(CAPACITY, 2) + TRAILER_SIZE
DATA = os.path.join(os.path.dirname(__file__), "data")


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

    def test_plain_tree_file_is_fatal_exit_one(self, tmp_path, rects,
                                               capsys):
        """A tree packed into a plain page file (no superblock) does not
        describe itself, so the check refuses it as one fatal error."""
        path = tmp_path / "plain.pages"
        with FilePageStore(path, required_page_size(CAPACITY, 2)) as store:
            bulk_load(rects, SortTileRecursive(), capacity=CAPACITY,
                      store=store)
        code = main(["fsck", str(path), "--no-manifest"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FATAL" in out
        assert out.count("no superblock") == 1

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


# -- one pass, same reports ---------------------------------------------------

def _entry_offset(entry: int) -> int:
    """Byte offset of a 2-d node entry's child pointer (16-byte header,
    then 8-byte pointer + 4 float64 coordinates per entry)."""
    return 16 + entry * (8 + 16 * 2)


def _doctor(path, page, entry, *, child=None, dx=None):
    """Rewrite one entry of ``page`` through the checksummed write path
    (pointer to ``child``, low x moved by ``dx``) and recommit the tree
    header, so trailers stay valid."""
    with FilePageStore.open_existing(path) as store:
        image = bytearray(store.peek_page(page))
        offset = _entry_offset(entry)
        if child is not None:
            struct.pack_into("<q", image, offset, child)
        if dx is not None:
            (x,) = struct.unpack_from("<d", image, offset + 8)
            struct.pack_into("<d", image, offset + 8, x + dx)
        store.write_page(page, bytes(image))
        store.set_tree_meta(store.tree_meta)


def _children(path, page):
    with FilePageStore.open_existing(path) as store:
        node = decode_node(store.peek_page(page))
    return node.children.tolist()


def _root(path):
    with FilePageStore.open_existing(path) as store:
        return store.tree_meta["root_page"]


def _flip(path):
    with FilePageStore.open_existing(path) as store:
        store.raw_write(3, flip_bit(store.raw_read(3), 777))


def _garbage(path):
    with FilePageStore.open_existing(path) as store:
        bad = b"\xff" * (PAGE_SIZE - TRAILER_SIZE) + b"\x00" * TRAILER_SIZE
        store.raw_write(2, stamp_trailer(bad, 2))


def _orphan(path):
    """Append a well-formed leaf no internal entry points at."""
    with FilePageStore.open_existing(path) as store:
        node = NodePage(level=0, children=np.arange(3, dtype=np.int64),
                        rects=RectArray.from_points(np.full((3, 2), 0.5)))
        pid = store.allocate()
        store.write_page(pid, encode_node(node, store.payload_size)
                         + b"\x00" * TRAILER_SIZE)
        store.set_tree_meta(store.tree_meta)


def _claim_more(path):
    """Commit a header claiming seven records the leaves do not hold."""
    with FilePageStore.open_existing(path) as store:
        meta = store.tree_meta
        store.set_tree_meta({**meta, "size": meta["size"] + 7})


def _level_one(path):
    return _children(path, _root(path))[0]


#: Damage matrix: name -> doctoring applied to a fresh 500-point tree
#: (25 leaves, two level-1 pages, root), or the legacy fixture to copy.
DAMAGE = {
    "clean": lambda path: None,
    "trailer_bit_flip": _flip,
    "decode_error": _garbage,
    "mbr_nudge": lambda path: _doctor(path, _root(path), 0, dx=-0.5),
    "child_at_wrong_level": lambda path: _doctor(
        path, _root(path), 1, child=_children(path, _level_one(path))[0]),
    "page_referenced_twice": lambda path: _doctor(
        path, _level_one(path), 1,
        child=_children(path, _level_one(path))[0]),
    "orphan": _orphan,
    "claimed_size_differs": _claim_more,
    "checksum_v1_journaled": None,
}

#: ``FsckReport.as_dict()`` for every entry of :data:`DAMAGE`, recorded
#: with the three-traversal check that preceded the one-pass one (the
#: temporary directory reads ``<tmp>``).
RECORDED = os.path.join(DATA, "fsck-damage-reports.json")


def _damaged_tree(tmp_path, name):
    if DAMAGE[name] is None:
        src = os.path.join(DATA, "checksum-v1", "journaled")
        shutil.copytree(src, tmp_path / name)
        return tmp_path / name / "tree.rt"
    rects = RectArray.from_points(np.random.default_rng(2024).random(
        (500, 2)))
    os.makedirs(tmp_path / name)
    path = _durable_tree(tmp_path / name, rects)
    DAMAGE[name](path)
    return path


def damage_reports(tmp_path) -> dict:
    """Run ``fsck`` over the whole matrix; paths read ``<tmp>``."""
    reports = {}
    for name in DAMAGE:
        report = fsck(_damaged_tree(tmp_path, name)).as_dict()
        reports[name] = json.loads(
            json.dumps(report).replace(str(tmp_path), "<tmp>"))
    return reports


class TestOnePass:
    def test_damage_matrix_reports_match_the_recorded_ones(self, tmp_path):
        with open(RECORDED) as f:
            recorded = json.load(f)
        assert set(recorded) == set(DAMAGE)
        reports = damage_reports(tmp_path)
        for name in DAMAGE:
            assert reports[name] == recorded[name], name
        # The matrix exercises every report field that can fail.
        assert reports["clean"]["clean"]
        assert reports["trailer_bit_flip"]["checksum_errors"]
        assert reports["decode_error"]["decode_errors"]
        assert reports["checksum_v1_journaled"]["journal_recovered"]
        for name in ("mbr_nudge", "child_at_wrong_level",
                     "page_referenced_twice", "orphan",
                     "claimed_size_differs"):
            assert reports[name]["structural_errors"], name

    def test_clean_check_reads_and_decodes_each_page_once(
            self, tmp_path, rects, monkeypatch):
        path = _durable_tree(tmp_path, rects)
        decoded: list[int] = []
        read: list[int] = []

        def counting_decode(data, *, page_id=None, source=None):
            decoded.append(page_id)
            return decode_node(data, page_id=page_id, source=source)

        # Every module that imported the codec's function by name.
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro.")
                    and getattr(module, "decode_node", None) is decode_node):
                monkeypatch.setattr(module, "decode_node", counting_decode)
        for name in ("raw_read", "_read"):
            method = getattr(FilePageStore, name)

            def counting(store, page_id, _method=method):
                read.append(page_id)
                return _method(store, page_id)

            monkeypatch.setattr(FilePageStore, name, counting)
        report = fsck(path)
        assert report.clean, report.render()
        pages = list(range(report.pages_checked))
        assert sorted(decoded) == pages
        assert sorted(read) == pages

    def test_out_of_range_child_pointer_is_a_structural_error(
            self, tmp_path, rng):
        """A pointer past the file's last page is reported where it is,
        and the walk goes on: the subtree it used to name is orphaned."""
        path = _durable_tree(tmp_path, RectArray.from_points(
            rng.random((2000, 2))))
        root = _root(path)
        orphaned = _children(path, root)[0]
        _doctor(path, root, 0, child=10 ** 6)
        report = fsck(path)
        assert report.fatal is None
        pages = report.pages_checked
        assert (f"page {root} entry 0 points at page 1000000 outside "
                f"[0, {pages})") in report.structural_errors
        assert (f"page {orphaned} is committed but unreachable from the "
                f"root") in report.structural_errors
        assert "FATAL" not in report.render()

    def test_pointer_cycle_is_reported_not_followed(self, tmp_path, rects):
        """An entry naming the root is a reference-count error; the
        reachability pass must not follow the cycle forever."""
        path = _durable_tree(tmp_path, rects)
        root = _root(path)
        _doctor(path, root, 0, child=root)
        reports = []
        worker = threading.Thread(target=lambda: reports.append(fsck(path)),
                                  daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "fsck followed the cycle"
        assert "root page referenced by an internal node" in \
            reports[0].structural_errors
