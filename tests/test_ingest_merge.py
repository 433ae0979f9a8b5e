"""Background-merge crash matrix: draining sealed WAL segments into a
new packed generation must be SIGKILL-resumable at every write boundary
— after any kill, the committed pointer names either the old or the new
generation (never anything in between), replay still answers exactly,
and re-running the merge converges on the oracle with no acked op lost
or double-applied."""

import os

import numpy as np
import pytest

from repro import RectArray, SortTileRecursive, bulk_load
from repro.core.geometry import Rect
from repro.ingest.merge import (
    generation_path,
    merge_segments,
    read_pointer,
    resolve_current,
    sweep_drained,
)
from repro.ingest.state import IngestState
from repro.ingest.wal import (
    IngestError, WriteAheadLog, ingest_dir, segment_name,
)
from repro.rtree.paged import PagedRTree
from repro.storage import FilePageStore
from repro.storage.faults import CrashPlan
from repro.storage.integrity import TRAILER_SIZE
from repro.storage.page import required_page_size
from repro.storage.store import SimulatedCrash

CAPACITY = 8
NDIM = 2


def _rect(i: int) -> Rect:
    return Rect((float(i), float(i)), (float(i) + 1.0, float(i) + 1.0))


def _entries(ids):
    return {int(i): (_rect(i).lo, _rect(i).hi) for i in ids}


def _build_base(path, entries):
    ids = np.array(sorted(entries), dtype=np.int64)
    los = np.array([entries[int(i)][0] for i in ids], dtype=np.float64)
    his = np.array([entries[int(i)][1] for i in ids], dtype=np.float64)
    page_size = required_page_size(CAPACITY, NDIM) + TRAILER_SIZE
    store = FilePageStore(path, page_size, checksums=True)
    bulk_load(RectArray(los, his), SortTileRecursive(), data_ids=ids,
              capacity=CAPACITY, store=store)
    store.close()


def _read_logical(path):
    """The logical ``{id: (lo, hi)}`` set of a packed file."""
    store = FilePageStore.open_existing(os.fspath(path))
    try:
        tree = PagedRTree.from_store(store)
        out = {}
        for _, node in tree.iter_level(0):
            los, his = node.rects.los, node.rects.his
            for i, data_id in enumerate(node.children):
                out[int(data_id)] = (tuple(los[i]), tuple(his[i]))
        return out
    finally:
        store.close()


def _replayed_logical(tree_path):
    """The logical set as a freshly-opened server would see it: the
    current generation overlaid with the replayed WAL delta."""
    state, base_path = IngestState.open(tree_path, ndim=NDIM)
    try:
        logical = _read_logical(base_path)
        for layer in state.layers():
            for data_id in sorted(layer.overridden):
                rect = layer.get(data_id)
                if rect is None:
                    logical.pop(data_id, None)
                else:
                    logical[data_id] = (rect.lo, rect.hi)
        return logical
    finally:
        state.close()


def _setup(tree_path):
    """Base of ids 0..39 plus one sealed segment: upserts 100..111,
    a same-id re-upsert, and deletes of 0..3.  Returns the oracle."""
    oracle = _entries(range(40))
    _build_base(tree_path, oracle)
    with WriteAheadLog(ingest_dir(tree_path)) as wal:
        for i in range(100, 112):
            wal.append("insert", i, _rect(i))
            oracle[i] = (_rect(i).lo, _rect(i).hi)
        wal.append("insert", 100, _rect(500))
        oracle[100] = (_rect(500).lo, _rect(500).hi)
        for i in range(4):
            wal.append("delete", i, None)
            del oracle[i]
        wal.seal_active()
    return oracle


class TestMergeBasics:
    def test_merge_drains_sealed_segments(self, tmp_path):
        tree_path = str(tmp_path / "tree.rt")
        oracle = _setup(tree_path)
        report = merge_segments(tree_path)
        assert report is not None
        assert report.generation == 2
        assert report.ops_applied == 17
        assert report.segments_merged == 1
        assert report.size == len(oracle)
        assert _read_logical(report.path) == oracle

        current, pointer = resolve_current(tree_path)
        assert current == report.path
        assert pointer is not None
        assert pointer.merged_seq == 1
        assert pointer.merged_lsn == 17
        # The drained segment is physically gone and a re-run merges
        # nothing — idempotence after commit.
        assert not os.path.exists(
            os.path.join(ingest_dir(tree_path), segment_name(1)))
        assert merge_segments(tree_path) is None

    def test_active_segment_is_never_consumed(self, tmp_path):
        tree_path = str(tmp_path / "tree.rt")
        _build_base(tree_path, _entries(range(10)))
        with WriteAheadLog(ingest_dir(tree_path)) as wal:
            wal.append("insert", 100, _rect(100))  # unsealed
        assert merge_segments(tree_path) is None
        assert read_pointer(ingest_dir(tree_path)) is None

    def test_two_sealed_segments_drain_together(self, tmp_path):
        tree_path = str(tmp_path / "tree.rt")
        oracle = _entries(range(10))
        _build_base(tree_path, oracle)
        with WriteAheadLog(ingest_dir(tree_path)) as wal:
            wal.append("insert", 100, _rect(100))
            wal.seal_active()
            wal.append("delete", 0, None)
            wal.seal_active()
        oracle[100] = (_rect(100).lo, _rect(100).hi)
        del oracle[0]
        report = merge_segments(tree_path)
        assert report is not None
        assert report.segments_merged == 2
        assert report.merged_seq == 2
        assert _read_logical(report.path) == oracle

    def test_second_merge_builds_next_generation(self, tmp_path):
        tree_path = str(tmp_path / "tree.rt")
        oracle = _setup(tree_path)
        first = merge_segments(tree_path)
        assert first is not None
        with WriteAheadLog(ingest_dir(tree_path),
                           start_after_seq=first.merged_seq,
                           min_lsn=first.merged_lsn) as wal:
            wal.append("insert", 200, _rect(200))
            wal.seal_active()
        oracle[200] = (_rect(200).lo, _rect(200).hi)
        second = merge_segments(tree_path)
        assert second is not None
        assert second.generation == 3
        assert _read_logical(second.path) == oracle
        # The superseded generation file is swept away.
        assert not os.path.exists(first.path)

    def test_merge_to_empty_tree_is_refused(self, tmp_path):
        tree_path = str(tmp_path / "tree.rt")
        _build_base(tree_path, _entries(range(2)))
        with WriteAheadLog(ingest_dir(tree_path)) as wal:
            wal.append("delete", 0, None)
            wal.append("delete", 1, None)
            wal.seal_active()
        with pytest.raises(IngestError):
            merge_segments(tree_path)
        # Nothing committed: the original file still serves and the
        # sealed segment is still pending.
        current, pointer = resolve_current(tree_path)
        assert current == tree_path and pointer is None
        assert os.path.exists(
            os.path.join(ingest_dir(tree_path), segment_name(1)))


class TestKillResumability:
    def test_kill_at_every_write_boundary(self, tmp_path):
        """Crash the merge at every physical write (store pages,
        superblock slots, and the pointer publication), with rotating tear
        lengths.  Invariants after each kill: replay still answers the
        acked history exactly, and a re-run merge converges."""
        tears = (None, 1, 1 << 20)
        at_write = 0
        while True:
            tree_path = str(tmp_path / f"kill-{at_write}" / "tree.rt")
            os.makedirs(os.path.dirname(tree_path))
            oracle = _setup(tree_path)
            plan = CrashPlan(at_write,
                             tear_bytes=tears[at_write % len(tears)])
            try:
                report = merge_segments(tree_path, crash_plan=plan)
            except SimulatedCrash:
                # 1. No acked op is lost or double-applied: a reopened
                #    server (current generation + WAL replay) answers
                #    the exact logical set.
                assert _replayed_logical(tree_path) == oracle, \
                    f"replay diverged after kill at write {at_write}"
                # 2. The re-run merge completes and matches the oracle.
                resumed = merge_segments(tree_path)
                assert resumed is not None
                assert _read_logical(resumed.path) == oracle, \
                    f"resume diverged after kill at write {at_write}"
                assert _replayed_logical(tree_path) == oracle
                at_write += 1
                continue
            # The plan never fired: every write boundary is covered.
            assert report is not None
            assert plan.writes_seen <= at_write
            assert _read_logical(report.path) == oracle
            break
        assert at_write > 2, "matrix must cover several write boundaries"

    def test_kill_at_pointer_write_leaves_old_generation(self, tmp_path):
        """A kill mid-publication tears only the temporary sibling: the
        committed pointer is untouched, so the old generation serves
        and the segments stay pending — the classic atomic-rename
        commit point."""
        tree_path = str(tmp_path / "tree.rt")
        oracle = _setup(tree_path)
        # Count the merge's writes on a throwaway copy to find the
        # pointer write (always the last one).
        probe_path = str(tmp_path / "probe" / "tree.rt")
        os.makedirs(os.path.dirname(probe_path))
        _setup(probe_path)
        probe = CrashPlan(1 << 30)
        assert merge_segments(probe_path, crash_plan=probe) is not None
        pointer_write = probe.writes_seen - 1

        plan = CrashPlan(pointer_write, tear_bytes=7)
        with pytest.raises(SimulatedCrash):
            merge_segments(tree_path, crash_plan=plan)
        current, pointer = resolve_current(tree_path)
        assert current == tree_path and pointer is None
        torn = [n for n in os.listdir(ingest_dir(tree_path))
                if ".tmp-" in n]
        assert torn, "the torn pointer image lands on a tmp sibling"
        # The sweep clears the debris; the resumed merge commits.
        sweep_drained(tree_path)
        assert not any(".tmp-" in n
                       for n in os.listdir(ingest_dir(tree_path)))
        resumed = merge_segments(tree_path)
        assert resumed is not None
        assert _read_logical(resumed.path) == oracle

    def test_partial_generation_file_is_rebuilt(self, tmp_path):
        """A leftover half-built gen file from a killed attempt must
        not poison the retry."""
        tree_path = str(tmp_path / "tree.rt")
        oracle = _setup(tree_path)
        stale = generation_path(ingest_dir(tree_path), 2)
        with open(stale, "wb") as f:
            f.write(b"\x00" * 100)  # garbage partial build
        report = merge_segments(tree_path)
        assert report is not None and report.path == stale
        assert _read_logical(report.path) == oracle


class TestPointerIntegrity:
    def test_damaged_pointer_is_typed_not_guessed(self, tmp_path):
        tree_path = str(tmp_path / "tree.rt")
        _setup(tree_path)
        assert merge_segments(tree_path) is not None
        pointer_file = os.path.join(ingest_dir(tree_path),
                                    "generation.json")
        data = open(pointer_file, "rb").read()
        with open(pointer_file, "wb") as f:
            f.write(data[:-10])
        with pytest.raises(IngestError):
            resolve_current(tree_path)

    def test_pointer_to_missing_file_is_typed(self, tmp_path):
        tree_path = str(tmp_path / "tree.rt")
        _setup(tree_path)
        report = merge_segments(tree_path)
        assert report is not None
        os.unlink(report.path)
        with pytest.raises(IngestError):
            resolve_current(tree_path)
