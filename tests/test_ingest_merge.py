"""Background-merge crash matrix: draining sealed WAL segments into a
new packed generation must be SIGKILL-resumable at every write boundary
— after any kill, the committed pointer names either the old or the new
generation (never anything in between), replay still answers exactly,
and re-running the merge converges on the oracle with no acked op lost
or double-applied."""

import hashlib
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    IngestError, WalSegment, WriteAheadLog, ingest_dir, segment_name,
    segment_seq,
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

    @pytest.mark.parametrize("ndim", [1, 3])
    def test_sealed_rect_of_another_dimensionality_is_refused(
            self, tmp_path, ndim):
        # Two such rects hold 2 * ndim coordinates; reshaped by row
        # count alone they would pass as ``ndim`` rows of 2-d rects.
        tree_path = str(tmp_path / "tree.rt")
        _build_base(tree_path, _entries(range(10)))
        with WriteAheadLog(ingest_dir(tree_path)) as wal:
            for data_id in (100, 101):
                wal.append("insert", data_id,
                           Rect((0.0,) * ndim, (1.0,) * ndim))
            wal.seal_active()
        with pytest.raises(ValueError):
            merge_segments(tree_path)
        current, pointer = resolve_current(tree_path)
        assert current == tree_path and pointer is None


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


def _reference_merge(tree_path, out_path):
    """The dict merge the array merge replaced: the current generation's
    leaves into an ``{id: (lo, hi)}`` dict in ``iter_level(0)`` order,
    the pending sealed ops applied in LSN order, ``sorted`` ids, then
    ``bulk_load`` into ``out_path``.  Returns the record count (0:
    nothing written)."""
    base_path, pointer = resolve_current(tree_path)
    entries = _read_logical(base_path)
    with FilePageStore.open_existing(base_path) as store:
        ndim, capacity = store.tree_meta["ndim"], store.tree_meta["capacity"]
    dir_path = ingest_dir(tree_path)
    merged_seq = pointer.merged_seq if pointer is not None else 0
    pending = sorted((segment_seq(name), name)
                     for name in os.listdir(dir_path)
                     if (segment_seq(name) or 0) > merged_seq)
    for _, name in pending:
        segment = WalSegment.load(os.path.join(dir_path, name))
        if not segment.sealed:
            break
        for op in segment.ops:
            if op.op == "insert" and op.rect is not None:
                entries[op.data_id] = (op.rect.lo, op.rect.hi)
            else:
                entries.pop(op.data_id, None)
    if not entries:
        return 0
    ids = np.array(sorted(entries), dtype=np.int64)
    los = np.array([entries[int(i)][0] for i in ids], dtype=np.float64)
    his = np.array([entries[int(i)][1] for i in ids], dtype=np.float64)
    page_size = required_page_size(capacity, ndim) + TRAILER_SIZE
    store = FilePageStore(out_path, page_size, checksums=True)
    bulk_load(RectArray(los, his, copy=False), SortTileRecursive(),
              data_ids=ids, capacity=capacity, store=store)
    store.close()
    return len(ids)


def _digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _coords(ndim):
    """Coordinates on a coarse grid, so STR's sorts meet many ties."""
    return st.lists(st.integers(0, 12).map(lambda v: v / 4.0),
                    min_size=ndim, max_size=ndim)


@st.composite
def _merge_inputs(draw):
    """A base (repeated ids allowed) and 1-3 sealed segments whose ops
    upsert and delete base ids, new ids and absent ids."""
    ndim = draw(st.integers(1, 3))
    capacity = draw(st.integers(4, 12))
    n = draw(st.integers(1, 300))
    base_ids = draw(st.lists(st.integers(0, 2 * n), min_size=n,
                             max_size=n))
    base_los = np.array(draw(st.lists(_coords(ndim), min_size=n,
                                      max_size=n)), dtype=np.float64)
    extent = draw(st.sampled_from([0.0, 0.25]))
    # A few ids, from the base or not, so ops often meet an id again:
    # delete then reinsert, insert then delete, upsert twice.
    pool = draw(st.lists(st.one_of(st.sampled_from(base_ids),
                                   st.integers(0, 3 * n)),
                         min_size=1, max_size=8))
    op = st.tuples(st.sampled_from(["insert", "delete"]),
                   st.sampled_from(pool), _coords(ndim))
    segments = draw(st.lists(st.lists(op, min_size=1, max_size=10),
                             min_size=1, max_size=3))
    return (ndim, capacity, np.array(base_ids, dtype=np.int64),
            RectArray(base_los, base_los + extent), segments)


class TestSameBytesAsTheDictMerge:
    """The array merge hands ``bulk_load`` exactly the id-ascending
    input the dict merge built, so every generation file is
    byte-identical to the one the dict merge wrote."""

    @given(_merge_inputs())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_merge_writes_the_dict_merges_bytes(self, inputs):
        ndim, capacity, base_ids, base_rects, segments = inputs
        with tempfile.TemporaryDirectory() as tmp:
            tree_path = os.path.join(tmp, "tree.rt")
            page_size = required_page_size(capacity, ndim) + TRAILER_SIZE
            store = FilePageStore(tree_path, page_size, checksums=True)
            bulk_load(base_rects, SortTileRecursive(), data_ids=base_ids,
                      capacity=capacity, store=store)
            store.close()
            with WriteAheadLog(ingest_dir(tree_path)) as wal:
                for ops in segments:
                    for kind, data_id, lo in ops:
                        rect = Rect(tuple(lo), tuple(v + 0.5 for v in lo))
                        wal.append(kind, data_id,
                                   rect if kind == "insert" else None)
                    wal.seal_active()
            reference = os.path.join(tmp, "reference.rt")
            size = _reference_merge(tree_path, reference)
            if size == 0:
                with pytest.raises(IngestError):
                    merge_segments(tree_path)
                return
            report = merge_segments(tree_path)
            assert report is not None and report.size == size
            assert _digest(report.path) == _digest(reference)

    def test_hundred_thousand_points_two_rounds(self, tmp_path):
        """The default tree's scale: 10^5 points at capacity 100, two
        merge rounds of 300 mixed ops each."""
        rng = np.random.default_rng(2201)
        tree_path = str(tmp_path / "tree.rt")
        page_size = required_page_size(100, 2) + TRAILER_SIZE
        store = FilePageStore(tree_path, page_size, checksums=True)
        bulk_load(RectArray.from_points(rng.random((100_000, 2))),
                  SortTileRecursive(), capacity=100, store=store)
        store.close()
        for round_ in range(2):
            state, _ = IngestState.open(tree_path, ndim=2)
            for k in range(300):
                kind = int(rng.integers(3))
                if kind == 0:
                    state.append("delete", int(rng.integers(100_000)))
                    continue
                data_id = (int(rng.integers(100_000)) if kind == 1
                           else 200_000 + 1_000 * round_ + k)
                point = tuple(rng.random(2))
                state.append("insert", data_id, Rect(point, point))
            state.wal.seal_active()
            state.close()
            reference = str(tmp_path / f"reference-{round_}.rt")
            size = _reference_merge(tree_path, reference)
            report = merge_segments(tree_path)
            assert report is not None and report.size == size
            assert _digest(report.path) == _digest(reference)
