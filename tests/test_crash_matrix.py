"""The crash matrix: kill a durable bulk load at *every* physical write.

This is the property test the durability layer exists to pass.  One clean
instrumented run of a 10,000-rectangle bulk load counts the physical file
writes W (page writes and superblock slots).  The matrix then reruns the
identical build W times with a :class:`~repro.storage.faults.CrashPlan`
killing the store at write i — cycling through clean crashes and torn
writes of 1 byte, half a page, and all-but-one byte — and after every
kill:

* reopen must succeed or refuse *precisely* (no exception escapes fsck);
* ``fsck`` must come back clean, or report that the build never committed;
* when the tree did commit, region queries against the recovered file must
  return exactly what a clean in-memory rebuild returns.

On failure the offending fsck report is dumped as JSON (to
``$REPRO_FSCK_REPORT_DIR`` when set — CI uploads it as an artifact).
"""

import json
import os

import numpy as np
import pytest

from repro import RectArray, SortTileRecursive, bulk_load
from repro.fsck import fsck
from repro.queries import region_queries
from repro.rtree.paged import PagedRTree
from repro.storage import (
    CrashPlan,
    FilePageStore,
    IntegrityError,
    SimulatedCrash,
    StoreError,
)
from repro.storage.integrity import TRAILER_SIZE
from repro.storage.page import required_page_size

N_RECTS = 10_000
CAPACITY = 100
PAGE_SIZE = required_page_size(CAPACITY, 2) + TRAILER_SIZE


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(20260806)
    lo = rng.random((N_RECTS, 2)) * 0.99
    return RectArray(lo, lo + rng.random((N_RECTS, 2)) * 0.01)


@pytest.fixture(scope="module")
def oracle(dataset):
    """Query answers from a clean, never-crashed in-memory build."""
    tree, _ = bulk_load(dataset, SortTileRecursive(), capacity=CAPACITY)
    searcher = tree.searcher(50)
    queries = region_queries(0.05, 20, seed=7)
    return queries, [np.sort(searcher.search(q)).tolist() for q in queries]


def _build(path, dataset, crash_plan=None):
    """One durable build; returns the store (caller closes)."""
    store = FilePageStore(path, PAGE_SIZE, checksums=True,
                          crash_plan=crash_plan)
    try:
        bulk_load(dataset, SortTileRecursive(), capacity=CAPACITY,
                  store=store)
    except BaseException:
        store.close()
        raise
    return store


def _answers(store, queries):
    searcher = PagedRTree.from_store(store).searcher(50)
    return [np.sort(searcher.search(q)).tolist() for q in queries]


def _dump_report(report, crash_point, tear):
    out_dir = os.environ.get("REPRO_FSCK_REPORT_DIR")
    if not out_dir:
        return ""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"fsck-crash{crash_point}-tear{tear}.json")
    with open(path, "w") as f:
        json.dump(report.as_dict(), f, indent=2)
    return f" (report: {path})"


def test_crash_at_every_write_boundary(tmp_path, dataset, oracle):
    queries, expected = oracle

    # Clean instrumented run: learn W without crashing.
    counter = CrashPlan(at_write=10 ** 9)
    path = tmp_path / "clean.pages"
    store = _build(path, dataset, crash_plan=counter)
    store.close()
    total_writes = counter.writes_seen
    assert total_writes > N_RECTS // CAPACITY  # one write per leaf page
    clean_report = fsck(path)
    assert clean_report.clean, clean_report.render()

    tears = [None, 1, PAGE_SIZE // 2, PAGE_SIZE - 1]
    committed = refused = 0
    for crash_point in range(total_writes):
        tear = tears[crash_point % len(tears)]
        path = tmp_path / "crash.pages"
        if path.exists():
            path.unlink()

        store = None
        with pytest.raises(SimulatedCrash):
            store = _build(path, dataset,
                           CrashPlan(at_write=crash_point, tear_bytes=tear))
            store.close()  # the crash can fire inside the final flush
        if store is not None:
            store.close()  # abandons: a crashed store must not heal itself

        report = fsck(path)
        where = f"crash at write {crash_point}, tear={tear}"
        if report.fatal is not None:
            # Precise refusal — and reattaching must refuse too, never
            # serve a half-written tree.
            refused += 1
            with pytest.raises((StoreError, IntegrityError)):
                PagedRTree.from_store(FilePageStore.open_existing(path))
            continue
        assert report.clean, (
            f"{where}: {report.render()}"
            f"{_dump_report(report, crash_point, tear)}"
        )
        assert report.tree is not None
        committed += 1
        # The recovered tree answers queries exactly like the clean build.
        recovered = FilePageStore.open_existing(path)
        try:
            assert _answers(recovered, queries) == expected, where
        finally:
            recovered.close()

    # Sanity on the matrix itself: both outcomes must actually occur —
    # early crashes refuse, crashes after the commit point recover.
    assert refused > 0
    assert committed > 0
