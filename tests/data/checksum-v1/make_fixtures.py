"""Write the checksum-format-v1 fixtures in this directory.

Run it against a checkout of the last commit whose writers stamped
version-1 (CRC32C) checksums, never against the current tree (which
writes version 2); ``tests/test_checksum_versions.py`` documents the
exact command.  Every input is arithmetic, with no RNG, so re-running
it rewrites the same bytes.

Fixtures (paths relative to the output directory):

* ``tree/`` — a 200-record durable tree (checksummed and journaled,
  capacity 8) and its checkpointed journal sidecar;
* ``journaled/`` — the same tree after a simulated crash: the write
  journal still holds two unreplayed page images, and the in-place copy
  of the second page is torn (its second half zeroed), so only a replay
  of the journal can repair it;
* ``ingest/`` — the same tree with a ``tree.rt.ingest/`` directory: a
  committed merge (``generation.json`` naming ``gen-000002.rt``), one
  sealed and one active WAL segment;
* ``staging/`` — a parallel-build staging directory as a build killed
  right after planning leaves it (``plan.json`` plus staged inputs);
* ``fixtures.json`` — the records, the WAL ops and the journalled page
  ids, so tests can build the same records fresh and compare answers.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

from repro.core.geometry import Rect, RectArray
from repro.core.packing import SortTileRecursive
from repro.ingest.merge import merge_segments, read_pointer
from repro.ingest.wal import WriteAheadLog, ingest_dir
from repro.pipeline.plan import make_plan, stage_input, write_plan
from repro.pipeline.staging import StagingDir
from repro.rtree.bulk import bulk_load
from repro.storage.faults import CrashPlan
from repro.storage.integrity import TRAILER_SIZE
from repro.storage.journal import journal_has_records, journal_path
from repro.storage.page import required_page_size
from repro.storage.store import FilePageStore, SimulatedCrash

COUNT = 200
CAPACITY = 8
TREE = "tree.rt"
#: Store options of every fixture file.  The fixture commit's stores
#: still journaled page writes; current stores ignore ``journal``.
JOURNALED = {"checksums": True, "journal": True}


def records() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ids, los, his)`` of the fixture records (2-d boxes)."""
    ids = np.arange(COUNT, dtype=np.int64)
    x = (ids * 73 % COUNT) / COUNT
    y = (ids * 131 % 199) / 199
    los = np.stack([x, y], axis=1)
    his = los + np.stack([0.01 + (ids % 7) * 0.002,
                          0.01 + (ids % 5) * 0.003], axis=1)
    return ids, los, his


def ops(first_lsn: int, count: int, first_id: int) -> list[list]:
    """``count`` WAL ops: new inserts, some deletes of base ids, and
    upserts that move base ids — ``[lsn, op, id, lo, hi]`` each."""
    out: list[list] = []
    for i in range(count):
        lsn = first_lsn + i
        if i % 5 == 3:
            out.append([lsn, "delete", (first_id + 7 * i) % COUNT, None,
                        None])
            continue
        data_id = first_id + 1000 + i if i % 5 != 4 else (3 * i) % COUNT
        lo = [((i * 37) % 97) / 97, ((i * 53) % 89) / 89]
        out.append([lsn, "insert", data_id, lo,
                    [lo[0] + 0.02, lo[1] + 0.015]])
    return out


def append_ops(wal: WriteAheadLog, batch: list[list]) -> None:
    for lsn, op, data_id, lo, hi in batch:
        rect = Rect(tuple(lo), tuple(hi)) if op == "insert" else None
        walop = wal.append(op, data_id, rect)
        assert walop.lsn == lsn, (walop.lsn, lsn)


def make_tree(out: str) -> int:
    ids, los, his = records()
    os.makedirs(os.path.join(out, "tree"))
    page_size = required_page_size(CAPACITY, 2) + TRAILER_SIZE
    store = FilePageStore(os.path.join(out, "tree", TREE), page_size,
                          **JOURNALED)
    try:
        bulk_load(RectArray(los, his), SortTileRecursive(), data_ids=ids,
                  capacity=CAPACITY, store=store)
    finally:
        store.close()
    return page_size


def make_journaled(out: str, page_size: int) -> list[int]:
    src = os.path.join(out, "tree")
    dst = os.path.join(out, "journaled")
    shutil.copytree(src, dst)
    path = os.path.join(dst, TREE)
    with FilePageStore.open_existing(path) as probe:
        pages = [1, probe.page_count - 1]  # a leaf and the root
        payloads = [probe.read_page(p) for p in pages]
        probe.close(flush=False)
    # Physical writes: journal append, in-place write, journal append,
    # then the crash before the second in-place write.
    store = FilePageStore(path, page_size, **JOURNALED,
                          crash_plan=CrashPlan(at_write=3))
    try:
        for page_id, payload in zip(pages, payloads):
            store.write_page(page_id, payload)
    except SimulatedCrash:
        pass
    finally:
        store.close()
    # Tear the page whose in-place write never happened.
    with open(path, "r+b") as f:
        f.seek((2 + pages[1]) * page_size + page_size // 2)
        f.write(b"\x00" * (page_size - page_size // 2))
    return pages


def make_ingest(out: str) -> dict:
    dst = os.path.join(out, "ingest")
    shutil.copytree(os.path.join(out, "tree"), dst)
    merged = ops(1, 30, 0)
    sealed = ops(31, 20, 100)
    active = ops(51, 15, 200)
    cwd = os.getcwd()
    os.chdir(dst)  # the generation pointer records a relative path
    try:
        with WriteAheadLog(ingest_dir(TREE)) as wal:
            append_ops(wal, merged)
            wal.seal_active()
        merge_segments(TREE)
        pointer = read_pointer(ingest_dir(TREE))
        assert pointer is not None
        with WriteAheadLog(ingest_dir(TREE),
                           start_after_seq=pointer.merged_seq,
                           min_lsn=pointer.merged_lsn) as wal:
            append_ops(wal, sealed)
            wal.seal_active()
            append_ops(wal, active)
    finally:
        os.chdir(cwd)
    return {"merged_ops": merged, "sealed_ops": sealed,
            "active_ops": active}


def make_staging(out: str) -> None:
    ids, los, his = records()
    rects = RectArray(los, his)
    staging = StagingDir(os.path.join(out, "staging"),
                         remove_on_success=False)
    plan = make_plan(rects, ids, capacity=CAPACITY,
                     page_size=required_page_size(CAPACITY, 2))
    xorder = np.argsort(rects.centers()[:, 0], kind="stable")
    write_plan(staging, plan, stage_input(staging, plan, rects, ids,
                                          xorder))


def main(out: str) -> None:
    for name in ("tree", "journaled", "ingest", "staging",
                 "fixtures.json"):
        target = os.path.join(out, name)
        if os.path.isdir(target):
            shutil.rmtree(target)
        elif os.path.exists(target):
            os.remove(target)
    page_size = make_tree(out)
    assert not journal_has_records(journal_path(os.path.join(out, "tree",
                                                             TREE)))
    journal_pages = make_journaled(out, page_size)
    wal_ops = make_ingest(out)
    make_staging(out)
    ids, los, his = records()
    manifest = {
        "capacity": CAPACITY,
        "page_size": page_size,
        "records": [[int(i), list(lo), list(hi)]
                    for i, lo, hi in zip(ids, los.tolist(), his.tolist())],
        "journal_pages": journal_pages,
        **wal_ops,
    }
    with open(os.path.join(out, "fixtures.json"), "w") as f:
        json.dump(manifest, f)
        f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1
         else os.path.dirname(os.path.abspath(__file__)))
