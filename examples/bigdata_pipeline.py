#!/usr/bin/env python3
"""Big-data pipeline: the 1997 production deployment, end to end.

The paper's context is bulk-loading indexes for data that lives in files
and is served from disk through a small buffer.  This example plays that
scenario with every storage-facing feature of the library:

1. bulk-load with the **parallel STR build** (two worker processes, one
   shard per top-level STR slab, staged and verified) onto a **striped
   multi-disk page store**;
2. persist the tree header and **reopen it as a new process would**;
3. serve region queries through a small LRU buffer and report the
   declustered parallel I/O cost;
4. take live inserts and deletes through the **ingest path**: each one is
   fsync'd to a write-ahead log, applied to an in-memory delta, and a
   window is answered as packed tree ∪ delta − deletes by an overlay,
   checked against a brute-force scan of the same records.

Run:  python examples/bigdata_pipeline.py
"""

import os
import sys
import tempfile

import numpy as np

from repro import PagedRTree, Rect, RectArray
from repro.ingest import DeltaTree, OverlaySearcher, WriteAheadLog
from repro.pipeline import parallel_bulk_load
from repro.queries import region_queries
from repro.storage.page import required_page_size
from repro.storage.store import FilePageStore
from repro.storage.striped import StripedPageStore


def inside(points: np.ndarray, query: Rect) -> np.ndarray:
    """Row indices of the points in ``query`` (closed bounds)."""
    return np.flatnonzero(np.all((points >= query.lo)
                                 & (points <= query.hi), axis=1))


def main() -> int:
    n = 200_000
    capacity = 100
    page_size = required_page_size(capacity, 2)

    # Record i is point i; its id is its position.
    points = np.random.default_rng(1).random((n, 2))

    with tempfile.TemporaryDirectory(prefix="repro-bigdata-") as workdir:
        # 1. Parallel STR build onto 4 "disks" ---------------------------
        disks = [
            FilePageStore(os.path.join(workdir, f"disk{i}.pages"),
                          page_size)
            for i in range(4)
        ]
        store = StripedPageStore(disks)
        print(f"bulk-loading {n:,} records with 2 worker processes "
              "(parallel STR)...")
        tree, report = parallel_bulk_load(
            RectArray.from_points(points), capacity=capacity, store=store,
            staging_path=os.path.join(workdir, "staging"), workers=2,
        )
        pages = report.bulk.pages_written
        print(f"  wrote {pages} pages "
              f"({pages * page_size / 1e6:.1f} MB across "
              f"{store.disk_count} disks), height {tree.height}")

        meta_path = os.path.join(workdir, "tree.meta.json")
        tree.save_meta(meta_path)

        # 2. Reopen as a fresh process would -----------------------------
        reopened = PagedRTree.open(store, meta_path)
        print(f"reopened tree: {len(reopened):,} records")

        # 3. Serve queries through a 50-page buffer ----------------------
        store.reset_disk_stats()
        searcher = reopened.searcher(buffer_pages=50)
        workload = region_queries(0.05, 500, seed=2)
        hits = sum(searcher.search(q).size for q in workload)
        print(f"served {len(workload)} map-window queries: "
              f"{hits / len(workload):.0f} hits/query, "
              f"{searcher.disk_accesses / len(workload):.2f} page "
              "reads/query")
        print(f"  declustering: {store.per_disk_reads()} reads per disk "
              f"-> parallel speedup {store.parallel_speedup():.2f}x "
              f"of {store.disk_count} ideal")

        # 4. Live writes go through the ingest path ----------------------
        # 5,000 new records arrive anywhere, and 500 old ones inside the
        # query window are deleted.  An op is durable once appended; the
        # delta holds it until a merge re-packs the tree.
        q = Rect((0.45, 0.45), (0.55, 0.55))
        in_base = inside(points, q)
        rng = np.random.default_rng(3)
        inserts = rng.random((5_000, 2))
        deletes = rng.choice(in_base, size=500, replace=False)
        delta = DeltaTree(ndim=2)
        with WriteAheadLog(os.path.join(workdir, "wal")) as wal:
            for i, p in enumerate(inserts):
                delta.apply(wal.append("insert", n + i,
                                       Rect.from_point(p.tolist())))
            for data_id in deletes.tolist():
                delta.apply(wal.append("delete", data_id, None))
        got = np.sort(OverlaySearcher(searcher, (delta,))
                      .search_detailed(q).ids)
        print(f"after {wal.pending_ops:,} logged writes "
              f"({wal.pending_bytes / 1e3:.0f} KB of WAL), the overlay "
              f"answers a 1% window with {got.size} hits")

        for disk in disks:
            disk.close()

    # The same window by brute force over the generated records.
    inserted = n + inside(inserts, q)
    expected = np.union1d(np.setdiff1d(in_base, deletes), inserted)
    if not np.array_equal(got, expected):
        print(f"overlay answer differs from brute force: {got.size} ids "
              f"against {expected.size}", file=sys.stderr)
        return 1
    print(f"  matches a brute-force scan: {in_base.size} base records "
          f"- {deletes.size} deleted + {inserted.size} inserted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
