"""Striped page store: the paper's "parallel shared-nothing" future work.

The conclusion of the paper plans to "extend our results to a parallel
shared-nothing platform".  The standard way to put an R-tree on such a
platform (Kamel & Faloutsos's multi-disk R-trees) is to *decluster* pages
across D disks so one query's pages can be fetched in parallel.

:class:`StripedPageStore` composes D backing stores (disks) with
round-robin page placement and per-disk I/O counters.  Its headline metric
for the parallel experiments is :meth:`parallel_cost`: with perfect
overlap, a batch of page fetches costs as much as its most-loaded disk, so
``parallel speedup = total accesses / max-per-disk accesses``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .counters import IOStats
from .store import PageStore, StoreError

if TYPE_CHECKING:
    from .breaker import CircuitBreaker
    from .faults import RetryPolicy

__all__ = ["StripedPageStore"]


class StripedPageStore(PageStore):
    """Round-robin declustering of pages over multiple backing stores.

    Page ``p`` lives on disk ``p % D`` at local offset ``p // D``.  The
    global stats count every access; each backing store's own stats see
    only its share, giving the per-disk load profile the parallel speedup
    metric needs.
    """

    def __init__(self, disks: Sequence[PageStore],
                 stats: IOStats | None = None, *,
                 retry: "RetryPolicy | None" = None,
                 breaker: "CircuitBreaker | None" = None) -> None:
        if not disks:
            raise StoreError("need at least one backing store")
        sizes = {d.page_size for d in disks}
        if len(sizes) != 1:
            raise StoreError(f"page-size mismatch across disks: {sizes}")
        super().__init__(disks[0].page_size, stats, retry=retry,
                         breaker=breaker)
        self._disks = list(disks)
        counts = {d.page_count for d in self._disks}
        if counts not in ({0}, set()):
            # Re-opening existing striped storage: disks may differ by at
            # most one page (the round-robin remainder).
            if max(counts) - min(counts) > 1:
                raise StoreError(
                    "backing stores are not a consistent round-robin stripe"
                )
        self._count = sum(d.page_count for d in self._disks)

    @property
    def disk_count(self) -> int:
        return len(self._disks)

    @property
    def disks(self) -> tuple[PageStore, ...]:
        """The backing stores, in stripe order (read-only view)."""
        return tuple(self._disks)

    @property
    def page_count(self) -> int:
        return self._count

    def _locate(self, page_id: int) -> tuple[PageStore, int]:
        return (self._disks[page_id % len(self._disks)],
                page_id // len(self._disks))

    def allocate(self) -> int:
        page_id = self._count
        disk, local = self._locate(page_id)
        got = disk.allocate()
        if got != local:
            raise StoreError(
                f"stripe inconsistency: disk allocated {got}, "
                f"expected local page {local}"
            )
        self._count += 1
        return page_id

    def _read(self, page_id: int) -> bytes:
        disk, local = self._locate(page_id)
        # The disk's own read_page counts its per-disk share.
        return disk.read_page(local)

    def _write(self, page_id: int, data: bytes) -> None:
        disk, local = self._locate(page_id)
        disk.write_page(local, data)

    # -- parallel-cost accounting --------------------------------------------

    def per_disk_reads(self) -> list[int]:
        """Reads observed by each backing store since its stats were reset."""
        return [d.stats.disk_reads for d in self._disks]

    def reset_disk_stats(self) -> None:
        """Zero every backing store's counters (start of a batch)."""
        for d in self._disks:
            d.stats.reset()

    def parallel_cost(self) -> int:
        """Batch cost under perfect overlap: the most-loaded disk's reads."""
        return max(self.per_disk_reads())

    def parallel_speedup(self) -> float:
        """Total reads / most-loaded-disk reads (ideal = disk count)."""
        cost = self.parallel_cost()
        if cost == 0:
            return 1.0
        return sum(self.per_disk_reads()) / cost

    def close(self) -> None:
        for d in self._disks:
            d.close()
