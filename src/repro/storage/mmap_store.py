"""Read-only mmap-backed page store for multi-process serving.

STR-packed trees are immutable once :func:`~repro.rtree.bulk.bulk_load`
has committed, which makes their page files trivially shareable
read-only across processes: every serving worker can ``mmap`` the same
generation file and let the OS page cache hold exactly one copy of every
hot page, instead of each process pulling private copies through a
buffer pool's ``read`` calls.

:class:`MmapPageStore` is that sharing primitive:

* **Read-only by construction** — :meth:`allocate` and ``write_page``
  raise :class:`~repro.storage.store.StoreError`; the file can never be
  perturbed by a serving worker, no matter how it crashes.
* **Self-describing** — a durable file's superblock supplies the page
  size, durability flags and committed tree metadata, so
  :meth:`~repro.rtree.paged.PagedRTree.from_store` works unchanged;
  plain page files just need an explicit ``page_size``.
* **CRC-verified on first touch** — the first read of each checksummed
  page runs the full trailer verification; later reads of the same page
  skip it (the mapping is read-only and the file immutable, so the
  bytes cannot have changed).  A flipped at-rest bit is therefore still
  a loud :class:`~repro.storage.integrity.ChecksumError`, but steady-
  state serving pays zero checksum arithmetic.
* **Decoded once** — :meth:`read_node` decodes a page on its first
  touch into node arrays that *view* the read-only mapping (no private
  copy of the page) and keeps the node until :meth:`close` — every node
  touched, not bounded by the buffer (about 1 KB each, see
  ``docs/serving.md``).  A later buffer miss on the same page is still a
  counted read — range check, breaker, ``disk_reads`` — that returns the
  kept node, so the paper's access counts are those of any other store.
* **Byte-identical reads** — :meth:`read_page` returns exactly what a
  :class:`~repro.storage.store.FilePageStore` would return for the same
  page (checksummed pages come back payload-first with the trailer
  bytes zeroed), so the two backends are interchangeable under every
  searcher, fsck pass and fault-injection wrapper.

A file whose superblock carries the legacy journal flag and whose
sidecar still holds unreplayed records is refused: replay is a *write*,
which only :meth:`~repro.storage.store.FilePageStore.open_existing` may
perform (see :mod:`repro.storage.journal`).  :meth:`open_existing`
hands such a file to it first, then maps the recovered file.
"""

from __future__ import annotations

import mmap
import os
from typing import TYPE_CHECKING

from ..obs import runtime as obs
from .counters import IOStats
from .integrity import (
    FLAG_CHECKSUMS,
    FLAG_JOURNAL,
    SUPERBLOCK_SLOTS,
    TRAILER_SIZE,
    ChecksumError,
    looks_like_superblock,
    verify_trailer,
)
from .journal import journal_has_records, journal_path
from .page import NodePage, decode_node
from .store import FilePageStore, PageStore, StoreError, _find_superblock

if TYPE_CHECKING:  # pragma: no cover - import cycle (see store.py)
    from .breaker import CircuitBreaker
    from .faults import RetryPolicy

__all__ = ["MmapPageStore"]


class MmapPageStore(PageStore):
    """Read-only page store over one memory-mapped page file.

    Parameters
    ----------
    path:
        The page file.  A durable file (superblock magic at offset 0)
        describes itself; a plain file needs ``page_size``.
    page_size:
        Required for plain files; optional for durable files (when
        given it must match the superblock).

    A checksummed page's CRC trailer is verified on its first touch.
    """

    def __init__(self, path: str | os.PathLike[str],
                 page_size: int | None = None,
                 stats: IOStats | None = None, *,
                 retry: "RetryPolicy | None" = None,
                 breaker: "CircuitBreaker | None" = None) -> None:
        self._path = os.fspath(path)
        with open(self._path, "rb") as probe:
            head = probe.read(4)
        durable = looks_like_superblock(head)
        if durable:
            sb = _find_superblock(self._path)
            if page_size is not None and page_size != sb.page_size:
                raise StoreError(
                    f"{self._path}: superblock page size {sb.page_size} "
                    f"!= requested {page_size}"
                )
            page_size = sb.page_size
            self._flags = sb.flags
            self._count = sb.page_count
            self._tree_meta: dict | None = sb.tree
            self._reserved = SUPERBLOCK_SLOTS
        else:
            if page_size is None:
                raise StoreError(
                    f"{self._path}: no superblock — a plain page file "
                    f"needs an explicit page_size"
                )
            size = os.path.getsize(self._path)
            if size % page_size:
                raise StoreError(
                    f"{self._path}: size {size} is not a multiple of "
                    f"page size {page_size}"
                )
            self._flags = 0
            self._count = size // page_size
            self._tree_meta = None
            self._reserved = 0
        super().__init__(page_size, stats, retry=retry, breaker=breaker)
        if self._flags & FLAG_JOURNAL and journal_has_records(
                journal_path(self._path)):
            raise StoreError(
                f"{self._path}: write journal holds unreplayed records — "
                f"recover it with FilePageStore.open_existing (or repro "
                f"fsck) before serving read-only"
            )
        self.checksums = bool(self._flags & FLAG_CHECKSUMS)
        #: Page ids whose trailer has been verified (first-touch cache).
        self._verified: set[int] = set()
        #: Decoded nodes by page id, viewing the mapping (see read_node).
        self._nodes: dict[int, NodePage] = {}
        self.checksum_failures = 0
        #: Legacy journal replays done for this file by open_existing.
        self.recoveries = 0
        self.recovered_pages = 0
        self._closed = False
        self._file = open(self._path, "rb")
        try:
            self._map: mmap.mmap | None = None
            if os.fstat(self._file.fileno()).st_size > 0:
                self._map = mmap.mmap(self._file.fileno(), 0,
                                      access=mmap.ACCESS_READ)
        except BaseException:
            self._file.close()
            raise

    @classmethod
    def open_existing(cls, path: str | os.PathLike[str],
                      stats: IOStats | None = None, *,
                      retry: "RetryPolicy | None" = None,
                      breaker: "CircuitBreaker | None" = None
                      ) -> "MmapPageStore":
        """Map a durable file read-only, replaying a legacy journal first.

        A file whose journal sidecar still holds records is opened once
        by :meth:`FilePageStore.open_existing`, whose replay (and the
        superblock commit on its close) is the one write a reader may
        cause; the replay counts carry over to the mapped store, so
        health reports still show the recovery.  Any other file is
        mapped without a single write.
        """
        path = os.fspath(path)
        recoveries = recovered_pages = 0
        if _find_superblock(path).flags & FLAG_JOURNAL and \
                journal_has_records(journal_path(path)):
            replayed = FilePageStore.open_existing(path)
            replayed.close()
            recoveries = replayed.recoveries
            recovered_pages = replayed.recovered_pages
        store = cls(path, stats=stats, retry=retry, breaker=breaker)
        store.recoveries = recoveries
        store.recovered_pages = recovered_pages
        return store

    # -- properties -----------------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    @property
    def page_count(self) -> int:
        return self._count

    @property
    def payload_size(self) -> int:
        if self.checksums:
            return self.page_size - TRAILER_SIZE
        return self.page_size

    @property
    def supports_tree_meta(self) -> bool:
        """Durable files carry tree metadata in their superblock."""
        return self._reserved > 0

    @property
    def tree_meta(self) -> dict | None:
        """Committed tree metadata from the superblock, or ``None``."""
        return dict(self._tree_meta) if self._tree_meta is not None else None

    @property
    def verified_pages(self) -> int:
        """Pages whose CRC trailer has been checked so far."""
        return len(self._verified)

    # -- page access ----------------------------------------------------------

    def allocate(self) -> int:
        raise StoreError(f"{self._path}: MmapPageStore is read-only")

    def _data_offset(self, page_id: int) -> int:
        return (self._reserved + page_id) * self.page_size

    def _image(self, page_id: int) -> bytes:
        """The raw on-disk page image, zero-padded past EOF."""
        self._ensure_open()
        offset = self._data_offset(page_id)
        end = min(offset + self.page_size,
                  len(self._map) if self._map is not None else 0)
        data = bytes(self._map[offset:end]) if (
            self._map is not None and end > offset) else b""
        if len(data) != self.page_size:
            if self._reserved == 0:
                raise StoreError(f"short read on page {page_id}")
            # Durable counts come from the superblock; an allocated page
            # past EOF reads as never-written zeros and fails the
            # checksum verification with a precise error below.
            data = data + b"\x00" * (self.page_size - len(data))
        return data

    def _read(self, page_id: int) -> bytes:
        data = self._image(page_id)
        if not self.checksums:
            return data
        if page_id not in self._verified:
            try:
                data = verify_trailer(data, page_id, source=self._path)
            except ChecksumError:
                self.checksum_failures += 1
                raise
            self._verified.add(page_id)
            return data
        # Already verified: return the exact bytes a FilePageStore read
        # would — payload with the trailer region zeroed back out.
        return data[:self.page_size - TRAILER_SIZE] + b"\x00" * TRAILER_SIZE

    def _write(self, page_id: int, data: bytes) -> None:
        raise StoreError(f"{self._path}: MmapPageStore is read-only")

    def read_node(self, page_id: int, stats: IOStats | None = None
                  ) -> NodePage:
        """Counted node fetch that decodes each page once.

        The first touch reads (and CRC-verifies) the page through
        :meth:`read_page`, then decodes a view of the mapped payload and
        keeps it; a page that fails is not kept, so its next touch fails
        again.  Later calls count exactly as :meth:`read_page` does and
        return the kept node: the file is immutable, so its bytes cannot
        have changed.  Both phases keep their spans, the decode one empty
        on a kept node.
        """
        node = self._nodes.get(page_id)
        if node is None:
            with obs.span("query.page_read"):
                data = self.read_page(page_id, stats)
            with obs.span("query.page_decode"):
                view = self._payload_view(page_id)
                node = decode_node(data if view is None else view,
                                   page_id=page_id, source=self._path)
            self._nodes[page_id] = node
            return node
        with obs.span("query.page_read"):
            self._count_read(page_id, stats)
            if self.breaker is not None:  # a lookup cannot fail
                self.breaker.record_success()
        with obs.span("query.page_decode"):
            return node

    def _payload_view(self, page_id: int) -> memoryview | None:
        """The page's payload as a view of the mapping, or ``None`` when
        the mapping ends before it (a page past EOF reads as zeros)."""
        offset = self._data_offset(page_id)
        end = offset + self.payload_size
        if self._map is None or end > len(self._map):
            return None
        return memoryview(self._map)[offset:end]

    def raw_read(self, page_id: int) -> bytes:
        self._check_id(page_id)
        return self._image(page_id)

    # -- teardown -------------------------------------------------------------

    def close(self) -> None:
        """Release the mapping; later reads raise :class:`StoreError`.

        Nodes handed out earlier may still view the mapping (a searcher's
        buffer holds them): then the mapping is unmapped when the last of
        them is collected, not here, and closing does not fail.
        """
        if self._closed:
            return
        self._closed = True
        self._nodes.clear()
        if self._map is not None:
            try:
                self._map.close()
            except BufferError:
                pass  # views outlive us; the last one unmaps it
            self._map = None
        self._file.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreError(f"{self._path} is closed")
