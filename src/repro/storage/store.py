"""Page stores: where node pages live when they are not buffered.

The paper implements its buffer manager over a *raw disk partition* so the
OS cannot "false-buffer" evicted pages.  We cannot require a raw partition
from library users, so two backends are provided:

* :class:`MemoryPageStore` — pages live in a dict of ``bytes``.  Since the
  comparison metric is the *count* of page fetches (not their latency), this
  backend reproduces the paper's measurements exactly while keeping
  laptop-scale experiments fast.  It is the default everywhere.
* :class:`FilePageStore` — pages live in a regular file accessed with
  explicit seeks; every miss is a real ``read`` and every eviction a real
  ``write``.  Used by the integration tests and available to users who want
  genuine I/O.

Both count traffic in the shared :class:`~repro.storage.counters.IOStats`.

Durability (opt-in, :class:`FilePageStore` only)
------------------------------------------------
A raw partition also means raw failure modes, so the file store has an
opt-in durability layer — see ``docs/durability.md`` for the protocol:

* ``checksums=True`` stamps a checksum trailer (page id + format version)
  into every page's padding and verifies it on every read, so a flipped
  bit or torn page is a loud :class:`~repro.storage.integrity.ChecksumError`
  instead of silently decoded garbage.
* It also reserves two leading **superblock** slots, shadow-written
  alternately, holding the page size, the durability flags, the committed
  page count and the tree metadata — a durable file is self-describing
  (:meth:`FilePageStore.open_existing`).  A packed tree is written once
  into a fresh file, and its superblock commit is its publication.
* A file whose superblock still carries the legacy journal flag gets its
  double-write sidecar replayed on open (:mod:`repro.storage.journal`).

With checksums off, layout and behaviour are byte-identical to the plain
store, so the paper's access counts cannot move.
"""

from __future__ import annotations

import abc
import os
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterator, TypeVar

from ..obs import runtime as obs
from .counters import IOStats
from .integrity import (
    FLAG_CHECKSUMS,
    FLAG_JOURNAL,
    SUPERBLOCK_SLOTS,
    ChecksumError,
    Superblock,
    SuperblockError,
    TRAILER_SIZE,
    looks_like_superblock,
    stamp_trailer,
    verify_trailer,
)
from .journal import WriteJournal, journal_path
from .page import NodePage, decode_node

if TYPE_CHECKING:  # retry/crash plans live in faults, which imports us
    from .breaker import CircuitBreaker
    from .faults import CrashPlan, RetryPolicy

_T = TypeVar("_T")

__all__ = [
    "StoreError",
    "StoreUnavailable",
    "SimulatedCrash",
    "PageStore",
    "MemoryPageStore",
    "FilePageStore",
]


class StoreError(RuntimeError):
    """Raised for unknown pages, size mismatches, or closed stores."""


class StoreUnavailable(StoreError):
    """The store's circuit breaker is open: the operation was refused
    *before* touching the device (see :mod:`repro.storage.breaker`).

    Serving layers treat this as a degradable condition — skip the page,
    flag the response partial — rather than a corrupt result.
    """


class SimulatedCrash(StoreError):
    """A fault-injection plan 'killed the process' at this write.

    Raised by the physical-write hook (see
    :class:`~repro.storage.faults.CrashPlan`); the store marks itself
    crashed so a subsequent :meth:`PageStore.close` drops the file handles
    without flushing — exactly what a real crash leaves behind.
    """


#: Never batch-extend a file by more than this many bytes at once.
_MAX_EXTEND_BYTES = 16 << 20


class PageStore(abc.ABC):
    """Abstract fixed-page-size storage device.

    Page ids are dense non-negative integers handed out by
    :meth:`allocate`.  Reads and writes always move whole pages.

    ``retry`` (a :class:`~repro.storage.faults.RetryPolicy`) makes
    :meth:`read_page` / :meth:`write_page` retry transient faults with
    bounded backoff.  Retries never touch the I/O counters — the paper's
    access counts stay bit-identical — and surface through the per-fault
    ``storage.retries{fault=...}`` counters plus the :attr:`retry_count`
    attribute.

    ``breaker`` (a :class:`~repro.storage.breaker.CircuitBreaker`) watches
    every attempted read/write: once it trips, operations raise
    :class:`StoreUnavailable` *before* any I/O (and before any counter
    moves), so a sick device fails fast instead of hanging callers in
    retry loops.  With no breaker attached behaviour is unchanged.
    """

    def __init__(self, page_size: int, stats: IOStats | None = None, *,
                 retry: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None) -> None:
        if page_size < 32:
            raise StoreError(f"page_size {page_size} is implausibly small")
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStats()
        self.retry = retry
        self.breaker = breaker
        self.retry_count = 0

    @abc.abstractmethod
    def allocate(self) -> int:
        """Reserve a new page id (contents undefined until written)."""

    @abc.abstractmethod
    def _read(self, page_id: int) -> bytes:
        ...

    @abc.abstractmethod
    def _write(self, page_id: int, data: bytes) -> None:
        ...

    @property
    @abc.abstractmethod
    def page_count(self) -> int:
        """Number of allocated pages."""

    @property
    def payload_size(self) -> int:
        """Bytes per page available to callers (page size minus any
        integrity trailer)."""
        return self.page_size

    def read_page(self, page_id: int, stats: IOStats | None = None) -> bytes:
        """Fetch one page, counting a disk read.

        ``stats`` overrides the store's default counter for this call —
        query executors pass their own so per-experiment accounting stays
        separate from build-time I/O.
        """
        self._count_read(page_id, stats)
        return self._attempt(
            lambda: self._read(page_id)
            if self.retry is None
            else self.retry.run(lambda: self._read(page_id),
                                on_retry=self._note_retry)
        )

    def read_node(self, page_id: int, stats: IOStats | None = None
                  ) -> NodePage:
        """Fetch one page and decode its node, counting exactly as
        :meth:`read_page` does (the searchers' fetch).

        The read and decode phases run under the ``query.page_read`` and
        ``query.page_decode`` spans, so a traced query separates raw page
        I/O from page-to-node decoding.  A store whose pages cannot
        change may keep decoded nodes, as the read-only mmap store does,
        provided every call still counts.
        """
        with obs.span("query.page_read"):
            data = self.read_page(page_id, stats)
        with obs.span("query.page_decode"):
            return decode_node(data, page_id=page_id,
                               source=getattr(self, "path", None))

    def _count_read(self, page_id: int, stats: IOStats | None) -> None:
        """What makes a read a counted disk access, before any byte
        moves: the range check, the breaker's consent and ``disk_reads``.
        Every counted read goes through here, kept nodes included."""
        self._check_id(page_id)
        self._check_breaker(page_id, "read")
        (stats if stats is not None else self.stats).disk_reads += 1

    def peek_page(self, page_id: int) -> bytes:
        """Fetch one page *without* counting (validation, stats, plots)."""
        self._check_id(page_id)
        return self._read(page_id)

    def write_page(self, page_id: int, data: bytes) -> None:
        """Store one page, counting a disk write."""
        self._check_id(page_id)
        if len(data) != self.page_size:
            raise StoreError(
                f"page {page_id}: got {len(data)} bytes, "
                f"page size is {self.page_size}"
            )
        self._check_breaker(page_id, "write")
        self.stats.disk_writes += 1
        self._attempt(
            lambda: self._write(page_id, data)
            if self.retry is None
            else self.retry.run(lambda: self._write(page_id, data),
                                on_retry=self._note_retry)
        )

    def _check_breaker(self, page_id: int, op: str) -> None:
        if self.breaker is not None and not self.breaker.allow():
            raise StoreUnavailable(
                f"page {page_id}: {op} refused, circuit breaker is open"
            )

    def _attempt(self, op: Callable[[], _T]) -> _T:
        """Run one (possibly retried) operation, feeding the breaker."""
        if self.breaker is None:
            return op()
        try:
            result = op()
        except Exception:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return result

    def _note_retry(self, exc: BaseException) -> None:
        self.retry_count += 1
        obs.inc("storage.retries", fault=type(exc).__name__)

    # -- raw access (fault injection, fsck) ----------------------------------

    def raw_read(self, page_id: int) -> bytes:
        """The stored physical image — uncounted, unverified (a page that
        was never written reads as zeros).  Overridden by concrete stores."""
        raise StoreError(
            f"{type(self).__name__} does not support raw page access"
        )

    def raw_write(self, page_id: int, data: bytes) -> None:
        """Overwrite the stored physical image, bypassing checksums — the
        corruption back-door fault injection and tests use."""
        raise StoreError(
            f"{type(self).__name__} does not support raw page access"
        )

    def _check_id(self, page_id: int) -> None:
        if not 0 <= page_id < self.page_count:
            raise StoreError(
                f"page {page_id} out of range [0, {self.page_count})"
            )

    def page_ids(self) -> Iterator[int]:
        """Iterate all allocated page ids in order."""
        return iter(range(self.page_count))

    def close(self) -> None:  # pragma: no cover - overridden where needed
        """Release any underlying resources."""

    def __enter__(self) -> "PageStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class MemoryPageStore(PageStore):
    """In-memory page store (the default experiment backend)."""

    def __init__(self, page_size: int, stats: IOStats | None = None, *,
                 retry: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None) -> None:
        super().__init__(page_size, stats, retry=retry, breaker=breaker)
        self._pages: list[bytes | None] = []

    def allocate(self) -> int:
        self._pages.append(None)
        return len(self._pages) - 1

    @property
    def page_count(self) -> int:
        return len(self._pages)

    def _read(self, page_id: int) -> bytes:
        data = self._pages[page_id]
        if data is None:
            raise StoreError(f"page {page_id} allocated but never written")
        return data

    def _write(self, page_id: int, data: bytes) -> None:
        self._pages[page_id] = bytes(data)

    def raw_read(self, page_id: int) -> bytes:
        self._check_id(page_id)
        data = self._pages[page_id]
        return data if data is not None else b"\x00" * self.page_size

    def raw_write(self, page_id: int, data: bytes) -> None:
        self._check_id(page_id)
        self._pages[page_id] = bytes(data)


class FilePageStore(PageStore):
    """Page store backed by a regular file with explicit per-page I/O.

    The file is opened in binary read/write mode and extended in batched
    ``truncate`` calls as pages are allocated.  ``fsync`` on close
    guarantees the bytes are durable, which is as close to the paper's
    raw-partition setup as a portable library can get.

    Parameters
    ----------
    checksums:
        Stamp and verify a checksum trailer on every page (reduces
        :attr:`payload_size` by the trailer size) behind a superblock.
        An existing file must match: a superblock whose checksums flag
        differs is refused.
    journal:
        Ignored.  Stores no longer journal page writes; a legacy
        journal sidecar is replayed when the *file's* superblock carries
        the journal flag, whatever the caller passes.  The keyword stays
        only because the benchmark's traced build (``perfbench/traced.py``)
        still passes it.
    retry:
        Optional :class:`~repro.storage.faults.RetryPolicy` for transient
        faults.
    crash_plan:
        Optional :class:`~repro.storage.faults.CrashPlan` applied to every
        physical file write (testing only).
    """

    def __init__(self, path: str | os.PathLike, page_size: int,
                 stats: IOStats | None = None, *,
                 checksums: bool = False, journal: bool = False,
                 retry: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 crash_plan: CrashPlan | None = None) -> None:
        super().__init__(page_size, stats, retry=retry, breaker=breaker)
        self._path = os.fspath(path)
        self.checksums = checksums
        self._durable = checksums
        self._reserved = SUPERBLOCK_SLOTS if self._durable else 0
        self._crash_plan = crash_plan
        self._crashed = False
        self._closed = False
        self._tree_meta: dict | None = None
        self._seq = 0
        self.checksum_failures = 0
        self.recoveries = 0
        self.recovered_pages = 0

        exists = os.path.exists(self._path)
        self._file = open(self._path, "r+b" if exists else "w+b")
        try:
            if exists:
                self._open_layout(os.fstat(self._file.fileno()).st_size)
            else:
                self._count = 0
                self._phys_size = 0
                if self._durable:
                    # Both shadow slots are valid from birth, so a plain
                    # open always sees the superblock magic at offset 0.
                    self._commit_superblock()
                    self._commit_superblock()
        except BaseException:
            self._file.close()
            raise

    # -- open / recovery ------------------------------------------------------

    def _open_layout(self, size: int) -> None:
        """Validate an existing file and learn its page count.

        A superblock makes the file durable whatever was requested: its
        checksums flag must match the request, and its legacy journal
        flag triggers a replay of the journal sidecar.
        """
        self._phys_size = size
        self._file.seek(0)
        if not self._durable and not looks_like_superblock(
                self._file.read(4)):
            if size % self.page_size:
                raise StoreError(
                    f"{self._path}: size {size} is not a multiple of "
                    f"page size {self.page_size}"
                )
            self._count = size // self.page_size
            return
        sb = self._read_superblock()
        if sb.page_size != self.page_size:
            raise StoreError(
                f"{self._path}: superblock page size {sb.page_size} != "
                f"requested {self.page_size}"
            )
        if (sb.flags & FLAG_CHECKSUMS) != self._flags():
            raise StoreError(
                f"{self._path}: superblock flags "
                f"({self._flag_names(sb.flags)}) do not match the open "
                f"request ({self._flag_names(self._flags())}); open it "
                f"with FilePageStore.open_existing()"
            )
        self._durable = True
        self._reserved = SUPERBLOCK_SLOTS
        self._seq = sb.seq
        self._count = sb.page_count
        self._tree_meta = sb.tree
        if sb.flags & FLAG_JOURNAL:
            self._replay_journal()

    def _read_superblock(self) -> Superblock:
        """Decode the newest valid shadow slot (or raise precisely)."""
        slots: list[Superblock] = []
        errors: list[str] = []
        for slot in range(SUPERBLOCK_SLOTS):
            self._file.seek(slot * self.page_size)
            data = self._file.read(self.page_size)
            try:
                slots.append(Superblock.decode(data, source=self._path))
            except SuperblockError as exc:
                errors.append(f"slot {slot}: {exc}")
        if not slots:
            raise SuperblockError(
                f"{self._path}: no valid superblock slot "
                f"({'; '.join(errors)})"
            )
        return max(slots, key=lambda sb: sb.seq)

    def _replay_journal(self) -> None:
        """Replay a legacy journal sidecar's intact records, discard its
        torn tail, fsync, then delete it.  The next superblock commit
        drops the journal flag."""
        path = journal_path(self._path)
        if not os.path.exists(path):
            return
        with WriteJournal(path, self.page_size) as journal:
            if journal.record_bytes:
                replayed = 0
                for page_id, image in journal.scan():
                    offset = self._data_offset(page_id)
                    self._file.seek(offset)
                    self._file.write(image)
                    self._phys_size = max(self._phys_size,
                                          offset + self.page_size)
                    replayed += 1
                self._file.flush()
                os.fsync(self._file.fileno())
                self.recoveries += 1
                self.recovered_pages += replayed
                obs.inc("storage.recoveries")
                obs.inc("storage.recovered_pages", replayed)
        os.remove(path)

    @classmethod
    def open_existing(cls, path: str | os.PathLike,
                      stats: IOStats | None = None, *,
                      retry: RetryPolicy | None = None,
                      breaker: CircuitBreaker | None = None
                      ) -> "FilePageStore":
        """Open a durable store using only its superblock (self-describing:
        page size and durability flags come from the file itself)."""
        path = os.fspath(path)
        sb = _find_superblock(path)
        return cls(
            path, sb.page_size, stats,
            checksums=bool(sb.flags & FLAG_CHECKSUMS),
            retry=retry, breaker=breaker,
        )

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
        """Durable stores persist tree metadata in their superblock."""
        return self._durable

    @property
    def tree_meta(self) -> dict | None:
        """Committed tree metadata (height, root_page, ndim, capacity,
        size), or ``None`` when no build has committed."""
        return dict(self._tree_meta) if self._tree_meta is not None else None

    def set_tree_meta(self, meta: dict) -> None:
        """Commit tree metadata: data is fsynced, then the superblock is
        shadow-written — the build's atomic commit point."""
        self._ensure_open()
        if not self._durable:
            raise StoreError(
                f"{self._path}: tree metadata needs a superblock — open "
                f"with checksums=True"
            )
        required = {"height", "root_page", "ndim", "capacity", "size"}
        missing = required - set(meta)
        if missing:
            raise StoreError(f"tree meta missing keys: {sorted(missing)}")
        self._tree_meta = {k: int(meta[k]) for k in required}
        self.flush()

    # -- physical I/O ---------------------------------------------------------

    def _flags(self) -> int:
        return FLAG_CHECKSUMS if self.checksums else 0

    @staticmethod
    def _flag_names(flags: int) -> str:
        names = [name for bit, name in ((FLAG_CHECKSUMS, "checksums"),
                                        (FLAG_JOURNAL, "journal"))
                 if flags & bit]
        return "+".join(names) if names else "none"

    def _physical_write(self, fileobj: BinaryIO, data: bytes) -> None:
        """Every byte string headed to the OS funnels through here so a
        :class:`~repro.storage.faults.CrashPlan` can tear or abort it."""
        if self._crash_plan is None:
            fileobj.write(data)
            return
        chunk, crash = self._crash_plan.next_write(data)
        if chunk:
            fileobj.write(chunk)
        if crash:
            fileobj.flush()
            self._crashed = True
            raise SimulatedCrash(
                f"{self._path}: simulated crash at physical write "
                f"{self._crash_plan.at_write}"
                + (f" (torn after {len(chunk)} of {len(data)} bytes)"
                   if chunk else "")
            )

    def _data_offset(self, page_id: int) -> int:
        return (self._reserved + page_id) * self.page_size

    def allocate(self) -> int:
        self._ensure_open()
        page_id = self._count
        self._count += 1
        needed = self._data_offset(page_id) + self.page_size
        if needed > self._phys_size:
            # Batched zero-fill extension: doubling (capped) keeps the
            # number of syscalls logarithmic in the final file size, not
            # one seek+write pair per page.  flush()/close() truncate the
            # over-allocation back to the committed size.
            target = max(needed,
                         min(2 * self._phys_size,
                             needed + _MAX_EXTEND_BYTES))
            self._file.truncate(target)
            self._phys_size = target
        return page_id

    def _read(self, page_id: int) -> bytes:
        self._ensure_open()
        self._file.seek(self._data_offset(page_id))
        data = self._file.read(self.page_size)
        if len(data) != self.page_size:
            if not self._durable:
                raise StoreError(f"short read on page {page_id}")
            # Durable page counts come from the superblock; an allocated
            # page past EOF simply reads back as never-written zeros and
            # fails checksum verification with a precise error below.
            data = data + b"\x00" * (self.page_size - len(data))
        if self.checksums:
            try:
                data = verify_trailer(data, page_id, source=self._path)
            except ChecksumError:
                self.checksum_failures += 1
                obs.inc("storage.checksum_failures")
                raise
        return data

    def _write(self, page_id: int, data: bytes) -> None:
        self._ensure_open()
        image = data
        if self.checksums:
            if any(data[len(data) - TRAILER_SIZE:]):
                raise StoreError(
                    f"page {page_id}: payload extends into the "
                    f"{TRAILER_SIZE}-byte checksum trailer (payload budget "
                    f"is {self.payload_size} of {self.page_size} bytes)"
                )
            image = stamp_trailer(data, page_id)
        self._file.seek(self._data_offset(page_id))
        self._physical_write(self._file, image)

    def raw_read(self, page_id: int) -> bytes:
        self._check_id(page_id)
        self._ensure_open()
        self._file.seek(self._data_offset(page_id))
        data = self._file.read(self.page_size)
        return data + b"\x00" * (self.page_size - len(data))

    def raw_write(self, page_id: int, data: bytes) -> None:
        self._check_id(page_id)
        self._ensure_open()
        if len(data) != self.page_size:
            raise StoreError(
                f"raw write of {len(data)} bytes to page {page_id}; "
                f"page size is {self.page_size}"
            )
        self._file.seek(self._data_offset(page_id))
        self._file.write(data)
        self._file.flush()
        self._phys_size = max(self._phys_size,
                              self._data_offset(page_id) + self.page_size)

    # -- commit / teardown ----------------------------------------------------

    def _commit_superblock(self) -> None:
        if not self._durable:
            return
        self._seq += 1
        sb = Superblock(page_size=self.page_size, flags=self._flags(),
                        seq=self._seq, page_count=self._count,
                        tree=self._tree_meta)
        offset = sb.slot * self.page_size
        self._file.seek(offset)
        self._physical_write(self._file, sb.encode())
        self._file.flush()
        self._phys_size = max(self._phys_size, offset + self.page_size)

    def flush(self) -> None:
        """Make every committed page durable: trim the batch extension,
        fsync the data (and the previous superblock commit with it), then
        shadow-write the superblock."""
        self._ensure_open()
        exact = self._data_offset(self._count)
        if self._phys_size != exact:
            self._file.truncate(exact)
            self._phys_size = exact
        self._file.flush()
        os.fsync(self._file.fileno())
        self._commit_superblock()

    def close(self, *, flush: bool = True) -> None:
        """Close the store; ``flush=False`` skips the final superblock
        commit so read-only passes (``fsck`` on a clean file) leave the
        bytes on disk exactly as they found them."""
        if self._closed:
            return
        if self._crashed:
            # A simulated crash leaves the file exactly as the torn write
            # left it: close handles without flushing anything.
            self._closed = True
            try:
                self._file.close()
            except OSError:  # pragma: no cover
                pass
            return
        try:
            if flush:
                self.flush()
        finally:
            self._closed = True
            self._file.close()

    def _ensure_open(self) -> None:
        if self._crashed:
            raise StoreError(f"{self._path} hit a simulated crash")
        if self._closed:
            raise StoreError(f"{self._path} is closed")


def _find_superblock(path: str) -> Superblock:
    """Locate and decode the newest valid superblock slot of ``path``
    without knowing the page size in advance."""
    with open(path, "rb") as f:
        head = f.read(64)
        if not looks_like_superblock(head):
            raise StoreError(
                f"{path}: no superblock — not a durable page store (open "
                f"with FilePageStore(path, page_size) instead)"
            )
        size = os.fstat(f.fileno()).st_size
        candidates: list[Superblock] = []
        first_error: Exception | None = None
        try:
            f.seek(0)
            sb0 = Superblock.decode(f.read(4096), source=path)
            candidates.append(sb0)
        except SuperblockError as exc:
            first_error = exc
            sb0 = None
        # The sibling slot lives at offset page_size; trust slot 0's own
        # claim when it decoded, otherwise probe the standard alignments.
        probe_sizes = ([sb0.page_size] if sb0 is not None
                       else [512, 1024, 2048, 4096, 8192, 16384, 32768])
        for page_size in probe_sizes:
            if page_size >= size:
                continue
            f.seek(page_size)
            try:
                candidates.append(
                    Superblock.decode(f.read(4096), source=path)
                )
            except SuperblockError:
                continue
    if not candidates:
        raise SuperblockError(
            f"{path}: superblock slots are all corrupt ({first_error})"
        )
    return max(candidates, key=lambda sb: sb.seq)
