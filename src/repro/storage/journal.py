"""Double-write journal: torn-write-proof page updates.

A torn write — a crash that leaves only a prefix of a page on disk — is
the one failure a per-page checksum can detect but not repair.  The fix is
the classic double-write protocol (InnoDB's doublewrite buffer, Postgres
full-page writes): before a page image is written in place, the *complete*
image is appended to a side journal together with its checksum.  Only then
does the in-place write start.  On reopen after a crash:

* a record that is fully present and passes its CRC is **replayed** — the
  in-place write it guarded may have been torn, and rewriting the journaled
  image makes the page whole again (replay is idempotent);
* a truncated or CRC-failing record marks the crash point *inside the
  journal append itself* — the guarded in-place write never started, so
  the record and everything after it is **discarded**.

The journal is truncated back to its header at every checkpoint (flush /
clean close), so steady-state cost is one extra sequential write per page
update.

The header's version field is the checksum version of every record in
the file (see :mod:`repro.storage.integrity`).  A new journal is written
at the current version; an existing one keeps its version — its records
are verified, and further appends stamped, with that version's checksum
— until a checkpoint rewrites the header at the current version.
"""

from __future__ import annotations

import os
import struct
from typing import BinaryIO, Callable, Iterator

from .integrity import (
    CHECKSUM_VERSION,
    CHECKSUM_VERSIONS,
    checksum,
    unsupported_version,
)

__all__ = ["JournalError", "WriteJournal", "journal_path",
           "journal_has_records"]

_FILE_MAGIC = 0x4C4E4A52   # "RJNL" little-endian
_RECORD_MAGIC = 0x43524A52  # "RJRC" little-endian
_FILE_HEADER = struct.Struct("<IHHI")   # magic, version, reserved, page_size
_RECORD_HEADER = struct.Struct("<IqI")  # magic, page_id, payload crc


class JournalError(RuntimeError):
    """The journal file itself is unusable (bad header, wrong page size)."""


def journal_path(store_path: str | os.PathLike) -> str:
    """The journal sidecar for a page-store file."""
    return os.fspath(store_path) + ".journal"


def journal_has_records(path: str | os.PathLike) -> bool:
    """Does the journal at ``path`` hold unreplayed (or torn) records?

    ``False`` for a missing or checkpointed (header-only) journal.
    Read-only openers (:class:`~repro.storage.mmap_store.MmapPageStore`)
    use this to refuse files that still need write-side recovery.
    """
    try:
        size = os.path.getsize(os.fspath(path))
    except OSError:
        return False
    return size > _FILE_HEADER.size


class WriteJournal:
    """Append-only intent log of full page images.

    ``write_fn`` is the store's physical-write hook: every byte string
    headed for the file goes through ``write_fn(file, data)``, which is how
    the simulated-crash plans tear or abort journal appends (see
    :class:`~repro.storage.faults.CrashPlan`).
    """

    def __init__(self, path: str | os.PathLike, page_size: int, *,
                 sync: bool = False,
                 write_fn: Callable[[BinaryIO, bytes], None] | None = None
                 ) -> None:
        self.path = os.fspath(path)
        self.page_size = page_size
        self.sync = sync
        self._write_fn = (write_fn if write_fn is not None
                          else lambda f, data: f.write(data))
        exists = os.path.exists(self.path)
        self._file = open(self.path, "r+b" if exists else "w+b")
        if exists and os.fstat(self._file.fileno()).st_size >= _FILE_HEADER.size:
            version = self._check_header()
        else:
            self._write_header()
            version = CHECKSUM_VERSION
        #: Checksum version of every record in the file.
        self.version = version
        self._file.seek(0, os.SEEK_END)

    def _write_header(self) -> None:
        self._file.seek(0)
        self._file.write(_FILE_HEADER.pack(_FILE_MAGIC, CHECKSUM_VERSION, 0,
                                           self.page_size))
        self._file.flush()

    def _check_header(self) -> int:
        self._file.seek(0)
        head = self._file.read(_FILE_HEADER.size)
        magic, version, _, page_size = _FILE_HEADER.unpack(head)
        if magic != _FILE_MAGIC:
            raise JournalError(f"{self.path}: not a page journal "
                               f"(magic 0x{magic:08x})")
        if version not in CHECKSUM_VERSIONS:
            raise JournalError(
                f"{self.path}: {unsupported_version('journal', version)}")
        if page_size != self.page_size:
            raise JournalError(
                f"{self.path}: journal page size {page_size} != "
                f"store page size {self.page_size}"
            )
        return int(version)

    # -- writing --------------------------------------------------------------

    def append(self, page_id: int, image: bytes) -> None:
        """Log the intent to write ``image`` (a full physical page) at
        ``page_id``; durable (per ``sync``) before this returns."""
        if len(image) != self.page_size:
            raise JournalError(
                f"journal record for page {page_id}: {len(image)} bytes, "
                f"page size is {self.page_size}"
            )
        record = _RECORD_HEADER.pack(
            _RECORD_MAGIC, page_id,
            checksum(image, version=self.version)) + image
        self._write_fn(self._file, record)
        self._file.flush()
        if self.sync:
            os.fsync(self._file.fileno())

    def checkpoint(self) -> None:
        """Drop all records: the guarded in-place writes are now durable.
        An older-version header is rewritten at the current version."""
        self._file.truncate(_FILE_HEADER.size)
        if self.version != CHECKSUM_VERSION:
            self._write_header()
            self.version = CHECKSUM_VERSION
        self._file.seek(_FILE_HEADER.size)
        self._file.flush()
        if self.sync:
            os.fsync(self._file.fileno())

    # -- recovery -------------------------------------------------------------

    def scan(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(page_id, image)`` for every intact record, in order.

        Stops silently at the first torn or corrupt record — by the
        double-write protocol that record's in-place write never began, so
        nothing after it can matter.
        """
        self._file.seek(_FILE_HEADER.size)
        while True:
            head = self._file.read(_RECORD_HEADER.size)
            if len(head) < _RECORD_HEADER.size:
                return
            magic, page_id, crc = _RECORD_HEADER.unpack(head)
            if magic != _RECORD_MAGIC:
                return
            image = self._file.read(self.page_size)
            if (len(image) < self.page_size
                    or checksum(image, version=self.version) != crc):
                return
            yield page_id, image
        # not reached

    @property
    def record_bytes(self) -> int:
        """Bytes of journal past the header (0 = checkpointed/empty)."""
        return max(0, os.fstat(self._file.fileno()).st_size
                   - _FILE_HEADER.size)

    def close(self) -> None:
        """Flush and release the journal file."""
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def abandon(self) -> None:
        """Close without flushing (simulated-crash path)."""
        if not self._file.closed:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - flush of a torn buffer
                pass
