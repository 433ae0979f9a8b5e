"""Legacy double-write journal sidecars: replayed, never written.

Earlier versions of :class:`~repro.storage.store.FilePageStore` could
journal every page write: before a page image was written in place, the
*complete* image was appended, CRC-protected, to a ``<file>.journal``
sidecar (the double-write protocol of InnoDB's doublewrite buffer and
Postgres full-page writes), and the superblock carried ``FLAG_JOURNAL``.
That protocol repairs exactly one failure: a torn in-place rewrite of a
committed page.  Every writer now packs a *fresh* file and publishes it
by superblock commit or generation-pointer rename, so no committed page
is rewritten in place and nothing writes a journal any more.

Files from before still carry the flag, and a crash could have left
their sidecar holding records.  Opening such a file for writing replays
it with this module:

* a record that is fully present and passes its CRC is **replayed** —
  the in-place write it guarded may have been torn, and rewriting the
  journaled image makes the page whole again (replay is idempotent);
* a truncated or CRC-failing record marks the crash point *inside the
  journal append itself* — the guarded in-place write never started, so
  the record and everything after it is **discarded**.

The header's version field is the checksum version of every record in
the file (see :mod:`repro.storage.integrity`).
"""

from __future__ import annotations

import os
import struct
from typing import Iterator

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
    """Read-only view of a legacy journal sidecar of full page images.

    Opening validates the header (magic, checksum version, page size);
    :meth:`scan` yields the intact records.  A sidecar shorter than its
    header was torn while being created and holds no records.
    """

    def __init__(self, path: str | os.PathLike, page_size: int) -> None:
        self.path = os.fspath(path)
        self.page_size = page_size
        self._file = open(self.path, "rb")
        try:
            #: Checksum version of every record in the file.
            self.version = self._check_header()
        except BaseException:
            self._file.close()
            raise

    def _check_header(self) -> int:
        head = self._file.read(_FILE_HEADER.size)
        if len(head) < _FILE_HEADER.size:
            return CHECKSUM_VERSION
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

    @property
    def record_bytes(self) -> int:
        """Bytes of journal past the header (0 = checkpointed/empty)."""
        return max(0, os.fstat(self._file.fileno()).st_size
                   - _FILE_HEADER.size)

    def close(self) -> None:
        """Release the journal file."""
        self._file.close()

    def __enter__(self) -> "WriteJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
