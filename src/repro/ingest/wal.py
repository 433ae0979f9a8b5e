"""Write-ahead log for the streaming-ingest path.

Every ``insert``/``delete`` the server acks is first appended — and
fsynced — to one of these logs, so an acked write survives any crash.
The format deliberately reuses the repo's two proven durability idioms:

* each record is one NDJSON line in the repo's CRC'd JSON record
  format (:func:`repro.pipeline.staging.stamp_record` and
  :func:`~repro.pipeline.staging.parse_record`), the same format as the
  build plan and its shard done records.  The record's ``format`` tag
  names the checksum version it was stamped with, so a segment written
  by an older build can gain current-version appends;
* on open, a *torn tail* — the one partial line a SIGKILL mid-append
  can leave — is silently discarded (it was never acked) and physically
  truncated away, while corruption anywhere **before** the tail means
  the file was damaged at rest and raises :class:`WalCorrupt` instead
  of silently dropping acknowledged writes.

The log is a directory (``<tree>.ingest/``) of numbered *segments*.
Appends go to the highest-numbered segment; a merge first *seals* the
active segment by appending a ``seal`` record (recording the op count
and final LSN, fsynced before any new segment is created), and then
consumes only sealed segments — the invariant "every segment except
the highest is sealed" is checked on open and by ``repro fsck``.

Determinism note: nothing in this module reads a clock or an RNG —
replaying the same segment bytes always reconstructs the same ops in
the same order, which is what makes the background merge reproducible
(and SIGKILL-resumable) from the sealed bytes alone.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from typing import BinaryIO, Iterator

from ..core.geometry import GeometryError, Rect
from ..pipeline.staging import parse_record, stamp_record
from ..storage.faults import CrashPlan
from ..storage.integrity import (
    CHECKSUM_VERSION,
    format_tag,
    readable_tags,
    tag_version,
)
from ..storage.store import SimulatedCrash

__all__ = [
    "WAL_FORMAT",
    "IngestError",
    "WalCorrupt",
    "WalOp",
    "WalSegment",
    "WriteAheadLog",
    "ingest_dir",
    "segment_name",
    "segment_seq",
]

#: Format tag stamped into every WAL record.
WAL_FORMAT = format_tag("repro-ingest-wal")
#: Format tags a WAL record may carry (one per readable checksum version).
_WAL_FORMATS = readable_tags("repro-ingest-wal")

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"

#: Ops a WAL record may carry (``seal`` is internal to the format).
_DATA_OPS = ("insert", "delete")


class IngestError(RuntimeError):
    """Base error for the streaming-ingest subsystem."""


class WalCorrupt(IngestError):
    """A WAL segment is damaged somewhere other than its torn tail —
    acknowledged writes may be missing, so nothing is silently dropped."""


def ingest_dir(tree_path: str | os.PathLike[str]) -> str:
    """The ingest sidecar directory for a tree file (``<path>.ingest``)."""
    return f"{os.fspath(tree_path)}.ingest"


def segment_name(seq: int) -> str:
    """Filename of WAL segment ``seq`` (1-based, zero-padded)."""
    return f"{_SEGMENT_PREFIX}{seq:08d}{_SEGMENT_SUFFIX}"


def segment_seq(name: str) -> int | None:
    """Parse a segment filename back to its sequence number."""
    if (not name.startswith(_SEGMENT_PREFIX)
            or not name.endswith(_SEGMENT_SUFFIX)):
        return None
    middle = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    if not middle.isdigit():
        return None
    return int(middle)


@dataclass(frozen=True)
class WalOp:
    """One logical write: an upsert of ``data_id`` to ``rect``, or a
    delete of ``data_id`` (``rect is None``).

    Semantics are *last-writer-wins by LSN* over unique integer ids:
    replaying a prefix twice reaches the same state as replaying it
    once, which is what makes merge recovery idempotent.
    """

    lsn: int
    op: str
    data_id: int
    rect: Rect | None

    def to_record(self) -> dict[str, object]:
        """The JSON body of this op (without format/crc stamps)."""
        record: dict[str, object] = {
            "lsn": self.lsn, "op": self.op, "id": self.data_id,
        }
        if self.rect is not None:
            record["rect"] = [list(self.rect.lo), list(self.rect.hi)]
        return record


def _op_from_record(record: dict[str, object], where: str) -> WalOp:
    op = record.get("op")
    if op not in _DATA_OPS:
        raise WalCorrupt(f"{where}: unknown WAL op {op!r}")
    lsn = record.get("lsn")
    data_id = record.get("id")
    if not isinstance(lsn, int) or isinstance(lsn, bool) or lsn < 1:
        raise WalCorrupt(f"{where}: bad lsn {lsn!r}")
    if not isinstance(data_id, int) or isinstance(data_id, bool):
        raise WalCorrupt(f"{where}: bad data id {data_id!r}")
    rect: Rect | None = None
    if op == "insert":
        wire = record.get("rect")
        if (not isinstance(wire, list) or len(wire) != 2
                or not all(isinstance(side, list) for side in wire)):
            raise WalCorrupt(f"{where}: insert without a valid rect")
        try:
            rect = Rect(tuple(float(x) for x in wire[0]),
                        tuple(float(x) for x in wire[1]))
        except (TypeError, ValueError, GeometryError) as exc:
            raise WalCorrupt(f"{where}: malformed rect: {exc}") from exc
    return WalOp(lsn=int(lsn), op=str(op), data_id=int(data_id), rect=rect)


class WalSegment:
    """One parsed WAL segment file.

    ``sealed`` means a verified seal record closes the segment (its op
    count and final LSN were checked against the records before it).
    ``torn`` means a partial final line was discarded — only legal on
    the unsealed (active) segment.  ``valid_bytes`` is the offset just
    past the last intact record, i.e. where a writer must truncate
    before appending again.  ``versions`` counts intact records (seal
    included) per checksum version.
    """

    __slots__ = ("path", "seq", "ops", "sealed", "torn", "valid_bytes",
                 "size_bytes", "versions")

    def __init__(self, path: str, seq: int, ops: list[WalOp], *,
                 sealed: bool, torn: bool, valid_bytes: int,
                 size_bytes: int, versions: Counter[int] | None = None):
        self.path = path
        self.seq = seq
        self.ops = ops
        self.sealed = sealed
        self.torn = torn
        self.valid_bytes = valid_bytes
        self.size_bytes = size_bytes
        self.versions: Counter[int] = (
            versions if versions is not None else Counter())

    @property
    def last_lsn(self) -> int:
        """LSN of the final op (0 for an empty segment)."""
        return self.ops[-1].lsn if self.ops else 0

    def _appended(self, line: bytes) -> None:
        """Account one record this build appended to the file."""
        self.size_bytes += len(line)
        self.valid_bytes = self.size_bytes
        self.versions[CHECKSUM_VERSION] += 1

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "WalSegment":
        """Parse one segment file; raises :class:`WalCorrupt` for any
        damage that is not a discardable torn tail."""
        path = os.fspath(path)
        seq = segment_seq(os.path.basename(path))
        if seq is None:
            raise WalCorrupt(f"{path}: not a WAL segment filename")
        with open(path, "rb") as f:
            data = f.read()
        lines = data.split(b"\n")
        body, tail = lines[:-1], lines[-1]

        ops: list[WalOp] = []
        versions: Counter[int] = Counter()
        sealed = False
        offset = 0
        for lineno, line in enumerate(body, 1):
            where = f"{path}:{lineno}"
            if not line.strip():
                offset += len(line) + 1
                continue
            if sealed:
                raise WalCorrupt(f"{where}: record after the seal — a "
                                 f"sealed segment must never grow")
            record = parse_record(line, _WAL_FORMATS,
                                  f"{where}: WAL record", WalCorrupt)
            versions[tag_version(record["format"])] += 1
            if record.get("op") == "seal":
                count = record.get("count")
                last = record.get("last_lsn")
                if count != len(ops) or last != (
                        ops[-1].lsn if ops else 0):
                    raise WalCorrupt(
                        f"{where}: seal record claims {count} op(s) "
                        f"ending at lsn {last}, segment holds "
                        f"{len(ops)} ending at "
                        f"{ops[-1].lsn if ops else 0}")
                sealed = True
            else:
                op = _op_from_record(record, where)
                if ops and op.lsn <= ops[-1].lsn:
                    raise WalCorrupt(
                        f"{where}: lsn {op.lsn} not after {ops[-1].lsn}")
                ops.append(op)
            offset += len(line) + 1

        torn = bool(tail.strip())
        if torn and sealed:
            raise WalCorrupt(
                f"{path}: trailing bytes after the seal record")
        return cls(path, seq, ops, sealed=sealed, torn=torn,
                   valid_bytes=offset, size_bytes=len(data),
                   versions=versions)


def _encode_record(body: dict[str, object]) -> bytes:
    return (json.dumps(stamp_record(body, WAL_FORMAT), sort_keys=True,
                       separators=(",", ":")) + "\n").encode()


class WriteAheadLog:
    """Appender/reader over the segment directory.

    Parameters
    ----------
    dir_path:
        The ingest sidecar directory (created if absent).
    start_after_seq:
        Segments with ``seq <= start_after_seq`` were already merged
        into the current packed generation; they are ignored (and may
        be deleted by the caller's cleanup sweep).
    min_lsn:
        LSNs already consumed by merged generations; newly assigned
        LSNs always exceed both this and anything found on disk.
    crash_plan:
        Optional :class:`~repro.storage.faults.CrashPlan` applied to
        every physical append (testing only) — the kill-at-every-write
        matrix runs through this exactly like the page store's.
    """

    def __init__(self, dir_path: str | os.PathLike[str], *,
                 start_after_seq: int = 0, min_lsn: int = 0,
                 crash_plan: CrashPlan | None = None):
        self.dir_path = os.fspath(dir_path)
        self._crash_plan = crash_plan
        self._crashed = False
        self._file: BinaryIO | None = None
        os.makedirs(self.dir_path, exist_ok=True)

        self.segments: list[WalSegment] = []
        seqs: list[tuple[int, str]] = []
        for name in os.listdir(self.dir_path):
            seq = segment_seq(name)
            if seq is not None and seq > start_after_seq:
                seqs.append((seq, os.path.join(self.dir_path, name)))
        for seq, path in sorted(seqs):
            self.segments.append(WalSegment.load(path))
        for segment in self.segments[:-1]:
            if not segment.sealed:
                raise WalCorrupt(
                    f"{segment.path}: unsealed segment below the active "
                    f"one — the seal protocol was violated")

        self._last_lsn = max(
            [min_lsn] + [s.last_lsn for s in self.segments])
        if self.segments and not self.segments[-1].sealed:
            active = self.segments[-1]
            if active.torn:
                # The torn bytes were never acked; cut them off so the
                # next append starts on a clean line boundary.
                with open(active.path, "r+b") as f:
                    f.truncate(active.valid_bytes)
                    f.flush()
                    os.fsync(f.fileno())
                active.size_bytes = active.valid_bytes
                active.torn = False
            self._next_seq = active.seq + 1
        else:
            self._next_seq = (self.segments[-1].seq + 1 if self.segments
                              else start_after_seq + 1)

    # -- accessors ---------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """Highest LSN assigned (acked) so far."""
        return self._last_lsn

    @property
    def active_segment(self) -> WalSegment | None:
        """The unsealed segment appends go to, if one exists."""
        if self.segments and not self.segments[-1].sealed:
            return self.segments[-1]
        return None

    @property
    def pending_bytes(self) -> int:
        """Bytes across all unmerged segments (backpressure signal)."""
        return sum(s.size_bytes for s in self.segments)

    @property
    def pending_ops(self) -> int:
        """Ops across all unmerged segments."""
        return sum(len(s.ops) for s in self.segments)

    def sealed_segments(self) -> list[WalSegment]:
        """Sealed, unmerged segments in sequence order."""
        return [s for s in self.segments if s.sealed]

    def iter_ops(self) -> Iterator[WalOp]:
        """Every unmerged op across all segments, in LSN order."""
        for segment in self.segments:
            yield from segment.ops

    # -- appending ---------------------------------------------------------

    def _physical_append(self, f: BinaryIO, line: bytes) -> None:
        """One fsynced append, optionally crashed by the test plan."""
        crash = False
        if self._crash_plan is not None:
            line, crash = self._crash_plan.next_write(line)
        f.write(line)
        f.flush()
        os.fsync(f.fileno())
        if crash:
            self._crashed = True
            raise SimulatedCrash(
                f"simulated crash after WAL write "
                f"{self._crash_plan.writes_seen if self._crash_plan else 0}")

    def _active_file(self) -> BinaryIO:
        if self._file is not None:
            return self._file
        active = self.active_segment
        if active is None:
            path = os.path.join(self.dir_path,
                                segment_name(self._next_seq))
            active = WalSegment(path, self._next_seq, [], sealed=False,
                                torn=False, valid_bytes=0, size_bytes=0)
            self._next_seq += 1
            self.segments.append(active)
        self._file = open(active.path, "ab")
        return self._file

    def _check_usable(self) -> None:
        if self._crashed:
            raise IngestError(
                "write-ahead log crashed; reopen it before appending")

    def append(self, op: str, data_id: int, rect: Rect | None) -> WalOp:
        """Append one op, fsync it, and return it with its LSN.

        When this returns, the op is durable — this is the server's
        ack point.  A raised exception means the op was *not* acked
        (at worst it left a torn tail the next open discards).
        """
        self._check_usable()
        if op not in _DATA_OPS:
            raise IngestError(f"unknown WAL op {op!r}")
        if op == "insert" and rect is None:
            raise IngestError("insert needs a rect")
        if op == "delete":
            rect = None
        walop = WalOp(lsn=self._last_lsn + 1, op=op,
                      data_id=int(data_id), rect=rect)
        line = _encode_record(walop.to_record())
        f = self._active_file()
        self._physical_append(f, line)
        active = self.segments[-1]
        active.ops.append(walop)
        active._appended(line)
        self._last_lsn = walop.lsn
        return walop

    def seal_active(self) -> WalSegment | None:
        """Seal the active segment (fsynced) so a merge may consume it.

        Returns the sealed segment, or ``None`` when there is nothing
        to seal.  The seal record lands *before* any new segment file
        exists, which is what keeps "only the highest segment may be
        unsealed" an on-disk invariant.
        """
        self._check_usable()
        active = self.active_segment
        if active is None or not active.ops:
            return None
        line = _encode_record({
            "op": "seal", "count": len(active.ops),
            "last_lsn": active.last_lsn,
        })
        f = self._active_file()
        try:
            self._physical_append(f, line)
        finally:
            if self._crashed and self._file is not None:
                self._file.close()
                self._file = None
        active._appended(line)
        active.sealed = True
        f.close()
        self._file = None
        return active

    # -- merge bookkeeping -------------------------------------------------

    def forget_through(self, seq: int) -> int:
        """Drop (and delete) segments with ``seq <=`` the given value —
        they were merged into a committed generation.  Idempotent."""
        dropped = 0
        kept: list[WalSegment] = []
        for segment in self.segments:
            if segment.seq <= seq:
                try:
                    os.unlink(segment.path)
                except FileNotFoundError:
                    pass
                dropped += 1
            else:
                kept.append(segment)
        self.segments = kept
        return dropped

    def close(self) -> None:
        """Release the active segment's file handle."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
