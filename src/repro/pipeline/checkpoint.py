"""Append-only checkpoint log for resumable parallel builds.

The orchestrator is the **single writer**: it appends one NDJSON record
per shard, and only after it has verified the shard's published run
files against the CRCs in the worker's ``done`` record.  Workers never
touch the log — they publish ``shard-*.done.json`` files and exit, so a
worker killed mid-write can at worst leave a ``*.tmp-<pid>`` sibling
that :meth:`~repro.pipeline.staging.StagingDir.sweep_tmp` clears.

Each line is a JSON object carrying its own checksum (over the canonical
form of the record minus the ``crc`` key).  On resume the log is read
line by line; a torn *tail* — the one partial line an append crushed by
SIGKILL can leave — is discarded silently, while corruption anywhere
*before* the tail means the file was damaged at rest and raises
:class:`CheckpointError` instead of silently dropping completed work.
"""

from __future__ import annotations

import json
import os

from ..storage.integrity import format_tag
from .staging import StagingError, check_record_crc, record_crc

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_NAME",
    "CheckpointError",
    "CheckpointLog",
]

CHECKPOINT_FORMAT = format_tag("repro-build-checkpoint")
CHECKPOINT_NAME = "checkpoint.ndjson"


class CheckpointError(StagingError):
    """Checkpoint log damaged somewhere other than its torn tail."""


class CheckpointLog:
    """One-writer append-only log of completed shards.

    ``records`` maps shard index to the latest verified record for that
    shard (appends are idempotent under retry: a shard re-completed
    after a crashed-before-fsync append simply wins with a newer line).
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self.records: dict[int, dict] = {}
        self.torn_tail = False
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            return
        lines = data.split(b"\n")
        # A complete append always ends with a newline, so the final
        # element is either empty (clean) or a torn tail (crash).
        body, tail = lines[:-1], lines[-1]
        for lineno, line in enumerate(body, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CheckpointError(
                    f"{self.path}:{lineno}: unparseable checkpoint record "
                    f"({exc})"
                ) from exc
            if record.get("format") != CHECKPOINT_FORMAT:
                raise CheckpointError(
                    f"{self.path}:{lineno}: unexpected record format "
                    f"{record.get('format')!r}"
                )
            if not check_record_crc(record):
                raise CheckpointError(
                    f"{self.path}:{lineno}: checkpoint record fails its CRC"
                )
            self.records[int(record["shard"])] = record
        if tail.strip():
            # Torn tail: the crash happened mid-append; that shard will
            # simply be re-run.  Tolerate a record that *parses* but
            # fails its CRC the same way — it is still just the tail.
            self.torn_tail = True

    def completed_shards(self) -> set[int]:
        """Shard indices with a verified completion record."""
        return set(self.records)

    def append(self, record: dict) -> dict:
        """Stamp, append and fsync one shard-completion record."""
        record = dict(record)
        record["format"] = CHECKPOINT_FORMAT
        record.pop("crc", None)
        record["crc"] = record_crc(record)
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        with open(self.path, "ab") as f:
            f.write(line.encode())
            f.flush()
            os.fsync(f.fileno())
        self.records[int(record["shard"])] = record
        return record
