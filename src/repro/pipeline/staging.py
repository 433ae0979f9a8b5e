"""Staging directories and atomic file primitives for resumable builds.

Everything the parallel build pipeline persists before its final commit
lives in one *staging directory*: the staged input arrays, the shard
plan, per-shard leaf runs and done records, and heartbeat files.  The
rules that make a staging directory crash-safe are small and uniform:

* every durable file is written to a unique ``*.tmp-<pid>`` sibling,
  flushed, fsynced and published with ``os.replace`` by
  :func:`atomic_publish` — readers never observe a half-written file,
  and two writers racing on the same logical file (an orphaned worker
  from a killed orchestrator vs. its replacement) both publish complete
  images;
* published files are verified by content checksum before they are
  trusted on resume;
* the directory itself is context-managed: a *clean exception* removes
  it (no litter after a failed in-process build), while a hard kill
  leaves it behind for ``--resume`` to pick up.  Callers that want the
  directory to survive a specific failure (the orchestrator keeps it on
  :class:`~repro.pipeline.PoisonShard` so the healthy shards' work is
  not thrown away) call :meth:`StagingDir.keep` first.

:func:`atomic_publish` and :func:`publish_file` (for a file written
in place first, such as the tree ``repro build`` assembles beside its
target) are the only places in the package that rename a file: every
other writer publishes through them, and lint rule RL008 flags a rename
anywhere else.

This module also owns the *CRC'd JSON record*, the one format behind
``plan.json``, the shard done records, the ingest WAL's lines and its
generation pointer: a JSON object whose ``format`` tag names what it
is and its checksum version, and whose ``crc`` covers the rest.
:func:`stamp_record` makes one; :func:`parse_record` reads one back.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import IO, Any, Callable

from ..storage.integrity import (
    CHECKSUM_VERSION,
    IntegrityError,
    checksum,
    tag_version,
)

__all__ = [
    "StagingError",
    "StagingDir",
    "atomic_publish",
    "publish_file",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_save_npy",
    "file_checksum",
    "record_crc",
    "check_record_crc",
    "stamp_record",
    "parse_record",
]


class StagingError(RuntimeError):
    """Raised for unusable staging directories or corrupt staged files."""


def atomic_publish(path: str | os.PathLike,
                   write: Callable[[IO[bytes]], object]) -> str:
    """Publish what ``write(f)`` puts in a new file at ``path``,
    atomically: tmp, write, flush, fsync, rename.

    The temporary name carries the writer's pid so two processes
    publishing the same logical file never tear each other's buffers;
    ``os.replace`` makes the last complete image win.  The fsync is
    unconditional: a rename of still-buffered bytes can publish a torn
    file after a crash, which is exactly what RL008 proves cannot
    happen here.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "wb") as f:
        write(f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    return path


def publish_file(tmp: str | os.PathLike, path: str | os.PathLike) -> str:
    """Publish the finished, closed file ``tmp`` at ``path``: fsync it,
    then rename it over whatever ``path`` held.

    For a file another writer filled in place, such as the page store
    ``repro build`` assembles its tree in: a reader of ``path`` sees
    the old file or the new one, and a writer that fails before
    calling this leaves ``path`` untouched.
    """
    tmp, path = os.fspath(tmp), os.fspath(path)
    with open(tmp, "r+b") as f:
        os.fsync(f.fileno())
    os.replace(tmp, path)
    return path


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> str:
    """Atomically publish ``data`` at ``path``."""
    return atomic_publish(path, lambda f: f.write(data))


def atomic_write_json(path: str | os.PathLike, payload: dict) -> str:
    """Atomically publish ``payload`` as pretty-printed JSON."""
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    return atomic_write_bytes(path, data)


def atomic_save_npy(path: str | os.PathLike, array: Any) -> str:
    """Atomically publish a numpy array as a ``.npy`` file."""
    import numpy as np

    return atomic_publish(path, lambda f: np.save(f, array))


def file_checksum(path: str | os.PathLike, *, chunk_bytes: int = 1 << 20
                  ) -> tuple[int, int]:
    """``(checksum, size)`` of a file's full contents, at the current
    checksum version (staging is never resumed across versions)."""
    crc = 0
    size = 0
    with open(os.fspath(path), "rb") as f:
        while True:
            chunk = f.read(chunk_bytes)
            if not chunk:
                break
            crc = checksum(chunk, crc)
            size += len(chunk)
    return crc, size


def record_crc(record: dict) -> int:
    """Checksum over a JSON record's canonical form (its ``crc`` key, if
    present, is excluded — that is where this value goes), at the version
    its ``format`` tag names (the current version when it has none)."""
    body = {k: v for k, v in record.items() if k != "crc"}
    tag = record.get("format")
    version = tag_version(tag) if isinstance(tag, str) else CHECKSUM_VERSION
    return checksum(json.dumps(body, sort_keys=True,
                               separators=(",", ":")).encode(),
                    version=version)


def check_record_crc(record: dict) -> bool:
    """Does the record's embedded ``crc`` match its contents?  ``False``
    too when its format tag names a version this build cannot verify."""
    try:
        return isinstance(record.get("crc"), int) \
            and record["crc"] == record_crc(record)
    except IntegrityError:
        return False


def stamp_record(body: dict, tag: str) -> dict:
    """``body`` tagged ``format=tag`` and stamped with its ``crc``.

    Callers serialise the result with ``sort_keys=True``, so the key
    order here never reaches the bytes."""
    record = {k: v for k, v in body.items() if k != "crc"}
    record["format"] = tag
    record["crc"] = record_crc(record)
    return record


def parse_record(data: bytes | str, tags: tuple[str, ...], what: str,
                 error: type[Exception] = StagingError) -> dict:
    """Parse one stamped record and check it: a JSON object, tagged with
    one of ``tags``, whose ``crc`` matches.  Any failure raises
    ``error`` with a message that starts with ``what``."""
    try:
        record = json.loads(data)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise error(f"{what} is not JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise error(f"{what} is not a JSON object")
    tag = record.get("format")
    if tag not in tags:
        raise error(f"{what} has unsupported format {tag!r} (this build "
                    f"reads {', '.join(tags)})")
    if not check_record_crc(record):
        raise error(f"{what} fails its CRC")
    return record


class StagingDir:
    """A context-managed working directory for resumable pipelines.

    Parameters
    ----------
    path:
        Directory to create (parents included).  Reusing an existing
        directory is exactly how ``--resume`` works — the constructor
        never clears it.
    remove_on_error:
        Remove the directory when the ``with`` block exits on an
        exception (default).  A SIGKILL obviously skips this, which is
        the crash-survival property resume relies on.
    remove_on_success:
        Remove the directory on clean exit (default): a completed build
        has committed its output, so its scaffolding is garbage.
    """

    def __init__(self, path: str | os.PathLike, *,
                 remove_on_error: bool = True,
                 remove_on_success: bool = True):
        self.path = os.fspath(path)
        self.remove_on_error = remove_on_error
        self.remove_on_success = remove_on_success
        self._keep = False
        os.makedirs(self.path, exist_ok=True)
        if not os.path.isdir(self.path):  # pragma: no cover - race only
            raise StagingError(f"{self.path}: not a directory")

    def file(self, name: str) -> str:
        """Absolute path of ``name`` inside the staging directory."""
        return os.path.join(self.path, name)

    def exists(self, name: str) -> bool:
        """Does ``name`` exist inside the staging directory?"""
        return os.path.exists(self.file(name))

    def keep(self) -> None:
        """Survive the ``with`` exit regardless of outcome (resume will
        want this directory)."""
        self._keep = True

    def remove(self) -> None:
        """Delete the directory tree now (idempotent)."""
        shutil.rmtree(self.path, ignore_errors=True)

    def sweep_tmp(self) -> int:
        """Delete leftover ``*.tmp-*`` files (torn writes from a previous
        crashed process); returns how many were removed."""
        removed = 0
        for entry in os.listdir(self.path):
            if ".tmp-" in entry:
                try:
                    os.unlink(os.path.join(self.path, entry))
                    removed += 1
                except OSError:  # pragma: no cover - concurrent sweep
                    pass
        return removed

    def __enter__(self) -> "StagingDir":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None, tb: object) -> None:
        if self._keep:
            return
        if exc_type is None:
            if self.remove_on_success:
                self.remove()
        elif self.remove_on_error:
            self.remove()
