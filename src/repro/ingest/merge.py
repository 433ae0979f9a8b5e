"""Background merge: drain sealed WAL segments into a fresh packed
generation, resumable after SIGKILL at every write boundary.

The merge is a pure function of bytes already durable on disk — the
current packed generation plus the *sealed* WAL segments.  It never
reads the active segment, never appends to the WAL, and never consults
a clock or an RNG (the RL007 lint rule pins the first two, RL001 the
third), so re-running it after any crash reproduces the identical
output file byte for byte.

Recovery protocol, in write order:

1. The new generation is built at a deterministic path
   (``gen-<n>.rt``) through the same durable
   :class:`~repro.storage.store.FilePageStore` + ``commit_meta`` path
   as every other build; a leftover partial file from a killed attempt
   is deleted and rebuilt from scratch — restart-idempotent because
   nothing references the file until step 2.
2. The **commit point** is one atomic publication
   (:func:`~repro.pipeline.staging.atomic_write_bytes`) of the
   generation pointer (``generation.json``), which names the new file
   *and* the highest merged segment/LSN in a single CRC-stamped
   record.  Before the rename the old generation is current and every
   sealed segment is still pending; after it the new generation is
   current and those segments are logically gone.  There is no state
   in between, so an op is never lost and never applied twice: ops are
   last-writer-wins upserts and the pointer moves base and
   drained-segment set together.
3. Cleanup (deleting drained segments and superseded ``gen-*`` files)
   is best-effort after the commit; a crash here leaves garbage that
   the next open or merge sweeps, never wrong answers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from ..core.geometry import Rect, RectArray
from ..core.packing import SortTileRecursive
from ..obs import runtime as obs
from ..pipeline.staging import atomic_write_bytes, parse_record, \
    stamp_record
from ..rtree.bulk import bulk_load
from ..rtree.paged import PagedRTree
from ..storage.faults import CrashPlan
from ..storage.integrity import TRAILER_SIZE, format_tag, readable_tags
from ..storage.journal import journal_path
from ..storage.mmap_store import MmapPageStore
from ..storage.page import required_page_size
from ..storage.store import FilePageStore, SimulatedCrash
from .wal import IngestError, WalSegment, ingest_dir, segment_seq

__all__ = [
    "POINTER_FORMAT",
    "POINTER_NAME",
    "GenerationPointer",
    "MergeReport",
    "generation_path",
    "read_pointer",
    "resolve_current",
    "sweep_drained",
    "merge_segments",
]

#: Format tag of the generation pointer document.
POINTER_FORMAT = format_tag("repro-ingest-generation")
#: Pointer format tags this build reads (one per checksum version).
_POINTER_FORMATS = readable_tags("repro-ingest-generation")
#: Filename of the pointer inside the ingest directory.
POINTER_NAME = "generation.json"


@dataclass(frozen=True)
class GenerationPointer:
    """The committed ``(packed generation, drained WAL prefix)`` pair."""

    generation: int
    path: str
    merged_seq: int
    merged_lsn: int


@dataclass(frozen=True)
class MergeReport:
    """What one completed merge did."""

    generation: int
    path: str
    ops_applied: int
    segments_merged: int
    merged_seq: int
    merged_lsn: int
    size: int


def generation_path(dir_path: str, generation: int) -> str:
    """Deterministic on-disk name of packed generation ``generation``."""
    return os.path.join(dir_path, f"gen-{generation:06d}.rt")


def read_pointer(dir_path: str) -> GenerationPointer | None:
    """Load the committed generation pointer, or ``None`` when no merge
    has ever committed.  A present-but-damaged pointer raises
    :class:`~repro.ingest.wal.IngestError` — guessing a base would
    silently double- or un-apply ops."""
    path = os.path.join(dir_path, POINTER_NAME)
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise IngestError(f"{path}: unreadable generation pointer "
                          f"({exc})") from exc
    payload = parse_record(data, _POINTER_FORMATS,
                           f"{path}: generation pointer", IngestError)
    try:
        return GenerationPointer(
            generation=int(payload["generation"]),
            path=str(payload["path"]),
            merged_seq=int(payload["merged_seq"]),
            merged_lsn=int(payload["merged_lsn"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"{path}: malformed generation pointer "
                          f"({exc})") from exc


def _write_pointer(dir_path: str, pointer: GenerationPointer, *,
                   crash_plan: CrashPlan | None = None) -> None:
    """Atomically publish the pointer — the merge's commit point."""
    record = stamp_record({
        "generation": pointer.generation,
        "path": pointer.path,
        "merged_seq": pointer.merged_seq,
        "merged_lsn": pointer.merged_lsn,
    }, POINTER_FORMAT)
    data = (json.dumps(record, indent=2, sort_keys=True) + "\n").encode()
    path = os.path.join(dir_path, POINTER_NAME)
    if crash_plan is not None:
        landed, crash = crash_plan.next_write(data)
        if crash:
            # Model a kill mid-publication: the torn image lands on the
            # *temporary* sibling only — the rename never happens, so
            # the committed pointer is untouched.
            with open(f"{path}.tmp-{os.getpid()}", "wb") as f:
                f.write(landed)
            raise SimulatedCrash("simulated crash writing the "
                                 "generation pointer")
    atomic_write_bytes(path, data)


def resolve_current(tree_path: str | os.PathLike[str]
                    ) -> tuple[str, GenerationPointer | None]:
    """The packed file currently serving ``tree_path``'s logical set.

    Returns ``(path, pointer)`` — the original file when no merge has
    committed, otherwise the pointer's generation file.
    """
    tree_path = os.fspath(tree_path)
    pointer = read_pointer(ingest_dir(tree_path))
    if pointer is None:
        return tree_path, None
    if not os.path.exists(pointer.path):
        raise IngestError(
            f"generation pointer names missing file {pointer.path}")
    return pointer.path, pointer


def sweep_drained(tree_path: str | os.PathLike[str]) -> int:
    """Delete leftovers a crash-after-commit can strand: drained WAL
    segments, superseded generation files, and torn ``*.tmp-*``
    siblings.  Idempotent; returns how many files were removed."""
    tree_path = os.fspath(tree_path)
    dir_path = ingest_dir(tree_path)
    if not os.path.isdir(dir_path):
        return 0
    pointer = read_pointer(dir_path)
    current = pointer.path if pointer is not None else None
    removed = 0
    for name in os.listdir(dir_path):
        full = os.path.join(dir_path, name)
        seq = segment_seq(name)
        stale = False
        if seq is not None:
            stale = pointer is not None and seq <= pointer.merged_seq
        elif ".tmp-" in name:
            stale = True
        elif name.startswith("gen-"):
            stale = full != current
        if stale:
            try:
                os.unlink(full)
                removed += 1
            except OSError:
                # Cleanup is advisory; the next sweep retries.
                continue
    return removed


def _read_base(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                   int, int]:
    """The base generation's leaf records as ``(ids, los, his)`` arrays,
    concatenated in ``iter_level(0)`` order, plus its
    ``(ndim, capacity)``.  The base is being served: it is mapped
    read-only, so reading it never writes a byte of it."""
    store = MmapPageStore.open_existing(path)
    try:
        tree = PagedRTree.from_store(store)
        ids = [np.empty(0, dtype=np.int64)]
        los = [np.empty((0, tree.ndim))]
        his = [np.empty((0, tree.ndim))]
        for _, node in tree.iter_level(0):
            ids.append(node.children)
            los.append(node.rects.los)
            his.append(node.rects.his)
        return (np.concatenate(ids), np.concatenate(los),
                np.concatenate(his), tree.ndim, tree.capacity)
    finally:
        store.close()


def merge_segments(tree_path: str | os.PathLike[str], *,
                   crash_plan: CrashPlan | None = None
                   ) -> MergeReport | None:
    """Drain every sealed, unmerged WAL segment into a new packed
    generation, at the base generation's capacity, and commit the
    cutover.

    Returns ``None`` when there is nothing sealed to merge.  Safe to
    re-run after a kill at any point: either the pointer still names
    the old generation (the build restarts from the same sealed bytes)
    or it names the new one (the segments are already logically
    drained and only cleanup remains).
    """
    tree_path = os.fspath(tree_path)
    dir_path = ingest_dir(tree_path)
    base_path, pointer = resolve_current(tree_path)
    merged_seq = pointer.merged_seq if pointer is not None else 0
    generation = pointer.generation if pointer is not None else 1

    segments: list[WalSegment] = []
    if os.path.isdir(dir_path):
        found: list[tuple[int, str]] = []
        for name in os.listdir(dir_path):
            seq = segment_seq(name)
            if seq is not None and seq > merged_seq:
                found.append((seq, os.path.join(dir_path, name)))
        for _, seg_path in sorted(found):
            segment = WalSegment.load(seg_path)
            if segment.sealed:
                segments.append(segment)
            else:
                break  # the active segment (highest) is never consumed
    if not segments:
        sweep_drained(tree_path)
        return None

    with obs.span("ingest.merge", segments=len(segments)):
        ids, los, his, ndim, capacity = _read_base(base_path)
        # Last writer wins: each touched id's final rect, or None when
        # its final op deleted it.
        final: dict[int, Rect | None] = {}
        ops_applied = 0
        for segment in segments:
            for op in segment.ops:
                final[op.data_id] = op.rect if op.op == "insert" else None
                ops_applied += 1
        upserts = {i: r for i, r in final.items() if r is not None}
        keep = ~np.isin(ids, list(final))
        ids = np.concatenate([ids[keep],
                              np.array(list(upserts), dtype=np.int64)])
        # A sealed rect of another dimensionality fails the reshape.
        los = np.concatenate([los[keep], np.array(
            [r.lo for r in upserts.values()], dtype=np.float64
        ).reshape(len(upserts), ndim)])
        his = np.concatenate([his[keep], np.array(
            [r.hi for r in upserts.values()], dtype=np.float64
        ).reshape(len(upserts), ndim)])
        if not len(ids):
            raise IngestError(
                "merge would produce an empty tree; the packed format "
                "cannot represent zero records — keep at least one "
                "record or rebuild from scratch instead")
        # Id-ascending, one row per id; a base id stored twice keeps
        # its last copy in leaf order.
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        keep_last = np.append(ids[1:] != ids[:-1], True)
        ids = ids[keep_last]
        rects = RectArray(los[order[keep_last]], his[order[keep_last]],
                          copy=False)

        new_generation = generation + 1
        out_path = generation_path(dir_path, new_generation)
        # A killed previous attempt may have left a partial file (and,
        # from an older version, a journal sidecar); the rebuild is
        # deterministic, so delete and redo.
        for leftover in (out_path, journal_path(out_path)):
            try:
                os.unlink(leftover)
            except FileNotFoundError:
                pass
        page_size = required_page_size(capacity, ndim) + TRAILER_SIZE
        store = FilePageStore(out_path, page_size, checksums=True,
                              crash_plan=crash_plan)
        try:
            tree, _ = bulk_load(rects, SortTileRecursive(),
                                data_ids=ids, capacity=capacity,
                                store=store)
        finally:
            store.close()
        size = len(tree)

        last = segments[-1]
        new_pointer = GenerationPointer(
            generation=new_generation,
            path=out_path,
            merged_seq=last.seq,
            merged_lsn=last.last_lsn,
        )
        _write_pointer(dir_path, new_pointer, crash_plan=crash_plan)
        obs.inc("ingest.merges")
        obs.inc("ingest.merged_ops", ops_applied)

    sweep_drained(tree_path)
    return MergeReport(
        generation=new_generation,
        path=out_path,
        ops_applied=ops_applied,
        segments_merged=len(segments),
        merged_seq=last.seq,
        merged_lsn=last.last_lsn,
        size=size,
    )
