"""Shard planning for the parallel STR bulk load.

STR's top level is embarrassingly parallel *by construction*: the paper
sorts all rectangles by the first center coordinate and cuts the sorted
sequence into ``S = ceil(P ** (1/k))`` consecutive slabs, each of which
is then ordered completely independently of the others (the recursion
never looks across a slab boundary).  The plan exploits exactly that
cut:

* one **shard = one top-level slab**, so the shard set is a function of
  the input alone — never of the worker count — which is what makes a
  2-worker and a 7-worker build byte-identical;
* every slab except possibly the last holds a whole number of leaf
  pages (slab width is ``n * ceil(P^((k-1)/k))``, a multiple of ``n``),
  so workers can encode finished leaf pages without ever sharing a page
  with a neighbour;
* the orchestrator computes only the cheap part (one stable argsort by
  center-x) and ships slab boundaries; workers do the per-slab
  recursive ordering and leaf encoding.

The plan is persisted to ``plan.json`` (CRC-covered, atomic) alongside
the staged input arrays, and re-verified on ``--resume``: a resumed
build against different data, capacity or page size is a
:class:`ResumeMismatch`, never a silently mixed tree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..core.geometry import GeometryError, RectArray
from ..core.packing.str_ import str_slab_sizes
from ..storage.integrity import checksum, format_tag
from .staging import (
    StagingDir,
    StagingError,
    atomic_save_npy,
    atomic_write_json,
    file_checksum,
    parse_record,
    stamp_record,
)

__all__ = [
    "PLAN_FORMAT",
    "ResumeMismatch",
    "BuildPlan",
    "make_plan",
    "write_plan",
    "load_plan",
    "stage_input",
    "load_staged_input",
]

PLAN_FORMAT = format_tag("repro-build-plan")

#: Staged input array files (all published atomically, CRC-recorded in
#: the plan).  ``xorder`` is the global stable argsort by center-x that
#: defines every shard's slab.
INPUT_LO = "input.lo.npy"
INPUT_HI = "input.hi.npy"
INPUT_IDS = "input.ids.npy"
INPUT_XORDER = "input.xorder.npy"
INPUT_FILES = (INPUT_LO, INPUT_HI, INPUT_IDS, INPUT_XORDER)


class ResumeMismatch(RuntimeError):
    """A ``--resume`` found staging state for a *different* build (other
    data, capacity, page size, or a corrupt plan/input file)."""


@dataclass(frozen=True)
class BuildPlan:
    """Everything a build (or its resume) must agree on."""

    count: int
    ndim: int
    capacity: int
    page_size: int
    #: Checksum binding the plan to the exact input (coords + ids).
    fingerprint: int
    #: Top-level STR slab sizes, in slab order; one shard per slab.
    slab_sizes: tuple[int, ...]

    @property
    def shard_count(self) -> int:
        return len(self.slab_sizes)

    def shard_ranges(self) -> list[tuple[int, int]]:
        """``[start, stop)`` offsets of each shard in x-sorted order."""
        ranges = []
        offset = 0
        for size in self.slab_sizes:
            ranges.append((offset, offset + size))
            offset += size
        return ranges

    def shard_pages(self, shard: int) -> int:
        """Leaf pages shard ``shard`` will produce."""
        size = self.slab_sizes[shard]
        return -(-size // self.capacity)

    @property
    def leaf_pages(self) -> int:
        return sum(self.shard_pages(s) for s in range(self.shard_count))

    def as_dict(self) -> dict:
        """JSON-able form (the body of ``plan.json``)."""
        return {
            "format": PLAN_FORMAT,
            "count": self.count,
            "ndim": self.ndim,
            "capacity": self.capacity,
            "page_size": self.page_size,
            "fingerprint": self.fingerprint,
            "slab_sizes": list(self.slab_sizes),
        }


def input_fingerprint(rects: RectArray, ids: np.ndarray, *,
                      capacity: int, page_size: int) -> int:
    """Checksum binding coordinates, ids and build parameters together."""
    header = (f"{len(rects)}:{rects.ndim}:{capacity}:{page_size}"
              .encode("ascii"))
    crc = checksum(header)
    crc = checksum(np.ascontiguousarray(rects.los).tobytes(), crc)
    crc = checksum(np.ascontiguousarray(rects.his).tobytes(), crc)
    return checksum(np.ascontiguousarray(ids, dtype=np.int64).tobytes(), crc)


def make_plan(rects: RectArray, ids: np.ndarray, *, capacity: int,
              page_size: int) -> BuildPlan:
    """Derive the shard plan for one input (pure; no files touched)."""
    if len(rects) == 0:
        raise GeometryError("cannot plan a build over zero rectangles")
    sizes = (str_slab_sizes(len(rects), capacity, rects.ndim)
             if rects.ndim > 1 else [len(rects)])
    return BuildPlan(
        count=len(rects),
        ndim=rects.ndim,
        capacity=capacity,
        page_size=page_size,
        fingerprint=input_fingerprint(rects, ids, capacity=capacity,
                                      page_size=page_size),
        slab_sizes=tuple(int(s) for s in sizes),
    )


def stage_input(staging: StagingDir, plan: BuildPlan, rects: RectArray,
                ids: np.ndarray, xorder: np.ndarray) -> dict:
    """Publish the input arrays into the staging dir; returns the CRC
    table recorded in ``plan.json`` (``{name: {"crc", "bytes"}}``)."""
    arrays = {
        INPUT_LO: np.ascontiguousarray(rects.los),
        INPUT_HI: np.ascontiguousarray(rects.his),
        INPUT_IDS: np.ascontiguousarray(ids, dtype=np.int64),
        INPUT_XORDER: np.ascontiguousarray(xorder, dtype=np.int64),
    }
    table = {}
    for name, array in arrays.items():
        path = staging.file(name)
        atomic_save_npy(path, array)
        crc, size = file_checksum(path)
        table[name] = {"crc": crc, "bytes": size}
    return table


def write_plan(staging: StagingDir, plan: BuildPlan,
               inputs: dict) -> str:
    """Atomically publish ``plan.json`` (CRC-covered)."""
    record = plan.as_dict()
    record["inputs"] = inputs
    return atomic_write_json(staging.file("plan.json"),
                             stamp_record(record, PLAN_FORMAT))


def load_plan(staging: StagingDir, *, verify_inputs: bool = True
              ) -> BuildPlan:
    """Reload and verify a staged plan (for ``--resume``).

    Checks the plan record's CRC and, when ``verify_inputs``, re-CRCs
    every staged input file against the table the plan recorded —
    a torn or substituted input is a :class:`ResumeMismatch`.
    """
    path = staging.file("plan.json")
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise ResumeMismatch(f"{path}: unreadable plan ({exc})") from exc
    # Only the current tag: a plan from another checksum version means
    # rebuilding the staging, never re-verifying it under an older one.
    record = parse_record(data, (PLAN_FORMAT,), f"{path}: plan record",
                          ResumeMismatch)
    plan = BuildPlan(
        count=int(record["count"]),
        ndim=int(record["ndim"]),
        capacity=int(record["capacity"]),
        page_size=int(record["page_size"]),
        fingerprint=int(record["fingerprint"]),
        slab_sizes=tuple(int(s) for s in record["slab_sizes"]),
    )
    if verify_inputs:
        inputs = record.get("inputs", {})
        for name in INPUT_FILES:
            entry = inputs.get(name)
            if entry is None:
                raise ResumeMismatch(f"{path}: plan lists no CRC for {name}")
            target = staging.file(name)
            if not os.path.exists(target):
                raise ResumeMismatch(f"{target}: staged input missing")
            crc, size = file_checksum(target)
            if crc != entry["crc"] or size != entry["bytes"]:
                raise ResumeMismatch(
                    f"{target}: staged input does not match the plan "
                    f"(crc 0x{crc:08x} vs 0x{entry['crc']:08x})"
                )
    return plan


def load_staged_input(staging: StagingDir | str
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
    """Memory-map the staged ``(los, his, ids, xorder)`` arrays.

    Workers call this instead of receiving arrays over the process
    boundary: the staged files are the single source of truth, shared
    read-only by every worker and every resume.
    """
    base = staging.path if isinstance(staging, StagingDir) else staging
    out = []
    for name in INPUT_FILES:
        path = os.path.join(base, name)
        try:
            out.append(np.load(path, mmap_mode="r"))
        except (OSError, ValueError) as exc:
            raise StagingError(f"{path}: cannot map staged input "
                               f"({exc})") from exc
    return tuple(out)
