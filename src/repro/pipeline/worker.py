"""Per-shard worker: order one STR slab, encode its leaf pages, publish.

A worker's universe is one top-level STR slab.  It memory-maps the
staged input, replays exactly the per-slab recursion the serial loader
would have run on the same records (stable sorts over the same float64
centers — bit-identical permutation), encodes full leaf pages with the
ordinary page codec, and publishes three files atomically:

* ``shard-NNNN.run.bin`` — the concatenated encoded leaf pages, in
  final page order;
* ``shard-NNNN.mbrs.npy`` — the per-page MBRs (``(pages, 2, ndim)``),
  so the orchestrator can pack upper levels without decoding runs;
* ``shard-NNNN.done.json`` — the CRC-carrying completion record (page
  and record counts, run-file CRCs, the plan fingerprint, and the
  worker's serialized :class:`~repro.obs.metrics.MetricsRegistry`).

The done record is published *last* and is the shard's only checkpoint:
the orchestrator (and any later resume) treats a shard as complete only
when the done record validates **and** the run files match its CRCs, so
a worker killed at any instant leaves either nothing or a fully
verifiable result.  Liveness is one heartbeat file per shard, touched
while the shard runs by the worker process's one daemon thread; a
worker that stops heartbeating past the deadline is terminated, and
its shard retried, by the supervisor.  A worker process
(:func:`_process_main`) lives for the whole build and runs the shards
it is handed one at a time.

Fault injection (for the crash tests and the CI kill matrix) is explicit
and typed: ``fault="crash"`` tears a half-written tmp file and calls
``os._exit``; ``fault="hang"`` silences the heartbeat and sleeps.  In
inline mode (``workers=0``) both raise :class:`InjectedWorkerFault`
instead, so in-process property tests can exercise the retry path
without killing the test runner.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from multiprocessing.connection import wait
from typing import Any

import numpy as np

from ..core.geometry import RectArray
from ..core.packing.base import leaf_group_sizes
from ..core.packing.str_ import SortTileRecursive
from ..obs.metrics import MetricsRegistry
from ..storage.integrity import format_tag
from ..storage.page import NodePage, encode_node
from .plan import load_staged_input
from .staging import (
    atomic_save_npy,
    atomic_write_bytes,
    atomic_write_json,
    file_checksum,
    stamp_record,
)

__all__ = [
    "DONE_FORMAT",
    "InjectedWorkerFault",
    "run_name",
    "mbrs_name",
    "done_name",
    "heartbeat_name",
    "error_name",
    "run_shard",
]

DONE_FORMAT = format_tag("repro-shard-done")


class InjectedWorkerFault(RuntimeError):
    """An injected fault fired in inline mode (test-only control flow)."""


def run_name(shard: int) -> str:
    """Staging filename of a shard's concatenated leaf pages."""
    return f"shard-{shard:04d}.run.bin"


def mbrs_name(shard: int) -> str:
    """Staging filename of a shard's per-page MBR array."""
    return f"shard-{shard:04d}.mbrs.npy"


def done_name(shard: int) -> str:
    """Staging filename of a shard's completion record."""
    return f"shard-{shard:04d}.done.json"


def heartbeat_name(shard: int) -> str:
    """Staging filename of a shard worker's liveness heartbeat."""
    return f"shard-{shard:04d}.heartbeat"


def error_name(shard: int) -> str:
    """Staging filename of a failed worker's traceback."""
    return f"shard-{shard:04d}.error.txt"


def _touch(path: str) -> None:
    with open(path, "a"):
        pass
    os.utime(path, None)


class _Heartbeat(threading.Thread):
    """Touches the running shard's heartbeat file on an interval; the
    supervisor watches its mtime.  A worker process starts one and
    points it at each shard's file in turn (at none between shards)."""

    def __init__(self, interval_s: float):
        super().__init__(name="shard-heartbeat", daemon=True)
        self.path: str | None = None
        self.interval_s = max(interval_s, 0.05)
        self._stop = threading.Event()

    def point_at(self, path: str | None) -> None:
        """Beat for ``path`` from now on (touched at once), or idle."""
        if path is not None:
            _touch(path)
        self.path = path

    def run(self) -> None:
        while not self._stop.wait(self.interval_s):
            path = self.path
            if path is None:
                continue
            try:
                _touch(path)
            except OSError:  # pragma: no cover - staging dir vanished
                continue

    def stop(self) -> None:
        self._stop.set()


def _fire_fault(fault: str | None, staging_path: str, shard: int,
                heartbeat: _Heartbeat | None, payload: bytes, *,
                inline: bool) -> None:
    if not fault:
        return
    if inline:
        raise InjectedWorkerFault(f"shard {shard}: injected {fault!r}")
    if fault == "crash":
        # Tear a half-written tmp alongside the real target, then die
        # without cleanup — exactly the litter sweep_tmp must clear.
        torn = os.path.join(staging_path,
                            f"{run_name(shard)}.tmp-{os.getpid()}")
        with open(torn, "wb") as f:
            f.write(payload[: max(1, len(payload) // 2)])
        os._exit(3)
    if fault == "hang":
        if heartbeat is not None:
            heartbeat.stop()
        time.sleep(3600.0)
    raise InjectedWorkerFault(f"shard {shard}: unknown fault {fault!r}")


def run_shard(
    staging_path: str,
    shard: int,
    start: int,
    stop: int,
    *,
    capacity: int,
    page_size: int,
    ndim: int,
    fingerprint: int,
    attempt: int = 0,
    heartbeat: _Heartbeat | None = None,
    fault: str | None = None,
    throttle_s: float = 0.0,
    inline: bool = False,
) -> dict:
    """Order, encode and publish one shard; returns the done record.

    A worker process passes its ``heartbeat`` thread, which beats for
    this shard until it returns; without one (inline mode) the shard's
    heartbeat file is touched once."""
    metrics = MetricsRegistry()
    beat_path = os.path.join(staging_path, heartbeat_name(shard))
    if heartbeat is None:
        _touch(beat_path)
    else:
        heartbeat.point_at(beat_path)
    try:
        los, his, ids, xorder = load_staged_input(staging_path)
        idx = np.asarray(xorder[start:stop], dtype=np.int64)

        t0 = time.perf_counter()
        slab_los = np.asarray(los[idx])
        slab_his = np.asarray(his[idx])
        # Same elementwise center computation as RectArray.centers() on
        # the full input — the recursion below therefore sees exactly
        # the float64 keys the serial loader sorted.
        centers = (slab_los + slab_his) / 2.0
        if ndim > 1:
            local = SortTileRecursive()._order_slab(
                centers, np.arange(len(idx), dtype=np.int64),
                dim=1, capacity=capacity,
            )
        else:
            local = np.arange(len(idx), dtype=np.int64)
        metrics.histogram("pipeline.shard.order_s").observe(
            time.perf_counter() - t0)

        ordered_rects = RectArray(slab_los[local], slab_his[local],
                                  copy=False)
        ordered_ids = np.asarray(ids[idx[local]], dtype=np.int64)

        t0 = time.perf_counter()
        sizes = leaf_group_sizes(len(ordered_rects), capacity)
        pages = bytearray()
        offset = 0
        for size in sizes:
            node = NodePage(
                level=0,
                children=ordered_ids[offset:offset + size],
                rects=ordered_rects[offset:offset + size],
            )
            pages += encode_node(node, page_size)
            offset += size
        mbrs = ordered_rects.group_mbrs(sizes)
        metrics.histogram("pipeline.shard.encode_s").observe(
            time.perf_counter() - t0)
        metrics.counter("pipeline.records").inc(len(ordered_rects))
        metrics.counter("pipeline.leaf_pages").inc(len(sizes))
        metrics.counter("pipeline.shards_completed").inc()

        if throttle_s > 0.0:
            # Deliberate slow-down so kill tests can aim SIGKILLs into a
            # known window between ordering and publication.
            time.sleep(throttle_s)
        _fire_fault(fault, staging_path, shard, heartbeat, bytes(pages),
                    inline=inline)

        run_path = atomic_write_bytes(
            os.path.join(staging_path, run_name(shard)), bytes(pages))
        mbrs_path = atomic_save_npy(
            os.path.join(staging_path, mbrs_name(shard)),
            np.stack([mbrs.los, mbrs.his], axis=1),
        )
        run_crc, run_bytes = file_checksum(run_path)
        mbrs_crc, mbrs_bytes = file_checksum(mbrs_path)
        record = stamp_record({
            "shard": shard,
            "attempt": attempt,
            "records": len(ordered_rects),
            "pages": len(sizes),
            "run_crc": run_crc,
            "run_bytes": run_bytes,
            "mbrs_crc": mbrs_crc,
            "mbrs_bytes": mbrs_bytes,
            "fingerprint": fingerprint,
            "metrics": metrics.to_jsonable(),
        }, DONE_FORMAT)
        # Published last: its existence asserts the run files above are
        # complete, and its CRCs let the supervisor prove it.
        atomic_write_json(os.path.join(staging_path, done_name(shard)),
                          record)
        return record
    finally:
        if heartbeat is not None:
            heartbeat.point_at(None)


def _process_main(tasks: Any, results: Any,
                  heartbeat_s: float = 1.0) -> None:
    """Subprocess entry point (module-level so ``spawn`` can pickle it).

    Runs one shard spec at a time as the orchestrator sends them down
    ``tasks`` and answers each finished shard with its number on
    ``results``; one heartbeat thread, beating every ``heartbeat_s``,
    serves all of them.  ``None`` ends the loop, and so does the
    orchestrator going away: the worker waits on the orchestrator's
    process sentinel beside the task pipe, because under ``fork`` it
    (and every younger sibling) inherits the orchestrator's end of that
    pipe, so EOF alone would never come.  A shard that raises leaves its
    traceback in the shard's error file and ends the process with exit
    code 1: the orchestrator charges that shard and starts a
    replacement.  An interrupt between shards ends the worker quietly.
    """
    orchestrator = multiprocessing.parent_process()
    assert orchestrator is not None
    heartbeat = _Heartbeat(heartbeat_s)
    heartbeat.start()
    try:
        while orchestrator.sentinel not in wait([tasks,
                                                 orchestrator.sentinel]):
            spec = tasks.recv()
            if spec is None:
                return
            try:
                run_shard(**spec, heartbeat=heartbeat)
            except BaseException:
                try:
                    atomic_write_bytes(
                        os.path.join(spec["staging_path"],
                                     error_name(spec["shard"])),
                        traceback.format_exc().encode(),
                    )
                except OSError:  # pragma: no cover - staging dir vanished
                    pass
                raise SystemExit(1)
            results.send(spec["shard"])
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # the orchestrator is gone, or the build was interrupted
    finally:
        heartbeat.stop()
        tasks.close()
        results.close()
