"""End-to-end run: ``repro build``, ``repro serve``, one closed-loop client.

The program runs as its users run it, from the checkout's ``src``: a
``repro build`` subprocess writes the tree, a ``repro serve`` subprocess
serves it, and this process drives it over at most two connections,
each sending its next request only after the previous answer arrived.
Tracing stays off in the server.  Answers are kept and checked against
the oracle after the timed window.
"""

from __future__ import annotations

import asyncio
import gc
import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from .hostspeed import HostSpeed
from .streams import DEADLINE_S, MERGES, WARMUP_WINDOW, Op, Stream

_SERVING = re.compile(r" on ([0-9.]+):(\d+) \(")
#: The measured window runs in this many chunks, with a host-speed
#: probe before each (see ``hostspeed``).
CHUNKS = 60
#: Longest response line the client accepts (a full-square ``search``
#: would be about 700 KB; the warm-up uses ``count`` instead).
_LINE_LIMIT = 1 << 24


class HarnessError(RuntimeError):
    """The program could not be built, started or driven at all."""


def child_env(src: str, tmp: str) -> dict[str, str]:
    """Environment of every program subprocess: the checkout's ``src``
    first on the path, no bytecode files, temp files inside the run dir."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                              else ""),
                PYTHONDONTWRITEBYTECODE="1", TMPDIR=tmp)


def repro(*args: str) -> list[str]:
    """Command line of one ``repro`` CLI invocation."""
    return [sys.executable, "-m", "repro", *args]


def build_tree(path: str, seed: int, env: dict, log: str) -> float:
    """``repro build`` at its defaults; returns wall seconds."""
    start = time.perf_counter()
    with open(log, "ab") as err:
        done = subprocess.run(repro("build", path, "--seed", str(seed),
                                    "--no-manifest"),
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=err, timeout=170)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise HarnessError(f"repro build exited {done.returncode}: "
                           f"{_tail(log)}")
    return elapsed


class Server:
    """One ``repro serve`` subprocess in its own process group."""

    def __init__(self, args: list[str], env: dict, log: str):
        self.args = args
        self.env = env
        self.log = log
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None

    def start(self, timeout_s: float = 120.0) -> float:
        """Spawn and block until the ``serving … on host:port`` line;
        returns seconds from spawn to that line."""
        start = time.perf_counter()
        with open(self.log, "ab") as err:
            self.proc = subprocess.Popen(
                repro("serve", *self.args), env=self.env,
                stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL,
                start_new_session=True)
        stdout = self.proc.stdout
        assert stdout is not None
        ready, _, _ = select.select([stdout], [], [], timeout_s)
        line = stdout.readline().decode() if ready else ""
        elapsed = time.perf_counter() - start
        match = _SERVING.search(line)
        if match is None:
            self.stop()
            raise HarnessError(f"repro serve did not start (stdout "
                               f"{line!r}): {_tail(self.log)}")
        self.address = (match.group(1), int(match.group(2)))
        return elapsed

    def stop(self) -> None:
        """SIGINT (the CLI's graceful shutdown), then SIGKILL the whole
        process group; returns once the server has been reaped and no
        member of its group (pool workers included) is left."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        # Orphaned workers are reaped by init; wait (bounded) until the
        # kernel has dropped every member of the group.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)


def _tail(path: str, limit: int = 2000) -> str:
    try:
        with open(path, "rb") as f:
            return f.read()[-limit:].decode(errors="replace")
    except OSError:
        return "(no log)"


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of VmHWM over ``pids`` in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def disk_bytes(tree_path: str) -> int:
    """Bytes of the tree file plus its sidecars (journal, ``.ingest/``)."""
    total = 0
    for path in (tree_path, tree_path + ".journal"):
        if os.path.exists(path):
            total += os.path.getsize(path)
    for root, _dirs, files in os.walk(tree_path + ".ingest"):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


# -- the client -------------------------------------------------------------


@dataclass
class Sample:
    """One answered request, as the client saw it."""

    ok: bool
    partial: bool
    ids: np.ndarray | None
    count: int | None
    data: dict | None
    elapsed_s: float | None
    nbytes: int
    t0: float
    t1: float

    @property
    def latency_s(self) -> float:
        return self.t1 - self.t0

    def answer(self) -> tuple:
        return (self.ok, self.partial, self.ids)


# No generated repr: on Python 3.11 ``asyncio.run`` formats its finished
# task, result included, when it removes its SIGINT hook, and a repr of
# every sample's id array costs seconds.
@dataclass(repr=False)
class Drive:
    """Everything the client recorded in one run."""

    warmup: list[Sample]
    warmup_s: float
    samples: list[Sample]
    window_s: float
    #: Host-speed probes taken through the window.
    speed: HostSpeed
    merges: list[Sample]
    stats: dict


async def _call(conn: tuple, req) -> Sample:
    from repro.serve.protocol import decode_response, encode_request

    reader, writer = conn
    line = encode_request(req)
    t0 = time.perf_counter()
    writer.write(line)
    await writer.drain()
    raw = await reader.readline()
    resp = decode_response(raw)
    t1 = time.perf_counter()
    ids = (np.asarray(resp.ids, dtype=np.int64) if resp.ids is not None
           else None)
    return Sample(resp.ok, bool(resp.partial), ids, resp.count, resp.data,
                  resp.elapsed_s, len(raw), t0, t1)


def wire(rect: tuple) -> list:
    """``((lo...), (hi...))`` -> the protocol's ``[[lo...], [hi...]]``."""
    return [list(rect[0]), list(rect[1])]


def request_for(op: Op, index: int):
    """The protocol request of one stream op."""
    from repro.serve.protocol import Request

    if op.kind == "delete":
        return Request(op="delete", id=index, data_id=op.data_id,
                       deadline_s=DEADLINE_S)
    return Request(op=op.kind, id=index, data_id=op.data_id,
                   rect=wire(op.rect), deadline_s=DEADLINE_S)


async def _close(conns: list) -> None:
    for _reader, writer in conns:
        writer.close()
        await writer.wait_closed()


def chunk_bounds(count: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` op ranges of the window's ``CHUNKS`` chunks."""
    edges = sorted({round(k * count / CHUNKS) for k in range(CHUNKS + 1)})
    return list(zip(edges, edges[1:]))


async def _drive(stream: Stream, host: str, port: int,
                 measure: bool) -> Drive:
    from repro.serve.protocol import Request

    t0 = time.perf_counter()
    conns = [await asyncio.open_connection(host, port, limit=_LINE_LIMIT)
             for _ in range(stream.connections)]
    # ingest_mixed's second connection only sends merges.
    query_conns = conns if not stream.merge_every else conns[:1]
    warmup = await asyncio.gather(*(
        _call(c, Request(op="count", rect=wire(WARMUP_WINDOW),
                         deadline_s=DEADLINE_S))
        for c in query_conns))
    warmup_s = time.perf_counter() - t0
    speed = HostSpeed()
    if not measure:
        await _close(conns)
        return Drive(list(warmup), warmup_s, [], 0.0, speed, [], {})

    ops = stream.ops
    samples: list[Sample | None] = [None] * len(ops)
    merges: list[Sample] = []
    triggers: asyncio.Queue = asyncio.Queue()
    cursor = 0
    acked = requested = 0

    async def reader_loop(conn: tuple, hi: int) -> None:
        nonlocal cursor
        while cursor < hi:
            i = cursor
            cursor += 1
            samples[i] = await _call(conn, request_for(ops[i], i + 1))

    async def ingest_loop(conn: tuple, lo: int, hi: int) -> None:
        nonlocal acked, requested
        for i in range(lo, hi):
            op = ops[i]
            sample = await _call(conn, request_for(op, i + 1))
            samples[i] = sample
            if op.kind != "search" and sample.ok:
                acked += 1
                if (acked % stream.merge_every == 0
                        and acked // stream.merge_every <= MERGES):
                    requested += 1
                    triggers.put_nowait(acked)

    async def merge_loop(conn: tuple) -> None:
        while await triggers.get() is not None:
            merges.append(await _call(conn, Request(op="merge")))

    gc.collect()
    gc.disable()
    merger = (asyncio.ensure_future(merge_loop(conns[1]))
              if stream.merge_every else None)
    try:
        # The window runs in chunks with a host-speed probe before each,
        # while nothing is in flight: no request, and no merge queued or
        # running (a merge keeps going through a pause, and could share
        # the probe's processor).  The pauses are not window time.
        window_s = 0.0
        for lo, hi in chunk_bounds(len(ops)):
            if requested == len(merges):
                speed.probe()
            start = time.perf_counter()
            if merger is not None:
                await ingest_loop(conns[0], lo, hi)
            else:
                await asyncio.gather(*(reader_loop(c, hi)
                                       for c in query_conns))
            window_s += time.perf_counter() - start
        if merger is not None:
            start = time.perf_counter()
            triggers.put_nowait(None)
            await merger
            window_s += time.perf_counter() - start
        speed.probe()
    finally:
        if merger is not None and not merger.done():
            merger.cancel()
        gc.enable()

    stats = (await _call(conns[0], Request(op="stats"))).data or {}
    await _close(conns)
    return Drive(list(warmup), warmup_s, samples, window_s, speed, merges,
                 stats)


def drive(stream: Stream, address: tuple[str, int],
          measure: bool = True) -> Drive:
    """Warm up, then (when ``measure``) run the measured stream
    closed-loop, probing the host between chunks, and ask for
    ``stats``."""
    return asyncio.run(_drive(stream, *address, measure))


def serve_args(workload: str, tree_path: str) -> list[str]:
    """``repro serve`` arguments of each workload (defaults otherwise)."""
    args = [tree_path, "--port", "0", "--no-manifest"]
    if workload == "read_pool":
        args += ["--workers", "2"]
    elif workload == "ingest_mixed":
        args += ["--ingest"]
    return args
