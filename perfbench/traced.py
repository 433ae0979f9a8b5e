"""Traced run: the same seeded stream replayed in-process, layer by layer.

Nothing under ``src/`` changes for this.  The program's own ``obs``
spans (``query.*``, ``pipeline.*``, ``ingest.merge``) are switched on,
and the benchmark adds spans around the public entry point of each
layer it calls or wraps: ``QueryServer.handle_request``, the protocol
codec, ``WorkerPool.execute``, ``IngestState.append``/``apply``,
``OverlaySearcher.search_detailed`` and ``repro.fsck.fsck``.  Count
probes read ``SearchResult.nodes_visited`` and the searcher's
``IOStats`` around every ``PagedSearcher.search_detailed`` call.

Two servers, each over its own copy of a tree built in-process by
``parallel_bulk_load`` (the ``pipeline.*`` metrics come from that
build), replay the stream in lockstep: each op runs untraced on one and
traced on the other.  The ratio of their serve-path times is
``obs.trace_overhead_frac``.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import os
import shutil
import statistics
import time
from typing import Any, Callable, Iterator

import numpy as np

from . import oracle
from .e2e import request_for, wire
from .streams import (DEADLINE_S, MERGES, WARMUP_WINDOW, Stream, dataset,
                      make_stream)


def wchar() -> int:
    """Bytes this process (and its reaped children) passed to write()."""
    with open("/proc/self/io") as f:
        for line in f:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


# -- span arithmetic ----------------------------------------------------------


def _ancestry(spans: list) -> Iterator[tuple[Any, list]]:
    """``(span, open ancestors)`` in start order (one shared span stack:
    the replay runs one call at a time)."""
    stack: list = []
    for s in sorted(spans, key=lambda s: s.index):
        while stack and stack[-1].depth >= s.depth:
            stack.pop()
        yield s, list(stack)
        stack.append(s)


def _inner_time(spans: list, outer: str, inner: str) -> dict[int, float]:
    """Per ``outer`` span index: summed duration of ``inner`` spans
    nested anywhere below it."""
    out: dict[int, float] = {}
    for s, ancestors in _ancestry(spans):
        if s.name == outer:
            out.setdefault(s.index, 0.0)
        elif s.name == inner:
            for a in ancestors:
                if a.name == outer:
                    out[a.index] = out.get(a.index, 0.0) + s.duration
    return out


def _within(spans: list, window) -> list:
    return [s for s in spans
            if s.start >= window.start and s.end <= window.end]


def _median_ms(values) -> float:
    return float(statistics.median(values)) * 1000.0


# -- probes -------------------------------------------------------------------


class Probe:
    """Counts the traced side of the replay records at layer boundaries
    (only while telemetry is on, so the untraced side adds nothing)."""

    def __init__(self) -> None:
        self.in_stream = False
        #: Per PagedSearcher.search_detailed call in the measured stream:
        #: (nodes_visited, disk_reads, buffer_hits, buffer_misses).
        self.searches: list[tuple[int, int, int, int]] = []
        self.pages: dict[int, None] = {}
        self.wal_bytes: list[int] = []
        self.delta_records: list[int] = []
        self.merges: list[tuple[int, int]] = []  # (wchar bytes, ops merged)
        self.verified: dict[str, int] = {}


@contextlib.contextmanager
def _patched(target: Any, name: str, wrap: Callable) -> Iterator[None]:
    original = getattr(target, name)
    setattr(target, name, wrap(original))
    try:
        yield
    finally:
        setattr(target, name, original)


def _spanned(name: str, on_return: Callable | None = None
             ) -> Callable[[Callable], Callable]:
    from repro.obs import runtime as obs

    def wrap(fn: Callable) -> Callable:
        def call(*args: Any, **kwargs: Any) -> Any:
            with obs.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(args, result)
            return result
        return call
    return wrap


@contextlib.contextmanager
def instrument(probe: Probe) -> Iterator[None]:
    """Class- and module-level probes for the traced replay only."""
    import repro.fsck
    from repro.ingest.overlay import OverlaySearcher
    from repro.obs import runtime as obs
    from repro.rtree.paged import PagedSearcher
    from repro.storage.store import PageStore

    def counting() -> bool:
        return probe.in_stream and obs.enabled()

    def count_search(fn: Callable) -> Callable:
        def search_detailed(self: Any, query: Any, **kwargs: Any) -> Any:
            if not counting():
                return fn(self, query, **kwargs)
            stats = self.stats
            before = (stats.disk_reads, stats.buffer_hits,
                      stats.buffer_misses)
            result = fn(self, query, **kwargs)
            probe.searches.append((
                    int(result.nodes_visited),
                    stats.disk_reads - before[0],
                    stats.buffer_hits - before[1],
                    stats.buffer_misses - before[2]))
            return result
        return search_detailed

    def note_page(fn: Callable) -> Callable:
        def read_page(self: Any, page_id: int, stats: Any = None) -> bytes:
            if obs.enabled():
                probe.pages[page_id] = None
            return fn(self, page_id, stats)
        return read_page

    def note_delta(args: tuple, _result: Any) -> None:
        if counting():
            probe.delta_records.append(
                sum(len(layer.overridden) for layer in args[0].layers))

    with contextlib.ExitStack() as stack:
        stack.enter_context(_patched(PagedSearcher, "search_detailed",
                                     count_search))
        stack.enter_context(_patched(PageStore, "read_page", note_page))
        stack.enter_context(_patched(
            OverlaySearcher, "search_detailed",
            _spanned("overlay.search", note_delta)))
        stack.enter_context(_patched(repro.fsck, "fsck",
                                     _spanned("merge.verify")))
        yield


# -- the in-process build -------------------------------------------------------


def build(points: np.ndarray, path: str) -> tuple[dict, list]:
    """``repro build``'s load, in-process and traced: the same
    ``parallel_bulk_load`` call on the same durable store settings."""
    from repro import obs
    from repro.core.geometry import RectArray
    from repro.pipeline import parallel_bulk_load
    from repro.storage.integrity import TRAILER_SIZE
    from repro.storage.page import required_page_size
    from repro.storage.store import FilePageStore

    rects = RectArray.from_points(points)
    page_size = required_page_size(100, rects.ndim) + TRAILER_SIZE
    store = FilePageStore(path, page_size, checksums=True, journal=True)
    before = wchar()
    with obs.telemetry() as (tracer, _registry):
        try:
            parallel_bulk_load(rects, capacity=100, store=store,
                               staging_path=path + ".staging", workers=2)
        finally:
            store.close()
    written = wchar() - before
    total = {name: sum(s.duration for s in tracer.spans if s.name == name)
             for name in ("pipeline.plan", "pipeline.shards",
                          "pipeline.assemble")}
    layers = {
        "pipeline.plan_s": (total["pipeline.plan"], "s"),
        "pipeline.shards_s": (total["pipeline.shards"], "s"),
        "pipeline.assemble_s": (total["pipeline.assemble"], "s"),
        "build.bytes_per_record": (written / len(points), "B"),
    }
    return layers, list(tracer.spans)


# -- the replay ---------------------------------------------------------------


async def _serve(server: Any, req: Any, kind: str) -> Any:
    """One request through the serve stack minus the socket: request
    decode, ``handle_request``, response encode, response decode."""
    from repro.obs import runtime as obs
    from repro.serve.protocol import (decode_request, decode_response,
                                      encode_request, encode_response)

    line = encode_request(req)
    with obs.span("bench.op", kind=kind, id=req.id):
        request = decode_request(line)
        with obs.span("serve.handle_request", kind=kind):
            resp = await server.handle_request(request)
        with obs.span("protocol.encode_response", kind=kind):
            out = encode_response(resp)
        with obs.span("protocol.decode_response", kind=kind):
            return decode_response(out)


class _Twins:
    """In-process ``MmapPageStore`` searchers, one per pool worker, fed
    the payloads in the pool's round-robin order so their buffers hold
    what the workers' buffers hold."""

    def __init__(self, path: str, count: int):
        from repro.rtree.paged import PagedRTree
        from repro.storage.mmap_store import MmapPageStore

        self.stores = [MmapPageStore(path) for _ in range(count)]
        self.searchers = [PagedRTree.from_store(s).searcher(64)
                          for s in self.stores]
        self.turn = 0

    def search(self, rect: tuple) -> None:
        from repro.core.geometry import Rect
        from repro.obs import runtime as obs

        searcher = self.searchers[self.turn]
        self.turn = (self.turn + 1) % len(self.searchers)
        with obs.span("bench.twin_search"):
            searcher.search_detailed(Rect(*rect))

    def verified(self) -> int:
        return self.stores[0].verified_pages

    def close(self) -> None:
        for store in self.stores:
            store.close()


class _Side:
    """One in-process ``QueryServer`` over its own copy of the tree, set
    up as ``repro serve`` sets it up for the workload."""

    def __init__(self, stream: Stream, tree_path: str):
        from repro.ingest import IngestState, resolve_current
        from repro.rtree.paged import PagedRTree
        from repro.serve import QueryServer
        from repro.storage.store import FilePageStore

        self.ingest = None
        base = tree_path
        if stream.merge_every:
            base, _pointer = resolve_current(tree_path)
            self.ingest, _ = IngestState.open(tree_path, ndim=2)
        self.pooled = stream.workload == "read_pool"
        self.server = QueryServer(
            PagedRTree.from_store(FilePageStore.open_existing(base)),
            buffer_pages=64, ingest=self.ingest,
            workers=2 if self.pooled else 0)
        self.busy_s = 0.0
        self.answers: list = []

    async def serve(self, req: Any, kind: str) -> Any:
        """One stream op; its serve-path time adds to ``busy_s``."""
        start = time.perf_counter()
        resp = await _serve(self.server, req, kind)
        self.busy_s += time.perf_counter() - start
        self.answers.append((resp.ok, bool(resp.partial),
                             np.asarray(resp.ids, dtype=np.int64)
                             if resp.ids is not None else None))
        return resp

    async def close(self) -> None:
        await self.server.aclose()
        self.server.tree.store.close()


async def _replay(stream: Stream, plain_path: str, traced_path: str
                  ) -> dict:
    """Replay ``stream`` on two in-process servers in lockstep: each op
    runs untraced on one, then traced on the other, so host drift hits
    both sides alike.  Only the traced side merges (an in-process merge
    takes about 4 s); its count probes, twins and merges stay outside
    both sides' ``busy_s``."""
    from repro import obs
    from repro.serve.protocol import Request

    plain = _Side(stream, plain_path)
    traced = _Side(stream, traced_path)
    probe = Probe()
    tracer, registry = obs.Tracer(), obs.MetricsRegistry()
    twins = None
    merged: list = []

    @contextlib.contextmanager
    def tracing() -> Iterator[None]:
        obs.enable(tracer, registry)
        try:
            yield
        finally:
            obs.disable()

    try:
        if plain.pooled:
            # Workers fork here, before any tracing: they run untraced.
            await plain.server.start("127.0.0.1", 0)
            await traced.server.start("127.0.0.1", 0)
            traced.server.pool.execute = _async_spanned(
                traced.server.pool.execute, "pool.execute")
            twins = _Twins(traced_path, 2)
        if traced.ingest is not None:
            _wrap_ingest(traced.ingest, probe)
        cover = Request(op="count", rect=wire(WARMUP_WINDOW),
                        deadline_s=DEADLINE_S)
        with instrument(probe):
            # Sequential, so the pool's round robin hands one cover
            # query to each worker.
            for _ in range(2 if plain.pooled else 1):
                await _serve(plain.server, cover, "count")
                with tracing(), obs.span("bench.warmup"):
                    await _serve(traced.server, cover, "count")
                    if twins is not None:
                        twins.search(WARMUP_WINDOW)
            if twins is not None:
                probe.verified["after_warmup"] = twins.verified()
            probe.in_stream = True
            acked = 0
            with tracer.span("bench.stream"):
                for i, op in enumerate(stream.ops):
                    req = request_for(op, i + 1)
                    await plain.serve(req, op.kind)
                    with tracing():
                        resp = await traced.serve(req, op.kind)
                        if twins is not None:
                            twins.search(op.rect)
                        if op.kind == "search" or not resp.ok:
                            continue
                        acked += 1
                        if (acked % stream.merge_every
                                or acked // stream.merge_every > MERGES):
                            continue
                        before = wchar()
                        resp = await _serve(traced.server,
                                            Request(op="merge"), "merge")
                        merged.append(resp)
                        if resp.ok:
                            probe.merges.append((
                                wchar() - before,
                                resp.data["merge"]["ops_applied"]))
            probe.in_stream = False
            if twins is not None:
                probe.verified["after_run"] = twins.verified()
    finally:
        await plain.close()
        await traced.close()
        if twins is not None:
            twins.close()
    return {"plain": plain, "traced": traced, "merges": merged,
            "probe": probe, "spans": list(tracer.spans)}


def _wrap_ingest(state: Any, probe: Probe) -> None:
    """Span ``IngestState.append``/``apply`` on this instance; the
    server calls them through the instance, so this sees every write."""
    from repro.obs import runtime as obs

    append, apply = state.append, state.apply

    def traced_append(*args: Any) -> Any:
        before = state.wal.pending_bytes
        with obs.span("wal.append"):
            walop = append(*args)
        probe.wal_bytes.append(state.wal.pending_bytes - before)
        return walop

    def traced_apply(walop: Any) -> None:
        with obs.span("delta.apply"):
            apply(walop)

    state.append = traced_append
    state.apply = traced_apply


def _async_spanned(fn: Callable, name: str) -> Callable:
    from repro.obs import runtime as obs

    async def call(*args: Any, **kwargs: Any) -> Any:
        with obs.span(name):
            return await fn(*args, **kwargs)
    return call


def replay(stream: Stream, points: np.ndarray, plain_path: str,
           traced_path: str) -> dict:
    """The lockstep replay, both sides' answers checked by the oracle."""
    run = asyncio.run(_replay(stream, plain_path, traced_path))
    run["failed"] = sum(not m.ok for m in run["merges"])
    for side in (run["plain"], run["traced"]):
        bad, _live = oracle.check(stream, points, side.answers)
        run["failed"] += len(bad)
    run["attempted"] = 2 * len(stream.ops) + len(run["merges"])
    run["overhead"] = run["traced"].busy_s / run["plain"].busy_s - 1.0
    return run


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(stream: Stream, run: dict, tree_path: str) -> dict:
    """Per-layer numbers of one traced replay."""
    from repro.obs import Tracer

    spans, probe = run["spans"], run["probe"]
    stream_span = next(s for s in spans if s.name == "bench.stream")
    measured = _within(spans, stream_span)
    tracer = Tracer()
    tracer.spans = spans
    selfs = tracer.self_times()
    reads = [s for s in measured
             if s.name == "serve.handle_request"
             and s.labels.get("kind") == "search"]
    layers: dict[str, tuple[float, str]] = {}

    inner = "pool.execute" if stream.workload == "read_pool" \
        else "query.search"
    nested = _inner_time(measured, "serve.handle_request", inner)
    layers["serve.dispatch_ms"] = (_median_ms(
        [s.duration - nested[s.index] for s in reads]), "ms")
    for name, metric in (("protocol.encode_response", "protocol.encode_ms"),
                         ("protocol.decode_response", "protocol.decode_ms")):
        layers[metric] = (_median_ms(
            [s.duration for s in measured
             if s.name == name and s.labels.get("kind") == "search"]), "ms")

    searches = probe.searches
    layers["rtree.nodes_per_query"] = (
        statistics.fmean(n for n, _, _, _ in searches), "nodes")
    walks = [selfs[s.index][0] for s in measured
             if s.name == "query.node_walk"]
    layers["rtree.walk_ms"] = (_median_ms(walks), "ms")
    hits = sum(h for _, _, h, _ in searches)
    misses = sum(m for _, _, _, m in searches)
    layers["buffer.hit_ratio"] = (hits / (hits + misses), "ratio")
    page_reads = sum(r for _, r, _, _ in searches)
    layers["storage.pages_read_per_query"] = (page_reads / len(searches),
                                              "pages")
    for span_name, metric in (("query.page_read", "storage.read_ms_per_page"),
                              ("query.page_decode",
                               "page.decode_ms_per_page")):
        per_page = [selfs[s.index][0] for s in measured
                    if s.name == span_name]
        layers[metric] = (statistics.fmean(per_page) * 1000.0, "ms")
    layers["integrity.verify_ms_per_page"] = (
        verify_ms_per_page(tree_path, list(probe.pages)), "ms")

    if stream.workload == "read_pool":
        executes = [s.duration for s in measured if s.name == "pool.execute"]
        twins = [s.duration for s in measured
                 if s.name == "bench.twin_search"]
        layers["pool.ipc_ms"] = (_median_ms(
            [e - t for e, t in zip(executes, twins)]), "ms")
        layers["mmap.verified_pages"] = (probe.verified["after_run"],
                                         "pages")

    if stream.merge_every:
        layers["wal.append_ms"] = (_median_ms(
            [s.duration for s in measured if s.name == "wal.append"]), "ms")
        layers["wal.bytes_per_write"] = (
            sum(probe.wal_bytes) / len(probe.wal_bytes), "B")
        layers["delta.apply_ms"] = (_median_ms(
            [s.duration for s in measured if s.name == "delta.apply"]), "ms")
        overlays = [s for s in measured if s.name == "overlay.search"]
        base = _inner_time(measured, "overlay.search", "query.search")
        layers["overlay.extra_ms"] = (_median_ms(
            [s.duration - base[s.index] for s in overlays]), "ms")
        layers["overlay.delta_records"] = (
            statistics.fmean(probe.delta_records), "records")
        layers["merge.s"] = (statistics.median(
            s.duration for s in measured if s.name == "ingest.merge"), "s")
        layers["merge.verify_s"] = (statistics.median(
            s.duration for s in measured if s.name == "merge.verify"), "s")
        layers["merge.bytes_per_op"] = (
            sum(b for b, _ in probe.merges) / sum(n for _, n in probe.merges),
            "B")
    return layers


def verify_ms_per_page(tree_path: str, pages: list[int]) -> float:
    """Median ``verify_trailer`` time over the ``FilePageStore.raw_read``
    images of ``pages`` (each page the replay read, once)."""
    from repro.storage.integrity import verify_trailer
    from repro.storage.store import FilePageStore

    store = FilePageStore.open_existing(tree_path)
    try:
        times = []
        # ingest_mixed also reads merged generations, which can hold a
        # few more pages than the built tree; per-page cost is the same.
        for page_id in sorted(p for p in pages if p < store.page_count):
            image = store.raw_read(page_id)
            start = time.perf_counter()
            verify_trailer(image, page_id)
            times.append(time.perf_counter() - start)
    finally:
        store.close(flush=False)
    return _median_ms(times)


def _fresh_copy(built: str, workdir: str, name: str) -> str:
    target_dir = os.path.join(workdir, name)
    os.makedirs(target_dir)
    target = os.path.join(target_dir, "tree.rt")
    shutil.copyfile(built, target)
    return target


#: Ops the replay takes from the front of the run's stream: enough for
#: per-op medians and both of ingest_mixed's merges (which keep the
#: full stream's cadence), few enough that a ``--trace 1`` run takes
#: about twice an untraced one.
REPLAY_OPS = 400


def run_traced(workload: str, seed: int, seconds: float, workdir: str, *,
               e2e_layers: dict, record: dict) -> dict:
    """Build, replay untraced, replay traced; per-layer metrics plus the
    E2E run's own per-layer values, and the spans of the traced build and
    replay."""
    stream = make_stream(workload, seed, seconds)
    stream = dataclasses.replace(stream, ops=stream.ops[:REPLAY_OPS])
    points = dataset(seed)
    os.makedirs(workdir)
    built = os.path.join(workdir, "built.rt")
    pipeline_layers, build_spans = build(points, built)

    run = replay(stream, points, _fresh_copy(built, workdir, "plain"),
                 _fresh_copy(built, workdir, "traced"))
    layers = dict(e2e_layers)
    layers.update(pipeline_layers)
    layers.update(layer_metrics(stream, run, built))
    layers["obs.trace_overhead_frac"] = (run["overhead"], "ratio")
    record["replay"] = {"ops": len(stream.ops),
                        "untraced_s": run["plain"].busy_s,
                        "traced_s": run["traced"].busy_s,
                        "spans": len(run["spans"]),
                        "mmap_verified": run["probe"].verified}
    return {"metrics": layers, "attempted": run["attempted"],
            "failed": run["failed"], "spans": [build_spans, run["spans"]]}


def write_artefacts(directory: str, workload: str, seed: int, layers: dict,
                    record: dict, span_lists: list[list]) -> None:
    """``<workload>-seed<N>.layers.json`` (per-layer numbers and the run
    record) and ``<workload>-seed<N>.trace.json`` (Chrome trace of the
    traced build and replay, for Perfetto)."""
    from repro.obs import concat_span_dicts, write_chrome_trace

    os.makedirs(directory, exist_ok=True)
    stem = os.path.join(directory, f"{workload}-seed{seed}")
    with open(stem + ".layers.json", "w") as f:
        json.dump({"layers": {k: {"value": v, "unit": u}
                              for k, (v, u) in layers.items()},
                   "run": record}, f, indent=1, sort_keys=True)
        f.write("\n")
    write_chrome_trace(concat_span_dicts(span_lists), stem + ".trace.json")

