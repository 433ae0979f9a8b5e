"""The pinned benchmark scenario suite.

Each scenario builds or queries one deterministic tree (uniform points,
fixed seed) and reports the same shape of result: operation count,
wall-clock throughput, a latency distribution, I/O counts from the
searcher's own :class:`~repro.storage.counters.IOStats`, and
read/decode/walk self-time from the span tracer.  The suite is ordered:
``build`` constructs the durable tree every later scenario queries, and
``serve_roundtrip`` runs last because attaching the query server wires
a circuit breaker onto the shared store.

Scenario list (the committed BENCH baseline carries one entry each):

``build``
    Durable STR bulk load (checksummed file store).
``window_1pct`` / ``window_9pct``
    Region queries at the paper's 1%/9% selectivities, cold buffer.
``point``
    Point queries, cold buffer.
``knn``
    k-nearest-neighbour queries (best-first), cold buffer.
``window_1pct_warm``
    The 1% workload replayed on an already-warm buffer pool — the
    cold-vs-warm delta is the buffer pool's contribution.
``serve_roundtrip``
    The same region queries through the asyncio NDJSON server and
    client: wire protocol + admission + executor dispatch included.

One *opt-in* scenario lives outside the pinned suite (and therefore
outside the committed baseline and its diff bands):

``serve_pool``
    The 1% window workload driven by concurrent clients against the
    same server twice — in-process, then with a ``--workers`` pool of
    crash-isolated mmap-sharing worker processes — reporting both
    throughputs and their ratio.  Opt in with ``repro bench --workers
    N``; it never runs by default because its numbers are only
    meaningful on multi-core hosts and a new scenario would break the
    baseline diff's like-for-like guarantee.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..core.geometry import Rect
from ..core.packing.registry import make_algorithm
from ..datasets import uniform_points
from ..obs import runtime as obs
from ..obs.metrics import MetricsRegistry, percentile
from ..obs.spans import Tracer
from ..queries import point_queries, region_queries
from ..queries.workloads import REGION_SIDE_1PCT, REGION_SIDE_9PCT
from ..rtree.bulk import bulk_load
from ..rtree.knn import knn
from ..rtree.paged import PagedRTree
from ..storage.integrity import TRAILER_SIZE
from ..storage.page import required_page_size
from ..storage.store import FilePageStore

__all__ = ["BenchConfig", "ScenarioResult", "SuiteContext", "SCENARIOS",
           "EXTRA_SCENARIOS"]


@dataclass(frozen=True)
class BenchConfig:
    """Pinned knobs of one bench run (committed into the document)."""

    profile: str = "full"
    size: int = 100_000
    capacity: int = 100
    queries: int = 2_000
    buffer_pages: int = 250
    knn_queries: int = 250
    knn_k: int = 10
    serve_queries: int = 250
    seed: int = 0

    @classmethod
    def full(cls, seed: int = 0) -> "BenchConfig":
        """The committed-baseline profile (paper-scale workloads)."""
        return cls(seed=seed)

    @classmethod
    def quick(cls, seed: int = 0) -> "BenchConfig":
        """The CI smoke profile: same shapes, small cells."""
        return cls(profile="quick", size=5_000, capacity=64,
                   queries=200, buffer_pages=64, knn_queries=50,
                   serve_queries=50, seed=seed)

    def as_dict(self) -> dict:
        """JSON-able config block of the bench document."""
        return {
            "profile": self.profile,
            "size": self.size,
            "capacity": self.capacity,
            "queries": self.queries,
            "buffer_pages": self.buffer_pages,
            "knn_queries": self.knn_queries,
            "knn_k": self.knn_k,
            "serve_queries": self.serve_queries,
            "seed": self.seed,
        }


@dataclass
class ScenarioResult:
    """One scenario's raw measurements, before document serialisation."""

    name: str
    description: str
    ops: int
    elapsed_s: float
    latencies_s: list[float]
    pages_read: int
    bytes_read: int
    buffer_hits: int
    buffer_misses: int
    tracer: Tracer
    extra: dict = field(default_factory=dict)

    def self_times(self) -> dict[str, float]:
        """Wall self-time split: read / decode / walk / other seconds."""
        phases = self.tracer.phase_summary()
        split = {
            key: float(phases.get(key, {}).get("wall_s", 0.0))
            for key in ("read", "decode", "walk")
        }
        total = sum(p["wall_s"] for p in phases.values())
        split["other"] = max(0.0, total - sum(split.values()))
        return split

    def as_dict(self) -> dict:
        """The scenario block of the bench document (sans tolerance)."""
        lat = self.latencies_s
        out = {
            "description": self.description,
            "ops": self.ops,
            "elapsed_s": self.elapsed_s,
            "queries_per_s": (self.ops / self.elapsed_s
                              if self.elapsed_s > 0 else 0.0),
            "mean_accesses": (self.pages_read / self.ops
                              if self.ops else 0.0),
            "latency_s": {
                "mean": (sum(lat) / len(lat)) if lat else 0.0,
                "p50": percentile(lat, 50.0) if lat else 0.0,
                "p95": percentile(lat, 95.0) if lat else 0.0,
                "p99": percentile(lat, 99.0) if lat else 0.0,
                "max": max(lat) if lat else 0.0,
            },
            "io": {
                "pages_read": self.pages_read,
                "bytes_read": self.bytes_read,
                "buffer_hits": self.buffer_hits,
                "buffer_misses": self.buffer_misses,
            },
            "self_time_s": self.self_times(),
        }
        out.update(self.extra)
        return out


@dataclass
class SuiteContext:
    """Shared state the scenarios thread through the suite in order."""

    config: BenchConfig
    workdir: str
    tree: PagedRTree | None = None
    #: Worker processes for the opt-in ``serve_pool`` scenario.  Not a
    #: :class:`BenchConfig` field on purpose: config is committed into
    #: the bench document and must stay identical between a run and its
    #: baseline for the diff bands to apply.
    serve_workers: int = 0

    @property
    def built_tree(self) -> PagedRTree:
        """The tree the ``build`` scenario produced (fails if skipped)."""
        if self.tree is None:
            raise RuntimeError(
                "query scenarios need the 'build' scenario to run first"
            )
        return self.tree


def _timed_ops(ops: Iterable, run_one: Callable) -> tuple[list[float], float]:
    """Run each op, returning per-op latencies and total elapsed time."""
    latencies: list[float] = []
    t_start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        run_one(op)
        latencies.append(time.perf_counter() - t0)
    return latencies, time.perf_counter() - t_start


def _query_scenario(name: str, description: str, ctx: SuiteContext,
                    ops: list, run_one_for: Callable,
                    searcher=None, extra: dict | None = None
                    ) -> ScenarioResult:
    """Shared skeleton: cold (or given) searcher, traced, timed per op."""
    tree = ctx.built_tree
    if searcher is None:
        searcher = tree.searcher(ctx.config.buffer_pages)
    base = searcher.stats.snapshot()
    tracer = Tracer()
    with obs.telemetry(tracer, MetricsRegistry()):
        with obs.span(f"bench.{name}"):
            latencies, elapsed = _timed_ops(ops, run_one_for(searcher))
    stats = searcher.stats
    pages = stats.disk_reads - base.disk_reads
    return ScenarioResult(
        name=name, description=description, ops=len(ops),
        elapsed_s=elapsed, latencies_s=latencies,
        pages_read=pages,
        bytes_read=pages * tree.store.page_size,
        buffer_hits=stats.buffer_hits - base.buffer_hits,
        buffer_misses=stats.buffer_misses - base.buffer_misses,
        tracer=tracer, extra=dict(extra or {}),
    )


def scenario_build(ctx: SuiteContext) -> ScenarioResult:
    """Durable STR bulk load into a checksummed file store."""
    config = ctx.config
    points = uniform_points(config.size, seed=config.seed)
    page_size = (required_page_size(config.capacity, points.ndim)
                 + TRAILER_SIZE)
    path = os.path.join(ctx.workdir, "bench-tree.rt")
    store = FilePageStore(path, page_size, checksums=True)
    tracer = Tracer()
    with obs.telemetry(tracer, MetricsRegistry()):
        with obs.span("bench.build"):
            t0 = time.perf_counter()
            tree, report = bulk_load(points, make_algorithm("STR"),
                                     capacity=config.capacity,
                                     store=store)
            elapsed = time.perf_counter() - t0
    ctx.tree = tree
    return ScenarioResult(
        name="build",
        description=(f"STR bulk load of {config.size} uniform points "
                     "into a durable (CRC) page file"),
        ops=1, elapsed_s=elapsed, latencies_s=[elapsed],
        pages_read=report.build_io.disk_reads,
        bytes_read=report.build_io.disk_reads * store.page_size,
        buffer_hits=0, buffer_misses=0,
        tracer=tracer,
        extra={
            "records_per_s": (config.size / elapsed if elapsed > 0
                              else 0.0),
            "pages_written": report.pages_written,
            "height": report.height,
        },
    )


def _window_ops(ctx: SuiteContext, side: float, label: str) -> list[Rect]:
    count = ctx.config.queries
    seed = ctx.config.seed * 1000 + (17 if side < 0.2 else 19)
    return list(region_queries(side, count, seed=seed, kind=label))


def scenario_window_1pct(ctx: SuiteContext) -> ScenarioResult:
    """1%-selectivity window queries against a cold buffer pool."""
    ops = _window_ops(ctx, REGION_SIDE_1PCT, "region 1%")
    return _query_scenario(
        "window_1pct",
        "region queries, 1% of space, cold LRU buffer",
        ctx, ops, lambda s: s.search,
    )


def scenario_window_9pct(ctx: SuiteContext) -> ScenarioResult:
    """9%-selectivity window queries against a cold buffer pool."""
    ops = _window_ops(ctx, REGION_SIDE_9PCT, "region 9%")
    return _query_scenario(
        "window_9pct",
        "region queries, 9% of space, cold LRU buffer",
        ctx, ops, lambda s: s.search,
    )


def scenario_point(ctx: SuiteContext) -> ScenarioResult:
    """Point queries against a cold buffer pool."""
    ops = list(point_queries(ctx.config.queries,
                             seed=ctx.config.seed * 1000 + 23))
    return _query_scenario(
        "point",
        "point queries, cold LRU buffer",
        ctx, ops, lambda s: s.search,
    )


def scenario_knn(ctx: SuiteContext) -> ScenarioResult:
    """Best-first kNN queries against a cold buffer pool."""
    config = ctx.config
    workload = point_queries(config.knn_queries,
                             seed=config.seed * 1000 + 29)
    ops = [tuple(rect.lo) for rect in workload]
    return _query_scenario(
        "knn",
        f"k={config.knn_k} nearest-neighbour queries, cold LRU buffer",
        ctx, ops,
        lambda s: (lambda pt: knn(s, pt, config.knn_k)),
    )


def scenario_window_1pct_warm(ctx: SuiteContext) -> ScenarioResult:
    """The 1% window workload replayed on a pre-warmed buffer pool."""
    ops = _window_ops(ctx, REGION_SIDE_1PCT, "region 1%")
    searcher = ctx.built_tree.searcher(ctx.config.buffer_pages)
    searcher.warm(ops)
    return _query_scenario(
        "window_1pct_warm",
        "region queries, 1% of space, warm LRU buffer (second pass)",
        ctx, ops, lambda s: s.search, searcher=searcher,
    )


def scenario_serve_roundtrip(ctx: SuiteContext) -> ScenarioResult:
    """1% window queries through the asyncio server and client.

    Measures full round-trip latency — NDJSON encode/decode, admission
    control, executor dispatch, the tree walk, and the sorted-id reply —
    against a freshly started in-process server on an ephemeral port.
    """
    from ..serve.client import QueryClient
    from ..serve.server import QueryServer

    config = ctx.config
    tree = ctx.built_tree
    ops = list(region_queries(REGION_SIDE_1PCT, config.serve_queries,
                              seed=config.seed * 1000 + 31))
    tracer = Tracer()

    async def _drive(server: "QueryServer") -> tuple[list[float], float]:
        host, port = await server.start("127.0.0.1", 0)
        client = await QueryClient.connect(host, port)
        try:
            latencies: list[float] = []
            t_start = time.perf_counter()
            for rect in ops:
                t0 = time.perf_counter()
                resp = await client.search(rect)
                resp.raise_for_error()
                latencies.append(time.perf_counter() - t0)
            return latencies, time.perf_counter() - t_start
        finally:
            await client.aclose()
            await server.aclose()

    with obs.telemetry(tracer, MetricsRegistry()):
        with obs.span("bench.serve_roundtrip"):
            server = QueryServer(
                tree, buffer_pages=config.buffer_pages,
                default_deadline_s=60.0, max_deadline_s=60.0,
            )
            latencies, elapsed = asyncio.run(_drive(server))
    stats = server.searcher.stats
    return ScenarioResult(
        name="serve_roundtrip",
        description=("region queries (1% of space) through the asyncio "
                     "NDJSON server + client on loopback"),
        ops=len(ops), elapsed_s=elapsed, latencies_s=latencies,
        pages_read=stats.disk_reads,
        bytes_read=stats.disk_reads * tree.store.page_size,
        buffer_hits=stats.buffer_hits,
        buffer_misses=stats.buffer_misses,
        tracer=tracer,
        extra={"transport": "asyncio-ndjson"},
    )


def scenario_serve_pool(ctx: SuiteContext) -> ScenarioResult:
    """Concurrent 1% window load: in-process vs the worker-process pool.

    Drives ``2 * workers`` concurrent clients through the same query
    list against (a) a plain in-process server and (b) a server with a
    ``workers``-process pool sharing the tree file via mmap, and
    reports both throughputs.  The pool's latencies are the scenario's
    headline numbers; ``extra`` carries the in-process baseline and the
    speedup ratio.  Single-core hosts legitimately see ratios <= 1 —
    that is a fact about the host, not a regression, which is one more
    reason this scenario stays outside the banded baseline.
    """
    from ..serve.client import QueryClient
    from ..serve.server import QueryServer

    config = ctx.config
    tree = ctx.built_tree
    workers = max(ctx.serve_workers, 1)
    clients = workers * 2
    ops = list(region_queries(REGION_SIDE_1PCT, config.serve_queries,
                              seed=config.seed * 1000 + 31))
    shards = [ops[i::clients] for i in range(clients)]

    async def _one_client(host: str, port: int, rects: list[Rect],
                          latencies: list[float]) -> None:
        client = await QueryClient.connect(host, port)
        try:
            for rect in rects:
                t0 = time.perf_counter()
                resp = await client.search(rect)
                resp.raise_for_error()
                latencies.append(time.perf_counter() - t0)
        finally:
            await client.aclose()

    async def _drive(server: "QueryServer") -> tuple[list[float], float]:
        host, port = await server.start("127.0.0.1", 0)
        try:
            latencies: list[float] = []
            t_start = time.perf_counter()
            await asyncio.gather(*(
                _one_client(host, port, shard, latencies)
                for shard in shards if shard))
            return latencies, time.perf_counter() - t_start
        finally:
            await server.aclose()

    def _run(n_workers: int) -> tuple[list[float], float, "QueryServer"]:
        server = QueryServer(
            tree, buffer_pages=config.buffer_pages,
            default_deadline_s=60.0, max_deadline_s=60.0,
            max_inflight=max(clients, 8), max_queue=max(clients * 2, 16),
            workers=n_workers,
        )
        latencies, elapsed = asyncio.run(_drive(server))
        return latencies, elapsed, server

    tracer = Tracer()
    with obs.telemetry(tracer, MetricsRegistry()):
        with obs.span("bench.serve_pool"):
            _, base_elapsed, _ = _run(0)
            latencies, elapsed, server = _run(workers)
    if server.pool_start_error is not None:
        raise RuntimeError(
            f"serve_pool could not start its worker pool: "
            f"{server.pool_start_error}")
    base_qps = len(ops) / base_elapsed if base_elapsed > 0 else 0.0
    pool_qps = len(ops) / elapsed if elapsed > 0 else 0.0
    return ScenarioResult(
        name="serve_pool",
        description=(f"region queries (1% of space), {clients} concurrent "
                     f"clients: {workers}-process mmap pool vs in-process"),
        ops=len(ops), elapsed_s=elapsed, latencies_s=latencies,
        pages_read=0,  # worker-process reads are not in this searcher
        bytes_read=0,
        buffer_hits=0, buffer_misses=0,
        tracer=tracer,
        extra={
            "transport": "asyncio-ndjson",
            "workers": workers,
            "concurrent_clients": clients,
            "inprocess_qps": base_qps,
            "pool_qps": pool_qps,
            "pool_speedup": (pool_qps / base_qps) if base_qps else 0.0,
            "pool_fallbacks": server.pool_fallbacks,
        },
    )


#: Suite order matters: ``build`` creates the tree, ``serve_roundtrip``
#: attaches a breaker to the shared store so it runs last.
SCENARIOS: dict[str, Callable[[SuiteContext], ScenarioResult]] = {
    "build": scenario_build,
    "window_1pct": scenario_window_1pct,
    "window_9pct": scenario_window_9pct,
    "point": scenario_point,
    "knn": scenario_knn,
    "window_1pct_warm": scenario_window_1pct_warm,
    "serve_roundtrip": scenario_serve_roundtrip,
}

#: Opt-in scenarios, excluded from the pinned suite and its committed
#: baseline (``repro bench --workers N`` adds ``serve_pool``).
EXTRA_SCENARIOS: dict[str, Callable[[SuiteContext], ScenarioResult]] = {
    "serve_pool": scenario_serve_pool,
}
