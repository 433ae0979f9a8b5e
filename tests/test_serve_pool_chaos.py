"""Worker-pool chaos soak: random SIGKILLs under live traffic.

The multi-process serving acceptance property, verified end-to-end over
real sockets and real worker processes: with workers SIGKILLed at
seeded-random moments during a ~1000-query soak from 8 concurrent
clients, **every one** of the responses is

* bit-identical to a clean oracle (``ok`` and not ``partial``), or
* explicitly ``partial=true`` with an id set that is a *subset* of the
  oracle's (a degraded read under-reports, never fabricates), or
* a typed error (``WorkerLost`` when a query's worker died twice,
  ``DeadlineExceeded`` / ``Overloaded`` / ``StoreUnavailable``).

Zero silently-wrong results, by exhaustive comparison — and afterwards
the pool must be back at full strength with a bounded restart count.
On failure the violation list and pool state land in
``$REPRO_CHAOS_REPORT_DIR`` (CI uploads them as artifacts).

The ``>1x pooled throughput`` assertion is gated on ``REPRO_PERF_TESTS``:
it measures the host's core count as much as the code, so it runs on CI's
multi-core runners and stays off single-CPU dev containers.
"""

import asyncio
import json
import os
import signal
import time
from random import Random

import pytest

from repro import RectArray, SortTileRecursive, bulk_load
from repro.queries import point_queries, region_queries
from repro.serve import QueryClient, QueryServer, Request
from repro.storage import FilePageStore, MemoryPageStore
from repro.storage.integrity import TRAILER_SIZE
from repro.storage.page import required_page_size

N_RECTS = 3_000
CAPACITY = 25
N_CLIENTS = 8
N_WORKERS = 4
#: 5 kills keeps the default flap circuit (6 deaths / 30 s) closed: the
#: soak exercises crash recovery, not the degrade-and-stay-down path
#: (tests/test_serve_pool.py covers that one).
N_KILLS = 5
ALLOWED_ERRORS = {"WorkerLost", "DeadlineExceeded", "Overloaded",
                  "StoreUnavailable"}


def _workload():
    queries = list(region_queries(0.04, 700, seed=81))
    queries += list(point_queries(300, seed=82))
    return queries


def _dump_artifacts(summary, violations):
    out_dir = os.environ.get("REPRO_CHAOS_REPORT_DIR", "")
    if not out_dir:
        return ""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "pool-chaos-summary.json")
    with open(path, "w") as f:
        json.dump({**summary, "violations": violations[:100]}, f,
                  indent=2, default=str)
    return f" (artifacts: {path})"


def _durable_tree(tmp_path, rects, name):
    page_size = required_page_size(CAPACITY, 2) + TRAILER_SIZE
    store = FilePageStore(tmp_path / name, page_size, checksums=True)
    tree, _ = bulk_load(rects, SortTileRecursive(), capacity=CAPACITY,
                        store=store)
    return tree


def test_pool_kill_chaos_no_silently_wrong_answers(tmp_path, rng):
    started = time.time()
    rects = RectArray.from_points(rng.random((N_RECTS, 2)))
    oracle_tree, _ = bulk_load(rects, SortTileRecursive(),
                               capacity=CAPACITY,
                               store=MemoryPageStore(4096))
    oracle = oracle_tree.searcher(512)
    queries = _workload()
    expected = [frozenset(int(x) for x in oracle.search(q))
                for q in queries]
    tree = _durable_tree(tmp_path, rects, "chaos.pages")

    outcomes = {"exact": 0, "partial": 0}
    violations = []
    kills = []
    traffic_done = asyncio.Event()

    async def client_session(host, port, client_index):
        async with await QueryClient.connect(host, port) as client:
            for qi in range(client_index, len(queries), N_CLIENTS):
                resp = await client.search(queries[qi])
                record = {"client": client_index, "query": qi,
                          "response": resp.__dict__}
                if not resp.ok:
                    if resp.error not in ALLOWED_ERRORS:
                        violations.append({**record,
                                           "why": "untyped error"})
                    else:
                        outcomes[resp.error] = outcomes.get(resp.error,
                                                            0) + 1
                    continue
                got = frozenset(resp.ids)
                if resp.partial:
                    if not got <= expected[qi]:
                        violations.append(
                            {**record, "why": "partial ids not a subset"})
                    else:
                        outcomes["partial"] += 1
                elif got != expected[qi]:
                    violations.append(
                        {**record, "why": "non-partial ids != oracle"})
                else:
                    outcomes["exact"] += 1

    async def killer(server, seed=4242):
        chaos = Random(seed)
        while len(kills) < N_KILLS and not traffic_done.is_set():
            await asyncio.sleep(chaos.uniform(0.02, 0.12))
            ready = [w for w in server.pool.snapshot()["workers"]
                     if w["pid"] and w["state"] == "ready"]
            if not ready:
                continue
            victim = chaos.choice(ready)
            try:
                os.kill(victim["pid"], signal.SIGKILL)
            except ProcessLookupError:
                continue
            kills.append(victim["pid"])

    async def scenario():
        async with QueryServer(tree, buffer_pages=64, workers=N_WORKERS,
                               max_inflight=16, max_queue=64,
                               default_deadline_s=30.0) as server:
            assert server.pool is not None, server.pool_start_error
            host, port = server.address
            killer_task = asyncio.create_task(killer(server))
            await asyncio.gather(*[
                client_session(host, port, i) for i in range(N_CLIENTS)
            ])
            traffic_done.set()
            await killer_task
            # Supervision must bring the pool back to full strength.
            t_end = time.monotonic() + 15.0
            while (server.pool.workers_live < N_WORKERS
                   and time.monotonic() < t_end):
                await asyncio.sleep(0.05)
            return server, server.pool.snapshot()

    server, pool_state = asyncio.run(scenario())

    total = sum(outcomes.values())
    summary = {
        "duration_s": time.time() - started,
        "queries": total,
        "outcomes": outcomes,
        "kills": len(kills),
        "pool": pool_state,
        "fallbacks": server.pool_fallbacks,
        "violations": len(violations),
    }
    note = _dump_artifacts(summary, violations)

    # The soak must have actually exercised the chaos, not dodged it.
    assert total + len(violations) == len(queries)
    assert len(kills) == N_KILLS, f"only {len(kills)} kills fired{note}"
    assert outcomes["exact"] > 0
    # Recovery: full strength, circuit closed, restarts bounded by the
    # kill count (each SIGKILL causes exactly one supervised restart;
    # anything above that would be a crash loop).
    assert pool_state["workers_live"] == N_WORKERS, f"{pool_state}{note}"
    assert pool_state["degraded"] is False
    assert 1 <= pool_state["restarts_total"] <= len(kills), (
        f"{pool_state['restarts_total']} restarts for "
        f"{len(kills)} kills{note}")
    # ... and the one property that matters: nothing silently wrong.
    assert not violations, (
        f"{len(violations)} silently-wrong or mistyped responses, e.g. "
        f"{violations[0]['why']}{note}"
    )
    tree.store.close()


def test_pool_chaos_with_mid_soak_reload(tmp_path, rng):
    """The zero-silent-wrong bar holds while the pool drains and remaps
    to a new generation under traffic *and* loses a worker to SIGKILL.

    Both generations are built from the same records, so one oracle
    covers the whole stream; during the drain the server falls back to
    in-process execution, which must stay invisible apart from latency.
    """
    rects = RectArray.from_points(rng.random((N_RECTS, 2)))
    oracle_tree, _ = bulk_load(rects, SortTileRecursive(),
                               capacity=CAPACITY,
                               store=MemoryPageStore(4096))
    oracle = oracle_tree.searcher(512)
    queries = _workload()[:600]
    expected = [frozenset(int(x) for x in oracle.search(q))
                for q in queries]

    tree_a = _durable_tree(tmp_path, rects, "gen-a.pages")
    tree_b = _durable_tree(tmp_path, rects, "gen-b.pages")
    tree_b.store.close()
    violations = []
    reloads = []

    async def client_session(host, port, client_index):
        async with await QueryClient.connect(host, port) as client:
            for qi in range(client_index, len(queries), N_CLIENTS):
                resp = await client.search(queries[qi])
                if not resp.ok:
                    if resp.error not in ALLOWED_ERRORS:
                        violations.append({"query": qi,
                                           "why": "untyped error",
                                           "error": resp.error})
                elif resp.partial:
                    if not frozenset(resp.ids) <= expected[qi]:
                        violations.append({"query": qi,
                                           "why": "partial not subset"})
                elif frozenset(resp.ids) != expected[qi]:
                    violations.append({"query": qi, "why": "wrong ids"})

    async def chaos_session(server, host, port):
        async with await QueryClient.connect(host, port) as client:
            await asyncio.sleep(0.05)
            victim = server.pool.snapshot()["workers"][0]["pid"]
            os.kill(victim, signal.SIGKILL)
            await asyncio.sleep(0.05)
            data = (await client.request(Request(
                op="reload", path=str(tmp_path / "gen-b.pages")
            ))).raise_for_error().data
            reloads.append(data)

    async def scenario():
        async with QueryServer(tree_a, buffer_pages=64, workers=3,
                               allow_reload=True, max_inflight=16,
                               max_queue=64,
                               default_deadline_s=30.0) as server:
            assert server.pool is not None, server.pool_start_error
            host, port = server.address
            await asyncio.gather(
                *[client_session(host, port, i)
                  for i in range(N_CLIENTS)],
                chaos_session(server, host, port),
            )
            t_end = time.monotonic() + 15.0
            while (server.pool.workers_live < 3
                   and time.monotonic() < t_end):
                await asyncio.sleep(0.05)
            return server, server.pool.snapshot()

    server, pool_state = asyncio.run(scenario())
    note = _dump_artifacts(
        {"reloads": reloads, "pool": pool_state,
         "violations": len(violations)}, violations)

    assert len(reloads) == 1
    assert reloads[0]["generation"] == 2
    assert reloads[0]["pool"]["remapped"] >= 1
    assert server.generation == 2
    assert pool_state["generation"] == 2
    assert pool_state["workers_live"] == 3, f"{pool_state}{note}"
    # Every worker — including the one restarted after its SIGKILL —
    # must be serving the new generation.
    assert all(w["generation"] == 2 for w in pool_state["workers"]), (
        f"{pool_state}{note}")
    assert not violations, (
        f"{len(violations)} failed/wrong responses across the reload, "
        f"e.g. {violations[0]}{note}"
    )


@pytest.mark.skipif(not os.environ.get("REPRO_PERF_TESTS"),
                    reason="throughput ratio measures the host's cores; "
                           "set REPRO_PERF_TESTS=1 on multi-core runners")
def test_pooled_throughput_beats_in_process(tmp_path):
    """On a multi-core host, 4 workers must beat one process for the
    concurrent serve workload (the opt-in ``serve_pool`` bench
    scenario's own numbers, so CI gates exactly what ``repro bench
    --workers 4`` reports)."""
    from repro.bench.scenarios import (
        SCENARIOS,
        BenchConfig,
        SuiteContext,
        scenario_serve_pool,
    )

    config = BenchConfig.quick()
    ctx = SuiteContext(config=config, workdir=str(tmp_path),
                       serve_workers=4)
    SCENARIOS["build"](ctx)
    result = scenario_serve_pool(ctx)
    ctx.tree.store.close()
    assert result.extra["workers"] == 4
    assert result.extra["pool_fallbacks"] == 0
    assert result.extra["pool_speedup"] > 1.0, result.extra
