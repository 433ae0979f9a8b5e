"""Chaos soak: many concurrent clients against a misbehaving store.

The serving acceptance property, verified end-to-end over real sockets:
with transient read faults injected under the retry layer and at-rest
bit flips hiding beneath the checksum layer, **every one** of >= 2000
responses from >= 8 concurrent clients is

* bit-identical to a clean-store oracle (``ok`` and not ``partial``), or
* explicitly ``partial=true`` with an id set that is a *subset* of the
  oracle's (degraded reads under-report, never fabricate), or
* a typed error (``DeadlineExceeded`` / ``Overloaded`` /
  ``StoreUnavailable``).

Zero silently-wrong results, by exhaustive comparison.  On failure the
full violation list, run manifest and server state dump land in
``$REPRO_CHAOS_REPORT_DIR`` (CI uploads them as artifacts).
"""

import asyncio
import json
import os


from repro import RectArray, SortTileRecursive, bulk_load, obs
from repro.queries import point_queries, region_queries
from repro.rtree.paged import PagedRTree
from repro.serve import QueryClient, QueryServer, Request
from repro.storage import (
    FaultInjectingPageStore,
    FaultPlan,
    FilePageStore,
    MemoryPageStore,
    RetryPolicy,
)
from repro.storage.faults import corrupt_pages
from repro.storage.integrity import TRAILER_SIZE
from repro.storage.page import required_page_size

N_RECTS = 3_000
CAPACITY = 25
N_CLIENTS = 8
QUERIES_PER_CLIENT = 250  # 8 x 250 = 2000 total
ALLOWED_ERRORS = {"DeadlineExceeded", "Overloaded", "StoreUnavailable"}
#: Every 40th request carries a nanosecond deadline: a guaranteed, typed
#: DeadlineExceeded mixed into the stream.
DOOMED_STRIDE = 40


def _workload():
    queries = list(region_queries(0.04, 1_200, seed=71))
    queries += list(point_queries(800, seed=72))
    return queries


def _report_dir():
    return os.environ.get("REPRO_CHAOS_REPORT_DIR", "")


def _dump_artifacts(summary, violations, server_state):
    out_dir = _report_dir()
    if not out_dir:
        return ""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    manifest = obs.RunManifest.collect(
        "serve-chaos", duration_s=summary["duration_s"],
        extra={"chaos": summary},
    )
    paths.append(obs.write_manifest(manifest, out_dir))
    state_path = os.path.join(out_dir, "chaos-server-state.json")
    with open(state_path, "w") as f:
        json.dump(server_state, f, indent=2, default=str)
    paths.append(state_path)
    if violations:
        vpath = os.path.join(out_dir, "chaos-violations.json")
        with open(vpath, "w") as f:
            json.dump(violations[:100], f, indent=2, default=str)
        paths.append(vpath)
    return f" (artifacts: {', '.join(paths)})"


def test_chaos_soak_no_silently_wrong_answers(tmp_path, rng):
    import time
    started = time.time()
    rects = RectArray.from_points(rng.random((N_RECTS, 2)))

    # Clean oracle: same deterministic STR build, pristine memory store.
    oracle_tree, _ = bulk_load(rects, SortTileRecursive(), capacity=CAPACITY,
                               store=MemoryPageStore(4096))
    oracle = oracle_tree.searcher(512)
    queries = _workload()
    expected = [frozenset(int(x) for x in oracle.search(q)) for q in queries]

    # Durable on-disk build, then sabotage: three leaf pages take at-rest
    # bit flips beneath the checksum layer.
    page_size = required_page_size(CAPACITY, 2) + TRAILER_SIZE
    path = tmp_path / "chaos.pages"
    store = FilePageStore(path, page_size, checksums=True)
    tree, _ = bulk_load(rects, SortTileRecursive(), capacity=CAPACITY,
                        store=store)
    leaves = tree.level_pages(0)
    corrupt = {leaves[0], leaves[len(leaves) // 2], leaves[-1]}
    store.close()

    reopened = FilePageStore.open_existing(path)
    for pid in sorted(corrupt):
        corrupt_pages(reopened, [(pid, reopened.page_size * 4 + 1)])

    # Transient read faults under a jittered (zero-wall-clock) retry: the
    # plan injects at most 2 consecutive faults, the policy retries 4
    # times, so transients are always absorbed invisibly.
    plan = FaultPlan(seed=123, p_transient_read=0.08,
                     max_transient_per_op=2)
    faulty = FaultInjectingPageStore(
        reopened, plan,
        retry=RetryPolicy(attempts=4, backoff_s=0.001, jitter=True, seed=5,
                          sleep=lambda s: None),
    )
    served_tree = PagedRTree.from_store(faulty)

    outcomes = {"exact": 0, "partial": 0}
    violations = []

    async def client_session(host, port, client_index):
        indices = list(range(client_index, len(queries), N_CLIENTS))
        async with await QueryClient.connect(host, port) as client:
            for n, qi in enumerate(indices):
                doomed = n % DOOMED_STRIDE == 7
                resp = await client.search(
                    queries[qi], deadline_s=1e-9 if doomed else None)
                record = {"client": client_index, "query": qi,
                          "response": resp.__dict__}
                if not resp.ok:
                    if resp.error not in ALLOWED_ERRORS:
                        violations.append({**record,
                                           "why": "untyped error"})
                    elif resp.ids is not None:
                        violations.append({**record,
                                           "why": "error carries ids"})
                    else:
                        outcomes[resp.error] = outcomes.get(resp.error,
                                                            0) + 1
                    continue
                if doomed:
                    violations.append({**record,
                                       "why": "success past a 1ns deadline"})
                    continue
                got = frozenset(resp.ids)
                if resp.partial:
                    if not got <= expected[qi]:
                        violations.append({**record,
                                           "why": "partial ids not a subset"})
                    else:
                        outcomes["partial"] += 1
                elif got != expected[qi]:
                    violations.append({**record,
                                       "why": "non-partial ids != oracle"})
                else:
                    outcomes["exact"] += 1

    async def scenario():
        async with QueryServer(served_tree, buffer_pages=48,
                               max_inflight=4, max_queue=16,
                               default_deadline_s=30.0) as server:
            host, port = server.address
            await asyncio.gather(*[
                client_session(host, port, i) for i in range(N_CLIENTS)
            ])
            return server

    server = asyncio.run(scenario())

    total = sum(outcomes.values())
    summary = {
        "duration_s": time.time() - started,
        "clients": N_CLIENTS,
        "queries": total,
        "outcomes": outcomes,
        "violations": len(violations),
        "injected": dict(plan.injected),
        "retries": faulty.retry_count,
        "corrupt_pages": sorted(corrupt),
        "quarantined_at_runtime": sorted(server.quarantine),
    }
    server_state = {
        "breaker": server.breaker.snapshot(),
        "admission": server.admission.snapshot(),
        "error_counts": dict(server.error_counts),
        "latency": server.latency.summary(),
        "degraded_reads": server.degraded_reads,
    }
    note = _dump_artifacts(summary, violations, server_state)

    # The soak must have actually exercised the chaos, not dodged it.
    assert total + len(violations) == N_CLIENTS * QUERIES_PER_CLIENT
    assert plan.injected["transient_read"] > 0, "no transient faults fired"
    assert faulty.retry_count > 0
    assert outcomes["partial"] > 0, "no degraded responses produced"
    assert outcomes["exact"] > 0
    assert outcomes.get("DeadlineExceeded", 0) > 0
    assert server.quarantine == corrupt  # every bad page was caught
    # ... and the one property that matters: nothing silently wrong.
    assert not violations, (
        f"{len(violations)} silently-wrong or mistyped responses, e.g. "
        f"{violations[0]['why']}{note}"
    )


def test_chaos_soak_with_mid_traffic_reloads(tmp_path, rng):
    """The soak's zero-silent-wrong bar holds while the serving
    generation is swapped underneath the traffic.

    Two durable files are built from the *same* records (byte-identical
    trees), and a reload client flips the server between them while the
    query clients run.  Because both generations answer identically, one
    oracle covers the whole stream: every response must be exact and ok
    — a failed or wrong query during any of the cutovers fails the test.
    """
    import time
    started = time.time()
    rects = RectArray.from_points(rng.random((N_RECTS, 2)))
    oracle_tree, _ = bulk_load(rects, SortTileRecursive(),
                               capacity=CAPACITY,
                               store=MemoryPageStore(4096))
    oracle = oracle_tree.searcher(512)
    queries = _workload()[:1_200]
    expected = [frozenset(int(x) for x in oracle.search(q))
                for q in queries]

    page_size = required_page_size(CAPACITY, 2) + TRAILER_SIZE
    paths = []
    for name in ("gen-a.pages", "gen-b.pages"):
        path = tmp_path / name
        store = FilePageStore(path, page_size, checksums=True)
        bulk_load(rects, SortTileRecursive(), capacity=CAPACITY,
                  store=store)
        store.close()
        paths.append(path)

    served = PagedRTree.from_store(FilePageStore.open_existing(paths[0]))
    violations = []
    reload_count = 0

    async def client_session(host, port, client_index):
        async with await QueryClient.connect(host, port) as client:
            for qi in range(client_index, len(queries), N_CLIENTS):
                resp = await client.search(queries[qi])
                if not resp.ok:
                    violations.append({"query": qi, "why": "failed",
                                       "error": resp.error})
                elif resp.partial:
                    violations.append({"query": qi, "why": "partial"})
                elif frozenset(resp.ids) != expected[qi]:
                    violations.append({"query": qi, "why": "wrong ids"})

    async def reload_session(host, port):
        nonlocal reload_count
        async with await QueryClient.connect(host, port) as client:
            flips = [paths[1], paths[0], paths[1], paths[0]]
            for target in flips:
                await asyncio.sleep(0.02)
                (await client.request(
                    Request(op="reload", path=str(target))
                )).raise_for_error()
                reload_count += 1

    async def scenario():
        async with QueryServer(served, buffer_pages=48,
                               allow_reload=True, max_inflight=8,
                               default_deadline_s=30.0) as server:
            host, port = server.address
            await asyncio.gather(
                *[client_session(host, port, i)
                  for i in range(N_CLIENTS)],
                reload_session(host, port),
            )
            return server

    server = asyncio.run(scenario())

    summary = {
        "duration_s": time.time() - started,
        "clients": N_CLIENTS,
        "queries": len(queries),
        "reloads": reload_count,
        "violations": len(violations),
        "final_generation": server.generation,
    }
    note = _dump_artifacts(summary, violations,
                           {"error_counts": dict(server.error_counts)})
    assert reload_count == 4
    assert server.generation == 5
    assert not violations, (
        f"{len(violations)} failed/wrong responses across reloads, e.g. "
        f"{violations[0]}{note}"
    )
