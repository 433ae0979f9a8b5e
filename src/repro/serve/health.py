"""Health and readiness payloads for the query server.

Three views, all JSON-able and all built from live server state:

* ``healthz`` — liveness + everything an operator wants on one screen:
  breaker state, admission counters, journal-recovery status, quarantine
  size, rolling latency percentiles, per-error-code counts.
* ``readyz`` — the load-balancer answer.  A server is *ready* when its
  tree is attached, the circuit breaker is not open, and it is not
  replacing its worker pool after a generation reload; an open breaker
  means new traffic would be served heavily degraded, so the server asks
  to be drained while still answering in-flight clients.
* ``stats`` — the fuller numeric dump (health + per-store I/O counters).

Ingest-enabled servers additionally report an ``ingest`` block: WAL
depth and bound (the backpressure signal), live/frozen delta sizes,
merge state and write counters in ``healthz``; a condensed
``{overloaded, merging, wal_pending_bytes}`` view in ``readyz`` —
informational only, since merges cut over with zero downtime and WAL
backpressure sheds writes without touching read readiness.

Servers running a multi-process pool additionally report a ``pool``
block (``workers_live``/``workers_total``, per-worker state, restart and
requeue counters, the flap-circuit state and the last restart reason),
so an operator can see a crash-looping worker before it becomes an
availability problem.

The helpers duck-type the store so wrapped stores (fault injection,
striping) report the innermost real device's recovery/corruption counters.
"""

from __future__ import annotations

from typing import Any, Iterator

__all__ = [
    "store_health",
    "healthz_payload",
    "readyz_payload",
    "stats_payload",
]


def _store_chain(store: Any) -> Iterator[Any]:
    """The store and every ``inner`` store beneath it (wrappers first)."""
    seen = set()
    while store is not None and id(store) not in seen:
        seen.add(id(store))
        yield store
        store = getattr(store, "inner", None)


def store_health(store: Any) -> dict:
    """Durability/recovery counters summed over the wrapper chain."""
    chain = list(_store_chain(store))
    out = {
        "page_count": store.page_count,
        "page_size": store.page_size,
        "path": next((s.path for s in chain
                      if getattr(s, "path", None) is not None), None),
        "checksum_failures": sum(getattr(s, "checksum_failures", 0)
                                 for s in chain),
        "recoveries": sum(getattr(s, "recoveries", 0) for s in chain),
        "recovered_pages": sum(getattr(s, "recovered_pages", 0)
                               for s in chain),
        "retry_count": sum(getattr(s, "retry_count", 0) for s in chain),
    }
    out["journal_recovered"] = out["recoveries"] > 0
    return out


def _pool_block(server: Any) -> dict | None:
    """The worker-pool health block, or ``None`` for in-process servers."""
    pool = getattr(server, "pool", None)
    if pool is not None:
        block = pool.snapshot()
        block["enabled"] = True
        block["draining"] = server.draining
        block["fallbacks"] = getattr(server, "pool_fallbacks", 0)
        return block
    if getattr(server, "workers", 0):
        return {
            "enabled": False,
            "workers_total": server.workers,
            "workers_live": 0,
            "reason": getattr(server, "pool_start_error", None),
        }
    return None


def _ingest_block(server: Any) -> dict | None:
    """The full ingest snapshot, or ``None`` for read-only servers."""
    ingest = getattr(server, "ingest", None)
    if ingest is None:
        return None
    block = ingest.snapshot()
    block["enabled"] = True
    return block


def healthz_payload(server: Any) -> dict:
    """Liveness + operational snapshot (always ``ok`` while answering)."""
    payload = {
        "ok": True,
        "uptime_s": server.clock() - server.started_at,
        "tree": {
            "size": len(server.tree),
            "height": server.tree.height,
            "pages": server.tree.page_count,
        },
        "breaker": server.breaker.snapshot(),
        "admission": server.admission.snapshot(),
        "requests_total": server.requests_total,
        "responses_partial": server.partial_total,
        "errors": dict(server.error_counts),
        "degraded_reads": server.degraded_reads,
        "quarantine": {
            "pages": len(server.quarantine),
            "added_at_runtime": server.quarantined_runtime,
        },
        "store": store_health(server.tree.store),
        "sessions": server.session_count,
        "generation": {
            "active": server.generation,
            "path": server.generation_path,
            "reloads": server.reloads_total,
            "reload_enabled": server.allow_reload,
        },
    }
    pool = _pool_block(server)
    if pool is not None:
        payload["pool"] = pool
    ingest = _ingest_block(server)
    if ingest is not None:
        payload["ingest"] = ingest
    payload["latency_s"] = server.latency.summary()
    return payload


def readyz_payload(server: Any) -> dict:
    """Readiness: drain while the breaker is open or a reload is
    replacing the worker pool, serve otherwise."""
    breaker = server.breaker.snapshot()
    store = store_health(server.tree.store)
    draining = server.draining
    payload = {
        "ready": breaker["state"] != "open" and not draining,
        "breaker": breaker,
        "journal": {
            "recovered": store["journal_recovered"],
            "recoveries": store["recoveries"],
            "recovered_pages": store["recovered_pages"],
        },
    }
    pool_block = _pool_block(server)
    if pool_block is not None:
        payload["pool"] = {
            "enabled": pool_block["enabled"],
            "workers_live": pool_block["workers_live"],
            "workers_total": pool_block["workers_total"],
            "degraded": pool_block.get("degraded", False),
            "draining": draining,
            "last_restart_reason":
                pool_block.get("last_restart_reason"),
        }
    ingest = getattr(server, "ingest", None)
    if ingest is not None:
        # A merge never drains readiness (cutover is zero-downtime) and
        # WAL backpressure sheds only writes, so reads stay ready; the
        # block is informational for the balancer's write routing.
        payload["ingest"] = {
            "enabled": True,
            "overloaded": ingest.overloaded,
            "merging": ingest.merging,
            "wal_pending_bytes": ingest.pending_bytes,
        }
    payload["latency_s"] = server.latency.summary()
    if not payload["ready"]:
        payload["reason"] = ("reload drain in progress" if draining
                             else "circuit breaker is open")
    return payload


def stats_payload(server: Any) -> dict:
    """The full numeric dump: healthz plus readiness and shed/trip detail."""
    payload = healthz_payload(server)
    payload["ready"] = (server.breaker.snapshot()["state"] != "open"
                        and not server.draining)
    return payload
