"""Resilient query serving over the durable page store.

The experiment pipeline builds and measures trees in one process; this
package keeps a packed tree *queryable* for many clients while the
storage underneath misbehaves.  The contract, in one line: every
response is **exact**, **explicitly partial**, or a **typed error** —
never silently wrong.

* :mod:`~repro.serve.protocol` — newline-JSON wire format and the typed
  error taxonomy (``BadRequest``, ``DeadlineExceeded``, ``Overloaded``,
  ``IngestOverloaded``, ``StoreUnavailable``, ``ReloadRejected``,
  ``MergeFailed``, ``WorkerLost``);
* :mod:`~repro.serve.deadline` — per-request deadlines with an
  injectable clock, propagated into the paged search loop as a
  cooperative cancellation hook;
* :mod:`~repro.serve.admission` — bounded in-flight work plus a
  shed-on-full FIFO queue;
* :mod:`~repro.serve.query` — the one query executor: request
  validation and execution through an overlay searcher, shared by
  every serving path;
* :mod:`~repro.serve.server` — :class:`QueryServer`: asyncio sockets,
  circuit-breaker-guarded reads, degraded (``partial=true``) responses,
  runtime page quarantine, health endpoints, and zero-downtime
  generation cutover via the ``reload`` admin op;
* :mod:`~repro.serve.client` — :class:`QueryClient` for tests, tools
  and the chaos soak, with opt-in seeded reconnect-with-backoff;
* :mod:`~repro.serve.health` — ``healthz``/``readyz``/``stats`` payload
  builders;
* :mod:`~repro.serve.pool` + :mod:`~repro.serve.supervisor` —
  :class:`WorkerPool`: supervised, crash-isolated worker processes
  sharing generation files read-only via ``mmap``, with at-most-once
  re-dispatch, exponential-backoff restarts and flap-detection
  degradation.

Servers started with an :class:`~repro.ingest.state.IngestState` also
accept durable ``insert``/``delete`` writes (acked after WAL fsync,
served as packed ∪ delta − tombstones) and the ``merge`` admin op —
see :mod:`repro.ingest` and ``docs/ingest.md``.

Start one from a durable tree file with ``python -m repro serve
tree.pages``; see ``docs/serving.md`` for the protocol and failure
semantics.
"""

from .admission import AdmissionController
from .client import QueryClient
from .deadline import Deadline
from .health import healthz_payload, readyz_payload, stats_payload, store_health
from .pool import PoolUnavailable, TreeSpec, WorkerPool
from .protocol import (
    ADMIN_OPS,
    ERROR_TYPES,
    OPS,
    PROTOCOL_VERSION,
    QUERY_OPS,
    REQUEST_LINE_LIMIT,
    RESPONSE_LINE_LIMIT,
    WRITE_OPS,
    BadRequest,
    DeadlineExceeded,
    IngestOverloaded,
    MergeFailed,
    Overloaded,
    ReloadRejected,
    Request,
    Response,
    ServeError,
    StoreUnavailable,
    WorkerLost,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    rect_from_wire,
    rect_to_wire,
)
from .server import QueryServer
from .supervisor import FlapDetector, RestartBackoff, WorkerState

__all__ = [
    # protocol
    "PROTOCOL_VERSION",
    "REQUEST_LINE_LIMIT",
    "RESPONSE_LINE_LIMIT",
    "QUERY_OPS",
    "WRITE_OPS",
    "ADMIN_OPS",
    "OPS",
    "ServeError",
    "BadRequest",
    "DeadlineExceeded",
    "Overloaded",
    "IngestOverloaded",
    "StoreUnavailable",
    "ReloadRejected",
    "MergeFailed",
    "WorkerLost",
    "ERROR_TYPES",
    "Request",
    "Response",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "rect_from_wire",
    "rect_to_wire",
    # components
    "Deadline",
    "AdmissionController",
    "QueryServer",
    "QueryClient",
    # multi-process pool
    "WorkerPool",
    "TreeSpec",
    "PoolUnavailable",
    "RestartBackoff",
    "FlapDetector",
    "WorkerState",
    # health
    "healthz_payload",
    "readyz_payload",
    "stats_payload",
    "store_health",
]
