"""Unified observability: spans, metrics, and run manifests.

The paper's whole argument is carried by one observable — mean disk
accesses per query through an LRU buffer — and this package makes that
(and everything around it: where build time goes, what the buffer pool
did, how long each phase ran) first-class:

* :mod:`~repro.obs.spans` — nested timed regions with wall/CPU clocks
  and JSONL export (``str.sort``, ``bulk.write_level``, ``query.batch``);
* :mod:`~repro.obs.metrics` — a registry of named counters, gauges and
  histograms that absorbs :class:`~repro.storage.counters.IOStats`
  totals and per-query statistics;
* :mod:`~repro.obs.runtime` — the ambient on/off switch: instrumented
  code calls ``obs.span(...)``/``obs.observe(...)`` and pays ~nothing
  while telemetry is disabled (the default);
* :mod:`~repro.obs.manifest` — one JSON record per experiment run
  (config, git SHA, timings, metric snapshot) under ``results/runs/``;
* :mod:`~repro.obs.export` — file writers and path conventions;
* :mod:`~repro.obs.traceview` — span JSONL to Chrome trace-event JSON
  and collapsed-stack flamegraph conversion (``repro report``).

Quick use::

    from repro import obs

    with obs.telemetry() as (tracer, registry):
        tree, report = bulk_load(rects, SortTileRecursive())
    print(tracer.phase_summary())

Telemetry never changes what is measured: counters of record (disk
accesses) are kept by the components themselves and only *copied* into
the registry at batch boundaries.  See ``docs/observability.md``.
"""

from .manifest import (
    DEFAULT_RUN_DIR,
    MANIFEST_FORMAT,
    RunManifest,
    git_sha,
    load_manifest,
    write_manifest,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    percentile,
)
from .slo import RollingWindow
from .runtime import (
    disable,
    enable,
    enabled,
    inc,
    observe,
    record_iostats,
    registry,
    set_gauge,
    span,
    telemetry,
    tracer,
)
from .spans import (
    PHASES,
    Span,
    Tracer,
    phase_of,
    read_spans_jsonl,
    write_spans_jsonl,
)
from .export import (
    RUN_EXTENSIONS,
    default_metrics_path,
    default_trace_path,
    unique_run_stem,
    write_metrics_json,
    write_trace_jsonl,
)
from .traceview import (
    chrome_trace_doc,
    chrome_trace_events,
    concat_span_dicts,
    folded_stacks,
    write_chrome_trace,
    write_folded,
)

__all__ = [
    # spans
    "Span",
    "Tracer",
    "phase_of",
    "PHASES",
    "write_spans_jsonl",
    "read_spans_jsonl",
    # metrics
    "MetricsError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
    # slo
    "RollingWindow",
    # runtime
    "enable",
    "disable",
    "enabled",
    "telemetry",
    "tracer",
    "registry",
    "span",
    "inc",
    "observe",
    "set_gauge",
    "record_iostats",
    # manifests
    "MANIFEST_FORMAT",
    "DEFAULT_RUN_DIR",
    "RunManifest",
    "git_sha",
    "write_manifest",
    "load_manifest",
    # export
    "RUN_EXTENSIONS",
    "write_metrics_json",
    "write_trace_jsonl",
    "default_trace_path",
    "default_metrics_path",
    "unique_run_stem",
    # trace visualisation
    "chrome_trace_events",
    "chrome_trace_doc",
    "write_chrome_trace",
    "folded_stacks",
    "write_folded",
    "concat_span_dicts",
]
