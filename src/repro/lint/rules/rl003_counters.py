"""RL003 counter-purity: observability can watch I/O but never touch it.

PR 1's contract is that telemetry is *provably non-perturbing*: the
paper's ``mean_accesses`` figures are bit-identical with tracing on or
off.  Two structural properties keep that true:

1. the dependency arrow points one way — the storage layer reports
   into ``repro.obs`` (``obs.inc``, ``obs.span``, and
   ``obs.record_iostats`` for ``IOStats`` totals), so nothing in
   ``repro.obs`` may import from ``repro.storage`` (or name
   ``IOStats`` at all); and
2. error-handling paths never move *access* counters — a retried read
   or an absorbed decode failure must not bump ``disk_reads`` twice,
   so no increment of an ``IOStats`` field or an ``io.*`` metric
   (``stats.disk_reads += 1``, ``obs.inc("io.disk_reads")``,
   ``registry.counter("io.x").inc()``) may sit inside an ``except``
   handler in ``rtree/`` or ``storage/``.

*Failure* counters are the explicit exception: bumping
``storage.checksum_failures`` or ``storage.retries`` inside a handler
is exactly what those metrics are for, and they are not part of the
paper's access-count protocol.

Flagged accordingly: storage imports / ``IOStats`` references inside
``repro/obs/``; access-counter mutations inside ``except`` bodies in
the search/storage packages.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import FileContext, Finding, Rule, register, resolve_call_name

__all__ = ["CounterPurity"]

#: The IOStats fields (mirrored, not imported: importing storage from a
#: lint rule that polices storage imports would be a fine irony).
IO_FIELDS = frozenset(
    {"disk_reads", "disk_writes", "buffer_hits", "buffer_misses",
     "evictions"}
)

#: Method names that mutate metric instruments.
MUTATOR_METHODS = frozenset({"inc", "observe"})

#: Metric-name prefix of the access counters (the ``IOStats`` fields).
IO_METRIC_PREFIX = "io."


def _io_metric_name(node: ast.Call) -> str | None:
    """The ``io.*`` metric name this call addresses, if any."""
    if (node.args and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and node.args[0].value.startswith(IO_METRIC_PREFIX)):
        return node.args[0].value
    return None


def _imports_storage(node: ast.Import | ast.ImportFrom) -> str | None:
    """The offending module path if this import reaches into storage."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.startswith("repro.storage"):
                return alias.name
        return None
    module = "." * node.level + (node.module or "")
    if module.startswith("repro.storage") or ".storage" in module:
        return module
    for alias in node.names:
        if alias.name == "storage" and node.level:
            return f"{module}.{alias.name}"
        if alias.name == "IOStats":
            return f"{module}.{alias.name}"
    return None


@register
class CounterPurity(Rule):
    id = "RL003"
    name = "counter-purity"
    invariant = ("repro.obs never imports repro.storage, and access "
                 "counters never move inside except handlers")
    path_fragments = ("repro/obs/", "repro/rtree/", "repro/storage/",
                      "repro/ingest/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if "repro/obs/" in ctx.path:
            yield from self._check_obs(ctx)
        else:
            yield from self._check_handlers(ctx)

    def _check_obs(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                offender = _imports_storage(node)
                if offender is not None:
                    yield self.finding(
                        ctx, node,
                        f"repro.obs imports {offender}; the dependency "
                        f"arrow is storage -> obs, never back "
                        f"(telemetry must stay non-perturbing)",
                    )

    def _check_handlers(self, ctx: FileContext) -> Iterator[Finding]:
        for handler in ast.walk(ctx.tree):
            if not isinstance(handler, ast.ExceptHandler):
                continue
            for stmt in handler.body:
                for node in ast.walk(stmt):
                    mutation = self._counter_mutation(node, ctx)
                    if mutation is not None:
                        yield self.finding(
                            ctx, node,
                            f"{mutation} inside an except handler; error "
                            f"paths must never move access counters "
                            f"(retries would double-count the paper's "
                            f"disk-access figures)",
                        )

    def _counter_mutation(self, node: ast.AST,
                          ctx: FileContext) -> str | None:
        if (isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)
                and node.target.attr in IO_FIELDS):
            return f"increment of .{node.target.attr}"
        if not isinstance(node, ast.Call):
            return None
        name = resolve_call_name(node.func, ctx.aliases)
        if name is not None and (name.endswith("obs.inc")
                                 or name.endswith("obs.observe")):
            metric = _io_metric_name(node)
            if metric is not None:
                return f"call to {name.lstrip('.')}({metric!r})"
            return None
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_METHODS):
            # registry.counter("io.x").inc() — the access-counter name
            # lives on the instrument-lookup call one hop down; a bare
            # .inc() on an IOStats field attribute counts too.
            receiver = node.func.value
            if isinstance(receiver, ast.Call):
                metric = _io_metric_name(receiver)
                if metric is not None:
                    return (f"metric .{node.func.attr}() call on "
                            f"{metric!r}")
            if (isinstance(receiver, ast.Attribute)
                    and receiver.attr in IO_FIELDS):
                return (f"metric .{node.func.attr}() call on "
                        f".{receiver.attr}")
        return None
