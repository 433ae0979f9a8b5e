"""RL006 worker-picklability: the shard worker survives ``spawn``.

PR 4's parallel builder launches shard workers with whatever start
method the platform offers; under ``spawn`` the worker module is
re-imported in a fresh interpreter and the entry-point spec is
pickled.  Two things quietly break that: module-global *mutable*
state (each spawned worker re-initialises its own copy, so a value
mutated in the parent never reaches the child — byte-identity bugs
that only appear on macOS/Windows), and module-level ``lambda``s
(unpicklable the moment one lands in a spec or is handed to
``Process(target=...)``).

Flagged, for ``pipeline/worker.py`` and the serving layer's
spawn-crossing modules (``serve/pool.py``, ``serve/supervisor.py``,
whose ``worker_main`` and :class:`TreeSpec` are shipped to child
processes the same way, ``serve/child.py``, whose entry point runs
each merge and each reload's ``fsck``, and ``serve/server.py``, whose
``_merge_child`` is the merge's call): module-level assignments whose
value is a mutable container (list/dict/set/bytearray literal or constructor,
``collections`` mutables), and ``lambda`` expressions in module-level
statements.

Immutable module constants (``DONE_FORMAT = "..."``, tuples,
``frozenset``) and state created *inside* ``run_shard`` /
``worker_main`` stay legal — per-shard state belongs in function
scope, where every attempt starts fresh.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import FileContext, Finding, Rule, register, resolve_call_name

__all__ = ["WorkerPicklability"]

MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                    ast.DictComp, ast.SetComp)

MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "bytearray",
    "collections.defaultdict", "collections.deque", "collections.Counter",
    "collections.OrderedDict", "threading.Event", "threading.Lock",
})


def _target_name(node: ast.Assign | ast.AnnAssign) -> str:
    if isinstance(node, ast.AnnAssign):
        targets: list[ast.expr] = [node.target]
    else:
        targets = node.targets
    names = [t.id for t in targets if isinstance(t, ast.Name)]
    return ", ".join(names) if names else "<target>"


@register
class WorkerPicklability(Rule):
    id = "RL006"
    name = "worker-picklability"
    invariant = ("spawn-crossing worker modules hold no module-global "
                 "mutable state and nothing unpicklable under spawn")
    path_fragments = ("repro/pipeline/worker.py", "repro/serve/pool.py",
                      "repro/serve/query.py", "repro/serve/supervisor.py",
                      "repro/serve/child.py", "repro/serve/server.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                name = _target_name(stmt)
                # Dunder module metadata (__all__ etc.) is interpreter
                # convention, never worker state.
                if value is None or name.startswith("__"):
                    continue
                if self._is_mutable(value, ctx):
                    yield self.finding(
                        ctx, stmt,
                        f"module-global mutable {_target_name(stmt)!r}: "
                        f"spawn re-imports the worker module, so mutated "
                        f"globals never reach the child; move it into "
                        f"run_shard scope or make it immutable",
                    )
            for node in ast.walk(stmt):
                if isinstance(node, ast.Lambda) and not isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
                    yield self.finding(
                        ctx, node,
                        "module-level lambda is unpicklable under spawn; "
                        "define a named module-level function",
                    )

    def _is_mutable(self, value: ast.expr, ctx: FileContext) -> bool:
        if isinstance(value, MUTABLE_LITERALS):
            return True
        if isinstance(value, ast.Call):
            name = resolve_call_name(value.func, ctx.aliases)
            return name in MUTABLE_CONSTRUCTORS
        return False
