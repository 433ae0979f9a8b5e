"""RL008 durability-ordering: fsync *before* the publishing rename,
WAL fsync *before* the ack.

RL002 pins *where* renames may happen (the blessed staging helpers);
this rule checks *that the blessed helpers are actually safe*: on
every path to an ``os.replace`` that publishes a file, the temporary
it publishes was written, flushed, and fsynced on the same handle.  A
rename of still-buffered bytes is exactly the torn-file bug the crash
matrix exists to catch — but the crash matrix only sees schedules it
samples; the dataflow proof covers every path, including the branch
nobody's test takes.

Two checks, both flow-sensitive over :mod:`repro.lint.cfg`:

**Rename dominance.**  Per file handle the analysis tracks
``(dirty_buffer, dirty_file, fsync_ever)`` — bytes sitting in the
userspace buffer, bytes in the OS page cache not yet on disk, and
whether the handle was ever fsynced — plus the unparsed source
expression the handle was opened on.  ``write``/``writelines`` (or
passing the handle to any function, which covers ``np.save(f, a)``
and ``json.dump(obj, f)``) dirty the buffer; ``flush`` moves buffer
to file; ``os.fsync(h.fileno())`` cleans the file; ``close`` and the
``with`` exit flush implicitly.  At an ``os.replace(src, dst)`` some
handle opened on exactly ``src`` must be fully clean and fsynced on
*every* path reaching the rename.  Merges are conservative: a branch
that skips the fsync poisons the join.  Renames in functions that
never open a writable handle and whose source expression does not
mention a temporary are out of scope — they move already-durable
files (segment GC, directory shuffles), which is RL002's beat.

**Ack dominance.**  The ingest ack points
(:meth:`WriteAheadLog.append`, :meth:`IngestState.append`) promise
"when this returns, the op is durable".  Each is checked with a
must-analysis: every ``return`` must be dominated by the call that
makes the op durable (``self._physical_append`` / ``self.wal.append``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..cfg import CFG, CFGNode, calls_in, functions
from ..dataflow import run_forward
from ..engine import FileContext, Finding, Rule, register, resolve_call_name

__all__ = ["DurabilityOrdering"]

RENAMES = ("os.rename", "os.replace", "os.renames", "shutil.move")
OPENS = ("open", "io.open", "os.fdopen")

#: (path fragment, function qualname) -> call patterns that make the
#: op durable before the function's returns may ack it.
ACK_PROTOCOLS: dict[tuple[str, str], frozenset[str]] = {
    ("repro/ingest/wal.py", "WriteAheadLog.append"):
        frozenset({"self._physical_append", "os.fsync"}),
    ("repro/ingest/state.py", "IngestState.append"):
        frozenset({"self.wal.append"}),
}

#: handle state: (dirty_buffer, dirty_file, fsync_ever, src_expr)
Handle = tuple[bool, bool, bool, str]
State = dict[str, Handle]


def _writable_open(call: ast.Call, aliases: dict[str, str]) -> str | None:
    """The unparsed path expression when ``call`` opens a writable
    handle, else ``None``."""
    name = resolve_call_name(call.func, aliases)
    if name not in OPENS or not call.args:
        return None
    mode: ast.expr | None = call.args[1] if len(call.args) > 1 else None
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return None  # default "r"
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return ast.unparse(call.args[0])  # dynamic mode: assume writable
    if any(ch in mode.value for ch in "wax+"):
        return ast.unparse(call.args[0])
    return None


def _method_target(call: ast.Call) -> tuple[str, str] | None:
    """``(var, method)`` for a ``var.method(...)`` call."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id, func.attr
    return None


def _fsync_target(call: ast.Call, aliases: dict[str, str]) -> str | None:
    """The handle variable of an ``os.fsync(h.fileno())`` call."""
    if resolve_call_name(call.func, aliases) != "os.fsync" or not call.args:
        return None
    arg = call.args[0]
    if isinstance(arg, ast.Call):
        target = _method_target(arg)
        if target is not None and target[1] == "fileno":
            return target[0]
    if isinstance(arg, ast.Name):
        return arg.id
    return None


def _merge(a: State, b: State) -> State:
    out: State = {}
    for var in a.keys() & b.keys():
        ha, hb = a[var], b[var]
        if ha[3] != hb[3]:
            continue  # rebound to a different source: unusable
        out[var] = (ha[0] or hb[0], ha[1] or hb[1],
                    ha[2] and hb[2], ha[3])
    return out


@register
class DurabilityOrdering(Rule):
    id = "RL008"
    name = "durability-ordering"
    invariant = ("publishing renames are dominated by write, flush, "
                 "fsync on the published handle; ingest acks are "
                 "dominated by the WAL fsync")
    path_fragments = (
        # the RL002-blessed rename modules…
        "repro/pipeline/staging.py",
        "repro/core/packing/external.py",
        # …and the ack points
        "repro/ingest/wal.py",
        "repro/ingest/state.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for qualname, func in functions(ctx.tree):
            cfg = ctx.cfg(func)
            yield from self._check_renames(ctx, cfg)
            for (frag, name), durable in ACK_PROTOCOLS.items():
                if frag in ctx.path and name == qualname:
                    yield from self._check_ack(ctx, cfg, durable)

    # -- rename dominance --------------------------------------------------

    def _check_renames(self, ctx: FileContext,
                       cfg: CFG) -> Iterator[Finding]:
        opens_writable = any(
            _writable_open(node, ctx.aliases) is not None
            for node in ast.walk(cfg.func)
            if isinstance(node, ast.Call))

        def transfer(node: CFGNode, state: State) -> State:
            return self._transfer(node, state, ctx)

        sol = run_forward(cfg, init={}, transfer=transfer, merge=_merge)
        for node in cfg.nodes:
            state = sol.before[node.id]
            if state is None or node.stmt is None:
                continue
            for call in calls_in(node.stmt):
                name = resolve_call_name(call.func, ctx.aliases)
                if name not in RENAMES or not call.args:
                    continue
                src = ast.unparse(call.args[0])
                if not opens_writable and "tmp" not in src.lower():
                    continue  # moves an already-durable file
                handles = [h for h in state.values() if h[3] == src]
                if any(h[:3] == (False, False, True) for h in handles):
                    continue
                if handles:
                    why = ("its handle was not flushed and fsynced "
                           "on every path to the rename")
                else:
                    why = ("no handle opened on that expression is "
                           "live here")
                yield self.finding(
                    ctx, call,
                    f"{name} publishes {src} but {why}; the durable "
                    f"order is write, flush, os.fsync, then rename")

    def _transfer(self, node: CFGNode, state: State,
                  ctx: FileContext) -> State:
        stmt = node.stmt
        if stmt is None:
            return state
        if node.kind == "with-exit":
            # __exit__ == close: buffered bytes reach the file.
            return self._close_with_vars(stmt, state)
        out = dict(state)
        for call in calls_in(stmt):
            fsynced = _fsync_target(call, ctx.aliases)
            if fsynced is not None:
                if fsynced in out:
                    h = out[fsynced]
                    out[fsynced] = (h[0], False, True, h[3])
                continue
            target = _method_target(call)
            if target is not None and target[0] in out:
                var, method = target
                h = out[var]
                if method in ("write", "writelines"):
                    out[var] = (True, h[1], h[2], h[3])
                elif method == "flush":
                    out[var] = (False, h[1] or h[0], h[2], h[3])
                elif method == "close":
                    out[var] = (False, h[1] or h[0], h[2], h[3])
                elif method == "truncate":
                    out[var] = (h[0], True, h[2], h[3])
                # seek/tell/fileno/read: no durability effect
                continue
            # The handle passed to any other callable: assume it wrote.
            for arg in [*call.args, *(kw.value for kw in call.keywords)]:
                if isinstance(arg, ast.Name) and arg.id in out:
                    h = out[arg.id]
                    out[arg.id] = (True, h[1], h[2], h[3])
        # (re)bindings last: `f = open(...)` sees the open, not a write
        for var, src in self._bindings(stmt, ctx):
            if src is None:
                out.pop(var, None)
            else:
                out[var] = (False, False, False, src)
        return out

    def _bindings(self, stmt: ast.stmt, ctx: FileContext
                  ) -> Iterator[tuple[str, str | None]]:
        """``(var, src_expr | None)`` for handle (re)bindings in one
        statement; ``None`` means the var now holds something else."""
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            var = stmt.targets[0].id
            src = (_writable_open(stmt.value, ctx.aliases)
                   if isinstance(stmt.value, ast.Call) else None)
            yield var, src
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if not isinstance(item.optional_vars, ast.Name):
                    continue
                if not isinstance(item.context_expr, ast.Call):
                    continue
                src = _writable_open(item.context_expr, ctx.aliases)
                if src is not None:
                    yield item.optional_vars.id, src

    def _close_with_vars(self, stmt: ast.stmt, state: State) -> State:
        if not isinstance(stmt, (ast.With, ast.AsyncWith)):
            return state
        out = dict(state)
        for item in stmt.items:
            if isinstance(item.optional_vars, ast.Name):
                var = item.optional_vars.id
                if var in out:
                    h = out[var]
                    out[var] = (False, h[1] or h[0], h[2], h[3])
        return out

    # -- ack dominance -----------------------------------------------------

    def _check_ack(self, ctx: FileContext, cfg: CFG,
                   durable_calls: frozenset[str]) -> Iterator[Finding]:
        def makes_durable(stmt: ast.stmt) -> bool:
            for call in calls_in(stmt):
                name = ast.unparse(call.func)
                resolved = resolve_call_name(call.func, ctx.aliases)
                if name in durable_calls or resolved in durable_calls:
                    return True
            return False

        def transfer(node: CFGNode, durable: bool) -> bool:
            if node.stmt is not None and makes_durable(node.stmt):
                return True
            return durable

        sol = run_forward(cfg, init=False, transfer=transfer,
                          merge=lambda a, b: a and b)
        for node in cfg.nodes:
            if not isinstance(node.stmt, ast.Return) or node.kind != "stmt":
                continue
            durable = sol.after[node.id]
            if durable is False:
                yield self.finding(
                    ctx, node.stmt,
                    f"{cfg.func.name!r} acks (returns) on a path not "
                    f"dominated by its durability call "
                    f"({', '.join(sorted(durable_calls))}); the WAL "
                    f"fsync is the ack point")
