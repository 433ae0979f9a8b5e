"""RL008 durability-ordering: only the staging helpers rename, fsync
comes *before* the publishing rename, the WAL fsync *before* the ack.

Durable files are published by one protocol — write a ``*.tmp-<pid>``
sibling, flush, fsync, then ``os.replace`` it onto the final name —
and that protocol has one implementation,
:func:`repro.pipeline.staging.atomic_publish`.  This rule pins both
halves of that claim: *where* a rename may happen, and *that* the
renames there are safe.  A rename of still-buffered bytes is exactly
the torn-file bug the crash matrix exists to catch — but the crash
matrix only sees schedules it samples; the dataflow proof covers every
path, including the branch nobody's test takes.

Three checks:

**Rename placement** (every file).  A plain AST pass flags any call to
``os.rename``, ``os.replace``, ``os.renames`` or ``shutil.move`` that
the dominance check below does not cover — that is, anywhere outside
the functions of ``pipeline/staging.py``.  Other modules publish
through the staging helpers instead of renaming by hand.

**Rename dominance** (``pipeline/staging.py``).  Flow-sensitive over
:mod:`repro.lint.cfg`.  Per file handle the analysis tracks
``(dirty_buffer, dirty_file, fsync_ever)`` — bytes sitting in the
userspace buffer, bytes in the OS page cache not yet on disk, and
whether the handle was ever fsynced — plus the unparsed source
expression the handle was opened on.  ``write``/``writelines`` (or
passing the handle to any function, which covers ``np.save(f, a)``
and a ``write(f)`` callback) dirty the buffer; ``flush`` moves buffer
to file; ``os.fsync(h.fileno())`` cleans the file; ``close`` and the
``with`` exit flush implicitly.  At an ``os.replace(src, dst)`` some
handle opened on exactly ``src`` must be fully clean and fsynced on
*every* path reaching the rename.  Merges are conservative: a branch
that skips the fsync poisons the join.  Renames in functions that
never open a writable handle and whose source expression does not
mention a temporary move already-durable files and are not checked.

**Ack dominance** (``ingest/wal.py``, ``ingest/state.py``).  The
ingest ack points (:meth:`WriteAheadLog.append`,
:meth:`IngestState.append`) promise "when this returns, the op is
durable".  Each is checked with a must-analysis: every ``return`` must
be dominated by the call that makes the op durable
(``self._physical_append`` / ``self.wal.append``).

Flow analysis runs only where it proves something: on the staging
module's functions and on the two ack points.
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

#: The one module whose functions may rename (under the dominance proof).
STAGING = "repro/pipeline/staging.py"

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
    invariant = ("files are renamed into place only by the staging "
                 "helpers, after write, flush, fsync on the published "
                 "handle; ingest acks are dominated by the WAL fsync")
    path_fragments = ()  # every file: a rename anywhere is in scope

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        proven: set[ast.Call] = set()
        if ctx.path.endswith(STAGING):
            for _, func in functions(ctx.tree):
                yield from self._check_renames(ctx, ctx.cfg(func), proven)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or node in proven:
                continue
            name = resolve_call_name(node.func, ctx.aliases)
            if name in RENAMES:
                yield self.finding(
                    ctx, node,
                    f"raw {name} outside the staging helpers; publish "
                    f"via repro.pipeline.staging (fsync-then-rename) "
                    f"instead")
        for (frag, qualname), durable in ACK_PROTOCOLS.items():
            if frag not in ctx.path:
                continue
            for name, func in functions(ctx.tree):
                if name == qualname:
                    yield from self._check_ack(ctx, ctx.cfg(func), durable)

    # -- rename dominance --------------------------------------------------

    def _check_renames(self, ctx: FileContext, cfg: CFG,
                       proven: set[ast.Call]) -> Iterator[Finding]:
        """Check every reachable rename in ``cfg`` and add it to
        ``proven`` (the placement pass then leaves it alone)."""
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
                proven.add(call)
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
