"""RL007 sealed-wal-determinism: the merge reads only sealed bytes.

The streaming-ingest merge (:mod:`repro.ingest.merge`) is
kill-resumable *because* it is a pure function of bytes that stop
changing: the committed packed generation plus the **sealed** WAL
segments.  Re-running it after a SIGKILL must rebuild the identical
generation file, and the generation pointer must atomically name both
the new file and the drained segment prefix.  That all collapses if the
merge ever touches the *active* (still-growing) segment or mutates the
log it is draining.

Flagged, in ``repro/ingest/merge.py`` only:

* importing or referencing :class:`~repro.ingest.wal.WriteAheadLog` —
  the appender owns the active segment; the merge parses sealed
  segment files via :class:`~repro.ingest.wal.WalSegment` instead;
* ``open(..., "w"/"a"/"+")`` on anything but a ``*.tmp-*`` sibling —
  the merge writes through the page store and publishes the pointer
  through :func:`repro.pipeline.staging.atomic_write_bytes`, never raw
  writable handles (the one exception is the crash-injection path
  parking a torn pointer image on a temporary sibling that nothing
  references; no rename follows it, and RL008 flags any rename
  outside the staging helpers);
* calls to ``.seal_active(...)`` or ``.truncate(...)`` — sealing is
  the *server's* half of the protocol (under its write lock) and
  truncation is recovery's; the merge does neither.

``list.append`` and friends stay legal — only the log-mutating method
names above are banned, not generic container ops.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import FileContext, Finding, Rule, register

__all__ = ["SealedWalDeterminism"]

#: Attribute/method calls that mutate a write-ahead log.
BANNED_METHODS = frozenset({"seal_active", "truncate"})

#: Mode characters that make an ``open`` writable.
WRITABLE = ("w", "a", "+", "x")


def _writable_open_mode(node: ast.Call) -> str | None:
    """The literal mode string when this is a writable ``open`` call."""
    mode: ast.expr | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            and any(ch in mode.value for ch in WRITABLE)):
        return mode.value
    return None


def _opens_tmp_sibling(node: ast.Call) -> bool:
    """Is the opened path visibly a ``*.tmp-*`` sibling (an f-string or
    literal containing ``.tmp-``)?  Those are unreferenced scratch
    files; everything else writable is a violation."""
    if not node.args:
        return False
    target = node.args[0]
    parts: list[str] = []
    if isinstance(target, ast.Constant) and isinstance(target.value, str):
        parts.append(target.value)
    elif isinstance(target, ast.JoinedStr):
        parts.extend(v.value for v in target.values
                     if isinstance(v, ast.Constant)
                     and isinstance(v.value, str))
    return any(".tmp-" in part for part in parts)


@register
class SealedWalDeterminism(Rule):
    id = "RL007"
    name = "sealed-wal-determinism"
    invariant = ("the background merge consumes only sealed WAL bytes "
                 "and never appends, seals, or truncates the log")
    path_fragments = ("repro/ingest/merge.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name == "WriteAheadLog":
                        yield self.finding(
                            ctx, node,
                            "merge.py imports WriteAheadLog; the merge "
                            "reads sealed segments via WalSegment.load "
                            "and must never hold the appender",
                        )
            elif (isinstance(node, ast.Name)
                    and node.id == "WriteAheadLog"):
                yield self.finding(
                    ctx, node,
                    "merge.py references WriteAheadLog; draining code "
                    "must not be able to mutate the log it drains",
                )
            elif isinstance(node, ast.Call):
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr in BANNED_METHODS):
                    yield self.finding(
                        ctx, node,
                        f".{node.func.attr}() in merge.py; sealing and "
                        f"truncation belong to the server/recovery, the "
                        f"merge only reads sealed bytes",
                    )
                elif (isinstance(node.func, ast.Name)
                        and node.func.id == "open"):
                    mode = _writable_open_mode(node)
                    if mode is not None and not _opens_tmp_sibling(node):
                        yield self.finding(
                            ctx, node,
                            f"open(..., {mode!r}) in merge.py; the merge "
                            f"writes only through the page store and "
                            f"the atomic staging helpers",
                        )
