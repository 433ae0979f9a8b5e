"""Run one blocking call in a forked child process.

The server's merge re-pack (:func:`repro.ingest.merge.merge_segments`)
and the cutover's ``fsck`` are functions of files on disk and nothing
else, so they need none of the server's memory that a fork does not
already give them.  Running each in a child keeps them off the serving
interpreter: the executor thread that waits on the child's pipe holds
no GIL while it waits, so reads and acked writes keep running at full
speed beside the merge.

:func:`run_in_child` forks (``fork`` where available, else ``spawn``,
as the worker pool and the parallel build do), and the child answers
with one message: the call's result or the exception it raised, the
spans and metrics it recorded, and its memory.  The caller folds the
spans into its active tracer (re-indexed by the tracer's own counter;
``perf_counter`` reads the same monotonic clock in both processes) and
the metrics into its active registry, then reaps the child before it
returns, so the child's I/O counts in the caller's ``/proc/self/io``.

What the child may touch.  A forked child inherits every socket, file
object and lock of the server: the WAL's active segment (whose buffer
may hold another thread's half-done append), the search lock a reader
may hold.  So the child reads and writes only files it opens by path,
takes no lock another thread can hold (logging's included), and leaves
through ``os._exit`` as soon as it has answered, never through
interpreter shutdown, so no inherited file object is flushed or
closed.  It ignores SIGINT:
a Ctrl-C reaches the whole process group, and the server, which
finishes a merge in flight before it exits, decides.

The child dies with the server.  A daemon thread in the child
(:func:`exit_with_parent`, which pool workers start too) waits on the
server's process sentinel and ends the child at once when it fires, so
an orphaned merge never commits a pointer under a restarted server
(the merge is SIGKILL-resumable, so ending it anywhere is safe).  A
child that dies without answering (SIGKILL, the OOM killer) raises
:class:`ChildDied` naming the signal or exit code; the call never
hangs on it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, TypeVar

from ..obs import runtime as obs
from ..obs.metrics import MetricsRegistry

__all__ = ["ChildDied", "exit_with_parent", "run_in_child"]

T = TypeVar("T")

#: Exit code of a child whose server died under it.
ORPHANED_EXIT = 75

#: ``(file, line prefix, memory key)`` the child reads just before it
#: answers: its peak resident set, and the pages it dirtied on top of
#: those it shares with the server.
_MEMORY_LINES = (
    ("/proc/self/status", "VmHWM:", "peak_rss_mb"),
    ("/proc/self/smaps_rollup", "Private_Dirty:", "private_dirty_mb"),
)


class ChildDied(RuntimeError):
    """The child ended without answering (killed, or exited early)."""


def exit_with_parent() -> None:
    """End this child process the moment its parent is gone.

    Starts one daemon thread that blocks on the parent's process
    sentinel, then leaves through ``os._exit`` with
    :data:`ORPHANED_EXIT`: it costs one blocked thread and nothing per
    request.  Merge children and pool workers both start it first
    thing; a process without a ``multiprocessing`` parent starts none.
    """
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(target=_wait_for_parent, args=(parent.sentinel,),
                         name="repro-child-watch", daemon=True).start()


def _wait_for_parent(sentinel: int) -> None:
    wait([sentinel])
    os._exit(ORPHANED_EXIT)


def _memory() -> dict[str, float]:
    """This process's :data:`_MEMORY_LINES` in MB (those ``/proc`` has)."""
    out: dict[str, float] = {}
    for path, prefix, key in _MEMORY_LINES:
        try:
            with open(path) as f:
                for line in f:
                    if line.startswith(prefix):
                        out[key] = round(int(line.split()[1]) / 1024, 1)
                        break
        except (OSError, ValueError, IndexError):
            continue
    return out


def _child_main(sender: Connection, fn: Callable[..., Any],
                args: tuple[Any, ...]) -> None:
    """Child entry point (module-level so ``spawn`` can pickle it)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    exit_with_parent()
    # Under fork the child inherits the caller's tracer, open spans
    # included, so its spans nest where the call would have; a fresh
    # registry holds only what the child adds.
    tracer = obs.tracer()
    first = len(tracer.spans) if tracer is not None else 0
    registry = MetricsRegistry()
    if tracer is not None:
        obs.enable(tracer, registry)
    outcome: tuple[bool, Any]
    try:
        outcome = (True, fn(*args))
    except Exception as exc:
        outcome = (False, exc)
    spans = tracer.spans[first:] if tracer is not None else []
    sender.send((outcome, spans, registry.to_jsonable(), _memory()))
    sender.close()
    # Leave at once: the exit paths of the interpreter and of
    # multiprocessing both flush the inherited std streams, whose
    # buffers may hold the server's unwritten output.
    os._exit(0)


def run_in_child(what: str, fn: Callable[..., T],
                 *args: Any) -> tuple[T, dict[str, float]]:
    """``fn(*args)`` in a forked child; returns ``(result, memory)``.

    ``memory`` is the child's ``peak_rss_mb`` (``VmHWM``) and
    ``private_dirty_mb`` (``Private_Dirty``), each where ``/proc`` has
    it.  An exception ``fn`` raised crosses back pickled, type and
    message, and is raised here.  A child that ends without answering
    raises :class:`ChildDied`.
    The child is reaped and its pipe closed on every path.
    """
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    answer: Any = None
    exitcode: int | None = None
    try:
        proc = ctx.Process(target=_child_main, args=(sender, fn, args),
                           name=f"repro-{what}-child", daemon=True)
        try:
            proc.start()
        finally:
            sender.close()
        try:
            wait([receiver, proc.sentinel])
            # Readable at EOF too.  Not readable once the child is gone
            # means another process still holds a copy of its end.
            if receiver.poll():
                answer = receiver.recv()
        except EOFError:
            pass  # the child died before it answered
        finally:
            if answer is None:
                proc.kill()
            proc.join()
            exitcode = proc.exitcode
            proc.close()
    finally:
        receiver.close()
    if answer is None:
        how = (f"was killed by {signal.Signals(-exitcode).name}"
               if exitcode is not None and exitcode < 0
               else f"exited with code {exitcode}")
        raise ChildDied(f"{what} child {how} before answering")
    (ok, value), spans, metrics, memory = answer
    tracer, registry = obs.tracer(), obs.registry()
    if tracer is not None:
        tracer.adopt(spans)
    if registry is not None:
        registry.merge(MetricsRegistry.from_jsonable(metrics))
    if not ok:
        raise value
    return value, memory
