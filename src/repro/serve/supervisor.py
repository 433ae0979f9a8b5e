"""Supervision policy for the multi-process worker pool.

Three small, deterministic machines — kept free of any asyncio or
multiprocessing so they are trivially unit-testable with a fake clock —
that :class:`~repro.serve.pool.WorkerPool` composes into its supervisor:

* :class:`RestartBackoff` — how long to wait before restarting a dead
  worker.  Exponential with a cap, plus seeded full jitter so a pool of
  supervisors restarting against the same poisoned input do not
  stampede in lockstep; a healthy stretch resets the schedule.
* :class:`FlapDetector` — a sliding-window circuit: when worker deaths
  within ``window_s`` reach ``threshold``, something systemic is wrong
  (poisoned generation file, OOM killer, bad deploy) and restarting
  harder will not fix it.  The pool then *degrades* to in-process
  serving instead of crash-looping, for the rest of its life: a reload
  or a server restart starts a fresh pool with a fresh circuit.
* :class:`WorkerState` — the per-worker lifecycle vocabulary shared by
  the pool, its health payloads and the tests.

The same machinery exists at build time in
:mod:`repro.pipeline.orchestrator` for shard workers; serving gets its
own copy because the policies differ where it matters: a build retries a
shard a bounded number of times and then poisons it, while a serving
pool must keep *trying* forever — but stop *thrashing* — because the
process outlives any single failure.
"""

from __future__ import annotations

from collections import deque
from random import Random

__all__ = [
    "RestartBackoff",
    "FlapDetector",
    "WorkerState",
]


class WorkerState:
    """Lifecycle states a pool worker moves through (wire-stable names)."""

    STARTING = "starting"
    READY = "ready"
    #: SIGKILLed by the supervisor: out of the rotation, exit not yet seen.
    KILLED = "killed"
    RESTARTING = "restarting"
    STOPPED = "stopped"


class RestartBackoff:
    """Exponential restart backoff with a cap and seeded full jitter.

    ``next_delay()`` returns the pause before the next restart attempt:
    0 for the first death (a one-off crash should not cost latency),
    then ``base_s * multiplier**n`` capped at ``max_s``, each drawn
    uniformly from ``[delay/2, delay]`` (half jitter keeps the schedule
    meaningfully exponential while decorrelating restarts).  The draw
    comes from a private ``Random(seed)``, so a seeded supervisor's
    schedule is reproducible.  ``reset()`` is called after a worker
    survives its probation period.
    """

    def __init__(self, base_s: float = 0.05, multiplier: float = 2.0,
                 max_s: float = 2.0, seed: int = 0) -> None:
        if base_s < 0 or max_s < 0 or multiplier < 1.0:
            raise ValueError(
                f"backoff needs base_s >= 0, max_s >= 0, multiplier >= 1; "
                f"got {base_s}, {max_s}, {multiplier}")
        self.base_s = base_s
        self.multiplier = multiplier
        self.max_s = max_s
        self._rng = Random(seed)
        self._deaths = 0

    @property
    def deaths(self) -> int:
        """Consecutive deaths since the last :meth:`reset`."""
        return self._deaths

    def next_delay(self) -> float:
        """The pause before the next restart (advances the schedule)."""
        n = self._deaths
        self._deaths += 1
        if n == 0:
            return 0.0
        nominal = min(self.base_s * (self.multiplier ** (n - 1)),
                      self.max_s)
        if nominal <= 0.0:
            return 0.0
        return self._rng.uniform(nominal / 2.0, nominal)

    def reset(self) -> None:
        """A worker survived probation: forget the death streak."""
        self._deaths = 0


class FlapDetector:
    """Sliding-window flap circuit over worker-death events.

    ``record(now)`` logs one death at clock time ``now`` and returns
    whether the circuit is now tripped: ``threshold`` or more deaths
    inside the trailing ``window_s`` seconds.  The circuit is *sticky*
    — once tripped it stays tripped — because a pool that has fallen
    back to in-process serving should only rejoin multi-process mode
    through an explicit operator action (a restart or a reload, each of
    which starts a fresh pool), not by silently oscillating.
    """

    def __init__(self, threshold: int = 5, window_s: float = 30.0) -> None:
        if threshold < 1 or window_s <= 0:
            raise ValueError(
                f"flap detector needs threshold >= 1 and window_s > 0; "
                f"got {threshold}, {window_s}")
        self.threshold = threshold
        self.window_s = window_s
        self._events: deque[float] = deque()
        self._tripped = False

    @property
    def tripped(self) -> bool:
        return self._tripped

    def in_window(self, now: float) -> int:
        """Deaths recorded within the trailing window as of ``now``."""
        cutoff = now - self.window_s
        while self._events and self._events[0] <= cutoff:
            self._events.popleft()
        return len(self._events)

    def record(self, now: float) -> bool:
        """Log one death at ``now``; returns the (possibly new) tripped
        state."""
        if self._tripped:
            return True
        self._events.append(now)
        if self.in_window(now) >= self.threshold:
            self._tripped = True
        return self._tripped
