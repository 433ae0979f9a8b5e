"""Deterministic fault injection and retry policy for page stores.

Three cooperating pieces:

* :class:`CrashPlan` — a *physical-level* schedule: it rides inside a
  :class:`~repro.storage.store.FilePageStore` and fires on the Nth byte
  string written to the OS, optionally tearing that write (only a prefix
  reaches the file) before raising :class:`SimulatedCrash`.  This is the
  crash-matrix engine: because page writes and superblock commits go
  through the same hook, every point of a build's write-then-commit
  protocol can be interrupted.
* :class:`FaultPlan` + :class:`FaultInjectingPageStore` — an *API-level*
  wrapper around any store: seeded, deterministic transient ``IOError``\\ s
  on reads/writes, at-rest single-bit flips beneath the inner store's
  checksum layer, torn writes that bypass checksum stamping, and
  crash-at-Nth-write.
* :class:`RetryPolicy` — bounded retry with backoff, consulted by
  :meth:`~repro.storage.store.PageStore.read_page` /
  :meth:`~repro.storage.store.PageStore.write_page` on any store.  Retries
  never touch the I/O counters (the paper's access counts stay
  bit-identical); they surface as per-fault-type
  ``storage.retries{fault=...}`` counters.

Everything is deterministic given the plan's seed and the operation
sequence, so a failing fault-injection run reproduces exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterable, TypeVar

_T = TypeVar("_T")

from ..obs import runtime as obs
from .breaker import CircuitBreaker
from .counters import IOStats
from .store import PageStore, SimulatedCrash, StoreError

__all__ = [
    "SimulatedCrash",
    "TransientIOError",
    "RetryPolicy",
    "CrashPlan",
    "FaultPlan",
    "FaultInjectingPageStore",
    "flip_bit",
    "corrupt_pages",
]


class TransientIOError(OSError):
    """An I/O error that succeeds on retry (bus glitch, EINTR, ...)."""


def flip_bit(data: bytes, bit_index: int) -> bytes:
    """Return ``data`` with one bit inverted (``bit_index`` in [0, 8n))."""
    byte_index, bit = divmod(bit_index, 8)
    out = bytearray(data)
    out[byte_index] ^= 1 << bit
    return bytes(out)


@dataclass
class RetryPolicy:
    """Bounded retry-with-backoff for transient storage faults.

    ``attempts`` counts total tries (1 = no retry).  The delay starts at
    ``backoff_s`` and multiplies by ``multiplier`` per retry, capped at
    ``max_backoff_s``; tests inject ``sleep`` to keep wall-clock at zero.

    ``jitter=True`` applies *full jitter*: each sleep draws uniformly from
    ``[0, nominal_delay]`` so a fleet of clients retrying the same sick
    store does not stampede it in lockstep.  The draw comes from a private
    ``Random(seed)``, so a seeded policy's delay schedule is deterministic
    and a failing run reproduces exactly.

    ``on_retry`` (see :meth:`run`) receives the exception that triggered
    the retry, letting callers keep per-fault-type counters.
    """

    attempts: int = 4
    backoff_s: float = 0.0
    multiplier: float = 2.0
    max_backoff_s: float = 0.1
    jitter: bool = False
    seed: int = 0
    retryable: tuple = (TransientIOError,)
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        self._rng = Random(self.seed)

    def run(self, fn: Callable[[], _T],
            on_retry: Callable[[BaseException], None] | None = None) -> _T:
        """Call ``fn`` until it succeeds or the attempt budget is spent."""
        if self.attempts < 1:
            raise StoreError(f"retry attempts must be >= 1, got "
                             f"{self.attempts}")
        delay = self.backoff_s
        for attempt in range(self.attempts):
            try:
                return fn()
            except self.retryable as exc:
                if attempt == self.attempts - 1:
                    raise
                if on_retry is not None:
                    on_retry(exc)
                if delay > 0:
                    self.sleep(self._rng.uniform(0.0, delay)
                               if self.jitter else delay)
                delay = min(delay * self.multiplier if delay > 0
                            else self.backoff_s, self.max_backoff_s)
        raise AssertionError("unreachable")  # pragma: no cover

    def delays(self) -> "Iterable[float]":
        """The policy's delay schedule as a lazy sequence, for callers
        that cannot use :meth:`run` (e.g. async code that must ``await``
        its sleeps).  Yields ``attempts - 1`` delays — one per permitted
        retry — drawn from the same seeded jitter stream as :meth:`run`,
        so a seeded policy's schedule stays reproducible either way.
        """
        delay = self.backoff_s
        for _ in range(max(self.attempts - 1, 0)):
            if delay > 0:
                yield (self._rng.uniform(0.0, delay) if self.jitter
                       else delay)
            else:
                yield 0.0
            delay = min(delay * self.multiplier if delay > 0
                        else self.backoff_s, self.max_backoff_s)


class CrashPlan:
    """Crash at the Nth *physical file write*, optionally tearing it.

    ``at_write`` is the 0-based index of the fatal write across every file
    the store touches (page writes and superblock slots).  ``tear_bytes`` controls how much of that write reaches the
    disk: ``None`` crashes cleanly before the write, ``k`` leaves a k-byte
    prefix (a torn write), and anything >= the write's length lands the
    whole write before dying.
    """

    def __init__(self, at_write: int, *,
                 tear_bytes: int | None = None) -> None:
        if at_write < 0:
            raise StoreError(f"at_write must be >= 0, got {at_write}")
        self.at_write = at_write
        self.tear_bytes = tear_bytes
        self.writes_seen = 0

    def next_write(self, data: bytes) -> tuple[bytes, bool]:
        """What actually reaches the file, and whether to crash after it."""
        index = self.writes_seen
        self.writes_seen += 1
        if index != self.at_write:
            return data, False
        if self.tear_bytes is None:
            return b"", True
        return data[:self.tear_bytes], True


@dataclass
class FaultPlan:
    """Seeded, deterministic schedule of API-level storage faults.

    Probabilistic faults draw from a private ``Random(seed)`` in operation
    order, so two runs over the same workload inject identically.  At most
    ``max_transient_per_op`` *consecutive* transient faults are injected,
    which guarantees a :class:`RetryPolicy` with more attempts than that
    always gets through.
    """

    seed: int = 0
    #: Probability a read / write attempt raises :class:`TransientIOError`.
    p_transient_read: float = 0.0
    p_transient_write: float = 0.0
    max_transient_per_op: int = 2
    #: Probability a committed write is then corrupted at rest (one random
    #: bit of the stored physical image flipped), plus explicit write
    #: indices that always decay.
    p_bit_flip: float = 0.0
    bit_flip_writes: frozenset = frozenset()
    #: 0-based write_page index to tear: a prefix of the image is stored
    #: raw, bypassing checksum stamping, then the plan crashes.
    #: ``torn_fraction`` picks the tear point.
    torn_write_at: int | None = None
    torn_fraction: float = 0.5
    #: 0-based write_page index at which to raise :class:`SimulatedCrash`
    #: (before the inner write runs).
    crash_at_write: int | None = None

    def __post_init__(self) -> None:
        self._rng = Random(self.seed)
        self._consecutive = 0
        self.reads_seen = 0
        self.writes_seen = 0
        self.injected: dict[str, int] = {
            "transient_read": 0, "transient_write": 0,
            "bit_flip": 0, "torn_write": 0, "crash": 0,
        }

    # Each helper is called once per *attempt*; retries re-enter and draw
    # fresh randomness, so a faulted op can succeed on its next try.

    def _transient(self, p: float, kind: str, what: str) -> None:
        if p > 0 and self._consecutive < self.max_transient_per_op \
                and self._rng.random() < p:
            self._consecutive += 1
            self.injected[kind] += 1
            raise TransientIOError(f"injected transient fault on {what}")
        self._consecutive = 0

    def on_read(self, page_id: int) -> None:
        """Called per read attempt; may raise :class:`TransientIOError`."""
        self.reads_seen += 1
        self._transient(self.p_transient_read, "transient_read",
                        f"read of page {page_id}")

    def on_write(self, page_id: int) -> str | None:
        """Returns ``'torn'``/``'crash'`` for scheduled disasters, else
        ``None`` after possibly raising a transient fault."""
        index = self.writes_seen
        self.writes_seen += 1
        if index == self.torn_write_at:
            self.injected["torn_write"] += 1
            return "torn"
        if index == self.crash_at_write:
            self.injected["crash"] += 1
            return "crash"
        self._transient(self.p_transient_write, "transient_write",
                        f"write of page {page_id}")
        return None

    def wants_bit_flip(self, write_index: int) -> bool:
        """Whether the write that just landed should decay at rest."""
        if write_index in self.bit_flip_writes:
            return True
        return self.p_bit_flip > 0 and self._rng.random() < self.p_bit_flip

    def pick_bit(self, nbytes: int) -> int:
        """Draw the bit index to flip in an ``nbytes`` physical image."""
        return self._rng.randrange(nbytes * 8)

    def tear_point(self, nbytes: int) -> int:
        """How many bytes of a torn write reach the store (at least 1)."""
        return max(1, int(nbytes * self.torn_fraction))


class FaultInjectingPageStore(PageStore):
    """Wrap any store and inject the plan's faults around its I/O.

    The wrapper shares the inner store's :class:`IOStats` by default so
    page traffic is counted exactly once, in the same counters a bare
    store would use — fault injection must never move the paper's access
    numbers.  Bit flips are applied *at rest* through the inner store's
    raw (checksum-bypassing) access, which is what makes them detectable
    by the checksum layer on the next read.
    """

    def __init__(self, inner: PageStore, plan: FaultPlan, *,
                 retry: RetryPolicy | None = None,
                 stats: IOStats | None = None,
                 breaker: CircuitBreaker | None = None) -> None:
        super().__init__(inner.page_size,
                         stats if stats is not None else inner.stats,
                         retry=retry, breaker=breaker)
        self.inner = inner
        self.plan = plan

    @property
    def payload_size(self) -> int:
        return self.inner.payload_size

    @property
    def page_count(self) -> int:
        return self.inner.page_count

    # The wrapper is transparent to tree plumbing: a durable inner store's
    # superblock metadata (and path, for error messages) shines through so
    # ``PagedRTree.from_store`` and ``bulk_load`` work on a faulty store.

    @property
    def path(self) -> str | None:
        return getattr(self.inner, "path", None)

    @property
    def supports_tree_meta(self) -> bool:
        return getattr(self.inner, "supports_tree_meta", False)

    @property
    def tree_meta(self) -> dict | None:
        return getattr(self.inner, "tree_meta", None)

    def set_tree_meta(self, meta: dict) -> None:
        """Commit tree metadata through to the inner (durable) store."""
        self.inner.set_tree_meta(meta)

    def allocate(self) -> int:
        return self.inner.allocate()

    def _read(self, page_id: int) -> bytes:
        self.plan.on_read(page_id)
        return self.inner._read(page_id)

    def _write(self, page_id: int, data: bytes) -> None:
        disaster = self.plan.on_write(page_id)
        if disaster == "torn":
            torn = data[:self.plan.tear_point(len(data))]
            old = self.inner.raw_read(page_id)
            self.inner.raw_write(page_id, torn + old[len(torn):])
            raise SimulatedCrash(
                f"torn write of page {page_id} "
                f"({len(torn)}/{len(data)} bytes landed)"
            )
        if disaster == "crash":
            raise SimulatedCrash(f"crash before write of page {page_id}")
        self.inner._write(page_id, data)
        write_index = self.plan.writes_seen - 1
        if self.plan.wants_bit_flip(write_index):
            raw = self.inner.raw_read(page_id)
            bit = self.plan.pick_bit(len(raw))
            self.inner.raw_write(page_id, flip_bit(raw, bit))
            self.plan.injected["bit_flip"] += 1
            obs.inc("storage.faults.bit_flips")

    def raw_read(self, page_id: int) -> bytes:
        return self.inner.raw_read(page_id)

    def raw_write(self, page_id: int, data: bytes) -> None:
        self.inner.raw_write(page_id, data)

    def flush(self) -> None:
        """Flush the inner store, when it has the concept."""
        flush = getattr(self.inner, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> None:
        """Close the inner store."""
        self.inner.close()


def corrupt_pages(store: PageStore, page_bits: Iterable[tuple[int, int]]
                  ) -> None:
    """Flip ``(page_id, bit_index)`` pairs at rest (test/fsck tooling)."""
    for page_id, bit in page_bits:
        store.raw_write(page_id, flip_bit(store.raw_read(page_id), bit))
