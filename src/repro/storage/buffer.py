"""Buffer pool with pluggable replacement policies.

The paper runs every experiment through an LRU buffer of a configurable
number of pages and counts buffer misses as disk accesses.  The
:class:`BufferPool` here reproduces that measurement: it caches *decoded*
page values keyed by page id, but hit/miss accounting is strictly per page,
so the numbers are identical to caching raw bytes.  It is a read cache:
packed trees are written once through the page store, never through the
pool.

LRU is the paper's policy.  FIFO and CLOCK are provided for the buffering
ablation (the paper discusses — citing its companion study [8] — pinning
the upper tree levels versus plain LRU; ``pin``/``unpin`` support that
experiment directly).
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Callable, Container, Generic, Hashable, TypeVar

from .counters import IOStats

__all__ = [
    "BufferError",
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "ClockPolicy",
    "BufferPool",
    "make_policy",
    "POLICIES",
]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class BufferError(RuntimeError):
    """Raised on capacity misuse (e.g. everything pinned, nothing evictable)."""


class ReplacementPolicy(abc.ABC, Generic[K]):
    """Strategy deciding which resident page to evict.

    The pool informs the policy of every access/insert/removal; the policy
    only ever sees keys, never values.
    """

    @abc.abstractmethod
    def on_insert(self, key: K) -> None:
        """A new page became resident."""

    @abc.abstractmethod
    def on_access(self, key: K) -> None:
        """A resident page was referenced."""

    @abc.abstractmethod
    def on_remove(self, key: K) -> None:
        """A page was evicted."""

    @abc.abstractmethod
    def victim(self, pinned: Container[K]) -> K:
        """Choose a resident page not in ``pinned`` to evict."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Forget all residency state."""


class LRUPolicy(ReplacementPolicy[K]):
    """Least-recently-used — the paper's replacement policy."""

    def __init__(self) -> None:
        self._order: OrderedDict[K, None] = OrderedDict()

    def on_insert(self, key: K) -> None:
        self._order[key] = None

    def on_access(self, key: K) -> None:
        self._order.move_to_end(key)

    def on_remove(self, key: K) -> None:
        self._order.pop(key, None)

    def victim(self, pinned: Container[K]) -> K:
        for key in self._order:
            if key not in pinned:
                return key
        raise BufferError("all resident pages are pinned")

    def clear(self) -> None:
        self._order.clear()


class FIFOPolicy(ReplacementPolicy[K]):
    """First-in-first-out: accesses do not refresh residency."""

    def __init__(self) -> None:
        self._order: OrderedDict[K, None] = OrderedDict()

    def on_insert(self, key: K) -> None:
        self._order[key] = None

    def on_access(self, key: K) -> None:
        pass

    def on_remove(self, key: K) -> None:
        self._order.pop(key, None)

    def victim(self, pinned: Container[K]) -> K:
        for key in self._order:
            if key not in pinned:
                return key
        raise BufferError("all resident pages are pinned")

    def clear(self) -> None:
        self._order.clear()


class ClockPolicy(ReplacementPolicy[K]):
    """Second-chance (CLOCK) approximation of LRU."""

    def __init__(self) -> None:
        self._ref: OrderedDict[K, bool] = OrderedDict()

    def on_insert(self, key: K) -> None:
        self._ref[key] = False

    def on_access(self, key: K) -> None:
        if key in self._ref:
            self._ref[key] = True

    def on_remove(self, key: K) -> None:
        self._ref.pop(key, None)

    def victim(self, pinned: Container[K]) -> K:
        # Sweep the hand; give referenced pages a second chance.
        for _ in range(2 * len(self._ref) + 1):
            key = next(iter(self._ref))
            referenced = self._ref.pop(key)
            if key in pinned:
                self._ref[key] = referenced
                continue
            if referenced:
                self._ref[key] = False
                continue
            self._ref[key] = False  # keep state consistent for on_remove
            return key
        raise BufferError("all resident pages are pinned")

    def clear(self) -> None:
        self._ref.clear()


POLICIES: dict[str, Callable[[], ReplacementPolicy]] = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "clock": ClockPolicy,
}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (``lru``/``fifo``/``clock``)."""
    try:
        return POLICIES[name.lower()]()
    except KeyError:
        raise BufferError(
            f"unknown policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None


class BufferPool(Generic[K, V]):
    """A fixed-capacity read cache of pages with miss accounting.

    Parameters
    ----------
    capacity:
        Number of pages the buffer holds (the paper's "buffer size").
    fetch:
        Called on a miss with the page key; must return the page value.
        The pool records the miss; the *fetch function itself* (normally a
        :meth:`PageStore.read_page` wrapper sharing the same ``stats``)
        records the disk read, so reads are never double-counted.
    stats:
        Shared :class:`IOStats`; created if omitted.
    policy:
        A policy name or a :class:`ReplacementPolicy` instance.
    """

    def __init__(
        self,
        capacity: int,
        fetch: Callable[[K], V],
        *,
        stats: IOStats | None = None,
        policy: str | ReplacementPolicy = "lru",
    ) -> None:
        if capacity < 1:
            raise BufferError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = stats if stats is not None else IOStats()
        self._fetch = fetch
        self._policy = policy if isinstance(policy, ReplacementPolicy) \
            else make_policy(policy)
        self._pages: dict[K, V] = {}
        self._pinned: dict[K, int] = {}

    # -- core interface -----------------------------------------------------

    def get(self, key: K) -> V:
        """Return the page value, fetching (and counting a read) on miss."""
        if key in self._pages:
            self.stats.buffer_hits += 1
            self._policy.on_access(key)
            return self._pages[key]
        self.stats.buffer_misses += 1
        value = self._fetch(key)
        self._admit(key, value)
        return value

    def contains(self, key: K) -> bool:
        """Residency check with no side effects on the policy."""
        return key in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    # -- pinning --------------------------------------------------------------

    def pin(self, key: K) -> None:
        """Make a page ineligible for eviction (fetching it if absent)."""
        if key not in self._pages:
            self.get(key)
        self._pinned[key] = self._pinned.get(key, 0) + 1

    def unpin(self, key: K) -> None:
        """Release one pin; the page becomes evictable at zero pins."""
        count = self._pinned.get(key, 0)
        if count <= 0:
            raise BufferError(f"page {key!r} is not pinned")
        if count == 1:
            del self._pinned[key]
        else:
            self._pinned[key] = count - 1

    @property
    def pinned_keys(self) -> frozenset[K]:
        return frozenset(self._pinned)

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> None:
        """Empty the pool (pins included); the counters are kept."""
        self._pages.clear()
        self._pinned.clear()
        self._policy.clear()

    # -- internals -----------------------------------------------------------

    def _admit(self, key: K, value: V) -> None:
        while len(self._pages) >= self.capacity:
            self._evict_one()
        self._pages[key] = value
        self._policy.on_insert(key)

    def _evict_one(self) -> None:
        victim = self._policy.victim(self._pinned)
        del self._pages[victim]
        self._policy.on_remove(victim)
        self.stats.evictions += 1
