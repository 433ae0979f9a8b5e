"""Packing-algorithm framework.

Section 2.2 of the paper describes a *General Algorithm* shared by all
three packing methods:

1. Order the ``r`` input rectangles into ``ceil(r/n)`` consecutive groups
   of ``n`` (the node capacity); the last group may be smaller.
2. Load each group into a leaf page and emit ``(MBR, page id)`` pairs.
3. Recursively pack those MBRs into the next level up, until one node —
   the root — remains.

The three algorithms differ **only** in how rectangles are ordered at each
level, so the framework interface is a single method: given a set of
rectangles and the node capacity, return a permutation.  (STR's ordering is
capacity-dependent — its tile widths are derived from the page count — which
is why ``capacity`` is part of the signature.)

The actual page writing lives in :func:`repro.rtree.bulk.bulk_load`;
algorithms stay pure and independently testable.
"""

from __future__ import annotations

import abc

import numpy as np

from ...core.geometry import RectArray

__all__ = ["PackingError", "PackingAlgorithm", "leaf_group_sizes", "ceil_root"]


class PackingError(ValueError):
    """Raised for invalid packing parameters."""


class PackingAlgorithm(abc.ABC):
    """Orders rectangles so consecutive runs of ``capacity`` become nodes."""

    #: Registry key and display name ("STR", "HS", "NX" in the paper).
    name: str = "abstract"

    @abc.abstractmethod
    def order(self, rects: RectArray, capacity: int) -> np.ndarray:
        """Return a permutation of ``range(len(rects))``.

        Packing ``rects.take(perm)`` into consecutive groups of
        ``capacity`` realises this algorithm's leaf (or internal) level.
        """

    def _check(self, rects: RectArray, capacity: int) -> None:
        if len(rects) == 0:
            raise PackingError("cannot pack zero rectangles")
        if capacity < 1:
            raise PackingError(f"capacity must be >= 1, got {capacity}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def leaf_group_sizes(count: int, capacity: int) -> list[int]:
    """Group sizes for step 1 of the General Algorithm.

    ``ceil(count / capacity)`` groups, all full except possibly the last —
    this is what gives packed trees their near-100% space utilisation.
    """
    if count < 1:
        raise PackingError("count must be >= 1")
    if capacity < 1:
        raise PackingError("capacity must be >= 1")
    full, rest = divmod(count, capacity)
    sizes = [capacity] * full
    if rest:
        sizes.append(rest)
    return sizes


def ceil_root(value: int, k: int) -> int:
    """Exact ``ceil(value ** (1/k))`` for positive integers.

    Floating-point ``value ** (1/k)`` rounds unpredictably at perfect powers
    (``27 ** (1/3)`` is 3.0000000000000004), which would give STR an extra,
    nearly-empty slab exactly on the clean inputs tests like to use; this
    helper nails the integer root before ceiling.
    """
    if value < 1 or k < 1:
        raise PackingError("value and k must be >= 1")
    if k == 1 or value == 1:
        return value
    root = int(round(value ** (1.0 / k)))
    while root ** k < value:
        root += 1
    while root > 1 and (root - 1) ** k >= value:
        root -= 1
    return root


def ceil_pow_frac(value: int, num: int, den: int) -> int:
    """Exact ``ceil(value ** (num/den))`` for positive integers.

    Computed as the smallest integer ``m`` with ``m ** den >= value ** num``
    so perfect powers never suffer float rounding.  STR's slab width is
    ``n * ceil(P ** ((k-1)/k))``, which calls this with num=k-1, den=k.
    """
    if value < 1 or num < 0 or den < 1:
        raise PackingError("invalid ceil_pow_frac arguments")
    if num == 0:
        return 1
    target = value ** num
    guess = int(round(float(value) ** (num / den)))
    m = max(1, guess)
    while m ** den < target:
        m += 1
    while m > 1 and (m - 1) ** den >= target:
        m -= 1
    return m


def validate_permutation(perm: np.ndarray, count: int) -> np.ndarray:
    """Defensive check that an algorithm returned a real permutation."""
    p = np.asarray(perm)
    if p.shape != (count,):
        raise PackingError(f"permutation shape {p.shape}, expected ({count},)")
    if not np.array_equal(np.sort(p), np.arange(count)):
        raise PackingError("ordering is not a permutation")
    return p.astype(np.int64)
