"""Axis-aligned hyper-rectangle geometry.

This module is the geometric substrate of the whole library.  Everything an
R-tree does — grouping input objects, computing minimum bounding rectangles
(MBRs), testing query overlap — reduces to a small algebra over axis-aligned
hyper-rectangles, implemented here twice:

* :class:`Rect` — an immutable, hashable single rectangle with scalar
  operations.  Convenient for construction, tests and tree plumbing.
* :class:`RectArray` — a set of ``n`` rectangles stored as two ``(n, k)``
  numpy arrays.  All bulk operations used on hot paths (packing sorts,
  per-node overlap tests during query execution) are vectorized here.

Conventions
-----------
A rectangle in ``k`` dimensions is the point set
``{p : lo[i] <= p[i] <= hi[i] for all i}``.  Boundaries are *closed*, so two
rectangles sharing only an edge still intersect — this matches Guttman's
original definition and the paper's query semantics ("all rectangles that
intersect the query region must be retrieved").

The paper reports a "perimeter" metric.  For a 2-D rectangle the usual
perimeter is ``2 * (dx + dy)``; the standard k-dimensional generalisation
(the R*-tree "margin") is the sum of extents.  We expose both:
:meth:`Rect.margin` is ``sum(extents)`` and :meth:`Rect.perimeter` is
``2 * margin``, which coincides with the familiar perimeter at ``k = 2``
and is what the paper's Tables 4, 6, 8 and 10 report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "GeometryError",
    "Rect",
    "RectArray",
    "unit_square",
    "overlap_mask",
    "enclosing_mbr",
]


class GeometryError(ValueError):
    """Raised for malformed rectangles or dimension mismatches."""


def _as_coords(values: Sequence[float], name: str) -> tuple[float, ...]:
    coords = tuple(float(v) for v in values)
    if not coords:
        raise GeometryError(f"{name} must have at least one coordinate")
    for v in coords:
        if not np.isfinite(v):
            raise GeometryError(f"{name} contains non-finite coordinate {v!r}")
    return coords


@dataclass(frozen=True, slots=True)
class Rect:
    """An immutable axis-aligned hyper-rectangle.

    Parameters
    ----------
    lo, hi:
        Coordinate tuples of equal length ``k`` with ``lo[i] <= hi[i]``.
        Degenerate rectangles (``lo[i] == hi[i]``) are allowed and are how
        point data is represented throughout the library.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = _as_coords(self.lo, "lo")
        hi = _as_coords(self.hi, "hi")
        if len(lo) != len(hi):
            raise GeometryError(
                f"lo has {len(lo)} dimensions but hi has {len(hi)}"
            )
        for a, b in zip(lo, hi):
            if a > b:
                raise GeometryError(f"lo {lo} exceeds hi {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_point(cls, point: Sequence[float]) -> "Rect":
        """A degenerate rectangle covering a single point."""
        coords = _as_coords(point, "point")
        return cls(coords, coords)

    @classmethod
    def from_center(cls, center: Sequence[float], extents: Sequence[float]) -> "Rect":
        """Build from a center point and full side lengths."""
        c = _as_coords(center, "center")
        e = _as_coords(extents, "extents")
        if len(c) != len(e):
            raise GeometryError("center and extents dimension mismatch")
        for v in e:
            if v < 0:
                raise GeometryError(f"negative extent {v}")
        lo = tuple(ci - ei / 2.0 for ci, ei in zip(c, e))
        hi = tuple(ci + ei / 2.0 for ci, ei in zip(c, e))
        return cls(lo, hi)

    @classmethod
    def from_corners(cls, a: Sequence[float], b: Sequence[float]) -> "Rect":
        """Build from two arbitrary opposite corners (order-insensitive)."""
        pa = _as_coords(a, "corner a")
        pb = _as_coords(b, "corner b")
        if len(pa) != len(pb):
            raise GeometryError("corner dimension mismatch")
        lo = tuple(min(x, y) for x, y in zip(pa, pb))
        hi = tuple(max(x, y) for x, y in zip(pa, pb))
        return cls(lo, hi)

    # -- basic properties -------------------------------------------------

    @property
    def ndim(self) -> int:
        """Number of dimensions ``k``."""
        return len(self.lo)

    @property
    def extents(self) -> tuple[float, ...]:
        """Side length along each dimension."""
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def center(self) -> tuple[float, ...]:
        """Geometric center point."""
        return tuple((l + h) / 2.0 for l, h in zip(self.lo, self.hi))

    def area(self) -> float:
        """Volume in ``k`` dimensions (area for ``k = 2``)."""
        out = 1.0
        for e in self.extents:
            out *= e
        return out

    def margin(self) -> float:
        """Sum of side lengths (the R*-tree margin metric)."""
        return float(sum(self.extents))

    def perimeter(self) -> float:
        """``2 * margin`` — the paper's perimeter metric (exact at k=2)."""
        return 2.0 * self.margin()

    def is_degenerate(self) -> bool:
        """True when any side has zero length (e.g. point data)."""
        return any(e == 0.0 for e in self.extents)

    # -- predicates --------------------------------------------------------

    def _check_dim(self, other: "Rect") -> None:
        if self.ndim != other.ndim:
            raise GeometryError(
                f"dimension mismatch: {self.ndim} vs {other.ndim}"
            )

    def intersects(self, other: "Rect") -> bool:
        """Closed-boundary overlap test."""
        self._check_dim(other)
        return all(
            sl <= oh and ol <= sh
            for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def contains_point(self, point: Sequence[float]) -> bool:
        """True if ``point`` lies inside or on the boundary."""
        p = _as_coords(point, "point")
        if len(p) != self.ndim:
            raise GeometryError("point dimension mismatch")
        return all(l <= v <= h for l, v, h in zip(self.lo, p, self.hi))

    def contains_rect(self, other: "Rect") -> bool:
        """True if ``other`` lies entirely inside this rectangle."""
        self._check_dim(other)
        return all(
            sl <= ol and oh <= sh
            for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    # -- combining operations ----------------------------------------------

    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle enclosing both (MBR of the pair)."""
        self._check_dim(other)
        lo = tuple(min(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(a, b) for a, b in zip(self.hi, other.hi))
        return Rect(lo, hi)

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlap region, or ``None`` when disjoint."""
        self._check_dim(other)
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(l > h for l, h in zip(lo, hi)):
            return None
        return Rect(lo, hi)

    def enlargement(self, other: "Rect") -> float:
        """Area growth needed to also enclose ``other``.

        This is Guttman's insertion heuristic quantity: the area of
        ``self.union(other)`` minus the area of ``self``.
        """
        return self.union(other).area() - self.area()

    def clamped(self, bounds: "Rect") -> "Rect":
        """Clip this rectangle to ``bounds`` (must overlap)."""
        clipped = self.intersection(bounds)
        if clipped is None:
            raise GeometryError(f"{self} does not overlap bounds {bounds}")
        return clipped

    # -- conversion ----------------------------------------------------------

    def as_array(self) -> np.ndarray:
        """``(2, k)`` array ``[lo, hi]``."""
        return np.array([self.lo, self.hi], dtype=np.float64)

    def __iter__(self) -> Iterator[tuple[float, ...]]:
        yield self.lo
        yield self.hi


def unit_square(ndim: int = 2) -> Rect:
    """The ``[0, 1]^k`` hyper-cube all paper datasets are normalised to."""
    if ndim < 1:
        raise GeometryError("ndim must be >= 1")
    return Rect((0.0,) * ndim, (1.0,) * ndim)


class RectArray:
    """A fixed set of ``n`` hyper-rectangles with vectorized operations.

    Stored as two ``(n, k)`` float64 arrays ``los`` and ``his``.  This is the
    working representation for packing (whole-dataset sorts) and for node
    entries during query execution (one vectorized overlap test per node
    visit).

    The class is deliberately *not* mutable beyond whole-array construction:
    R-tree nodes that need mutation (dynamic insert) use Python-level entry
    lists and convert on write-out.
    """

    __slots__ = ("los", "his")

    def __init__(self, los: np.ndarray, his: np.ndarray, *, copy: bool = True):
        los = np.asarray(los, dtype=np.float64)
        his = np.asarray(his, dtype=np.float64)
        if los.ndim != 2 or his.ndim != 2:
            raise GeometryError("los/his must be 2-D (n, k) arrays")
        if los.shape != his.shape:
            raise GeometryError(
                f"shape mismatch: los {los.shape} vs his {his.shape}"
            )
        if not (np.isfinite(los).all() and np.isfinite(his).all()):
            raise GeometryError("non-finite coordinates")
        if (los > his).any():
            bad = int(np.argmax((los > his).any(axis=1)))
            raise GeometryError(f"rectangle {bad} has lo > hi")
        if copy:
            los = los.copy()
            his = his.copy()
        los.setflags(write=False)
        his.setflags(write=False)
        self.los = los
        self.his = his

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_rects(cls, rects: Iterable[Rect]) -> "RectArray":
        """Build from an iterable of :class:`Rect` (must be non-empty)."""
        rect_list = list(rects)
        if not rect_list:
            raise GeometryError("cannot build RectArray from zero rects")
        ndim = rect_list[0].ndim
        for r in rect_list:
            if r.ndim != ndim:
                raise GeometryError("mixed dimensions in rect list")
        los = np.array([r.lo for r in rect_list], dtype=np.float64)
        his = np.array([r.hi for r in rect_list], dtype=np.float64)
        return cls(los, his, copy=False)

    @classmethod
    def from_points(cls, points: np.ndarray) -> "RectArray":
        """Degenerate rectangles from an ``(n, k)`` point array."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise GeometryError("points must be a 2-D (n, k) array")
        return cls(pts, pts)

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return self.los.shape[0]

    @property
    def ndim(self) -> int:
        """Number of spatial dimensions ``k``."""
        return self.los.shape[1]

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return Rect(tuple(self.los[index]), tuple(self.his[index]))
        return RectArray(self.los[index], self.his[index], copy=False)

    def __iter__(self) -> Iterator[Rect]:
        for i in range(len(self)):
            yield self[int(i)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RectArray):
            return NotImplemented
        return (
            self.los.shape == other.los.shape
            and bool(np.array_equal(self.los, other.los))
            and bool(np.array_equal(self.his, other.his))
        )

    def __repr__(self) -> str:
        return f"RectArray(n={len(self)}, ndim={self.ndim})"

    # -- vectorized measures -------------------------------------------------

    def centers(self) -> np.ndarray:
        """``(n, k)`` array of center points."""
        return (self.los + self.his) / 2.0

    def extents(self) -> np.ndarray:
        """``(n, k)`` array of side lengths."""
        return self.his - self.los

    def areas(self) -> np.ndarray:
        """``(n,)`` array of areas (k-volumes)."""
        return np.prod(self.extents(), axis=1)

    def margins(self) -> np.ndarray:
        """``(n,)`` array of margins (sum of side lengths)."""
        return np.sum(self.extents(), axis=1)

    def perimeters(self) -> np.ndarray:
        """``(n,)`` array of perimeters (``2 * margin``)."""
        return 2.0 * self.margins()

    def total_area(self) -> float:
        """Sum of all areas — the paper's area metric for a node set."""
        return float(self.areas().sum())

    def total_perimeter(self) -> float:
        """Sum of all perimeters — the paper's perimeter metric."""
        return float(self.perimeters().sum())

    # -- vectorized predicates ---------------------------------------------

    def intersects_rect(self, query: Rect) -> np.ndarray:
        """Boolean mask of rectangles overlapping ``query`` (closed bounds)."""
        if query.ndim != self.ndim:
            raise GeometryError("query dimension mismatch")
        return overlap_mask(self.los, self.his, query.lo, query.hi)

    def contains_point(self, point: Sequence[float]) -> np.ndarray:
        """Boolean mask of rectangles containing ``point``."""
        p = np.asarray(_as_coords(point, "point"))
        if p.shape[0] != self.ndim:
            raise GeometryError("point dimension mismatch")
        return np.logical_and(
            (self.los <= p).all(axis=1), (self.his >= p).all(axis=1)
        )

    def contained_in(self, outer: Rect) -> np.ndarray:
        """Boolean mask of rectangles fully inside ``outer``."""
        if outer.ndim != self.ndim:
            raise GeometryError("dimension mismatch")
        olo = np.asarray(outer.lo)
        ohi = np.asarray(outer.hi)
        return np.logical_and(
            (self.los >= olo).all(axis=1), (self.his <= ohi).all(axis=1)
        )

    # -- aggregation ----------------------------------------------------------

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of the whole set."""
        return Rect(tuple(self.los.min(axis=0)), tuple(self.his.max(axis=0)))

    def group_mbrs(self, group_sizes: Sequence[int]) -> "RectArray":
        """MBRs of consecutive runs of the given sizes.

        This is the core packing primitive: after ordering, leaves are formed
        from consecutive runs of ``n`` rectangles and this computes all their
        MBRs in one pass.
        """
        sizes = np.asarray(group_sizes, dtype=np.int64)
        if sizes.ndim != 1 or len(sizes) == 0:
            raise GeometryError("group_sizes must be a non-empty 1-D sequence")
        if (sizes <= 0).any():
            raise GeometryError("group sizes must be positive")
        if int(sizes.sum()) != len(self):
            raise GeometryError(
                f"group sizes sum to {int(sizes.sum())}, expected {len(self)}"
            )
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        los = np.minimum.reduceat(self.los, bounds[:-1], axis=0)
        his = np.maximum.reduceat(self.his, bounds[:-1], axis=0)
        return RectArray(los, his, copy=False)

    def take(self, order: np.ndarray) -> "RectArray":
        """Reorder by an index array (e.g. an argsort permutation)."""
        idx = np.asarray(order)
        return RectArray(self.los[idx], self.his[idx], copy=False)


def overlap_mask(los: np.ndarray, his: np.ndarray, qlo: Sequence[float],
                 qhi: Sequence[float]) -> np.ndarray:
    """Boolean mask of the rectangles ``(los[i], his[i])`` overlapping
    the query box ``[qlo, qhi]`` (closed bounds).

    The one overlap test of the library: :meth:`RectArray.intersects_rect`,
    the paged walk and the ingest delta all call it.  It compares one
    coordinate column at a time against a scalar bound, since reducing a
    boolean ``(n, k)`` block over its short ``k`` axis
    (``.all(axis=1)``) costs several times more.
    """
    mask = (los[:, 0] <= qhi[0]) & (his[:, 0] >= qlo[0])
    for d in range(1, los.shape[1]):
        mask &= los[:, d] <= qhi[d]
        mask &= his[:, d] >= qlo[d]
    return mask


def enclosing_mbr(rects: Iterable[Rect]) -> Rect:
    """MBR of an iterable of :class:`Rect` (must be non-empty)."""
    it = iter(rects)
    try:
        out = next(it)
    except StopIteration:
        raise GeometryError("cannot compute MBR of zero rectangles") from None
    for r in it:
        out = out.union(r)
    return out
