"""Reproduction of Leutenegger, Edgington & Lopez,
"STR: A Simple and Efficient Algorithm for R-Tree Packing" (ICDE 1997).

Public API overview
-------------------
Geometry
    :class:`~repro.core.geometry.Rect`, :class:`~repro.core.geometry.RectArray`
Packing algorithms (the paper's subject)
    :class:`~repro.core.packing.str_.SortTileRecursive` (STR, the contribution),
    :class:`~repro.core.packing.hilbert.HilbertSort` (HS),
    :class:`~repro.core.packing.nearest_x.NearestX` (NX),
    :func:`~repro.core.packing.registry.make_algorithm`
Trees
    :func:`~repro.rtree.bulk.bulk_load` builds a paged, packed
    :class:`~repro.rtree.paged.PagedRTree`;
    :class:`~repro.rtree.tree.RTree` is the dynamic Guttman baseline.
Storage
    :class:`~repro.storage.buffer.BufferPool` (LRU et al.),
    :class:`~repro.storage.store.MemoryPageStore` /
    :class:`~repro.storage.store.FilePageStore`
Datasets & experiments
    :mod:`repro.datasets` generates the paper's four data families;
    :mod:`repro.experiments` regenerates every table and figure.

Quickstart
----------
>>> import numpy as np
>>> from repro import RectArray, SortTileRecursive, bulk_load, Rect
>>> rng = np.random.default_rng(7)
>>> rects = RectArray.from_points(rng.random((10_000, 2)))
>>> tree, report = bulk_load(rects, SortTileRecursive(), capacity=100)
>>> searcher = tree.searcher(buffer_pages=10)
>>> ids = searcher.search(Rect((0.4, 0.4), (0.6, 0.6)))
>>> searcher.disk_accesses > 0
True
"""

from . import obs
from .core.geometry import Rect, RectArray, unit_square
from .core.packing.base import PackingAlgorithm
from .core.packing.hilbert import HilbertSort
from .core.packing.nearest_x import NearestX
from .core.packing.registry import algorithm_names, make_algorithm
from .core.packing.str_ import SortTileRecursive
from .rtree.bulk import bulk_load, paged_from_dynamic
from .rtree.costmodel import expected_node_accesses
from .rtree.knn import knn
from .rtree.paged import PagedRTree, PagedSearcher
from .rtree.rstar import RStarTree
from .rtree.stats import TreeQuality, measure_dynamic, measure_paged
from .rtree.tree import RTree
from .rtree.validate import validate_dynamic, validate_paged
from .storage.buffer import BufferPool
from .storage.counters import IOStats
from .storage.store import FilePageStore, MemoryPageStore
from .storage.striped import StripedPageStore

__version__ = "1.0.0"

__all__ = [
    "obs",
    "Rect",
    "RectArray",
    "unit_square",
    "PackingAlgorithm",
    "SortTileRecursive",
    "HilbertSort",
    "NearestX",
    "make_algorithm",
    "algorithm_names",
    "bulk_load",
    "paged_from_dynamic",
    "PagedRTree",
    "PagedSearcher",
    "RTree",
    "RStarTree",
    "knn",
    "expected_node_accesses",
    "StripedPageStore",
    "TreeQuality",
    "measure_paged",
    "measure_dynamic",
    "validate_paged",
    "validate_dynamic",
    "BufferPool",
    "IOStats",
    "MemoryPageStore",
    "FilePageStore",
    "__version__",
]
