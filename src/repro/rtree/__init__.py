"""R-tree substrate: dynamic Guttman tree and packed/paged tree."""

from .bulk import BulkLoadReport, bulk_load, paged_from_dynamic
from .costmodel import (
    expected_accesses_by_level,
    expected_accesses_quadratic,
    expected_node_accesses,
)
from .knn import knn
from .node import Entry, Node, RTreeError
from .paged import PagedRTree, PagedSearcher, SearchResult
from .rstar import RStarSplit, RStarTree
from .split import LinearSplit, QuadraticSplit, make_split
from .stats import TreeQuality, measure_dynamic, measure_paged
from .tree import RTree
from .validate import ValidationError, validate_dynamic, validate_paged

__all__ = [
    "RTree",
    "RStarTree",
    "RStarSplit",
    "Entry",
    "Node",
    "RTreeError",
    "PagedRTree",
    "PagedSearcher",
    "SearchResult",
    "bulk_load",
    "paged_from_dynamic",
    "BulkLoadReport",
    "knn",
    "expected_node_accesses",
    "expected_accesses_by_level",
    "expected_accesses_quadratic",
    "QuadraticSplit",
    "LinearSplit",
    "make_split",
    "TreeQuality",
    "measure_paged",
    "measure_dynamic",
    "validate_paged",
    "validate_dynamic",
    "ValidationError",
]
