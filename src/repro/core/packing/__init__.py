"""R-tree packing algorithms (the paper's subject).

``SortTileRecursive`` is the paper's contribution; ``HilbertSort`` and
``NearestX`` are the baselines it is evaluated against.
"""

from .base import PackingAlgorithm, PackingError, leaf_group_sizes
from .hilbert import HilbertSort
from .nearest_x import NearestX
from .registry import ALGORITHMS, algorithm_names, make_algorithm
from .str_ import SortTileRecursive, str_slab_sizes

__all__ = [
    "PackingAlgorithm",
    "PackingError",
    "leaf_group_sizes",
    "SortTileRecursive",
    "str_slab_sizes",
    "HilbertSort",
    "NearestX",
    "ALGORITHMS",
    "make_algorithm",
    "algorithm_names",
]
