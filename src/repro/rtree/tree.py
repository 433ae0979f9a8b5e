"""Dynamic R-tree with Guttman insertion and deletion.

This is the structure the paper's introduction contrasts packing against:
building by repeated insertion gives (a) high load time, (b) sub-optimal
space utilisation and (c) poor structure.  Our extension experiments
measure exactly those three claims against the packed trees.

The implementation follows Guttman (1984): ChooseLeaf by least area
enlargement, quadratic (default) or linear node splitting, AdjustTree
upward propagation, and CondenseTree with re-insertion on deletion.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from ..core.geometry import GeometryError, Rect
from .node import Entry, Node, RTreeError
from .split import SplitAlgorithm, make_split

__all__ = ["RTree"]


class RTree:
    """A mutable in-memory R-tree.

    Parameters
    ----------
    ndim:
        Dimensionality of indexed rectangles.
    capacity:
        Maximum entries per node (the paper's ``n``; default 100).
    min_fill:
        Minimum fill fraction in ``(0, 0.5]``; nodes hold at least
        ``max(1, floor(capacity * min_fill))`` entries after deletion.
    split:
        ``"quadratic"`` (default), ``"linear"``, or a
        :class:`~repro.rtree.split.SplitAlgorithm` instance.
    """

    def __init__(self, ndim: int = 2, capacity: int = 100, *,
                 min_fill: float = 0.4,
                 split: str | SplitAlgorithm = "quadratic"):
        if ndim < 1:
            raise GeometryError("ndim must be >= 1")
        if capacity < 2:
            raise RTreeError("capacity must be >= 2")
        if not 0.0 < min_fill <= 0.5:
            raise RTreeError("min_fill must be in (0, 0.5]")
        self.ndim = ndim
        self.capacity = capacity
        self.min_entries = max(1, int(capacity * min_fill))
        self._split = split if isinstance(split, SplitAlgorithm) \
            else make_split(split)
        self._root = Node(level=0)
        self._size = 0

    # -- basic accessors ----------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def root(self) -> Node:
        return self._root

    @property
    def height(self) -> int:
        """Number of levels (1 for a tree that is just a root leaf)."""
        return self._root.level + 1

    def is_empty(self) -> bool:
        """True when the tree holds no records."""
        return self._size == 0

    def node_count(self) -> int:
        """Total nodes, including the root."""
        return sum(1 for _ in self._root.iter_subtree())

    def leaf_count(self) -> int:
        """Number of leaf nodes."""
        return sum(1 for n in self._root.iter_subtree() if n.is_leaf)

    def iter_nodes(self) -> Iterator[Node]:
        """Walk every node (pre-order)."""
        return self._root.iter_subtree()

    def iter_level(self, level: int) -> Iterator[Node]:
        """All nodes at a leaf-anchored level (0 = leaves)."""
        for node in self._root.iter_subtree():
            if node.level == level:
                yield node

    def mbr(self) -> Rect:
        """MBR of the whole dataset."""
        if self.is_empty():
            raise RTreeError("empty tree has no MBR")
        return self._root.mbr()

    def space_utilization(self) -> float:
        """Mean leaf fill fraction — the paper's claim (b) metric."""
        leaves = [n for n in self._root.iter_subtree() if n.is_leaf]
        if not leaves or self._size == 0:
            return 0.0
        return sum(n.count for n in leaves) / (len(leaves) * self.capacity)

    # -- queries ------------------------------------------------------------

    def search(self, query: Rect) -> list[int]:
        """Data ids of all rectangles intersecting ``query``."""
        results, _ = self.search_counting(query)
        return results

    def search_counting(self, query: Rect) -> tuple[list[int], int]:
        """Like :meth:`search` but also reports nodes visited.

        Node-visit counts on the in-memory tree correspond to un-buffered
        disk accesses and are the quality metric used when comparing the
        dynamic tree against packed trees without a pager.
        """
        if query.ndim != self.ndim:
            raise GeometryError("query dimensionality mismatch")
        results: list[int] = []
        visited = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            visited += 1
            for entry in node.entries:
                if entry.rect.intersects(query):
                    if node.is_leaf:
                        results.append(entry.data_id)  # type: ignore[arg-type]
                    else:
                        stack.append(entry.child)  # type: ignore[arg-type]
        return results, visited

    def point_query(self, point: Sequence[float]) -> list[int]:
        """Data ids of all rectangles containing ``point``."""
        return self.search(Rect.from_point(point))

    def count(self, query: Rect) -> int:
        """Number of matches without materialising ids."""
        return len(self.search(query))

    # -- insertion ------------------------------------------------------------

    def insert(self, rect: Rect, data_id: int) -> None:
        """Insert one rectangle with an opaque integer id."""
        if rect.ndim != self.ndim:
            raise GeometryError(
                f"rect has {rect.ndim} dims, tree has {self.ndim}"
            )
        self._insert_entry(Entry(rect=rect, data_id=int(data_id)), level=0)
        self._size += 1

    def extend(self, items: Sequence[tuple[Rect, int]]) -> None:
        """Insert many ``(rect, data_id)`` pairs."""
        for rect, data_id in items:
            self.insert(rect, data_id)

    def _insert_entry(self, entry: Entry, level: int) -> None:
        node = self._choose_node(entry.rect, level)
        node.add(entry)
        self._adjust_upward(node)

    def _choose_node(self, rect: Rect, level: int) -> Node:
        """Descend to ``level`` choosing least-enlargement subtrees."""
        node = self._root
        while node.level > level:
            best = min(
                node.entries,
                key=lambda e: (e.rect.enlargement(rect), e.rect.area()),
            )
            # Keep the routing rectangle tight as we commit to this path.
            node = best.child  # type: ignore[assignment]
        return node

    def _adjust_upward(self, node: Node) -> None:
        """Fix MBRs and resolve overflows from ``node`` to the root.

        Overflow handling may recurse (the R*-tree's forced re-insertion
        nests whole insertions), and a nested restructuring can split —
        and thereby detach — a node this walk still holds a reference to.
        Detached nodes are recognised by ``parent is None`` while not
        being the root and are skipped: the nested operation that
        detached them already refreshed every MBR up to the root.
        """
        while True:
            if node.parent is None and node is not self._root:
                break  # detached during nested restructuring
            parent = node.parent
            if node.count > self.capacity:
                # Overflow treatment is a subclass hook: Guttman splits,
                # the R*-tree (rtree.rstar) may force-reinsert first.
                self._handle_overflow(node)
            elif parent is not None:
                parent.entry_for(node).rect = node.mbr()
            if parent is None:
                break
            node = parent

    def _handle_overflow(self, node: Node) -> None:
        """Default overflow treatment: split the node (Guttman)."""
        self._split_node(node)

    def _split_node(self, node: Node) -> None:
        group_a, group_b = self._split.split(node.entries, self.min_entries)
        parent = node.parent
        if parent is None:
            if node is not self._root:
                raise RTreeError("attempted to split a detached node")
            # Root split: the tree grows one level.
            parent = Node(level=node.level + 1)
            self._root = parent
        else:
            parent.remove_child(node)
        # The old node object is dead; empty it so any stale reference a
        # suspended upward walk still holds is recognisably detached.
        node.entries = []

        left = Node(level=node.level)
        right = Node(level=node.level)
        for entry in group_a:
            left.add(entry)
        for entry in group_b:
            right.add(entry)
        parent.add(Entry(rect=left.mbr(), child=left))
        parent.add(Entry(rect=right.mbr(), child=right))

    # -- deletion ------------------------------------------------------------

    def delete(self, rect: Rect, data_id: int) -> bool:
        """Remove one ``(rect, data_id)`` record; returns False if absent."""
        if rect.ndim != self.ndim:
            raise GeometryError("rect dimensionality mismatch")
        leaf, index = self._find_leaf(self._root, rect, int(data_id))
        if leaf is None:
            return False
        leaf.entries.pop(index)
        self._size -= 1
        self._condense(leaf)
        return True

    def _find_leaf(self, node: Node, rect: Rect, data_id: int
                   ) -> tuple[Node | None, int]:
        if node.is_leaf:
            for i, entry in enumerate(node.entries):
                if entry.data_id == data_id and entry.rect == rect:
                    return node, i
            return None, -1
        for entry in node.entries:
            if entry.rect.contains_rect(rect):
                found, idx = self._find_leaf(entry.child, rect, data_id)
                if found is not None:
                    return found, idx
        return None, -1

    def _condense(self, node: Node) -> None:
        """Guttman's CondenseTree: prune underfull nodes, re-insert orphans."""
        orphans: list[tuple[Entry, int]] = []  # (entry, level to re-insert at)
        while node.parent is not None:
            parent = node.parent
            if node.count < self.min_entries:
                parent.remove_child(node)
                for entry in node.entries:
                    orphans.append((entry, node.level))
            else:
                parent.entry_for(node).rect = node.mbr()
            node = parent

        # Shrink the root while it is an internal node with a single child.
        while not self._root.is_leaf and self._root.count == 1:
            only = self._root.entries[0].child
            assert only is not None
            only.parent = None
            self._root = only
        if not self._root.is_leaf and self._root.count == 0:
            self._root = Node(level=0)

        # Re-insert orphans highest level first so subtrees land correctly.
        work = list(orphans)
        while work:
            top = max(range(len(work)), key=lambda i: work[i][1])
            entry, level = work.pop(top)
            if level > self._root.level:
                # The tree shrank below the orphan subtree's level; splice
                # its children in instead.
                assert entry.child is not None
                work.extend((sub, level - 1) for sub in entry.child.entries)
                continue
            self._insert_entry(entry, level)

    # -- bulk helpers -----------------------------------------------------------

    @classmethod
    def from_items(cls, items: Sequence[tuple[Rect, int]], *,
                   ndim: int = 2, capacity: int = 100,
                   split: str = "quadratic",
                   progress: Callable[[int], None] | None = None) -> "RTree":
        """Build by repeated insertion (the paper's slow baseline loader)."""
        tree = cls(ndim=ndim, capacity=capacity, split=split)
        for i, (rect, data_id) in enumerate(items):
            tree.insert(rect, data_id)
            if progress is not None and (i + 1) % 10000 == 0:
                progress(i + 1)
        return tree
