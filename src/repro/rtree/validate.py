"""Structural invariant checking for both tree representations.

The test-suite (including its hypothesis properties) leans on these
checkers: after any build or mutation the tree must satisfy the classic
R-tree invariants.  Violations raise :class:`ValidationError` with a
description of the offending node.

Checked invariants
------------------
1. Every parent entry's rectangle equals (not merely contains) the MBR of
   the child it points to — packed and Guttman-maintained trees both keep
   MBRs tight.
2. All leaves are at level 0 and all root-to-leaf paths have equal length.
3. No node exceeds ``capacity`` entries; dynamic trees also respect the
   minimum fill for non-root nodes.
4. The set of data ids stored at the leaves matches the expected multiset.
5. Page-id graph of a paged tree is a proper tree: every child pointer
   names a page inside the store, and every non-root page is referenced
   exactly once.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence

from ..storage.page import NodePage
from .node import Node
from .paged import PagedRTree
from .tree import RTree

__all__ = ["ValidationError", "iter_paged_violations", "validate_paged",
           "validate_dynamic"]


class ValidationError(AssertionError):
    """An R-tree invariant does not hold."""


def iter_paged_violations(tree: PagedRTree,
                          expected_ids: Iterable[int] | None = None,
                          *, nodes: Sequence[NodePage] | None = None,
                          reached: set[int] | None = None,
                          ) -> Iterator[str]:
    """Yield a message per violated invariant of a paged tree, in traversal
    order — the engine behind both :func:`validate_paged` (which raises on
    the first) and ``repro fsck`` (which reports them all).

    Covers MBR containment (parent entries must *equal* child MBRs — packed
    trees keep them tight), level monotonicity, capacity, child pointers
    inside the store, reference counts (every non-root page reachable
    exactly once), the record count, and the leaf id multiset when
    ``expected_ids`` is given.

    The root and the target of each child pointer are decoded once, so a
    well-formed tree decodes each page once.  ``nodes`` supplies the
    pages already decoded, indexed by page id (``repro fsck`` passes the
    ones its page scan decoded), so the walk reads nothing.  ``reached``,
    when given, collects the id of every page the walk reaches from the
    root.
    """
    page_count = tree.page_count
    node_at = tree.read_node if nodes is None else nodes.__getitem__
    seen_pages: Counter[int] = Counter()
    records = 0
    data_ids: list[int] = []
    root = node_at(tree.root_page)
    if root.level != tree.height - 1:
        yield (f"root level {root.level} does not match height "
               f"{tree.height}")

    # (page, expected mbr or None for the root, its decoded node)
    stack = [(tree.root_page, None, root)]
    while stack:
        page_id, expected_mbr, node = stack.pop()
        if reached is not None:
            reached.add(page_id)
        if node.count > tree.capacity:
            yield (f"page {page_id} holds {node.count} > capacity "
                   f"{tree.capacity}")
        mbr = node.rects.mbr()
        if expected_mbr is not None and mbr != expected_mbr:
            yield (f"page {page_id}: parent entry {expected_mbr} != "
                   f"node MBR {mbr}")
        if node.is_leaf:
            records += node.count
            if expected_ids is not None:
                data_ids.extend(node.children.tolist())
            continue
        for i, child_page in enumerate(node.children.tolist()):
            if not 0 <= child_page < page_count:
                yield (f"page {page_id} entry {i} points at page "
                       f"{child_page} outside [0, {page_count})")
                continue
            first_visit = child_page not in seen_pages
            seen_pages[child_page] += 1
            child = node_at(child_page)
            if child.level != node.level - 1:
                yield (f"page {child_page} at level {child.level} "
                       f"under level-{node.level} parent")
            if first_visit:
                stack.append((child_page, node.rects[i], child))

    for page_id, refs in sorted(seen_pages.items()):
        if refs != 1:
            yield f"page {page_id} referenced {refs} times"
    if tree.root_page in seen_pages:
        yield "root page referenced by an internal node"

    if records != len(tree):
        yield f"tree claims {len(tree)} records, leaves hold {records}"
    if expected_ids is not None:
        expected = Counter(int(i) for i in expected_ids)
        if Counter(data_ids) != expected:
            yield "leaf data ids do not match expected ids"


def validate_paged(tree: PagedRTree,
                   expected_ids: Iterable[int] | None = None) -> None:
    """Check all invariants of a paged tree; raises on the first violation."""
    for message in iter_paged_violations(tree, expected_ids):
        raise ValidationError(message)


def validate_dynamic(tree: RTree,
                     expected_ids: Iterable[int] | None = None) -> None:
    """Check all invariants of a dynamic tree; raises on the first violation."""
    data_ids: list[int] = []
    root = tree.root

    def visit(node: Node, is_root: bool) -> None:
        node.validate_shape(tree.ndim)
        if node.count > tree.capacity:
            raise ValidationError(
                f"node at level {node.level} holds {node.count} entries"
            )
        if not is_root and node.count < tree.min_entries:
            raise ValidationError(
                f"non-root node at level {node.level} underfull: "
                f"{node.count} < {tree.min_entries}"
            )
        if node.is_leaf:
            data_ids.extend(e.data_id for e in node.entries)
            return
        for entry in node.entries:
            child = entry.child
            assert child is not None
            if child.parent is not node:
                raise ValidationError("broken parent pointer")
            if child.level != node.level - 1:
                raise ValidationError("level discontinuity")
            if entry.rect != child.mbr():
                raise ValidationError(
                    f"stale MBR: entry {entry.rect} vs child {child.mbr()}"
                )
            visit(child, is_root=False)

    if root.count > 0 or len(tree) == 0:
        visit(root, is_root=True)
    if len(data_ids) != len(tree):
        raise ValidationError(
            f"tree claims {len(tree)} records, leaves hold {len(data_ids)}"
        )
    if expected_ids is not None:
        expected = Counter(int(i) for i in expected_ids)
        if Counter(int(i) for i in data_ids) != expected:
            raise ValidationError("leaf data ids do not match expected ids")
