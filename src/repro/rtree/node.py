"""In-memory nodes for the dynamic (Guttman) R-tree.

The dynamic tree exists for two reasons: (1) the paper's introduction
motivates packing by contrast with one-at-a-time Guttman insertion — so the
baseline must exist to measure load time, space utilisation and query
quality against; (2) the conclusion proposes dynamic variants on top of
packed trees, which our extension experiments exercise by inserting into a
bulk-loaded tree.

These nodes are plain mutable Python objects; the read-optimised paged
representation used for the paper's experiments lives in
:mod:`repro.rtree.paged`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..core.geometry import GeometryError, Rect, enclosing_mbr

__all__ = ["RTreeError", "Entry", "Node"]


class RTreeError(RuntimeError):
    """Raised on structural misuse (bad capacities, corrupted links)."""


@dataclass
class Entry:
    """One slot in a node: an MBR plus either a child node or a data id.

    Exactly one of ``child``/``data_id`` is set; leaf entries carry
    ``data_id``, internal entries carry ``child``.
    """

    rect: Rect
    child: Optional["Node"] = None
    data_id: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.child is None) == (self.data_id is None):
            raise RTreeError(
                "an entry must have exactly one of child / data_id"
            )


@dataclass
class Node:
    """A mutable R-tree node.

    ``level`` is 0 at the leaves and grows toward the root, matching the
    on-disk :class:`~repro.storage.page.NodePage` convention (note this is
    the reverse of the paper's Figure 1 prose, which numbers the *root* 0;
    leaf-anchored levels stay stable across root splits so they are the
    implementation-friendly choice).
    """

    level: int
    entries: list[Entry] = field(default_factory=list)
    parent: Optional["Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    @property
    def count(self) -> int:
        return len(self.entries)

    def mbr(self) -> Rect:
        """MBR of all entries (node must be non-empty)."""
        if not self.entries:
            raise RTreeError("empty node has no MBR")
        return enclosing_mbr(e.rect for e in self.entries)

    def add(self, entry: Entry) -> None:
        """Append an entry, wiring the parent pointer for child entries."""
        if entry.child is not None:
            if entry.child.level != self.level - 1:
                raise RTreeError(
                    f"child level {entry.child.level} under node level "
                    f"{self.level}"
                )
            entry.child.parent = self
        elif not self.is_leaf:
            raise RTreeError("data entry added to internal node")
        self.entries.append(entry)

    def remove_child(self, child: "Node") -> Entry:
        """Detach the entry pointing at ``child``."""
        for i, entry in enumerate(self.entries):
            if entry.child is child:
                child.parent = None
                return self.entries.pop(i)
        raise RTreeError("child not found in node")

    def entry_for(self, child: "Node") -> Entry:
        """The entry in this node that points at ``child``."""
        for entry in self.entries:
            if entry.child is child:
                return entry
        raise RTreeError("child not found in node")

    def iter_subtree(self) -> Iterator["Node"]:
        """Pre-order walk of this node and everything below it."""
        yield self
        if not self.is_leaf:
            for entry in self.entries:
                if entry.child is None:  # pragma: no cover - guarded by add()
                    raise RTreeError("internal node holds a data entry")
                yield from entry.child.iter_subtree()

    def validate_shape(self, ndim: int) -> None:
        """Cheap structural checks (full checks in rtree.validate)."""
        for entry in self.entries:
            if entry.rect.ndim != ndim:
                raise GeometryError("entry dimensionality mismatch")
            if self.is_leaf and entry.child is not None:
                raise RTreeError("leaf holds a child pointer")
            if not self.is_leaf and entry.data_id is not None:
                raise RTreeError("internal node holds a data id")
