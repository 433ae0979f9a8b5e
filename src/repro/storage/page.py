"""Binary page format for R-tree nodes.

The paper assumes "exactly one node fits per disk page" and uses the two
terms interchangeably; so do we.  A node page holds a small header plus up
to ``capacity`` entries, each entry being a child pointer (page id at
internal levels, data object id at the leaf level) and a k-dimensional
rectangle.

Layout (little-endian)::

    offset  size  field
    0       4     magic  (0x52545031, "RTP1")
    4       4     level  (0 = leaf)
    8       4     entry count
    12      4     ndim
    16      -     entries: count x (int64 child, k float64 lo, k float64 hi)

Pages are fixed-size; the tail beyond the last entry is zero padding.  The
codec round-trips through real bytes so the :class:`~repro.storage.store.FilePageStore`
path exercises genuine serialisation, not pickled Python objects.

Decoding copies nothing: the entries are one ``(count, 1 + 2k)`` float64
block over the page buffer, and a node's ``children``, ``rects.los`` and
``rects.his`` are column views of it.  A node therefore keeps its page
buffer alive — a ``bytes`` copy, or a read-only mapping of the file
(:class:`~repro.storage.mmap_store.MmapPageStore`).
"""

from __future__ import annotations

from dataclasses import dataclass
import struct

import numpy as np

from ..core.geometry import GeometryError, RectArray

__all__ = [
    "PageFormatError",
    "NodePage",
    "entry_size",
    "required_page_size",
    "encode_node",
    "decode_node",
]

_MAGIC = 0x52545031
_HEADER = struct.Struct("<iiii")


class PageFormatError(ValueError):
    """Raised when a page fails to decode or exceeds its size budget."""


def entry_size(ndim: int) -> int:
    """Bytes per entry: int64 pointer + 2k float64 coordinates."""
    if ndim < 1:
        raise PageFormatError("ndim must be >= 1")
    return 8 + 16 * ndim


def required_page_size(capacity: int, ndim: int, *, align: int = 512) -> int:
    """Smallest aligned page size holding ``capacity`` entries.

    With the paper's parameters (capacity 100, 2-D) this is 4096 bytes —
    a standard disk page.
    """
    if capacity < 1:
        raise PageFormatError("capacity must be >= 1")
    raw = _HEADER.size + capacity * entry_size(ndim)
    if align <= 0:
        return raw
    return ((raw + align - 1) // align) * align


@dataclass(frozen=True)
class NodePage:
    """Decoded contents of one node page.

    ``children[i]`` is the page id of the i-th subtree at internal levels
    and an opaque data-object id at the leaf level (``level == 0``).
    ``rects[i]`` is the MBR stored alongside that pointer.
    """

    level: int
    children: np.ndarray  # (count,) int64
    rects: RectArray

    def __post_init__(self) -> None:
        if self.level < 0:
            raise PageFormatError(f"negative level {self.level}")
        kids = np.asarray(self.children, dtype=np.int64)
        if kids.ndim != 1:
            raise PageFormatError("children must be 1-D")
        if len(kids) != len(self.rects):
            raise PageFormatError(
                f"{len(kids)} children but {len(self.rects)} rects"
            )
        if len(kids) == 0:
            raise PageFormatError("a node page must hold at least one entry")
        object.__setattr__(self, "children", kids)

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    @property
    def count(self) -> int:
        return len(self.children)

    @property
    def ndim(self) -> int:
        return self.rects.ndim


def encode_node(node: NodePage, page_size: int) -> bytes:
    """Serialise a node into exactly ``page_size`` bytes."""
    ndim = node.ndim
    body_len = _HEADER.size + node.count * entry_size(ndim)
    if body_len > page_size:
        raise PageFormatError(
            f"{node.count} entries x {entry_size(ndim)}B do not fit in a "
            f"{page_size}B page"
        )
    header = _HEADER.pack(_MAGIC, node.level, node.count, ndim)
    # Interleave per entry (child, lo..., hi...) into one 64-bit-word buffer;
    # children are packed bit-exactly via a uint64 view.
    raw = np.empty(node.count * (1 + 2 * ndim), dtype=np.uint64)
    raw_f = raw.view(np.float64)
    stride = 1 + 2 * ndim
    raw[0::stride] = node.children.view(np.uint64)
    for d in range(ndim):
        raw_f[1 + d::stride] = node.rects.los[:, d]
        raw_f[1 + ndim + d::stride] = node.rects.his[:, d]
    body = header + raw.tobytes()
    return body + b"\x00" * (page_size - len(body))


def decode_node(data: bytes | memoryview, *, page_id: int | None = None,
                source: str | None = None) -> NodePage:
    """Inverse of :func:`encode_node` (padding is ignored).

    The node's arrays are read-only views over ``data`` (see the module
    notes).  A page whose coordinates are non-finite or inverted
    (``lo > hi``) is as corrupt as one with a bad header: both raise
    :class:`PageFormatError`.

    ``page_id`` and ``source`` (the store path) are threaded into any
    :class:`PageFormatError` so a corrupt page can be located on disk; the
    raw header bytes are included so the failure is diagnosable from the
    message alone.
    """
    where = "page" if page_id is None else f"page {page_id}"
    if source:
        where += f" of {source}"
    if len(data) < _HEADER.size:
        raise PageFormatError(
            f"{where}: truncated at {len(data)} bytes "
            f"(header bytes: {data.hex()})"
        )
    magic, level, count, ndim = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise PageFormatError(
            f"{where}: bad magic 0x{magic:08x} (expected 0x{_MAGIC:08x}; "
            f"header bytes: {bytes(data[:_HEADER.size]).hex()})"
        )
    if level < 0 or count < 1 or ndim < 1:
        raise PageFormatError(
            f"{where}: corrupt header: level={level} count={count} "
            f"ndim={ndim} (header bytes: {bytes(data[:_HEADER.size]).hex()})"
        )
    stride = 1 + 2 * ndim
    need = _HEADER.size + count * entry_size(ndim)
    if len(data) < need:
        raise PageFormatError(
            f"{where}: holds {len(data)} bytes, header promises {need}"
        )
    block = np.frombuffer(data, dtype=np.float64, count=count * stride,
                          offset=_HEADER.size).reshape(count, stride)
    block.setflags(write=False)  # a writable buffer must not leak in
    try:
        rects = RectArray(block[:, 1:1 + ndim], block[:, 1 + ndim:],
                          copy=False)
    except GeometryError as exc:  # non-finite or inverted entries
        raise PageFormatError(f"{where}: {exc}") from None
    return NodePage(level=level, children=block[:, 0].view(np.int64),
                    rects=rects)
