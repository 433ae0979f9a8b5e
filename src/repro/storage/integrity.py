"""Page integrity: versioned checksums, page trailers, and the superblock.

The paper's experiments run the buffer manager over a raw disk partition,
which makes silent corruption a real failure mode: a torn write or a single
flipped bit would previously decode as garbage (or, worse, as a plausible
node).  This module supplies the two on-disk structures that make a
:class:`~repro.storage.store.FilePageStore` self-verifying:

* a fixed-size **page trailer** stamped into the zero padding at the end of
  every page, holding a format version, the page's own id and a checksum of
  the payload — verified on every read, so corruption is detected *before*
  the page codec ever sees the bytes;
* a **superblock** describing the store (page size, durability flags,
  committed page count) and the tree it holds (height, root page, ndim,
  capacity, size).  Two shadow slots are written alternately with a
  monotonically increasing sequence number, so a superblock update is
  atomic: a torn slot fails its checksum and the previous slot wins.

Which checksum a structure carries is a format decision made here and
nowhere else.  One table maps each checksum version to its function:

* version 1 — CRC32C (Castagnoli), the dependency-free slice-by-4 loop
  below; still verified, so files written with it stay readable, and
  kept as the known-vector reference;
* version 2 — CRC-32 (IEEE 802.3) from the stdlib :mod:`zlib`, which
  runs at C speed.

Writers always stamp :data:`CHECKSUM_VERSION`.  Readers take the function
from the version the bytes name: the trailer and superblock version
fields, the journal header, and the ``-v<N>`` suffix of a JSON record's
``format`` tag (:func:`format_tag`, :func:`tag_version`).  Both are 32-bit
CRCs: each detects every single-bit flip and every burst of up to 32 bits.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "IntegrityError",
    "ChecksumError",
    "SuperblockError",
    "crc32c",
    "CHECKSUM_VERSION",
    "CHECKSUM_VERSIONS",
    "checksum",
    "format_tag",
    "readable_tags",
    "tag_version",
    "unsupported_version",
    "TRAILER_SIZE",
    "stamp_trailer",
    "verify_trailer",
    "trailer_info",
    "Superblock",
    "SUPERBLOCK_MAGIC",
    "SUPERBLOCK_SLOTS",
    "FLAG_CHECKSUMS",
    "FLAG_JOURNAL",
    "looks_like_superblock",
]


class IntegrityError(RuntimeError):
    """Base class for on-disk integrity failures."""


class ChecksumError(IntegrityError):
    """A page trailer is missing, malformed, or fails its CRC."""


class SuperblockError(IntegrityError):
    """No valid superblock slot could be decoded."""


# -- version 1: CRC32C (Castagnoli), slice-by-4 -----------------------------

_POLY = 0x82F63B78  # reflected 0x1EDC6F41


def _make_tables() -> tuple[tuple[int, ...], ...]:
    t0 = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        t0.append(crc)
    tables = [t0]
    for _ in range(3):
        prev = tables[-1]
        tables.append([t0[v & 0xFF] ^ (v >> 8) for v in prev])
    return tuple(tuple(t) for t in tables)


_T0, _T1, _T2, _T3 = _make_tables()


def crc32c(data: bytes, value: int = 0) -> int:
    """CRC32C of ``data``, continuing from ``value`` (0 for a fresh sum)."""
    crc = value ^ 0xFFFFFFFF
    mv = memoryview(data)
    n = len(mv) - (len(mv) % 4)
    for i in range(0, n, 4):
        crc ^= mv[i] | (mv[i + 1] << 8) | (mv[i + 2] << 16) | (mv[i + 3] << 24)
        crc = (_T3[crc & 0xFF] ^ _T2[(crc >> 8) & 0xFF]
               ^ _T1[(crc >> 16) & 0xFF] ^ _T0[(crc >> 24) & 0xFF])
    for i in range(n, len(mv)):
        crc = _T0[(crc ^ mv[i]) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


# -- the version table -------------------------------------------------------

_CHECKSUMS: dict[int, Callable[[bytes, int], int]] = {
    1: crc32c,
    2: zlib.crc32,
}

#: The version every writer stamps.
CHECKSUM_VERSION = 2
#: Every version this build can verify, oldest first.
CHECKSUM_VERSIONS = tuple(sorted(_CHECKSUMS))


def unsupported_version(what: str, version: object) -> str:
    """The message refusing a ``what`` stamped with an unknown version."""
    readable = ", ".join(str(v) for v in CHECKSUM_VERSIONS)
    return (f"unsupported {what} version {version} "
            f"(this build reads versions {readable})")


def checksum(data: bytes, value: int = 0, *,
             version: int = CHECKSUM_VERSION) -> int:
    """Checksum of ``data`` under format ``version``, continuing from
    ``value`` (0 for a fresh sum).  Raises :class:`IntegrityError` for a
    version this build cannot read."""
    function = _CHECKSUMS.get(version)
    if function is None:
        raise IntegrityError(unsupported_version("checksum", version))
    return function(data, value)


def format_tag(stem: str) -> str:
    """The ``format`` tag writers stamp on a checksummed JSON record:
    ``<stem>-v<CHECKSUM_VERSION>``."""
    return f"{stem}-v{CHECKSUM_VERSION}"


def readable_tags(stem: str) -> tuple[str, ...]:
    """Every ``<stem>-v<N>`` tag whose checksum this build can verify."""
    return tuple(f"{stem}-v{version}" for version in CHECKSUM_VERSIONS)


def tag_version(tag: str) -> int:
    """The checksum version a ``format`` tag's ``-v<N>`` suffix names."""
    _, sep, digits = tag.rpartition("-v")
    if not sep or not digits.isdigit():
        raise IntegrityError(f"format tag {tag!r} names no version")
    return int(digits)


# -- page trailer ------------------------------------------------------------

TRAILER_MAGIC = 0x4C525452  # "RTRL" little-endian

#: magic, version, flags, page_id — the CRC covers payload + these bytes.
#: The version is the checksum version the CRC was computed with.
_TRAILER_PREFIX = struct.Struct("<IHHq")
_TRAILER_CRC = struct.Struct("<I")

#: Trailer bytes reserved at the end of every checksummed page (the prefix,
#: the CRC, and 4 bytes of padding to keep the total 8-byte aligned).
TRAILER_SIZE = _TRAILER_PREFIX.size + _TRAILER_CRC.size + 4


def stamp_trailer(page: bytes, page_id: int) -> bytes:
    """Return ``page`` with its last :data:`TRAILER_SIZE` bytes replaced by
    a trailer binding the payload checksum to this ``page_id``.

    The caller guarantees the trailer region is free (zero padding); the
    store enforces that before calling.
    """
    payload = page[:len(page) - TRAILER_SIZE]
    prefix = _TRAILER_PREFIX.pack(TRAILER_MAGIC, CHECKSUM_VERSION, 0,
                                  page_id)
    crc = checksum(prefix, checksum(payload))
    return payload + prefix + _TRAILER_CRC.pack(crc) + b"\x00" * 4


def trailer_info(page: bytes) -> dict:
    """Decode a page's trailer fields without verifying (fsck reporting)."""
    base = len(page) - TRAILER_SIZE
    magic, version, flags, page_id = _TRAILER_PREFIX.unpack_from(page, base)
    (crc,) = _TRAILER_CRC.unpack_from(page, base + _TRAILER_PREFIX.size)
    return {"magic": magic, "version": version, "flags": flags,
            "page_id": page_id, "crc": crc}


def verify_trailer(page: bytes, page_id: int, *, source: str = "") -> bytes:
    """Check the trailer of ``page``; return the payload zero-padded back to
    a full page (the exact bytes the writer handed to the store).

    Raises :class:`ChecksumError` naming the page, the store, and the
    observed vs expected values when anything is off.
    """
    where = f"page {page_id}" + (f" of {source}" if source else "")
    if len(page) <= TRAILER_SIZE:
        raise ChecksumError(f"{where}: {len(page)}-byte page has no room "
                            f"for a {TRAILER_SIZE}-byte trailer")
    info = trailer_info(page)
    if info["magic"] != TRAILER_MAGIC:
        raise ChecksumError(
            f"{where}: no checksum trailer (magic 0x{info['magic']:08x}, "
            f"expected 0x{TRAILER_MAGIC:08x}) — page never written, or "
            f"written without checksums"
        )
    version = info["version"]
    if version not in _CHECKSUMS:
        raise ChecksumError(
            f"{where}: {unsupported_version('trailer', version)}")
    if info["page_id"] != page_id:
        raise ChecksumError(
            f"{where}: trailer claims page id {info['page_id']} — page "
            f"image stored at the wrong slot"
        )
    payload = page[:len(page) - TRAILER_SIZE]
    prefix = _TRAILER_PREFIX.pack(TRAILER_MAGIC, version, info["flags"],
                                  page_id)
    crc = _CHECKSUMS[version]
    want = crc(prefix, crc(payload, 0))
    if want != info["crc"]:
        raise ChecksumError(
            f"{where}: checksum mismatch (trailer v{version}, stored "
            f"0x{info['crc']:08x}, computed 0x{want:08x}) — page is corrupt"
        )
    return payload + b"\x00" * TRAILER_SIZE


# -- superblock ---------------------------------------------------------------

SUPERBLOCK_MAGIC = 0x50555352  # "RSUP" little-endian

#: Number of shadow slots (physical pages reserved at the front of the file).
SUPERBLOCK_SLOTS = 2

FLAG_CHECKSUMS = 1
FLAG_JOURNAL = 2

# magic, version (of the checksum), flags, page_size, seq, page_count,
# has_tree, height, root_page, ndim, capacity, size
_SUPER = struct.Struct("<IHHIQQBiqiiq")
_SUPER_CRC = struct.Struct("<I")

#: Keys of the tree-metadata dict carried by the superblock.
TREE_META_KEYS = ("height", "root_page", "ndim", "capacity", "size")


@dataclass
class Superblock:
    """Decoded store header; ``tree`` is ``None`` until a build commits."""

    page_size: int
    flags: int = 0
    seq: int = 1
    page_count: int = 0
    tree: dict | None = None

    @property
    def slot(self) -> int:
        """The shadow slot this sequence number lands in."""
        return self.seq % SUPERBLOCK_SLOTS

    def encode(self) -> bytes:
        """Serialise into exactly ``page_size`` bytes (CRC-protected)."""
        tree = self.tree if self.tree is not None else {}
        body = _SUPER.pack(
            SUPERBLOCK_MAGIC, CHECKSUM_VERSION, self.flags,
            self.page_size, self.seq, self.page_count,
            1 if self.tree is not None else 0,
            int(tree.get("height", 0)), int(tree.get("root_page", 0)),
            int(tree.get("ndim", 0)), int(tree.get("capacity", 0)),
            int(tree.get("size", 0)),
        )
        body += _SUPER_CRC.pack(checksum(body))
        if len(body) > self.page_size:
            raise SuperblockError(
                f"page size {self.page_size} too small for a superblock "
                f"({len(body)} bytes)"
            )
        return body + b"\x00" * (self.page_size - len(body))

    @classmethod
    def decode(cls, data: bytes, *, source: str = "") -> "Superblock":
        """Inverse of :meth:`encode`; raises :class:`SuperblockError`."""
        where = f"superblock of {source}" if source else "superblock"
        if len(data) < _SUPER.size + _SUPER_CRC.size:
            raise SuperblockError(f"{where}: truncated at {len(data)} bytes")
        (magic, version, flags, page_size, seq, page_count,
         has_tree, height, root_page, ndim, capacity, size
         ) = _SUPER.unpack_from(data, 0)
        if magic != SUPERBLOCK_MAGIC:
            raise SuperblockError(
                f"{where}: bad magic 0x{magic:08x} "
                f"(expected 0x{SUPERBLOCK_MAGIC:08x})"
            )
        if version not in _CHECKSUMS:
            raise SuperblockError(
                f"{where}: {unsupported_version('superblock', version)}")
        (crc,) = _SUPER_CRC.unpack_from(data, _SUPER.size)
        want = checksum(data[:_SUPER.size], version=version)
        if crc != want:
            raise SuperblockError(
                f"{where}: checksum mismatch (superblock v{version}, "
                f"stored 0x{crc:08x}, computed 0x{want:08x})"
            )
        tree = None
        if has_tree:
            tree = {"height": height, "root_page": root_page, "ndim": ndim,
                    "capacity": capacity, "size": size}
        return cls(page_size=page_size, flags=flags, seq=seq,
                   page_count=page_count, tree=tree)


def looks_like_superblock(head: bytes) -> bool:
    """Cheap sniff: do these leading bytes start a durable store?"""
    return (len(head) >= 4
            and int.from_bytes(head[:4], "little") == SUPERBLOCK_MAGIC)
