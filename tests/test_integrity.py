"""Unit tests for the checksums, page trailers, superblocks, and the
legacy journal reader."""

import json
import os
import shutil

import pytest

from repro.storage.integrity import (
    ChecksumError,
    FLAG_CHECKSUMS,
    FLAG_JOURNAL,
    Superblock,
    SuperblockError,
    TRAILER_SIZE,
    crc32c,
    looks_like_superblock,
    stamp_trailer,
    trailer_info,
    verify_trailer,
)
from repro.storage.journal import JournalError, WriteJournal, journal_path

PAGE = 512

_FIXTURES = os.path.join(os.path.dirname(__file__), "data", "checksum-v1")
#: A legacy journal sidecar holding two intact records.
SIDECAR = os.path.join(_FIXTURES, "journaled", "tree.rt.journal")
with open(os.path.join(_FIXTURES, "fixtures.json")) as _f:
    _MANIFEST = json.load(_f)
SIDECAR_PAGE = _MANIFEST["page_size"]
SIDECAR_PAGES = _MANIFEST["journal_pages"]


class TestCrc32c:
    def test_known_vectors(self):
        # RFC 3720 check value plus degenerate inputs.
        assert crc32c(b"") == 0
        assert crc32c(b"123456789") == 0xE3069283
        assert crc32c(b"\x00" * 32) == 0x8A9136AA

    def test_incremental_equals_one_shot(self):
        data = bytes(range(256)) * 3
        assert crc32c(data[100:], crc32c(data[:100])) == crc32c(data)

    def test_sensitive_to_single_bit(self):
        data = b"x" * 100
        flipped = bytes([data[0] ^ 1]) + data[1:]
        assert crc32c(data) != crc32c(flipped)

    def test_odd_tail_lengths(self):
        # Exercise the non-multiple-of-4 tail loop.
        for n in range(1, 9):
            assert crc32c(b"a" * n) == crc32c(bytearray(b"a" * n))


class TestTrailer:
    def _page(self, fill=b"p"):
        return fill * (PAGE - TRAILER_SIZE) + b"\x00" * TRAILER_SIZE

    def test_roundtrip_returns_original_bytes(self):
        page = self._page()
        stamped = stamp_trailer(page, 7)
        assert len(stamped) == PAGE
        assert verify_trailer(stamped, 7) == page

    def test_trailer_info_fields(self):
        info = trailer_info(stamp_trailer(self._page(), 42))
        assert info["page_id"] == 42
        assert info["version"] == 2

    def test_unstamped_page_is_rejected(self):
        with pytest.raises(ChecksumError, match="no checksum trailer"):
            verify_trailer(self._page(), 0)

    def test_wrong_page_id_is_rejected(self):
        stamped = stamp_trailer(self._page(), 3)
        with pytest.raises(ChecksumError, match="wrong slot"):
            verify_trailer(stamped, 4)

    def test_any_payload_bit_flip_detected(self):
        stamped = bytearray(stamp_trailer(self._page(), 0))
        stamped[17] ^= 0x10
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            verify_trailer(bytes(stamped), 0)

    def test_source_named_in_error(self):
        with pytest.raises(ChecksumError, match="page 5 of /x/y"):
            verify_trailer(self._page(), 5, source="/x/y")

    def test_tiny_page_rejected(self):
        with pytest.raises(ChecksumError, match="no room"):
            verify_trailer(b"\x00" * TRAILER_SIZE, 0)


class TestSuperblock:
    def test_roundtrip_without_tree(self):
        sb = Superblock(page_size=PAGE, flags=FLAG_CHECKSUMS, seq=9,
                        page_count=21)
        out = Superblock.decode(sb.encode())
        assert out == sb
        assert out.tree is None

    def test_roundtrip_with_tree(self):
        tree = {"height": 3, "root_page": 20, "ndim": 2,
                "capacity": 100, "size": 12345}
        sb = Superblock(page_size=PAGE, flags=FLAG_JOURNAL, seq=2,
                        page_count=21, tree=tree)
        assert Superblock.decode(sb.encode()).tree == tree

    def test_encode_is_exactly_one_page(self):
        assert len(Superblock(page_size=PAGE).encode()) == PAGE

    def test_shadow_slots_alternate(self):
        assert Superblock(page_size=PAGE, seq=4).slot == 0
        assert Superblock(page_size=PAGE, seq=5).slot == 1

    def test_corrupt_crc_rejected(self):
        data = bytearray(Superblock(page_size=PAGE).encode())
        data[8] ^= 1
        with pytest.raises(SuperblockError, match="checksum mismatch"):
            Superblock.decode(bytes(data))

    def test_wrong_magic_rejected(self):
        with pytest.raises(SuperblockError, match="bad magic"):
            Superblock.decode(b"\xff" * PAGE)

    def test_sniff(self):
        assert looks_like_superblock(Superblock(page_size=PAGE).encode())
        assert not looks_like_superblock(b"RTP1....")
        assert not looks_like_superblock(b"RS")


class TestWriteJournal:
    """Replay-side reads of a legacy sidecar, each on a copy of the
    committed ``checksum-v1/journaled`` fixture (two intact records)."""

    def _sidecar(self, tmp_path):
        path = tmp_path / "j"
        shutil.copyfile(SIDECAR, path)
        return path

    def test_torn_tail_discarded(self, tmp_path):
        path = self._sidecar(tmp_path)
        # Tear the second record: cut 10 bytes off the file.
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 10)
        with WriteJournal(path, SIDECAR_PAGE) as j:
            assert [pid for pid, _ in j.scan()] == SIDECAR_PAGES[:1]

    def test_corrupt_record_crc_stops_scan(self, tmp_path):
        path = self._sidecar(tmp_path)
        # Flip a byte inside the *first* record's image: both records are
        # fully present, but the protocol must stop at the broken one.
        with open(path, "r+b") as f:
            f.seek(12 + 16 + 5)
            f.write(b"\xff")
        with WriteJournal(path, SIDECAR_PAGE) as j:
            assert list(j.scan()) == []

    def test_page_size_mismatch_on_reopen(self, tmp_path):
        with pytest.raises(JournalError, match="page size"):
            WriteJournal(self._sidecar(tmp_path), SIDECAR_PAGE * 2)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "j"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(JournalError, match="not a page journal"):
            WriteJournal(path, PAGE)

    def test_journal_path_sidecar(self):
        assert journal_path("/a/b.pages") == "/a/b.pages.journal"
