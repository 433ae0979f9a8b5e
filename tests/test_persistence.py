"""Unit tests for paged-tree persistence: a durable file reopens from its
superblock alone (``PagedRTree.from_store``)."""

from repro.core.geometry import Rect, RectArray
from repro.core.packing import SortTileRecursive
from repro.rtree.bulk import bulk_load
from repro.rtree.paged import PagedRTree
from repro.rtree.validate import validate_paged
from repro.storage.integrity import TRAILER_SIZE
from repro.storage.page import required_page_size
from repro.storage.store import FilePageStore


def test_reopen_roundtrip(tmp_path, rng):
    rects = RectArray.from_points(rng.random((1_000, 2)))
    page_size = required_page_size(20, 2) + TRAILER_SIZE
    path = tmp_path / "t.pages"
    with FilePageStore(path, page_size, checksums=True) as store:
        bulk_load(rects, SortTileRecursive(), capacity=20, store=store)
    with FilePageStore.open_existing(path) as store:
        tree = PagedRTree.from_store(store)
        assert len(tree) == 1_000
        assert tree.capacity == 20
        validate_paged(tree, range(1_000))
        q = Rect((0.3, 0.3), (0.6, 0.6))
        got = tree.searcher(5).search(q)
        assert sorted(got.tolist()) == \
            rects.intersects_rect(q).nonzero()[0].tolist()
