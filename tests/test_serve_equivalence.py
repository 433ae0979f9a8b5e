"""One query executor: every serving path answers byte-for-byte alike.

A seeded stream of ``search``/``point``/``count``/``knn`` requests runs
against three servers, each over its own copy of one durable tree file:
in-process, a two-worker pool, and an ingest server whose delta is
empty.  The tree holds heavily
overlapping squares, so kNN answers tie at distance zero across ``k``,
and two non-root pages carry a flipped bit, so some answers are
degraded (``partial=true``).  The encoded responses, with ``elapsed_s``
cleared, must be identical on every path.
"""

import asyncio
import json
import shutil

import numpy as np
import pytest

from repro import RectArray, SortTileRecursive, bulk_load
from repro.ingest import IngestState
from repro.rtree.paged import PagedRTree
from repro.serve import QueryServer
from repro.serve.protocol import Request, encode_response
from repro.storage import FilePageStore
from repro.storage.faults import corrupt_pages
from repro.storage.integrity import TRAILER_SIZE
from repro.storage.page import required_page_size

CAPACITY = 25
NDIM = 2
PAGE_SIZE = required_page_size(CAPACITY, NDIM) + TRAILER_SIZE
SQUARES = 3_000
SIDE = 0.08
REQUESTS = 160
SEED = 20_260_417


def _build(path):
    """A durable tree of overlapping squares with two bit-flipped pages:
    one root child (a whole subtree) and one leaf under another root
    child."""
    rng = np.random.default_rng(SEED)
    los = rng.random((SQUARES, NDIM)) * (1.0 - SIDE)
    store = FilePageStore(path, PAGE_SIZE, checksums=True)
    tree, _ = bulk_load(RectArray(los, los + SIDE), SortTileRecursive(),
                        capacity=CAPACITY, store=store)
    assert tree.height == 3
    shards = [int(c) for c in tree.root_node().children]
    assert len(shards) >= 3
    leaf = int(tree.read_node(shards[-1]).children[0])
    corrupt_pages(store, [(shards[1], PAGE_SIZE * 4 + 3),
                          (leaf, PAGE_SIZE * 4 + 5)])
    store.close()
    return los, los + SIDE


def _stream(rng):
    requests = []
    for i in range(1, REQUESTS + 1):
        op = ("search", "point", "count", "knn")[i % 4]
        lo = [float(x) for x in rng.random(NDIM)]
        req = Request(op=op, id=i, deadline_s=30.0)
        if op in ("search", "count"):
            side = float(rng.uniform(0.01, 0.3))
            req.rect = [lo, [x + side for x in lo]]
        else:
            req.point = lo
        if op == "knn":
            req.k = int(rng.integers(1, 17))
        requests.append(req)
    return requests


async def _replay(path, requests, **config):
    """Encoded responses (``elapsed_s`` cleared) of one server."""
    ingest = None
    if config.pop("ingest", False):
        ingest, path = IngestState.open(path, ndim=NDIM)
    tree = PagedRTree.from_store(FilePageStore.open_existing(path))
    try:
        async with QueryServer(tree, buffer_pages=32, ingest=ingest,
                               **config) as server:
            if config.get("workers"):
                assert server.pool is not None, server.pool_start_error
            lines = []
            for req in requests:
                resp = await server.handle_request(req)
                resp.elapsed_s = None
                lines.append(encode_response(resp))
            # A pool that fell back in-process would compare the
            # in-process path with itself.
            assert server.pool_fallbacks == 0
            return lines
    finally:
        tree.store.close()


@pytest.fixture(scope="module")
def answers(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("equivalence")
    built = workdir / "built.rt"
    los, his = _build(built)
    requests = _stream(np.random.default_rng(SEED + 1))
    configs = {
        "in-process": {},
        "workers=2": {"workers": 2},
        "ingest, empty delta": {"ingest": True},
    }
    out = {}
    for index, (name, config) in enumerate(configs.items()):
        copy = workdir / f"tree{index}.rt"
        shutil.copyfile(built, copy)
        out[name] = asyncio.run(_replay(str(copy), requests, **config))
    return requests, out, (los, his)


def test_stream_exercises_degraded_answers_and_knn_ties(answers):
    requests, out, (los, his) = answers
    decoded = [json.loads(line) for line in out["in-process"]]
    assert all(d["ok"] for d in decoded)
    assert sum(d["partial"] for d in decoded) >= 10
    assert sum(not d["partial"] for d in decoded) >= 10
    straddling = 0
    for req in requests:
        if req.op == "knn":
            p = np.asarray(req.point)
            covering = int(((los <= p) & (his >= p)).all(axis=1).sum())
            straddling += covering > req.k
    assert straddling >= 10, "distance-0 ties must straddle k"


@pytest.mark.parametrize("path", ["workers=2", "ingest, empty delta"])
def test_path_answers_byte_for_byte_like_in_process(answers, path):
    requests, out, _ = answers
    want, got = out["in-process"], out[path]
    differ = [i for i, (a, b) in enumerate(zip(want, got)) if a != b]
    assert len(got) == len(want)
    assert not differ, (
        f"{len(differ)} of {len(want)} responses differ; first: "
        f"{requests[differ[0]]}\n in-process: {want[differ[0]]!r}\n"
        f" {path}: {got[differ[0]]!r}")
