"""Wire protocol round-trips and validation (``repro.serve.protocol``),
and proof that the encoders write the bytes the ``asdict`` encoder
wrote, for any field values and for every response the server sends."""

import asyncio
import copy
import json
import shutil
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.serve.server as server_module
from repro import RectArray, SortTileRecursive, bulk_load
from repro.core.geometry import Rect
from repro.ingest import IngestState
from repro.rtree.paged import PagedRTree
from repro.serve import (
    ERROR_TYPES,
    OPS,
    REQUEST_LINE_LIMIT,
    BadRequest,
    DeadlineExceeded,
    Overloaded,
    QueryClient,
    QueryServer,
    Request,
    Response,
    ServeError,
    StoreUnavailable,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    rect_from_wire,
    rect_to_wire,
)
from repro.serve.protocol import EncodedIds, encode_ids
from repro.storage import FilePageStore
from repro.storage.faults import corrupt_pages
from repro.storage.integrity import TRAILER_SIZE
from repro.storage.page import required_page_size


class TestRectWire:
    def test_round_trip(self):
        rect = Rect((0.1, 0.2), (0.3, 0.4))
        assert rect_from_wire(rect_to_wire(rect)) == rect

    @pytest.mark.parametrize("bad", [
        None, 7, [], [[0.0], [1.0], [2.0]], [[0.0, 0.0], [1.0]],
        [[], []], [[0.0], ["x"]], [[1.0], [0.0]],  # inverted interval
    ])
    def test_malformed_rects_are_bad_requests(self, bad):
        with pytest.raises(BadRequest):
            rect_from_wire(bad)


class TestRequestCodec:
    def test_round_trip(self):
        req = Request(op="search", id=9, rect=[[0.0, 0.0], [1.0, 1.0]],
                      deadline_s=0.5)
        out = decode_request(encode_request(req))
        assert out == req

    def test_encoding_is_one_json_line(self):
        line = encode_request(Request(op="ping", id=1))
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        payload = json.loads(line)
        assert "rect" not in payload  # None fields stay off the wire

    @pytest.mark.parametrize("line,fragment", [
        (b"not json\n", "not valid JSON"),
        (b"[1, 2]\n", "JSON object"),
        (b'{"op": "search", "id": "seven"}\n', "id must be an integer"),
        (b'{"op": "search", "id": true}\n', "id must be an integer"),
        (b'{"op": "drop_tables", "id": 1}\n', "unknown op"),
        (b'{"op": "search", "id": 1, "deadline_s": 0}\n', "positive"),
        (b'{"op": "search", "id": 1, "deadline_s": "x"}\n', "positive"),
        (b'{"op": "search", "id": 1, "surprise": 1}\n', "unknown request"),
        (b'{"op": "delete", "id": 1, "data_id": 9223372036854775808}\n',
         "64-bit"),
        (b'{"op": "delete", "id": 1, "data_id": -9223372036854775809}\n',
         "64-bit"),
    ])
    def test_validation(self, line, fragment):
        with pytest.raises(BadRequest, match=fragment):
            decode_request(line)

    def test_bad_request_keeps_parseable_id(self):
        try:
            decode_request(b'{"op": "nope", "id": 42}\n')
        except BadRequest as exc:
            assert exc.request_id == 42
        else:  # pragma: no cover
            pytest.fail("expected BadRequest")


class TestResponseCodec:
    def test_round_trip(self):
        resp = Response(id=3, ok=True, op="search", ids=[1, 2],
                        partial=True, unreachable_subtrees=2,
                        elapsed_s=0.01, count=2)
        out = decode_response(encode_response(resp))
        assert out == resp

    def test_garbage_raises_serve_error(self):
        with pytest.raises(ServeError):
            decode_response(b"ceci n'est pas une response\n")
        with pytest.raises(ServeError):
            decode_response(b'{"id": 1}\n')  # no ok field
        with pytest.raises(ServeError):
            decode_response(b'{"ok": true}\n')  # no id field

    def test_unknown_fields_ignored_for_forward_compat(self):
        resp = decode_response(b'{"id": 1, "ok": true, "op": "ping", '
                               b'"future_field": 9}\n')
        assert resp.ok

    def test_raise_for_error_is_typed(self):
        resp = Response(id=1, ok=False, error="Overloaded", message="shed")
        with pytest.raises(Overloaded, match="shed"):
            resp.raise_for_error()
        ok = Response(id=1, ok=True)
        assert ok.raise_for_error() is ok

    def test_unknown_error_code_falls_back_to_base(self):
        resp = Response(id=1, ok=False, error="FutureCode")
        with pytest.raises(ServeError):
            resp.raise_for_error()


class TestErrorTaxonomy:
    def test_codes_are_wire_names(self):
        for code, exc_type in ERROR_TYPES.items():
            assert exc_type.code == code

    def test_every_typed_error_registered(self):
        for exc_type in (BadRequest, DeadlineExceeded, Overloaded,
                         StoreUnavailable):
            assert ERROR_TYPES[exc_type.code] is exc_type
            assert issubclass(exc_type, ServeError)


# -- the encoders write what the asdict encoder wrote ------------------------


def _reference(obj: Request | Response) -> bytes:
    """The reference encoding: ``asdict`` with ``None`` fields dropped,
    the same separators.  ``asdict`` deep-copies every field, so the
    encoders must match it without calling it."""
    payload = {k: v for k, v in asdict(obj).items() if v is not None}
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def _maybe(values: st.SearchStrategy) -> st.SearchStrategy:
    return st.none() | values


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=4)),
    max_leaves=16)
# Short drawn lists, plus long ranges (up to a few thousand ids) built
# without drawing every element.
_IDS = (st.lists(st.integers(-(1 << 63), (1 << 63) - 1), max_size=40)
        | st.builds(lambda start, n, step: list(range(start, start + n * step,
                                                     step)),
                    st.integers(-(1 << 40), 1 << 40),
                    st.integers(0, 4000), st.integers(1, 1000)))
_COORDS = st.lists(st.floats(), max_size=3)

_REQUESTS = st.builds(
    Request,
    op=_maybe(st.sampled_from(OPS) | st.text(max_size=8)),
    id=_maybe(st.integers()),
    rect=_maybe(st.lists(_COORDS, max_size=3)),
    point=_maybe(_COORDS),
    deadline_s=_maybe(st.floats()),
    k=_maybe(st.integers()),
    path=_maybe(st.text()),
    data_id=_maybe(st.integers()))

_RESPONSES = st.builds(
    Response,
    id=_maybe(st.integers()),
    ok=_maybe(st.booleans()),
    op=_maybe(st.sampled_from(OPS) | st.text(max_size=8)),
    ids=_maybe(_IDS),
    distances=_maybe(st.lists(st.floats(min_value=0.0), max_size=40)),
    count=_maybe(st.integers()),
    partial=_maybe(st.booleans()),
    unreachable_subtrees=_maybe(st.integers()),
    error=_maybe(st.sampled_from(sorted(ERROR_TYPES)) | st.text(max_size=8)),
    message=_maybe(st.text()),
    data=_maybe(st.dictionaries(st.text(max_size=8), _JSON, max_size=6)),
    elapsed_s=_maybe(st.floats()))


class TestEncodersMatchTheAsdictReference:
    @settings(max_examples=150, deadline=None)
    @given(_REQUESTS)
    def test_any_request(self, req):
        assert encode_request(req) == _reference(req)

    @settings(max_examples=150, deadline=None)
    @given(_RESPONSES)
    def test_any_response(self, resp):
        assert encode_response(resp) == _reference(resp)

    def test_encoders_copy_nothing(self, monkeypatch):
        # Timings are not gated in CI; this is the guard on the
        # encoders' cost.  Deep-copying a 1,000-id answer took most of
        # a read's encode time.
        resp = Response(id=7, ok=True, op="search", ids=list(range(1000)),
                        count=1000, elapsed_s=0.0012)
        req = Request(op="search", id=7, rect=[[0.1, 0.1], [0.2, 0.2]],
                      deadline_s=0.5)
        want = _reference(resp), _reference(req)

        def refuse(*args, **kwargs):
            raise AssertionError("the encoder deep-copied a field")

        monkeypatch.setattr(copy, "deepcopy", refuse)
        assert (encode_response(resp), encode_request(req)) == want

    @settings(max_examples=150, deadline=None)
    @given(_RESPONSES, _IDS)
    @example(Response(id=1, ok=True, op="knn", distances=[0.0, 0.5, 2.0],
                      count=3, elapsed_s=0.0012),
             [-(1 << 63), 0, (1 << 63) - 1])
    @example(Response(id=2, ok=True, op="search", count=0, partial=True,
                      unreachable_subtrees=1), [])
    @example(Response(id=3, ok=True, op="point", count=2),
             [-((1 << 63) - 1), -1])
    @example(Response(id=None, ok=None, op=None, partial=None,
                      unreachable_subtrees=None), [5])
    def test_pre_encoded_ids_write_the_list_bytes(self, resp, ids):
        listed = replace(resp, ids=ids)
        encoded = replace(resp, ids=encode_ids(ids))
        assert encode_response(encoded) == encode_response(listed) \
            == _reference(listed)
        if resp.id is not None and resp.ok is not None:  # decodable
            assert decode_response(encode_response(encoded)).ids == ids


CAPACITY = 25
NDIM = 2
PAGE_SIZE = required_page_size(CAPACITY, NDIM) + TRAILER_SIZE
WHOLE = Rect((0.0, 0.0), (1.0, 1.0))


def _build_trees(workdir):
    """A clean durable tree, plus a copy with one bit-flipped leaf."""
    rng = np.random.default_rng(2024)
    clean = workdir / "clean.rt"
    store = FilePageStore(clean, PAGE_SIZE, checksums=True)
    tree, _ = bulk_load(RectArray.from_points(rng.random((2_000, NDIM))),
                        SortTileRecursive(), capacity=CAPACITY, store=store)
    leaf = int(tree.read_node(int(tree.root_node().children[0]))
               .children[0])
    store.close()
    corrupt = workdir / "corrupt.rt"
    shutil.copyfile(clean, corrupt)
    store = FilePageStore.open_existing(corrupt)
    corrupt_pages(store, [(leaf, PAGE_SIZE * 4 + 5)])
    store.close()
    return clean, corrupt


def _shape(resp: Response) -> str:
    """A name for the kind of response, for the coverage check."""
    if not resp.ok:
        return f"{resp.error}{'' if resp.op else ' (no op)'}"
    if resp.partial:
        return f"{resp.op} partial"
    if resp.op in ("healthz", "readyz", "stats"):
        return f"{resp.op} {'pool' if 'pool' in resp.data else 'ingest'}"
    return resp.op


async def _raw_lines(host, port, payload: bytes) -> None:
    """Send lines on a connection of their own and read it to EOF."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(payload)
    await writer.drain()
    writer.write_eof()
    await reader.read()
    writer.close()
    await writer.wait_closed()


async def _common_reads(server, client):
    """The reads and admin ops both kinds of server answer."""
    host, port = server.address
    assert (await client.ping())["version"] == 1
    for op in ("healthz", "readyz", "stats"):
        await client.request(Request(op=op))
    (await client.search(Rect((0.4, 0.4), (0.5, 0.5)))).raise_for_error()
    (await client.count(Rect((0.4, 0.4), (0.5, 0.5)))).raise_for_error()
    (await client.point([0.5, 0.5])).raise_for_error()
    (await client.knn([0.5, 0.5], 5)).raise_for_error()
    await client.request(Request(op="knn", point=[0.5, 0.5]))  # no k
    await client.search(WHOLE, deadline_s=1e-9)
    await client.request(Request(op="reload", path="/nonexistent.rt"))
    await _raw_lines(host, port, b"not json\n{\"op\": \"nope\", \"id\": 4}\n")
    # Every typed error, through the server's own error path.
    real = server._handle_query
    for exc_type in ERROR_TYPES.values():
        async def fail(req, exc_type=exc_type):
            raise exc_type(f"forced {exc_type.code}")
        server._handle_query = fail
        resp = await client.search(WHOLE)
        assert resp.error == exc_type.code
    server._handle_query = real


def test_every_server_response_matches_the_reference(tmp_path, monkeypatch):
    clean, corrupt = _build_trees(tmp_path)
    shutil.copyfile(clean, tmp_path / "next.rt")
    shutil.copyfile(clean, tmp_path / "ingest.rt")
    sent: list[tuple[Response, bytes, bytes]] = []
    spliced = []

    def recording(resp):
        # The reference encodes ids the pool sent pre-encoded as a
        # string; hand it the list they stand for.
        listed = resp
        if isinstance(resp.ids, EncodedIds):
            listed = replace(resp, ids=json.loads(resp.ids))
            spliced.append(resp.op)
        sent.append((listed, encode_response(resp), _reference(listed)))
        return sent[-1][1]

    monkeypatch.setattr(server_module, "encode_response", recording)

    async def pooled():
        tree = PagedRTree.from_store(FilePageStore.open_existing(corrupt))
        server = QueryServer(tree, buffer_pages=32, workers=2,
                             allow_reload=True)
        try:
            async with server:
                assert server.pool is not None, server.pool_start_error
                async with await QueryClient.connect(
                        *server.address) as client:
                    await _common_reads(server, client)
                    resp = await client.search(WHOLE)
                    assert resp.partial and resp.unreachable_subtrees
                    await client.insert(1, WHOLE)  # not an ingest server
                    await client.request(Request(op="merge"))
                    await client.reload(str(tmp_path / "next.rt"))
        finally:
            tree.store.close()
            server.tree.store.close()  # the reloaded generation

    async def ingest():
        state, base = IngestState.open(tmp_path / "ingest.rt", ndim=NDIM)
        tree = PagedRTree.from_store(FilePageStore.open_existing(base))
        server = QueryServer(tree, buffer_pages=32, ingest=state)
        try:
            async with server:
                async with await QueryClient.connect(
                        *server.address) as client:
                    (await client.insert(
                        5_000, Rect((0.45, 0.45), (0.46, 0.46)))
                     ).raise_for_error()
                    (await client.delete(3)).raise_for_error()
                    await _common_reads(server, client)
                    assert (await client.merge())["merged"]
                    assert not (await client.merge())["merged"]
                    await _raw_lines(*server.address,
                                     b"x" * (REQUEST_LINE_LIMIT + 10)
                                     + b"\n")
        finally:
            tree.store.close()
            server.tree.store.close()  # the merged generation

    asyncio.run(pooled())
    asyncio.run(ingest())
    differ = [(resp, got, want) for resp, got, want in sent if got != want]
    assert not differ, differ[0]
    assert {"search", "point", "knn"} <= set(spliced)
    shapes = {_shape(resp) for resp, _, _ in sent}
    expected = {"ping", "search", "count", "point", "knn", "search partial",
                "insert", "delete", "merge", "reload",
                "BadRequest (no op)"}
    expected |= {f"{op} {kind}" for op in ("healthz", "readyz", "stats")
                 for kind in ("pool", "ingest")}
    expected |= set(ERROR_TYPES)
    assert expected <= shapes, expected - shapes
    assert any(resp.distances for resp, _, _ in sent)
