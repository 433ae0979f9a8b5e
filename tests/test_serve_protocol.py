"""Wire protocol round-trips and validation (``repro.serve.protocol``)."""

import json

import pytest

from repro.core.geometry import Rect
from repro.serve import (
    ERROR_TYPES,
    BadRequest,
    DeadlineExceeded,
    Overloaded,
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
