"""The live HTTP/1.1 wire codec: round trips and malformed numeric headers."""

import asyncio

import pytest

from repro.errors import HttpError
from repro.httplib.content import DataObject
from repro.httplib.messages import HttpRequest, HttpResponse
from repro.httplib.url import Url
from repro.httplib.wire import (
    encode_request,
    encode_response,
    read_request,
    read_response,
)


def _read(parse, data: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await parse(reader)

    return asyncio.run(run())


def test_request_and_response_round_trip():
    request = HttpRequest(Url.parse("http://a.example/x?q=1"), "GET",
                          {"x-ape-trace": "7-1"}, 12)
    decoded = _read(read_request, encode_request(request))
    assert decoded.url.full == request.url.full
    assert decoded.headers == {"x-ape-trace": "7-1"}
    assert decoded.body_bytes == 12
    body = DataObject("http://a.example/x", 300, version=4,
                      created_at=2.5)
    response = _read(read_response,
                     encode_response(HttpResponse(200, {}, body)))
    assert response.status == 200
    assert response.body == body


_REQUEST = (b"GET /x HTTP/1.1\r\nhost: a.example\r\n"
            b"x-repro-body-bytes: %s\r\ncontent-length: %s\r\n\r\n")
_RESPONSE = (b"HTTP/1.1 200 OK\r\nx-repro-object-url: http://a.example/x"
             b"\r\nx-repro-object-version: %s\r\n"
             b"x-repro-object-created: %s\r\ncontent-length: %s\r\n\r\n")


@pytest.mark.parametrize("parse, data, header", [
    (read_request, _REQUEST % (b"0", b"abc"), "content-length"),
    (read_request, _REQUEST % (b"1e9", b"0"), "x-repro-body-bytes"),
    (read_request, _REQUEST % (b"0", b"-5"), "content-length"),
    (read_response, _RESPONSE % (b"v2", b"0.0", b"0"),
     "x-repro-object-version"),
    (read_response, _RESPONSE % (b"1", b"nan?", b"0"),
     "x-repro-object-created"),
    (read_response, _RESPONSE % (b"1", b"nan", b"0"),
     "x-repro-object-created"),
    (read_response, _RESPONSE % (b"1", b"0.0", b"-5"), "content-length"),
    (read_response, b"HTTP/1.1 200 OK\r\ncontent-length: -5\r\n\r\n",
     "content-length"),
], ids=["req-length-abc", "req-body-bytes-1e9", "req-length-negative",
        "resp-version-v2", "resp-created-nan?", "resp-created-nan",
        "resp-length-negative", "resp-bodyless-length-negative"])
def test_malformed_numeric_headers_raise_http_error(parse, data, header):
    with pytest.raises(HttpError, match=header):
        _read(parse, data)
