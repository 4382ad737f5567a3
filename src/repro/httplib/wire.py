"""HTTP/1.1 byte codec for the live engine.

The simulator hands :class:`~repro.httplib.messages.HttpRequest` /
:class:`HttpResponse` objects across the transport directly; the live
stack (:mod:`repro.engine.livenet`) must put them on real sockets.  This
codec speaks minimal, connection-close HTTP/1.1 — one request, one
response, matching the simulated ``tcp_exchange`` semantics exactly.

Bodies in this library are *size-only* :class:`DataObject` metadata, so
the payload on the wire is ``size_bytes`` filler octets (the real bytes
matter for transfer timing, not their content) and the object's
metadata rides in ``x-repro-*`` headers:

=========================  =========================================
``x-repro-url``            the request's full URL (identity + query)
``x-repro-object-url``     response body's basic URL
``x-repro-object-version`` response body's version counter
``x-repro-object-created`` response body's creation timestamp (s)
``x-repro-body-bytes``     request body size (requests carry no data)
=========================  =========================================

Round-tripping a message through ``encode_* -> read_*`` reproduces it
field for field, which is what keeps the interceptor chain and the AP
runtime byte-path-agnostic.
"""

from __future__ import annotations

import asyncio
import math
import typing as _t

from repro.errors import HttpError
from repro.httplib.content import DataObject
from repro.httplib.messages import HttpRequest, HttpResponse
from repro.httplib.url import Url

__all__ = [
    "encode_request", "encode_response", "encode_payload_response",
    "read_request", "read_response",
    "MAX_HEADER_BYTES",
]

#: Ceiling on the header block of one message; a live peer sending more
#: is malformed (or not speaking this protocol at all).
MAX_HEADER_BYTES = 64 * 1024

#: Reserved metadata header names, stripped on decode so they never leak
#: into the reconstructed message's header dict.
_RESERVED = frozenset({
    "x-repro-url", "x-repro-object-url", "x-repro-object-version",
    "x-repro-object-created", "x-repro-body-bytes", "content-length",
})

_CRLF = b"\r\n"

_REASONS = {200: "OK", 404: "Not Found", 500: "Internal Server Error",
            502: "Bad Gateway", 503: "Service Unavailable",
            504: "Gateway Timeout"}


def encode_request(request: HttpRequest) -> bytes:
    """Serialize a request as one connection-close HTTP/1.1 message."""
    url = request.url
    path = url.full[len(f"{url.scheme}://{url.host}"):] or "/"
    lines = [f"{request.method} {path} HTTP/1.1",
             f"host: {url.host}",
             f"x-repro-url: {url.full}",
             f"x-repro-body-bytes: {request.body_bytes}"]
    lines.extend(f"{name}: {value}"
                 for name, value in request.headers.items()
                 if name not in _RESERVED)
    lines.append("content-length: 0")
    return _CRLF.join(line.encode("latin-1") for line in lines) + 2 * _CRLF


def encode_response(response: HttpResponse) -> bytes:
    """Serialize a response; the body becomes ``size_bytes`` filler."""
    reason = _REASONS.get(response.status, "Status")
    lines = [f"HTTP/1.1 {response.status} {reason}"]
    lines.extend(f"{name}: {value}"
                 for name, value in response.headers.items()
                 if name not in _RESERVED)
    body = response.body
    size = 0
    if body is not None:
        size = body.size_bytes
        lines.append(f"x-repro-object-url: {body.url}")
        lines.append(f"x-repro-object-version: {body.version}")
        lines.append(f"x-repro-object-created: {body.created_at!r}")
    lines.append(f"content-length: {size}")
    head = _CRLF.join(line.encode("latin-1") for line in lines) + 2 * _CRLF
    return head + b"\0" * size


def encode_payload_response(status: int, payload: bytes,
                            content_type: str = "text/plain") -> bytes:
    """Serialize a response that carries a *real* byte payload.

    The cache path ships size-only filler bodies
    (:func:`encode_response`); the admin plane needs actual content —
    exposition text, health JSON — so this variant writes the given
    bytes verbatim with a content type, still connection-close HTTP/1.1
    that ``curl``/``urllib`` read directly.
    """
    reason = _REASONS.get(status, "Status")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"content-type: {content_type}",
             f"content-length: {len(payload)}",
             "connection: close"]
    head = _CRLF.join(line.encode("latin-1") for line in lines) + 2 * _CRLF
    return head + payload


async def read_request(reader: asyncio.StreamReader) -> HttpRequest:
    """Parse one request from a live connection."""
    start_line, headers = await _read_head(reader)
    parts = start_line.split(" ")
    if len(parts) != 3:
        raise HttpError(f"malformed request line {start_line!r}")
    method = parts[0]
    full_url = headers.get("x-repro-url")
    if full_url is None:
        # A foreign client (curl, a browser) — reconstruct from the
        # request line and host header; scheme is http on loopback.
        host = headers.get("host", "localhost")
        full_url = f"http://{host}{parts[1]}"
    body_bytes = _header_number(headers, "x-repro-body-bytes", int)
    await _drain_body(reader,
                      _header_number(headers, "content-length", int))
    return HttpRequest(
        Url.parse(full_url), method,
        {name: value for name, value in headers.items()
         if name not in _RESERVED and name != "host"},
        body_bytes)


async def read_response(reader: asyncio.StreamReader) -> HttpResponse:
    """Parse one response from a live connection."""
    start_line, headers = await _read_head(reader)
    parts = start_line.split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise HttpError(f"malformed status line {start_line!r}")
    status = int(parts[1])
    size = _header_number(headers, "content-length", int)
    await _drain_body(reader, size)
    body: DataObject | None = None
    object_url = headers.get("x-repro-object-url")
    if object_url is not None:
        body = DataObject(
            object_url, size,
            version=_header_number(headers, "x-repro-object-version",
                                   int, default="1"),
            created_at=_header_number(headers, "x-repro-object-created",
                                      float))
    return HttpResponse(
        status,
        {name: value for name, value in headers.items()
         if name not in _RESERVED},
        body)


async def _read_head(reader: asyncio.StreamReader,
                     ) -> tuple[str, dict[str, str]]:
    """Read up to the blank line; return (start line, header dict)."""
    try:
        block = await reader.readuntil(2 * _CRLF)
    except asyncio.LimitOverrunError as err:
        raise HttpError(f"header block exceeds reader limit: {err}")
    except asyncio.IncompleteReadError as err:
        raise HttpError("connection closed mid-message") from err
    if len(block) > MAX_HEADER_BYTES:
        raise HttpError(f"header block of {len(block)} bytes exceeds "
                        f"{MAX_HEADER_BYTES}")
    lines = block.decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return lines[0], headers


_Number = _t.TypeVar("_Number", int, float)


def _header_number(headers: dict[str, str], name: str,
                   kind: _t.Callable[[str], _Number],
                   default: str = "0") -> _Number:
    """A numeric header as a finite, non-negative ``kind`` value.

    An absent header reads as ``default``; a value that does not parse,
    is negative, or is not finite is malformed input and raises
    :class:`HttpError`.
    """
    text = headers.get(name, default)
    try:
        value = kind(text)
    except ValueError:
        raise HttpError(f"non-numeric {name} header {text!r}") from None
    if not 0 <= value < math.inf:  # NaN fails both comparisons
        raise HttpError(f"{name} header must be finite and non-negative, "
                        f"got {text!r}")
    return value


async def _drain_body(reader: asyncio.StreamReader, size: int) -> None:
    """Consume and discard ``size`` filler octets."""
    remaining = size
    while remaining > 0:
        chunk = await reader.read(min(remaining, 1 << 16))
        if not chunk:
            raise HttpError("connection closed mid-body")
        remaining -= len(chunk)
