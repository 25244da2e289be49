"""Minimal HTTP/1.1 wire layer over asyncio streams (stdlib only).

Just enough protocol for the service: request line, headers,
``Content-Length`` bodies, keep-alive.  Parsing is deliberately tight —
the op endpoints sit on the latency path, so the parser does one
``readuntil`` for the head, splits on CRLF, and only lower-cases the
few header names it reads.  No chunked encoding, no continuations, no
multipart: a request the parser does not understand is a clean ``400``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple
from urllib.parse import parse_qs, unquote

from repro.explore.catalog import payload_bytes

#: Protocol bounds: generous for JSON op payloads, small enough that a
#: misbehaving client cannot balloon memory.
MAX_HEAD_BYTES = 16 * 1024
MAX_BODY_BYTES = 1 * 1024 * 1024

_HEAD_TOO_LARGE = (
    f"request head too large: over the {MAX_HEAD_BYTES}-byte "
    "MAX_HEAD_BYTES limit"
)

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(Exception):
    """Malformed request; carries the status the server should answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query_string: str
    headers: Dict[str, str]
    body: bytes
    keep_alive: bool = True
    #: The request's trace (set by the server once admission to the
    #: connection loop mints it; ``None`` when handlers are driven
    #: directly, e.g. from unit tests).
    trace: Optional[object] = field(default=None, repr=False)
    _query: Optional[Dict[str, str]] = field(default=None, repr=False)

    @property
    def query(self) -> Dict[str, str]:
        """Query params, last-wins, decoded lazily (off the hot path)."""
        if self._query is None:
            parsed = parse_qs(self.query_string, keep_blank_values=True)
            self._query = {k: v[-1] for k, v in parsed.items()}
        return self._query

    def json(self) -> dict:
        """Parse the body as a JSON object; :class:`ProtocolError` on junk."""
        if not self.body:
            raise ProtocolError(400, "expected a JSON body")
        try:
            doc = json.loads(self.body)
        except ValueError as exc:
            raise ProtocolError(400, f"malformed JSON body: {exc}") from exc
        if not isinstance(doc, dict):
            raise ProtocolError(400, "JSON body must be an object")
        return doc


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Read one request; ``None`` on clean end-of-stream (client done)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise ProtocolError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(413, _HEAD_TOO_LARGE) from exc
    if len(head) > MAX_HEAD_BYTES:
        raise ProtocolError(413, _HEAD_TOO_LARGE)

    lines = head[:-4].split(b"\r\n")
    try:
        method_b, target_b, version_b = lines[0].split(b" ", 2)
    except ValueError as exc:
        raise ProtocolError(400, "malformed request line") from exc
    if version_b not in (b"HTTP/1.1", b"HTTP/1.0"):
        raise ProtocolError(400, f"unsupported protocol {version_b!r}")

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(b":")
        if not sep:
            raise ProtocolError(400, "malformed header line")
        headers[name.strip().lower().decode("latin-1")] = (
            value.strip().decode("latin-1")
        )

    length = 0
    raw_length = headers.get("content-length")
    if raw_length is not None:
        try:
            length = int(raw_length)
        except ValueError as exc:
            raise ProtocolError(400, "malformed Content-Length") from exc
        if length < 0:
            raise ProtocolError(400, "negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                413,
                f"request body too large: {length} bytes, over the "
                f"{MAX_BODY_BYTES}-byte MAX_BODY_BYTES limit",
            )
    elif "transfer-encoding" in headers:
        raise ProtocolError(400, "chunked bodies are not supported")

    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(400, "truncated request body") from exc

    target = target_b.decode("latin-1")
    path, _, query_string = target.partition("?")
    connection = headers.get("connection", "").lower()
    keep_alive = (
        connection != "close"
        if version_b == b"HTTP/1.1"
        else connection == "keep-alive"
    )
    return Request(
        method=method_b.decode("latin-1").upper(),
        path=unquote(path),
        query_string=query_string,
        headers=headers,
        body=body,
        keep_alive=keep_alive,
    )


def build_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Sequence[Tuple[str, str]] = (),
    keep_alive: bool = True,
) -> bytes:
    """Assemble a full response as one bytes blob (single ``write``)."""
    reason = REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in extra_headers:
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


#: Terminates a chunked response body (zero-length chunk, no trailers).
LAST_CHUNK = b"0\r\n\r\n"


def build_stream_head(
    status: int,
    content_type: str = "application/x-ndjson",
    extra_headers: Sequence[Tuple[str, str]] = (),
    keep_alive: bool = True,
) -> bytes:
    """Response head for a ``Transfer-Encoding: chunked`` body.

    Streaming responses (``/v1/explore``) cannot know their length up
    front — each design point is written as its own chunk the moment
    the engine produces it — so the body is delimited by the chunked
    framing instead of ``Content-Length``, and the connection stays
    usable afterwards because the terminator is explicit.
    """
    reason = REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        "Transfer-Encoding: chunked",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in extra_headers:
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")


def encode_chunk(data: bytes) -> bytes:
    """One chunked-encoding frame: hex length, CRLF, payload, CRLF."""
    return b"%x\r\n%s\r\n" % (len(data), data)


#: Compact JSON encoding for response bodies: the one canonical wire
#: encoder, shared with the offline ``repro explore``/``recommend`` twins.
json_body = payload_bytes


def error_body(status: int, message: str) -> bytes:
    return json_body({"error": REASONS.get(status, "Unknown"), "detail": message})
