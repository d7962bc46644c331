"""Incremental HTTP message parser.

Feed it raw TCP bytes; it yields complete messages.  Both the backend
servers (requests) and clients (responses) use it, and so does YODA's
connection phase -- the instance must recognize when it has the *complete*
HTTP request header before it can run rule matching (Section 4.1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import HttpParseError
from repro.http.message import (
    CRLF,
    Headers,
    HttpRequest,
    HttpResponse,
    parse_request_line,
    parse_status_line,
)

HEADER_END = b"\r\n\r\n"
_ASCII_DIGITS = re.compile("[0-9]+").fullmatch


@dataclass
class ParsedMessage:
    """A complete request or response plus how many wire bytes it consumed."""

    message: object  # HttpRequest | HttpResponse
    wire_bytes: int


class HttpParser:
    """Parses a byte stream into HTTP messages.

    Args:
        kind: "request" or "response".
    """

    def __init__(self, kind: str):
        if kind not in ("request", "response"):
            raise ValueError(f"kind must be 'request' or 'response', got {kind!r}")
        self.kind = kind
        self._buf = bytearray()
        self._headers_done = False
        self._start_line: bytes = b""
        self._headers: Optional[Headers] = None
        self._body_needed = 0
        self._header_bytes = 0
        self._close_delimited = False

    @property
    def buffered(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes) -> List[ParsedMessage]:
        """Add bytes; return any messages completed by them."""
        self._buf.extend(data)
        out: List[ParsedMessage] = []
        while True:
            msg = self._try_parse_one()
            if msg is None:
                break
            out.append(msg)
        return out

    def finish(self) -> Optional[ParsedMessage]:
        """Signal EOF (peer closed).  Completes a close-delimited response."""
        if self._headers_done and self._close_delimited:
            body = bytes(self._buf)
            self._buf.clear()
            msg = self._build(body)
            wire = self._header_bytes + len(body)
            self._reset()
            return ParsedMessage(msg, wire)
        if self._buf and not self._headers_done:
            raise HttpParseError("connection closed mid-header")
        return None

    def header_complete(self) -> bool:
        """True once the current message's header block has fully arrived.

        YODA's connection phase polls this to know when server selection
        can run.
        """
        return self._headers_done or HEADER_END in self._buf

    def _try_parse_one(self) -> Optional[ParsedMessage]:
        if not self._headers_done:
            idx = self._buf.find(HEADER_END)
            if idx < 0:
                return None
            block = bytes(self._buf[:idx])
            del self._buf[: idx + len(HEADER_END)]
            self._header_bytes = idx + len(HEADER_END)
            self._start_line, self._headers, length = parse_header_block(block)
            self._headers_done = True
            if length is not None:
                self._body_needed = length
                self._close_delimited = False
            else:
                self._body_needed = 0
                # responses without Content-Length run to connection close
                self._close_delimited = self.kind == "response"
        if self._close_delimited:
            return None  # completed only by finish()
        if len(self._buf) < self._body_needed:
            return None
        body = bytes(self._buf[: self._body_needed])
        del self._buf[: self._body_needed]
        msg = self._build(body)
        wire = self._header_bytes + len(body)
        self._reset()
        return ParsedMessage(msg, wire)

    def _build(self, body: bytes):
        assert self._headers is not None
        if self.kind == "request":
            return _request(self._start_line, self._headers, body)
        version, status, reason = parse_status_line(self._start_line)
        resp = HttpResponse(status=status, version=version, reason=reason, body=body)
        # preserve original headers (constructor overwrote Content-Length)
        content_length = str(len(body))
        resp.headers = self._headers
        if "Content-Length" not in resp.headers:
            resp.headers.set("Content-Length", content_length)
        return resp

    def _reset(self) -> None:
        self._headers_done = False
        self._start_line = b""
        self._headers = None
        self._body_needed = 0
        self._header_bytes = 0
        self._close_delimited = False


def parse_header_block(block: bytes) -> Tuple[bytes, Headers, Optional[int]]:
    """One header block -- the bytes before the blank line -- as its start
    line, its headers and the Content-Length it declares (None if none).

    Raises HttpParseError on a header line without a colon, and on a
    Content-Length that is not exactly one run of ASCII digits.
    """
    lines = block.split(CRLF)
    headers = Headers()
    length: Optional[int] = None
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpParseError(f"malformed header line {line!r}")
        name, value = name.strip(), value.strip()
        if name.lower() == "content-length":
            # This value frames the message, so it is read exactly: int()
            # alone also takes "-5" (a body of buf[:-5]), "+5" and "1_0",
            # and of two different lengths the last would win (RFC 7230
            # 3.3.2-3.3.3).
            try:
                declared = int(value) if _ASCII_DIGITS(value) else -1
            except ValueError:  # more digits than int() converts
                declared = -1
            if declared < 0 or length not in (None, declared):
                raise HttpParseError(f"bad Content-Length {value!r}")
            length = declared
        headers.set(name, value)
    return lines[0], headers, length


def request_head(data: bytes) -> Optional[HttpRequest]:
    """The request whose header block opens ``data``, without its body
    (which may still be streaming in): what YODA's rule selection reads.

    None until the blank line ending the block has arrived.  A malformed
    block raises HttpError -- the verdict :class:`HttpParser` reaches on the
    same bytes, reached without waiting for the body.
    """
    idx = data.find(HEADER_END)
    if idx < 0:
        return None
    start_line, headers, _ = parse_header_block(data[:idx])
    return _request(start_line, headers, b"")


def _request(start_line: bytes, headers: Headers, body: bytes) -> HttpRequest:
    method, path, version = parse_request_line(start_line)
    req = HttpRequest(method=method, path=path, version=version, body=body)
    req.headers = headers
    return req
