"""Incremental HTTP message parser.

Feed it raw TCP bytes; it yields complete messages.  Both the backend
servers (requests) and clients (responses) use it, and so does YODA's
connection phase -- the instance must recognize when it has the *complete*
HTTP request header before it can run rule matching (Section 4.1).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import HttpParseError
from repro.http.message import (
    CRLF,
    Body,
    BodyDigest,
    Headers,
    HttpRequest,
    HttpResponse,
    header_name,
    parse_request_line,
    parse_status_line,
)

HEADER_END = b"\r\n\r\n"
_ASCII_DIGITS = re.compile("[0-9]+").fullmatch

# A header line or status line seen before is parsed once.  Raw line bytes
# -> what they parse to, shared by every message that carries them:
#   a header line -> its key and its (name, value) pair;
#   a status line + CRLF -> its (version, status, reason).  The CRLF keeps
#   the two kinds apart: no header line, split out on CRLF, contains one.
# Entries are immutable strs and tuples, so sharing shows only through
# identity.  A line is remembered only once it parsed without raising, and
# Content-Length is validated on every message that carries it, hit or
# miss.  Capped, so a peer sending ever-new lines cannot grow it; past the
# cap a line is parsed per message.
_LINES: Dict[bytes, tuple] = {}
_LINES_MAX = 512


@dataclass
class ParsedMessage:
    """A complete request or response plus how many wire bytes it consumed."""

    message: object  # HttpRequest | HttpResponse
    wire_bytes: int


class HttpParser:
    """Parses a byte stream into HTTP messages.

    Bodies stream: once a header block is parsed, each body byte goes into
    a running SHA-256 and a count and is never buffered, and the message
    yielded carries its body as a :class:`BodyDigest`.  Only a partial
    header block, and the bytes that follow a body on a keep-alive
    connection, are buffered.

    Args:
        kind: "request" or "response".
    """

    def __init__(self, kind: str):
        if kind not in ("request", "response"):
            raise ValueError(f"kind must be 'request' or 'response', got {kind!r}")
        self.kind = kind
        self._buf = bytearray()
        self._reset()

    @property
    def buffered(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes) -> List[ParsedMessage]:
        """Add bytes; return any messages completed by them."""
        out: List[ParsedMessage] = []
        while True:
            if self._hash is None:
                self._buf.extend(data)
                idx = self._buf.find(HEADER_END)
                if idx < 0:
                    return out
                self._start_head(idx)
                data = bytes(self._buf)
                self._buf.clear()
            take = self._body_left
            if len(data) < take:
                self._hash.update(data)
                self.body_received += len(data)
                self._body_left -= len(data)
                return out
            self._hash.update(data[:take])
            self.body_received += take
            out.append(self._complete())
            data = data[take:]
            if not data:
                return out

    def finish(self) -> Optional[ParsedMessage]:
        """Signal EOF (peer closed).  Completes a close-delimited response."""
        if self.body_length is None and self._hash is not None:
            return self._complete()
        if self._buf and self._hash is None:
            raise HttpParseError("connection closed mid-header")
        return None

    def header_complete(self) -> bool:
        """True once the current message's header block has fully arrived.

        YODA's connection phase polls this to know when server selection
        can run.
        """
        return self._hash is not None or HEADER_END in self._buf

    def _start_head(self, idx: int) -> None:
        """Parse the header block ending at ``idx`` and start its body."""
        block = bytes(self._buf[:idx])
        del self._buf[: idx + len(HEADER_END)]
        self._header_bytes = idx + len(HEADER_END)
        self._start_line, self._headers, length = parse_header_block(block)
        if length is None and self.kind == "response":
            # responses without Content-Length run to connection close
            self.body_length = None
            self._body_left = float("inf")
        else:
            self.body_length = self._body_left = length or 0
        self._hash = hashlib.sha256()

    def _complete(self) -> ParsedMessage:
        body = BodyDigest(self.body_received, self._hash.digest())
        msg = self._build(body)
        wire = self._header_bytes + self.body_received
        self._reset()
        return ParsedMessage(msg, wire)

    def _build(self, body: BodyDigest):
        assert self._headers is not None
        if self.kind == "request":
            return _request(self._start_line, self._headers, body)
        key = self._start_line + CRLF
        status_line = _LINES.get(key)
        if status_line is None:
            status_line = parse_status_line(self._start_line)
            if len(_LINES) < _LINES_MAX:
                _LINES[key] = status_line
        version, status, reason = status_line
        return HttpResponse(status, self._headers, body, version, reason)

    def _reset(self) -> None:
        """Between messages: no header block, no body in progress."""
        self._start_line = b""
        self._headers: Optional[Headers] = None
        self._header_bytes = 0
        self._hash = None  # the body's running SHA-256 once its head is parsed
        self._body_left = 0  # body bytes still to come (inf: to close)
        # the body in progress: its declared Content-Length (None while no
        # head is parsed, or when it runs to close) and the bytes consumed
        self.body_length: Optional[int] = None
        self.body_received = 0


def parse_header_block(block: bytes) -> Tuple[bytes, Headers, Optional[int]]:
    """One header block -- the bytes before the blank line -- as its start
    line, its headers and the Content-Length it declares (None if none).

    Raises HttpParseError on a header line without a colon, and on a
    Content-Length that is not exactly one run of ASCII digits.
    """
    lines = block.split(CRLF)
    items: Dict[str, Tuple[str, str]] = {}
    length: Optional[int] = None
    for line in lines[1:]:
        if not line:
            continue
        entry = _LINES.get(line)
        seen = entry is not None
        if not seen:
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise HttpParseError(f"malformed header line {line!r}")
            name, key = header_name(name.strip())
            entry = (key, (name, value.strip()))
        key, pair = entry
        if key == "content-length":
            # This value frames the message, so it is read exactly: int()
            # alone also takes "-5" (a body of buf[:-5]), "+5" and "1_0",
            # and of two different lengths the last would win (RFC 7230
            # 3.3.2-3.3.3).
            value = pair[1]
            try:
                declared = int(value) if _ASCII_DIGITS(value) else -1
            except ValueError:  # more digits than int() converts
                declared = -1
            if declared < 0 or length not in (None, declared):
                raise HttpParseError(f"bad Content-Length {value!r}")
            length = declared
        if not seen and len(_LINES) < _LINES_MAX:
            _LINES[line] = entry
        items[key] = pair
    return lines[0], Headers.of_pairs(items), length


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


def _request(start_line: bytes, headers: Headers, body: Body) -> HttpRequest:
    method, path, version = parse_request_line(start_line)
    return HttpRequest(method, path, version, headers, body)
