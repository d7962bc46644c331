"""HTTP request/response objects with wire serialization."""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

from repro.errors import HttpError

CRLF = b"\r\n"

# header name -> (name, its lower-case key), one shared pair per distinct
# name: every message that carries "Content-Length" keeps the same two
# strings instead of its own, and a name seen before costs no lower().
# Capped, so a peer sending ever-new names cannot grow it; a name past the
# cap is spelled per message, as every name was before.
_NAMES: Dict[str, Tuple[str, str]] = {}
_NAMES_MAX = 256


def header_name(name: str) -> Tuple[str, str]:
    """``name`` and its lower-case key, shared when ``name`` was seen before."""
    names = _NAMES.get(name)
    if names is None:
        names = (name, name.lower())
        if len(_NAMES) < _NAMES_MAX:
            _NAMES[name] = names
    return names


class Headers:
    """Case-insensitive HTTP header map preserving insertion order.

    Each entry is key -> ``(name, value)``.  The pairs are immutable, so a
    parsed map may hold the very pairs other messages hold (see
    ``http/parser.py``'s line table): ``set`` replaces a pair in this map
    only, and changes no other message.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Optional[Mapping[str, str]] = None):
        self._items: Dict[str, Tuple[str, str]] = {}
        if items:
            for name, value in items.items():
                self.set(name, value)

    @classmethod
    def of_pairs(cls, items: Dict[str, Tuple[str, str]]) -> "Headers":
        """A map over ``items`` (key -> ``(name, value)``), kept as given."""
        out = cls.__new__(cls)
        out._items = items
        return out

    def set(self, name: str, value: str) -> str:
        """Set a header; returns its case-insensitive key."""
        name, key = header_name(name)
        self._items[key] = (name, str(value))
        return key

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        entry = self._items.get(name.lower())
        return entry[1] if entry else default

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._items

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._items.values())

    def __len__(self) -> int:
        return len(self._items)

    def copy(self) -> "Headers":
        return Headers.of_pairs(dict(self._items))

    def serialize(self) -> bytes:
        return b"".join(
            f"{name}: {value}".encode() + CRLF for name, value in self._items.values()
        )

    def __repr__(self) -> str:
        return f"Headers({dict(self._items.values())!r})"


class HttpRequest:
    """An HTTP request.

    The fields YODA's rule engine matches on (Section 5.1) are all here:
    the URL (path), arbitrary headers, and cookies.
    """

    __slots__ = ("method", "path", "version", "headers", "body")

    def __init__(
        self,
        method: str = "GET",
        path: str = "/",
        version: str = "HTTP/1.1",
        headers: Optional[Mapping[str, str]] = None,
        body: Body = b"",
        host: str = "",
    ):
        self.method = method.upper()
        self.path = path
        self.version = version
        self.headers = headers if isinstance(headers, Headers) else Headers(headers)
        self.body = body
        if host and "Host" not in self.headers:
            self.headers.set("Host", host)
        if body and "Content-Length" not in self.headers:
            self.headers.set("Content-Length", str(len(body)))

    @property
    def host(self) -> str:
        return self.headers.get("Host", "")

    @property
    def url(self) -> str:
        """host + path, the form rule matches are written against."""
        return f"{self.host}{self.path}"

    def cookie(self, name: str) -> Optional[str]:
        """Value of a cookie from the Cookie header, or None."""
        raw = self.headers.get("Cookie")
        if not raw:
            return None
        for part in raw.split(";"):
            key, _, value = part.strip().partition("=")
            if key == name:
                return value
        return None

    def serialize(self) -> bytes:
        start = f"{self.method} {self.path} {self.version}".encode() + CRLF
        return start + self.headers.serialize() + CRLF + self.body

    def __repr__(self) -> str:
        return f"HttpRequest({self.method} {self.url} {self.version})"


class HttpResponse:
    """An HTTP response; Content-Length is always set so framing is exact.

    A built response sets it from its body.  A parsed one (its body a
    :class:`BodyDigest`) keeps the header it was framed by, and gets one
    from the bytes consumed when it ran to connection close.
    """

    __slots__ = ("status", "reason", "version", "headers", "body")

    STATUS_REASONS = {
        200: "OK",
        204: "No Content",
        301: "Moved Permanently",
        302: "Found",
        400: "Bad Request",
        404: "Not Found",
        500: "Internal Server Error",
        502: "Bad Gateway",
        503: "Service Unavailable",
        504: "Gateway Timeout",
    }

    def __init__(
        self,
        status: int = 200,
        headers: Optional[Mapping[str, str]] = None,
        body: Body = b"",
        version: str = "HTTP/1.1",
        reason: Optional[str] = None,
    ):
        self.status = status
        self.reason = reason or self.STATUS_REASONS.get(status, "Unknown")
        self.version = version
        self.headers = headers if isinstance(headers, Headers) else Headers(headers)
        self.body = body
        if not isinstance(body, BodyDigest) or "Content-Length" not in self.headers:
            self.headers.set("Content-Length", str(len(body)))

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def serialize(self) -> bytes:
        start = f"{self.version} {self.status} {self.reason}".encode() + CRLF
        return start + self.headers.serialize() + CRLF + self.body

    def __repr__(self) -> str:
        return f"HttpResponse({self.status} {self.reason}, {len(self.body)} bytes)"


class BodyDigest:
    """A parsed message's body, kept as its length and SHA-256.

    The parser hashes body bytes as they arrive and keeps none of them, so
    a fetch holds about a hundred bytes instead of its object.  ``len()``
    is the count of body bytes the parser consumed, and a digest compares
    equal to exactly the bytes it digests, so ``response.body == content``
    checks content without the content being kept.  It is not bytes:
    ``serialize()`` refuses it, and only built messages are serialized.
    """

    __slots__ = ("length", "sha256")

    def __init__(self, length: int, sha256: bytes):
        self.length = length
        self.sha256 = sha256

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BodyDigest):
            return self.length == other.length and self.sha256 == other.sha256
        if isinstance(other, (bytes, bytearray, memoryview)):
            return (len(other) == self.length
                    and hashlib.sha256(other).digest() == self.sha256)
        return NotImplemented

    def __repr__(self) -> str:
        return f"BodyDigest({self.length} bytes, sha256 {self.sha256.hex()[:16]}...)"


Body = Union[bytes, BodyDigest]  # bytes when built, a digest when parsed


def parse_request_line(line: bytes) -> Tuple[str, str, str]:
    parts = line.decode("latin-1").split(" ", 2)
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(f"malformed request line {line!r}")
    return parts[0], parts[1], parts[2]


def parse_status_line(line: bytes) -> Tuple[str, int, str]:
    parts = line.decode("latin-1").split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise HttpError(f"malformed status line {line!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise HttpError(f"bad status code in {line!r}") from exc
    reason = parts[2] if len(parts) == 3 else ""
    return parts[0], status, reason
