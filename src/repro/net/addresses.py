"""IP endpoints and address allocation.

Addresses are plain dotted-quad strings; :class:`Endpoint` pairs an address
with a port and is hashable so it can key flow tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from repro.errors import AddressError

# ASCII digits, whole string: ``\d`` also matches Arabic-Indic and full-width
# digits and ``$`` a trailing newline, and two strings that render alike
# must not become two route / hash-ring / flow-table keys
_IP_RE = re.compile(r"([0-9]{1,3})\.([0-9]{1,3})\.([0-9]{1,3})\.([0-9]{1,3})")

# Address strings that passed :func:`_check_ip`.  A simulated world has a
# few hundred addresses and builds endpoints from them millions of times;
# a string not in here is always checked in full.
_VALID_IPS: set = set()
_VALID_IPS_MAX = 65536


def _check_ip(ip: str) -> None:
    """The full check: raise unless ``ip`` is a well-formed dotted quad."""
    m = _IP_RE.fullmatch(ip)
    if not m or any(int(octet) > 255 for octet in m.groups()):
        raise AddressError(f"invalid IPv4 address {ip!r}")


def validate_ip(ip: str) -> str:
    """Return ``ip`` if it is a well-formed dotted quad, else raise."""
    if ip not in _VALID_IPS:
        _check_ip(ip)
        if len(_VALID_IPS) >= _VALID_IPS_MAX:
            _VALID_IPS.clear()
        _VALID_IPS.add(ip)
    return ip


@dataclass(frozen=True, order=True)
class Endpoint:
    """An (ip, port) pair."""

    ip: str
    port: int

    def __post_init__(self) -> None:
        validate_ip(self.ip)
        port = self.port
        if not isinstance(port, int) or not 0 <= port <= 65535:
            raise AddressError(f"invalid port {port!r}")

    @cached_property
    def text(self) -> str:
        """``ip:port``, rendered once: the endpoint is immutable and the
        capture path reads this for every traced packet."""
        return f"{self.ip}:{self.port}"

    def __str__(self) -> str:
        return self.text

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        """Parse "ip:port" (no surrounding whitespace, ASCII digits)."""
        ip, sep, port = text.partition(":")
        if not sep:
            raise AddressError(f"expected 'ip:port', got {text!r}")
        if not (port.isascii() and port.isdigit()):
            raise AddressError(f"invalid port in {text!r}")
        return cls(ip, int(port))


class EphemeralPorts:
    """Allocates client-side ephemeral ports, wrapping within 32768-60999."""

    LOW, HIGH = 32768, 60999

    def __init__(self) -> None:
        self._next = self.LOW

    def next(self) -> int:
        port = self._next
        self._next += 1
        if self._next > self.HIGH:
            self._next = self.LOW
        return port
