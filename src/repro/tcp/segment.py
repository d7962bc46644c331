"""32-bit sequence-space arithmetic (RFC 793 style).

Sequence numbers live modulo 2**32 and comparisons are only meaningful for
numbers within half the space of each other.  YODA's whole tunneling trick
is a constant offset in this space (Section 4.1: translate server sequence
numbers by C - S), so these helpers are shared between the TCP endpoints
and YODA's packet rewriter -- and they must agree about wraparound.

This module is the definition.  The per-segment paths (the established-
state methods of ``tcp/endpoint.py``, the instance's two translate
functions) spell the two primitives out in place, because a python call
costs more than the arithmetic it wraps:

- ``seq_add(a, n)``  is ``(a + n) & SEQ_MASK``
- ``seq_diff(a, b)`` is ``((a - b + SEQ_HALF) & SEQ_MASK) - SEQ_HALF``

for any python ints, negative ``n`` and ``a - b`` included (``&`` with a
positive mask is the non-negative residue, exactly as ``%`` is).
``tests/test_tcp_segment.py`` holds the two spellings equal over the whole
32-bit space; everything off the per-segment path calls the functions.
"""

from __future__ import annotations

SEQ_MOD = 1 << 32
SEQ_MASK = SEQ_MOD - 1
SEQ_HALF = 1 << 31


def seq_add(seq: int, delta: int) -> int:
    """seq + delta, mod 2**32 (delta may be negative)."""
    return (seq + delta) % SEQ_MOD


def seq_diff(a: int, b: int) -> int:
    """Signed distance a - b, assuming |a - b| < 2**31 in sequence space."""
    d = (a - b) % SEQ_MOD
    if d >= SEQ_HALF:
        d -= SEQ_MOD
    return d


def seq_lt(a: int, b: int) -> bool:
    return seq_diff(a, b) < 0
