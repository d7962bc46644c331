"""Compact stateless dispatch: a version-stamped bucket array.

The default mux pins every flow with a dict entry and every YODA
instance writes per-flow records into TCPStore -- the per-flow tax that
Concury and the "stateful vs stateless" literature identify as the L4/L7
scalability limiter.  This module implements the alternative: bucket the
5-tuple space with a stable hash and answer ``bucket -> instance`` from
one frozen tuple,

    lookup(key) = targets[crc32(key) % NUM_BUCKETS]

The bucket ids are the dense range ``0..NUM_BUCKETS-1``, so a plain
array is already the minimal perfect map for them; Othello-style XOR
tables (Concury) pay off only for *sparse* keys that must not be stored.
Memory is O(buckets), independent of the number of live flows, and a
mapping change swaps one frozen snapshot reference -- atomic with
respect to in-flight traffic, version-stamped so stale control pushes
can never regress a mux (the same contract as ``_VipEntry.version``).

The :class:`CompactDispatchTable` is built on the control side (the
``L4LoadBalancer`` service) once per mapping push and only read by the
muxes.  Every entry is an instance of the snapshot's live set by
construction: the targets come from a consistent-hash ring of exactly
those instances.

Determinism contract: everything here derives from seed-independent
stable hashes (the ring's on the control side, crc32 on the per-packet
path -- never the simulation RNG) and schedules no events.  Tables are
built only when stateless dispatch is on (``YodaServiceConfig.stateless``).
"""

from __future__ import annotations

from typing import Sequence, Tuple
from zlib import crc32

from repro.kvstore.hashring import HashRing

# Buckets the 5-tuple hash space is cut into; every node computes the
# same bucket for a flow key.
NUM_BUCKETS = 512


def bucket_targets(vip: str, instances: Sequence[str]) -> Tuple[str, ...]:
    """The instance each bucket maps to, indexed by bucket.  Assignment
    goes through a consistent-hash ring so a membership change moves
    ~1/n of the buckets."""
    ring = HashRing(list(instances), vnodes=50)
    return tuple(ring.lookup(f"{vip}/bucket/{b}") for b in range(NUM_BUCKETS))


class CompactDispatchTable:
    """Frozen data-plane snapshot: version + instances + one tuple.

    Immutable by convention (the mux only reads), installed by a single
    reference assignment -- a reader mid-packet sees either the old
    snapshot or the new one, never a half-built table.
    """

    __slots__ = ("version", "instances", "targets")

    def __init__(self, vip: str, version: int, instances: Sequence[str]):
        self.version = version
        self.instances = tuple(instances)
        self.targets = bucket_targets(vip, self.instances)

    def lookup(self, flow_key: str) -> str:
        # crc32 rather than the sha256-backed stable_hash32: this runs
        # once per packet, and it only needs to be deterministic across
        # runs and platforms, not cryptographic
        return self.targets[crc32(flow_key.encode()) % NUM_BUCKETS]

    def size_bytes(self) -> int:
        """Modeled footprint: one 32-bit instance index per bucket and
        the instance list -- what a kernel/dataplane port would carry."""
        return 4 * NUM_BUCKETS + sum(len(ip) for ip in self.instances) + 16
