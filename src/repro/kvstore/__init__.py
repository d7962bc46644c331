"""Memcached substrate: scale-out key-value servers + replicating client.

The paper builds TCPStore on unmodified Memcached plus a *modified client
library* that writes each key to K servers chosen by consistent hashing and
issues the replica operations in parallel (Section 6).  This package
provides those two halves, plus the self-healing layer the paper leaves
open (versioned records, newest-wins reads with read-repair, hinted
handoff, and anti-entropy re-replication after membership changes):

- :class:`~repro.kvstore.memcached.MemcachedServer` -- one store VM with an
  LRU-bounded dict, a CPU model, and a tiny request/response protocol that
  keeps the newest version on conflicting sets.
- :class:`~repro.kvstore.client.ReplicatingKvClient` -- the client library
  every YODA instance embeds: K-way replicated set/get/delete with
  newest-wins reads, read-repair, and hinted handoff.
- :class:`~repro.kvstore.repair.FlowStateRepairer` -- the per-instance
  anti-entropy sweeper that restores the replication factor after the
  membership epoch moves.
"""

from repro.kvstore.client import KvOpResult, MemcachedCluster, ReplicatingKvClient
from repro.kvstore.hashring import HashRing
from repro.kvstore.memcached import MemcachedServer, version_newer
from repro.kvstore.repair import FlowStateRepairer

__all__ = [
    "MemcachedServer",
    "MemcachedCluster",
    "ReplicatingKvClient",
    "KvOpResult",
    "HashRing",
    "FlowStateRepairer",
    "version_newer",
]
