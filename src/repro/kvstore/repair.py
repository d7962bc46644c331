"""Anti-entropy re-replication for the flow-state store.

The paper's client-side replication never *recovers* the replication
factor: once a Memcached server dies (or is quarantined), every key it
held stays under-replicated, and keys written while the ring was shrunken
live on servers that stop being the key's replica set the moment the ring
heals.  A second failure then loses ACKed flow state.

:class:`FlowStateRepairer` closes that gap.  One runs inside every YODA
instance as a periodic ``sim`` process.  It watches the shared
:class:`~repro.kvstore.client.MemcachedCluster` membership ``epoch``;
when the epoch moves, it diffs each owned key's *current* replica set
against the set the key was last known to be placed on, and re-writes the
changed ones through the replicating client at their current version
(newest-wins on the servers makes this idempotent and safe against
concurrent writers).  Repair traffic is paced by a token bucket so a big
membership change cannot starve the data path.

"Owned" keys are the records of the flows the instance is currently
serving -- the only records it can reconstruct from local state.  Flow
records owned by a *crashed* instance are repaired by whichever instance
recovers the flow (recovery reads run read-repair, and the new owner's
sweeper takes over from there).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.kvstore.client import ReplicatingKvClient
from repro.kvstore.memcached import Version
from repro.sim.bucket import TokenBucket
from repro.sim.events import EventLoop
from repro.sim.process import PeriodicTask

REPAIR_INTERVAL = 0.2  # seconds between sweeper wake-ups
REPAIR_RATE = 200.0  # keys re-replicated per second, sustained
REPAIR_BURST = 40  # keys re-replicated in one wake-up, max

# One owned record: key, serialized payload, version to re-write it at.
OwnedRecord = Tuple[str, bytes, Optional[Version]]


class FlowStateRepairer:
    """Per-instance anti-entropy sweeper.

    Args:
        loop: the event loop.
        kv: the instance's replicating client (shares its cluster view).
        records_fn: returns the records this instance currently owns; the
            :class:`~repro.core.instance.YodaInstance` supplies its live
            flows' storage keys, payloads, and last-written versions.

    It wakes every ``REPAIR_INTERVAL`` and re-replicates at most
    ``REPAIR_RATE`` keys per second, ``REPAIR_BURST`` in one wake-up.
    """

    def __init__(
        self,
        loop: EventLoop,
        kv: ReplicatingKvClient,
        records_fn,
    ):
        self.loop = loop
        self.kv = kv
        self.records_fn = records_fn
        self.bucket = TokenBucket(REPAIR_RATE, REPAIR_BURST, loop.now())
        self._seen_epoch = kv.cluster.epoch
        self._placed: Dict[str, FrozenSet[str]] = {}
        self._queue: List[OwnedRecord] = []
        self._queued_keys: set = set()
        self.repairs_issued = 0
        self._task = PeriodicTask(loop, REPAIR_INTERVAL, self._tick)

    def start(self) -> None:
        self._task.start()

    def stop(self) -> None:
        self._task.stop()

    # -- sweep ---------------------------------------------------------------
    def _tick(self) -> None:
        if self.kv.host.failed:
            # a crashed instance owns nothing; its flows re-home elsewhere
            self._placed.clear()
            self._queue.clear()
            self._queued_keys.clear()
            return
        cluster = self.kv.cluster
        if cluster.epoch != self._seen_epoch:
            self._seen_epoch = cluster.epoch
            self._scan(self.records_fn())
        self._drain()

    def _scan(self, records: Iterable[OwnedRecord]) -> None:
        """Diff every owned key's current replica set against its last
        known placement; queue the moved ones for re-replication."""
        owned = set()
        for key, payload, version in records:
            owned.add(key)
            current = frozenset(
                self.kv.cluster.replicas_for(key, self.kv.replicas))
            if not current:
                continue  # nowhere to put it; a later epoch will retry
            if self._placed.get(key) == current:
                continue
            if key not in self._queued_keys:
                self._queue.append((key, payload, version))
                self._queued_keys.add(key)
        # forget placements (and queued work) for keys no longer owned
        for key in [k for k in self._placed if k not in owned]:
            del self._placed[key]
        if self._queued_keys - owned:
            self._queued_keys &= owned
            self._queue = [r for r in self._queue if r[0] in owned]

    def _drain(self) -> None:
        while self._queue and self.bucket.try_take(self.loop.now()):
            key, payload, version = self._queue.pop(0)
            self._queued_keys.discard(key)
            placement = frozenset(
                self.kv.cluster.replicas_for(key, self.kv.replicas))
            self.kv.set(key, payload, version=version)
            self._placed[key] = placement
            self.repairs_issued += 1
            self.kv.metrics.counter("repair_writes").inc()
