"""Asynchronous cross-site replication of the flow-state store.

The paper's TCPStore replicates within one site; a whole-site failure
loses every acked flow.  :class:`SiteReplicator` closes that gap the way
production multi-region stores do: every acknowledged flow-state write on
the primary site is queued and shipped *asynchronously* to the secondary
site's Memcached cluster over the WAN, paced by a token bucket so
replication traffic cannot starve the data path.

Asynchrony is the whole design point -- storage-a/storage-b latency (which
gates SYN-ACKs) must not pay a WAN round trip -- and its price is a
*replication lag*: records enqueued but not yet shipped when the primary
site dies are lost.  The replicator therefore tracks bounded lag
explicitly (queue depth, age of the oldest unshipped record, max lag ever
observed) so experiments can plot recovery quality against lag, and
:meth:`promote` reports exactly how many records the failover abandoned.

Reconciliation across sites reuses PR 2's machinery wholesale: records
ship *at the version the primary stamped*, secondary servers keep
newest-wins, deletes ship as compare-and-delete pinned to the primary's
version, and after a promotion the secondary's own writers out-version
stale cross-site copies through the normal adopt/re-stamp supersession
path.  No new consistency mechanism is introduced.

One replicator serves the whole primary site (all instances' TcpStores
feed it), running on its own small relay host so a region kill takes it
down with everything else -- the unshipped queue at that moment is the
ground truth for "bytes of flow state lost".
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.kvstore.client import KvOpResult, ReplicatingKvClient
from repro.kvstore.memcached import Version
from repro.kvstore.repair import TokenBucket
from repro.obs import OBS
from repro.sim.events import EventLoop
from repro.sim.process import PeriodicTask

SYNC_INTERVAL = 0.05  # seconds between shipping wake-ups
SYNC_RATE = 400.0  # records shipped per second, sustained
SYNC_BURST = 80  # records shipped in one wake-up, max

# One queued change: payload (None = delete), version, first-enqueued-at.
_Entry = Tuple[Optional[bytes], Optional[Version], float]


class SiteReplicator:
    """Paced, coalescing, asynchronous site-to-site record shipper.

    Args:
        loop: the event loop.
        kv: a :class:`ReplicatingKvClient` whose *cluster* is the secondary
            site's store and whose *host* lives in the primary site (so
            every shipped record pays the real WAN latency and dies with
            the primary region).
        interval: shipping wake-up period.
        rate/burst: token-bucket pacing, in records per second.
    """

    def __init__(
        self,
        loop: EventLoop,
        kv: ReplicatingKvClient,
        interval: float = SYNC_INTERVAL,
        rate: float = SYNC_RATE,
        burst: float = SYNC_BURST,
    ):
        self.loop = loop
        self.kv = kv
        self.bucket = TokenBucket(loop, rate, burst)
        # insertion-ordered; coalescing keeps the FIRST enqueue time so
        # lag() never under-reports how stale the secondary might be
        self._queue: "Dict[str, _Entry]" = {}
        self.promoted = False
        self.records_shipped = 0
        self.deletes_shipped = 0
        self.ship_failures = 0
        self.max_lag = 0.0
        self.lost_at_promotion = 0
        self._task = PeriodicTask(loop, interval, self._tick)
        self._running = False

    # -- control -------------------------------------------------------------
    def start(self) -> None:
        if not self._running:
            self._running = True
            self._task.start()

    def stop(self) -> None:
        if self._running:
            self._running = False
            self._task.stop()

    def promote(self) -> int:
        """Fail over: the secondary becomes authoritative.  Shipping stops
        (the primary is gone; anything still queued is lost) and the
        number of abandoned records is recorded and returned.  Idempotent.
        """
        if self.promoted:
            return self.lost_at_promotion
        self.promoted = True
        self.lost_at_promotion = len(self._queue)
        self._queue.clear()
        self.stop()
        self.kv.metrics.gauge("sitesync_lost_at_promotion").set(
            self.lost_at_promotion)
        if OBS.enabled:
            OBS.flight(f"{self.kv.host.name}.sitesync", "promote",
                       f"secondary promoted; {self.lost_at_promotion} "
                       f"unshipped records abandoned")
        return self.lost_at_promotion

    # -- feed (called by every TcpStore on the primary site) ------------------
    def note(self, key: str, payload: bytes,
             version: Optional[Version]) -> None:
        """An acked write happened on the primary; ship it when paced."""
        self._enqueue(key, payload, version)

    def note_delete(self, key: str, version: Optional[Version]) -> None:
        """A teardown happened on the primary; ship the compare-and-delete
        pinned to the version the owner last stamped."""
        self._enqueue(key, None, version)

    def _enqueue(self, key: str, payload: Optional[bytes],
                 version: Optional[Version]) -> None:
        if self.promoted:
            return  # the primary's stream is history after failover
        held = self._queue.get(key)
        enqueued_at = held[2] if held is not None else self.loop.now()
        self._queue[key] = (payload, version, enqueued_at)

    # -- observables ----------------------------------------------------------
    def lag(self) -> float:
        """Age of the oldest unshipped change (0.0 when fully caught up)."""
        if not self._queue:
            return 0.0
        oldest = next(iter(self._queue.values()))[2]
        return self.loop.now() - oldest

    # -- shipping -------------------------------------------------------------
    def _tick(self) -> None:
        if self.promoted or self.kv.host.failed:
            # a dead relay ships nothing; whatever is queued when the
            # region dies is exactly the failover's data loss
            return
        lag = self.lag()
        if lag > self.max_lag:
            self.max_lag = lag
        self.kv.metrics.gauge("sitesync_lag").set(lag)
        self.kv.metrics.gauge("sitesync_backlog").set(len(self._queue))
        while self._queue and self.bucket.try_take():
            key = next(iter(self._queue))
            payload, version, _ = self._queue.pop(key)
            if payload is None:
                self.kv.delete(key, self._shipped, version=version)
                self.deletes_shipped += 1
            else:
                self.kv.set(key, payload, self._shipped, version=version)
                self.records_shipped += 1

    def _shipped(self, result: KvOpResult) -> None:
        # Failures are not retried here: for a *set*, anti-entropy-style
        # convergence comes from the next write of the same key (flow
        # records are rewritten on every state transition) plus
        # newest-wins on the secondary; for a *delete*, a refused
        # compare-and-delete means the secondary already holds a newer
        # incarnation of the recycled key, which is the correct outcome.
        if not result.ok:
            self.ship_failures += 1
            self.kv.metrics.counter("sitesync_ship_failures").inc()
