"""The modified Memcached client library (paper Section 6).

The paper keeps Memcached servers stock and adds persistence in the client:
every key-value pair is written to K servers picked by consistent hashing,
operations go to all replicas *in parallel*, and reads complete on the
first hit.  This module is that library; one instance runs inside every
YODA instance.

TCPStore's latency optimizations from Section 4.3 map as follows:
decentralized server selection = every client owns a ring copy; concurrent
replica ops = the parallel fan-out here; long-lived TCP connections =
modeled as direct datagram exchange (no per-op handshake).

Beyond the paper, the client is *self-healing*:

- **newest-wins reads**: replicas can disagree after a server recovers
  empty or a key's replica set moves; reads gather every replica's answer
  (bounded by the op timeout) and return the highest version, instead of
  first-hit-wins.
- **read-repair**: stale or missing replicas discovered by a read get the
  newest record written back, fire-and-forget.
- **hinted handoff**: replica writes that go unanswered are queued per
  server and flushed when the membership view re-admits it (a recovered
  Memcached comes back *empty*, so the flush is load-bearing).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import KvStoreError
from repro.kvstore.hashring import HashRing
from repro.kvstore.memcached import MemcachedServer, Version, version_newer
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.packet import Packet
from repro.obs import OBS
from repro.sim.events import Event, EventLoop
from repro.sim.metrics import MetricRegistry
from repro.sim.random import SeededRng

KV_CLIENT_PORT = 11210

MAX_HINTS_PER_SERVER = 512

# Consecutive per-server timeouts before a client marks the server dead in
# the shared cluster view, and the seconds such a server then stays out of
# the ring even if the controller believes it healthy.
DEAD_AFTER_TIMEOUTS = 3
QUARANTINE = 1.0


class MemcachedCluster:
    """Shared membership view: which store servers exist and are believed
    live.  The YODA monitor updates liveness; all clients see it at once
    (decentralized server selection -- no lookup service on the data path).

    A server removed with ``mark_dead(name, until=t)`` is *quarantined*:
    ``mark_live`` refuses to re-admit it before ``t``.  Clients use this
    when they conclude a server is unresponsive from consecutive timeouts,
    so the controller's omniscient-looking monitor cannot instantly undo a
    data-path verdict (e.g. for a partitioned-but-running server).

    Every membership change (add/dead/live/remove) bumps ``epoch`` and
    notifies listeners; the anti-entropy sweeper keys off the epoch to
    decide when replica sets may have moved, and clients key off the
    events to flush hinted writes or prune state for removed servers.
    """

    def __init__(self, servers: Sequence[MemcachedServer]):
        if not servers:
            raise KvStoreError("cluster needs at least one server")
        self.servers: Dict[str, MemcachedServer] = {s.name: s for s in servers}
        self.ring = HashRing([s.name for s in servers])
        self.epoch = 0
        self._quarantined_until: Dict[str, float] = {}
        self._listeners: List[Callable[[str, str], None]] = []

    def add_listener(self, fn: Callable[[str, str], None]) -> None:
        """Register ``fn(event, server_name)``; events are ``"add"``,
        ``"dead"``, ``"live"``, ``"removed"``."""
        self._listeners.append(fn)

    def _bump(self, event: str, name: str) -> None:
        self.epoch += 1
        for fn in list(self._listeners):
            fn(event, name)

    def add(self, server: MemcachedServer) -> None:
        known = server.name in self.servers
        self.servers[server.name] = server
        if server.name not in self.ring:
            self.ring.add(server.name)
            self._bump("add" if not known else "live", server.name)

    def mark_dead(self, name: str, until: Optional[float] = None) -> None:
        if until is not None:
            current = self._quarantined_until.get(name, 0.0)
            self._quarantined_until[name] = max(current, until)
        if name in self.ring:
            self.ring.remove(name)
            self._bump("dead", name)

    def mark_live(self, name: str, now: Optional[float] = None) -> bool:
        """Re-admit a server to the ring.  Returns False (and does
        nothing) while the server is quarantined and ``now`` is given."""
        if name not in self.servers:
            return False
        if now is not None and now < self._quarantined_until.get(name, 0.0):
            return False
        self._quarantined_until.pop(name, None)
        if name not in self.ring:
            self.ring.add(name)
            self._bump("live", name)
        return True

    def remove(self, name: str) -> bool:
        """Decommission a server entirely: out of the ring *and* the
        membership map.  Clients prune per-server state on the event."""
        if name not in self.servers:
            return False
        del self.servers[name]
        self._quarantined_until.pop(name, None)
        if name in self.ring:
            self.ring.remove(name)
        self._bump("removed", name)
        return True

    def endpoint(self, name: str) -> Endpoint:
        return self.servers[name].endpoint

    def replicas_for(self, key: str, k: int) -> List[str]:
        if not len(self.ring):
            return []  # total blackout: callers fail open, not KeyError
        return self.ring.lookup_n(key, k)


@dataclass
class KvOpResult:
    """Outcome of one replicated operation."""

    op: str
    key: str
    ok: bool
    value: Optional[bytes] = None
    version: Optional[Version] = None
    # a replica refused the write because it holds this newer version --
    # the writer should adopt it and re-stamp (see TcpStore)
    superseded_by: Optional[Version] = None
    started_at: float = 0.0
    finished_at: float = 0.0
    replicas_targeted: int = 0
    replicas_answered: int = 0

    @property
    def latency(self) -> float:
        return self.finished_at - self.started_at


def _ignore_result(result: KvOpResult) -> None:
    """``on_done`` of an op whose caller passed none."""


class _OpMetrics(dict):
    """op -> the registry's ``{op}_{suffix}`` metric, looked up on first
    use: the registry is off the per-op path, and still lists a counter
    only once it has counted something."""

    def __init__(self, lookup: Callable[[str], Any], suffix: str):
        super().__init__()
        self._lookup = lookup
        self._suffix = suffix

    def __missing__(self, op: str) -> Any:
        metric = self[op] = self._lookup(f"{op}_{self._suffix}")
        return metric


class _PendingOp:
    __slots__ = ("op", "key", "value", "version", "targets", "on_done",
                 "result", "answered_by", "attempt_answered",
                 "replica_versions", "best_version", "best_value",
                 "successes", "attempts", "finished", "timeout", "obs_span")

    def __init__(self, op: str, key: str, value: Optional[bytes],
                 version: Optional[Version], targets: List[str],
                 started_at: float, on_done: Callable[[KvOpResult], None]):
        self.op = op
        self.key = key
        self.value = value
        self.version = version
        self.targets = targets
        self.on_done = on_done
        self.result = KvOpResult(op=op, key=key, ok=False, started_at=started_at,
                                 replicas_targeted=len(targets))
        self.answered_by: set = set()  # any attempt (dup suppression, streaks)
        # current-attempt bookkeeping: a straggler ack from an *old* target
        # set must never complete an op whose retry re-picked targets
        self.attempt_answered: set = set()
        self.replica_versions: Dict[str, Optional[Version]] = {}
        self.best_version: Optional[Version] = None
        self.best_value: Optional[bytes] = None
        self.successes = 0
        self.attempts = 1
        self.finished = False
        # the armed op-timeout event; None once it has fired
        self.timeout: Optional[Event] = None
        self.obs_span = None  # observability span, when tracing is enabled

    def attempt_covered(self) -> bool:
        """Has every current target answered the current attempt?  A
        subset test, not a count: a ``"removed"`` cluster event can shrink
        ``targets`` under the op, and a straggler from a superseded
        attempt must never complete it."""
        answered = self.attempt_answered
        for name in self.targets:
            if name not in answered:
                return False
        return True


class ReplicatingKvClient:
    """K-way replicating Memcached client embedded in an LB instance.

    Args:
        host: the VM this client runs on (shares the instance's NIC).
        cluster: shared membership view.
        replicas: K, the number of servers each key is stored on.
        op_timeout: per-operation deadline; a dead server is detected by
            silence, not errors.
        max_retries: extra attempts (with exponential backoff) when an
            operation times out with zero replica answers.
        rng: optional randomness for retry jitter (decorrelates the
            retry storms of many clients hitting the same dead server).
        self_healing: write the newest version back to replicas a read
            found stale or missing (read repair), and queue replica writes
            that went unanswered to flush when the server rejoins the ring
            (hinted handoff).
    """

    def __init__(
        self,
        host: Host,
        loop: EventLoop,
        cluster: MemcachedCluster,
        replicas: int = 2,
        op_timeout: float = 0.1,
        max_retries: int = 2,
        rng: Optional[SeededRng] = None,
        self_healing: bool = True,
    ):
        if replicas < 1:
            raise KvStoreError(f"replicas must be >= 1, got {replicas}")
        self.host = host
        self.loop = loop
        self.cluster = cluster
        self.replicas = replicas
        self.op_timeout = op_timeout
        self.max_retries = max_retries
        self.rng = rng
        self.self_healing = self_healing
        # optional tap fed every completed op's KvOpResult (a traced
        # benchmark run collects simulated op latencies here)
        self.latency_listener: Optional[Callable[[KvOpResult], None]] = None
        self.metrics = MetricRegistry(f"{host.name}.kv")
        self._issued = _OpMetrics(self.metrics.counter, "issued")
        self._latency = _OpMetrics(self.metrics.histogram, "latency")
        self._ok = _OpMetrics(self.metrics.counter, "ok")
        self._fail = _OpMetrics(self.metrics.counter, "fail")
        # a host's primary address does not change once it is attached
        self._src = Endpoint(host.ip, KV_CLIENT_PORT)
        self._req_ids = itertools.count(1)
        self._pending: Dict[int, _PendingOp] = {}
        self._consecutive_timeouts: Dict[str, int] = {}
        # server -> {key -> (version, value)}: writes owed to a server that
        # was silent/quarantined when they happened
        self._hints: Dict[str, Dict[str, Tuple[Optional[Version], bytes]]] = {}
        cluster.add_listener(self._on_cluster_event)

    # -- public API ---------------------------------------------------------
    def set(self, key: str, value: bytes,
            on_done: Optional[Callable[[KvOpResult], None]] = None,
            version: Optional[Version] = None) -> None:
        self._issue("set", key, value, on_done, version=version)

    def get(self, key: str,
            on_done: Callable[[KvOpResult], None]) -> None:
        self._issue("get", key, None, on_done)

    def delete(self, key: str,
               on_done: Optional[Callable[[KvOpResult], None]] = None,
               version: Optional[Version] = None) -> None:
        """Remove ``key``.  When ``version`` is given this is a
        compare-and-delete: each replica drops the record only if it holds
        exactly that version, so a delete issued by a stale incarnation of
        a recycled flow key can never destroy the live incarnation's
        records (ephemeral-port reuse makes that race real, not
        theoretical)."""
        # a delete supersedes any write still owed to a silent replica
        for hints in self._hints.values():
            hints.pop(key, None)
        self._issue("delete", key, None, on_done, version=version)

    def handle_response(self, pkt: Packet) -> bool:
        """Give the client a chance to consume an incoming packet.

        Returns True when the packet was a kv response addressed to us (the
        LB instance's packet handler calls this before its own logic).
        """
        resp = pkt.meta.get("kv_resp")
        if resp is None:
            return False
        self._on_response(resp)
        return True

    # -- internals ------------------------------------------------------------
    def _issue(self, op: str, key: str, value: Optional[bytes],
               on_done: Optional[Callable[[KvOpResult], None]],
               version: Optional[Version] = None) -> None:
        on_done = on_done or _ignore_result
        targets = self.cluster.replicas_for(key, self.replicas)
        started = self.loop.now()
        if not targets:
            # Fail open, asynchronously: the LB hot path must see a failed
            # result through the normal callback, never a synchronous
            # exception mid-packet (a full store blackout is survivable;
            # an unwound packet handler is not).
            self.metrics.counter("no_live_servers").inc()
            result = KvOpResult(op=op, key=key, ok=False, started_at=started,
                                finished_at=started)
            self.loop.call_soon(on_done, result)
            return
        req_id = next(self._req_ids)
        pending = _PendingOp(op, key, value, version, targets, started, on_done)
        if OBS.enabled:
            # OBS.ctx is the ambient parent (the instance sets it around
            # synchronous TCPStore writes); span timestamps mirror
            # KvOpResult's started_at/finished_at exactly
            pending.obs_span = OBS.tracer.start(
                f"kv.{op}", f"{self.host.name}.kv", ctx=OBS.ctx,
                start=started, attrs={"key": key},
            )
        self._pending[req_id] = pending
        self._send_attempt(req_id, pending)
        self._issued[op].value += 1

    def _send_attempt(self, req_id: int, pending: _PendingOp) -> None:
        """Arm the op's timeout (one event per attempt) and send the
        request to every target.  No timeout is armed on entry: the op is
        new, or this is ``_on_timeout`` of the attempt before."""
        pending.timeout = self.loop.call_later(
            self._timeout_for(pending.attempts), self._on_timeout, req_id)
        src = self._src
        endpoint = self.cluster.endpoint
        op, key, value, version = (pending.op, pending.key, pending.value,
                                   pending.version)
        payload = value or b""
        attempt = pending.attempts
        for name in pending.targets:
            pkt = Packet(src, endpoint(name), 0, 0, 0, payload,
                         {"kv": {"op": op, "key": key, "value": value,
                                 "version": version, "req_id": req_id,
                                 "attempt": attempt}})
            if pending.obs_span is not None:
                pkt.meta["obs_ctx"] = OBS.tracer.ctx_of(pending.obs_span)
            self.host.send(pkt)

    def _timeout_for(self, attempt: int) -> float:
        """Exponential backoff with optional jitter; attempt is 1-based."""
        timeout = self.op_timeout * (2 ** (attempt - 1))
        if self.rng is not None:
            timeout *= 1.0 + 0.25 * self.rng.random()
        return timeout

    def _on_response(self, resp: Dict) -> None:
        server = resp.get("server")
        if server is not None:
            self._consecutive_timeouts[server] = 0
        req_id = resp["req_id"]
        pending = self._pending.get(req_id)
        if pending is None or pending.finished:
            return
        current = resp.get("attempt") == pending.attempts
        if server in pending.answered_by and not (
                current and server not in pending.attempt_answered):
            return  # duplicate delivery
        pending.answered_by.add(server)
        pending.result.replicas_answered = len(pending.answered_by)
        if resp["ok"]:
            pending.successes += 1
            if pending.op == "get":
                version = resp.get("version")
                if (pending.best_value is None
                        or version_newer(version, pending.best_version)):
                    pending.best_version = (tuple(version) if version
                                            else None)
                    pending.best_value = resp["value"]
        elif pending.op == "set":
            held = resp.get("version")
            if version_newer(held, pending.version) and version_newer(
                    held, pending.result.superseded_by):
                pending.result.superseded_by = tuple(held)
        if current and server in pending.targets:
            pending.attempt_answered.add(server)
            if pending.op == "get":
                pending.replica_versions[server] = (
                    tuple(resp["version"]) if resp.get("version") else None
                ) if resp["ok"] else None
        # Stragglers from a superseded attempt contribute data (a hit is a
        # hit) but never completion: only current-attempt coverage counts.
        if pending.attempt_covered():
            self._complete(req_id, ok=pending.successes > 0)

    def _on_timeout(self, req_id: int) -> None:
        pending = self._pending.get(req_id)
        if pending is None or pending.finished:
            return
        pending.timeout = None
        self.metrics.counter("timeouts").inc()
        if OBS.enabled:
            OBS.flight(f"{self.host.name}.kv", "timeout",
                       f"{pending.op} {pending.key} attempt={pending.attempts} "
                       f"answered={sorted(pending.attempt_answered)}")
        for name in pending.targets:
            if name not in pending.attempt_answered:
                self._penalize(name)
        if pending.successes > 0:
            # Partial answers are enough: the paper's availability-first
            # semantics (any replica ack = durable enough to proceed).
            self._complete(req_id, ok=True)
            return
        if pending.attempts <= self.max_retries:
            pending.attempts += 1
            # Re-pick replicas: marking servers dead above may have moved
            # this key's replica set to responsive servers.
            retry_targets = self.cluster.replicas_for(pending.key, self.replicas)
            if retry_targets:
                pending.targets = retry_targets
                pending.result.replicas_targeted = len(retry_targets)
                # a new attempt starts with nothing answered
                pending.attempt_answered = set()
                pending.replica_versions = {}
                self.metrics.counter("retries").inc()
                self._send_attempt(req_id, pending)
                return
        self._complete(req_id, ok=False)

    def _penalize(self, name: str) -> None:
        """Count a per-server consecutive timeout; mark dead at threshold."""
        streak = self._consecutive_timeouts.get(name, 0) + 1
        self._consecutive_timeouts[name] = streak
        if streak >= DEAD_AFTER_TIMEOUTS:
            if name in self.cluster.ring:
                self.cluster.mark_dead(
                    name, until=self.loop.now() + QUARANTINE)
                self.metrics.counter("servers_marked_dead").inc()
                if OBS.enabled:
                    OBS.flight(f"{self.host.name}.kv", "mark_dead",
                               f"{name} after {streak} consecutive timeouts")
            self._consecutive_timeouts[name] = 0

    def _complete(self, req_id: int, ok: bool) -> None:
        pending = self._pending.pop(req_id)
        pending.finished = True
        if pending.timeout is not None:
            pending.timeout.cancel()
            pending.timeout = None
        result = pending.result
        result.ok = ok
        result.finished_at = self.loop.now()
        op = pending.op
        if op == "get":
            result.value = pending.best_value
            result.version = pending.best_version
            result.ok = ok = ok and result.value is not None
            if ok and self.self_healing:
                self._repair_after_read(pending)
        elif op == "set":
            result.version = pending.version
            if self.self_healing and pending.value is not None:
                for name in pending.targets:
                    if name not in pending.attempt_answered:
                        self._add_hint(name, pending.key, pending.version,
                                       pending.value)
        self._latency[op].observe(result.finished_at - result.started_at)
        (self._ok if ok else self._fail)[op].value += 1
        if OBS.enabled and pending.obs_span is not None:
            OBS.tracer.end(pending.obs_span, end=result.finished_at,
                           ok=ok, replicas=result.replicas_answered)
        if self.latency_listener is not None:
            self.latency_listener(result)
        pending.on_done(result)

    # -- self-healing: read-repair + hinted handoff ---------------------------
    def _repair_after_read(self, pending: _PendingOp) -> None:
        """A read established the newest version; bring the rest of the
        replica set up to it (answered-stale replicas immediately, silent
        ones via a hint for when they return)."""
        if pending.best_value is None:
            return
        for name in pending.targets:
            if name in pending.replica_versions:
                held = pending.replica_versions[name]
                if version_newer(pending.best_version, held):
                    self._send_direct(name, pending.key, pending.best_value,
                                      pending.best_version)
                    self.metrics.counter("read_repairs").inc()
            elif name not in pending.attempt_answered:
                self._add_hint(name, pending.key, pending.best_version,
                               pending.best_value)

    def _send_direct(self, name: str, key: str, value: bytes,
                     version: Optional[Version]) -> None:
        """Fire-and-forget single-replica set (repair/hint traffic); the
        response, if any, is ignored (no pending op is registered)."""
        if name not in self.cluster.servers:
            return
        self.host.send(
            Packet(self._src, self.cluster.endpoint(name), 0, 0, 0, value,
                   {"kv": {"op": "set", "key": key, "value": value,
                           "version": version,
                           "req_id": next(self._req_ids), "attempt": 0}}))

    def _add_hint(self, server: str, key: str, version: Optional[Version],
                  value: bytes) -> None:
        hints = self._hints.setdefault(server, {})
        held = hints.get(key)
        if held is not None and version_newer(held[0], version):
            return  # already owe a newer write
        if key not in hints and len(hints) >= MAX_HINTS_PER_SERVER:
            self.metrics.counter("hints_dropped").inc()
            return
        hints[key] = (version, value)
        self.metrics.counter("hints_queued").inc()

    def _flush_hints(self, server: str) -> None:
        hints = self._hints.pop(server, None)
        if not hints:
            return
        for key, (version, value) in hints.items():
            self._send_direct(server, key, value, version)
        self.metrics.counter("hints_flushed").inc(len(hints))

    # -- membership events -----------------------------------------------------
    def _on_cluster_event(self, event: str, name: str) -> None:
        if event in ("live", "add"):
            # the server is back (empty, if it restarted): settle our debts
            self._flush_hints(name)
        elif event == "removed":
            # decommissioned for good: drop every per-server residue and
            # release pending ops still waiting on it
            self._consecutive_timeouts.pop(name, None)
            self._hints.pop(name, None)
            for req_id in list(self._pending):
                pending = self._pending.get(req_id)
                if (pending is None or pending.finished
                        or name not in pending.targets):
                    continue
                pending.targets = [t for t in pending.targets if t != name]
                pending.result.replicas_targeted = len(pending.targets)
                if pending.attempt_covered():
                    self._complete(req_id, ok=pending.successes > 0)
