"""Controller high availability: fenced leases, journaled takeover.

The controller was the last singleton in the system: instances, stores,
and whole regions could crash and heal, but one dead ``YodaController``
silently stopped probing, remapping, draining and failing over.  This
module makes the control plane a replicated, leader-elected service:

- :class:`LeaderElector` — each controller replica competes for a lease
  record in the flow-state store (key ``yoda:ctl:lease``), stamped with
  the PR 2 ``(counter, writer_id)`` versions so concurrent claims resolve
  newest-wins deterministically.  The holder renews at ``LEASE_TTL/3`` and
  steps down when its renewal is superseded or the lease expires.
- :class:`FenceGate` — receivers (the L4 LB, every instance) remember the
  highest ``(epoch, holder)`` they have accepted and reject control
  pushes from anything older with :class:`StaleLeaderEpoch`.  Fencing,
  not the lease, is the safety mechanism: a partitioned old leader can
  believe it still leads, but nothing it says is accepted.
- :class:`ControlJournal` — the leader writes its control-plane state
  (assignments, drain progress, failover bookkeeping, counters) into the
  store after every mutation; a newly elected leader replays the journal
  and *resumes* a mid-flight drain or region failover instead of
  restarting it.
- :class:`ControllerReplica` / :class:`ControllerReplicaSet` — the
  testbed-facing wrapper: N replicas, each a killable/partitionable host
  carrying a cold ``YodaController``; the set tracks leadership events so
  chaos invariants can reconstruct every leaderless window.  A replica is
  its controller's one HA reference (``controller.ha``): the "may I act?"
  gate, the journal writer, the takeover and the fenced step-down all
  live here, so the controller knows only the token its pushes carry.

While no leader holds the lease the data plane is statically stable:
muxes keep their last pushed mappings, instances keep serving and
checkpointing established flows, and the store keeps replicating.  Only
*reactions* (remaps, drains, failover, scaling) wait for the next leader.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.tcpstore import VersionLedger
from repro.errors import (
    ControllerError,
    LeadershipLost,
    LeaseStoreUnavailable,
    StaleLeaderEpoch,
)
from repro.kvstore.client import KvOpResult, MemcachedCluster, ReplicatingKvClient
from repro.net.host import Host
from repro.obs import OBS
from repro.sim.events import EventLoop
from repro.sim.metrics import MetricRegistry
from repro.sim.process import PeriodicTask

LEASE_KEY = "yoda:ctl:lease"
JOURNAL_KEY = "yoda:ctl:journal"

LEASE_TTL = 1.5           # seconds a claim is valid without renewal
LEASE_SETTLE = 0.25       # claim -> confirm-read delay (lets a duel land)
FENCE_LOG_CAP = 4096      # per-gate decision log bound


@dataclass
class ControllerHAConfig:
    """The controller-HA plane: leader-elected controller replicas
    competing for a fenced lease in the store."""

    replicas: int = 3
    # how long a leader that cannot reach the lease store keeps acting
    # past its lease expiry (models a live partitioned old leader)
    stepdown_grace: float = 0.0


class LeaderToken:
    """The credential every control decision carries: which epoch the
    sender holds the lease at, and who the sender is.  Immutable."""

    __slots__ = ("epoch", "holder")

    def __init__(self, epoch: int, holder: str):
        self.epoch = epoch
        self.holder = holder

    def __repr__(self) -> str:
        return f"LeaderToken(e{self.epoch}, {self.holder!r})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, LeaderToken)
                and other.epoch == self.epoch and other.holder == self.holder)

    def __hash__(self) -> int:
        return hash((self.epoch, self.holder))


class FenceGate:
    """Receiver-side stale-leader rejection.

    Remembers the highest ``(epoch, holder)`` ever accepted.  ``admit``
    with ``None`` is a silent accept — the single-controller (HA
    disabled) configuration never constructs tokens, so the legacy
    control path is bit-identical.  A token at a *newer* epoch is adopted;
    the same epoch is only honored from the holder it was first accepted
    from (first-wins binding breaks same-epoch duels); anything older
    raises :class:`StaleLeaderEpoch`.

    Every fenced decision is appended to ``log`` so the
    AtMostOneActingLeader invariant can sweep the full accept history.
    """

    __slots__ = ("name", "epoch", "holder", "log", "rejected")

    def __init__(self, name: str):
        self.name = name
        self.epoch = -1
        self.holder: Optional[str] = None
        # (time, epoch, holder, kind, accepted)
        self.log: List[Tuple[float, int, str, str, bool]] = []
        self.rejected = 0

    def admit(self, token: Optional[LeaderToken], kind: str, now: float = 0.0) -> None:
        if token is None:
            return
        if token.epoch > self.epoch or (
                token.epoch == self.epoch and token.holder == self.holder):
            self.epoch = token.epoch
            self.holder = token.holder
            self._record(now, token, kind, True)
            return
        self.rejected += 1
        self._record(now, token, kind, False)
        if OBS.enabled:
            OBS.flight(f"{self.name}.fence", "reject",
                       f"{kind} from {token.holder}@e{token.epoch} "
                       f"(fenced at {self.holder}@e{self.epoch})")
        raise StaleLeaderEpoch(self.name, kind, token.epoch, token.holder,
                               self.epoch, self.holder or "?")

    def _record(self, now: float, token: LeaderToken, kind: str, ok: bool) -> None:
        if len(self.log) < FENCE_LOG_CAP:
            self.log.append((now, token.epoch, token.holder, kind, ok))


class ControlJournal:
    """The leader's durable control-plane state, one versioned record.

    A single store key holding a canonical-JSON snapshot, stamped through
    a :class:`VersionLedger` exactly like flow records: replicas keep the
    newest version, refused writes report what superseded them.  A
    refused journal write is *not* retried over — it means a newer leader
    owns the journal, which the writer surfaces to its elector as a
    fencing signal.
    """

    def __init__(self, kv: ReplicatingKvClient, writer_id: str):
        self.kv = kv
        self.writer_id = writer_id
        self.ledger = VersionLedger(writer_id)
        self.writes = 0

    def write(self, state: Dict,
              on_done: Optional[Callable[[bool, bool], None]] = None) -> None:
        """Persist ``state``; ``on_done(ok, superseded)`` reports whether
        any replica acked and whether a newer writer's record refused us."""
        payload = json.dumps(state, sort_keys=True).encode()
        version = self.ledger.stamp(JOURNAL_KEY)
        self.writes += 1

        def _cb(result: KvOpResult) -> None:
            superseded = result.superseded_by is not None
            if superseded:
                self.ledger.adopt(JOURNAL_KEY, result.superseded_by)
            if on_done is not None:
                on_done(result.ok and not superseded, superseded)

        self.kv.set(JOURNAL_KEY, payload, _cb, version=version)

    def read(self, on_done: Callable[[Optional[Dict]], None]) -> None:
        """Fetch the newest journal snapshot (None if absent/unreadable)."""

        def _cb(result: KvOpResult) -> None:
            if not result.ok or result.value is None:
                on_done(None)
                return
            self.ledger.adopt(JOURNAL_KEY, result.version)
            try:
                on_done(json.loads(result.value.decode()))
            except (ValueError, UnicodeDecodeError):
                on_done(None)

        self.kv.get(JOURNAL_KEY, _cb)


class LeaderElector:
    """One replica's lease state machine: follower → claiming → leader.

    Followers poll the lease at ``LEASE_TTL/3``.  An absent or expired lease
    triggers a claim: a versioned write of ``epoch = highest observed +
    1``, then a settle delay, then a confirm read — the claimant only
    becomes leader if the read shows *its own* record, so when two
    replicas stamp the same counter the ``writer_id`` tie-break picks the
    same winner on every replica and the loser stands down without ever
    acting.  While a live leader renews (bumping the record's version
    counter every ``LEASE_TTL/3``), a competitor's claim is refused as
    superseded — claims only land once renewals stop.

    A leader whose renewal is refused steps down immediately with
    :class:`LeadershipLost`; one whose renewals go unanswered
    (:class:`LeaseStoreUnavailable`) keeps acting until its lease expiry
    plus ``grace`` — modeling the partitioned old leader the fence gates
    exist for.
    """

    def __init__(self, host: Host, loop: EventLoop, kv: ReplicatingKvClient,
                 cluster: MemcachedCluster, grace: float = 0.0,
                 start_delay: float = 0.0):
        self.host = host
        self.loop = loop
        self.kv = kv
        self.cluster = cluster
        self.grace = grace
        self.start_delay = start_delay
        self.metrics = MetricRegistry(f"{host.name}.elector")
        self.ledger = VersionLedger(host.name)
        self.state = "idle"  # idle | follower | claiming | leader
        self.epoch = -1              # epoch currently held (leader only)
        self.observed_epoch = 0      # highest epoch ever seen
        self.lease_expires = 0.0     # local view of our lease's expiry
        self.on_elected: Optional[Callable[[LeaderToken], None]] = None
        self.on_lost: Optional[Callable[[Exception], None]] = None
        self._poll = PeriodicTask(loop, max(LEASE_TTL / 3.0, 0.05), self._tick)
        self._gen = 0  # bumped on fail/step-down; stale callbacks no-op

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        self.state = "follower"
        self.loop.call_later(self.start_delay, self._first_poll)

    def _first_poll(self) -> None:
        if self.state == "idle":
            return
        self._poll.start(fire_now=True)

    def fail(self) -> None:
        """The replica's host died: stop competing, forget leadership."""
        self._gen += 1
        self.state = "idle"
        self.epoch = -1
        self._poll.stop()

    def recover(self) -> None:
        self._gen += 1
        self.state = "follower"
        self._poll.start(fire_now=True)

    # -- poll loop -----------------------------------------------------------
    def _tick(self) -> None:
        if self.host.failed or self.state == "idle":
            return
        self._readmit_lease_servers()
        if self.state == "leader":
            self._renew()
        elif self.state == "follower":
            self._probe()
        # "claiming" is driven by its own callbacks; the poll waits it out

    def _readmit_lease_servers(self) -> None:
        """Nobody else re-admits lease servers while the system is
        leaderless (the controller's store monitor is part of the thing
        that died), so electors sweep their own membership view: any
        server whose host is actually up is offered back to the ring —
        ``mark_live`` still refuses while the data-path quarantine
        holds."""
        now = self.loop.now()
        for name, server in self.cluster.servers.items():
            if name not in self.cluster.ring and not server.host.failed:
                self.cluster.mark_live(name, now=now)

    # -- follower: watch the lease, claim when it lapses -----------------------
    def _probe(self) -> None:
        gen = self._gen

        def _cb(result: KvOpResult) -> None:
            if gen != self._gen or self.state != "follower" or self.host.failed:
                return
            if result.replicas_answered == 0:
                self._note_unavailable("read")
                return
            rec = self._observe(result)
            if rec is not None and rec["expires_at"] > self.loop.now():
                return  # live leader elsewhere
            self._claim()

        self.kv.get(LEASE_KEY, _cb)

    def _claim(self) -> None:
        self.state = "claiming"
        gen = self._gen
        epoch = self.observed_epoch + 1
        expires = self.loop.now() + LEASE_TTL
        self.metrics.counter("claims").inc()

        def _cb(result: KvOpResult) -> None:
            if gen != self._gen or self.state != "claiming":
                return
            if result.superseded_by is not None:
                # a live leader's renewal (or a faster claim) out-versions
                # us: adopt and stand down without confirming
                self.ledger.adopt(LEASE_KEY, result.superseded_by)
                self.state = "follower"
                return
            if not result.ok:
                self.state = "follower"
                self._note_unavailable("claim")
                return
            self.loop.call_later(LEASE_SETTLE, self._confirm, gen, epoch)

        self.kv.set(LEASE_KEY, self._encode(epoch, expires), _cb,
                    version=self.ledger.stamp(LEASE_KEY))

    def _confirm(self, gen: int, epoch: int) -> None:
        if gen != self._gen or self.state != "claiming":
            return

        def _cb(result: KvOpResult) -> None:
            if gen != self._gen or self.state != "claiming":
                return
            rec = self._observe(result)
            if (rec is not None and rec["holder"] == self.host.name
                    and rec["epoch"] == epoch):
                self.state = "leader"
                self.epoch = epoch
                self.lease_expires = rec["expires_at"]
                self.metrics.counter("elections_won").inc()
                self.metrics.gauge("leader_epoch").set(epoch)
                if OBS.enabled:
                    OBS.flight(f"{self.host.name}.lease", "elected",
                               f"epoch {epoch}")
                if self.on_elected is not None:
                    self.on_elected(LeaderToken(epoch, self.host.name))
            else:
                self.state = "follower"  # lost the duel

        self.kv.get(LEASE_KEY, _cb)

    # -- leader: renew, or step down -------------------------------------------
    def _renew(self) -> None:
        now = self.loop.now()
        if now > self.lease_expires + self.grace:
            self._step_down(LeadershipLost(
                self.host.name, self.epoch,
                "lease expired without a successful renewal"))
            return
        gen = self._gen
        expires = now + LEASE_TTL

        def _cb(result: KvOpResult) -> None:
            if gen != self._gen or self.state != "leader":
                return
            if result.superseded_by is not None:
                self.ledger.adopt(LEASE_KEY, result.superseded_by)
                self._step_down(LeadershipLost(
                    self.host.name, self.epoch,
                    "renewal superseded by a newer claim"))
                return
            if result.ok:
                self.lease_expires = expires
            else:
                # silence: keep acting until expiry (+ grace); the fence
                # epoch makes this window safe
                self._note_unavailable("renew")

        self.kv.set(LEASE_KEY, self._encode(self.epoch, expires), _cb,
                    version=self.ledger.stamp(LEASE_KEY))

    def step_down(self, exc: Exception) -> None:
        """External demand to stand down (e.g. a fenced push proved a
        newer leader exists)."""
        if self.state == "leader":
            self._step_down(exc)

    def _step_down(self, exc: Exception) -> None:
        self._gen += 1
        self.state = "follower"
        self.epoch = -1
        self.metrics.counter("stepdowns").inc()
        if OBS.enabled:
            OBS.flight(f"{self.host.name}.lease", "step_down", str(exc))
        if self.on_lost is not None:
            self.on_lost(exc)

    # -- shared helpers --------------------------------------------------------
    def _note_unavailable(self, op: str) -> None:
        self.metrics.counter("lease_store_unavailable").inc()
        exc = LeaseStoreUnavailable(self.host.name, op)
        if OBS.enabled:
            OBS.flight(f"{self.host.name}.lease", "store_unavailable", str(exc))

    def _encode(self, epoch: int, expires_at: float) -> bytes:
        return json.dumps({"epoch": epoch, "holder": self.host.name,
                           "expires_at": expires_at}, sort_keys=True).encode()

    def _observe(self, result: KvOpResult) -> Optional[Dict]:
        """Decode a lease read and adopt what it shows (its version, the
        highest epoch seen); None when absent or unreadable."""
        if not result.ok or result.value is None:
            return None
        try:
            rec = json.loads(result.value.decode())
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(rec, dict) or "epoch" not in rec:
            return None
        self.ledger.adopt(LEASE_KEY, result.version)
        self.observed_epoch = max(self.observed_epoch, rec["epoch"])
        return rec


def journal_state(ctl) -> Dict:
    """The JSON snapshot of ``ctl`` a successor replays: operator
    progress, not operator intent (intent lives in the registry)."""
    drains = {
        name: {
            "started_at": st.started_at,
            "deadline_at": st.deadline_at,
            "flows_at_start": st.flows_at_start,
            "to_spare": st.to_spare,
        }
        for name, st in ctl.drainer.drains.items() if not st.done
    }
    counters = {}
    for key in ("drains_started", "drains_completed", "drains_forced",
                "scaled_up", "scaled_down", "region_failovers",
                "instances_added", "instances_removed"):
        if key in ctl.metrics.counters:
            counters[key] = ctl.metrics.counters[key].value
    token, region = ctl.token, ctl.region
    state = {
        "epoch": token.epoch if token is not None else -1,
        "holder": token.holder if token is not None else "",
        "assignments": {vip: list(names)
                        for vip, names in ctl.assignments.items()},
        "active": {n: bool(v) for n, v in ctl.active.items()},
        "draining": drains,
        "spares": sorted(s.name for s in ctl.spares),
        "failed_over": region.failed_over,
        "failover_at": region.failover_at,
        "failover_records_lost": region.failover_records_lost,
        "compact_versions": dict(ctl.compact_versions),
        "counters": counters,
    }
    if ctl.autoscaler is not None:
        # cooldown clocks + event-ledger tail: a successor's engine
        # resumes mid-flight scale events instead of re-deciding cold
        state["autoscale"] = ctl.autoscaler.journal_state()
    return state


class OperatorRegistry:
    """What the *operator* asked for, kept outside any single controller:
    the services to run, at their current policy version, and the spare
    instances.  Every replica's controller can be (re)hydrated from this
    plus the journal -- the registry is intent, the journal is progress.
    Each operator method of ``YodaController`` records its change here,
    so intent is kept whichever entry point the operator used."""

    def __init__(self):
        # vip -> (policy, backends, instance_names)
        self.services: Dict[str, Tuple] = {}
        self.spare_pool: Dict[str, object] = {}  # name -> YodaInstance

    def add_service(self, policy, backends, instance_names) -> None:
        self.services[policy.vip] = (policy, backends, instance_names)

    def update_service(self, policy) -> None:
        _, backends, instance_names = self.services[policy.vip]
        self.services[policy.vip] = (policy, backends, instance_names)

    def remove_service(self, vip: str) -> None:
        self.services.pop(vip, None)

    def add_spare(self, instance) -> None:
        self.spare_pool[instance.name] = instance


class ControllerReplica:
    """One killable controller host: an elector plus a cold
    ``YodaController`` that only acts while this replica holds the lease.

    ``fail``/``recover`` model a controller-process crash: the host drops
    packets, every periodic task stops, and (if it led) the lease lapses
    for the next replica to claim.
    """

    def __init__(self, host: Host, loop: EventLoop, kv: ReplicatingKvClient,
                 controller, replica_set: "ControllerReplicaSet"):
        self.host = host
        self.loop = loop
        self.kv = kv
        self.controller = controller
        self.replica_set = replica_set
        self.journal = ControlJournal(kv, host.name)
        self.elector: Optional[LeaderElector] = None
        self._replaying = False
        controller.ha = self

    @property
    def name(self) -> str:
        return self.host.name

    def attach_elector(self, elector: LeaderElector) -> None:
        self.elector = elector
        elector.on_elected = self._on_elected
        elector.on_lost = self._on_lost

    def acting(self) -> bool:
        """May this replica's controller mutate the data plane right now?"""
        return (not self.host.failed
                and self.elector is not None
                and self.elector.state == "leader"
                and not self._replaying)

    # -- leadership transitions ------------------------------------------------
    def _on_elected(self, token: LeaderToken) -> None:
        self.replica_set.record("elected", self.name, token.epoch)
        self._replaying = True

        def _with_journal(state: Optional[Dict]) -> None:
            if self.host.failed or self.elector is None \
                    or self.elector.state != "leader":
                self._replaying = False
                return
            self.take_over(token, state)
            self._replaying = False
            self.replica_set.record("active", self.name, token.epoch)
            if OBS.enabled:
                OBS.flight(f"{self.name}.ctl", "take_over",
                           f"epoch {token.epoch} "
                           f"journal={'replayed' if state else 'empty'}")

        self.journal.read(_with_journal)

    def _on_lost(self, exc: Exception) -> None:
        epoch = getattr(exc, "epoch", -1)
        self.controller.token = None
        self.replica_set.record("lost", self.name, epoch)

    def fenced(self, exc: StaleLeaderEpoch) -> None:
        """A receiver (or the journal store) proved a newer leader exists
        before our own lease machinery noticed: stand down now."""
        if self.elector is not None:
            self.elector.step_down(LeadershipLost(
                self.name, exc.got_epoch,
                f"fenced by {exc.receiver}: {exc}"))

    # -- the journal and the takeover -----------------------------------------
    @property
    def registry(self) -> "OperatorRegistry":
        return self.replica_set.registry

    def journal_sync(self) -> None:
        """Persist the control-plane state after a mutation (while
        leading; a replica without a token writes nothing)."""
        ctl = self.controller
        token = ctl.token
        if token is None:
            return

        def _done(ok: bool, superseded: bool) -> None:
            if superseded and ctl.token is token:
                # a newer leader owns the journal: the store itself just
                # fenced us out; surface it like any rejected push
                self.fenced(StaleLeaderEpoch(
                    JOURNAL_KEY, "journal_write", token.epoch,
                    token.holder, token.epoch + 1, "a newer leader"))

        self.journal.write(journal_state(ctl), _done)

    def take_over(self, token: LeaderToken, state: Optional[Dict]) -> None:
        """Become the acting leader: hydrate the controller from operator
        intent (the registry) plus the previous leader's journal
        (``state``), then re-push everything with our lease epoch -- the
        re-push is what fences the data plane against the old leader.

        Mid-flight work is *resumed*, not restarted: drains keep their
        original absolute deadlines, and a completed region failover is
        adopted (the standby stays promoted) rather than re-promoted.
        """
        ctl = self.controller
        registry = self.registry
        ctl.token = token
        prev = state or {}
        region = ctl.region
        # 0. region failover the old leader already performed: adopt it
        if prev.get("failed_over") and not region.failed_over \
                and region.standby is not None:
            region.adopt(ctl)
            region.failover_at = prev.get("failover_at")
        # 1. operator intent: exactly the services the registry holds, at
        # the policy version it holds (what an earlier leadership of this
        # replica left behind may be stale)
        for vip in [v for v in ctl.policies if v not in registry.services]:
            del ctl.policies[vip]
            ctl.assignments.pop(vip, None)
        for policy, backends, instance_names in list(registry.services.values()):
            if backends:
                ctl.backends.update(backends)
            if policy.vip not in ctl.policies:
                names = [n for n in (instance_names or list(ctl.instances))
                         if n in ctl.instances]
                ctl.assignments[policy.vip] = names
            ctl.policies[policy.vip] = policy
        for name, spare in registry.spare_pool.items():
            if name not in ctl.instances \
                    and all(s.name != name for s in ctl.spares):
                journal_spares = prev.get("spares")
                if journal_spares is None or name in journal_spares:
                    spare.backend_view = ctl.health_view
                    ctl.spares.append(spare)
        # 2. journal progress overrides intent
        for vip, names in prev.get("assignments", {}).items():
            if vip in ctl.policies:
                ctl.assignments[vip] = [n for n in names
                                        if n in ctl.instances]
        for name, is_active in prev.get("active", {}).items():
            if name in ctl.active:
                ctl.active[name] = bool(is_active)
        # 3. bootstrap liveness from current truth (an immediate probe
        # round) and re-bind the shared data-plane objects to OUR views:
        # each replica constructed its own health view, but only the
        # leader's is fed by a running monitor
        for name, instance in ctl.instances.items():
            ctl.instance_health.assume(name, not instance.host.failed)
            instance.backend_view = ctl.health_view
        # backends too: a recovered stream probing in our first seconds
        # consults the stream stage's backend check through this view, and
        # the unknown->healthy default would tunnel it into a dead backend
        # for good
        for bname, server in ctl.backends.items():
            ctl.health_view.assume(bname, not server.host.failed)
        # 4. re-install rules and re-anchor VIPs, fencing as we go
        for vip, policy in ctl.policies.items():
            ctl.l4lb.register_vip(vip, token=token)
            for name in ctl.assignments.get(vip, []):
                instance = ctl.instances.get(name)
                if instance is not None and not instance.host.failed:
                    instance.install_policy(policy, token=token)
        # 5. resume the old leader's unfinished drains on their original
        # absolute deadlines
        for name, info in prev.get("draining", {}).items():
            instance = ctl.instances.get(name)
            if instance is None:
                continue
            if not instance.host.failed:
                instance.start_drain(token=token)
            ctl.drainer.resume(
                name, started_at=info.get("started_at", ctl.loop.now()),
                deadline_at=info["deadline_at"],
                flows_at_start=info.get("flows_at_start", 0),
                to_spare=info.get("to_spare", False),
            )
        # 6. the fencing push: every mapping goes out at our epoch, so
        # anything the old leader still says is rejected from here on.
        # Compact-table versions the old leader journaled are adopted
        # first: mapping versions are monotonic per L4 service, so the
        # re-pushed snapshots must land at (and record) versions at or
        # above the old leader's -- verified, not assumed.
        journaled_compact = {
            vip: int(v)
            for vip, v in (prev.get("compact_versions") or {}).items()
        }
        ctl.compact_versions.update(journaled_compact)
        for vip in ctl.policies:
            ctl.push_mapping(vip)
        if not region.failed_over:
            # versions are monotonic per L4 service; after a region
            # failover the standby L4's counters are independent and no
            # floor applies
            for vip, floor in journaled_compact.items():
                if ctl.compact_versions.get(vip, floor) < floor:
                    raise ControllerError(
                        f"compact table for {vip} regressed below the "
                        f"journaled version {floor} during takeover"
                    )
        # 5b. the old leader's autoscaler state: cooldown clocks and the
        # scale-event ledger, so the new leader's engine neither flaps
        # (cooldowns reset) nor forgets which stores were elastic.  The
        # interrupted scale-in itself was already resumed above as a
        # journaled drain.
        if ctl.autoscaler is not None:
            ctl.autoscaler.restore(prev.get("autoscale"))
        # 7. counters carry across leaderships (monotonic adoption)
        for key, value in prev.get("counters", {}).items():
            counter = ctl.metrics.counter(key)
            if value > counter.value:
                counter.inc(value - counter.value)
        ctl.metrics.counter("takeovers").inc()
        ctl.metrics.gauge("leader_epoch").set(float(token.epoch))
        self.journal_sync()

    # -- chaos hooks -----------------------------------------------------------
    def fail(self) -> None:
        was_acting = self.acting()
        epoch = self.elector.epoch if self.elector is not None else -1
        self.host.fail()
        if self.elector is not None:
            self.elector.fail()
        self.controller.halt()
        self.controller.token = None
        self.replica_set.record("killed", self.name, epoch if was_acting else -1)

    def recover(self) -> None:
        self.host.recover()
        self.controller.resume_monitoring()
        if self.elector is not None:
            self.elector.recover()
        self.replica_set.record("recovered", self.name, -1)


class ControllerReplicaSet:
    """The replicated control plane, as the testbed sees it.

    Routes operator intent (``add_vip``, spares) to the shared registry
    and to the acting leader if there is one; tracks leadership events so
    invariants can reconstruct exactly when the system was leaderless."""

    def __init__(self, loop: EventLoop, lease_cluster: MemcachedCluster):
        self.loop = loop
        self.lease_cluster = lease_cluster
        self.replicas: List[ControllerReplica] = []
        self.registry = OperatorRegistry()
        # (time, event, replica, epoch); events: elected/active/lost/killed/recovered
        self.events: List[Tuple[float, str, str, int]] = []
        self.metrics = MetricRegistry("ctl.replicaset")
        self._last_active: Optional[ControllerReplica] = None

    def add_replica(self, replica: ControllerReplica) -> None:
        self.replicas.append(replica)

    def record(self, event: str, name: str, epoch: int) -> None:
        self.events.append((self.loop.now(), event, name, epoch))
        self.metrics.counter(f"events_{event}").inc()
        if event == "active":
            self._last_active = self.replica(name)
            self.metrics.gauge("leader_epoch").set(epoch)

    def replica(self, name: str) -> Optional[ControllerReplica]:
        for rep in self.replicas:
            if rep.name == name:
                return rep
        return None

    def acting_replica(self) -> Optional[ControllerReplica]:
        for rep in self.replicas:
            if rep.acting():
                return rep
        return None

    @property
    def leader_controller(self):
        """The controller to address operator commands to: the acting
        leader, else the last leader (its controller still holds the
        richest local state for inspection), else replica 0."""
        rep = self.acting_replica() or self._last_active or self.replicas[0]
        return rep.controller

    # -- operator intent -------------------------------------------------------
    def add_vip(self, policy, backends, instance_names) -> None:
        """A new service: the acting leader installs it (and records it);
        while leaderless it is recorded for the first leader to install."""
        rep = self.acting_replica()
        if rep is not None:
            rep.controller.add_vip(policy, backends=backends,
                                   instance_names=instance_names)
        else:
            self.registry.add_service(policy, backends, instance_names)

    def add_spare(self, instance) -> None:
        rep = self.acting_replica()
        if rep is not None:
            rep.controller.add_spare(instance)
        else:
            self.registry.add_spare(instance)

    # -- invariant support -----------------------------------------------------
    def leaderless_windows(self, end: float) -> List[Tuple[float, float]]:
        """Intervals during which no replica was actively leading,
        reconstructed from the event log.  The window opens when the
        acting leader dies or steps down and closes when the next
        leader finishes its journal replay (``active``)."""
        windows: List[Tuple[float, float]] = []
        open_at: Optional[float] = 0.0  # leaderless until the first leader
        current: Optional[str] = None
        for t, event, name, _epoch in self.events:
            if event == "active":
                if open_at is not None:
                    windows.append((open_at, t))
                    open_at = None
                current = name
            elif event in ("killed", "lost") and name == current:
                if open_at is None:
                    open_at = t
                current = None
        if open_at is not None:
            windows.append((open_at, end))
        return windows

    def gates(self) -> List[FenceGate]:
        """Every fence gate in the deployment this replica set pushes to
        (for the AtMostOneActingLeader sweep)."""
        out: List[FenceGate] = []
        seen = set()
        for rep in self.replicas:
            ctl = rep.controller
            for obj in [ctl.l4lb, *ctl.instances.values(),
                        *ctl.region.receivers()]:
                gate = getattr(obj, "fence", None)
                if gate is not None and id(gate) not in seen:
                    seen.add(id(gate))
                    out.append(gate)
        return out
