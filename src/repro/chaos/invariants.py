"""The invariants a chaos run is audited against.

Each invariant is one :class:`Invariant` subclass: it names itself, states
the one thing a bed needs for it to be reported (``needs``), subscribes to
the :class:`FlowAuditTable` hooks it judges online, and judges the rest
once the run has drained, from the :class:`RunEnd` record.
:func:`attach_suite` taps a bed with one flow table and builds every
invariant of :data:`SUITE` that applies to it, in report order -- the
paper's Section 4.2 guarantees first.

The per-flow facts the packet invariants need live in the one table,
updated once per wire transmission from the packet itself.  (The run
digest that witnesses determinism is the network's:
``Network.start_digest``.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.flowstate import client_key, server_key
from repro.core.service import STORE_REPLICAS
from repro.kvstore.memcached import version_newer
from repro.net.packet import ACK, FIN, RST, SYN, Packet
from repro.obs import OBS
from repro.sim.process import PeriodicTask
from repro.sim.tracing import SCOPE_WIRE_PACKET
from repro.tcp.segment import SEQ_HALF, SEQ_MASK

MAX_VIOLATIONS_KEPT = 50  # per invariant; beyond this only the count grows
FORENSICS_TAIL = 20  # flight-recorder events embedded per violation
REPLICATION_WINDOW = 2.0  # seconds to restore K replicas after a change
REPLICATION_SAMPLE_INTERVAL = 0.25
SCALE_WINDOW = 10.0  # seconds of autoscaler events judged together
MAX_DIRECTION_CHANGES = 2  # out/in flips per window
MAX_SCALE_EVENTS = 6  # events of any kind per window


def _forensics_tail() -> List[str]:
    """Dump the flight recorders' merged tail at the moment of violation.

    Empty when the observability plane is off -- forensics are a debugging
    aid, never a behavioural dependency."""
    if not OBS.enabled:
        return []
    return OBS.recorders.dump_tail(last=FORENSICS_TAIL)


@dataclass
class Violation:
    """One observed invariant breach."""

    invariant: str
    time: float
    flow: str
    detail: str
    forensics: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        base = f"[{self.time:.3f}s] {self.invariant} {self.flow}: {self.detail}"
        if self.forensics:
            base += "\n  flight recorder tail:\n    " + "\n    ".join(self.forensics)
        return base


@dataclass
class Verdict:
    """Final judgement for one invariant."""

    invariant: str
    ok: bool
    checked: int
    violations: List[Violation] = field(default_factory=list)
    violation_count: int = 0

    def __str__(self) -> str:
        status = "ok" if self.ok else f"FAIL ({self.violation_count})"
        return f"{self.invariant}: {status} ({self.checked} checks)"


@dataclass
class RunEnd:
    """What the run knows once it has drained: the record every
    :meth:`Invariant.finalize` reads."""

    # flows opened before this loop-time must have closed cleanly; later
    # ones may still be in flight.  None skips the end-of-run flow sweeps
    load_end: Optional[float] = None
    # instances the scenario crashed, exempt from the SNAT audit: their
    # port bookkeeping stays frozen so a recovered VM never reissues a
    # port a migrated flow still occupies
    crashed: Sequence[str] = ()
    stream_clients: Sequence = ()  # the streaming fleet's clients
    region_kill_time: Optional[float] = None  # None: no region died


# (src endpoint, dst endpoint) as the trace renders them: tables are keyed
# by the pair itself, which is formatted only inside a Violation
FlowKey = Tuple[str, str]


def _flow_id(key: FlowKey) -> str:
    return f"{key[0]}>{key[1]}"


class _FlowAudit:
    """Book-keeping for one client-facing flow (client ep, vip ep)."""

    __slots__ = (
        "opened_at", "client_isn", "synack_seen", "acked_req_bytes",
        "resp_bytes", "fin_from_lb", "fin_from_client", "rst_from_lb",
    )

    def __init__(self, opened_at: float):
        self.opened_at = opened_at
        self.client_isn: Optional[int] = None
        self.synack_seen = False
        self.acked_req_bytes = 0
        self.resp_bytes = 0
        self.fin_from_lb = False
        self.fin_from_client = False
        self.rst_from_lb = False

    @property
    def clean(self) -> bool:
        """Orderly close: FINs both ways and response bytes delivered."""
        return self.fin_from_lb and self.fin_from_client and self.resp_bytes > 0

    @property
    def accepted(self) -> bool:
        """The LB completed the handshake and ACKed a request byte."""
        return self.synack_seen and self.acked_req_bytes > 0


class FlowAuditTable:
    """The flow table every packet-level invariant reads.

    A wire-packet tap: the network hands it each wire transmission as
    ``(now, packet, dropped)`` -- each send exactly once (the mux ->
    instance hop is an in-DC deliver, not a wire transmission, so no
    packet is double-counted) -- and it reads the packet's flag bits and
    cached endpoint text; no record is rendered or built for it.
    Invariants subscribe to the packets they judge online; a hook runs
    *before* the packet updates the flow, so it sees the flow as it stood
    when the packet hit the wire.
    """

    scope = SCOPE_WIRE_PACKET

    def __init__(self, bed):
        self.vip = bed.vip
        self.vip_client_eps = frozenset({f"{bed.vip}:80"})
        self.flows: Dict[FlowKey, _FlowAudit] = {}  # (client ep, vip ep)
        # (snat ep, server ep) -> has its handshake ACK been judged?  Kept
        # only while some invariant subscribes to on_backend_ack
        self.backend_pairs: Dict[FlowKey, bool] = {}
        self.acks_audited = 0  # LB -> client ACKs folded into acked_req_bytes
        # hooks, appended to by the invariants that read this table
        self.on_synack: List[Callable] = []  # LB -> client: (now, key, audit)
        self.on_rst: List[Callable] = []  # LB -> client: (now, key, audit)
        # LB -> server: (now, pair, packet)
        self.on_backend_ack: List[Callable] = []

    def record(self, now: float, packet: Packet, dropped: bool) -> None:
        flags = packet.flags
        src = packet.src.text
        dst = packet.dst.text
        if dst in self.vip_client_eps:  # client -> LB
            key = (src, dst)
            audit = self.flows.get(key)
            if audit is None:
                audit = self.flows[key] = _FlowAudit(now)
            if flags & SYN and audit.client_isn is None:
                audit.client_isn = packet.seq
            if flags & FIN:
                audit.fin_from_client = True
        elif src in self.vip_client_eps:  # LB -> client
            key = (dst, src)
            audit = self.flows.get(key)
            if audit is None:  # (opened by the LB only for stray RSTs)
                audit = self.flows[key] = _FlowAudit(now)
            if flags & SYN and flags & ACK:
                for hook in self.on_synack:
                    hook(now, key, audit)
                audit.synack_seen = True
            if flags & RST:
                for hook in self.on_rst:
                    hook(now, key, audit)
                audit.rst_from_lb = True
                return
            if flags & FIN:
                audit.fin_from_lb = True
            if not dropped:
                audit.resp_bytes += len(packet.payload)
            if flags & ACK and audit.client_isn is not None:
                self.acks_audited += 1
                # seq_diff(ack, client_isn + 1), spelled as tcp/segment.py
                # defines it
                acked = ((packet.ack - audit.client_isn - 1 + SEQ_HALF)
                         & SEQ_MASK) - SEQ_HALF
                if acked > audit.acked_req_bytes:
                    audit.acked_req_bytes = acked
        elif self.on_backend_ack and packet.src.ip == self.vip:
            # LB -> server, from a SNAT port (a VIP endpoint that is not :80)
            pair = (src, dst)
            if flags & SYN:
                # A new backend connection attempt resets this pair's audit
                # (backend switches reuse the SNAT port against a new server).
                self.backend_pairs[pair] = False
            elif (flags & (ACK | RST | FIN) == ACK
                    and self.backend_pairs.get(pair) is False):
                # First ACK completing the backend handshake.
                self.backend_pairs[pair] = True
                for hook in self.on_backend_ack:
                    hook(now, pair, packet)

    def sweep(self, before: Optional[float], accepted_only: bool = False
              ) -> Tuple[int, List[Tuple[FlowKey, _FlowAudit]]]:
        """The end-of-run flow sweep: how many flows a client opened before
        ``before`` (only accepted ones, with ``accepted_only``), and those
        of them that never finished.  A flow the LB reset counts but is
        not listed -- its RST was judged online.  None sweeps nothing."""
        judged, unfinished = 0, []
        if before is None:
            return judged, unfinished
        for key, audit in self.flows.items():
            if (audit.client_isn is None or audit.opened_at >= before
                    or accepted_only and not audit.accepted):
                continue
            judged += 1
            if not audit.rst_from_lb and not audit.clean:
                unfinished.append((key, audit))
        return judged, unfinished


class Invariant:
    """One audited property of a run.

    A subclass names itself (``name``), states what a bed needs for it to
    be reported (``needs``, read by :meth:`applies`), subscribes in its
    constructor to the table hooks it judges online, and judges the rest
    in :meth:`judge`.  Every check and every violation counts; the first
    ``MAX_VIOLATIONS_KEPT`` violations are kept with the flight-recorder
    tail of the moment they happened.
    """

    name = ""
    needs: Optional[str] = None  # None: every bed; else a key in applies()

    def __init__(self, bed, table: FlowAuditTable):
        self.bed = bed
        self.table = table
        self.checks = 0
        self.violation_count = 0
        self.violations: List[Violation] = []

    @classmethod
    def applies(cls, bed, streams: bool = False) -> bool:
        """Is this invariant reported on ``bed``?  ``streams``: the run
        rides long-lived streaming downloads."""
        yoda = bed.yoda
        return {
            None: True,
            "streams": streams,
            "yoda instances": yoda is not None,
            "a standby region": getattr(yoda, "standby_region", None) is not None,
            "a replica set": getattr(yoda, "replica_set", None) is not None,
            "an autoscaler": bool(getattr(yoda, "autoscalers", ())),
        }[cls.needs]

    def flag(self, time: float, subject: str, detail: str) -> None:
        self.violation_count += 1
        if len(self.violations) < MAX_VIOLATIONS_KEPT:
            self.violations.append(Violation(self.name, time, subject, detail,
                                             _forensics_tail()))

    def judge(self, end: RunEnd) -> None:
        """The end-of-run half of the audit (none by default)."""

    def finalize(self, end: RunEnd) -> Verdict:
        self.judge(end)
        return Verdict(self.name, self.violation_count == 0, self.checks,
                       self.violations, self.violation_count)


class StorageBeforeAck(Invariant):
    """A YODA instance never emits the client-facing SYN-ACK before the
    client record is durable in TCPStore (storage-a), and never ACKs the
    backend's SYN-ACK before the server record and the server-side index
    are (storage-b): checked as the packet hits the wire, by peeking every
    live store.  Only durable flow state can be audited: stateless
    dispatch ACKs without durable writes by contract (that is the whole
    bargain, and its losses surface through flow-conservation) and other
    LB tiers keep no flow state, so those beds report 0 checks."""

    name = "storage-before-ack"

    def __init__(self, bed, table: FlowAuditTable):
        super().__init__(bed, table)
        if bed.yoda is not None and not bed.yoda.config.stateless_enabled:
            table.on_synack.append(self._on_synack)
            table.on_backend_ack.append(self._on_backend_ack)

    def _on_synack(self, now: float, key: FlowKey, audit: _FlowAudit) -> None:
        # SYN-ACK on the wire: storage-a must already be durable.
        if not audit.fin_from_lb:
            self.checks += 1
            store_key = client_key(*key)
            if not self._stored_somewhere(store_key):
                self.flag(now, _flow_id(key),
                          f"SYN-ACK sent but {store_key!r} is on no live store")

    def _on_backend_ack(self, now: float, pair: FlowKey,
                        packet: Packet) -> None:
        # The ACK completing the backend handshake: storage-b (the updated
        # client record + server-side index) must be durable.
        self.checks += 1
        key = server_key(packet.src.ip, packet.src.port, packet.dst)
        if not self._stored_somewhere(key):
            self.flag(now, _flow_id(pair),
                      f"backend handshake ACK sent but {key!r} is on no "
                      f"live store")

    def _stored_somewhere(self, key: str) -> bool:
        """Omniscient peek: is the key durable on any store whose VM is
        up?  (A partitioned-but-running store still holds its data.)
        Both regions count: after a failover the standby stores are the
        live copies."""
        yoda = self.bed.yoda
        for server in list(yoda.store_servers) + list(yoda.standby_store_servers):
            if not server.host.failed and server.peek(key) is not None:
                return True
        return False


class AckedByteLoss(Invariant):
    """Once the LB has ACKed request bytes the flow is never reset toward
    the client -- acknowledged data may not vanish.  Each LB -> client ACK
    the table folds in is one check."""

    name = "acked-byte-loss"

    def __init__(self, bed, table: FlowAuditTable):
        super().__init__(bed, table)
        table.on_rst.append(self._on_rst)

    def _on_rst(self, now: float, key: FlowKey, audit: _FlowAudit) -> None:
        if audit.acked_req_bytes > 0:
            self.flag(now, _flow_id(key),
                      f"RST to client after ACKing {audit.acked_req_bytes} "
                      f"request bytes")

    def judge(self, end: RunEnd) -> None:
        self.checks = self.table.acks_audited


class FlowConservation(Invariant):
    """Every flow opened during the load phase ends, after the drain, in an
    orderly FIN exchange with response bytes delivered: nothing silently
    evaporates (a flow the LB reset is reported under acked-byte-loss)."""

    name = "flow-conservation"

    def judge(self, end: RunEnd) -> None:
        now = self.bed.loop.now()
        judged, unfinished = self.table.sweep(end.load_end)
        self.checks += judged
        for key, audit in unfinished:
            self.flag(now, _flow_id(key),
                      f"flow opened at {audit.opened_at:.3f}s never "
                      f"finished (synack={audit.synack_seen} "
                      f"resp_bytes={audit.resp_bytes} "
                      f"fin_lb={audit.fin_from_lb} "
                      f"fin_client={audit.fin_from_client})")


class SnatLeak(Invariant):
    """After the drain, no live instance the scenario did not crash holds
    SNAT ports no flow owns.  Every YODA instance allocates and releases
    its ports the same way, stateless dispatch or not; other LB tiers
    report 0 checks."""

    name = "snat-leak"

    def judge(self, end: RunEnd) -> None:
        yoda = self.bed.yoda
        if yoda is None:
            return
        now = self.bed.loop.now()
        for instance in list(yoda.instances) + list(yoda.standby_instances):
            if instance.host.failed or instance.name in end.crashed:
                continue
            self.checks += 1
            states = [flow.state for flow in instance.flows.values()]
            for vip, ports in instance.snat_ports.leaked(states).items():
                self.flag(now, instance.name,
                          f"{len(ports)} SNAT ports leaked for {vip}: "
                          f"{sorted(ports)[:8]}")


class NoAcceptedRequestDropped(Invariant):
    """An *accepted* request is never sacrificed.

    The overload-control plane is allowed to refuse work -- but only at
    SYN time, before any state or promise exists.  A flow counts as
    **accepted** once the LB has both completed the client handshake
    (SYN-ACK seen) and acknowledged at least one request byte; from then
    on shedding it is a correctness bug, not a policy decision.  Two
    breaches:

    - **reset-after-accept**: an RST toward the client after acceptance
      (caught online, at the packet).
    - **vanished**: an accepted flow opened during the strict window that
      never reaches an orderly close with response bytes delivered.

    SYN-stage sheds (the qos plane's stateless RST arrives before any
    SYN-ACK) and handshake-only flood flows (no request byte ever acked)
    are exempt by construction -- which is exactly the boundary the
    flash-crowd scenario exists to probe.  The invariant is strictly
    weaker than acked-byte-loss + flow-conservation together, so
    attaching it to every scenario can never fail a run the existing
    invariants pass.
    """

    name = "no-accepted-request-dropped"

    def __init__(self, bed, table: FlowAuditTable):
        super().__init__(bed, table)
        table.on_rst.append(self._on_rst)

    def _on_rst(self, now: float, key: FlowKey, audit: _FlowAudit) -> None:
        if not audit.rst_from_lb and audit.accepted:
            self.checks += 1
            self.flag(now, _flow_id(key),
                      f"accepted request reset "
                      f"({audit.acked_req_bytes} request bytes acked)")

    def judge(self, end: RunEnd) -> None:
        now = self.bed.loop.now()
        judged, unfinished = self.table.sweep(end.load_end, accepted_only=True)
        self.checks += judged
        for key, audit in unfinished:
            self.flag(now, _flow_id(key),
                      f"accepted flow (opened {audit.opened_at:.3f}s, "
                      f"{audit.acked_req_bytes} bytes acked) never "
                      f"finished (resp_bytes={audit.resp_bytes} "
                      f"fin_lb={audit.fin_from_lb} "
                      f"fin_client={audit.fin_from_client})")


class ReplicationFactor(Invariant):
    """Audits store durability: K live replicas per record, restored
    within a bounded window after any membership change.

    Every ``REPLICATION_SAMPLE_INTERVAL`` seconds it walks the durable
    records of every live flow on every live YODA instance and counts,
    omnisciently, the live store servers holding the record at (or above)
    its current version -- stale copies on a diverged replica do not
    count, because recovering from them would resurrect a dead flow
    snapshot.  A record may be under-replicated transiently (that is what
    failures do); it becomes a violation only when the deficit survives
    longer than ``REPLICATION_WINDOW`` seconds.  The window is the whole
    grace period: it must cover failure detection plus re-replication,
    and it does NOT restart on membership changes -- otherwise a rolling
    restart (epoch bumps every couple of seconds) could erode a record to
    zero copies without the audit ever saying so.  Audited even
    (especially) when repair is off: the verdict is how an ablated run
    reports its flow-state loss.
    """

    name = "replication-factor"
    needs = "yoda instances"

    def __init__(self, bed, table: FlowAuditTable):
        super().__init__(bed, table)
        self._deficit_since: Dict[str, float] = {}
        self._violated = set()
        self._task = PeriodicTask(bed.loop, REPLICATION_SAMPLE_INTERVAL,
                                  self._tick)
        self._task.start()

    def _tick(self) -> None:
        yoda = self.bed.yoda
        now = self.bed.loop.now()
        # a record is durable wherever it lives -- after a region failover
        # that is the standby site's stores, not the (dead) primary's
        all_stores = list(yoda.store_servers) + list(yoda.standby_store_servers)
        live_stores = [s for s in all_stores if not s.host.failed]
        need = min(STORE_REPLICAS, len(live_stores))
        if need == 0:
            return
        sampled = set()
        for instance in list(yoda.instances) + list(yoda.standby_instances):
            if instance.host.failed:
                continue
            for key, _payload, version in instance.durable_records():
                if key in sampled:
                    continue  # two instances racing over a migrating flow
                sampled.add(key)
                self.checks += 1
                holders = sum(
                    1 for s in live_stores
                    if s.peek(key) is not None
                    and not version_newer(version, s.peek_version(key))
                )
                if holders >= need:
                    self._deficit_since.pop(key, None)
                    self._violated.discard(key)
                    continue
                first = self._deficit_since.setdefault(key, now)
                if (now - first > REPLICATION_WINDOW
                        and key not in self._violated):
                    self._violated.add(key)
                    self.flag(now, key,
                              f"{holders}/{need} live replicas for "
                              f"{now - first:.2f}s (window "
                              f"{REPLICATION_WINDOW}s, "
                              f"epoch {yoda.kv_cluster.epoch})")
        # flows that vanished while in deficit stop being tracked
        for key in [k for k in self._deficit_since if k not in sampled]:
            self._deficit_since.pop(key, None)
            self._violated.discard(key)

    def judge(self, end: RunEnd) -> None:
        self._task.stop()


class EstablishedFlowsSurviveRegionFailover(Invariant):
    """The multi-region headline guarantee: a long-lived flow that was
    established (response headers delivered) before the region kill must
    still run to completion -- served out of the standby region from the
    replicated flow state.  Streams that never established before the
    kill are exempt (refusing or retrying a not-yet-accepted request is
    legal); streams started after the kill are ordinary new connections
    and are audited by the other invariants.

    With replication disabled the standby stores hold nothing, recovery
    finds no record, and every established stream breaks -- the ablation
    violates this invariant deterministically.
    """

    name = "established-flows-survive-region-failover"
    needs = "streams"

    def judge(self, end: RunEnd) -> None:
        kill_time = end.region_kill_time
        if kill_time is None:
            return
        for client in end.stream_clients:
            r = client.result
            if r.established_at is None or r.established_at >= kill_time:
                continue
            self.checks += 1
            if not r.complete:
                self.flag(r.finished_at or kill_time, r.path,
                          f"stream established at {r.established_at:.3f}s "
                          f"(kill at {kill_time:.3f}s) broke: "
                          f"{r.bytes_received}/{r.bytes_expected} bytes, "
                          f"error={r.error}")


class NoSplitBrainPromotion(Invariant):
    """A WAN partition must never masquerade as a region death: the
    controller may promote the standby region only when the primary is
    actually gone (a region-kill fault fired).  Promotion during a mere
    partition would put two live regions behind one VIP -- split brain."""

    name = "no-split-brain-promotion"
    needs = "a standby region"

    def judge(self, end: RunEnd) -> None:
        region = self.bed.yoda.controller.region
        self.checks = 1
        if region.failed_over and end.region_kill_time is None:
            self.flag(region.failover_at or 0.0, "controller",
                      "standby region promoted but no region-kill fault "
                      "fired (WAN partition or gray failure misread as "
                      "region death)")


class AtMostOneActingLeader(Invariant):
    """Controller HA's safety half: fencing must make leadership changes
    look atomic to the receivers.  Audited from the fence-gate logs, not
    from the electors' self-reported state -- two replicas may *believe*
    they lead (that is what ``stepdown_grace`` manufactures), but the
    moment their effects interleave at a receiver the gates must have
    serialized them:

    - per gate, the accepted-entry epoch sequence never regresses;
    - globally, one epoch never acts through two different holders
      (epochs are fenced lease versions, so a second holder at the same
      epoch means the lease store handed out the same term twice).

    The replica set's own election log is swept for the same property
    (two overlapping ``active`` reigns at one epoch)."""

    name = "at-most-one-acting-leader"
    needs = "a replica set"

    def judge(self, end: RunEnd) -> None:
        replica_set = self.bed.yoda.replica_set
        holder_by_epoch: Dict[int, str] = {}

        def _claim(epoch: int, holder: str, time: float, where: str) -> None:
            seen = holder_by_epoch.setdefault(epoch, holder)
            if seen != holder:
                self.flag(time, where,
                          f"epoch {epoch} acted through two holders: "
                          f"{seen!r} and {holder!r}")

        for gate in replica_set.gates():
            high = -1
            for time, epoch, holder, kind, accepted in gate.log:
                if not accepted:
                    continue
                self.checks += 1
                if epoch < high:
                    self.flag(time, gate.name,
                              f"accepted {kind} at epoch {epoch} after "
                              f"already accepting epoch {high} -- fencing "
                              f"regressed")
                high = max(high, epoch)
                _claim(epoch, holder, time, gate.name)
        for time, event, name, epoch in replica_set.events:
            if event == "active":
                self.checks += 1
                _claim(epoch, name, time, "election-log")


class ControlPlaneStaticStability(Invariant):
    """Controller HA's liveness half: the data plane must not need a
    leader to keep moving bytes.  Every stream established *before* a
    leaderless window opened must still run to completion -- muxes keep
    their last pushed mappings, instances keep serving, TCPStore keeps
    answering, and only *reconfiguration* (remaps, drains, promotion)
    waits for the next leader.  Streams first established inside or
    after a window are ordinary new work, audited by the other
    invariants."""

    name = "control-plane-static-stability"
    needs = "a replica set"

    def judge(self, end: RunEnd) -> None:
        starts = [w[0] for w in self.bed.yoda.replica_set.leaderless_windows(
            self.bed.loop.now())]
        for client in end.stream_clients:
            r = client.result
            if r.established_at is None:
                continue
            overlapped = [s for s in starts if s > r.established_at]
            if not overlapped:
                continue  # never lived through a leaderless moment
            self.checks += 1
            if not r.complete:
                first = min(overlapped)
                self.flag(r.finished_at or first, r.path,
                          f"stream established at {r.established_at:.3f}s "
                          f"broke after the control plane went leaderless "
                          f"at {first:.3f}s: {r.bytes_received}/"
                          f"{r.bytes_expected} bytes, error={r.error}")


class ScaleEventsConverge(Invariant):
    """The autoscaler must converge, not flap.  Audited from the engines'
    event ledgers (every actuated scale event, journal-restored across
    leader takeovers): within any sliding window of ``SCALE_WINDOW``
    seconds,

    - the instance-scale direction (out vs in) changes at most
      ``MAX_DIRECTION_CHANGES`` times -- out/in/out/in is the classic
      hysteresis failure, burning drains and spare adoptions to hold the
      same capacity;
    - at most ``MAX_SCALE_EVENTS`` events fire at all -- even a monotone
      stampede means the step limits or cooldowns are not doing their
      job.

    Store-membership events are held to the same event-count bound
    (each one triggers a full anti-entropy pass) but not the direction
    bound: one store move per instance-tier excursion is the design.
    """

    name = "scale-events-converge"
    needs = "an autoscaler"

    def judge(self, end: RunEnd) -> None:
        events = sorted((e for a in self.bed.yoda.autoscalers
                         for e in a.events), key=lambda e: e.at)
        self.checks = len(events)
        instance_events = [e for e in events if e.kind in ("out", "in")]
        for i, e in enumerate(instance_events):
            recent = [f for f in instance_events[:i + 1]
                      if f.at > e.at - SCALE_WINDOW]
            flips = sum(1 for a, b in zip(recent, recent[1:])
                        if a.kind != b.kind)
            if flips > MAX_DIRECTION_CHANGES:
                self.flag(e.at, "autoscale",
                          f"{flips} direction changes inside "
                          f"{SCALE_WINDOW:.0f}s "
                          f"(> {MAX_DIRECTION_CHANGES}): "
                          + " -> ".join(f.kind for f in recent))
        for i, e in enumerate(events):
            recent = [f for f in events[:i + 1] if f.at > e.at - SCALE_WINDOW]
            if len(recent) > MAX_SCALE_EVENTS:
                self.flag(e.at, "autoscale",
                          f"{len(recent)} scale events inside "
                          f"{SCALE_WINDOW:.0f}s (> {MAX_SCALE_EVENTS})")


# every invariant, in report order -- which is also the order in which two
# invariants hooked on one table event run
SUITE = (StorageBeforeAck, AckedByteLoss, FlowConservation, SnatLeak,
         NoAcceptedRequestDropped, ReplicationFactor,
         EstablishedFlowsSurviveRegionFailover, NoSplitBrainPromotion,
         AtMostOneActingLeader, ControlPlaneStaticStability,
         ScaleEventsConverge)


def attach_suite(bed, invariants: Sequence[type] = SUITE,
                 streams: bool = False
                 ) -> Tuple[FlowAuditTable, List[Invariant]]:
    """Tap ``bed`` with one flow table and build, in the order given, each
    of ``invariants`` that applies to it (see :meth:`Invariant.applies`)."""
    table = bed.network.add_trace(FlowAuditTable(bed))
    return table, [cls(bed, table) for cls in invariants
                   if cls.applies(bed, streams)]
