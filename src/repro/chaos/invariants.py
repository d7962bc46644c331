"""Online invariant monitors for chaos runs.

:class:`InvariantMonitor` audits the paper's Section 4.2 guarantees *while
the run executes*, off a tap (``network.add_trace(monitor.table)``) that
reads every packet as it hits the wire:

- **storage-before-ack**: a YODA instance never emits the client-facing
  SYN-ACK before the client record is durable in TCPStore (storage-a),
  and never ACKs the backend's SYN-ACK before the server record and the
  server-side index are durable (storage-b).  Checked omnisciently at
  the instant the packet hits the wire, by peeking every live store.
- **acked-byte-loss**: once the LB has ACKed request bytes, the flow must
  never be reset toward the client -- acknowledged data may not vanish.
- **flow-conservation**: every flow admitted during the load phase ends
  in an orderly FIN exchange with response bytes delivered (after the
  drain period); nothing silently evaporates.
- **snat-leak**: after the run quiesces, no live instance holds SNAT
  ports that no flow owns.

The per-flow facts those audits need live in one :class:`FlowAuditTable`,
updated once per wire transmission from the packet itself;
:class:`NoAcceptedRequestDropped` reads the same table.  (The run digest
that witnesses determinism is the network's: ``Network.start_digest``.)

:class:`ReplicationFactorMonitor` is a second, sampling monitor (a
periodic process, not a trace tap) for the self-healing store: after any
store-membership change, every live flow's durable records must be back
on K live replicas within a bounded window -- the property the
anti-entropy sweeper exists to restore, and the one plain client-side
replication silently loses after the first server failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

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


def _verdict(invariant: str, checked: int, violations: List[Violation],
             count: Optional[int] = None) -> Verdict:
    """Fold an invariant's violations into its verdict: every one counts
    (``count``, when the caller kept only some), the first few are shown."""
    count = len(violations) if count is None else count
    return Verdict(invariant, count == 0, checked,
                   violations[:MAX_VIOLATIONS_KEPT], count)


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


class InvariantMonitor:
    """Attach its flow table, ``bed.network.add_trace(monitor.table)``;
    call :meth:`finalize` after the run drains to collect verdicts."""

    def __init__(self, bed, check_storage: Optional[bool] = None):
        self.bed = bed
        if check_storage is None:
            # storage invariants only exist for YODA deployments, and the
            # stateless dispatch mode waives them by contract: it ACKs
            # without durable writes -- that is the whole bargain, and its
            # losses surface through flow-conservation instead
            check_storage = (bed.yoda is not None
                             and not bed.yoda.config.stateless_enabled)
        self.check_storage = check_storage
        self.table = FlowAuditTable(bed)
        self.table.on_rst.append(self._on_rst)
        if check_storage:
            self.table.on_synack.append(self._on_synack)
            self.table.on_backend_ack.append(self._on_backend_ack)
        self.violations: Dict[str, List[Violation]] = {}
        self.violation_counts: Dict[str, int] = {}
        self.checks: Dict[str, int] = {
            "storage-before-ack": 0,
            "acked-byte-loss": 0,  # = table.acks_audited, read at finalize
            "flow-conservation": 0,
            "snat-leak": 0,
        }

    # ----------------------------------------------------- client-side audit --
    def _on_synack(self, now: float, key: FlowKey, audit: _FlowAudit) -> None:
        # SYN-ACK on the wire: storage-a must already be durable.
        if not audit.fin_from_lb:
            self.checks["storage-before-ack"] += 1
            store_key = client_key(*key)
            if not self._stored_somewhere(store_key):
                self._violate(
                    "storage-before-ack", now, _flow_id(key),
                    f"SYN-ACK sent but {store_key!r} is on no live store",
                )

    def _on_rst(self, now: float, key: FlowKey, audit: _FlowAudit) -> None:
        if audit.acked_req_bytes > 0:
            self._violate(
                "acked-byte-loss", now, _flow_id(key),
                f"RST to client after ACKing {audit.acked_req_bytes} "
                f"request bytes",
            )

    # ----------------------------------------------------- server-side audit --
    def _on_backend_ack(self, now: float, pair: FlowKey,
                        packet: Packet) -> None:
        # The ACK completing the backend handshake: storage-b (the updated
        # client record + server-side index) must be durable.
        self.checks["storage-before-ack"] += 1
        key = server_key(packet.src.ip, packet.src.port, packet.dst)
        if not self._stored_somewhere(key):
            self._violate(
                "storage-before-ack", now, _flow_id(pair),
                f"backend handshake ACK sent but {key!r} is on no "
                f"live store",
            )

    # ------------------------------------------------------------- helpers --
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

    def _violate(self, invariant: str, time: float, flow: str, detail: str) -> None:
        self.violation_counts[invariant] = self.violation_counts.get(invariant, 0) + 1
        bucket = self.violations.setdefault(invariant, [])
        if len(bucket) < MAX_VIOLATIONS_KEPT:
            bucket.append(Violation(invariant, time, flow, detail,
                                    forensics=_forensics_tail()))

    # ------------------------------------------------------------- finalize --
    def finalize(self, strict_before: Optional[float] = None,
                 exclude_instances: Iterable[str] = ()) -> List[Verdict]:
        """Run end-of-run audits and return one verdict per invariant.

        Args:
            strict_before: flows opened before this loop-time must have
                completed cleanly (FINs both ways + response bytes); later
                flows may legitimately still be in flight.  None skips the
                conservation sweep.
            exclude_instances: host names exempt from the SNAT audit --
                instances the scenario crashed keep their port bookkeeping
                frozen on purpose, so a recovered VM never reissues a port
                a migrated flow still occupies.
        """
        now = self.bed.loop.now()
        self.checks["acked-byte-loss"] = self.table.acks_audited
        if strict_before is not None:
            for key, audit in self.table.flows.items():
                if audit.client_isn is None or audit.opened_at >= strict_before:
                    continue
                self.checks["flow-conservation"] += 1
                if audit.rst_from_lb:
                    continue  # already reported under acked-byte-loss
                if not audit.clean:
                    self._violate(
                        "flow-conservation", now, _flow_id(key),
                        f"flow opened at {audit.opened_at:.3f}s never "
                        f"finished (synack={audit.synack_seen} "
                        f"resp_bytes={audit.resp_bytes} "
                        f"fin_lb={audit.fin_from_lb} "
                        f"fin_client={audit.fin_from_client})",
                    )
        if self.check_storage:
            excluded = set(exclude_instances)
            for instance in (list(self.bed.yoda.instances)
                             + list(self.bed.yoda.standby_instances)):
                if instance.host.failed or instance.name in excluded:
                    continue
                self.checks["snat-leak"] += 1
                leaked = instance.snat_ports_leaked()
                for vip, ports in leaked.items():
                    self._violate(
                        "snat-leak", now, instance.name,
                        f"{len(ports)} SNAT ports leaked for {vip}: "
                        f"{sorted(ports)[:8]}",
                    )
        return [_verdict(invariant, checked,
                         self.violations.get(invariant, []),
                         self.violation_counts.get(invariant, 0))
                for invariant, checked in self.checks.items()]


class NoAcceptedRequestDropped:
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

    Not a tap: it judges the flows of a :class:`FlowAuditTable` that is
    one (an :class:`InvariantMonitor`'s, or a table attached on its own).
    """

    invariant = "no-accepted-request-dropped"

    def __init__(self, bed, table: FlowAuditTable):
        self.bed = bed
        self.table = table
        table.on_rst.append(self._on_rst)
        self.checks = 0
        self.violations: List[Violation] = []
        self.violation_count = 0

    def _violate(self, time: float, key: FlowKey, detail: str) -> None:
        self.violation_count += 1
        if len(self.violations) < MAX_VIOLATIONS_KEPT:
            self.violations.append(Violation(self.invariant, time,
                                             _flow_id(key), detail,
                                             forensics=_forensics_tail()))

    def _on_rst(self, now: float, key: FlowKey, audit: _FlowAudit) -> None:
        if (not audit.rst_from_lb and audit.synack_seen
                and audit.acked_req_bytes > 0):
            self.checks += 1
            self._violate(
                now, key,
                f"accepted request reset "
                f"({audit.acked_req_bytes} request bytes acked)",
            )

    def finalize(self, strict_before: Optional[float] = None) -> Verdict:
        now = self.bed.loop.now()
        if strict_before is not None:
            for key, audit in self.table.flows.items():
                accepted = (audit.client_isn is not None and audit.synack_seen
                            and audit.acked_req_bytes > 0)
                if not accepted or audit.opened_at >= strict_before:
                    continue  # never accepted: refusing it was legal
                self.checks += 1
                if audit.rst_from_lb:
                    continue  # already reported at the RST
                if not audit.clean:
                    self._violate(
                        now, key,
                        f"accepted flow (opened {audit.opened_at:.3f}s, "
                        f"{audit.acked_req_bytes} bytes acked) never "
                        f"finished (resp_bytes={audit.resp_bytes} "
                        f"fin_lb={audit.fin_from_lb} "
                        f"fin_client={audit.fin_from_client})",
                    )
        return _verdict(self.invariant, self.checks, self.violations,
                        self.violation_count)


REPLICATION_WINDOW = 2.0  # seconds to restore K replicas after a change
REPLICATION_SAMPLE_INTERVAL = 0.25


class ReplicationFactorMonitor:
    """Audits store durability: K live replicas per record, restored
    within a bounded window after any membership change.

    Every ``interval`` seconds it walks the durable records of every live
    flow on every live YODA instance and counts, omnisciently, the live
    store servers holding the record at (or above) its current version --
    stale copies on a diverged replica do not count, because recovering
    from them would resurrect a dead flow snapshot.  A record may be
    under-replicated transiently (that is what failures do); it becomes a
    violation only when the deficit survives longer than ``window``
    seconds.  The window is the whole grace period: it must cover failure
    detection plus re-replication, and it does NOT restart on membership
    changes -- otherwise a rolling restart (epoch bumps every couple of
    seconds) could erode a record to zero copies without the monitor ever
    saying so.
    """

    invariant = "replication-factor"

    def __init__(self, bed, window: float = REPLICATION_WINDOW,
                 interval: float = REPLICATION_SAMPLE_INTERVAL):
        if bed.yoda is None:
            raise ValueError("replication-factor monitoring needs a YODA bed")
        self.bed = bed
        self.window = window
        self.checks = 0
        self.violations: List[Violation] = []
        self.violation_count = 0
        self._deficit_since: Dict[str, float] = {}
        self._violated: Set[str] = set()
        self._task = PeriodicTask(bed.loop, interval, self._tick)

    def start(self) -> None:
        self._task.start()

    def stop(self) -> None:
        self._task.stop()

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
                if now - first > self.window and key not in self._violated:
                    self._violated.add(key)
                    self.violation_count += 1
                    if len(self.violations) < MAX_VIOLATIONS_KEPT:
                        self.violations.append(Violation(
                            self.invariant, now, key,
                            f"{holders}/{need} live replicas for "
                            f"{now - first:.2f}s (window {self.window}s, "
                            f"epoch {yoda.kv_cluster.epoch})",
                            forensics=_forensics_tail(),
                        ))
        # flows that vanished while in deficit stop being tracked
        for key in [k for k in self._deficit_since if k not in sampled]:
            self._deficit_since.pop(key, None)
            self._violated.discard(key)

    def finalize(self) -> Verdict:
        self.stop()
        return _verdict(self.invariant, self.checks, self.violations,
                        self.violation_count)


class EstablishedFlowsSurviveRegionFailover:
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

    invariant = "established-flows-survive-region-failover"

    def finalize(self, clients, kill_time: Optional[float]) -> Verdict:
        checks = 0
        violations: List[Violation] = []
        if kill_time is not None:
            for client in clients:
                r = client.result
                if r.established_at is None or r.established_at >= kill_time:
                    continue
                checks += 1
                if not r.complete:
                    violations.append(Violation(
                        self.invariant, r.finished_at or kill_time, r.path,
                        f"stream established at {r.established_at:.3f}s "
                        f"(kill at {kill_time:.3f}s) broke: "
                        f"{r.bytes_received}/{r.bytes_expected} bytes, "
                        f"error={r.error}",
                        forensics=_forensics_tail(),
                    ))
        return _verdict(self.invariant, checks, violations)


class AtMostOneActingLeader:
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

    invariant = "at-most-one-acting-leader"

    def finalize(self, replica_set) -> Verdict:
        checks = 0
        violations: List[Violation] = []
        holder_by_epoch: Dict[int, str] = {}

        def _claim(epoch: int, holder: str, time: float, where: str) -> None:
            seen = holder_by_epoch.setdefault(epoch, holder)
            if seen != holder:
                violations.append(Violation(
                    self.invariant, time, where,
                    f"epoch {epoch} acted through two holders: "
                    f"{seen!r} and {holder!r}",
                    forensics=_forensics_tail(),
                ))

        for gate in replica_set.gates():
            high = -1
            for time, epoch, holder, kind, accepted in gate.log:
                if not accepted:
                    continue
                checks += 1
                if epoch < high:
                    violations.append(Violation(
                        self.invariant, time, gate.name,
                        f"accepted {kind} at epoch {epoch} after already "
                        f"accepting epoch {high} -- fencing regressed",
                        forensics=_forensics_tail(),
                    ))
                high = max(high, epoch)
                _claim(epoch, holder, time, gate.name)
        for time, event, name, epoch in replica_set.events:
            if event == "active":
                checks += 1
                _claim(epoch, name, time, "election-log")
        return _verdict(self.invariant, checks, violations)


class ControlPlaneStaticStability:
    """Controller HA's liveness half: the data plane must not need a
    leader to keep moving bytes.  Every stream established *before* a
    leaderless window opened must still run to completion -- muxes keep
    their last pushed mappings, instances keep serving, TCPStore keeps
    answering, and only *reconfiguration* (remaps, drains, promotion)
    waits for the next leader.  Streams first established inside or
    after a window are ordinary new work, audited by the other
    invariants."""

    invariant = "control-plane-static-stability"

    def finalize(self, clients,
                 windows: List) -> Verdict:
        checks = 0
        violations: List[Violation] = []
        starts = [w[0] for w in windows]
        for client in clients:
            r = client.result
            if r.established_at is None:
                continue
            overlapped = [s for s in starts if s > r.established_at]
            if not overlapped:
                continue  # never lived through a leaderless moment
            checks += 1
            if not r.complete:
                first = min(overlapped)
                violations.append(Violation(
                    self.invariant, r.finished_at or first, r.path,
                    f"stream established at {r.established_at:.3f}s broke "
                    f"after the control plane went leaderless at "
                    f"{first:.3f}s: {r.bytes_received}/{r.bytes_expected} "
                    f"bytes, error={r.error}",
                    forensics=_forensics_tail(),
                ))
        return _verdict(self.invariant, checks, violations)


class NoSplitBrainPromotion:
    """A WAN partition must never masquerade as a region death: the
    controller may promote the standby region only when the primary is
    actually gone (a region-kill fault fired).  Promotion during a mere
    partition would put two live regions behind one VIP -- split brain."""

    invariant = "no-split-brain-promotion"

    def finalize(self, controller, region_killed: bool) -> Verdict:
        violations: List[Violation] = []
        failed_over = bool(getattr(controller, "failed_over", False))
        if failed_over and not region_killed:
            violations.append(Violation(
                self.invariant, getattr(controller, "failover_at", 0.0) or 0.0,
                "controller",
                "standby region promoted but no region-kill fault fired "
                "(WAN partition or gray failure misread as region death)",
                forensics=_forensics_tail(),
            ))
        return _verdict(self.invariant, 1, violations)


class ScaleEventsConverge:
    """The autoscaler must converge, not flap.  Audited from the engines'
    event ledgers (every actuated scale event, journal-restored across
    leader takeovers): within any sliding window of ``window`` seconds,

    - the instance-scale direction (out vs in) changes at most
      ``max_direction_changes`` times -- out/in/out/in is the classic
      hysteresis failure, burning drains and spare adoptions to hold the
      same capacity;
    - at most ``max_events_per_window`` events fire at all -- even a
      monotone stampede means the step limits or cooldowns are not
      doing their job.

    Store-membership events are held to the same event-count bound
    (each one triggers a full anti-entropy pass) but not the direction
    bound: one store move per instance-tier excursion is the design.
    """

    invariant = "scale-events-converge"

    def __init__(self, window: float = 10.0, max_direction_changes: int = 2,
                 max_events_per_window: int = 6):
        self.window = window
        self.max_direction_changes = max_direction_changes
        self.max_events_per_window = max_events_per_window

    def finalize(self, autoscalers) -> Verdict:
        events = sorted(
            (e for a in autoscalers for e in a.events), key=lambda e: e.at)
        violations: List[Violation] = []
        total = 0

        def _flag(at: float, detail: str) -> None:
            if len(violations) < MAX_VIOLATIONS_KEPT:
                violations.append(Violation(
                    self.invariant, at, "autoscale", detail,
                    forensics=_forensics_tail(),
                ))

        instance_events = [e for e in events if e.kind in ("out", "in")]
        for i, e in enumerate(instance_events):
            total += 1
            recent = [f for f in instance_events[:i + 1]
                      if f.at > e.at - self.window]
            flips = sum(1 for a, b in zip(recent, recent[1:])
                        if a.kind != b.kind)
            if flips > self.max_direction_changes:
                _flag(e.at,
                      f"{flips} direction changes inside {self.window:.0f}s "
                      f"(> {self.max_direction_changes}): "
                      + " -> ".join(f.kind for f in recent))
        for i, e in enumerate(events):
            recent = [f for f in events[:i + 1] if f.at > e.at - self.window]
            if len(recent) > self.max_events_per_window:
                _flag(e.at,
                      f"{len(recent)} scale events inside {self.window:.0f}s "
                      f"(> {self.max_events_per_window})")
        return _verdict(self.invariant, max(total, len(events)), violations)
