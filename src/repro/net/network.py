"""The network fabric: routes packets between hosts.

Delivery is point-to-point by destination IP with a per-site-pair latency
model, optional loss, and tap points for tcpdump-style tracing.  Address
ownership can change at runtime (``claim_ip``), which is how a VIP is owned
by the L4 LB service rather than any single VM.

Fault primitives for the chaos engine live here too: per-path loss (up to
1.0 = blackhole/partition), packet duplication, and latency spikes.  A
"path" is directional and addressed by source/destination *host name or
site name*, so both "partition yoda-0 from the stores" and "lossy uplink
from the datacenter to the internet" are expressible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from struct import pack
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.host import Host
from repro.net.links import FixedLatency, LatencyModel
from repro.net.packet import _FLAG_STR, Packet
from repro.obs import OBS
from repro.sim.events import EventLoop
from repro.sim.metrics import MetricRegistry
from repro.sim.random import SeededRng
from repro.sim.tracing import (
    SCOPE_ALL,
    SCOPE_WIRE_PACKET,
    SCOPE_WIRE_TX,
    TraceRecord,
)

DEFAULT_INTRA_DC_LATENCY = 0.00025  # 250 us one-way within the datacenter
# pending captures hashed at once: a block is packed column by column in
# three calls, and the block bounds what is pending
DIGEST_BLOCK_CAPTURES = 256
# what a rare capture (Network._record) ORs into its flags column, above the
# TCP flag byte: a capture without one is a wire transmission
CAPTURE_WIRE_DROP = 0x100  # dropped on the wire: no route, or lost
CAPTURE_HOST_DROP = 0x200  # delivered to a failed host
CAPTURE_DUPLICATE = 0x300  # the second delivery of a duplicated packet
CAPTURE_REROUTE = 0x400  # delivered to another host than it was sent to


def pack_captures(captures) -> bytes:
    """A block of captures as the run digest hashes it, column by column:
    the send and delivery instants as float64, the host, source and
    destination columns as one NUL-joined UTF-8 string, then the flags, seq,
    ack and payload length as int64 -- every number little-endian."""
    n = len(captures)
    if not n:
        return b""
    sent, delivered, host, src, dst, flags, seq, ack, length = zip(*captures)
    return (pack(f"<{2 * n}d", *sent, *delivered)
            + "\0".join(host + src + dst).encode()
            + pack(f"<{4 * n}q", *flags, *seq, *ack, *length))


@dataclass(slots=True)
class PathFaults:
    """Fault knobs for one directional path (host or site granularity)."""

    loss: float = 0.0  # drop probability; 1.0 = blackhole (partition)
    duplicate: float = 0.0  # probability a packet is delivered twice
    extra_latency: float = 0.0  # added one-way delay (latency spike)

    def is_default(self) -> bool:
        return self.loss == 0.0 and self.duplicate == 0.0 and self.extra_latency == 0.0


class Network:
    """Connects hosts and delivers packets with latency and loss.

    Args:
        loop: the simulation event loop.
        rng: randomness source (forked internally for jitter and loss).
        default_latency: model used when no (src site, dst site) entry is set.
    """

    def __init__(
        self,
        loop: EventLoop,
        rng: SeededRng,
        default_latency: Optional[LatencyModel] = None,
    ):
        self.loop = loop
        self.rng = rng.fork("network")
        self.metrics = MetricRegistry("network")
        self._hosts: Dict[str, Host] = {}  # name -> host
        self._routes: Dict[str, Host] = {}  # ip -> host
        self._latency: Dict[Tuple[str, str], LatencyModel] = {}
        self._default_latency = default_latency or FixedLatency(DEFAULT_INTRA_DC_LATENCY)
        self._loss_rate = 0.0
        self._path_faults: Dict[Tuple[str, str], PathFaults] = {}
        # taps by scope (see add_trace): a "wire-packet" tap is handed the
        # packet of each wire transmission; every record tap is called for
        # a wire-tx record, only the "all" taps for an rx record
        self._packet_taps: List = []
        self._wire_tx_taps: List = []
        self._all_taps: List = []
        # the run digest (see start_digest): captures wait in _captures
        # until a block of them is hashed
        self._digest = None
        self._captures: Optional[List[tuple]] = None
        # the one thing transmit tests (any tap, or the digest) and the
        # one thing _deliver tests (an "all" tap)
        self._capturing = False
        self._capturing_rx = False
        self._last_delivery: Dict[Tuple[str, str], float] = {}
        # hot-path caches.  The latency-model cache maps a host-name pair
        # to the resolved model; it holds no delivery state (the FIFO
        # clamp above must survive cache invalidation), so clearing it on
        # set_latency is always safe.
        self._model_cache: Dict[Tuple[str, str], LatencyModel] = {}
        self._c_tx = self.metrics.counter("tx_packets")
        self._c_no_route = self.metrics.counter("no_route")
        self._c_lost = self.metrics.counter("lost_packets")
        self._c_path_lost = self.metrics.counter("path_lost_packets")
        self._c_duplicated = self.metrics.counter("duplicated_packets")

    # -- topology ------------------------------------------------------------
    def attach(self, host: Host) -> Host:
        """Attach a host; all of its IPs become routable."""
        if host.name in self._hosts:
            raise NetworkError(f"duplicate host name {host.name!r}")
        for ip in host.ips:
            if ip in self._routes:
                raise NetworkError(
                    f"IP {ip} already owned by {self._routes[ip].name!r}"
                )
        self._hosts[host.name] = host
        for ip in host.ips:
            self._routes[ip] = host
        host.network = self
        self._model_cache.clear()
        return host

    def detach(self, host: Host) -> None:
        """Remove a host and its routes (e.g. a VM being deallocated)."""
        self._hosts.pop(host.name, None)
        for ip in list(host.ips):
            if self._routes.get(ip) is host:
                del self._routes[ip]
        host.network = None
        self._model_cache.clear()

    def claim_ip(self, host: Host, ip: str) -> None:
        """Point ``ip`` at ``host``, overriding any previous owner.

        This is the simulation's equivalent of the cloud fabric routing a
        VIP to the L4 LB service.
        """
        if host.name not in self._hosts:
            raise NetworkError(f"host {host.name!r} is not attached")
        previous = self._routes.get(ip)
        if previous is not None and previous is not host and ip in previous.ips:
            previous.ips.remove(ip)
        self._routes[ip] = host
        if ip not in host.ips:
            host.ips.append(ip)

    def host_for_ip(self, ip: str) -> Optional[Host]:
        return self._routes.get(ip)

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise NetworkError(f"unknown host {name!r}") from None

    def hosts(self) -> Iterable[Host]:
        return self._hosts.values()

    # -- path properties ------------------------------------------------------
    def set_latency(self, src_site: str, dst_site: str, model: LatencyModel) -> None:
        """Set the one-way latency model for packets src_site -> dst_site."""
        self._latency[(src_site, dst_site)] = model
        self._model_cache.clear()

    def set_symmetric_latency(self, site_a: str, site_b: str, model: LatencyModel) -> None:
        self.set_latency(site_a, site_b, model)
        self.set_latency(site_b, site_a, model)

    def set_loss_rate(
        self, rate: float, src: Optional[str] = None, dst: Optional[str] = None
    ) -> None:
        """Independent per-packet drop probability in [0, 1].

        With no ``src``/``dst`` this sets the global rate (the original
        form, which must stay below 1.0 -- a total global blackhole is
        never what a caller wants).  With both given it sets a directional
        per-path rate, where each endpoint is a host name or a site name
        and ``rate=1.0`` means a blackhole (one direction of a partition).
        """
        if (src is None) != (dst is None):
            raise NetworkError("set_loss_rate needs both src and dst, or neither")
        if src is None:
            if not 0.0 <= rate < 1.0:
                raise NetworkError(f"global loss rate must be in [0, 1), got {rate}")
            self._loss_rate = rate
            return
        if not 0.0 <= rate <= 1.0:
            raise NetworkError(f"path loss rate must be in [0, 1], got {rate}")
        self._path_fault(src, dst).loss = rate
        self._prune_path_faults()

    def set_duplicate_rate(self, rate: float, src: str, dst: str) -> None:
        """Probability a packet on the path is delivered twice."""
        if not 0.0 <= rate <= 1.0:
            raise NetworkError(f"duplicate rate must be in [0, 1], got {rate}")
        self._path_fault(src, dst).duplicate = rate
        self._prune_path_faults()

    def set_extra_latency(self, seconds: float, src: str, dst: str) -> None:
        """Add a fixed one-way delay on the path (latency spike)."""
        if seconds < 0.0:
            raise NetworkError(f"extra latency must be >= 0, got {seconds}")
        self._path_fault(src, dst).extra_latency = seconds
        self._prune_path_faults()

    def partition(self, a: str, b: str, symmetric: bool = True) -> None:
        """Blackhole traffic a -> b (and b -> a unless ``symmetric=False``).

        Endpoints are host names or site names; asymmetric partitions
        model one-way reachability failures.
        """
        self.set_loss_rate(1.0, src=a, dst=b)
        if symmetric:
            self.set_loss_rate(1.0, src=b, dst=a)

    def heal(self, a: Optional[str] = None, b: Optional[str] = None) -> None:
        """Clear path faults: both directions between ``a`` and ``b``,
        or every path fault when called with no arguments."""
        if (a is None) != (b is None):
            raise NetworkError("heal needs both endpoints, or neither")
        if a is None:
            self._path_faults.clear()
            return
        self._path_faults.pop((a, b), None)
        self._path_faults.pop((b, a), None)

    def _path_fault(self, src: str, dst: str) -> PathFaults:
        key = (src, dst)
        fault = self._path_faults.get(key)
        if fault is None:
            fault = self._path_faults[key] = PathFaults()
        return fault

    def _prune_path_faults(self) -> None:
        # Keep the table empty when no fault is active so the data plane
        # draws no randomness at all on healthy networks (determinism of
        # existing seeded runs is preserved bit-for-bit).
        for key in [k for k, f in self._path_faults.items() if f.is_default()]:
            del self._path_faults[key]

    def _resolve_faults(self, src_host: Host, dst_host: Host) -> Optional[PathFaults]:
        """Most-specific match wins: host>host, host>site, site>host, site>site."""
        table = self._path_faults
        for key in (
            (src_host.name, dst_host.name),
            (src_host.name, dst_host.site),
            (src_host.site, dst_host.name),
            (src_host.site, dst_host.site),
        ):
            fault = table.get(key)
            if fault is not None:
                return fault
        return None

    def add_trace(self, trace):
        """Attach a tap: any object with a ``record(rec)`` method.

        A tap whose class sets ``scope = "wire-tx"`` is called only for
        wire transmissions (and drops), the stream in which every send
        appears exactly once; any other tap (``scope = "all"``, the
        default) is also called for every delivery.

        A tap that judges packets and keeps no record sets ``scope =
        "wire-packet"``: it sees the wire-tx stream as ``record(now,
        packet, dropped)``, the packet itself, and no ``TraceRecord`` is
        built for it.
        """
        scope = getattr(trace, "scope", SCOPE_ALL)
        if scope == SCOPE_WIRE_PACKET:
            self._packet_taps.append(trace)
        elif scope in (SCOPE_ALL, SCOPE_WIRE_TX):
            self._wire_tx_taps.append(trace)
            if scope == SCOPE_ALL:
                self._all_taps.append(trace)
                self._capturing_rx = True
        else:
            raise NetworkError(f"unknown tap scope {scope!r}")
        self._capturing = True
        return trace

    def start_digest(self) -> None:
        """Fold every capture from now on into a SHA-256: one per wire
        transmission -- ``(sent, delivered, destination host, src, dst,
        flags, seq, ack, payload length)``, taken at :meth:`transmit` -- and
        one tagged ``CAPTURE_*`` capture of the same shape per rare event
        (see :meth:`_record`), hashed as :func:`pack_captures` blocks."""
        if self._digest is None:
            self._digest = hashlib.sha256()
            self._captures = []
            self._capturing = True

    def digest(self) -> str:
        """The SHA-256 over every capture since :meth:`start_digest`: the
        determinism witness (same seed -> byte-identical packet schedule).
        Reading it hashes a copy, so the blocks -- and the final digest --
        do not depend on whether anyone read it mid-run."""
        if self._digest is None:
            raise NetworkError("no digest was started on this network")
        sha = self._digest.copy()
        sha.update(pack_captures(self._captures))
        return sha.hexdigest()

    def _flush_digest(self) -> None:
        self._digest.update(pack_captures(self._captures))
        self._captures.clear()

    # -- data plane -----------------------------------------------------------
    def transmit(self, src_host: Host, packet: Packet) -> None:
        """Route ``packet`` toward its destination IP.

        The common packet meets no capture, no drop and no path fault: one
        test of ``_capturing`` here and one of ``_capturing_rx`` at delivery
        are all it pays for taps and the digest, and it reaches ``_record``
        / ``_resolve_faults`` only when one exists."""
        self._c_tx.value += 1
        dst_host = self._routes.get(packet.dst.ip)
        if dst_host is None:
            self._c_no_route.inc()
            self._record(packet, CAPTURE_WIRE_DROP, "wire")
            return
        if self._loss_rate and self.rng.random() < self._loss_rate:
            self._c_lost.inc()
            self._record(packet, CAPTURE_WIRE_DROP, "wire")
            return
        faults = (self._resolve_faults(src_host, dst_host)
                  if self._path_faults else None)
        if faults is not None and faults.loss:
            if faults.loss >= 1.0 or self.rng.random() < faults.loss:
                self._c_lost.inc()
                self._c_path_lost.inc()
                self._record(packet, CAPTURE_WIRE_DROP, "wire")
                return
        path = (src_host.name, dst_host.name)
        model = self._model_cache.get(path)
        if model is None:
            model = self._latency.get(
                (src_host.site, dst_host.site), self._default_latency)
            self._model_cache[path] = model
        delay = model.delay(packet, self.rng)
        if faults is not None and faults.extra_latency:
            delay += faults.extra_latency
        now = self.loop.now()
        # FIFO per path: jittered latency must not reorder packets between
        # the same pair of hosts (a single route does not reorder), or TCP
        # would see phantom loss and collapse its window.
        deliver_at = now + delay
        last = self._last_delivery.get(path, 0.0)
        if deliver_at < last:
            deliver_at = last
        self._last_delivery[path] = deliver_at
        if self._capturing:
            # what _record does for a transmission that is not dropped,
            # here where the packet is: the digest takes the one capture of
            # it, delivery included (a Packet's header is never reassigned,
            # so its delivery to dst_host adds nothing), a wire-packet tap
            # reads the packet, and a TraceRecord exists only if a record
            # tap will keep it
            captures = self._captures
            if captures is not None:
                captures.append((
                    now, deliver_at, dst_host.name, packet.src.text,
                    packet.dst.text, packet.flags, packet.seq, packet.ack,
                    len(packet.payload)))
                if len(captures) >= DIGEST_BLOCK_CAPTURES:
                    self._flush_digest()
            for tap in self._packet_taps:
                tap.record(now, packet, False)
            if self._wire_tx_taps:
                rec = TraceRecord(
                    now, "wire", "tx", packet.src.text, packet.dst.text,
                    _FLAG_STR[packet.flags & 0x1F], packet.seq, packet.ack,
                    len(packet.payload), False,
                )
                for tap in self._wire_tx_taps:
                    tap.record(rec)
        self.loop.call_at(deliver_at, self._deliver, dst_host, packet)
        if faults is not None and faults.duplicate and self.rng.random() < faults.duplicate:
            self._c_duplicated.inc()
            self._record(packet, CAPTURE_DUPLICATE, dst_host.name, deliver_at)
            self.loop.call_at(deliver_at, self._deliver, dst_host, packet)

    def _deliver(self, dst_host: Host, packet: Packet) -> None:
        # Re-check routing at delivery time: ownership may have moved while
        # the packet was in flight.
        target = self._routes.get(packet.dst.ip)
        if target is not dst_host:
            if target is None:
                target = dst_host
            else:
                self._record(packet, CAPTURE_REROUTE, target.name)
        if target.failed:
            self._record(packet, CAPTURE_HOST_DROP, target.name)
        elif self._capturing_rx:
            # the rx twin of the record-tap site in transmit; the digest
            # took this delivery at transmission
            rec = TraceRecord(
                self.loop.now(), target.name, "rx", packet.src.text,
                packet.dst.text, _FLAG_STR[packet.flags & 0x1F], packet.seq,
                packet.ack, len(packet.payload), False,
            )
            for tap in self._all_taps:
                tap.record(rec)
        target.deliver(packet)

    def _record(self, packet: Packet, tag: int, host: str,
                deliver_at: Optional[float] = None) -> None:
        """Capture at the rare sites, in full generality: a drop on the
        wire (``host`` is "wire"), a drop at a failed host, a duplicate's
        second delivery and a delivery re-routed in flight.  The digest
        takes a capture of the inline shape with ``tag`` in its flags
        column, in the order the events happen; a record tap sees a drop
        or a duplicate as the wire-tx or rx record it always was, and no
        re-route (it sees that delivery's own rx record)."""
        dropped = tag == CAPTURE_WIRE_DROP or tag == CAPTURE_HOST_DROP
        if dropped and OBS.enabled:
            # drops are the events failure forensics care about; note them
            # into the capture point's flight recorder independently of
            # whether any packet trace is attached
            OBS.flight(host, "drop",
                       f"{packet.src} > {packet.dst}: "
                       f"{_FLAG_STR[packet.flags & 0x1F]} seq={packet.seq} "
                       f"len={packet.payload_len}")
        if not self._capturing:
            return
        now = self.loop.now()
        captures = self._captures
        if captures is not None:
            captures.append((
                now, now if deliver_at is None else deliver_at, host,
                packet.src.text, packet.dst.text, packet.flags | tag,
                packet.seq, packet.ack, len(packet.payload)))
            if len(captures) >= DIGEST_BLOCK_CAPTURES:
                self._flush_digest()
        if tag == CAPTURE_REROUTE:
            return
        if tag == CAPTURE_HOST_DROP:
            point, direction, taps = host, "rx", self._all_taps
        else:
            point, direction, taps = "wire", "tx", self._wire_tx_taps
            for tap in self._packet_taps:
                tap.record(now, packet, dropped)
        rec = TraceRecord(
            now, point, direction, packet.src.text, packet.dst.text,
            _FLAG_STR[packet.flags & 0x1F], packet.seq, packet.ack,
            len(packet.payload), dropped,
        )
        for tap in taps:
            tap.record(rec)
