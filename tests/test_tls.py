"""SSL termination (paper Section 5.2): handshake, decryption-based
selection, and failure during certificate transfer."""

import pytest

from repro.core.flowstate import FlowState, client_key
from repro.errors import HttpError
from repro.experiments.harness import Testbed, TestbedConfig
from repro.http import tls
from repro.http.client import HttpsFetcher
from repro.http.message import HttpRequest
from tests.trace_tools import trace_filter

CERT = tls.Certificate("secure.example", size=3_000)


def make_bed(**overrides):
    defaults = dict(
        seed=55, lb="yoda", num_lb_instances=3, num_store_servers=2,
        num_backends=2, corpus="flat", flat_object_count=2,
        flat_object_bytes=40_000, client_jitter=0.0, tls_certificate=CERT,
    )
    defaults.update(overrides)
    return Testbed(TestbedConfig(**defaults))


def https_fetch(bed, path="/obj/0.bin", deadline=60.0, on_start=None,
                session_cache=None):
    results = []
    fetcher = HttpsFetcher(
        bed.client_stacks[0], bed.loop, bed.target(),
        HttpRequest("GET", path, host="secure.example"),
        results.append, sni="secure.example", session_cache=session_cache,
    )
    fetcher.start()
    if on_start:
        on_start(fetcher)
    bed.run(deadline)
    assert results, "https fetch never concluded"
    return results[0]


class TestTlsCodec:
    def test_record_roundtrip(self):
        codec = tls.TlsCodec()
        wire = tls.client_hello("h") + tls.app_data(b"payload")
        records = codec.feed(wire)
        assert [r[0] for r in records] == [tls.CLIENT_HELLO, tls.APP_DATA]
        assert records[1][1] == b"payload"

    def test_byte_by_byte(self):
        codec = tls.TlsCodec()
        wire = tls.certificate_flight(CERT)
        records = []
        for i in range(len(wire)):
            records.extend(codec.feed(wire[i:i + 1]))
        assert len(records) == 1
        assert records[0][1] == CERT.pem

    def test_bad_record_type_raises(self):
        with pytest.raises(HttpError):
            tls.TlsCodec().feed(b"\xff\x00\x00\x00\x01\x00z")

    def test_certificate_deterministic(self):
        assert tls.certificate_flight(CERT) == tls.certificate_flight(
            tls.Certificate("secure.example", size=3_000)
        )
        other = tls.Certificate("other.example", size=3_000)
        assert tls.certificate_flight(CERT) != tls.certificate_flight(other)

    def test_certificate_size(self):
        assert abs(len(CERT.pem) - 3_000) < 50


class TestHttpsThroughYoda:
    def test_basic_https_fetch(self):
        bed = make_bed()
        result = https_fetch(bed)
        assert result.ok
        assert len(result.response.body) == 40_000

    def test_rule_matching_on_decrypted_header(self):
        """The instance must see the plaintext header to select a backend
        (the whole point of SSL termination)."""
        from repro.core.policy import weighted_split

        bed = make_bed()
        controller = bed.yoda.controller
        new = controller.policies[bed.vip].updated(rules=[
            weighted_split("zero", "*obj/0.bin", {"srv-0": 1.0}, priority=2),
            weighted_split("rest", "*", {"srv-1": 1.0}, priority=1),
        ])
        controller.update_policy(new)
        bed.run(0.5)
        r0 = https_fetch(bed, "/obj/0.bin")
        r1 = https_fetch(bed, "/obj/1.bin")
        assert r0.response.headers.get("X-Backend") == "srv-0"
        assert r1.response.headers.get("X-Backend") == "srv-1"

    def test_client_receives_certificate_exactly_once(self):
        bed = make_bed(trace_packets=True)
        result = https_fetch(bed)
        assert result.ok
        # backend's duplicate handshake flight was suppressed: the client
        # got cert-length + response bytes, not 2x cert
        rx_bytes = sum(
            r.payload_len for r in trace_filter(bed.trace, point="client-0",
                                                direction="rx")
        )
        flight = len(tls.certificate_flight(CERT))
        response_records = len(tls.app_data(b"")) + 40_000 + 200  # + headers
        assert rx_bytes < flight * 2 + response_records


class TestTlsFailover:
    def _fail_mid_cert(self, bed):
        state = {}

        def poll():
            for inst in bed.yoda.instances:
                for flow in inst.flows.values():
                    if (flow.tls and flow.tls.hello_done and flow.tls.resp_out
                            and flow.tls.resp_acked < len(flow.tls.resp_out)):
                        state["t"] = bed.loop.now()
                        inst.fail()
                        return
            if bed.loop.now() < 1.4:
                bed.loop.call_later(0.001, poll)

        bed.loop.call_at(1.05, poll)
        return state

    def test_failure_during_certificate_transfer(self):
        """Paper: 'another YODA instance resends the entire certificate
        (TCP buffer at the client will remove duplicate packets)'."""
        bed = make_bed()
        state = self._fail_mid_cert(bed)
        result = https_fetch(bed)
        assert state, "never caught the mid-certificate window"
        assert result.ok
        assert result.retries_used == 0
        recoveries = sum(
            i.metrics.counters["flows_recovered"].value
            for i in bed.yoda.instances
            if "flows_recovered" in i.metrics.counters
        )
        assert recoveries >= 1

    def test_failure_mid_tunnel_on_tls_flow(self):
        bed = make_bed(flat_object_bytes=1_200_000)
        state = {}

        def poll():
            for inst in bed.yoda.instances:
                if any(f.phase.flow_phase.value == "tunnel" for f in inst.flows.values()):
                    state["t"] = bed.loop.now()
                    inst.fail()
                    return
            if bed.loop.now() < 2.0:
                bed.loop.call_later(0.002, poll)

        bed.loop.call_at(1.12, poll)
        result = https_fetch(bed, deadline=120.0)
        assert state, "never caught the tunnel window"
        assert result.ok
        assert len(result.response.body) == 1_200_000

    def test_client_prefix_persisted_before_certificate(self):
        """store-before-ACK extends to TLS: the hello bytes are persisted
        before the first certificate byte (which ACKs them) leaves."""
        bed = make_bed(trace_packets=True)
        result = https_fetch(bed)
        assert result.ok
        cert_first = next(
            r for r in bed.trace.records
            if r.src.startswith("100.0.0.1:80") and r.payload_len > 0
        )
        store_writes = [
            r for r in bed.trace.records
            if r.dst.endswith(":11211") and r.time <= cert_first.time
        ]
        # SYN storage-a plus the hello-prefix update
        assert len(store_writes) >= 2


class _FlightAudit:
    """Wire tap: the first byte the VIP sends a client after the SYN-ACK
    acknowledges the hello, so the flow's stored record must hold the hello
    by then (store-before-ACK)."""

    scope = "wire-packet"

    def __init__(self, bed):
        self.bed = bed
        self.vip = bed.target()
        self.served = set()
        self.unstored = []  # clients whose first flight byte left too early

    def record(self, now, packet, dropped):
        if (packet.src != self.vip or not packet.payload
                or packet.dst in self.served):
            return
        self.served.add(packet.dst)
        key = client_key(packet.dst, packet.src)
        stored = [FlowState.from_bytes(raw) for raw in
                  (s.peek(key) for s in self.bed.yoda.store_servers)
                  if raw is not None]
        if not any(state.client_prefix for state in stored):
            self.unstored.append((now, str(packet.dst)))


class TestHelloPrefixWriteFailure:
    """A failed hello-prefix write is a failed storage-a write: nothing it
    would have made durable has been acknowledged, so the instance forgets
    the flow and keeps the stored SYN record, and the client's
    retransmitted hello recovers the flow from it (``get_by_client``)."""

    def _fail_next_prefix_write(self, bed):
        failed = []
        for inst in bed.yoda.instances:
            def store_client_syn(state, on_done,
                                 _real=inst.tcpstore.store_client_syn):
                if state.client_prefix and not failed:
                    failed.append(state.key)  # unwritten, reported late
                    bed.loop.call_later(0.002, on_done, False)
                    return
                _real(state, on_done)
            inst.tcpstore.store_client_syn = store_client_syn
        return failed

    def _storage_a_failures(self, bed):
        return sum(i.metrics.counter("storage_a_failed").value
                   for i in bed.yoda.instances)

    def test_full_handshake(self):
        bed = make_bed()
        audit = bed.network.add_trace(_FlightAudit(bed))
        failed = self._fail_next_prefix_write(bed)
        result = https_fetch(bed, deadline=30.0)
        assert failed, "the hello-prefix write never ran"
        assert result.ok, result.error
        assert result.retries_used == 0
        assert self._storage_a_failures(bed) == 1
        assert audit.served and not audit.unstored

    def test_ticket_resumption(self):
        bed = make_bed(tls_session_tickets=True)
        audit = bed.network.add_trace(_FlightAudit(bed))
        cache = {}
        assert https_fetch(bed, deadline=30.0, session_cache=cache).ok
        failed = self._fail_next_prefix_write(bed)
        result = https_fetch(bed, deadline=30.0, session_cache=cache)
        assert failed, "the resumption's hello-prefix write never ran"
        assert result.ok and result.resumed, result.error
        assert result.retries_used == 0
        assert self._storage_a_failures(bed) == 1
        # the abbreviated flight waited for a prefix write that succeeded
        assert len(audit.served) == 2 and not audit.unstored
