"""Flow state: deterministic ISN, serialization, keys."""

import pytest
from hypothesis import given, strategies as st

from repro.core.flowstate import (
    FlowPhase, FlowState, client_key, flow_key, server_key, yoda_isn,
)
from repro.errors import ReproError
from repro.net.addresses import Endpoint

CLIENT = Endpoint("172.16.0.9", 43210)
VIP = Endpoint("100.0.0.1", 80)
SERVER = Endpoint("10.3.0.5", 80)


class TestYodaIsn:
    def test_deterministic_across_computations(self):
        assert yoda_isn(CLIENT, VIP) == yoda_isn(CLIENT, VIP)

    def test_depends_on_client_and_vip(self):
        other_client = Endpoint("172.16.0.9", 43211)
        other_vip = Endpoint("100.0.0.2", 80)
        assert yoda_isn(CLIENT, VIP) != yoda_isn(other_client, VIP)
        assert yoda_isn(CLIENT, VIP) != yoda_isn(CLIENT, other_vip)

    def test_is_32_bit(self):
        assert 0 <= yoda_isn(CLIENT, VIP) < 2**32


class TestKeys:
    def test_client_key_unique_per_flow(self):
        k1 = client_key(CLIENT, VIP)
        k2 = client_key(Endpoint("172.16.0.9", 43211), VIP)
        assert k1 != k2

    def test_server_key_includes_snat_port(self):
        assert server_key("100.0.0.1", 40000, SERVER) != \
            server_key("100.0.0.1", 40001, SERVER)


class TestSerialization:
    def test_roundtrip_minimal(self):
        state = FlowState(client=CLIENT, vip=VIP, client_isn=12345)
        restored = FlowState.from_bytes(state.to_bytes())
        assert restored.client == CLIENT
        assert restored.client_isn == 12345
        assert restored.server is None
        assert not restored.established

    def test_roundtrip_established(self):
        state = FlowState(
            client=CLIENT, vip=VIP, client_isn=1, phase=FlowPhase.TUNNEL.value,
            server=SERVER, server_isn=999, snat_port=40007,
            request_offset=100, response_offset=200, created_at=1.5,
        )
        restored = FlowState.from_bytes(state.to_bytes())
        assert restored.established
        assert restored.server == SERVER
        assert restored.server_isn == 999
        assert restored.snat_port == 40007
        assert restored.request_offset == 100
        assert restored.response_offset == 200

    def test_yoda_isn_not_stored(self):
        # the ISN is recomputed, never persisted -- the paper's trick
        state = FlowState(client=CLIENT, vip=VIP, client_isn=1)
        assert b"yoda_isn" not in state.to_bytes()
        assert FlowState.from_bytes(state.to_bytes()).yoda_isn == state.yoda_isn

    def test_corrupt_bytes_raise(self):
        with pytest.raises(ReproError):
            FlowState.from_bytes(b"not json at all")
        with pytest.raises(ReproError):
            FlowState.from_bytes(b"{}")

    def test_server_storage_key_requires_establishment(self):
        state = FlowState(client=CLIENT, vip=VIP, client_isn=1)
        assert state.server_storage_key() is None
        state.server = SERVER
        state.snat_port = 40000
        assert state.server_storage_key() is not None

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
           st.integers(1024, 65000))
    def test_roundtrip_any_numbers(self, cisn, sisn, snat):
        state = FlowState(client=CLIENT, vip=VIP, client_isn=cisn,
                          server=SERVER, server_isn=sisn, snat_port=snat)
        restored = FlowState.from_bytes(state.to_bytes())
        assert restored.client_isn == cisn
        assert restored.server_isn == sisn
        assert restored.snat_port == snat


# Records serialized by the commit before the per-flow constants moved
# onto FlowState: the in-memory key / ISN / SNAT endpoint must never reach
# the wire format, so a recovered-then-reserialized state is these bytes.
PINNED_RECORDS = [
    b'{"client":"172.16.0.9:43210","vip":"100.0.0.1:80","client_isn":12345,'
    b'"phase":"await_header","server":null,"server_isn":null,'
    b'"snat_port":null,"request_offset":0,"response_offset":0,'
    b'"created_at":1.25,"client_prefix":"","tls_handshake_len":0}',
    b'{"client":"172.16.0.9:43210","vip":"100.0.0.1:80",'
    b'"client_isn":4294967295,"phase":"tunnel","server":"10.3.0.5:80",'
    b'"server_isn":77,"snat_port":40003,"request_offset":120,'
    b'"response_offset":30000,"created_at":2.5,'
    b'"client_prefix":"FgNoZWxsbw==","tls_handshake_len":900}',
    b'{"client":"172.16.3.4:1024","vip":"100.64.2.1:443","client_isn":0,'
    b'"phase":"tunnel","server":"10.3.0.5:80","server_isn":0,'
    b'"snat_port":64999,"request_offset":0,"response_offset":0,'
    b'"created_at":17.0,"client_prefix":"","tls_handshake_len":0,'
    b'"resp_delivered":65536,'
    b'"replay_header":"R0VUIC9zdHJlYW0vYSBIVFRQLzEuMQ0KDQo="}',
]


class TestPerFlowConstants:
    @pytest.mark.parametrize("raw", PINNED_RECORDS)
    def test_constants_stay_out_of_the_record(self, raw):
        state = FlowState.from_bytes(raw)
        assert state.to_bytes() == raw
        # ... and still after every cached value has been computed
        assert state.yoda_isn == yoda_isn(state.client, state.vip)
        assert state.key == flow_key(state.client, state.vip)
        if state.snat_port is not None:
            assert state.snat_src == Endpoint(state.vip.ip, state.snat_port)
        assert state.to_bytes() == raw
        assert FlowState.from_bytes(state.to_bytes()) == state

    def test_isn_is_the_hash_before_and_after_a_round_trip(self):
        state = FlowState(client=CLIENT, vip=VIP, client_isn=1)
        assert state.yoda_isn == yoda_isn(CLIENT, VIP)
        restored = FlowState.from_bytes(state.to_bytes())
        assert restored.yoda_isn == yoda_isn(CLIENT, VIP)
        assert restored == state

    def test_snat_source_follows_the_port(self):
        state = FlowState(client=CLIENT, vip=VIP, client_isn=1,
                          server=SERVER, server_isn=5, snat_port=40000)
        first = state.snat_src
        assert first == Endpoint(VIP.ip, 40000)
        assert state.snat_src is first  # built once, not per packet
        state.snat_port = 40001  # HTTP/1.1 backend switch
        assert state.snat_src == Endpoint(VIP.ip, 40001)
