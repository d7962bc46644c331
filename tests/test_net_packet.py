"""Packet model: flags, sizes, copies."""

from repro.net.addresses import Endpoint
from repro.net.packet import (
    ACK, FIN, PSH, RST, SYN,
    Packet, flags_to_str,
)

A = Endpoint("1.1.1.1", 1000)
B = Endpoint("2.2.2.2", 80)


class TestFlags:
    def test_flag_properties(self):
        pkt = Packet(src=A, dst=B, flags=SYN | ACK)
        assert pkt.syn and pkt.has_ack and not pkt.fin and not pkt.rst

    def test_flags_to_str(self):
        assert flags_to_str(SYN) == "S"
        assert flags_to_str(SYN | ACK) == "S."
        assert flags_to_str(ACK) == "."
        assert flags_to_str(FIN | ACK) == "F."
        assert flags_to_str(RST) == "R"
        assert flags_to_str(PSH | ACK) == "P."
        assert flags_to_str(0) == "-"


class TestSizes:
    def test_seq_span_counts_syn_and_fin(self):
        assert Packet(src=A, dst=B, flags=SYN).seq_span == 1
        assert Packet(src=A, dst=B, flags=FIN | ACK).seq_span == 1
        assert Packet(src=A, dst=B, flags=ACK, payload=b"ab").seq_span == 2
        assert Packet(src=A, dst=B, flags=SYN | FIN, payload=b"ab").seq_span == 4


class TestCopy:
    def test_copy_changes_fields_and_id(self):
        pkt = Packet(src=A, dst=B, flags=ACK, seq=5, ack=9, payload=b"hi",
                     meta={"k": 1})
        dup = pkt.copy(seq=100)
        assert dup.seq == 100
        assert dup.ack == 9
        assert dup.payload == b"hi"
        assert dup.packet_id != pkt.packet_id

    def test_copy_meta_is_independent(self):
        pkt = Packet(src=A, dst=B, meta={"k": 1})
        dup = pkt.copy()
        dup.meta["k"] = 2
        assert pkt.meta["k"] == 1

