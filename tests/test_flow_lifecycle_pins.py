"""Packet schedules of the connection paths no golden trace reaches.

The golden corpus (``tests/golden/``, ``tests/golden_region/``) pins plain
HTTP/1.0 flows, recovery and stream resume; it never runs SSL termination
or an HTTP/1.1 backend switch.  Each case here runs one such path on a
small testbed and pins the run digest (``Network.start_digest`` /
``digest``), the canonical schedule digest of the same captures (the
``canonical_trace_line`` fold ``GoldenRecorder`` computes over a
``scope="all"`` tap, as the goldens' ``digest``) and the number of packets
transmitted.  A refactor of ``YodaInstance`` that moves one packet of these
paths -- one byte, one microsecond -- fails here.  The canonical digest is
the layer a change to how the run digest encodes its captures must leave
alone: such a change re-pins the first column and nothing else.
"""

import pytest

from repro.errors import SnatExhausted
from tests import test_http11_switching as http11
from tests import test_streaming_and_guards as guards
from tests import test_tls
from tests.test_golden_traces import GoldenRecorder

# (run digest, canonical schedule digest, packets transmitted) of each case
PINS = {
    "https-full-handshake": (
        "d09b65a336b2ce9a41c4d724e44e5d88e3d2a6bb247da4ba7b7a0905af7200a6",
        "860a46d56b970aba9f73b086bc320da6a2eb7b7078ff3801ac9532e0f95a8737", 172),
    "https-ticket-resumption": (
        "84340db2bcf06233c7ede7d91d602f87462200d8bf2f2875a7e2cd383b815489",
        "816bbd698e661b17af78fe2c5c214544ecd19cf17bf878c738b97b99acae8999", 239),
    "https-mid-certificate-takeover": (
        "9e4762156a30476d59432b3cac0fc80936c21e89cac13f5ff23476b9202e83fe",
        "df60d179ddf3dcb00e1e5c24788f1d0079481aaea07b2573fa36953ae1f196bf", 178),
    "http11-switch": (
        "0896b5b508a368614c69d66ee61601ba1c4ef429683dab9b3c8fc0598572c787",
        "6ced1dce9a2e761718e4900bb29377bb1260564e7b882046049e5c44fdf3fe2c", 145),
    "http11-switch-snat-exhausted": (
        "6b217f3069616228ef1f7584146ef3a651b7824e333512b1998d1c467d8b9379",
        "f7748290d9fa1bdd951798db46d6cfee6a39faf339fe1ecbb7b2b1740b488b22", 84),
}


def _capture(bed):
    """Start the run digest and the canonical fold on the same captures."""
    bed.network.start_digest()
    return bed.network.add_trace(GoldenRecorder())


def _https_full_handshake():
    bed = test_tls.make_bed()
    recorder = _capture(bed)
    assert test_tls.https_fetch(bed, deadline=10.0).ok
    return bed, recorder


def _https_ticket_resumption():
    bed = guards.make_bed(tls_certificate=guards.CERT, tls_session_tickets=True)
    recorder = _capture(bed)
    cache = {}
    assert not guards.https_fetch(bed, cache, deadline=10.0).resumed
    assert guards.https_fetch(bed, cache, deadline=10.0).resumed
    return bed, recorder


def _https_mid_certificate_takeover():
    bed = test_tls.make_bed()
    recorder = _capture(bed)
    caught = test_tls.TestTlsFailover()._fail_mid_cert(bed)
    assert test_tls.https_fetch(bed, deadline=10.0).ok
    assert caught, "never caught the mid-certificate window"
    return bed, recorder


def _http11_switch():
    bed = http11.make_bed()
    recorder = _capture(bed)
    http11.content_switching_policy(bed)
    client = http11.run_keepalive(bed, ["/obj/0.bin", "/obj/1.bin"],
                                  deadline=10.0)
    assert [r.headers.get("X-Backend") for r in client.responses] == [
        "srv-0", "srv-1"]
    return bed, recorder


def _http11_switch_snat_exhausted():
    """The switch finds no SNAT port: the old backend connection is already
    torn down, so the client is refused."""
    bed = http11.make_bed()
    recorder = _capture(bed)
    for inst in bed.yoda.instances:
        # an instance's first port (the connect) is granted, later ones not
        def alloc(vip, _inst=inst, _real=inst.snat_ports.alloc, _asked=[]):
            _asked.append(vip)
            if len(_asked) > 1:
                raise SnatExhausted(vip, _inst.ip)
            return _real(vip)
        inst.snat_ports.alloc = alloc
    http11.content_switching_policy(bed)
    client = http11.run_keepalive(bed, ["/obj/0.bin", "/obj/1.bin"],
                                  deadline=10.0)
    assert len(client.responses) == 1 and client.errors == ["reset"]
    return bed, recorder


CASES = {
    "https-full-handshake": _https_full_handshake,
    "https-ticket-resumption": _https_ticket_resumption,
    "https-mid-certificate-takeover": _https_mid_certificate_takeover,
    "http11-switch": _http11_switch,
    "http11-switch-snat-exhausted": _http11_switch_snat_exhausted,
}


@pytest.mark.parametrize("case", list(CASES))
def test_connection_path_schedule_is_pinned(case):
    bed, recorder = CASES[case]()
    measured = (bed.network.digest(), recorder.digest(),
                bed.network.metrics.counter("tx_packets").value)
    assert measured == PINS[case], f"{case}: {measured}"
