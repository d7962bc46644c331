"""Packet schedules of the connection paths no golden trace reaches.

The golden corpus (``tests/golden/``, ``tests/golden_region/``) pins plain
HTTP/1.0 flows, recovery and stream resume; it never runs SSL termination
or an HTTP/1.1 backend switch.  Each case here runs one such path on a
small testbed and pins the run digest (``Network.start_digest`` /
``digest``: every wire transmission, drop and delivery) and the number of
packets transmitted.  A refactor of ``YodaInstance`` that moves one packet
of these paths -- one byte, one microsecond -- fails here.
"""

import pytest

from repro.errors import SnatExhausted
from tests import test_http11_switching as http11
from tests import test_streaming_and_guards as guards
from tests import test_tls

# (run digest, packets transmitted) of each case
PINS = {
    "https-full-handshake": (
        "ce79851c84c22bf09d6f883b0f18a5fa25b789976ff95ac07be07ceea081f620", 172),
    "https-ticket-resumption": (
        "51036a841a9cea54e1ab0c2a0662d6b16baea4b91c3cc4962947def33937f052", 239),
    "https-mid-certificate-takeover": (
        "e4b1c6ed178eaf546c9c625273f9750d1697f47127309bc2a516311d527f3e33", 178),
    "http11-switch": (
        "1b19ccb79f70984d0fd86372911b8f9d43d5d6273ece712411cc90a01b755aa1", 145),
    "http11-switch-snat-exhausted": (
        "09480398fd98f2b8b28e70ede9faab4d62f41324d0c2d11721b16710d4c40c6a", 84),
}


def _https_full_handshake():
    bed = test_tls.make_bed()
    bed.network.start_digest()
    assert test_tls.https_fetch(bed, deadline=10.0).ok
    return bed


def _https_ticket_resumption():
    bed = guards.make_bed(tls_certificate=guards.CERT, tls_session_tickets=True)
    bed.network.start_digest()
    cache = {}
    assert not guards.https_fetch(bed, cache, deadline=10.0).resumed
    assert guards.https_fetch(bed, cache, deadline=10.0).resumed
    return bed


def _https_mid_certificate_takeover():
    bed = test_tls.make_bed()
    bed.network.start_digest()
    caught = test_tls.TestTlsFailover()._fail_mid_cert(bed)
    assert test_tls.https_fetch(bed, deadline=10.0).ok
    assert caught, "never caught the mid-certificate window"
    return bed


def _http11_switch():
    bed = http11.make_bed()
    bed.network.start_digest()
    http11.content_switching_policy(bed)
    client = http11.run_keepalive(bed, ["/obj/0.bin", "/obj/1.bin"],
                                  deadline=10.0)
    assert [r.headers.get("X-Backend") for r in client.responses] == [
        "srv-0", "srv-1"]
    return bed


def _http11_switch_snat_exhausted():
    """The switch finds no SNAT port: the old backend connection is already
    torn down, so the client is refused."""
    bed = http11.make_bed()
    bed.network.start_digest()
    for inst in bed.yoda.instances:
        # an instance's first port (the connect) is granted, later ones not
        def alloc(vip, _inst=inst, _real=inst._alloc_snat_port, _asked=[]):
            _asked.append(vip)
            if len(_asked) > 1:
                raise SnatExhausted(vip, _inst.ip)
            return _real(vip)
        inst._alloc_snat_port = alloc
    http11.content_switching_policy(bed)
    client = http11.run_keepalive(bed, ["/obj/0.bin", "/obj/1.bin"],
                                  deadline=10.0)
    assert len(client.responses) == 1 and client.errors == ["reset"]
    return bed


CASES = {
    "https-full-handshake": _https_full_handshake,
    "https-ticket-resumption": _https_ticket_resumption,
    "https-mid-certificate-takeover": _https_mid_certificate_takeover,
    "http11-switch": _http11_switch,
    "http11-switch-snat-exhausted": _http11_switch_snat_exhausted,
}


@pytest.mark.parametrize("case", list(CASES))
def test_connection_path_schedule_is_pinned(case):
    bed = CASES[case]()
    measured = (bed.network.digest(),
                bed.network.metrics.counter("tx_packets").value)
    assert measured == PINS[case], f"{case}: {measured}"
