"""Endpoints, four-tuples and address allocation."""

from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.errors import AddressError
from repro.net import addresses
from repro.net.addresses import Endpoint, EphemeralPorts, validate_ip


def _raises_address_error(check, text):
    try:
        check(text)
    except AddressError:
        return True
    return False


def _is_dotted_quad(text):
    """The rule, written out by hand: four dot-separated runs of one to
    three ASCII digits, each at most 255."""
    parts = text.split(".")
    return len(parts) == 4 and all(
        1 <= len(p) <= 3 and p.isascii() and p.isdigit() and int(p) <= 255
        for p in parts)


# strings near the accept/reject boundary, and anything else
_octet = st.one_of(st.integers(0, 300).map(str),
                   st.sampled_from(["", "01", "0255", "\u0661", "\uff11", " 1"]))
_near_ips = st.builds(
    lambda octets, tail: ".".join(octets) + tail,
    st.lists(_octet, min_size=3, max_size=5),
    st.sampled_from(["", "", "", "\n", " ", "."]))
_ip_candidates = st.one_of(_near_ips, st.text(max_size=12))


class TestValidateIp:
    def test_accepts_valid(self):
        assert validate_ip("10.0.0.1") == "10.0.0.1"
        assert validate_ip("255.255.255.255")

    @pytest.mark.parametrize("bad", ["256.0.0.1", "1.2.3", "a.b.c.d", "", "1.2.3.4.5"])
    def test_rejects_invalid(self, bad):
        with pytest.raises(AddressError):
            validate_ip(bad)

    @pytest.mark.parametrize("bad", [
        "10.0.0.1\n",  # ``$`` matches before a trailing newline
        "\u0661\u0660.0.0.1",  # Arabic-Indic digits: ``\d`` is Unicode-wide
        "10.0.0.\uff11",  # full-width one
        " 10.0.0.1", "10.0.0.1 ",
    ])
    def test_rejects_lookalikes(self, bad):
        """Strings that render like an address but are not one must not
        become a second route / hash-ring / flow-table key."""
        with pytest.raises(AddressError):
            validate_ip(bad)
        assert bad not in addresses._VALID_IPS

    @given(st.lists(_ip_candidates, max_size=12), _ip_candidates)
    def test_memo_never_changes_the_verdict(self, others, probe):
        """``validate_ip`` accepts and rejects exactly what the un-memoised
        check does -- before the memo has seen anything, and after it has
        seen (and, at this capacity, been filled and emptied by) other
        strings -- and only strings that passed are remembered."""
        assert _raises_address_error(addresses._check_ip, probe) == \
            (not _is_dotted_quad(probe))
        with mock.patch.object(addresses, "_VALID_IPS_MAX", 3), \
                mock.patch.object(addresses, "_VALID_IPS", set()) as memo:
            for text in [probe, *others, probe]:
                assert _raises_address_error(validate_ip, text) == \
                    _raises_address_error(addresses._check_ip, text)
                assert len(memo) <= 3
                assert all(_is_dotted_quad(ip) for ip in memo)

    def test_a_remembered_address_skips_the_full_check(self):
        with mock.patch.object(addresses, "_VALID_IPS", set()), \
                mock.patch.object(addresses, "_check_ip",
                                  wraps=addresses._check_ip) as full:
            for _ in range(3):
                assert validate_ip("10.9.8.7") == "10.9.8.7"
                with pytest.raises(AddressError):
                    validate_ip("10.9.8.256")  # a reject is never remembered
        assert [c.args for c in full.call_args_list] == [
            ("10.9.8.7",), ("10.9.8.256",), ("10.9.8.256",), ("10.9.8.256",)]


class TestEndpoint:
    def test_str_roundtrip(self):
        ep = Endpoint("10.0.0.1", 80)
        assert Endpoint.parse(str(ep)) == ep

    def test_parse_rejects_garbage(self):
        with pytest.raises(AddressError):
            Endpoint.parse("10.0.0.1")
        with pytest.raises(AddressError):
            Endpoint.parse("10.0.0.1:notaport")

    def test_invalid_port(self):
        with pytest.raises(AddressError):
            Endpoint("10.0.0.1", 70000)

    @pytest.mark.parametrize("port", ["80", 80.0, None])
    def test_non_int_port_is_an_address_error(self, port):
        with pytest.raises(AddressError):  # was a TypeError from ``0 <= port``
            Endpoint("10.0.0.1", port)

    @pytest.mark.parametrize("text", [
        "10.0.0.1: 80", "10.0.0.1:80 ", " 10.0.0.1:80", "10.0.0.1:80\n",
        "10.0.0.1:+80", "10.0.0.1:8_0", "10.0.0.1:\u0668\u0660", "10.0.0.1:",
    ])
    def test_parse_rejects_what_int_would_forgive(self, text):
        with pytest.raises(AddressError):
            Endpoint.parse(text)

    def test_hashable_and_ordered(self):
        a = Endpoint("10.0.0.1", 80)
        b = Endpoint("10.0.0.1", 81)
        assert a < b
        assert len({a, b, Endpoint("10.0.0.1", 80)}) == 2

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 65535))
    def test_any_valid_endpoint_roundtrips(self, c, d, port):
        ep = Endpoint(f"10.0.{c}.{d}", port)
        assert Endpoint.parse(str(ep)) == ep


class TestEphemeralPorts:
    def test_in_range_and_wrapping(self):
        ports = EphemeralPorts()
        first = ports.next()
        assert first == EphemeralPorts.LOW
        total = EphemeralPorts.HIGH - EphemeralPorts.LOW + 1
        for _ in range(total - 1):
            p = ports.next()
            assert EphemeralPorts.LOW <= p <= EphemeralPorts.HIGH
        assert ports.next() == EphemeralPorts.LOW  # wrapped
