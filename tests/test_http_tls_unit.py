"""Unit coverage for the TLS record helpers not exercised elsewhere."""

from hypothesis import given, settings, strategies as st

from repro.http import tls


class TestRecords:
    def test_client_hello_roundtrip(self):
        records = tls.TlsCodec().feed(tls.client_hello("my.site"))
        assert records == [(tls.CLIENT_HELLO, b"my.site")]

    def test_key_exchange_deterministic(self):
        assert tls.key_exchange("a") == tls.key_exchange("a")
        assert tls.key_exchange("a") != tls.key_exchange("b")

    def test_retry_ping_empty_payload(self):
        records = tls.TlsCodec().feed(tls.retry_ping())
        assert records == [(tls.RETRY_PING, b"")]

    def test_app_data_payload_preserved(self):
        payload = bytes(range(256))
        records = tls.TlsCodec().feed(tls.app_data(payload))
        assert records == [(tls.APP_DATA, payload)]

    def test_codec_buffers_partial_header(self):
        codec = tls.TlsCodec()
        wire = tls.app_data(b"xyz")
        assert codec.feed(wire[:3]) == []
        assert codec.buffered == 3
        assert codec.feed(wire[3:]) == [(tls.APP_DATA, b"xyz")]
        assert codec.buffered == 0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.binary(min_size=0, max_size=100), min_size=1,
                    max_size=5),
           st.integers(1, 17))
    def test_any_chunking_preserves_record_stream(self, payloads, step):
        wire = b"".join(tls.app_data(p) for p in payloads)
        codec = tls.TlsCodec()
        records = []
        for i in range(0, len(wire), step):
            records.extend(codec.feed(wire[i:i + step]))
        assert [p for _, p in records] == payloads


class TestCertificate:
    def test_pem_framing(self):
        cert = tls.Certificate("example.org", size=2_000)
        assert cert.pem.startswith(b"-----BEGIN CERT example.org-----")
        assert cert.pem.endswith(b"-----END CERT-----")

    def test_distinct_names_distinct_bytes(self):
        a = tls.Certificate("a.example", size=1_000)
        b = tls.Certificate("b.example", size=1_000)
        assert a.pem != b.pem

    def test_tiny_size_clamped(self):
        cert = tls.Certificate("x", size=10)
        assert len(cert.pem) >= 10
