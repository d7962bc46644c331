"""Incremental HTTP parser, including property-based chunking."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HttpError, HttpParseError
from repro.http import parser as http_parser
from repro.http.message import BodyDigest, HttpRequest, HttpResponse
from repro.http.parser import HttpParser

REQ = HttpRequest("GET", "/a.html", host="h", headers={"X-K": "v"}).serialize()
RESP = HttpResponse(200, body=b"hello world").serialize()


class TestRequestParsing:
    def test_single_feed(self):
        out = HttpParser("request").feed(REQ)
        assert len(out) == 1
        msg = out[0].message
        assert msg.method == "GET" and msg.path == "/a.html"
        assert msg.headers.get("X-K") == "v"
        assert out[0].wire_bytes == len(REQ)

    def test_byte_by_byte(self):
        parser = HttpParser("request")
        out = []
        for i in range(len(REQ)):
            out.extend(parser.feed(REQ[i:i + 1]))
        assert len(out) == 1
        assert out[0].message.path == "/a.html"

    def test_pipelined_requests_in_one_feed(self):
        out = HttpParser("request").feed(REQ + REQ + REQ)
        assert len(out) == 3

    def test_request_with_body(self):
        req = HttpRequest("POST", "/submit", body=b"x" * 100).serialize()
        out = HttpParser("request").feed(req)
        assert out[0].message.body == b"x" * 100

    def test_body_split_across_feeds(self):
        req = HttpRequest("POST", "/s", body=b"abcdef").serialize()
        parser = HttpParser("request")
        assert parser.feed(req[:-3]) == []
        out = parser.feed(req[-3:])
        assert out[0].message.body == b"abcdef"

    def test_header_complete_flag(self):
        parser = HttpParser("request")
        head, _, rest = REQ.partition(b"\r\n\r\n")
        parser.feed(head)
        assert not parser.header_complete()
        parser.feed(b"\r\n\r\n")
        # fully parsed counts as past header-complete for an empty-body GET
        assert parser.buffered == 0

    def test_malformed_header_line_raises(self):
        parser = HttpParser("request")
        with pytest.raises(HttpParseError):
            parser.feed(b"GET / HTTP/1.0\r\nbad header line\r\n\r\n")

    def test_bad_content_length_raises(self):
        parser = HttpParser("request")
        with pytest.raises(HttpParseError):
            parser.feed(b"GET / HTTP/1.0\r\nContent-Length: banana\r\n\r\n")

    @pytest.mark.parametrize("lengths", [
        ["-5"],  # int() reads it, and buf[:-5] framed b"HELLO" + a stray b"WORLD"
        ["+5"], ["1_0"], ["0x5"], ["5.0"], ["5, 5"], [""], ["9" * 5000],
        ["\xb2"],  # a digit to str.isdigit(), not to the grammar
        ["5", "7"], ["7", "5"], ["5", "05", "6"],
    ])
    def test_content_length_that_cannot_frame_is_refused(self, lengths):
        head = "POST /p HTTP/1.1\r\n" + "".join(
            f"Content-Length: {value}\r\n" for value in lengths)
        parser = HttpParser("request")
        with pytest.raises(HttpParseError, match="Content-Length"):
            parser.feed(head.encode("latin-1") + b"\r\nHELLOWORLD")

    @pytest.mark.parametrize("lengths", [
        ["5"], ["05"], [" 5 "], ["5", "5"], ["5", "05"],
    ])
    def test_content_length_frames_exactly(self, lengths):
        head = "POST /p HTTP/1.1\r\n" + "".join(
            f"content-LENGTH: {value}\r\n" for value in lengths)
        parser = HttpParser("request")
        (parsed,) = parser.feed(head.encode() + b"\r\nHELLOWORLD")
        assert parsed.message.body == b"HELLO"
        assert parsed.wire_bytes == len(head) + 2 + 5
        assert parser.buffered == len(b"WORLD")


class TestLineTable:
    """A header or status line seen before is parsed once, from the table.

    Each case starts from an empty table: the real one may be full by the
    time it runs."""

    @pytest.mark.parametrize("value", ["banana", "-5", "1_0"])
    def test_a_malformed_content_length_is_refused_on_every_message(
            self, value, monkeypatch):
        monkeypatch.setattr(http_parser, "_LINES", {})
        line = f"Content-Length: {value}".encode()
        for kind, start in (("request", b"GET / HTTP/1.0"),
                            ("response", b"HTTP/1.0 200 OK")):
            for _ in range(3):
                with pytest.raises(HttpParseError, match="Content-Length"):
                    HttpParser(kind).feed(start + b"\r\n" + line + b"\r\n\r\n")
        assert line not in http_parser._LINES  # a line that raised

    def test_a_remembered_length_still_frames_and_conflicts_per_message(
            self, monkeypatch):
        monkeypatch.setattr(http_parser, "_LINES", {})
        good = b"POST /p HTTP/1.1\r\nContent-Length: 5\r\n\r\nHELLOWORLD"
        for _ in range(2):
            (parsed,) = HttpParser("request").feed(good)
            assert parsed.message.body == b"HELLO"
        assert b"Content-Length: 5" in http_parser._LINES
        both = b"POST /p HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 7\r\n\r\n"
        for _ in range(2):
            with pytest.raises(HttpParseError, match="Content-Length"):
                HttpParser("request").feed(both)

    def test_a_malformed_status_line_is_refused_every_time(self, monkeypatch):
        monkeypatch.setattr(http_parser, "_LINES", {})
        for _ in range(2):
            with pytest.raises(HttpError):
                HttpParser("response").feed(
                    b"HTTP/1.0 abc OK\r\nContent-Length: 0\r\n\r\n")
        assert b"HTTP/1.0 abc OK\r\n" not in http_parser._LINES

    def test_a_status_line_and_a_header_line_of_the_same_bytes_stay_apart(
            self, monkeypatch):
        monkeypatch.setattr(http_parser, "_LINES", {})
        line = b"HTTP/1.1 200 OK: fine"
        wire = line + b"\r\n" + line + b"\r\nContent-Length: 0\r\n\r\n"
        for _ in range(2):  # both kinds remembered, each read back as itself
            (resp,) = HttpParser("response").feed(wire)
            assert resp.message.status == 200 and resp.message.reason == "OK: fine"
            assert resp.message.headers.get("http/1.1 200 ok") == "fine"

    def test_a_flood_of_new_lines_is_not_remembered(self, monkeypatch):
        monkeypatch.setattr(http_parser, "_LINES", {})  # leave the real one be
        wire = b"".join(
            f"HTTP/1.1 200 Reason {i}\r\nX-Flood: {i}\r\n"
            f"Content-Length: {i % 10}\r\n\r\n".encode() + b"x" * (i % 10)
            for i in range(3 * http_parser._LINES_MAX))
        out = HttpParser("response").feed(wire)
        assert len(http_parser._LINES) == http_parser._LINES_MAX
        assert len(out) == 3 * http_parser._LINES_MAX
        last = out[-1].message
        i = len(out) - 1
        assert (last.reason, last.headers.get("X-Flood")) == (f"Reason {i}", str(i))
        assert len(last.body) == i % 10


class TestResponseParsing:
    def test_simple_response(self):
        out = HttpParser("response").feed(RESP)
        assert out[0].message.status == 200
        assert out[0].message.body == b"hello world"

    def test_close_delimited_response(self):
        parser = HttpParser("response")
        raw = b"HTTP/1.0 200 OK\r\n\r\npartial body"
        assert parser.feed(raw) == []
        final = parser.finish()
        assert final is not None
        assert final.message.body == b"partial body"

    def test_finish_without_pending_returns_none(self):
        assert HttpParser("response").finish() is None

    def test_finish_mid_header_raises(self):
        parser = HttpParser("response")
        parser.feed(b"HTTP/1.0 200")
        with pytest.raises(HttpParseError):
            parser.finish()

    def test_keep_alive_sequence(self):
        parser = HttpParser("response")
        out = parser.feed(RESP + HttpResponse(404, body=b"x").serialize())
        assert [m.message.status for m in out] == [200, 404]


class TestStreamedBody:
    """A body is hashed as it arrives and never buffered; the message
    carries a BodyDigest equal to exactly the bytes it digests."""

    BODY = bytes(range(256)) * 40

    def test_body_is_counted_not_buffered(self):
        wire = HttpResponse(200, body=self.BODY).serialize()
        parser = HttpParser("response")
        out = []
        for i in range(0, len(wire), 1460):
            out.extend(parser.feed(wire[i:i + 1460]))
            if not out:
                assert parser.buffered == 0 and parser.header_complete()
                assert parser.body_length == len(self.BODY)
                assert 0 < parser.body_received < len(self.BODY)
        (parsed,) = out
        body = parsed.message.body
        assert isinstance(body, BodyDigest) and not isinstance(body, bytes)
        assert len(body) == len(self.BODY) and body == self.BODY
        assert self.BODY == body and body != self.BODY[:-1] + b"!"
        assert body == BodyDigest(len(self.BODY), hashlib.sha256(self.BODY).digest())
        assert parsed.wire_bytes == len(wire)

    def test_bytes_after_a_body_wait_for_the_next_message(self):
        second = HttpResponse(404, body=b"gone").serialize()
        parser = HttpParser("response")
        (first,) = parser.feed(RESP + second[:10])
        assert first.message.body == b"hello world"
        assert parser.buffered == 10 and parser.body_received == 0
        (parsed,) = parser.feed(second[10:])
        assert (parsed.message.status, parsed.message.body) == (404, b"gone")

    def test_close_delimited_body_is_hashed_up_to_finish(self):
        parser = HttpParser("response")
        assert parser.feed(b"HTTP/1.0 200 OK\r\n\r\npart") == []
        assert parser.feed(b"ial body") == []
        assert parser.body_length is None and parser.buffered == 0
        final = parser.finish()
        assert final.message.body == b"partial body"
        assert final.message.headers.get("Content-Length") == "12"

    def test_a_parsed_message_is_not_serialized(self):
        (parsed,) = HttpParser("request").feed(
            HttpRequest("POST", "/p", body=b"abc").serialize())
        with pytest.raises(TypeError):
            parsed.message.serialize()


class TestInvalidKind:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            HttpParser("banana")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=0, max_size=30),
       st.binary(min_size=0, max_size=200))
def test_arbitrary_chunking_never_changes_result(cut_sizes, body):
    """However the wire bytes are fragmented, the same message comes out."""
    wire = HttpRequest("POST", "/p", body=body).serialize() * 2
    parser = HttpParser("request")
    messages = []
    pos = 0
    for size in cut_sizes:
        messages.extend(parser.feed(wire[pos:pos + size]))
        pos += size
    messages.extend(parser.feed(wire[pos:]))
    assert len(messages) == 2
    for parsed in messages:
        assert parsed.message.body == body
        assert parsed.message.path == "/p"


# what a client can put after "Content-Length:": a number dressed in what
# int() takes and the grammar does not, or any latin-1 text at all
_LENGTH_VALUES = st.one_of(
    st.builds("{}{}{}".format,
              st.sampled_from(["", "", "-", "+", " ", "0", "_", "0x"]),
              st.integers(0, 40),
              st.sampled_from(["", "", " ", "_0", ".0", ", 5", "\xb2"])),
    st.text(alphabet=st.characters(max_codepoint=255,
                                   blacklist_characters="\r\n"),
            max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(_LENGTH_VALUES,
       st.binary(max_size=60).map(lambda b: b.replace(b"\n", b".")),
       st.lists(st.integers(1, 25), max_size=12))
def test_content_length_is_refused_or_framed_to_the_byte(value, tail, cuts):
    """For any header value the parser either raises or takes exactly the
    header and ``int(value)`` body bytes and leaves the rest, byte for
    byte, for the next message -- however the input is chunked.  (``tail``
    has no newline, so what is left over cannot complete a second header.)"""
    head = f"POST /p HTTP/1.1\r\nContent-Length: {value}\r\n\r\n".encode(
        "latin-1", errors="replace")
    wire = head + tail
    parser = HttpParser("request")
    messages, pos = [], 0
    try:
        for size in cuts + [len(wire)]:
            messages.extend(parser.feed(wire[pos:pos + size]))
            pos += size
    except HttpParseError:
        return
    sent = head[len(b"POST /p HTTP/1.1\r\nContent-Length: "):-4]
    digits = sent.decode("latin-1").strip()
    assert digits.isascii() and digits.isdigit(), "int() took what [0-9]+ does not"
    need = int(digits)
    if len(tail) < need:
        # a body in progress is counted and hashed, never buffered
        assert messages == [] and parser.buffered == 0
        assert parser.body_received == len(tail)
        return
    (parsed,) = messages
    assert parsed.message.body == tail[:need]
    assert parsed.wire_bytes == len(head) + need
    assert bytes(parser._buf) == tail[need:]
