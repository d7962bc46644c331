"""HTTP message model and serialization."""

import pytest

from repro.errors import HttpError
from repro.http import message, parser
from repro.http.parser import HttpParser
from repro.http.message import (
    Headers, HttpRequest, HttpResponse, parse_request_line, parse_status_line,
)


class TestHeaders:
    def test_case_insensitive_get(self):
        h = Headers({"Content-Type": "text/html"})
        assert h.get("content-type") == "text/html"
        assert "CONTENT-TYPE" in h

    def test_set_overwrites_case_insensitively(self):
        h = Headers()
        h.set("Host", "a")
        h.set("host", "b")
        assert h.get("Host") == "b"
        assert len(h) == 1

    def test_serialize_preserves_original_casing(self):
        h = Headers()
        h.set("X-Custom-Header", "v")
        assert b"X-Custom-Header: v\r\n" == h.serialize()

    def test_copy_is_independent(self):
        h = Headers({"A": "1"})
        c = h.copy()
        c.set("A", "2")
        assert h.get("A") == "1"

    def test_parsed_messages_share_header_names_values_and_pairs(self, monkeypatch):
        monkeypatch.setattr(parser, "_LINES", {})  # not one a long run filled
        wire = b"HTTP/1.1 200 OK\r\nServer: Apache/2.2.3\r\nContent-Length: 0\r\n\r\n"
        one, two = (HttpParser("response").feed(wire)[0].message
                    for _ in range(2))
        assert list(one.headers) == list(two.headers)
        for pair1, pair2 in zip(one.headers, two.headers):
            assert pair1 is pair2  # so its name and value are shared too
        keys = zip(one.headers._items, two.headers._items)
        assert [k1 is k2 for k1, k2 in keys] == [True] * 2
        assert one.version is two.version and one.reason is two.reason

    def test_set_on_one_parsed_message_leaves_another_unchanged(self, monkeypatch):
        monkeypatch.setattr(parser, "_LINES", {})  # so the two share pairs
        wire = b"HTTP/1.1 200 OK\r\nServer: Apache/2.2.3\r\nContent-Length: 0\r\n\r\n"
        one, two = (HttpParser("response").feed(wire)[0].message.headers
                    for _ in range(2))
        one.set("server", "nginx")
        one.set("X-Added", "1")
        assert one.get("Server") == "nginx" and one.get("X-Added") == "1"
        assert list(two) == [("Server", "Apache/2.2.3"), ("Content-Length", "0")]
        three = HttpParser("response").feed(wire)[0].message.headers
        assert three.get("Server") == "Apache/2.2.3"

    def test_a_flood_of_new_names_is_not_remembered(self, monkeypatch):
        monkeypatch.setattr(message, "_NAMES", {})  # leave the real one be
        h = Headers()
        for i in range(3 * message._NAMES_MAX):
            h.set(f"X-Flood-{i}", "v")
        assert len(message._NAMES) <= message._NAMES_MAX
        assert len(h) == 3 * message._NAMES_MAX
        assert h.get("x-flood-700") == "v"
        assert b"X-Flood-700: v\r\n" in h.serialize()


class TestHttpRequest:
    def test_serialize_roundtrip_shape(self):
        req = HttpRequest("get", "/x", host="example.com")
        wire = req.serialize()
        assert wire.startswith(b"GET /x HTTP/1.1\r\n")
        assert b"Host: example.com\r\n" in wire
        assert wire.endswith(b"\r\n\r\n")

    def test_url_combines_host_and_path(self):
        req = HttpRequest("GET", "/a/b.jpg", host="mysite.com")
        assert req.url == "mysite.com/a/b.jpg"

    def test_body_sets_content_length(self):
        req = HttpRequest("POST", "/", body=b"12345")
        assert req.headers.get("Content-Length") == "5"

    def test_cookie_parsing(self):
        req = HttpRequest("GET", "/", headers={"Cookie": "a=1; session=xyz; b=2"})
        assert req.cookie("session") == "xyz"
        assert req.cookie("missing") is None

    def test_no_cookie_header(self):
        req = HttpRequest("GET", "/")
        assert req.cookie("a") is None


class TestHttpResponse:
    def test_default_reason(self):
        assert HttpResponse(200).reason == "OK"
        assert HttpResponse(404).reason == "Not Found"

    def test_ok_property(self):
        assert HttpResponse(204).ok
        assert not HttpResponse(500).ok

    def test_content_length_always_set(self):
        resp = HttpResponse(200, body=b"abc")
        assert resp.headers.get("Content-Length") == "3"

    def test_serialize_shape(self):
        wire = HttpResponse(200, body=b"hi").serialize()
        assert wire.startswith(b"HTTP/1.1 200 OK\r\n")
        assert wire.endswith(b"\r\n\r\nhi")


class TestStartLines:
    def test_parse_request_line(self):
        assert parse_request_line(b"GET /x HTTP/1.0") == ("GET", "/x", "HTTP/1.0")

    def test_parse_request_line_rejects_garbage(self):
        with pytest.raises(HttpError):
            parse_request_line(b"GET /x")
        with pytest.raises(HttpError):
            parse_request_line(b"GET /x FTP/1.0")

    def test_parse_status_line(self):
        assert parse_status_line(b"HTTP/1.1 404 Not Found") == ("HTTP/1.1", 404, "Not Found")

    def test_parse_status_line_no_reason(self):
        assert parse_status_line(b"HTTP/1.1 200") == ("HTTP/1.1", 200, "")

    def test_parse_status_line_rejects_garbage(self):
        with pytest.raises(HttpError):
            parse_status_line(b"HTTP/1.1 abc OK")
        with pytest.raises(HttpError):
            parse_status_line(b"FTP/1.1 200 OK")
