import functools
import json
import logging
import os
import socket
import subprocess
import sys
import threading
import tracemalloc

import pytest
from clirunner import CliRunner
from hypothesis import example, given, settings, strategies as st

import swhid
from swhid.cli import main
from swhid.errors import (
    IntegrityMismatchError,
    NotFoundInArchiveError,
    TransportError,
    TypeContradictionError,
)
from swhid.model import Content, swhid_of
from swhid.resolve import (
    ResolverConfig,
    ResolverKind,
    fetch_content_verified,
    resolve_metadata,
    resolver_url,
)
from swhid.syntax import parse
from swhid.transport import _close_idle, get

CNT = "swh:1:cnt:94a9ed024d3859793618152ea559a168bbcbb5e2"
QUALIFIED = (
    "swh:1:cnt:d5214ff9562a1fe78db51944506ba48c20de3379"
    ";origin=https://gitorious.org/parmap/parmap.git;lines=101-143"
)


def test_archive_web_url():
    assert resolver_url(parse(CNT)) == (
        "https://archive.softwareheritage.org/" + CNT
    )


def test_archive_web_url_keeps_qualifiers():
    assert resolver_url(parse(QUALIFIED)) == (
        "https://archive.softwareheritage.org/" + QUALIFIED
    )


def test_identifiers_org_url_uses_core_form():
    assert resolver_url(parse(QUALIFIED), ResolverKind.IDENTIFIERS_ORG) == (
        "https://identifiers.org/"
        "swh:1:cnt:d5214ff9562a1fe78db51944506ba48c20de3379"
    )


def test_n2t_url_uses_core_form():
    assert resolver_url(parse(CNT), ResolverKind.N2T) == (
        "https://n2t.net/" + CNT
    )


def test_archive_api_url():
    assert resolver_url(parse(CNT), ResolverKind.ARCHIVE_API) == (
        f"https://archive.softwareheritage.org/api/1/resolve/{CNT}/"
    )


def test_resolver_url_refuses_a_kind_it_does_not_know():
    with pytest.raises(ValueError, match="unknown resolver kind 'n2t'"):
        resolver_url(parse(CNT), "n2t")  # the value, not ResolverKind.N2T


def test_resolver_config_overrides():
    config = ResolverConfig(archive_url="https://mirror.example.org/")
    assert resolver_url(parse(CNT), ResolverKind.ARCHIVE_WEB, config) == (
        "https://mirror.example.org/" + CNT
    )


def test_resolve_metadata_known_object(archive):
    swhid = archive.add_content(b"hello\n")
    metadata = resolve_metadata(swhid, archive.endpoint)
    assert metadata.swhid == swhid
    assert metadata.object_type_confirmed
    assert metadata.browse_url.startswith(archive.endpoint)
    assert metadata.fetch_url.endswith(
        f"/api/1/content/sha1_git:{swhid.object_id.hex}/raw/"
    )


def test_resolve_metadata_unknown_object(archive):
    with pytest.raises(NotFoundInArchiveError):
        resolve_metadata(parse(CNT), archive.endpoint)


def test_resolve_metadata_type_contradiction(archive):
    swhid = archive.add_content(b"hello\n", object_type_name="directory")
    with pytest.raises(TypeContradictionError):
        resolve_metadata(swhid, archive.endpoint)


def test_resolve_metadata_retries_transient_failures(archive):
    swhid = archive.add_content(b"hello\n")
    archive.fail_resolve = 2
    naps = []
    metadata = resolve_metadata(
        swhid, archive.endpoint, sleep=naps.append
    )
    assert metadata.object_type_confirmed
    assert naps == [0.5, 1.0]  # exponential backoff between attempts
    assert archive.resolve_requests == 3


def test_resolve_metadata_gives_up_after_retries(archive):
    swhid = archive.add_content(b"hello\n")
    archive.fail_resolve = 99
    naps = []
    with pytest.raises(TransportError):
        resolve_metadata(swhid, archive.endpoint, sleep=naps.append)
    assert len(naps) == 2
    assert archive.resolve_requests == 3


def test_resolve_metadata_connection_refused(archive):
    swhid = archive.add_content(b"hello\n")
    endpoint = archive.endpoint
    archive.close()
    with pytest.raises(TransportError):
        resolve_metadata(swhid, endpoint, sleep=lambda _: None)


def test_fetch_round_trip(archive, gpl3_bytes):
    swhid = archive.add_content(gpl3_bytes)
    assert fetch_content_verified(swhid, archive.endpoint) == gpl3_bytes


def test_fetch_detects_corruption_and_does_not_retry(archive):
    swhid = archive.add_content(b"important bytes\n")
    archive.corrupt_every = 1  # corrupt every response
    naps = []
    with pytest.raises(IntegrityMismatchError) as excinfo:
        fetch_content_verified(swhid, archive.endpoint, sleep=naps.append)
    assert excinfo.value.expected_hex == swhid.object_id.hex
    assert excinfo.value.actual_hex != swhid.object_id.hex
    # A failed check is a result, not a transient fault.
    assert archive.raw_requests == 1
    assert naps == []


def test_fetch_unknown_content(archive):
    with pytest.raises(NotFoundInArchiveError):
        fetch_content_verified(parse(CNT), archive.endpoint)


def test_fetch_retries_5xx_then_succeeds(archive):
    swhid = archive.add_content(b"flaky\n")
    archive.fail_raw = 1
    assert (
        fetch_content_verified(swhid, archive.endpoint, sleep=lambda _: None)
        == b"flaky\n"
    )
    assert archive.raw_requests == 2


def test_fetch_rejects_non_content_identifier(archive):
    with pytest.raises(ValueError):
        fetch_content_verified(
            parse("swh:1:dir:94a9ed024d3859793618152ea559a168bbcbb5e2"),
            archive.endpoint,
        )


def test_resolve_metadata_rejects_non_json(archive):
    swhid = archive.add_content(b"x")
    archive.resolve_body = b"<html>not json</html>"
    with pytest.raises(TransportError):
        resolve_metadata(swhid, archive.endpoint)


def test_resolve_metadata_rejects_deeply_nested_json(archive):
    # 100 KB, well under the 1 MiB body limit, but deeper than json recurses.
    swhid = archive.add_content(b"x")
    archive.resolve_body = b"[" * 100_000
    with pytest.raises(TransportError) as excinfo:
        resolve_metadata(swhid, archive.endpoint)
    url = f"{archive.endpoint}/api/1/resolve/{swhid}/"
    assert str(excinfo.value) == f"GET {url}: body is not JSON"


@pytest.mark.parametrize("body", [b"[]", b"null", b'"x"', b"5"])
def test_resolve_metadata_rejects_json_that_is_not_an_object(archive, body):
    swhid = archive.add_content(b"x")
    archive.resolve_body = body
    with pytest.raises(TransportError) as excinfo:
        resolve_metadata(swhid, archive.endpoint)
    url = f"{archive.endpoint}/api/1/resolve/{swhid}/"
    assert str(excinfo.value) == f"GET {url}: unexpected response shape"
    result = CliRunner().invoke(
        main, ["resolve", "--check", "--endpoint", archive.endpoint, str(swhid)]
    )
    assert (result.exit_code, result.stdout_bytes) == (3, b"")
    assert result.stderr == f"swhid: GET {url}: unexpected response shape\n"


MALFORMED_ENDPOINTS = [
    "foo",
    "file:///etc",
    "ftp://127.0.0.1/",
    "http://[::1",
    "http://127.0.0.1:abc",
]


@pytest.mark.parametrize("endpoint", MALFORMED_ENDPOINTS)
def test_malformed_endpoint_is_transport_error(endpoint):
    with pytest.raises(TransportError):
        resolve_metadata(parse(CNT), endpoint, sleep=lambda _: None)


@pytest.mark.parametrize("endpoint", MALFORMED_ENDPOINTS)
def test_malformed_endpoint_exits_3_without_traceback(endpoint, monkeypatch):
    no_wait = functools.partial(resolve_metadata, sleep=lambda _: None)
    monkeypatch.setattr("swhid.resolve.resolve_metadata", no_wait)
    result = CliRunner().invoke(
        main, ["resolve", "--check", "--endpoint", endpoint, CNT]
    )
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("swhid: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "where, char",
    [
        ("path", " "),
        ("path", "\x00"),
        ("path", "\x7f"),
        ("query", "\x1b"),
        ("query", " "),
        ("host", "\x01"),
        ("host", " "),
        ("host", "\x7f"),
    ],
)
def test_control_characters_never_reach_the_request_line(archive, where, char):
    # The request is refused before a connection opens, with http.client's words.
    host, port = archive.endpoint[len("http://") :].split(":")
    url = {
        "path": f"http://{host}:{port}/api/1/a{char}b/",
        "query": f"http://{host}:{port}/api/1/x/?a{char}b",
        "host": f"http://{host}{char}x:{port}/api/1/x/",
    }[where]
    part = {"path": "/api/1/a{}b/", "query": "/api/1/x/?a{}b", "host": host + "{}x"}[where]
    part = part.format(char)
    with pytest.raises(TransportError) as excinfo:
        get(url, 2.0, 0, 0.0, lambda _: None)
    assert str(excinfo.value) == (
        f"GET {url}: URL can't contain control characters."
        f" {part!r} (found at least {char!r})"
    )
    assert archive.connections == 0


def test_fetch_follows_redirect_and_verifies(archive, gpl3_bytes):
    swhid = archive.add_content(gpl3_bytes)
    archive.redirect_to = archive.endpoint
    moved = archive.endpoint + "/old"
    assert fetch_content_verified(swhid, moved) == gpl3_bytes
    assert archive.redirects == 1
    assert archive.raw_requests == 1


def test_redirected_corruption_is_still_caught(archive):
    swhid = archive.add_content(b"important bytes\n")
    archive.redirect_to = archive.endpoint
    archive.corrupt_every = 1
    with pytest.raises(IntegrityMismatchError):
        fetch_content_verified(swhid, archive.endpoint + "/old")


@pytest.mark.parametrize("target", ["file://", "ftp://127.0.0.1"])
def test_redirect_off_http_is_refused(archive, target):
    swhid = archive.add_content(b"hello\n")
    archive.redirect_to = target
    naps = []
    with pytest.raises(TransportError, match="HTTP 302"):
        fetch_content_verified(
            swhid, archive.endpoint + "/old", sleep=naps.append
        )
    assert archive.redirects == 1
    assert naps == []


@pytest.mark.parametrize(
    "target, redirects",
    [
        ("/old", 5),  # back to the same URL: followed 4 times
        ("/old/old", 11),  # a new URL each time: followed 10 times
    ],
)
def test_redirect_loops_end(archive, target, redirects):
    swhid = archive.add_content(b"hello\n")
    archive.redirect_to = archive.endpoint + target
    naps = []
    with pytest.raises(TransportError, match="HTTP 302"):
        fetch_content_verified(
            swhid, archive.endpoint + "/old", sleep=naps.append
        )
    assert archive.redirects == redirects
    assert naps == []


def test_short_body_is_transport_error_after_retries(archive):
    swhid = archive.add_content(b"the payload\n")
    archive.short_by = 10
    naps = []
    with pytest.raises(TransportError):
        fetch_content_verified(swhid, archive.endpoint, sleep=naps.append)
    assert archive.raw_requests == 3
    assert len(naps) == 2


def test_short_metadata_body_is_transport_error(archive):
    swhid = archive.add_content(b"x")
    archive.short_by = 10
    with pytest.raises(TransportError):
        resolve_metadata(swhid, archive.endpoint, sleep=lambda _: None)
    assert archive.resolve_requests == 3


def test_oversized_metadata_is_refused_unread(archive):
    swhid = archive.add_content(b"x")
    payload = json.dumps(archive.metadata[str(swhid)]).encode()
    archive.resolve_body = payload + b" " * (1 << 20)  # valid JSON, one MiB of spaces
    with pytest.raises(TransportError, match="over 1048576 bytes"):
        resolve_metadata(swhid, archive.endpoint, sleep=lambda _: None)
    assert archive.resolve_requests == 1


def test_metadata_of_exactly_the_limit_is_read(archive):
    swhid = archive.add_content(b"x")
    payload = json.dumps(archive.metadata[str(swhid)]).encode()
    archive.resolve_body = payload + b" " * ((1 << 20) - len(payload))
    assert resolve_metadata(swhid, archive.endpoint).object_type_confirmed


def _peak_memory(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_endless_metadata_is_refused_without_holding_it(archive):
    swhid = archive.add_content(b"x")
    archive.endless = True

    def resolve():
        with pytest.raises(TransportError, match="over 1048576 bytes"):
            resolve_metadata(swhid, archive.endpoint, sleep=lambda _: None)

    assert _peak_memory(resolve) < 4 << 20
    assert archive.resolve_requests == 1


def test_redirect_body_is_not_drained(archive):
    swhid = archive.add_content(b"hello\n")
    archive.redirect_to = archive.endpoint
    archive.endless = True

    def fetch():
        moved = archive.endpoint + "/old"
        assert fetch_content_verified(swhid, moved) == b"hello\n"

    assert _peak_memory(fetch) < 4 << 20
    assert archive.redirects == 1


def test_metadata_naming_another_object_is_a_mismatch(archive):
    swhid = archive.add_content(b"hello\n")
    other = "0" * 40
    archive.metadata[str(swhid)]["object_id"] = other
    with pytest.raises(IntegrityMismatchError) as excinfo:
        resolve_metadata(swhid, archive.endpoint)
    assert excinfo.value.expected_hex == swhid.object_id.hex
    assert excinfo.value.actual_hex == other
    assert str(excinfo.value) == (
        f"archive reports object {other}, expected {swhid.object_id.hex}"
    )


def test_metadata_without_object_id_is_still_confirmed(archive):
    swhid = archive.add_content(b"hello\n")
    del archive.metadata[str(swhid)]["object_id"]
    assert resolve_metadata(swhid, archive.endpoint).object_type_confirmed


def test_fetch_holds_one_copy_of_the_content(archive):
    data = bytes(range(256)) * (1 << 16)  # 16 MiB
    swhid = archive.add_content(data)

    def fetch():
        assert fetch_content_verified(swhid, archive.endpoint) == data

    assert _peak_memory(fetch) <= 1.25 * len(data)


def _lookup(archive, swhid, **kwargs):
    resolve_metadata(swhid, archive.endpoint, **kwargs)
    return fetch_content_verified(swhid, archive.endpoint, **kwargs)


def test_lookups_share_one_connection(keep_alive_archive):
    archive = keep_alive_archive
    swhids = [archive.add_content(b"%d\n" % i) for i in range(20)]
    for i, swhid in enumerate(swhids):
        assert _lookup(archive, swhid) == b"%d\n" % i
    assert archive.connections == 1
    assert archive.resolve_requests == archive.raw_requests == 20


def _missing(archive, swhid):
    with pytest.raises(NotFoundInArchiveError):
        fetch_content_verified(parse(CNT), archive.endpoint)


def _server_error(archive, swhid):
    archive.fail_raw = 1
    with pytest.raises(TransportError, match="HTTP 500"):
        fetch_content_verified(swhid, archive.endpoint, retries=0)


def _redirect(archive, swhid):
    archive.redirect_to = archive.endpoint
    assert fetch_content_verified(swhid, archive.endpoint + "/old")
    archive.redirect_to = None


def _corrupted(archive, swhid):
    archive.corrupt_every = 1
    with pytest.raises(IntegrityMismatchError):
        fetch_content_verified(swhid, archive.endpoint)
    archive.corrupt_every = 0


def _oversized(archive, swhid):
    payload = json.dumps(archive.metadata[str(swhid)]).encode()
    archive.resolve_body = payload + b" " * (1 << 20)
    with pytest.raises(TransportError, match="over 1048576 bytes"):
        resolve_metadata(swhid, archive.endpoint)
    archive.resolve_body = None


@pytest.mark.parametrize(
    "failure, reopens",
    [
        # A 2xx read to its end leaves its connection pooled; anything else
        # closes it, so the next lookup opens one.
        (_missing, 1),
        (_server_error, 1),
        (_redirect, 0),
        (_corrupted, 0),
        (_oversized, 1),
    ],
    ids=lambda value: getattr(value, "__name__", "").strip("_") or None,
)
def test_next_lookup_succeeds_after_a_failure(keep_alive_archive, failure, reopens):
    archive = keep_alive_archive
    swhid = archive.add_content(b"the payload\n")
    assert _lookup(archive, swhid) == b"the payload\n"
    failure(archive, swhid)
    before = archive.connections
    assert _lookup(archive, swhid) == b"the payload\n"
    assert archive.connections - before == reopens


def test_dropped_idle_connection_is_replaced_without_a_retry(
    keep_alive_archive, caplog
):
    archive = keep_alive_archive
    archive.drop = True
    swhid = archive.add_content(b"the payload\n")
    naps = []
    with caplog.at_level(logging.DEBUG, logger="swhid"):
        for _ in range(5):
            assert _lookup(archive, swhid, sleep=naps.append) == b"the payload\n"
    assert naps == []
    assert archive.resolve_requests == archive.raw_requests == 5
    assert archive.connections == 10
    stale = [r for r in caplog.records if "pooled connection" in r.getMessage()]
    assert len(stale) == 9
    assert {r.levelno for r in stale} == {logging.DEBUG}


def test_concurrent_lookups_each_get_verified_bytes(keep_alive_archive):
    archive = keep_alive_archive
    contents = [b"content %d\n" % i * (i + 1) for i in range(40)]
    swhids = [archive.add_content(data) for data in contents]
    wrong = []

    def worker(offset):
        for i in range(offset, len(swhids), 4):
            if _lookup(archive, swhids[i]) != contents[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert archive.raw_requests == len(swhids)


def test_forked_child_opens_its_own_connection(keep_alive_archive):
    archive = keep_alive_archive
    swhid = archive.add_content(b"the payload\n")
    assert _lookup(archive, swhid) == b"the payload\n"
    pid = os.fork()
    if pid == 0:
        try:
            ok = _lookup(archive, swhid) == b"the payload\n"
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert archive.connections == 2
    assert _lookup(archive, swhid) == b"the payload\n"
    assert archive.connections == 2  # the parent's pooled one still serves


def test_retries_are_logged(archive, caplog):
    swhid = archive.add_content(b"hello\n")
    archive.fail_resolve = 2
    with caplog.at_level(logging.INFO, logger="swhid"):
        resolve_metadata(swhid, archive.endpoint, sleep=lambda _: None)
    url = f"{archive.endpoint}/api/1/resolve/{swhid}/"
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("swhid", logging.INFO, f"GET {url}: HTTP 500; attempt 2 of 3 in 0.5 s"),
        ("swhid", logging.INFO, f"GET {url}: HTTP 500; attempt 3 of 3 in 1 s"),
    ]


# ROADMAP item 8's archive-responses surface: a scripted server answers every
# request with one generated response; verified bytes or one of three errors
# must come out, never another exception or a wrong body.
SCRIPTED = b"scripted content\n"
SCRIPTED_ID = swhid_of(Content(SCRIPTED))
SCRIPTED_PAYLOAD = json.dumps(
    {"object_type": "content", "object_id": SCRIPTED_ID.object_id.hex}
).encode()


class _Scripted:
    """A raw-socket server: each connection gets render(true body, base URL), then EOF."""

    def __init__(self, render):
        self.render = render
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.endpoint = "http://127.0.0.1:%d" % self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:  # closed
                return
            with conn:
                request = b""
                while b"\r\n\r\n" not in request:
                    data = conn.recv(65536)
                    if not data:
                        break
                    request += data
                path = request.split(b" ", 2)[1] if request.count(b" ") >= 2 else b""
                body = SCRIPTED_PAYLOAD if path.startswith(b"/api/1/resolve/") else SCRIPTED
                try:
                    conn.sendall(self.render(body, self.endpoint))
                    conn.shutdown(socket.SHUT_WR)
                except OSError:  # the client hung up first
                    pass

    def close(self):
        self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()
        self.thread.join(timeout=5)
        _close_idle()
        assert not self.thread.is_alive()


_STATUS_LINES = {
    "valid": "HTTP/1.1 {code} Reason",
    "http/1.0": "HTTP/1.0 {code} Reason",
    "unknown version": "HTTP/2.0 {code} Reason",
    "bad code": "HTTP/1.1 2x0 Reason",
    "short code": "HTTP/1.1 99 Reason",
    "no reason": "HTTP/1.1 {code}",
    "over 64 KiB": "HTTP/1.1 {code} " + "x" * 65536,
}
_LENGTHS = ("true", "short", "long", "huge", "past maxsize", "absent", "non-digit", "two values")
_CHUNKS = (None, "good", "non-hex", "negative", "huge", "truncated")
_BODIES = ("equal", "altered", "truncated")
_LOCATIONS = (
    None,
    "/api/1/content/sha1_git:%s/raw/" % SCRIPTED_ID.object_id.hex,
    "{base}/api/1/resolve/%s/" % SCRIPTED_ID,
    "ftp://127.0.0.1/x",
    "http:///no-host",
    "http://:1/no-host",
)


def _response(status, code, continued, length, chunks, close, pad, location, mutation):
    def render(body: bytes, base: str) -> bytes:
        if mutation == "altered":
            body = bytes([body[0] ^ 0xFF]) + body[1:]
        elif mutation == "truncated":
            body = body[: len(body) // 2]
        headers = [_STATUS_LINES[status].format(code=code)]
        headers += [f"X-Pad-{i}: {i}" for i in range(101 if pad else 0)]
        declared = {"true": len(body), "short": len(body) - 3, "long": len(body) + 5,
                    "huge": 1000000000000000, "past maxsize": 99999999999999999999}
        if length in declared:
            headers.append(f"Content-Length: {declared[length]}")
        elif length == "non-digit":
            headers.append("Content-Length: 1e3")
        elif length == "two values":
            headers += [f"Content-Length: {len(body)}", f"Content-Length: {len(body) + 7}"]
        if close:
            headers.append("Connection: close")
        if location is not None:
            headers.append("Location: " + location.format(base=base))
        payload = body
        if chunks is not None:
            headers.append("Transfer-Encoding: chunked")
            size = {"good": b"%x", "non-hex": b"zz", "negative": b"-%x",
                    "huge": b"fffffffffffffffffffff"}.get(chunks, b"%x")
            half = len(body) // 2
            payload = b"".join(
                (size % len(part) if b"%" in size else size) + b"\r\n" + part + b"\r\n"
                for part in (body[:half], body[half:])
            ) + b"0\r\n\r\n"
            if chunks == "truncated":
                payload = payload[: len(payload) // 2]
        head = "".join(line + "\r\n" for line in headers) + "\r\n"
        preamble = b"HTTP/1.1 100 Continue\r\n\r\n" if continued else b""
        return preamble + head.encode("latin-1") + payload

    return render


@settings(max_examples=60, deadline=None)
@example(  # a redirect to a URL without a host is not followed, and is no TypeError
    status="valid",
    code=302,
    continued=False,
    length="true",
    chunks=None,
    close=False,
    pad=False,
    location="http://:1/no-host",
    mutation="equal",
)
# A declared length or chunk size that no read can hold: read(n) allocates n
# bytes first, and fails at once with MemoryError or OverflowError.
@example(status="valid", code=200, continued=False, length="huge", chunks=None, close=False,
         pad=False, location=None, mutation="equal")
@example(status="valid", code=200, continued=False, length="past maxsize", chunks=None,
         close=False, pad=False, location=None, mutation="equal")
@example(status="valid", code=200, continued=False, length="absent", chunks="huge",
         close=False, pad=False, location=None, mutation="equal")
@given(
    status=st.sampled_from(sorted(_STATUS_LINES)),
    code=st.sampled_from([200, 200, 204, 302, 404, 500]),
    continued=st.booleans(),
    length=st.sampled_from(_LENGTHS),
    chunks=st.sampled_from(_CHUNKS),
    close=st.booleans(),
    pad=st.booleans(),
    location=st.sampled_from(_LOCATIONS),
    mutation=st.sampled_from(_BODIES),
)
def test_hostile_response_gives_verified_bytes_or_an_archive_error(**script):
    server = _Scripted(_response(**script))
    archive_errors = (TransportError, NotFoundInArchiveError, IntegrityMismatchError)
    calls = {"timeout": 2.0, "retries": 0, "sleep": lambda _: None}
    try:
        try:
            data = fetch_content_verified(SCRIPTED_ID, server.endpoint, **calls)
        except archive_errors:
            pass
        else:
            assert data == SCRIPTED
        try:
            metadata = resolve_metadata(SCRIPTED_ID, server.endpoint, **calls)
        except archive_errors:
            pass
        else:
            assert (metadata.swhid, metadata.object_type_confirmed) == (SCRIPTED_ID, True)
    finally:
        server.close()


@pytest.mark.parametrize(
    "length, chunks", [("huge", None), ("past maxsize", None), ("absent", "huge")]
)
def test_unholdable_declared_length_exits_3(tmp_path, length, chunks):
    # Metadata is served whole; only the content fetch declares the length.
    true = _response("valid", 200, False, "true", None, False, False, None, "equal")
    hostile = _response("valid", 200, False, length, chunks, False, False, None, "equal")
    server = _Scripted(
        lambda body, base: (true if body == SCRIPTED_PAYLOAD else hostile)(body, base)
    )
    src = os.path.dirname(os.path.dirname(swhid.__file__))
    try:
        child = subprocess.run(
            [sys.executable, "-m", "swhid.cli", "resolve", "--check", "--fetch",
             str(tmp_path / "out"), "--endpoint", server.endpoint, str(SCRIPTED_ID)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        server.close()
    assert child.returncode == 3, child.stderr
    assert child.stderr.startswith("swhid: GET ")
    assert "Traceback" not in child.stderr
    assert not (tmp_path / "out").exists()


def _fetch_scripted(render) -> bytes:
    """fetch_content_verified's bytes from a _Scripted server answering with render."""
    server = _Scripted(render)
    try:
        return fetch_content_verified(
            SCRIPTED_ID, server.endpoint, timeout=2.0, retries=0, sleep=lambda _: None
        )
    finally:
        server.close()


def test_trailer_lines_after_the_last_chunk_are_dropped():
    def render(body: bytes, base: str) -> bytes:
        head = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        return head + b"%x\r\n%s\r\n0\r\nX-Checksum: 1\r\nX-Other: 2\r\n\r\n" % (len(body), body)

    assert _fetch_scripted(render) == SCRIPTED


def test_a_fresh_connection_closed_before_its_head_is_a_transport_error():
    # A pooled connection would be replaced and the request sent again; a fresh one is not.
    with pytest.raises(TransportError, match="Remote end closed connection without response"):
        _fetch_scripted(lambda body, base: b"")


def test_a_proxy_given_as_host_port_speaks_the_target_scheme(archive, monkeypatch):
    for name in [name for name in os.environ if name.lower().endswith("_proxy")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("http_proxy", archive.endpoint.split("://", 1)[1])  # no scheme
    swhid = archive.add_content(b"proxied\n")
    try:
        metadata = resolve_metadata(swhid, "http://archive.invalid", retries=0)
    finally:
        _close_idle()
    assert metadata.swhid == swhid
    assert archive.proxied == 1
