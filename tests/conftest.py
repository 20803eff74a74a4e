import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from swhid import Content, swhid_of
from gitoracle import GitOracle

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def gpl3_bytes() -> bytes:
    return (DATA_DIR / "gpl-3.0.txt").read_bytes()


@pytest.fixture
def oracle(tmp_path) -> GitOracle:
    return GitOracle(tmp_path / "oracle-repo")


@pytest.fixture(scope="session")
def session_oracle(tmp_path_factory) -> GitOracle:
    # One repo shared by hot loops; git object reuse is harmless here.
    return GitOracle(tmp_path_factory.mktemp("oracle") / "repo")


class _ArchiveHandler(BaseHTTPRequestHandler):
    def setup(self):
        super().setup()
        archive = self.server.archive
        archive.connections += 1
        archive._sockets.append(self.connection)

    def log_message(self, *args):
        pass

    def handle(self):
        # A client that closes a kept-alive connection with a response
        # unread resets it; that is the behaviour under test, not a fault.
        try:
            super().handle()
        except ConnectionError:
            pass

    def _write(self, data: bytes) -> bool:
        # A client that stops reading early closes its end; that is the
        # behaviour under test, not a server fault.
        try:
            self.wfile.write(data)
        except ConnectionError:
            return False
        return True

    def _send(self, status: int, body: bytes, content_type: str, **headers):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        length = len(body) + self.server.archive.short_by
        self.send_header("Content-Length", str(length))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self._write(body)

    def _send_endless(self, status: int, content_type: str, **headers):
        archive = self.server.archive
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        chunk = b" " * 65536
        while archive.endless_sent < archive.ENDLESS_CAP:
            if not self._write(chunk):
                return
            archive.endless_sent += len(chunk)

    def do_CONNECT(self):
        archive = self.server.archive
        archive.tunnels.append(self.path)
        archive.proxy_auth.append(self.headers.get("Proxy-Authorization"))
        self._send(403, b"no tunnels here", "text/plain")

    def do_GET(self):
        archive = self.server.archive
        if archive.drop:  # close after this response, without saying so
            self.close_connection = True
        path = self.path
        if not path.startswith("/"):  # absolute form: asked as a proxy
            archive.proxied += 1
            archive.proxy_auth.append(self.headers.get("Proxy-Authorization"))
            path = urlsplit(path).path
        if archive.redirect_to is not None and path.startswith("/old/"):
            archive.redirects += 1
            location = archive.redirect_to + path[len("/old") :]
            if archive.endless:
                self._send_endless(302, "text/plain", Location=location)
            else:
                self._send(302, b"moved", "text/plain", Location=location)
        elif path.startswith("/api/1/resolve/"):
            archive.resolve_requests += 1
            if archive.fail_resolve > 0:
                archive.fail_resolve -= 1
                self._send(500, b"boom", "text/plain")
                return
            if archive.garbage_resolve:
                self._send(200, b"<html>not json</html>", "text/html")
                return
            if archive.endless:
                self._send_endless(200, "application/json")
                return
            key = path[len("/api/1/resolve/") :].rstrip("/")
            payload = archive.metadata.get(key)
            if payload is None:
                self._send(404, b"{}", "application/json")
                return
            body = json.dumps(payload).encode() + b" " * archive.resolve_padding
            self._send(200, body, "application/json")
        elif path.startswith("/api/1/content/sha1_git:") and path.endswith(
            "/raw/"
        ):
            archive.raw_requests += 1
            if archive.fail_raw > 0:
                archive.fail_raw -= 1
                self._send(500, b"boom", "text/plain")
                return
            hex_id = path[len("/api/1/content/sha1_git:") : -len("/raw/")]
            data = archive.contents.get(hex_id)
            if data is None:
                self._send(404, b"not found", "text/plain")
                return
            if (
                archive.corrupt_every
                and archive.raw_requests % archive.corrupt_every == 0
            ):
                data = archive.corrupt(data)
            self._send(200, data, "application/octet-stream")
        else:
            self._send(404, b"not found", "text/plain")


class _KeepAliveHandler(_ArchiveHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle's algorithm the
    # body of a response on a reused connection would wait ~40 ms for the
    # client's delayed ACK.
    disable_nagle_algorithm = True


class MockArchive:
    """Stand-in for the archive REST API on 127.0.0.1.

    contents maps content hex ids to raw bytes; metadata maps core
    identifier strings to resolve-endpoint payloads. corrupt_every=N flips
    a byte in every Nth raw response; fail_raw/fail_resolve serve that
    many 500s before succeeding.

    Hostile modes: redirect_to=BASE answers every /old/PATH with a 302 to
    BASE/PATH; short_by=N declares N more bytes than each body holds;
    resolve_padding=N appends N spaces to resolve payloads; and endless
    streams resolve and redirect bodies without a length until the client
    hangs up (or ENDLESS_CAP bytes, so a client that reads it all still
    ends).

    A request in absolute form (GET http://host/path) is served as if it
    were for /path and counted in proxied, so the archive doubles as a
    forward proxy in front of any host name; a CONNECT is refused with a
    403. Both record their Proxy-Authorization header in proxy_auth, and
    CONNECT its target in tunnels.

    The archive answers in HTTP/1.0 and closes each connection, which
    short_by relies on. keep_alive=True answers in HTTP/1.1 and keeps
    connections open; drop=True then closes each one after its response
    without a Connection: close header, as a server does that drops idle
    connections. connections counts the connections accepted.
    """

    ENDLESS_CAP = 64 << 20

    def __init__(self, keep_alive: bool = False):
        self.contents = {}
        self.metadata = {}
        self.corrupt_every = 0
        self.fail_raw = 0
        self.fail_resolve = 0
        self.garbage_resolve = False
        self.redirect_to = None
        self.short_by = 0
        self.resolve_padding = 0
        self.endless = False
        self.endless_sent = 0
        self.redirects = 0
        self.raw_requests = 0
        self.resolve_requests = 0
        self.proxied = 0
        self.proxy_auth = []
        self.tunnels = []
        self.drop = False
        self.connections = 0
        self._sockets = []
        handler = _KeepAliveHandler if keep_alive else _ArchiveHandler
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self._server.archive = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(0.05,), daemon=True
        )
        self._thread.start()

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    @staticmethod
    def corrupt(data: bytes) -> bytes:
        if not data:
            return b"\x00"
        return bytes([data[0] ^ 0xFF]) + data[1:]

    def add_content(self, data: bytes, object_type_name: str = "content"):
        """Register bytes plus matching resolve metadata; return the id."""
        swhid = swhid_of(Content(data))
        self.contents[swhid.object_id.hex] = data
        self.metadata[str(swhid)] = {
            "object_type": object_type_name,
            "object_id": swhid.object_id.hex,
            "browse_url": f"{self.endpoint}/browse/{swhid}",
        }
        return swhid

    def close(self):
        self._server.shutdown()
        self._server.server_close()
        # A kept-alive connection would otherwise stay served by this
        # archive after a later one took over its port.
        for sock in self._sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


@pytest.fixture
def archive():
    server = MockArchive()
    yield server
    server.close()


@pytest.fixture
def keep_alive_archive():
    server = MockArchive(keep_alive=True)
    yield server
    server.close()
