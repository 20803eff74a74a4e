"""Mock archive REST API for the `archive` workload, run as a child process.

    python3 perfbench/archive_server.py SEED

It serves the seeded contents of gen.archive_set(SEED) on 127.0.0.1, prints
its port on one line, and serves until its stdin closes; it then prints its
counters as one JSON line and exits. HTTP/1.1 keep-alive, Nagle off, and
each response goes out in a single write: on a reused connection, separate
header and body writes wait on the client's delayed ACK, which would swamp
any gain from reusing connections.
"""
from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402

RESOLVE = "/api/1/resolve/"
RAW = "/api/1/content/sha1_git:"


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        self.server.count("connections")

    def log_message(self, *args):
        pass

    def _reply(self, status: int, body: bytes, content_type: str) -> None:
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        self.wfile.write(head + body)

    def do_GET(self):
        server = self.server
        if self.path.startswith(RESOLVE):
            core = self.path[len(RESOLVE) :].rstrip("/")
            hexid = core.rpartition(":")[2]
            if core.startswith("swh:1:cnt:") and hexid in server.contents:
                server.count("resolve_ok")
                payload = {"object_type": "content", "object_id": hexid, "browse_url": f"/browse/{core}/"}
                self._reply(200, json.dumps(payload).encode(), "application/json")
            else:
                server.count("resolve_not_found")
                self._reply(404, b"{}", "application/json")
        elif self.path.startswith(RAW) and self.path.endswith("/raw/"):
            hexid = self.path[len(RAW) : -len("/raw/")]
            data = server.contents.get(hexid)
            if data is None:
                server.count("raw_not_found")
                self._reply(404, b"not found", "text/plain")
            elif hexid in server.corrupted:
                server.count("raw_corrupted")
                self._reply(200, bytes([data[0] ^ 0xFF]) + data[1:], "application/octet-stream")
            else:
                server.count("raw_ok")
                self._reply(200, data, "application/octet-stream")
        else:
            server.count("other")
            self._reply(404, b"not found", "text/plain")


class ArchiveServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, seed: int):
        super().__init__(("127.0.0.1", 0), Handler)
        sample = gen.archive_set(seed)
        self.contents = sample.contents
        self.corrupted = set(sample.corrupted)
        self.counters = {}
        self._lock = threading.Lock()

    def count(self, key: str) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + 1


def main() -> None:
    server = ArchiveServer(int(sys.argv[1]))
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()
    server.shutdown()
    thread.join()
    server.server_close()
    print(json.dumps(server.counters), flush=True)


if __name__ == "__main__":
    main()
