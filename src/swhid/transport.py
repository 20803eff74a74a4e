"""The one GET path to the archive: HTTP/1.1 on sockets, framed as http.client frames it.

Only http and https URLs are opened, redirects included; bodies are read
within a bound; transport errors and 5xx are retried with backoff; and
connections are kept alive and reused. swhid.resolve imports this module
on first use, so commands that never touch the network do not load it.
"""
from __future__ import annotations

import atexit
import base64
import functools
import io
import os
import re
import socket
import sys
import threading
from string import hexdigits, punctuation
from typing import Callable, Optional, Tuple
from urllib.parse import quote, unquote, urljoin, urlsplit

from .errors import NotFoundInArchiveError, TransportError

_SCHEMES = ("http", "https")
_PORTS = {"http": 80, "https": 443}
# urlopen's redirect rules: at most 10 hops, and at most 4 to one URL.
_REDIRECTS = (301, 302, 303, 307, 308)
_MAX_HOPS = 10
_MAX_REPEATS = 4
# http.client's bounds on a line and on the lines of a header block, and
# its test for characters that could break the request line.
_MAXLINE = 65536
_MAXHEADERS = 100
_UNSAFE = re.compile("[\x00-\x20\x7f]").search


# At most one idle keep-alive connection per route, (scheme, host, port,
# proxy), in this process. A connection is taken out under the lock, so no
# two threads ever share one.
_idle = {}
_idle_lock = threading.Lock()


def _take(route):
    with _idle_lock:
        return _idle.pop(route, None)


def _give(route, conn) -> None:
    with _idle_lock:
        conn, _idle[route] = _idle.get(route), conn
    if conn is not None:
        conn.close()


def _close_idle() -> None:
    with _idle_lock:
        conns = list(_idle.values())
        _idle.clear()
    for conn in conns:
        conn.close()


atexit.register(_close_idle)
# The lock is held across a fork, so the child's copy is never left
# locked, and the child starts with an empty pool: its parent's sockets
# are not its to use. The hooks are builtin methods, not functions of
# this module: a hook that kept the module alive to the end of shutdown
# made every fetching process take ~1.7 ms longer to exit.
os.register_at_fork(
    before=_idle_lock.acquire,
    after_in_parent=_idle_lock.release,
    after_in_child=_idle_lock.release,
)
os.register_at_fork(after_in_child=_idle.clear)


@functools.lru_cache(maxsize=64)
def _proxy(scheme: str, netloc: str) -> Optional[Tuple[str, str, Optional[str]]]:
    """The proxy urlopen would use for a target, or None to go direct.

    Returns (proxy scheme, proxy host:port, Proxy-Authorization value or
    None). Reading the *_proxy variables costs ~0.2 ms, about as much as a
    whole GET from a local archive, so each target's answer is kept for
    the life of the process, as urlopen keeps its opener.

    Outside macOS and Windows, whose system settings can name a proxy too,
    urllib takes proxies from the environment alone, and only from a
    non-empty variable named <scheme>_proxy in any case. Without one,
    urllib.request, which is slow to import, is not loaded.
    """
    if sys.platform != "darwin" and os.name != "nt":
        variable = f"{scheme}_proxy"
        if not any(value and key.lower() == variable for key, value in os.environ.items()):
            return None
    import urllib.request

    proxy = urllib.request.getproxies().get(scheme)
    if not proxy or urllib.request.proxy_bypass(unquote(netloc)):
        return None
    if "://" not in proxy:  # a bare host:port speaks the target's scheme
        proxy = f"{scheme}://{proxy}"
    parts = urlsplit(proxy)
    auth = None
    if parts.username and parts.password:
        user = f"{unquote(parts.username)}:{unquote(parts.password)}"
        auth = "Basic " + base64.b64encode(user.encode()).decode("ascii")
    return parts.scheme, unquote(parts.netloc.rpartition("@")[2]), auth


class _Socket(io.RawIOBase):
    """A socket as the raw stream under a connection's one reader; tell() counts bytes received."""

    def __init__(self, sock: socket.socket):
        self.sock, self.received = sock, 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        self.received += (count := self.sock.recv_into(buffer))
        return count

    def tell(self) -> int:
        return self.received

    def close(self) -> None:
        super().close()
        self.sock.close()


def _head(conn: io.BufferedReader):
    """(status, reason, Location, chunked, length, close), read as http.client reads them."""
    code = "100"
    while int(code) == 100:  # a status line and its fields, up to a blank line
        lines = []
        while not lines or lines[-1] not in (b"\r\n", b"\n", b""):
            lines.append(conn.readline(_MAXLINE + 1))
            if len(lines[-1]) > _MAXLINE:
                what = "header" if len(lines) > 1 else "status"
                raise ValueError(f"got more than {_MAXLINE} bytes when reading {what} line")
            if len(lines) > _MAXHEADERS + 1:
                raise ValueError(f"got more than {_MAXHEADERS} headers")
        line = lines[0].decode("iso-8859-1")
        if not line:  # a ConnectionError: a pooled connection sends its request again
            raise ConnectionResetError("Remote end closed connection without response")
        version, code, reason = (line.split(None, 2) + ["", "", ""])[:3]
        if not (version.startswith("HTTP/") and code.isdecimal() and 99 < int(code) < 1000):
            raise ValueError(line)
    fields = {}  # the first field of a name counts
    for line in lines[1:]:
        name, _, value = line.decode("iso-8859-1").partition(":")
        fields.setdefault(name.lower(), value.lstrip(" \t").rstrip("\r\n"))
    status, connection = int(code), fields.get("connection", "").lower()
    chunked = fields.get("transfer-encoding", "").lower() == "chunked"
    length = fields.get("content-length", "")
    length = int(length) if length.isdecimal() and not chunked else None  # None: to the end
    length = 0 if status in (204, 304) or status < 200 else length
    if version in ("HTTP/1.0", "HTTP/0.9"):  # kept alive only where the server says so
        connection += " " + fields.get("proxy-connection", "").lower()
        close = not fields.get("keep-alive") and "keep-alive" not in connection
    elif version.startswith("HTTP/1."):
        close = "close" in connection
    else:
        raise ValueError(version)
    close = close or not chunked and length is None  # http.client's will_close
    return status, reason.strip(), fields.get("location", fields.get("uri")), chunked, length, close


def _body(conn: io.BufferedReader, chunked: bool, length: Optional[int], limit: Optional[int]):
    """The body, or None over limit bytes (refused unread if declared); a short body raises."""
    parts, size = [], 0
    while chunked:
        line = conn.readline(_MAXLINE + 1).split(b";", 1)[0].strip()
        chunk = int(line, 16) if line and not line.strip(hexdigits.encode()) else -1
        if chunk == 0:  # the last chunk; its trailer lines are dropped
            while conn.readline(_MAXLINE + 1) not in (b"\r\n", b"\n", b""):
                pass
            return b"".join(parts)
        if limit is not None and size + chunk > limit:
            return None
        parts.append(conn.read(max(chunk, 0)))
        if chunk < 0 or len(parts[-1]) < chunk or len(conn.read(2)) < 2:  # the chunk, its CRLF
            raise ValueError(f"IncompleteRead({size} bytes read)")
        size += chunk
    if length is None:
        body = conn.read(-1 if limit is None else limit + 1)
        return body if limit is None or len(body) <= limit else None
    if limit is not None and length > limit:
        return None
    body = conn.read(length)
    if missing := length - len(body):
        raise ValueError(f"IncompleteRead({len(body)} bytes read, {missing} more expected)")
    return body


@functools.lru_cache(maxsize=None)
def _tls():  # ssl is loaded for https only; one default context checks certificates and hosts
    import ssl

    return ssl.create_default_context()


def _connect(route, timeout: float) -> io.BufferedReader:
    """A new connection for route: through a proxy, https is tunnelled with CONNECT and
    TLS still checks the target host; http goes to the proxy, over TLS to an https one.
    """
    scheme, host, port, proxy = route
    address, tls = (host, port or _PORTS[scheme]), host if scheme == "https" else None
    if proxy is not None:  # its port defaults as in http.client
        at = urlsplit("//" + proxy[1])
        address = (at.hostname, at.port or (443 if "https" in (scheme, proxy[0]) else 80))
        tls = tls or (at.hostname if proxy[0] == "https" else None)
    sock = socket.create_connection(address, timeout)
    conn = io.BufferedReader(_Socket(sock), _MAXLINE)
    try:
        if proxy is not None and scheme == "https":
            auth = f"Proxy-Authorization: {proxy[2]}\r\n" if proxy[2] else ""
            sock.sendall(f"CONNECT {host}:{port or 443} HTTP/1.0\r\n{auth}\r\n".encode("ascii"))
            status, reason, *_ = _head(conn)
            if status != 200:
                raise OSError(f"Tunnel connection failed: {status} {reason}")
        if tls is not None:  # the plain reader goes, with anything it held
            sock = _tls().wrap_socket(sock, server_hostname=tls)
            conn = io.BufferedReader(_Socket(sock), _MAXLINE)
    except BaseException:
        conn.close()
        raise
    return conn


def _exchange(url: str, timeout: float, limit: Optional[int]):
    """GET url once, without following a redirect: (status, Location header, body).

    The body is read for a 2xx only, and is None when it is over limit bytes.
    A URL part with a space or a control character fails before any connection
    opens. Only a 2xx read to its end, with no byte after it, from a server that
    keeps it open, gives the connection back to the pool. A pooled connection
    the server closed while idle fails at once, and the request is sent again.
    """
    parts = urlsplit(url)
    scheme, hostname, port = parts.scheme, parts.hostname, parts.port
    proxy = _proxy(scheme, parts.netloc)
    route = (scheme, hostname, port, proxy)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    host = f"[{hostname}]" if ":" in hostname else hostname
    host += "" if port in (None, _PORTS[scheme]) else f":{port}"
    auth = ""
    if proxy is not None and scheme == "http":  # absolute form, to the proxy
        target, host = f"http://{parts.netloc}{target}", parts.netloc
        auth = f"Proxy-Authorization: {proxy[2]}\r\n" if proxy[2] else ""
    for part in (hostname if proxy is None else proxy[1], target, hostname):
        if found := _UNSAFE(part):
            found = f"{part!r} (found at least {found.group()!r})"
            raise ValueError(f"URL can't contain control characters. {found}")
    host = host if host.isascii() else host.encode("idna").decode("ascii")
    request = f"GET {target} HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"
    request = (request + f"User-Agent: swhid\r\n{auth}\r\n").encode("ascii")
    conn, keep = _take(route), False
    try:
        while True:
            reused = conn is not None
            conn = conn if reused else _connect(route, timeout)
            conn.raw.sock.settimeout(timeout)
            try:
                conn.raw.sock.sendall(request)
                status, _, location, chunked, length, close = _head(conn)
                break
            except ConnectionError as exc:
                if not reused:
                    raise
                conn.close()
                conn = None
                import logging

                message = "GET %s: pooled connection was closed (%s); opening another"
                logging.getLogger("swhid").debug(message, url, exc)
        body = _body(conn, chunked, length, limit) if 200 <= status < 300 else None
        keep = body is not None and not close and conn.tell() == conn.raw.received
    finally:
        if keep:
            _give(route, conn)
        elif conn is not None:
            conn.close()
    return status, location, body


def _follow(url: str, timeout: float, limit: Optional[int]):
    """GET url, following redirects as urlopen does: (status, body).

    A redirect off http(s) or to no host, past the hop limit or without a
    Location is returned as its 3xx status. Its body is dropped unread: a
    hostile one need not end.
    """
    visited = {}
    while True:
        status, location, body = _exchange(url, timeout, limit)
        if status not in _REDIRECTS or location is None:
            return status, body
        # Headers are decoded as ISO-8859-1; recover and percent-encode
        # the original bytes, as urlopen does.
        location = quote(location, encoding="iso-8859-1", safe=punctuation)
        hop = urljoin(url, location)
        if (
            urlsplit(hop).scheme not in _SCHEMES
            or not urlsplit(hop).hostname
            or len(visited) >= _MAX_HOPS
            or visited.get(hop, 0) >= _MAX_REPEATS
        ):
            return status, body
        visited[hop] = visited.get(hop, 0) + 1
        url = hop


def get(
    url: str,
    timeout: float,
    retries: int,
    backoff: float,
    sleep: Callable[[float], None],
    limit: Optional[int] = None,
) -> bytes:
    """GET url's body, with retries on transport errors and 5xx only.

    404 is a definitive answer (NotFoundInArchive). Other 4xx, a redirect
    that is not followed, a body over limit bytes and a URL that is not
    http or https are reported as transport failures without retrying,
    since repeating the request cannot help.
    """
    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError for a port that is not a number
    except ValueError as exc:
        raise TransportError(f"GET {url}: {exc}") from exc
    if parts.scheme not in _SCHEMES or not parts.hostname:
        raise TransportError(f"GET {url}: not an http or https URL")
    attempts = max(retries, 0) + 1
    for attempt in range(attempts):
        if attempt:
            delay = backoff * 2 ** (attempt - 1)
            import logging

            logging.getLogger("swhid").info(
                "%s; attempt %d of %d in %g s", failure, attempt + 1, attempts, delay
            )
            sleep(delay)
        try:
            status, body = _follow(url, timeout, limit)
        except (OSError, ValueError) as exc:
            failure, cause = f"GET {url}: {exc}", exc
            continue
        if 200 <= status < 300:
            if body is None:
                raise TransportError(f"GET {url}: body over {limit} bytes")
            return body
        if status == 404:
            raise NotFoundInArchiveError(f"{url}: not found in archive")
        failure, cause = f"GET {url}: HTTP {status}", None
        if status < 500:
            break
    raise TransportError(failure) from cause
