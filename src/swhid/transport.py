"""The one GET path to the archive, on http.client.

Only http and https URLs are opened, redirects included; bodies are read
within a bound; transport errors and 5xx are retried with backoff; and
connections are kept alive and reused. swhid.resolve imports this module
on first use, so commands that never touch the network do not load it.
"""
from __future__ import annotations

import atexit
import base64
import functools
import os
import threading
import urllib.request
from string import punctuation
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from typing import Callable, Optional, Tuple
from urllib.parse import quote, unquote, urljoin, urlsplit

from .errors import NotFoundInArchiveError, TransportError

_SCHEMES = ("http", "https")
# urlopen's redirect rules: at most 10 hops, and at most 4 to one URL.
_REDIRECTS = (301, 302, 303, 307, 308)
_MAX_HOPS = 10
_MAX_REPEATS = 4


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
    """
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


def _connect(route, timeout: float):
    """An unconnected HTTP(S)Connection for route.

    Through a proxy, https is tunnelled with CONNECT and TLS still checks
    the target host; http goes to the proxy itself.
    """
    scheme, host, port, proxy = route
    if proxy is None:
        cls = HTTPSConnection if scheme == "https" else HTTPConnection
        return cls(host, port, timeout=timeout)
    proxy_scheme, proxy_host, auth = proxy
    if scheme == "https":
        conn = HTTPSConnection(proxy_host, timeout=timeout)
        conn.set_tunnel(host, port, {"Proxy-Authorization": auth} if auth else None)
        return conn
    cls = HTTPSConnection if proxy_scheme == "https" else HTTPConnection
    return cls(proxy_host, timeout=timeout)


def _exchange(url: str, timeout: float, limit: Optional[int]):
    """GET url once, without following a redirect.

    Returns (status, Location header, body); the body is read for a 2xx
    only, and is None when it is over limit bytes. The connection goes
    back to the pool only after a 2xx whose body was read to its end, and
    only if the server keeps it open; any other outcome closes it. A
    pooled connection that the server closed while it was idle fails
    before any response byte arrives: the request is then sent once more
    on a fresh connection.
    """
    parts = urlsplit(url)
    proxy = _proxy(parts.scheme, parts.netloc)
    route = (parts.scheme, parts.hostname, parts.port, proxy)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    headers = {"User-Agent": "swhid"}
    if proxy is not None and parts.scheme == "http":
        target = f"http://{parts.netloc}{target}"  # absolute form
        if proxy[2]:
            headers["Proxy-Authorization"] = proxy[2]
    conn = _take(route)
    while True:
        reused = conn is not None
        if reused:
            conn.sock.settimeout(timeout)
        else:
            conn = _connect(route, timeout)
        try:
            conn.request("GET", target, headers=headers)
            response = conn.getresponse()
            break
        except ConnectionError as exc:
            conn.close()
            if not reused:
                raise
            import logging

            logging.getLogger("swhid").debug(
                "GET %s: pooled connection was closed (%s); opening another",
                url,
                exc,
            )
            conn = None
        except BaseException:
            conn.close()
            raise
    with response:
        try:
            status = response.status
            location = response.headers.get(
                "Location", response.headers.get("URI")
            )
            body = _read(response, limit) if 200 <= status < 300 else None
        except BaseException:
            conn.close()
            raise
    if body is not None and response.isclosed() and not response.will_close:
        _give(route, conn)
    else:
        conn.close()
    return status, location, body


def _follow(url: str, timeout: float, limit: Optional[int]):
    """GET url, following redirects as urlopen does: (status, body).

    A redirect off http(s), past the hop limit or without a Location is
    returned as its 3xx status. Its body is dropped unread: a hostile
    one need not end.
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
            or len(visited) >= _MAX_HOPS
            or visited.get(hop, 0) >= _MAX_REPEATS
        ):
            return status, body
        visited[hop] = visited.get(hop, 0) + 1
        url = hop


def _read(response, limit: Optional[int]) -> Optional[bytes]:
    """The body of response, or None if it is longer than limit bytes.

    At most limit + 1 bytes are read, and a declared length over the limit
    is refused unread. A body shorter than its declared length raises
    http.client.IncompleteRead.
    """
    length = response.length  # None unless the server sent Content-Length
    if limit is None or (length is not None and length <= limit):
        return response.read()
    if length is not None:
        return None
    body = response.read(limit + 1)
    return body if len(body) <= limit else None


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
        except (OSError, HTTPException, ValueError) as exc:
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
