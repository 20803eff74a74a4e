"""Resolver URL construction and verified archive access.

The archive is untrusted transport: anything fetched is re-hashed locally
and compared against the requested identifier before it is handed to the
caller, so a tampering or corrupting middlebox cannot slip modified bytes
through. Integrity failures are results, not transient faults, and are
never retried.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import json
import time
from typing import Callable, Optional, Union
from urllib.parse import urlsplit

from .errors import (
    IntegrityMismatchError,
    NotFoundInArchiveError,
    TransportError,
    TypeContradictionError,
)
from .model import Content, content_id
from .syntax import CoreSwhid, ObjectType, QualifiedSwhid

__all__ = [
    "ResolverKind",
    "ResolverConfig",
    "DEFAULT_CONFIG",
    "ResolvedMetadata",
    "resolver_url",
    "resolve_metadata",
    "fetch_content_verified",
]


class ResolverKind(enum.Enum):
    ARCHIVE_WEB = "archive-web"
    ARCHIVE_API = "archive-api"
    IDENTIFIERS_ORG = "identifiers-org"
    N2T = "n2t"


@dataclasses.dataclass(frozen=True)
class ResolverConfig:
    """Endpoint shapes. Frozen defaults, overridable per call."""

    archive_url: str = "https://archive.softwareheritage.org"
    identifiers_org_url: str = "https://identifiers.org"
    n2t_url: str = "https://n2t.net"
    resolve_path: str = "/api/1/resolve/{swhid}/"
    content_path: str = "/api/1/content/sha1_git:{hex}/raw/"


DEFAULT_CONFIG = ResolverConfig()


@dataclasses.dataclass(frozen=True)
class ResolvedMetadata:
    """What the archive reports about an identifier."""

    swhid: CoreSwhid
    object_type_confirmed: bool
    browse_url: Optional[str] = None
    fetch_url: Optional[str] = None


def resolver_url(
    swhid: Union[QualifiedSwhid, CoreSwhid],
    kind: ResolverKind = ResolverKind.ARCHIVE_WEB,
    config: ResolverConfig = DEFAULT_CONFIG,
) -> str:
    """Build the resolution URL for an identifier. No network involved.

    The archive web resolver accepts full identifiers with qualifiers;
    Identifiers.org and N2T take the core form only.
    """
    core = swhid.core if isinstance(swhid, QualifiedSwhid) else swhid
    if kind is ResolverKind.ARCHIVE_WEB:
        return f"{config.archive_url.rstrip('/')}/{swhid}"
    if kind is ResolverKind.ARCHIVE_API:
        path = config.resolve_path.format(swhid=core)
        return f"{config.archive_url.rstrip('/')}{path}"
    if kind is ResolverKind.IDENTIFIERS_ORG:
        return f"{config.identifiers_org_url.rstrip('/')}/{core}"
    if kind is ResolverKind.N2T:
        return f"{config.n2t_url.rstrip('/')}/{core}"
    raise ValueError(f"unknown resolver kind {kind!r}")


_SCHEMES = ("http", "https")
# A resolve payload is a few hundred bytes; a hostile archive must not be
# able to make the client hold an endless one.
_METADATA_LIMIT = 1 << 20


@functools.lru_cache(maxsize=None)
def _opener():
    """One opener per process, as urlopen keeps, for http and https only.

    Building one reads the *_proxy variables and costs ~0.6 ms, about as
    much as a whole GET from a local archive. With no file, ftp or data
    handler installed, no other scheme can be opened, and a redirect to
    one is refused.
    """
    import urllib.request
    from urllib.error import HTTPError

    class Redirects(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            if urlsplit(newurl).scheme not in _SCHEMES:
                raise HTTPError(
                    newurl, code, f"redirect to {newurl} refused", headers, fp
                )
            # urllib drains a redirect's body before following it; a
            # hostile one need not end, so it is dropped unread instead.
            fp.close()
            return super().redirect_request(
                req, fp, code, msg, headers, newurl
            )

    opener = urllib.request.OpenerDirector()
    for handler in (
        urllib.request.ProxyHandler(),
        urllib.request.HTTPHandler(),
        urllib.request.HTTPSHandler(),
        urllib.request.HTTPDefaultErrorHandler(),
        Redirects(),
        urllib.request.HTTPErrorProcessor(),
    ):
        opener.add_handler(handler)
    return opener


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


def _get(
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
    # Imported here: identify, verify and parse never touch the network,
    # and importing urllib.request would add ~30 ms to their start-up.
    from http.client import HTTPException
    from urllib.error import HTTPError

    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError for a port that is not a number
    except ValueError as exc:
        raise TransportError(f"GET {url}: {exc}") from exc
    if parts.scheme not in _SCHEMES or not parts.hostname:
        raise TransportError(f"GET {url}: not an http or https URL")
    opener = _opener()
    for attempt in range(max(retries, 0) + 1):
        if attempt:
            sleep(backoff * 2 ** (attempt - 1))
        try:
            with opener.open(url, timeout=timeout) as response:
                body = _read(response, limit)
        except HTTPError as exc:
            exc.close()
            status = exc.code
        except (OSError, HTTPException, ValueError) as exc:
            reason = getattr(exc, "reason", exc)
            failure, cause = f"GET {url}: {reason}", exc
            continue
        else:
            if body is None:
                raise TransportError(f"GET {url}: body over {limit} bytes")
            return body
        if status == 404:
            raise NotFoundInArchiveError(f"{url}: not found in archive")
        failure, cause = f"GET {url}: HTTP {status}", None
        if status < 500:
            break
    raise TransportError(failure) from cause


def resolve_metadata(
    swhid: Union[QualifiedSwhid, CoreSwhid],
    endpoint: Optional[str] = None,
    *,
    config: ResolverConfig = DEFAULT_CONFIG,
    timeout: float = 30.0,
    retries: int = 2,
    backoff: float = 0.5,
    sleep: Callable[[float], None] = time.sleep,
) -> ResolvedMetadata:
    """Ask the archive's resolve endpoint what it knows about swhid.

    Raises NotFoundInArchiveError for unknown ids, TypeContradictionError
    when the archive reports the object under a different type,
    IntegrityMismatchError when it reports another object id, and
    TransportError after retries are exhausted or for a body over 1 MiB.
    """
    core = swhid.core if isinstance(swhid, QualifiedSwhid) else swhid
    base = (endpoint or config.archive_url).rstrip("/")
    url = base + config.resolve_path.format(swhid=core)
    body = _get(url, timeout, retries, backoff, sleep, _METADATA_LIMIT)
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise TransportError(f"GET {url}: body is not JSON") from exc
    if not isinstance(payload, dict):
        raise TransportError(f"GET {url}: unexpected response shape")
    reported_id = payload.get("object_id")
    if reported_id is not None and reported_id != core.object_id.hex:
        raise IntegrityMismatchError(
            core.object_id.hex, str(reported_id), claim="archive reports object"
        )
    reported = payload.get("object_type")
    confirmed = False
    if reported is not None:
        expected = core.object_type
        if reported not in (expected.long_name, expected.value):
            raise TypeContradictionError(
                f"archive reports {reported!r},"
                f" identifier says {expected.long_name!r}"
            )
        confirmed = True
    fetch_url = None
    if core.object_type is ObjectType.CONTENT:
        fetch_url = base + config.content_path.format(hex=core.object_id.hex)
    return ResolvedMetadata(
        swhid=core,
        object_type_confirmed=confirmed,
        browse_url=payload.get("browse_url"),
        fetch_url=fetch_url,
    )


def fetch_content_verified(
    swhid: Union[QualifiedSwhid, CoreSwhid],
    endpoint: Optional[str] = None,
    *,
    config: ResolverConfig = DEFAULT_CONFIG,
    timeout: float = 30.0,
    retries: int = 2,
    backoff: float = 0.5,
    sleep: Callable[[float], None] = time.sleep,
) -> bytes:
    """Download a content object and verify it before returning.

    The fetched bytes are re-hashed and compared to the identifier; on
    disagreement IntegrityMismatchError is raised and nothing is returned,
    so callers can only ever observe verified bytes.
    """
    core = swhid.core if isinstance(swhid, QualifiedSwhid) else swhid
    if core.object_type is not ObjectType.CONTENT:
        raise ValueError(
            "only content objects can be fetched as raw bytes,"
            f" got a {core.object_type.long_name} identifier"
        )
    base = (endpoint or config.archive_url).rstrip("/")
    url = base + config.content_path.format(hex=core.object_id.hex)
    data = _get(url, timeout, retries, backoff, sleep)
    actual = content_id(Content(data))
    if actual != core.object_id:
        raise IntegrityMismatchError(core.object_id.hex, actual.hex)
    return data
