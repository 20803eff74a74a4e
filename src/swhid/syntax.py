"""Parsing, validation, and canonical formatting of swh identifiers.

An identifier names one node of the Merkle DAG:

    swh:1:cnt:94a9ed024d3859793618152ea559a168bbcbb5e2

optionally followed by ``;``-separated context qualifiers (``origin=<url>``,
``lines=N`` or ``lines=N-M``). Parsing is strict by default; validate()
returns the full list of diagnostics instead of stopping at the first error.
"""
from __future__ import annotations

import enum
import re
from operator import attrgetter
from typing import Optional, Union

from .errors import SwhidError

__all__ = [
    "ObjectType",
    "ObjectId",
    "CoreSwhid",
    "LineRange",
    "QualifiedSwhid",
    "DiagnosticKind",
    "ParseDiagnostic",
    "SwhidParseError",
    "parse",
    "format_swhid",
    "validate",
]

SCHEMA_VERSION = 1

# Each rule's pattern, written once for the per-field checks and the canonical form.
_HEX = "0-9a-f"  # a lowercase hex digit, as the body of a character class
_SCHEME = r"[A-Za-z][A-Za-z0-9+.\-]*:"
# In a str pattern \s matches exactly the characters str.isspace() accepts.
_ORIGIN_FORBIDDEN = r"\s\x00-\x1f\x7f"
_RANGE = r"({0})(?:-({0}))?"  # a line number, or two joined by '-'
_HEX_RE = re.compile(rf"\A[{_HEX}A-F]{{40}}\Z")
_LINES_RE = re.compile(rf"\A{_RANGE.format('[0-9]+')}\Z")
_SCHEME_RE = re.compile(rf"\A{_SCHEME}")
_ORIGIN_FORBIDDEN_RE = re.compile(f"[{_ORIGIN_FORBIDDEN}]")
# Version, type and id; a group is None where the identifier is truncated.
_CORE_RE = re.compile(r"swh:([^:]*)(?::([^:]*)(?::([^;]*))?)?")

_setattr = object.__setattr__


class _Value:
    """Base of the frozen value types, whose fields are their __slots__.

    Equal only within one class, and then by fields; hashed by fields; set
    once by each class's own __init__, or through _setters by a builder that
    checked the fields itself; copied and pickled by calling the class.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if cls.__dict__.get("__slots__"):  # else a subclass that adds no field
            cls._fields = cls.__slots__
            # One C call per comparison or hash, not a Python loop over the fields.
            cls._key = attrgetter(*cls.__slots__)
            # Each slot's own setter, which skips __setattr__ below, for a value built unchecked.
            cls._setters = [getattr(cls, name).__set__ for name in cls.__slots__]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


class ObjectType(enum.Enum):
    """The five node kinds, valued by their identifier tag."""

    CONTENT = "cnt"
    DIRECTORY = "dir"
    REVISION = "rev"
    RELEASE = "rel"
    SNAPSHOT = "snp"

    @property
    def long_name(self) -> str:
        return self.name.lower()

    @classmethod
    def from_long_name(cls, name: str) -> "ObjectType":
        try:
            return _LONG_NAMES[name]
        except KeyError:
            raise ValueError(f"unknown object type name {name!r}") from None


# Each member by its identifier tag (as the scanner reads it) and by its long name.
_TAGS = {member.value: member for member in ObjectType}
_LONG_NAMES = {member.long_name: member for member in ObjectType}
# The canonical form, clean in either mode; its line numbers fit any int() digit limit.
_CANONICAL_RE = re.compile(
    rf"swh:{SCHEMA_VERSION}:({'|'.join(_TAGS)}):([{_HEX}]{{40}})"
    rf"(?:;origin=({_SCHEME}[^;{_ORIGIN_FORBIDDEN}]*))?"
    rf"(?:;lines={_RANGE.format('[1-9][0-9]{0,17}')})?\Z"
)


class ObjectId(_Value):
    """A 20-byte intrinsic object id (sha1 of the object's manifest)."""

    __slots__ = ("raw",)

    def __init__(self, raw: bytes):
        if not isinstance(raw, bytes) or len(raw) != 20:
            raise ValueError("object id must be exactly 20 bytes")
        _setattr(self, "raw", raw)

    @classmethod
    def from_hex(cls, hex_digits: str) -> "ObjectId":
        if not _HEX_RE.match(hex_digits):
            raise ValueError("object id must be 40 hex digits")
        return cls(bytes.fromhex(hex_digits))

    @property
    def hex(self) -> str:
        return self.raw.hex()

    def __str__(self) -> str:
        return self.hex


class CoreSwhid(_Value):
    """A bare identifier: scheme version, object type, object id."""

    __slots__ = ("object_type", "object_id", "schema_version")

    def __init__(
        self, object_type: ObjectType, object_id: ObjectId, schema_version: int = SCHEMA_VERSION
    ):
        if schema_version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {schema_version!r}")
        _setattr(self, "object_type", object_type)
        _setattr(self, "object_id", object_id)
        _setattr(self, "schema_version", schema_version)

    def __str__(self) -> str:
        return f"swh:{self.schema_version}:{self.object_type.value}:{self.object_id.raw.hex()}"


class LineRange(_Value):
    """1-indexed inclusive line selection inside a content object.

    ``end is None`` selects the single line ``start``. ``end == start`` is
    distinct from that (it round-trips as ``N-N``, not ``N``).
    """

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: Optional[int] = None):
        if start < 1 or (end is not None and end < 1):
            raise ValueError("line numbers are 1-indexed")
        if end is not None and end < start:
            raise ValueError(f"line range end {end} precedes start {start}")
        _setattr(self, "start", start)
        _setattr(self, "end", end)

    def __str__(self) -> str:
        if self.end is None:
            return str(self.start)
        return f"{self.start}-{self.end}"


def _origin_problem(url: str) -> Optional[str]:
    """Return a message if url is not usable as an origin qualifier."""
    if not url:
        return "origin URL is empty"
    if ";" in url:
        return "origin URL may not contain ';'"
    if _ORIGIN_FORBIDDEN_RE.search(url):
        return "origin URL may not contain whitespace or control characters"
    if not _SCHEME_RE.match(url):
        return "origin URL lacks a scheme"
    return None


class QualifiedSwhid(_Value):
    """A core identifier plus optional origin and line-range context."""

    __slots__ = ("core", "origin", "lines")

    def __init__(
        self, core: CoreSwhid, origin: Optional[str] = None, lines: Optional[LineRange] = None
    ):
        if origin is not None:
            problem = _origin_problem(origin)
            if problem:
                raise ValueError(problem)
        _setattr(self, "core", core)
        _setattr(self, "origin", origin)
        _setattr(self, "lines", lines)

    @property
    def object_type(self) -> ObjectType:
        return self.core.object_type

    @property
    def object_id(self) -> ObjectId:
        return self.core.object_id

    def __str__(self) -> str:
        # Canonical emission order: origin before lines.
        text = str(self.core)
        if self.origin is not None:
            text = f"{text};origin={self.origin}"
        if self.lines is not None:
            text = f"{text};lines={self.lines}"
        return text


class DiagnosticKind(enum.Enum):
    BAD_PREFIX = "bad-prefix"
    UNSUPPORTED_VERSION = "unsupported-version"
    BAD_TYPE = "bad-type"
    BAD_HEX = "bad-hex"
    BAD_QUALIFIER = "bad-qualifier"
    BAD_LINE_RANGE = "bad-line-range"
    # Warnings: the input is accepted but is not in canonical form.
    UPPERCASE_HEX = "uppercase-hex"
    QUALIFIER_ORDER = "qualifier-order"
    UNKNOWN_QUALIFIER = "unknown-qualifier"


_WARNING_KINDS = frozenset(
    {
        DiagnosticKind.UPPERCASE_HEX,
        DiagnosticKind.QUALIFIER_ORDER,
        DiagnosticKind.UNKNOWN_QUALIFIER,
    }
)


class ParseDiagnostic(_Value):
    """One problem found in an identifier string.

    byte_offset is the UTF-8 offset of the start of the offending field.
    """

    __slots__ = ("byte_offset", "kind", "message")

    def __init__(self, byte_offset: int, kind: DiagnosticKind, message: str):
        _setattr(self, "byte_offset", byte_offset)
        _setattr(self, "kind", kind)
        _setattr(self, "message", message)

    @property
    def is_warning(self) -> bool:
        return self.kind in _WARNING_KINDS

    def __str__(self) -> str:
        severity = "warning" if self.is_warning else "error"
        return f"{severity} at byte {self.byte_offset}: {self.message}"


class SwhidParseError(SwhidError):
    """Raised by parse() for the first error-level diagnostic."""

    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class _Invalid(Exception):
    """A qualifier value that breaks its rule; args are (DiagnosticKind, message)."""


def _origin(value: str) -> str:
    problem = _origin_problem(value)
    if problem:
        raise _Invalid(DiagnosticKind.BAD_QUALIFIER, problem)
    return value


def _line_number(digits: str) -> int:
    # Leading zeros do not count against int()'s digit limit: the rule is on the value.
    return int(digits.lstrip("0") or "0")


def _lines(value: str) -> "tuple[int, Optional[int]]":
    match = _LINES_RE.match(value)
    if not match:
        raise _Invalid(DiagnosticKind.BAD_QUALIFIER, f"malformed line range {value!r}")
    start, end = match.groups()
    try:
        bounds = _line_number(start), None if end is None else _line_number(end)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise _Invalid(DiagnosticKind.BAD_LINE_RANGE, "line number is too large") from None
    try:
        LineRange(*bounds)  # for its checks alone: the value is built from the bounds
    except ValueError as exc:
        raise _Invalid(DiagnosticKind.BAD_LINE_RANGE, str(exc)) from None
    return bounds


# Each known qualifier's checker, in canonical order; keys are QualifiedSwhid fields.
_QUALIFIERS = {"origin": _origin, "lines": _lines}


_new = object.__new__
(_set_raw,) = ObjectId._setters
_set_object_type, _set_object_id, _set_schema_version = CoreSwhid._setters
_set_start, _set_end = LineRange._setters
_set_core, _set_origin, _set_lines = QualifiedSwhid._setters


def _accept(object_type, hex_digits: str, origin, bounds) -> QualifiedSwhid:
    """The value of fields that are checked already, so no constructor checks them again."""
    object_id = _new(ObjectId)
    _set_raw(object_id, bytes.fromhex(hex_digits))
    core = _new(CoreSwhid)
    _set_object_type(core, object_type)
    _set_object_id(core, object_id)
    _set_schema_version(core, SCHEMA_VERSION)
    lines = None
    if bounds is not None:
        lines = _new(LineRange)
        _set_start(lines, bounds[0])
        _set_end(lines, bounds[1])
    value = _new(QualifiedSwhid)
    _set_core(value, core)
    _set_origin(value, origin)
    _set_lines(value, lines)
    return value


def _add(diags: list, text: str, at: int, kind: DiagnosticKind, message: str) -> None:
    """Append a diagnostic for the field at character index at, by its UTF-8 byte offset."""
    diags.append(ParseDiagnostic(len(text[:at].encode("utf-8", "replace")), kind, message))


def _scan(text: str, permissive: bool, build: bool) -> "tuple[Optional[QualifiedSwhid], list]":
    """Single-pass scanner shared by parse() and validate(); only parse() has it build a value."""
    # Text in the canonical form is accepted by one match. Other text, and a range in that
    # form whose end is below its start, is scanned field by field: only the scanner reports.
    canonical = _CANONICAL_RE.match(text)
    if canonical is not None:
        tag, hex_digits, origin, start, end = canonical.groups()
        bounds = None if start is None else (int(start), None if end is None else int(end))
        if end is None or bounds[1] >= bounds[0]:
            return (_accept(_TAGS[tag], hex_digits, origin, bounds) if build else None), []
    diags: list[ParseDiagnostic] = []
    core = _CORE_RE.match(text)
    if core is None:
        _add(diags, text, 0, DiagnosticKind.BAD_PREFIX, "identifier must start with 'swh:'")
        return None, diags
    version, type_token, hex_part = core.groups()
    if type_token is None:
        message = "identifier truncated before the object type"
        _add(diags, text, len(text), DiagnosticKind.BAD_TYPE, message)
        return None, diags
    if version != "1":
        message = f"unsupported schema version {version!r} (expected '1')"
        _add(diags, text, 4, DiagnosticKind.UNSUPPORTED_VERSION, message)
    if hex_part is None:
        message = "identifier truncated before the object id"
        _add(diags, text, len(text), DiagnosticKind.BAD_HEX, message)
        return None, diags

    object_type = _TAGS.get(type_token)
    if object_type is None:
        message = f"unknown object type {type_token!r} (expected cnt, dir, rev, rel, or snp)"
        _add(diags, text, core.start(2), DiagnosticKind.BAD_TYPE, message)
    if not _HEX_RE.match(hex_part):
        if len(hex_part) != 40:
            message = f"object id must be 40 hex digits, got {len(hex_part)}"
        else:
            message = "object id contains non-hex characters"
        _add(diags, text, core.start(3), DiagnosticKind.BAD_HEX, message)
    elif hex_part != hex_part.lower():
        message = "object id uses non-canonical uppercase hex digits"
        _add(diags, text, core.start(3), DiagnosticKind.UPPERCASE_HEX, message)

    found: dict = {}
    # The core ends at the end of the text or at the ';' before the first qualifier.
    at = core.end() + 1
    for segment in text[at:].split(";") if at <= len(text) else ():
        key, equals, value = segment.partition("=")
        if not segment:
            _add(diags, text, at, DiagnosticKind.BAD_QUALIFIER, "empty qualifier")
        elif not equals:
            message = f"qualifier {segment!r} is not of the form key=value"
            _add(diags, text, at, DiagnosticKind.BAD_QUALIFIER, message)
        elif key not in _QUALIFIERS and permissive:
            message = f"unknown qualifier key {key!r} ignored"
            _add(diags, text, at, DiagnosticKind.UNKNOWN_QUALIFIER, message)
        elif key not in _QUALIFIERS:
            _add(diags, text, at, DiagnosticKind.BAD_QUALIFIER, f"unknown qualifier key {key!r}")
        elif key in found:
            _add(diags, text, at, DiagnosticKind.BAD_QUALIFIER, f"duplicate {key} qualifier")
        else:
            try:
                found[key] = _QUALIFIERS[key](value)
            except _Invalid as exc:
                _add(diags, text, at, *exc.args)
            else:
                last = [k for k in _QUALIFIERS if k in found][-1]
                if last != key:
                    message = f"non-canonical qualifier order ({key} belongs before {last})"
                    _add(diags, text, at, DiagnosticKind.QUALIFIER_ORDER, message)
        at += len(segment) + 1

    if not build or (diags and any(not d.is_warning for d in diags)):
        return None, diags
    return _accept(object_type, hex_part, found.get("origin"), found.get("lines")), diags


def parse(text: str, permissive: bool = False) -> QualifiedSwhid:
    """Parse an identifier, raising SwhidParseError on the first error.

    Warnings (uppercase hex, non-canonical qualifier order, unknown keys
    under permissive=True) do not fail the parse; the returned value is
    normalized, so str(parse(text)) is the canonical form.
    """
    value, diags = _scan(text, permissive, True)
    if value is None:
        raise SwhidParseError(next(d for d in diags if not d.is_warning))
    return value


def validate(text: str, permissive: bool = False) -> "list[ParseDiagnostic]":
    """Return every diagnostic for text, in input order. Empty means clean."""
    return _scan(text, permissive, False)[1]


def format_swhid(value: Union[QualifiedSwhid, CoreSwhid]) -> str:
    """Render an identifier in canonical form."""
    return str(value)
