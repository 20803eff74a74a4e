import sys

import pytest
from hypothesis import example, given, strategies as st

from swhid.errors import SwhidError
from swhid.syntax import (
    CoreSwhid,
    DiagnosticKind,
    LineRange,
    ObjectId,
    ObjectType,
    QualifiedSwhid,
    SwhidParseError,
    format_swhid,
    parse,
    validate,
)

# Identifiers published by the archive, used as known-good fixtures.
KNOWN_IDS = [
    "swh:1:cnt:94a9ed024d3859793618152ea559a168bbcbb5e2",
    "swh:1:dir:d198bc9d7a6bcf6db04f476d29314f157507d505",
    "swh:1:rev:309cf2674ee7a0749978cf8265ab91a60aea0f7d",
    "swh:1:rel:22ece559cc7cc2364edc5e5593d63ae8bd229f9f",
    "swh:1:snp:c7c108084bc0bf3d81436bf980b46e98bd338453",
    "swh:1:rev:0064fbd0ad69de205ea6ec6999f3d3895e9442c2",
    "swh:1:cnt:41ddb23118f92d7218099a5e7a990cf58f1d07fa;lines=64-72",
    "swh:1:dir:c6f07c2173a458d098de45d4c459a8f1916d900f"
    ";origin=https://github.com/id-Software/Quake-III-Arena",
    "swh:1:cnt:d5214ff9562a1fe78db51944506ba48c20de3379"
    ";origin=https://gitorious.org/parmap/parmap.git;lines=101-143",
]

HEX = "94a9ed024d3859793618152ea559a168bbcbb5e2"


def test_parse_core_identifier():
    value = parse(f"swh:1:cnt:{HEX}")
    assert value.core.schema_version == 1
    assert value.object_type is ObjectType.CONTENT
    assert value.object_id.hex == HEX
    assert value.origin is None
    assert value.lines is None


@pytest.mark.parametrize("text", KNOWN_IDS)
def test_known_identifiers_round_trip(text):
    assert str(parse(text)) == text
    assert validate(text) == []


def test_parse_extracts_qualifiers():
    value = parse(
        "swh:1:cnt:d5214ff9562a1fe78db51944506ba48c20de3379"
        ";origin=https://gitorious.org/parmap/parmap.git;lines=101-143"
    )
    assert value.origin == "https://gitorious.org/parmap/parmap.git"
    assert value.lines == LineRange(101, 143)


def test_parse_single_line_qualifier():
    value = parse(f"swh:1:cnt:{HEX};lines=9")
    assert value.lines == LineRange(9, None)
    assert str(value).endswith(";lines=9")


@pytest.mark.parametrize(
    "text,kind,offset",
    [
        ("", DiagnosticKind.BAD_PREFIX, 0),
        ("swhid:1:cnt:" + HEX, DiagnosticKind.BAD_PREFIX, 0),
        ("SWH:1:cnt:" + HEX, DiagnosticKind.BAD_PREFIX, 0),
        ("swh:2:cnt:" + HEX, DiagnosticKind.UNSUPPORTED_VERSION, 4),
        ("swh:01:cnt:" + HEX, DiagnosticKind.UNSUPPORTED_VERSION, 4),
        ("swh:1:xyz:" + HEX, DiagnosticKind.BAD_TYPE, 6),
        ("swh:1:CNT:" + HEX, DiagnosticKind.BAD_TYPE, 6),
        ("swh:1:cnt:" + HEX[:-1], DiagnosticKind.BAD_HEX, 10),
        ("swh:1:cnt:" + HEX + "0", DiagnosticKind.BAD_HEX, 10),
        ("swh:1:cnt:" + "g" * 40, DiagnosticKind.BAD_HEX, 10),
        ("swh:1:cnt", DiagnosticKind.BAD_HEX, 9),
        ("swh:1", DiagnosticKind.BAD_TYPE, 5),
        (f"swh:1:cnt:{HEX};", DiagnosticKind.BAD_QUALIFIER, 51),
        (f"swh:1:cnt:{HEX};origin", DiagnosticKind.BAD_QUALIFIER, 51),
        (f"swh:1:cnt:{HEX};origin=", DiagnosticKind.BAD_QUALIFIER, 51),
        (f"swh:1:cnt:{HEX};origin=ftp.example.org", DiagnosticKind.BAD_QUALIFIER, 51),
        (f"swh:1:cnt:{HEX};lines=", DiagnosticKind.BAD_QUALIFIER, 51),
        (f"swh:1:cnt:{HEX};lines=a-b", DiagnosticKind.BAD_QUALIFIER, 51),
        (f"swh:1:cnt:{HEX};lines=0", DiagnosticKind.BAD_LINE_RANGE, 51),
        (f"swh:1:cnt:{HEX};lines=0-4", DiagnosticKind.BAD_LINE_RANGE, 51),
        (f"swh:1:cnt:{HEX};lines=9-4", DiagnosticKind.BAD_LINE_RANGE, 51),
        (f"swh:1:cnt:{HEX};lines=5-0", DiagnosticKind.BAD_LINE_RANGE, 51),
        (f"swh:1:cnt:{HEX};lines=4-5-6", DiagnosticKind.BAD_QUALIFIER, 51),
        (f"swh:1:cnt:{HEX};color=red", DiagnosticKind.BAD_QUALIFIER, 51),
        (
            f"swh:1:cnt:{HEX};origin=https://a.org;origin=https://b.org",
            DiagnosticKind.BAD_QUALIFIER,
            72,
        ),
        (
            f"swh:1:cnt:{HEX};lines=1;lines=2",
            DiagnosticKind.BAD_QUALIFIER,
            59,
        ),
        pytest.param(
            f"swh:1:cnt:{HEX};lines=" + "1" * 4301,
            DiagnosticKind.BAD_LINE_RANGE,
            51,
            id="lines-4301-digits",
        ),
    ],
)
def test_parse_rejects(text, kind, offset):
    with pytest.raises(SwhidParseError) as excinfo:
        parse(text)
    assert excinfo.value.diagnostic.kind is kind
    assert excinfo.value.diagnostic.byte_offset == offset


def test_parse_error_is_package_error():
    with pytest.raises(SwhidError):
        parse("nope")


def test_uppercase_hex_accepted_with_warning():
    text = "swh:1:cnt:" + HEX.upper()
    diagnostics = validate(text)
    assert [d.kind for d in diagnostics] == [DiagnosticKind.UPPERCASE_HEX]
    assert all(d.is_warning for d in diagnostics)
    value = parse(text)
    assert value.object_id.hex == HEX
    assert str(value) == "swh:1:cnt:" + HEX


def test_lines_before_origin_accepted_with_warning():
    text = f"swh:1:cnt:{HEX};lines=2-3;origin=https://example.org/repo"
    diagnostics = validate(text)
    assert [d.kind for d in diagnostics] == [DiagnosticKind.QUALIFIER_ORDER]
    value = parse(text)
    # Canonical form puts origin first.
    assert str(value) == (
        f"swh:1:cnt:{HEX};origin=https://example.org/repo;lines=2-3"
    )


def test_unknown_qualifier_dropped_in_permissive_mode():
    text = f"swh:1:cnt:{HEX};visit=3"
    with pytest.raises(SwhidParseError):
        parse(text)
    value = parse(text, permissive=True)
    assert str(value) == f"swh:1:cnt:{HEX}"
    diagnostics = validate(text, permissive=True)
    assert [d.kind for d in diagnostics] == [DiagnosticKind.UNKNOWN_QUALIFIER]


def test_validate_collects_every_diagnostic():
    diagnostics = validate("swh:3:xyz:beef")
    kinds = [d.kind for d in diagnostics]
    assert kinds == [
        DiagnosticKind.UNSUPPORTED_VERSION,
        DiagnosticKind.BAD_TYPE,
        DiagnosticKind.BAD_HEX,
    ]
    assert [d.byte_offset for d in diagnostics] == [4, 6, 10]


def test_validate_clean_input_returns_nothing():
    assert validate(f"swh:1:dir:{HEX}") == []


def test_diagnostic_offsets_count_utf8_bytes():
    # A two-byte character in the origin shifts later offsets.
    text = f"swh:1:cnt:{HEX};origin=https://é.org;lines=0"
    diagnostics = [d for d in validate(text) if not d.is_warning]
    assert diagnostics[0].kind is DiagnosticKind.BAD_LINE_RANGE
    assert diagnostics[0].byte_offset == len(
        f"swh:1:cnt:{HEX};origin=https://é.org;".encode("utf-8")
    )


def test_format_core():
    core = CoreSwhid(ObjectType.DIRECTORY, ObjectId.from_hex(HEX))
    assert format_swhid(core) == f"swh:1:dir:{HEX}"


def test_format_emits_origin_before_lines():
    value = QualifiedSwhid(
        core=CoreSwhid(ObjectType.CONTENT, ObjectId.from_hex(HEX)),
        origin="https://example.org/x",
        lines=LineRange(4, 7),
    )
    assert format_swhid(value) == (
        f"swh:1:cnt:{HEX};origin=https://example.org/x;lines=4-7"
    )


def test_line_range_formats():
    assert str(LineRange(5)) == "5"
    assert str(LineRange(5, 5)) == "5-5"
    assert str(LineRange(5, 9)) == "5-9"
    # N and N-N are distinct values and both round-trip.
    assert parse(f"swh:1:cnt:{HEX};lines=5-5").lines == LineRange(5, 5)
    assert str(parse(f"swh:1:cnt:{HEX};lines=5-5")) == (
        f"swh:1:cnt:{HEX};lines=5-5"
    )


def test_object_id_constructors():
    assert ObjectId.from_hex(HEX).hex == HEX
    with pytest.raises(ValueError):
        ObjectId.from_hex(HEX[:-2])
    with pytest.raises(ValueError):
        ObjectId.from_hex(HEX.replace("9", "x"))
    with pytest.raises(ValueError):
        ObjectId(b"short")
    assert str(ObjectId.from_hex(HEX)) == HEX


def test_core_swhid_rejects_other_versions():
    with pytest.raises(ValueError):
        CoreSwhid(ObjectType.CONTENT, ObjectId.from_hex(HEX), schema_version=2)


def test_line_range_invariants():
    with pytest.raises(ValueError):
        LineRange(0)
    with pytest.raises(ValueError):
        LineRange(5, 4)


def test_origin_constructor_validation():
    core = CoreSwhid(ObjectType.CONTENT, ObjectId.from_hex(HEX))
    with pytest.raises(ValueError, match="^origin URL may not contain ';'$"):
        QualifiedSwhid(core=core, origin="https://a.org/x;y")
    with pytest.raises(ValueError):
        QualifiedSwhid(core=core, origin="no-scheme.org/x")
    with pytest.raises(ValueError):
        QualifiedSwhid(core=core, origin="https://a.org/a b")
    with pytest.raises(ValueError):
        QualifiedSwhid(core=core, origin="")


def test_object_type_names():
    assert ObjectType.SNAPSHOT.long_name == "snapshot"
    for member in ObjectType:
        assert ObjectType.from_long_name(member.long_name) is member
    for name in ("blob", "CONTENT", "cnt"):
        with pytest.raises(ValueError, match=f"^unknown object type name '{name}'$"):
            ObjectType.from_long_name(name)


_types = st.sampled_from(list(ObjectType))
_ids = st.binary(min_size=20, max_size=20).map(ObjectId)
_origins = st.from_regex(
    r"https?://[a-z0-9\-]{1,12}\.[a-z]{2,5}(/[A-Za-z0-9._\-]{1,8}){0,3}",
    fullmatch=True,
)
_lines = st.builds(
    lambda start, extra: LineRange(
        start, None if extra is None else start + extra
    ),
    st.integers(min_value=1, max_value=10**6),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10**4)),
)
_qualified = st.builds(
    QualifiedSwhid,
    core=st.builds(CoreSwhid, _types, _ids),
    origin=st.one_of(st.none(), _origins),
    lines=st.one_of(st.none(), _lines),
)


@given(_qualified)
def test_round_trip_property(value):
    text = str(value)
    assert parse(text) == value
    assert validate(text) == []


@st.composite
def _one_edit(draw):
    """A qualified id with one character inserted or deleted, or truncated."""
    text = str(draw(_qualified))
    at = draw(st.integers(min_value=0, max_value=len(text)))
    edit = draw(st.sampled_from(["insert", "delete", "truncate"]))
    if edit == "insert":
        char = draw(st.one_of(st.sampled_from(":;=-0aAg/ é"), st.characters()))
        return text[:at] + char + text[at:]
    if edit == "delete":
        return text[:at] + text[at + 1:]
    return text[:at]


@given(st.one_of(st.text(max_size=120), _one_edit()))
@example("swh:2:cnt")  # two errors, so only the first may be raised
@example(f"swh:1:cnt:{HEX[:20]};{HEX[20:]};lines=3")
def test_parse_agrees_with_validate(text):
    # parse raises if and only if validate lists an error, and then raises
    # the first one; what parse accepts, validate lists only warnings for.
    for permissive in (False, True):
        found = validate(text, permissive=permissive)
        errors = [d for d in found if not d.is_warning]
        try:
            value = parse(text, permissive=permissive)
        except SwhidParseError as exc:
            assert errors and exc.diagnostic == errors[0]
            continue
        assert not errors
        # Anything accepted must re-parse to the same normalized value.
        assert parse(str(value), permissive=permissive) == value


P = f"swh:1:cnt:{HEX}"  # 50 characters; a first qualifier starts at byte 51
ORIGIN_BAD_CHAR = "origin URL may not contain whitespace or control characters"

# Every diagnostic the scanner emits, as (byte offset, kind value, message),
# and the canonical form (None when the identifier is rejected). These rows
# hold no unknown qualifier key, so strict and permissive scans agree.
DIAGNOSTIC_ROWS = [
    ("", [(0, "bad-prefix", "identifier must start with 'swh:'")], None),
    ("swh:1", [(5, "bad-type", "identifier truncated before the object type")], None),
    # A missing type is reported alone: the bad version is not checked.
    ("swh:2", [(5, "bad-type", "identifier truncated before the object type")], None),
    (
        "swh:2:cnt",
        [
            (4, "unsupported-version", "unsupported schema version '2' (expected '1')"),
            (9, "bad-hex", "identifier truncated before the object id"),
        ],
        None,
    ),
    (
        "swh::",
        [
            (4, "unsupported-version", "unsupported schema version '' (expected '1')"),
            (5, "bad-hex", "identifier truncated before the object id"),
        ],
        None,
    ),
    (
        "swh:1:xyz:" + HEX,
        [(6, "bad-type", "unknown object type 'xyz' (expected cnt, dir, rev, rel, or snp)")],
        None,
    ),
    ("swh:1:cnt:" + HEX[:-1], [(10, "bad-hex", "object id must be 40 hex digits, got 39")], None),
    ("swh:1:cnt:", [(10, "bad-hex", "object id must be 40 hex digits, got 0")], None),
    ("swh:1:cnt:ab:cd", [(10, "bad-hex", "object id must be 40 hex digits, got 5")], None),
    ("swh:1:cnt:" + "g" * 40, [(10, "bad-hex", "object id contains non-hex characters")], None),
    (
        "swh:1:cnt:" + HEX.upper(),
        [(10, "uppercase-hex", "object id uses non-canonical uppercase hex digits")],
        P,
    ),
    # Digits alone have no case: clean, with no uppercase-hex warning.
    ("swh:1:cnt:" + "0" * 40, [], "swh:1:cnt:" + "0" * 40),
    (
        "swh:2:cnt:" + HEX.upper(),
        [
            (4, "unsupported-version", "unsupported schema version '2' (expected '1')"),
            (10, "uppercase-hex", "object id uses non-canonical uppercase hex digits"),
        ],
        None,
    ),
    # The type is the three-letter tag, in lowercase only.
    (
        "swh:1:content:" + HEX,
        [(6, "bad-type", "unknown object type 'content' (expected cnt, dir, rev, rel, or snp)")],
        None,
    ),
    (
        "swh:1:CNT:" + HEX,
        [(6, "bad-type", "unknown object type 'CNT' (expected cnt, dir, rev, rel, or snp)")],
        None,
    ),
    (
        "swh:3:xyz:beef",
        [
            (4, "unsupported-version", "unsupported schema version '3' (expected '1')"),
            (6, "bad-type", "unknown object type 'xyz' (expected cnt, dir, rev, rel, or snp)"),
            (10, "bad-hex", "object id must be 40 hex digits, got 4"),
        ],
        None,
    ),
    # Offsets count UTF-8 bytes; a lone surrogate counts as one byte.
    (
        "swh:é:\udce9:beef;lines=0",
        [
            (4, "unsupported-version", "unsupported schema version 'é' (expected '1')"),
            (7, "bad-type",
             "unknown object type '\\udce9' (expected cnt, dir, rev, rel, or snp)"),
            (9, "bad-hex", "object id must be 40 hex digits, got 4"),
            (14, "bad-line-range", "line numbers are 1-indexed"),
        ],
        None,
    ),
    (
        P + ";origin=https://é.org/\udce9;lines=0",
        [(75, "bad-line-range", "line numbers are 1-indexed")],
        None,
    ),
    (P + ";", [(51, "bad-qualifier", "empty qualifier")], None),
    (P + ";;lines=3", [(51, "bad-qualifier", "empty qualifier")], None),
    (
        P + ";lines=3;;origin=https://a.org;",
        [
            (59, "bad-qualifier", "empty qualifier"),
            (60, "qualifier-order", "non-canonical qualifier order (origin belongs before lines)"),
            (81, "bad-qualifier", "empty qualifier"),
        ],
        None,
    ),
    (
        P + ";origin",
        [(51, "bad-qualifier", "qualifier 'origin' is not of the form key=value")],
        None,
    ),
    (P + ";origin=", [(51, "bad-qualifier", "origin URL is empty")], None),
    (P + ";origin=ftp.example.org", [(51, "bad-qualifier", "origin URL lacks a scheme")], None),
    (P + ";origin==https://a.org", [(51, "bad-qualifier", "origin URL lacks a scheme")], None),
    (P + ";origin=https://a.org/a b", [(51, "bad-qualifier", ORIGIN_BAD_CHAR)], None),
    (P + ";origin=https://a.org/\x7f", [(51, "bad-qualifier", ORIGIN_BAD_CHAR)], None),
    # The shortest origin, and a scheme in capitals.
    (P + ";origin=a:", [], P + ";origin=a:"),
    (P + ";origin=HTTPS://x", [], P + ";origin=HTTPS://x"),
    # A trailing newline is no part of a canonical form, after any field.
    (P + "\n", [(10, "bad-hex", "object id must be 40 hex digits, got 41")], None),
    (P + ";origin=https://a.org\n", [(51, "bad-qualifier", ORIGIN_BAD_CHAR)], None),
    (P + ";lines=3\n", [(51, "bad-qualifier", "malformed line range '3\\n'")], None),
    (P + ";origin=https://a.org/ ", [(51, "bad-qualifier", ORIGIN_BAD_CHAR)], None),
    (
        P + ";origin=https://a.org;origin=https://b.org",
        [(72, "bad-qualifier", "duplicate origin qualifier")],
        None,
    ),
    # An invalid first origin does not make the second one a duplicate.
    (
        P + ";origin=a.org;origin=https://b.org",
        [(51, "bad-qualifier", "origin URL lacks a scheme")],
        None,
    ),
    (
        P + ";lines=2;origin=https://a.org",
        [(59, "qualifier-order", "non-canonical qualifier order (origin belongs before lines)")],
        P + ";origin=https://a.org;lines=2",
    ),
    # An invalid lines= is not set, so the origin after it is in order.
    (
        P + ";lines=0;origin=https://a.org",
        [(51, "bad-line-range", "line numbers are 1-indexed")],
        None,
    ),
    (
        P + ";origin=https://a.org;lines=7-9",
        [],
        P + ";origin=https://a.org;lines=7-9",
    ),
    (P + ";lines=1;lines=2", [(59, "bad-qualifier", "duplicate lines qualifier")], None),
    (
        P + ";lines=0;lines=2",
        [(51, "bad-line-range", "line numbers are 1-indexed")],
        None,
    ),
    (P + ";lines=", [(51, "bad-qualifier", "malformed line range ''")], None),
    (P + ";lines=a-b", [(51, "bad-qualifier", "malformed line range 'a-b'")], None),
    (P + ";lines=4-5-6", [(51, "bad-qualifier", "malformed line range '4-5-6'")], None),
    (P + ";lines=٤", [(51, "bad-qualifier", "malformed line range '٤'")], None),
    (P + ";lines=١", [(51, "bad-qualifier", "malformed line range '١'")], None),
    (P + ";lines=0", [(51, "bad-line-range", "line numbers are 1-indexed")], None),
    (P + ";lines=0-4", [(51, "bad-line-range", "line numbers are 1-indexed")], None),
    (P + ";lines=5-0", [(51, "bad-line-range", "line numbers are 1-indexed")], None),
    (P + ";lines=9-4", [(51, "bad-line-range", "line range end 4 precedes start 9")], None),
    (
        P + ";origin=https://a.org;lines=5-3",
        [(72, "bad-line-range", "line range end 3 precedes start 5")],
        None,
    ),
    (P + ";lines=007-007", [], P + ";lines=7-7"),
    (P + ";lines=07", [], P + ";lines=7"),
    # Up to 18 digits the canonical form takes a line number; past that the scanner does.
    (P + ";lines=" + "9" * 18, [], P + ";lines=" + "9" * 18),
    (P + ";lines=1-" + "9" * 19, [], P + ";lines=1-" + "9" * 19),
]

# Rows whose result depends on the mode: (text, permissive, diagnostics, canonical).
UNKNOWN_KEY_ROWS = [
    (P + ";color=red", False, [(51, "bad-qualifier", "unknown qualifier key 'color'")], None),
    (
        P + ";color=red",
        True,
        [(51, "unknown-qualifier", "unknown qualifier key 'color' ignored")],
        P,
    ),
    (P + ";=x", False, [(51, "bad-qualifier", "unknown qualifier key ''")], None),
    (P + ";=x", True, [(51, "unknown-qualifier", "unknown qualifier key '' ignored")], P),
    (
        P + ";lines=3;visit=1;origin=https://a.org",
        True,
        [
            (59, "unknown-qualifier", "unknown qualifier key 'visit' ignored"),
            (67, "qualifier-order", "non-canonical qualifier order (origin belongs before lines)"),
        ],
        P + ";origin=https://a.org;lines=3",
    ),
    (
        P + ";visit=1;lines=0",
        True,
        [
            (51, "unknown-qualifier", "unknown qualifier key 'visit' ignored"),
            (59, "bad-line-range", "line numbers are 1-indexed"),
        ],
        None,
    ),
]


@pytest.mark.parametrize(
    "text,permissive,diagnostics,canonical",
    [(t, p, d, c) for t, d, c in DIAGNOSTIC_ROWS for p in (False, True)] + UNKNOWN_KEY_ROWS,
)
def test_every_diagnostic_and_canonical_form(text, permissive, diagnostics, canonical):
    found = validate(text, permissive=permissive)
    assert [(d.byte_offset, d.kind.value, d.message) for d in found] == diagnostics
    if canonical is not None:
        assert str(parse(text, permissive=permissive)) == canonical
        return
    with pytest.raises(SwhidParseError) as excinfo:
        parse(text, permissive=permissive)
    assert excinfo.value.diagnostic == next(d for d in found if not d.is_warning)


@pytest.mark.parametrize("permissive", [False, True])
def test_line_number_too_large_to_convert(permissive):
    # int() refuses more digits than sys.get_int_max_str_digits() allows
    # (4 300 by default, 0 for no limit); such a number is a bad line range.
    too_large = [(51, "bad-line-range", "line number is too large")]
    default = sys.get_int_max_str_digits()
    try:
        for limit, digits, diagnostics in [
            (4300, 4300, []),
            (4300, 4301, too_large),
            (640, 641, too_large),
            (0, 5000, []),
        ]:
            sys.set_int_max_str_digits(limit)
            for value in ("1" * digits, "1-" + "9" * digits, "9" * digits + "-" + "9" * digits):
                text = f"{P};lines={value}"
                found = validate(text, permissive=permissive)
                assert [(d.byte_offset, d.kind.value, d.message) for d in found] == diagnostics
                if not diagnostics:
                    assert str(parse(text, permissive=permissive)) == text
                    continue
                with pytest.raises(SwhidParseError) as excinfo:
                    parse(text, permissive=permissive)
                assert excinfo.value.diagnostic == found[0]
        # Leading zeros do not count against the limit: the rule is on the value.
        sys.set_int_max_str_digits(4300)
        for value, canonical in [
            ("0" * 4299 + "1", "1"),
            ("0" * 4300 + "1", "1"),
            ("0" * 5000 + "7-" + "0" * 5000 + "9", "7-9"),
        ]:
            text = f"{P};lines={value}"
            assert validate(text, permissive=permissive) == []
            assert str(parse(text, permissive=permissive)) == f"{P};lines={canonical}"
        for value in ("0", "0" * 4301, "0" * 4301 + "-1"):
            found = validate(f"{P};lines={value}", permissive=permissive)
            one_indexed = [(51, "bad-line-range", "line numbers are 1-indexed")]
            assert [(d.byte_offset, d.kind.value, d.message) for d in found] == one_indexed
    finally:
        sys.set_int_max_str_digits(default)


def test_line_range_end_below_one_is_not_an_order_error():
    with pytest.raises(ValueError, match="^line numbers are 1-indexed$"):
        LineRange(5, 0)
    with pytest.raises(ValueError, match="^line range end 4 precedes start 5$"):
        LineRange(5, 4)


def test_origin_rule_over_every_code_point():
    # The oracle is the rule as written out: whitespace by str.isspace(), a C0
    # control or DEL; in an identifier ';' ends the origin, here leaving an
    # empty qualifier. Through validate() it holds both encodings of the rule:
    # the canonical form matches each accepted character, and the scanner
    # reports each refused one.
    for code in range(0x110000):
        char = chr(code)
        found = validate(f"{P};origin=https://a.org/{char}")
        if char == ";":
            expected = ["empty qualifier"]
        elif char.isspace() or code < 0x20 or code == 0x7F:
            expected = [ORIGIN_BAD_CHAR]
        else:
            expected = []
        assert [d.message for d in found] == expected, hex(code)
