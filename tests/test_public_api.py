"""The package's public names, its value types' contract, and the paths the benchmark patches."""
import copy
import pickle

import pytest

import swhid
import swhid.describe
import swhid.ingest
import swhid.model
from swhid.describe import NodeDescription
from swhid.ingest import EntryMismatch, VerificationReport
from swhid.model import (
    BranchKind,
    BranchTarget,
    Content,
    Directory,
    DirectoryEntry,
    EntryPermission,
    PersonStamp,
    Release,
    Revision,
    Snapshot,
)
from swhid.resolve import ResolvedMetadata, ResolverConfig
from swhid.syntax import (
    CoreSwhid,
    DiagnosticKind,
    LineRange,
    ObjectId,
    ObjectType,
    ParseDiagnostic,
    QualifiedSwhid,
)


_PUBLIC_NAMES = [
    "errors", "ObjectType", "ObjectId", "CoreSwhid", "LineRange", "QualifiedSwhid",
    "ParseDiagnostic", "SwhidParseError", "parse", "format_swhid", "validate",
    "Content", "DirectoryEntry", "Directory", "EntryPermission", "PersonStamp",
    "Revision", "Release", "BranchKind", "BranchTarget", "Snapshot", "content_id",
    "directory_id", "revision_id", "release_id", "snapshot_id", "manifest_of",
    "object_id_of", "swhid_of", "ObjectStore", "NodeDescription",
    "VerificationReport", "ingest_path", "describe_nodes", "realize_descriptions",
    "verify_path", "extract_lines", "ResolverKind", "ResolverConfig",
    "ResolvedMetadata", "resolver_url", "resolve_metadata", "fetch_content_verified",
    "__version__",
]


def test_public_names_and_reexports():
    assert swhid.__all__ == _PUBLIC_NAMES
    for name in ("NodeDescription", "describe_nodes", "realize_descriptions"):
        assert getattr(swhid, name) is getattr(swhid.describe, name)
    # perfbench's tracer patches these two on swhid.ingest by name.
    assert swhid.ingest.manifest_of is swhid.model.manifest_of
    assert swhid.ingest.object_id_of is swhid.model.object_id_of


# --- the value types -----------------------------------------------------------------

OID = ObjectId(b"a" * 20)
OID2 = ObjectId(b"b" * 20)
CORE = CoreSwhid(ObjectType.CONTENT, OID)
PERSON = PersonStamp(b"A <a@b>", 7, "+0100")
ENTRY = DirectoryEntry(b"f", EntryPermission.REGULAR_FILE, OID)
ALIAS = BranchTarget(BranchKind.ALIAS, None, b"main")
MISMATCH = EntryMismatch("d/f", "61" * 20, None, "missing")

OID_REPR = "ObjectId(raw=b'aaaaaaaaaaaaaaaaaaaa')"
CORE_REPR = (
    f"CoreSwhid(object_type=<ObjectType.CONTENT: 'cnt'>, object_id={OID_REPR}, schema_version=1)"
)
PERSON_REPR = "PersonStamp(raw_person=b'A <a@b>', seconds=7, utc_offset='+0100')"
ENTRY_REPR = (
    "DirectoryEntry(name=b'f', permission=<EntryPermission.REGULAR_FILE: '100644'>,"
    f" target={OID_REPR})"
)
MISMATCH_REPR = (
    "EntryMismatch(path='d/f', expected_hex='6161616161616161616161616161616161616161',"
    " actual_hex=None, note='missing')"
)

# Each value type: its fields in order with a value each, the defaults of its
# trailing fields, a value that differs, and the repr of the first value.
VALUE_TYPES = [
    (ObjectId, {"raw": b"a" * 20}, {}, OID2, OID_REPR),
    (
        CoreSwhid,
        {"object_type": ObjectType.CONTENT, "object_id": OID, "schema_version": 1},
        {"schema_version": 1},
        CoreSwhid(ObjectType.DIRECTORY, OID),
        CORE_REPR,
    ),
    (LineRange, {"start": 3, "end": 5}, {"end": None}, LineRange(3), "LineRange(start=3, end=5)"),
    (
        QualifiedSwhid,
        {"core": CORE, "origin": "https://example.org/r", "lines": LineRange(3)},
        {"origin": None, "lines": None},
        QualifiedSwhid(CORE, "https://example.org/s", LineRange(3)),
        f"QualifiedSwhid(core={CORE_REPR}, origin='https://example.org/r',"
        " lines=LineRange(start=3, end=None))",
    ),
    (
        ParseDiagnostic,
        {"byte_offset": 4, "kind": DiagnosticKind.BAD_HEX, "message": "bad"},
        {},
        ParseDiagnostic(5, DiagnosticKind.BAD_HEX, "bad"),
        "ParseDiagnostic(byte_offset=4, kind=<DiagnosticKind.BAD_HEX: 'bad-hex'>, message='bad')",
    ),
    (Content, {"data": b"x"}, {}, Content(b"y"), "Content(data=b'x')"),
    (
        DirectoryEntry,
        {"name": b"f", "permission": EntryPermission.REGULAR_FILE, "target": OID},
        {},
        DirectoryEntry(b"f", EntryPermission.EXECUTABLE_FILE, OID),
        ENTRY_REPR,
    ),
    (
        Directory,
        {"entries": (ENTRY,)},
        {"entries": ()},
        Directory(),
        f"Directory(entries=({ENTRY_REPR},))",
    ),
    (
        PersonStamp,
        {"raw_person": b"A <a@b>", "seconds": 7, "utc_offset": "+0100"},
        {"utc_offset": "+0000"},
        PersonStamp(b"A <a@b>", 7, "-0100"),
        PERSON_REPR,
    ),
    (
        Revision,
        {
            "tree": OID,
            "parents": (OID2,),
            "author": PERSON,
            "committer": PERSON,
            "message": b"m\n",
            "extra_headers": ((b"k", b"v"),),
        },
        {"extra_headers": ()},
        Revision(OID, (OID2,), PERSON, PERSON, b"n\n", ((b"k", b"v"),)),
        f"Revision(tree={OID_REPR}, parents=(ObjectId(raw=b'bbbbbbbbbbbbbbbbbbbb'),),"
        f" author={PERSON_REPR}, committer={PERSON_REPR}, message=b'm\\n',"
        " extra_headers=((b'k', b'v'),))",
    ),
    (
        Release,
        {
            "target": OID,
            "target_type": ObjectType.REVISION,
            "name": b"v1",
            "message": b"m\n",
            "tagger": PERSON,
        },
        {"tagger": None},
        Release(OID, ObjectType.REVISION, b"v2", b"m\n", PERSON),
        f"Release(target={OID_REPR}, target_type=<ObjectType.REVISION: 'rev'>, name=b'v1',"
        f" message=b'm\\n', tagger={PERSON_REPR})",
    ),
    (
        BranchTarget,
        {"kind": BranchKind.DANGLING, "target": None, "alias_name": None},
        {"target": None, "alias_name": None},
        BranchTarget(BranchKind.REVISION, OID),
        "BranchTarget(kind=<BranchKind.DANGLING: 'dangling'>, target=None, alias_name=None)",
    ),
    (
        Snapshot,
        {"branches": {b"HEAD": ALIAS}},
        {"branches": {}},
        Snapshot({b"HEAD": BranchTarget(BranchKind.DANGLING)}),
        "Snapshot(branches={b'HEAD': BranchTarget(kind=<BranchKind.ALIAS: 'alias'>,"
        " target=None, alias_name=b'main')})",
    ),
    (
        EntryMismatch,
        {"path": "d/f", "expected_hex": "61" * 20, "actual_hex": None, "note": "missing"},
        {},
        EntryMismatch("d/f", "61" * 20, None, "differs"),
        MISMATCH_REPR,
    ),
    (
        VerificationReport,
        {"expected": CORE, "actual": CoreSwhid(ObjectType.CONTENT, OID2), "detail": (MISMATCH,)},
        {"detail": ()},
        VerificationReport(CORE, CORE),
        f"VerificationReport(expected={CORE_REPR}, actual={CORE_REPR.replace('a' * 20, 'b' * 20)},"
        f" detail=({MISMATCH_REPR},))",
    ),
    (
        ResolverConfig,
        {
            "archive_url": "https://a",
            "identifiers_org_url": "https://b",
            "n2t_url": "https://c",
            "resolve_path": "/r/{swhid}",
            "content_path": "/c/{hex}",
        },
        {
            "archive_url": "https://archive.softwareheritage.org",
            "identifiers_org_url": "https://identifiers.org",
            "n2t_url": "https://n2t.net",
            "resolve_path": "/api/1/resolve/{swhid}/",
            "content_path": "/api/1/content/sha1_git:{hex}/raw/",
        },
        ResolverConfig(),
        "ResolverConfig(archive_url='https://a', identifiers_org_url='https://b',"
        " n2t_url='https://c', resolve_path='/r/{swhid}', content_path='/c/{hex}')",
    ),
    (
        ResolvedMetadata,
        {
            "swhid": CORE,
            "object_type_confirmed": True,
            "browse_url": "https://b",
            "fetch_url": None,
        },
        {"browse_url": None, "fetch_url": None},
        ResolvedMetadata(CORE, False, "https://b"),
        f"ResolvedMetadata(swhid={CORE_REPR}, object_type_confirmed=True,"
        " browse_url='https://b', fetch_url=None)",
    ),
]

by_value_type = pytest.mark.parametrize(
    "cls, fields, defaults, other, text", VALUE_TYPES, ids=[row[0].__name__ for row in VALUE_TYPES]
)


@by_value_type
def test_value_construction_positional_keyword_and_defaults(cls, fields, defaults, other, text):
    positional = cls(*fields.values())
    assert cls(**fields) == positional
    assert {name: getattr(positional, name) for name in fields} == fields
    required = list(fields.values())[: len(fields) - len(defaults)]
    defaulted = cls(*required)
    assert {name: getattr(defaulted, name) for name in defaults} == defaults
    assert defaulted == cls(*required, *defaults.values())
    assert defaulted == cls(**dict(zip(fields, required)))


@by_value_type
def test_value_equality_and_hash(cls, fields, defaults, other, text):
    value, same = cls(*fields.values()), cls(**fields)
    assert value == same and not value != same
    assert value != other and not value == other
    # Equal fields in another class, a subclass included, are not equal.
    twin = type(f"Twin{cls.__name__}", (cls,), {})(*fields.values())
    for stranger in (twin, tuple(fields.values()), None):
        assert value != stranger and stranger != value
        assert not value == stranger and not stranger == value
    if cls is Snapshot:  # its branches are a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same)
        assert {value: 1}[same] == 1


@by_value_type
def test_value_repr(cls, fields, defaults, other, text):
    assert repr(cls(*fields.values())) == text


@by_value_type
def test_value_refuses_assignment_and_deletion(cls, fields, defaults, other, text):
    value = cls(*fields.values())
    for name in [*fields, "unknown"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**fields)


@by_value_type
def test_value_copy_and_pickle(cls, fields, defaults, other, text):
    value = cls(*fields.values())
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for duplicate in copies:
        assert type(duplicate) is cls and duplicate == value
        assert repr(duplicate) == text
    # A subclass that adds no field keeps the fields' repr and copies.
    twin = type(f"Twin{cls.__name__}", (cls,), {"__slots__": ()})(*fields.values())
    assert repr(twin) == f"Twin{text}" and copy.copy(twin) == twin


def test_node_description_compares_by_identity():
    fields = {"tree": OID}
    value = NodeDescription(ObjectType.REVISION, "r1", fields)
    same = NodeDescription(kind=ObjectType.REVISION, label="r1", fields=fields)
    assert value == value and not value != value
    assert value != same and not value == same
    assert hash(value) == hash(value) and len({value, same}) == 2
    assert repr(value) == (
        "NodeDescription(kind=<ObjectType.REVISION: 'rev'>, label='r1',"
        f" fields={{'tree': {OID_REPR}}})"
    )
    for name in ("kind", "label", "fields", "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    copies = [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]
    for duplicate in copies:
        assert type(duplicate) is NodeDescription and duplicate != value
        assert (duplicate.kind, duplicate.label, duplicate.fields) == (value.kind, "r1", fields)
