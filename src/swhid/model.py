"""Merkle DAG node types and intrinsic identifier computation.

Every node kind serializes to a manifest of the form

    <kind> SP <decimal body length> NUL <body>

and its id is the sha1 of that manifest. Content, directory, revision, and
release manifests are byte-compatible with git blob/tree/commit/tag objects;
snapshots have no git counterpart and use their own body format.
"""
from __future__ import annotations

import enum
import hashlib
import re
from typing import Iterable, Mapping, Optional, Tuple, Union

from .errors import (
    DuplicateNameError,
    InvalidBranchNameError,
    InvalidNameError,
    MalformedNameError,
    MalformedPersonError,
)
from .syntax import CoreSwhid, ObjectId, ObjectType, _setattr, _Value

__all__ = [
    "Content",
    "EntryPermission",
    "DirectoryEntry",
    "Directory",
    "PersonStamp",
    "Revision",
    "Release",
    "BranchKind",
    "BranchTarget",
    "Snapshot",
    "DagNode",
    "content_id",
    "directory_id",
    "revision_id",
    "release_id",
    "snapshot_id",
    "manifest_of",
    "object_id_of",
    "swhid_of",
]

_OFFSET = re.compile(r"[+-][0-9]{4}").fullmatch
_PERSON_LINE = b"%s %s %d %s\n"  # label, raw person, seconds, UTC offset


class Content(_Value):
    """A file's bytes. Nothing else participates in the id."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        _setattr(self, "data", data)


class EntryPermission(enum.Enum):
    """Directory entry modes, valued by their manifest token."""

    REGULAR_FILE = "100644"
    EXECUTABLE_FILE = "100755"
    SYMLINK = "120000"
    DIRECTORY = "40000"
    NESTED_REVISION = "160000"

    @property
    def token(self) -> bytes:
        return self.value.encode("ascii")


class DirectoryEntry(_Value):
    __slots__ = ("name", "permission", "target")

    def __init__(self, name: bytes, permission: EntryPermission, target: ObjectId):
        if not name:
            raise InvalidNameError("directory entry name is empty")
        if b"\x00" in name or b"/" in name:
            raise InvalidNameError(f"directory entry name {name!r} contains NUL or '/'")
        _setattr(self, "name", name)
        _setattr(self, "permission", permission)
        _setattr(self, "target", target)


class Directory(_Value):
    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[DirectoryEntry] = ()):
        entries = tuple(entries)
        seen = set()
        for entry in entries:
            if entry.name in seen:
                raise DuplicateNameError(f"duplicate directory entry name {entry.name!r}")
            seen.add(entry.name)
        _setattr(self, "entries", entries)


class PersonStamp(_Value):
    """Author/committer/tagger identity plus timestamp.

    raw_person is preserved byte-for-byte (no name/email splitting, no
    normalization); utc_offset is the rendered '+HHMM'/'-HHMM' text, kept
    verbatim because '+0000' and '-0000' hash differently.
    """

    __slots__ = ("raw_person", "seconds", "utc_offset")

    def __init__(self, raw_person: bytes, seconds: int, utc_offset: str = "+0000"):
        if b"\n" in raw_person:
            raise MalformedPersonError("person bytes contain a newline")
        if not _OFFSET(utc_offset):
            raise MalformedPersonError(f"UTC offset {utc_offset!r} is not +HHMM/-HHMM")
        _setattr(self, "raw_person", raw_person)
        _setattr(self, "seconds", seconds)
        _setattr(self, "utc_offset", utc_offset)

    def line(self, label: bytes) -> bytes:
        return _PERSON_LINE % (label, self.raw_person, self.seconds, self.utc_offset.encode())


class Revision(_Value):
    __slots__ = ("tree", "parents", "author", "committer", "message", "extra_headers")

    def __init__(
        self,
        tree: ObjectId,
        parents: Iterable[ObjectId],
        author: PersonStamp,
        committer: PersonStamp,
        message: bytes,
        extra_headers: Iterable[Tuple[bytes, bytes]] = (),
    ):
        parents = tuple(parents)
        extra_headers = tuple(map(tuple, extra_headers)) if extra_headers else ()
        for key, _ in extra_headers:
            if not key or b"\n" in key or b" " in key:
                raise MalformedNameError(f"extra header key {key!r} is not a single word")
        _setattr(self, "tree", tree)
        _setattr(self, "parents", parents)
        _setattr(self, "author", author)
        _setattr(self, "committer", committer)
        _setattr(self, "message", message)
        _setattr(self, "extra_headers", extra_headers)


class Release(_Value):
    __slots__ = ("target", "target_type", "name", "message", "tagger")

    def __init__(
        self,
        target: ObjectId,
        target_type: ObjectType,
        name: bytes,
        message: bytes,
        tagger: Optional[PersonStamp] = None,
    ):
        if not name:
            raise MalformedNameError("release name is empty")
        if b"\x00" in name or b"\n" in name:
            raise MalformedNameError(f"release name {name!r} contains NUL or newline")
        _setattr(self, "target", target)
        _setattr(self, "target_type", target_type)
        _setattr(self, "name", name)
        _setattr(self, "message", message)
        _setattr(self, "tagger", tagger)


class BranchKind(enum.Enum):
    """What a snapshot branch points at, valued by its manifest token."""

    CONTENT = "content"
    DIRECTORY = "directory"
    REVISION = "revision"
    RELEASE = "release"
    SNAPSHOT = "snapshot"
    ALIAS = "alias"
    DANGLING = "dangling"

    @classmethod
    def from_object_type(cls, object_type: ObjectType) -> "BranchKind":
        return cls(object_type.long_name)


class BranchTarget(_Value):
    """One snapshot branch: an object pointer, an alias, or dangling."""

    __slots__ = ("kind", "target", "alias_name")

    def __init__(
        self,
        kind: BranchKind,
        target: Optional[ObjectId] = None,
        alias_name: Optional[bytes] = None,
    ):
        if kind is BranchKind.DANGLING:
            if target is not None or alias_name is not None:
                raise ValueError("dangling branches carry no target")
        elif kind is BranchKind.ALIAS:
            if alias_name is None or target is not None:
                raise ValueError("alias branches carry only a branch name")
        elif target is None or alias_name is not None:
            raise ValueError(f"{kind.value} branches carry exactly an object id")
        _setattr(self, "kind", kind)
        _setattr(self, "target", target)
        _setattr(self, "alias_name", alias_name)

    @classmethod
    def to_object(
        cls, object_type: ObjectType, target: ObjectId
    ) -> "BranchTarget":
        return cls(BranchKind.from_object_type(object_type), target=target)

    @classmethod
    def to_alias(cls, name: bytes) -> "BranchTarget":
        return cls(BranchKind.ALIAS, alias_name=name)

    @classmethod
    def dangling_ref(cls) -> "BranchTarget":
        return cls(BranchKind.DANGLING)

    @property
    def payload(self) -> bytes:
        if self.kind is BranchKind.DANGLING:
            return b""
        if self.kind is BranchKind.ALIAS:
            assert self.alias_name is not None
            return self.alias_name
        assert self.target is not None
        return self.target.raw


class Snapshot(_Value):
    __slots__ = ("branches",)

    def __init__(self, branches: Mapping[bytes, BranchTarget] = {}):  # copied, never mutated
        branches = dict(branches)
        for name in branches:
            if b"\x00" in name:
                raise InvalidBranchNameError(f"branch name {name!r} contains NUL")
        _setattr(self, "branches", branches)


DagNode = Union[Content, Directory, Revision, Release, Snapshot]


def _content_body(node: Content) -> bytes:
    return node.data


def tree_body(rows: Iterable[Tuple[bytes, bytes, bytes]]) -> bytes:
    """A tree body from unchecked (name, mode token, raw id) rows; a dir sorts as name/."""
    ordered = sorted(rows, key=lambda r: r[0] + b"/" if r[1] == b"40000" else r[0])
    return b"".join(b"%s %s\x00%s" % (t, name, raw) for name, t, raw in ordered)


def _directory_body(node: Directory) -> bytes:
    return tree_body((e.name, e.permission.token, e.target.raw) for e in node.entries)


def _fold_header_value(value: bytes) -> bytes:
    # Continuation lines of a multiline header value start with a space.
    return value.replace(b"\n", b"\n ")


def _revision_body(node: Revision) -> bytes:
    lines = [b"tree %s\n" % node.tree.raw.hex().encode()]
    for parent in node.parents:
        lines.append(b"parent %s\n" % parent.raw.hex().encode())
    author, committer = node.author, node.committer  # both lines in one format, no call each
    lines.append((_PERSON_LINE * 2) % (
        b"author", author.raw_person, author.seconds, author.utc_offset.encode(),
        b"committer", committer.raw_person, committer.seconds, committer.utc_offset.encode(),
    ))
    for key, value in node.extra_headers:
        lines.append(b"%s %s\n" % (key, _fold_header_value(value)))
    lines.append(b"\n")
    lines.append(node.message)
    return b"".join(lines)


def _release_body(node: Release) -> bytes:
    lines = [
        b"object %s\n" % node.target.raw.hex().encode(),
        b"type %s\n" % _RELEASE_TARGET_TOKENS[node.target_type],
        b"tag %s\n" % node.name,
    ]
    if node.tagger is not None:
        lines.append(node.tagger.line(b"tagger"))
    lines.append(b"\n")
    lines.append(node.message)
    return b"".join(lines)


def _snapshot_body(node: Snapshot) -> bytes:
    pieces = []
    for name in sorted(node.branches):
        branch = node.branches[name]
        payload = branch.payload
        pieces.append(b"%s %s\x00%d:%s" % (branch.kind.value.encode(), name, len(payload), payload))
    return b"".join(pieces)


_SERIALIZERS = {
    Content: (b"blob", _content_body, ObjectType.CONTENT),
    Directory: (b"tree", _directory_body, ObjectType.DIRECTORY),
    Revision: (b"commit", _revision_body, ObjectType.REVISION),
    Release: (b"tag", _release_body, ObjectType.RELEASE),
    Snapshot: (b"snapshot", _snapshot_body, ObjectType.SNAPSHOT),
}

MANIFEST_KIND_TO_TYPE = {
    kind: object_type for kind, _, object_type in _SERIALIZERS.values()
}
_RELEASE_TARGET_TOKENS = {object_type: kind for kind, object_type in MANIFEST_KIND_TO_TYPE.items()}


def manifest_of(node: DagNode) -> bytes:
    """Serialize a node to the exact bytes its id is the sha1 of."""
    try:
        kind, body_of, _ = _SERIALIZERS[type(node)]
    except KeyError:
        raise TypeError(f"not a DAG node: {type(node).__name__}") from None
    body = body_of(node)
    return b"%s %d\x00%s" % (kind, len(body), body)


def object_id_of(node: DagNode) -> Tuple[ObjectType, ObjectId]:
    """Compute a node's type and intrinsic id."""
    manifest = manifest_of(node)
    return _SERIALIZERS[type(node)][2], ObjectId(hashlib.sha1(manifest).digest())


def swhid_of(node: DagNode) -> CoreSwhid:
    return CoreSwhid(*object_id_of(node))


def content_id(node: Content) -> ObjectId:
    """The id of node, hashed in place: no manifest copy of the bytes."""
    sha = hashlib.sha1(b"blob %d\x00" % len(node.data))
    sha.update(node.data)
    return ObjectId(sha.digest())


def directory_id(node: Directory) -> ObjectId:
    return object_id_of(node)[1]


def revision_id(node: Revision) -> ObjectId:
    return object_id_of(node)[1]


def release_id(node: Release) -> ObjectId:
    return object_id_of(node)[1]


def snapshot_id(node: Snapshot) -> ObjectId:
    return object_id_of(node)[1]
