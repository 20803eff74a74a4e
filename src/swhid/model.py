"""Merkle DAG node types and intrinsic identifier computation.

Every node kind serializes to a manifest of the form

    <kind> SP <decimal body length> NUL <body>

and its id is the sha1 of that manifest. Content, directory, revision, and
release manifests are byte-compatible with git blob/tree/commit/tag objects;
snapshots have no git counterpart and use their own body format.
"""
from __future__ import annotations

import dataclasses
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
from .syntax import CoreSwhid, ObjectId, ObjectType

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

_OFFSET_RE = re.compile(rb"\A[+-][0-9]{4}\Z")


@dataclasses.dataclass(frozen=True)
class Content:
    """A file's bytes. Nothing else participates in the id."""

    data: bytes


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


@dataclasses.dataclass(frozen=True)
class DirectoryEntry:
    name: bytes
    permission: EntryPermission
    target: ObjectId

    def __post_init__(self):
        if not self.name:
            raise InvalidNameError("directory entry name is empty")
        if b"\x00" in self.name or b"/" in self.name:
            raise InvalidNameError(
                f"directory entry name {self.name!r} contains NUL or '/'"
            )


@dataclasses.dataclass(frozen=True)
class Directory:
    entries: Tuple[DirectoryEntry, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        seen = set()
        for entry in self.entries:
            if entry.name in seen:
                raise DuplicateNameError(
                    f"duplicate directory entry name {entry.name!r}"
                )
            seen.add(entry.name)


@dataclasses.dataclass(frozen=True)
class PersonStamp:
    """Author/committer/tagger identity plus timestamp.

    raw_person is preserved byte-for-byte (no name/email splitting, no
    normalization); utc_offset is the rendered '+HHMM'/'-HHMM' text, kept
    verbatim because '+0000' and '-0000' hash differently.
    """

    raw_person: bytes
    seconds: int
    utc_offset: str = "+0000"

    def __post_init__(self):
        if b"\n" in self.raw_person:
            raise MalformedPersonError("person bytes contain a newline")
        if not _OFFSET_RE.match(self.utc_offset.encode("ascii", "replace")):
            raise MalformedPersonError(
                f"UTC offset {self.utc_offset!r} is not +HHMM/-HHMM"
            )

    def line(self, label: bytes) -> bytes:
        return b"%s %s %d %s\n" % (
            label,
            self.raw_person,
            self.seconds,
            self.utc_offset.encode("ascii"),
        )


@dataclasses.dataclass(frozen=True)
class Revision:
    tree: ObjectId
    parents: Tuple[ObjectId, ...]
    author: PersonStamp
    committer: PersonStamp
    message: bytes
    extra_headers: Tuple[Tuple[bytes, bytes], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(
            self, "extra_headers", tuple(map(tuple, self.extra_headers))
        )
        for key, _ in self.extra_headers:
            if not key or b"\n" in key or b" " in key:
                raise MalformedNameError(
                    f"extra header key {key!r} is not a single word"
                )


@dataclasses.dataclass(frozen=True)
class Release:
    target: ObjectId
    target_type: ObjectType
    name: bytes
    message: bytes
    tagger: Optional[PersonStamp] = None

    def __post_init__(self):
        if not self.name:
            raise MalformedNameError("release name is empty")
        if b"\x00" in self.name or b"\n" in self.name:
            raise MalformedNameError(
                f"release name {self.name!r} contains NUL or newline"
            )


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


@dataclasses.dataclass(frozen=True)
class BranchTarget:
    """One snapshot branch: an object pointer, an alias, or dangling."""

    kind: BranchKind
    target: Optional[ObjectId] = None
    alias_name: Optional[bytes] = None

    def __post_init__(self):
        if self.kind is BranchKind.DANGLING:
            if self.target is not None or self.alias_name is not None:
                raise ValueError("dangling branches carry no target")
        elif self.kind is BranchKind.ALIAS:
            if self.alias_name is None or self.target is not None:
                raise ValueError("alias branches carry only a branch name")
        else:
            if self.target is None or self.alias_name is not None:
                raise ValueError(
                    f"{self.kind.value} branches carry exactly an object id"
                )

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


@dataclasses.dataclass(frozen=True)
class Snapshot:
    branches: Mapping[bytes, BranchTarget] = dataclasses.field(
        default_factory=dict
    )

    def __post_init__(self):
        object.__setattr__(self, "branches", dict(self.branches))
        for name in self.branches:
            if b"\x00" in name:
                raise InvalidBranchNameError(
                    f"branch name {name!r} contains NUL"
                )


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
    lines = [b"tree %s\n" % node.tree.hex.encode("ascii")]
    for parent in node.parents:
        lines.append(b"parent %s\n" % parent.hex.encode("ascii"))
    lines.append(node.author.line(b"author"))
    lines.append(node.committer.line(b"committer"))
    for key, value in node.extra_headers:
        lines.append(b"%s %s\n" % (key, _fold_header_value(value)))
    lines.append(b"\n")
    lines.append(node.message)
    return b"".join(lines)


_RELEASE_TARGET_TOKENS = {
    ObjectType.CONTENT: b"blob",
    ObjectType.DIRECTORY: b"tree",
    ObjectType.REVISION: b"commit",
    ObjectType.RELEASE: b"tag",
    ObjectType.SNAPSHOT: b"snapshot",
}


def _release_body(node: Release) -> bytes:
    lines = [
        b"object %s\n" % node.target.hex.encode("ascii"),
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
        pieces.append(
            b"%s %s\x00%d:%s"
            % (branch.kind.value.encode("ascii"), name, len(payload), payload)
        )
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
    _, _, object_type = _SERIALIZERS[type(node)]
    return object_type, ObjectId(hashlib.sha1(manifest).digest())


def swhid_of(node: DagNode) -> CoreSwhid:
    object_type, object_id = object_id_of(node)
    return CoreSwhid(object_type, object_id)


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
