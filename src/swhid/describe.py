"""Description documents: revision, release and snapshot ids from JSON.

describe_nodes() checks a document and normalizes its entries;
realize_descriptions() builds their nodes and computes their ids. Each node
kind is one row of _KINDS, which both of them read.
"""
from __future__ import annotations

import base64
import json
import re
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from .errors import MalformedPersonError, SchemaError, UnknownReferenceError
from .model import (
    BranchKind,
    BranchTarget,
    DagNode,
    PersonStamp,
    Release,
    Revision,
    Snapshot,
    swhid_of,
)
from .syntax import CoreSwhid, ObjectId, ObjectType, _setattr, _Value

if TYPE_CHECKING:
    from .ingest import ObjectStore

__all__ = ["NodeDescription", "describe_nodes", "realize_descriptions"]

_HEX40_RE = re.compile(r"\A[0-9a-f]{40}\Z")
_Json = Dict[str, Any]  # a JSON object


class NodeDescription(_Value):
    """One parsed entry of a description document.

    fields holds the keyword arguments of the node's model class, except that
    an id slot may hold a str: the label a 'label:<name>' reference names.
    Two descriptions are equal only if they are the same object.
    """

    __slots__ = ("kind", "label", "fields")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, kind: ObjectType, label: Optional[str], fields: Dict[str, Any]):
        _setattr(self, "kind", kind)
        _setattr(self, "label", label)
        _setattr(self, "fields", fields)


def _want(obj: _Json, key: str, types, loc: str) -> Any:
    if key not in obj:
        raise SchemaError(f"missing required field {key!r}", loc)
    value = obj[key]
    if not isinstance(value, types):
        raise SchemaError(f"field {key!r} has the wrong type", f"{loc}.{key}")
    return value


def _utf8(text: str, loc: str) -> bytes:
    """text as UTF-8; JSON can escape a lone surrogate, which UTF-8 cannot hold."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaError(
            "string holds a lone surrogate, which UTF-8 cannot encode", loc
        ) from None


def _parse_object_id(value: Any, loc: str) -> Union[ObjectId, str]:
    if not isinstance(value, str):
        raise SchemaError("object reference must be a string", loc)
    if value.startswith("label:"):
        label = value[len("label:") :]
        if not label:
            raise SchemaError("empty label reference", loc)
        return label
    if not _HEX40_RE.match(value):
        raise SchemaError(
            f"{value!r} is neither 40 lowercase hex digits nor 'label:<name>'", loc
        )
    return ObjectId(bytes.fromhex(value))


def _parse_id(obj: _Json, key: str, loc: str) -> Union[ObjectId, str]:
    return _parse_object_id(_want(obj, key, str, loc), f"{loc}.{key}")


def _parse_ids(obj: _Json, key: str, loc: str) -> Tuple[Any, ...]:
    return tuple(
        _parse_object_id(value, f"{loc}.{key}[{i}]")
        for i, value in enumerate(_want(obj, key, list, loc))
    )


def _parse_bytes(obj: _Json, key: str, loc: str) -> bytes:
    plain = obj.get(key)
    encoded = obj.get(f"{key}_b64")
    if plain is not None and encoded is not None:
        raise SchemaError(f"both {key!r} and '{key}_b64' given", loc)
    if plain is not None:
        if not isinstance(plain, str):
            raise SchemaError(f"field {key!r} must be a string", f"{loc}.{key}")
        return _utf8(plain, f"{loc}.{key}")
    if encoded is not None:
        if not isinstance(encoded, str):
            raise SchemaError(f"field '{key}_b64' must be a string", f"{loc}.{key}_b64")
        try:
            return base64.b64decode(encoded, validate=True)
        except ValueError as exc:  # binascii.Error, or text that is not ASCII
            raise SchemaError(
                f"bad base64 in '{key}_b64': {exc}", f"{loc}.{key}_b64"
            ) from exc
    raise SchemaError(f"missing required field {key!r}", loc)


def _parse_person(obj: _Json, key: str, loc: str) -> PersonStamp:
    raw = _parse_bytes(obj, key, loc)
    date = _want(obj, f"{key}_date", dict, loc)
    date_loc = f"{loc}.{key}_date"
    seconds = _want(date, "seconds", int, date_loc)
    if isinstance(seconds, bool):
        raise SchemaError("field 'seconds' has the wrong type", date_loc)
    offset = _want(date, "offset", str, date_loc)
    try:
        return PersonStamp(raw, seconds, offset)
    except MalformedPersonError as exc:
        raise SchemaError(str(exc), date_loc) from exc


def _parse_optional_person(obj: _Json, key: str, loc: str) -> Optional[PersonStamp]:
    if key in obj or f"{key}_b64" in obj:
        return _parse_person(obj, key, loc)
    if f"{key}_date" in obj:
        raise SchemaError(f"'{key}_date' given without {key!r}", loc)
    return None


def _parse_headers(obj: _Json, key: str, loc: str) -> Tuple[Tuple[bytes, bytes], ...]:
    pairs = obj.get(key, [])
    if not isinstance(pairs, list):
        raise SchemaError(
            f"field {key!r} must be a list of [key, value] pairs", f"{loc}.{key}"
        )
    headers = []
    for i, pair in enumerate(pairs):
        pair_loc = f"{loc}.{key}[{i}]"
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(part, str) for part in pair)
        ):
            raise SchemaError("expected a [key, value] string pair", pair_loc)
        headers.append((_utf8(pair[0], pair_loc), _utf8(pair[1], pair_loc)))
    return tuple(headers)


def _parse_object_type(obj: _Json, key: str, loc: str) -> ObjectType:
    name = _want(obj, key, str, loc)
    try:
        return ObjectType.from_long_name(name)
    except ValueError as exc:
        raise SchemaError(str(exc), f"{loc}.{key}") from exc


def _parse_branches(obj: _Json, key: str, loc: str) -> Dict[bytes, BranchTarget]:
    branches: Dict[bytes, BranchTarget] = {}
    for name, value in _want(obj, key, dict, loc).items():
        branch_loc = f"{loc}.{key}[{name!r}]"
        name_bytes = _utf8(name, branch_loc)
        if value is None:
            branches[name_bytes] = BranchTarget.dangling_ref()
            continue
        if not isinstance(value, dict):
            raise SchemaError("branch must be null or an object", branch_loc)
        kind_name = _want(value, "target_type", str, branch_loc)
        try:
            kind = BranchKind(kind_name)
        except ValueError as exc:
            raise SchemaError(
                f"unknown branch target type {kind_name!r}", branch_loc
            ) from exc
        if kind is BranchKind.DANGLING:
            raise SchemaError("dangling branches are written as null", branch_loc)
        if kind is BranchKind.ALIAS:
            alias = _parse_bytes(value, "target", branch_loc)
            branches[name_bytes] = BranchTarget.to_alias(alias)
        else:
            target = _parse_id(value, "target", branch_loc)
            branches[name_bytes] = BranchTarget(kind, target=target)
    return branches


# One row per node kind, by type name: its object type, its model class
# (built as cls(**fields)), the fields whose ids may be 'label:<name>'
# references, and its (key, parser) pairs in the order a document is checked.
_KINDS = {
    "revision": (ObjectType.REVISION, Revision, ("tree", "parents"), (
        ("parents", _parse_ids),
        ("extra_headers", _parse_headers),
        ("tree", _parse_id),
        ("author", _parse_person),
        ("committer", _parse_person),
        ("message", _parse_bytes),
    )),
    "release": (ObjectType.RELEASE, Release, ("target",), (
        ("target_type", _parse_object_type),
        ("tagger", _parse_optional_person),
        ("target", _parse_id),
        ("name", _parse_bytes),
        ("message", _parse_bytes),
    )),
    "snapshot": (ObjectType.SNAPSHOT, Snapshot, ("branches",), (
        ("branches", _parse_branches),
    )),
}


def _id_slots(value: Any) -> Sequence[Any]:
    """The ids of an id field: one id, a tuple of ids, or branch targets."""
    if isinstance(value, dict):
        return [branch.target for branch in value.values()]
    return value if isinstance(value, tuple) else (value,)


def _references(description: NodeDescription) -> List[str]:
    """The labels a description references, in field order."""
    id_fields = _KINDS[description.kind.long_name][2]
    return [
        slot
        for key in id_fields
        for slot in _id_slots(description.fields[key])
        if isinstance(slot, str)
    ]


def _resolve(value: Any, labels: Dict[str, ObjectId]) -> Any:
    """An id field with each label reference replaced by the label's id."""
    if isinstance(value, str):
        return labels[value]
    if isinstance(value, tuple):
        return tuple(_resolve(slot, labels) for slot in value)
    if isinstance(value, dict):
        return {name: _resolve(branch, labels) for name, branch in value.items()}
    if isinstance(value, BranchTarget) and isinstance(value.target, str):
        return BranchTarget(value.kind, target=labels[value.target])
    return value


def describe_nodes(data: bytes) -> List[NodeDescription]:
    """Parse a JSON description document into normalized node descriptions.

    The document is a list of objects, each with a "type" of revision,
    release, or snapshot, an optional "label" other entries may reference
    in id slots as "label:<name>", and the node's fields. Schema problems
    raise SchemaError with a JSONPath-style location; references to labels
    defined nowhere in the document raise UnknownReferenceError.
    """
    try:
        document = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also huge ints and deep nesting
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, list):
        raise SchemaError("top-level value must be a list")
    descriptions: List[NodeDescription] = []
    labels = set()
    for index, item in enumerate(document):
        loc = f"$[{index}]"
        if not isinstance(item, dict):
            raise SchemaError("each description must be an object", loc)
        kind_name = _want(item, "type", str, loc)
        if kind_name not in _KINDS:
            raise SchemaError(
                f"unknown node type {kind_name!r}"
                " (expected revision, release, or snapshot)",
                f"{loc}.type",
            )
        label = item.get("label")
        if label is not None:
            if not isinstance(label, str) or not label:
                raise SchemaError("label must be a non-empty string", f"{loc}.label")
            if label in labels:
                raise SchemaError(f"duplicate label {label!r}", f"{loc}.label")
            labels.add(label)
        object_type, _, _, parsers = _KINDS[kind_name]
        fields = {key: parse(item, key, loc) for key, parse in parsers}
        descriptions.append(NodeDescription(object_type, label, fields))
    for description in descriptions:
        for ref in _references(description):
            if ref not in labels:
                raise UnknownReferenceError(f"label {ref!r} is never defined")
    return descriptions


def realize_descriptions(
    descriptions: Sequence[NodeDescription],
    store: Optional[ObjectStore] = None,
) -> List[Tuple[CoreSwhid, DagNode]]:
    """Build every described node and compute its id.

    Label references may point forward or backward inside the document;
    nodes are realized in dependency order (a hash cannot contain itself,
    so a cycle means a reference can never resolve). Results come back in
    document order. Nodes are added to store when one is given.
    """
    # Kahn's algorithm: a description is ready once every label it names
    # has been realized.
    waiting = [set(_references(d)) for d in descriptions]
    dependents: Dict[str, List[int]] = {}
    for index, needed in enumerate(waiting):
        for label in needed:
            dependents.setdefault(label, []).append(index)
    ready = [index for index, needed in enumerate(waiting) if not needed]
    labels: Dict[str, ObjectId] = {}
    results: List[Any] = [None] * len(descriptions)
    while ready:
        index = ready.pop()
        description = descriptions[index]
        _, cls, id_fields, _ = _KINDS[description.kind.long_name]
        fields = dict(description.fields)
        for key in id_fields:
            fields[key] = _resolve(fields[key], labels)
        node = cls(**fields)
        swhid = swhid_of(node) if store is None else store.add(node)
        results[index] = (swhid, node)
        if description.label:
            labels[description.label] = swhid.object_id
            for dependent in dependents.pop(description.label, ()):
                waiting[dependent].discard(description.label)
                if not waiting[dependent]:
                    ready.append(dependent)
    if None in results:
        unresolved = set().union(*waiting)  # only unrealized entries still wait
        raise UnknownReferenceError(
            "reference cycle or undefined labels: " + ", ".join(sorted(unresolved))
        )
    return results
