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

from .errors import MalformedPersonError, ModelError, SchemaError, UnknownReferenceError
from .model import BranchKind, BranchTarget, DagNode, PersonStamp, Release, Revision, Snapshot
from .model import swhid_of
from .syntax import CoreSwhid, ObjectId, ObjectType, _setattr, _Value

if TYPE_CHECKING:
    from .ingest import ObjectStore

__all__ = ["NodeDescription", "describe_nodes", "realize_descriptions"]

_HEX40 = re.compile(r"[0-9a-f]{40}").fullmatch
_SURROGATE = "string holds a lone surrogate, which UTF-8 cannot encode"
_TARGET = ("target", "target_b64")  # the keys of a branch's target
_OBJECT_BRANCHES = ("content", "directory", "revision", "release", "snapshot")
_Json = Dict[str, Any]  # a JSON object
_Keys = Tuple[str, ...]  # a field's key, then its key_b64 and key_date if it has them


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


def _refused(obj: _Json, key: str, loc: str) -> SchemaError:
    """The error for obj[key], which is absent or of the wrong type."""
    if key not in obj:
        return SchemaError(f"missing required field {key!r}", loc)
    return SchemaError(f"field {key!r} has the wrong type", f"{loc}.{key}")


def _slot(value: Any, loc: str, key: str, refs: List[str], index: Optional[int] = None) -> Any:
    """value, at loc.key or loc.key[index], as an ObjectId or as a label it appends to refs."""
    if value.__class__ is str:
        if value.startswith("label:") and value != "label:":
            refs.append(value[6:])
            return refs[-1]
        if _HEX40(value):
            return ObjectId(bytes.fromhex(value))
    loc = f"{loc}.{key}" if index is None else f"{loc}.{key}[{index}]"
    if not isinstance(value, str):
        raise SchemaError("object reference must be a string", loc)
    if value == "label:":
        raise SchemaError("empty label reference", loc)
    raise SchemaError(f"{value!r} is neither 40 lowercase hex digits nor 'label:<name>'", loc)


# Each parser takes an entry, its row's keys, the entry's location, which it extends only
# to raise, and the labels referenced so far, to which it appends those of its field.
def _parse_id(obj: _Json, keys: _Keys, loc: str, refs: List[str]) -> Union[ObjectId, str]:
    value = obj.get(keys[0])
    if value.__class__ is not str:
        raise _refused(obj, keys[0], loc)
    return _slot(value, loc, keys[0], refs)


def _parse_ids(obj: _Json, keys: _Keys, loc: str, refs: List[str]) -> Tuple[Any, ...]:
    values = obj.get(keys[0])
    if values.__class__ is not list:
        raise _refused(obj, keys[0], loc)
    slots = []
    for value in values:
        slots.append(_slot(value, loc, keys[0], refs, len(slots)))
    return tuple(slots)


def _parse_bytes(obj: _Json, keys: _Keys, loc: str, refs: List[str]) -> bytes:
    key, b64_key = keys[0], keys[1]
    plain, encoded = obj.get(key), obj.get(b64_key)
    try:
        if encoded is None and plain.__class__ is str:
            return plain.encode()
        if plain is None and encoded.__class__ is str:
            return base64.b64decode(encoded, validate=True)
    except UnicodeEncodeError:  # JSON can escape a lone surrogate, which UTF-8 cannot hold
        raise SchemaError(_SURROGATE, f"{loc}.{key}") from None
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise SchemaError(f"bad base64 in '{b64_key}': {exc}", f"{loc}.{b64_key}") from exc
    if plain is not None and encoded is not None:
        raise SchemaError(f"both {key!r} and '{b64_key}' given", loc)
    if plain is not None:
        raise SchemaError(f"field {key!r} must be a string", f"{loc}.{key}")
    if encoded is None:
        raise SchemaError(f"missing required field {key!r}", loc)
    raise SchemaError(f"field '{b64_key}' must be a string", f"{loc}.{b64_key}")


def _parse_person(obj: _Json, keys: _Keys, loc: str, refs: List[str]) -> PersonStamp:
    raw = _parse_bytes(obj, keys, loc, refs)
    date = obj.get(keys[2])
    if date.__class__ is not dict:
        raise _refused(obj, keys[2], loc)
    seconds, offset = date.get("seconds"), date.get("offset")
    try:
        if seconds.__class__ is int and offset.__class__ is str:  # JSON's true is no int
            return PersonStamp(raw, seconds, offset)
    except MalformedPersonError as exc:
        raise SchemaError(str(exc), f"{loc}.{keys[2]}") from exc
    if seconds.__class__ is bool:
        raise SchemaError("field 'seconds' has the wrong type", f"{loc}.{keys[2]}")
    raise _refused(date, "offset" if seconds.__class__ is int else "seconds", f"{loc}.{keys[2]}")


def _parse_optional_person(obj: _Json, keys: _Keys, loc: str, refs: List[str]) -> Any:
    if keys[0] in obj or keys[1] in obj:
        return _parse_person(obj, keys, loc, refs)
    if keys[2] in obj:
        raise SchemaError(f"'{keys[2]}' given without {keys[0]!r}", loc)
    return None


def _parse_headers(obj: _Json, keys: _Keys, loc: str, refs: List[str]) -> Tuple[Any, ...]:
    key = keys[0]
    if key not in obj:
        return ()
    pairs = obj[key]
    if pairs.__class__ is not list:
        raise SchemaError(f"field {key!r} must be a list of [key, value] pairs", f"{loc}.{key}")
    headers = []
    for pair in pairs:
        if pair.__class__ is not list or list(map(type, pair)) != [str, str]:
            raise SchemaError("expected a [key, value] string pair", f"{loc}.{key}[{len(headers)}]")
        try:
            headers.append((pair[0].encode(), pair[1].encode()))
        except UnicodeEncodeError:
            raise SchemaError(_SURROGATE, f"{loc}.{key}[{len(headers)}]") from None
    return tuple(headers)


def _parse_object_type(obj: _Json, keys: _Keys, loc: str, refs: List[str]) -> ObjectType:
    name = obj.get(keys[0])
    if name.__class__ is not str:
        raise _refused(obj, keys[0], loc)
    try:
        return ObjectType.from_long_name(name)
    except ValueError as exc:
        raise SchemaError(str(exc), f"{loc}.{keys[0]}") from exc


def _parse_branches(obj: _Json, keys: _Keys, loc: str, refs: List[str]) -> Dict[bytes, Any]:
    named = obj.get(keys[0])
    if named.__class__ is not dict:
        raise _refused(obj, keys[0], loc)
    branches = {}
    for name, value in named.items():
        try:
            name_bytes = name.encode()
        except UnicodeEncodeError:
            raise SchemaError(_SURROGATE, f"{loc}.{keys[0]}[{name!r}]") from None
        if value is None:
            branches[name_bytes] = BranchTarget.dangling_ref()
            continue
        branch_loc = f"{loc}.{keys[0]}[{name!r}]"  # once per branch, as an entry's is
        if value.__class__ is not dict:
            raise SchemaError("branch must be null or an object", branch_loc)
        kind = value.get("target_type")
        if kind.__class__ is not str:
            raise _refused(value, "target_type", branch_loc)
        if kind == "alias":
            alias = _parse_bytes(value, _TARGET, branch_loc, refs)
            branches[name_bytes] = BranchTarget.to_alias(alias)
        elif kind in _OBJECT_BRANCHES:
            target = _parse_id(value, _TARGET, branch_loc, refs)
            branches[name_bytes] = BranchTarget(BranchKind(kind), target=target)
        elif kind == "dangling":
            raise SchemaError("dangling branches are written as null", branch_loc)
        else:
            raise SchemaError(f"unknown branch target type {kind!r}", branch_loc)
    return branches


# One row per node kind, by type name and by object type: its object type, its model
# class (built as cls(**fields)), the fields whose ids may be 'label:<name>' references,
# and its (key, parser, keys the parser reads) rows in the order a document is checked.
_KINDS = {
    "revision": (ObjectType.REVISION, Revision, ("tree", "parents"), (
        ("parents", _parse_ids, ("parents",)),
        ("extra_headers", _parse_headers, ("extra_headers",)),
        ("tree", _parse_id, ("tree",)),
        ("author", _parse_person, ("author", "author_b64", "author_date")),
        ("committer", _parse_person, ("committer", "committer_b64", "committer_date")),
        ("message", _parse_bytes, ("message", "message_b64")),
    )),
    "release": (ObjectType.RELEASE, Release, ("target",), (
        ("target_type", _parse_object_type, ("target_type",)),
        ("tagger", _parse_optional_person, ("tagger", "tagger_b64", "tagger_date")),
        ("target", _parse_id, ("target",)),
        ("name", _parse_bytes, ("name", "name_b64")),
        ("message", _parse_bytes, ("message", "message_b64")),
    )),
    "snapshot": (ObjectType.SNAPSHOT, Snapshot, ("branches",), (
        ("branches", _parse_branches, ("branches",)),
    )),
}
_KINDS.update({row[0]: row for row in list(_KINDS.values())})


def _references(fields: Dict[str, Any], id_keys: Tuple[str, ...]) -> List[str]:
    """The labels id_keys' fields name, in field order."""
    refs = []
    for key in id_keys:
        value = fields[key]  # one id, a tuple of ids, or branches
        if isinstance(value, dict):
            value = [branch.target for branch in value.values()]
        elif not isinstance(value, tuple):
            value = (value,)
        refs += [slot for slot in value if isinstance(slot, str)]
    return refs


def _resolve(value: Any, labels: Dict[str, ObjectId]) -> Any:
    """An id field with each label reference replaced by the label's id."""
    if isinstance(value, str):
        return labels[value]
    if isinstance(value, tuple):
        return tuple([labels[slot] if isinstance(slot, str) else slot for slot in value])
    if isinstance(value, dict):
        return {
            name: BranchTarget(branch.kind, target=labels[branch.target])
            if isinstance(branch.target, str) else branch
            for name, branch in value.items()
        }
    return value  # an ObjectId


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
    referenced: List[str] = []
    for index, item in enumerate(document):
        loc = f"$[{index}]"
        if item.__class__ is not dict:
            raise SchemaError("each description must be an object", loc)
        kind_name = item.get("type")
        if kind_name.__class__ is not str:
            raise _refused(item, "type", loc)
        if kind_name not in _KINDS:
            message = f"unknown node type {kind_name!r} (expected revision, release, or snapshot)"
            raise SchemaError(message, f"{loc}.type")
        label = item.get("label")
        if label is not None:
            if label.__class__ is not str or not label:
                raise SchemaError("label must be a non-empty string", f"{loc}.label")
            if label in labels:
                raise SchemaError(f"duplicate label {label!r}", f"{loc}.label")
            labels.add(label)
        object_type, _, _, rows = _KINDS[kind_name]
        fields = {}
        for key, parse, keys in rows:
            fields[key] = parse(item, keys, loc, referenced)
        descriptions.append(NodeDescription(object_type, label, fields))
    if not labels.issuperset(referenced):  # report the first, in document and field order
        named = [_references(d.fields, _KINDS[d.kind][2]) for d in descriptions]
        undefined = [ref for refs in named for ref in refs if ref not in labels]
        raise UnknownReferenceError(f"label {undefined[0]!r} is never defined")
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
    # Kahn's algorithm: a description is ready once every label it names is realized.
    rows = [_KINDS[d.kind] for d in descriptions]
    waiting = [set(_references(d.fields, row[2])) for d, row in zip(descriptions, rows)]
    pending = [len(needed) for needed in waiting]  # labels not realized yet, per description
    dependents: Dict[str, List[int]] = {}
    for index, needed in enumerate(waiting):
        for label in needed:
            dependents.setdefault(label, []).append(index)
    ready = [index for index, count in enumerate(pending) if not count]
    labels: Dict[str, ObjectId] = {}
    results: List[Any] = [None] * len(descriptions)
    while ready:
        index = ready.pop()
        fields = descriptions[index].fields
        if waiting[index]:  # its labels are resolved in a copy
            fields = dict(fields)
            for key in rows[index][2]:
                fields[key] = _resolve(fields[key], labels)
        try:
            node = rows[index][1](**fields)
        except ModelError as exc:  # a model rule describe_nodes does not check
            raise SchemaError(str(exc), f"$[{index}]") from exc
        swhid = swhid_of(node) if store is None else store.add(node)
        results[index] = (swhid, node)
        label = descriptions[index].label
        if label:
            labels[label] = swhid.object_id
            for dependent in dependents.pop(label, ()):
                pending[dependent] -= 1
                if not pending[dependent]:
                    ready.append(dependent)
    if None in results:
        stuck = set().union(*[needed for needed, done in zip(waiting, results) if not done])
        unresolved = ", ".join(sorted(stuck.difference(labels)))
        raise UnknownReferenceError(f"reference cycle or undefined labels: {unresolved}")
    return results
