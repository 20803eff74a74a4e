"""One builder per test input, shared by the suite and tests/differential.py.

Description documents: revision(), release() and snapshot() give one entry
each, with fields that describe_nodes accepts unless a keyword changes or
drops one (DROP), and person() gives a person's two fields; doc() writes
the entries as a document. BUILT is a small document of every kind, and
mutate() gives a copy of a document's entries with one of MUTATIONS.
Identifier texts: IDENTIFIERS holds a short list that gives every
DiagnosticKind, and edit() gives a copy of a text with one character
inserted, deleted or replaced, or cut short.
Test trees: write_tree() writes a node tuple to disk, such as ODD_NAMES, a
small tree of names that are not UTF-8 or that JSON escapes. Exports:
export_object() writes an export of one object file, and trees_only() an
export of a store's trees alone.
"""
from __future__ import annotations

import copy
import hashlib
import json
import os
import random
from pathlib import Path
from typing import List

from swhid.ingest import ObjectStore

EMPTY_TREE = "4b825dc642cb6eb9a060e54bf8d69288fbee4904"
DROP = object()  # a keyword given DROP removes that field


def _entry(base: dict, changes: dict) -> dict:
    entry = dict(base)
    for key, value in changes.items():
        if value is DROP:
            del entry[key]
        else:
            entry[key] = value
    return entry


def revision(**changes) -> dict:
    return _entry(
        {
            "type": "revision",
            "tree": EMPTY_TREE,
            "parents": [],
            "author": "A <a@x>",
            "author_date": {"seconds": 0, "offset": "+0000"},
            "committer": "A <a@x>",
            "committer_date": {"seconds": 0, "offset": "+0000"},
            "message": "m\n",
        },
        changes,
    )


def release(**changes) -> dict:
    return _entry(
        {
            "type": "release",
            "target": EMPTY_TREE,
            "target_type": "directory",
            "name": "v1",
            "message": "",
            "tagger": "A <a@x>",
            "tagger_date": {"seconds": 0, "offset": "+0000"},
        },
        changes,
    )


def snapshot(branches, **changes) -> dict:
    return _entry({"type": "snapshot", "branches": branches}, changes)


def person(key: str, who) -> dict:
    """The fields key and key_date of who, a GitOracle person (name, email, seconds, offset).

    An email of None gives a person without one, which git cannot write.
    """
    name, email, seconds, offset = who
    raw = name if email is None else f"{name} <{email}>"
    return {key: raw, f"{key}_date": {"seconds": seconds, "offset": offset}}


def doc(*entries) -> bytes:
    return json.dumps(list(entries)).encode()


# A document with an entry of each kind, aliases and references among them
# (forward and backward), and one extra header; and mutate()'s mutations.
BUILT = (
    snapshot(
        {
            "main": {"target_type": "revision", "target": "label:r1"},
            "v1": {"target_type": "release", "target": "label:v1"},
            "HEAD": {"target_type": "alias", "target": "main"},
            "gone": None,
        },
        label="snap",
    ),
    release(label="v1", target="label:r1", target_type="revision", message="notes\n"),
    revision(label="r1", parents=["label:r0"], extra_headers=[["encoding", "UTF-8"]]),
    revision(label="r0", message="first\n"),
)
MUTATIONS = ("drop", "retype", "swap labels", "self reference", "cycle")
_OTHER_TYPES = (None, True, 7, 1.5, "x", [], {})


def _paths(value, path=()):
    """The path of every value below value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _slots(entry) -> list:
    """The paths of entry's id fields, which may hold a 'label:<name>' reference."""
    if entry["type"] == "revision":
        return [("tree",)] + [("parents", i) for i in range(len(entry["parents"]))]
    if entry["type"] == "release":
        return [("target",)]
    branches = entry["branches"].items()
    return [("branches", name, "target") for name, b in branches if b and b["target_type"] != "alias"]


def mutate(entries: list, mutation: str, rng: random.Random) -> list:
    """entries with one mutation at the JSON-value level; the entries it changes are copies."""
    document = list(entries)

    def take(index):
        document[index] = copy.deepcopy(entries[index])
        return document[index]

    if mutation in ("drop", "retype"):
        entry = take(rng.randrange(len(entries)))
        paths = list(_paths(entry))
        if mutation == "drop":  # a key of an object, not an item of a list
            paths = [p for p in paths if isinstance(_at(entry, p[:-1]), dict)]
        path = rng.choice(paths)
        parent, old = _at(entry, path[:-1]), _at(entry, path)
        if mutation == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = rng.choice([v for v in _OTHER_TYPES if type(v) is not type(old)])
        return document
    referring = [i for i, entry in enumerate(entries) if entry.get("label") and _slots(entry)]
    first, second = rng.sample(referring, 2)
    a, b = take(first), take(second)
    if mutation == "swap labels":
        a["label"], b["label"] = b["label"], a["label"]
    elif mutation == "self reference":
        path = rng.choice(_slots(a))
        _at(a, path[:-1])[path[-1]] = "label:" + a["label"]
    else:  # a cycle: each names the other
        for one, other in ((a, b), (b, a)):
            path = rng.choice(_slots(one))
            _at(one, path[:-1])[path[-1]] = "label:" + other["label"]
    return document


HEX = "94a9ed024d3859793618152ea559a168bbcbb5e2"
# Canonical ids of each type and qualifier, ids that give every
# DiagnosticKind (unknown-qualifier in permissive mode), and accepted ids
# that are not canonical.
IDENTIFIERS = (
    f"swh:1:cnt:{HEX}",
    f"swh:1:dir:{HEX}",
    f"swh:1:rev:{HEX};origin=https://a.org/r.git",
    f"swh:1:rel:{HEX};lines=7",
    f"swh:1:snp:{HEX};origin=a:;lines=5-12",
    "SWH:1:cnt:" + HEX,
    "swh:2:cnt:" + HEX.upper(),
    "swh:1:xyz:" + HEX[:12],
    f"swh:1:cnt:{HEX};origin=https://a.org;lines=9-4",
    f"swh:1:cnt:{HEX};lines=0",
    f"swh:1:cnt:{HEX};lines=3;origin=https://é.org",
    f"swh:1:cnt:{HEX};color=red",
    f"swh:1:cnt:{HEX};lines=07-1" + "0" * 18,
)
# What edit() inserts or puts in place of a character: separators, digits
# and hex of each case, whitespace (ASCII, NEL, newline), a non-ASCII digit,
# a two-byte letter and a lone surrogate.
EDIT_CHARS = ":;=-/0179aAfFgG \n\x85\u0661\u00e9\udce9"


def edit(text: str, rng: random.Random) -> str:
    """text with one character inserted, deleted or replaced, or cut short, at random."""
    at = rng.randrange(len(text) + 1)
    kind = rng.randrange(4)
    if kind == 0:
        return text[:at] + rng.choice(EDIT_CHARS) + text[at:]
    if kind == 1:
        return text[:at] + text[at + 1:]
    if kind == 2:
        return text[:at] + rng.choice(EDIT_CHARS) + text[at + 1:]
    return text[:at]


# What a true junk flag adds to a directory: a file and a directory that
# --exclude '*.tmp' drops.
_JUNK = {
    b"junk.tmp": ("file", b"junk", False),
    b"cache.tmp": ("dir", {b"inner": ("file", b"dropped with its directory", False)}, False),
}


def write_tree(path: bytes, node) -> List[bytes]:
    """Write node at path, and return the paths of the junk entries its flags added.

    A node is ("file", data, executable), ("link", target) or
    ("dir", {name: node}, junk); names and targets are bytes.
    """
    if node[0] == "file":
        with open(path, "wb") as fh:
            fh.write(node[1])
        os.chmod(path, 0o755 if node[2] else 0o644)
        return []
    if node[0] == "link":
        os.symlink(node[1], path)
        return []
    os.mkdir(path)
    children = {**node[1], **_JUNK} if node[2] else node[1]
    added = [os.path.join(path, name) for name in _JUNK] if node[2] else []
    for name, child in children.items():
        added += write_tree(os.path.join(path, name), child)
    return added


# Names that are not UTF-8, that JSON escapes, or that hold control or astral
# characters; its flags add *.tmp junk.
ODD_NAMES = ("dir", {
    b"caf\xe9.txt": ("file", b"latin-1 name\n", False),
    b"\xff\xfe": ("file", b"", False),
    b'quote"d': ("file", b"q\n", False),
    b"back\\slash": ("file", b"b\n", False),
    b"tab\there": ("file", b"t\n", False),
    b"new\nline": ("file", b"n\n", False),
    b"ctl\x01\x1f": ("file", b"c\n", False),
    "snow \u2603 caf\u00e9 \U0001f600".encode(): ("file", b"s\n", False),
    b"d\xe9": ("dir", {
        b"inner.txt": ("file", b"inner\n", False),
        b"run.sh": ("file", b"#!/bin/sh\n", True),
        b"up": ("link", b"../\xff\xfe"),
    }, True),
    b"nested": ("dir", {b"a": ("dir", {b"b": ("dir", {
        b"c d": ("file", b"deep\n", False),
    }, False)}, False)}, False),
    b"link\xe9": ("link", b"caf\xe9.txt"),
    b"dangling": ("link", b"nowhere"),
}, True)


def export_object(root: Path, manifest: bytes, hexid: str = "") -> str:
    """Write an export at root holding manifest alone, named by its sha1 unless hexid is given."""
    hexid = hexid or hashlib.sha1(manifest).hexdigest()
    bucket = root / "objects" / hexid[:2]
    bucket.mkdir(parents=True)
    (bucket / hexid[2:]).write_bytes(manifest)
    return hexid


def trees_only(store: ObjectStore, root: Path) -> ObjectStore:
    """An export at root of store's tree objects alone, loaded back."""
    store.save(root)
    for item in (root / "objects").glob("*/*"):
        if not item.read_bytes().startswith(b"tree "):
            item.unlink()
    return ObjectStore.load(root)
