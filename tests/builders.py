"""One builder per test input, shared by the suite and tests/differential.py.

Description documents: revision(), release() and snapshot() give one entry
each, with fields that describe_nodes accepts unless a keyword changes or
drops one (DROP), and person() gives a person's two fields; doc() writes
the entries as a document. Test trees:
write_tree() writes a node tuple to disk. Exports: export_object() writes
an export of one object file, and trees_only() an export of a store's
trees alone.
"""
from __future__ import annotations

import hashlib
import json
import os
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
