"""Seeded input generators for the three benchmark workloads.

Every generator draws from ``random.Random(f"<workload>:<seed>")`` only, so
the same seed gives byte-identical inputs. Besides the inputs each one
returns what the checks need to know about them (excluded names, the seeded
edits, expected parse outcomes), computed here without the swhid package.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

EXCLUDE = "*.tmp"
TYPES = ("cnt", "dir", "rev", "rel", "snp")


def blob_hex(data: bytes) -> str:
    """Git blob id of data, with hashlib alone."""
    return hashlib.sha1(b"blob %d\x00" % len(data) + data).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# --- trees -------------------------------------------------------------------


@dataclasses.dataclass
class Tree:
    root: Path
    payload_bytes: int  # bytes of every included regular file and link target
    files: List[str]  # included regular files, root-relative
    links: List[str]  # included symlinks, root-relative
    excluded: List[str]  # names the benchmark passes --exclude for


def _write(path: Path, data: bytes, executable: bool = False) -> None:
    path.write_bytes(data)
    if executable:
        os.chmod(path, 0o755)


def _replace(path: Path, data: bytes, mode: int) -> None:
    path.unlink()
    path.write_bytes(data)
    os.chmod(path, mode)


def link_copy(tree: Tree, root: Path) -> Tree:
    """A copy of tree whose regular files are hard links to the original's."""
    for rel in sorted({os.path.dirname(p) for p in tree.files + tree.links + tree.excluded}):
        (root / rel).mkdir(parents=True, exist_ok=True)
    for rel in tree.files + tree.excluded:
        os.link(tree.root / rel, root / rel)
    for rel in tree.links:
        os.symlink(os.readlink(tree.root / rel), root / rel)
    return dataclasses.replace(tree, root=root, files=list(tree.files), links=list(tree.links))


def many_small_tree(seed: int, root: Path) -> Tree:
    """About 10 000 files of 0-4 KiB in 500 nested dirs.

    25 % of files repeat an earlier content, 5 % are executable, 1 % are
    symlinks and 2 % are *.tmp names the benchmark excludes. Every dir's
    first entry is a regular, included file, so no dir is empty with or
    without the exclusion (git would drop an empty one).
    """
    files, dirs = 10_000, 500
    rng = _rng("tree-many-small", seed)
    names = [""]
    for k in range(1, dirs):
        # Recent parents nest the tree; the depth cap keeps paths short.
        parent = rng.choice(names[-30:])
        if parent.count("/") >= 7:
            parent = rng.choice(names[:30])
        names.append(f"{parent}/d{k}" if parent else f"d{k}")
    root.mkdir(parents=True)
    for rel in names[1:]:
        (root / rel).mkdir()
    contents: List[bytes] = []
    regular: List[str] = []
    links: List[str] = []
    excluded: List[str] = []
    payload = 0
    for n in range(files):
        where = names[n] if n < len(names) else rng.choice(names)
        prefix = f"{where}/" if where else ""
        roll = rng.random() if n >= len(names) else 1.0
        if roll < 0.01:
            rel = f"{prefix}l{n}"
            target = rng.choice(["../", "./", ""]) + f"f{rng.randrange(files)}.txt"
            os.symlink(target, root / rel)
            links.append(rel)
            payload += len(target)
            continue
        if contents and rng.random() < 0.25:
            data = rng.choice(contents)
        else:
            data = rng.randbytes(rng.randint(0, 4096))
            contents.append(data)
        if roll < 0.03:
            rel = f"{prefix}t{n}.tmp"
            _write(root / rel, data)
            excluded.append(rel)
            continue
        executable = roll < 0.08
        rel = f"{prefix}{'x' if executable else 'f'}{n}.{'sh' if executable else 'txt'}"
        _write(root / rel, data, executable)
        regular.append(rel)
        payload += len(data)
    return Tree(root, payload, regular, links, excluded)


@dataclasses.dataclass(frozen=True)
class Edit:
    """One expected row of `swhid verify --json` detail."""

    path: str
    expected: Optional[str]
    actual: Optional[str]
    note: str


def mutate(tree: Tree, seed: int) -> List[Edit]:
    """Apply 12 seeded edits in place and return the mismatches they cause.

    Kinds rotate through content change, mode flip, add, delete and symlink
    retarget. Each edit touches its own path, and a delete never empties a
    dir. Edited files get a new inode, so the tree may be a hard-link copy.
    """
    rng = _rng("tree-many-small-edits", seed)
    root = tree.root
    touched = set()
    per_dir: Dict[str, int] = {}
    for rel in tree.files + tree.links:
        parent = os.path.dirname(rel)
        per_dir[parent] = per_dir.get(parent, 0) + 1

    def pick(pool: List[str]) -> str:
        while True:
            rel = rng.choice(pool)
            if rel not in touched:
                touched.add(rel)
                return rel

    edits: List[Edit] = []
    kinds = ["content", "mode", "add", "delete", "symlink"]
    for k in range(12):
        kind = kinds[k % len(kinds)]
        if kind == "content":
            rel = pick(tree.files)
            old = (root / rel).read_bytes()
            new = old + rng.randbytes(rng.randint(1, 64))
            _replace(root / rel, new, os.lstat(root / rel).st_mode & 0o777)
            edits.append(Edit(rel, blob_hex(old), blob_hex(new), "differs"))
        elif kind == "mode":
            rel = pick(tree.files)
            data = (root / rel).read_bytes()
            _replace(root / rel, data, (os.lstat(root / rel).st_mode & 0o777) ^ 0o111)
            edits.append(Edit(rel, blob_hex(data), blob_hex(data), "mode differs"))
        elif kind == "add":
            parent = os.path.dirname(rng.choice(tree.files))
            rel = f"{parent}/added{k}.txt" if parent else f"added{k}.txt"
            touched.add(rel)
            data = rng.randbytes(rng.randint(1, 4096))
            _write(root / rel, data)
            edits.append(Edit(rel, None, blob_hex(data), "unexpected"))
        elif kind == "delete":
            while True:
                rel = pick(tree.files)
                parent = os.path.dirname(rel)
                if per_dir[parent] > 1:
                    break
            per_dir[parent] -= 1
            digest = blob_hex((root / rel).read_bytes())
            os.unlink(root / rel)
            edits.append(Edit(rel, digest, None, "missing"))
        else:
            rel = pick(tree.links)
            old = os.readlink(root / rel)
            new = old + ".moved"
            os.unlink(root / rel)
            os.symlink(new, root / rel)
            edits.append(
                Edit(rel, blob_hex(old.encode()), blob_hex(new.encode()), "differs")
            )
    return edits


# --- history -----------------------------------------------------------------

_OFFSETS = ["+0000", "-0500", "+0530", "+0100", "-0800", "+0200"]
_PEOPLE = [
    "Ada Lovelace <ada@example.org>",
    "Grace Hopper <grace@example.org>",
    "Linus Benedict <lb@example.org>",
    "Zoë Ångström <zoe@example.org>",
    "Tim Peters <tim@example.org>",
]


@dataclasses.dataclass
class History:
    newest_first: bytes  # the description document, in git log order
    oldest_first: bytes  # the same entries, reversed
    commits: List[bytes]  # git commit text of each revision, document order
    tags: List[bytes]  # git tag text of each release, document order
    snapshot_hex: str  # snapshot id computed here from the branch list


def _person(rng: random.Random, when: int) -> Tuple[str, dict, str]:
    person = rng.choice(_PEOPLE)
    offset = rng.choice(_OFFSETS)
    return person, {"seconds": when, "offset": offset}, f"{person} {when} {offset}"


def _message(rng: random.Random, n: int) -> str:
    lines = [f"Change {n}: " + " ".join(rng.choice(["fix", "add", "drop", "tune", "café", "docs"]) for _ in range(rng.randint(2, 8)))]
    if rng.random() < 0.5:
        lines += ["", "Body line " * rng.randint(1, 6)]
    return "\n".join(lines) + "\n"


def history(seed: int) -> History:
    """1 000 revisions (10 % merges), 100 releases and one snapshot.

    The DAG has a fixed shape, so realization cost does not vary with the
    seed: a 100-revision root chain, then 100 blocks, each a side branch of
    4 revisions beside 4 mainline ones, closed by a merge. Contents, people
    and times come from the seed. Revision and release ids are computed
    here with hashlib over git's own object text, so parents can be filled
    in; git later re-hashes the same text independently.
    """
    blocks, branch, releases, branches = 100, 4, 100, 300
    rng = _rng("history", seed)
    when = 1_500_000_000
    revs: List[dict] = []
    rev_hex: List[str] = []
    commits: List[bytes] = []

    def add(parents: List[int]) -> int:
        nonlocal when
        i = len(revs)
        when += rng.randint(1, 5000)
        tree = rng.randbytes(20).hex()
        a_person, a_date, a_line = _person(rng, when - rng.randint(0, 9999))
        c_person, c_date, c_line = _person(rng, when)
        message = _message(rng, i)
        text = f"tree {tree}\n"
        text += "".join(f"parent {rev_hex[p]}\n" for p in parents)
        text += f"author {a_line}\ncommitter {c_line}\n\n{message}"
        raw = text.encode()
        commits.append(raw)
        rev_hex.append(hashlib.sha1(b"commit %d\x00" % len(raw) + raw).hexdigest())
        revs.append(
            {
                "type": "revision",
                "label": f"r{i}",
                "tree": tree,
                "parents": [f"label:r{p}" for p in parents],
                "author": a_person,
                "author_date": a_date,
                "committer": c_person,
                "committer_date": c_date,
                "message": message,
            }
        )
        return i

    main = add([])
    for _ in range(blocks - 1):
        main = add([main])
    for _ in range(blocks):
        side = main
        for _ in range(branch):
            side = add([side])
            main = add([main])
        main = add([main, side])
    revisions = len(revs)
    rels: List[dict] = []
    rel_hex: List[str] = []
    tags: List[bytes] = []
    for k, target in enumerate(sorted(rng.sample(range(revisions), releases))):
        name = f"v{k // 10}.{k % 10}"
        message = f"Release {name}\n"
        entry = {
            "type": "release",
            "label": f"t{k}",
            "target": f"label:r{target}",
            "target_type": "revision",
            "name": name,
            "message": message,
        }
        text = f"object {rev_hex[target]}\ntype commit\ntag {name}\n"
        if rng.random() < 0.9:
            person, date, line = _person(rng, 1_500_000_000 + target * 2500)
            entry["tagger"], entry["tagger_date"] = person, date
            text += f"tagger {line}\n"
        text += f"\n{message}"
        raw = text.encode()
        tags.append(raw)
        rel_hex.append(hashlib.sha1(b"tag %d\x00" % len(raw) + raw).hexdigest())
        rels.append(entry)
    # Branches: heads, every release, aliases, dangling refs, raw object ids.
    snapshot: Dict[str, Optional[dict]] = {}
    expected: Dict[bytes, Tuple[bytes, bytes]] = {}
    for k in range(releases):
        snapshot[f"refs/tags/{rels[k]['name']}"] = {"target_type": "release", "target": f"label:t{k}"}
        expected[f"refs/tags/{rels[k]['name']}".encode()] = (b"release", bytes.fromhex(rel_hex[k]))
    while len(snapshot) < branches:
        n = len(snapshot)
        roll = rng.random()
        if roll < 0.08 and n > releases:
            name = f"refs/aliases/a{n}"
            target = rng.choice(sorted(snapshot))
            snapshot[name] = {"target_type": "alias", "target": target}
            expected[name.encode()] = (b"alias", target.encode())
        elif roll < 0.14:
            name = f"refs/gone/g{n}"
            snapshot[name] = None
            expected[name.encode()] = (b"dangling", b"")
        elif roll < 0.18:
            name = f"refs/raw/o{n}"
            raw_id = rng.randbytes(20)
            kind = rng.choice(["content", "directory"])
            snapshot[name] = {"target_type": kind, "target": raw_id.hex()}
            expected[name.encode()] = (kind.encode(), raw_id)
        else:
            name = f"refs/heads/b{n}"
            target = rng.randrange(revisions)
            snapshot[name] = {"target_type": "revision", "target": f"label:r{target}"}
            expected[name.encode()] = (b"revision", bytes.fromhex(rev_hex[target]))
    snapshot["HEAD"] = {"target_type": "alias", "target": "refs/heads/b" + str(releases)}
    expected[b"HEAD"] = (b"alias", b"refs/heads/b" + str(releases).encode())
    body = b"".join(
        b"%s %s\x00%d:%s" % (kind, name, len(payload), payload)
        for name, (kind, payload) in sorted(expected.items())
    )
    snapshot_hex = hashlib.sha1(b"snapshot %d\x00" % len(body) + body).hexdigest()
    entries = [{"type": "snapshot", "label": "snap", "branches": snapshot}]
    entries += rels[::-1] + revs[::-1]
    return History(
        newest_first=json.dumps(entries).encode(),
        oldest_first=json.dumps(entries[::-1]).encode(),
        commits=commits[::-1],
        tags=tags[::-1],
        snapshot_hex=snapshot_hex,
    )


# --- identifier corpus -------------------------------------------------------

# (defect, DiagnosticKind value it must raise, how to apply it to a canonical id)
_DEFECTS = [
    ("bad-prefix", lambda t: "swx" + t[3:]),
    ("unsupported-version", lambda t: "swh:2" + t[5:]),
    ("bad-type", lambda t: t[:6] + "xyz" + t[9:]),
    ("bad-hex", lambda t: t[:10] + t[11:]),
    ("bad-qualifier", lambda t: t + ";colour=blue"),
    ("bad-line-range", lambda t: t + ";lines=9-3"),
]


@dataclasses.dataclass
class Corpus:
    texts: List[str]
    canonical: List[Optional[str]]  # None for invalid ids
    warnings: List[Tuple[str, ...]]  # expected DiagnosticKind values
    error: List[Optional[str]]  # DiagnosticKind value parse() must raise


def corpus(seed: int) -> Corpus:
    """Identifier strings: all five types, ~30 % qualified, ~5 % warn, ~5 % invalid."""
    size = 200_000
    rng = _rng("history-corpus", seed)
    out = Corpus([], [], [], [])
    hexes = rng.randbytes(20 * size).hex()
    for n in range(size):
        kind = TYPES[n % 5]
        digits = hexes[40 * n : 40 * n + 40]
        core = f"swh:1:{kind}:{digits}"
        origin = f"https://example.org/r{rng.randrange(5000)}.git" if rng.random() < 0.3 else None
        lines = None
        if origin is not None and rng.random() < 0.5:
            start = rng.randint(1, 900)
            lines = str(start) if rng.random() < 0.3 else f"{start}-{start + rng.randint(0, 99)}"
        canonical = core + (f";origin={origin}" if origin else "") + (f";lines={lines}" if lines else "")
        roll = rng.random()
        if roll < 0.05:
            defect, make = _DEFECTS[rng.randrange(len(_DEFECTS))]
            out.texts.append(make(core + (f";origin={origin}" if origin else "")))
            out.canonical.append(None)
            out.warnings.append(())
            out.error.append(defect)
            continue
        text, warnings = canonical, ()
        if roll < 0.075:
            text = f"swh:1:{kind}:{digits.upper()}" + canonical[len(core) :]
            warnings = ("uppercase-hex",)
        elif roll < 0.10 and origin and lines:
            text = f"{core};lines={lines};origin={origin}"
            warnings = ("qualifier-order",)
        out.texts.append(text)
        out.canonical.append(canonical)
        out.warnings.append(warnings)
        out.error.append(None)
    return out


# --- archive -----------------------------------------------------------------


@dataclasses.dataclass
class ArchiveSet:
    contents: Dict[str, bytes]  # blob hex -> bytes, as stored
    corrupted: List[str]  # known ids the archive serves with a flipped byte
    good: List[str]
    unknown: List[str]  # ids the archive does not hold


def archive_set(seed: int) -> ArchiveSet:
    """About 500 contents of 1-64 KiB; one in ten is always served corrupted."""
    count = 500
    rng = _rng("archive", seed)
    contents: Dict[str, bytes] = {}
    while len(contents) < count:
        data = rng.randbytes(rng.randint(1, 64 << 10))
        contents[blob_hex(data)] = data
    ids = sorted(contents)
    corrupted = sorted(rng.sample(ids, count // 10))
    bad = set(corrupted)
    good = [i for i in ids if i not in bad]
    unknown = [rng.randbytes(20).hex() for _ in range(count // 10)]
    return ArchiveSet(contents, corrupted, good, unknown)


def lookups(sample: ArchiveSet, rng: random.Random, n: int) -> List[Tuple[str, str]]:
    """n (outcome, id) draws: 80 % ok, 10 % not_found, 10 % corrupted."""
    out = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.8:
            out.append(("ok", rng.choice(sample.good)))
        elif roll < 0.9:
            out.append(("not_found", rng.choice(sample.unknown)))
        else:
            out.append(("corrupted", rng.choice(sample.corrupted)))
    return out
