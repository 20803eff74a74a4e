"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion, so `pytest -v` on this
file yields exactly one pass/fail/skip line per criterion (plus a greppable
`[criterion N] PASS` summary under -s). Expected values never come from the
library itself: they are published identifiers, byte-level manifests
assembled by hand inside the test body, or ids computed by real git
plumbing through tests/gitoracle.py.
"""
import hashlib
import json
import os
import random
import string
import time
from pathlib import Path

import pytest
from clirunner import CliRunner

from swhid import (
    BranchTarget,
    Content,
    CoreSwhid,
    Directory,
    DirectoryEntry,
    EntryPermission,
    LineRange,
    ObjectId,
    ObjectType,
    PersonStamp,
    QualifiedSwhid,
    Release,
    Revision,
    Snapshot,
    SwhidParseError,
    content_id,
    directory_id,
    fetch_content_verified,
    ingest_path,
    manifest_of,
    parse,
    release_id,
    resolve_metadata,
    revision_id,
    snapshot_id,
    swhid_of,
)
from swhid.cli import ExitStatus, main
from swhid.errors import TransportError

# Pinned tolerances. Budgets are wall-clock seconds; counts are exact.
LICENSE_ID_BUDGET_SECONDS = 1.0
ORACLE_SUITE_BUDGET_SECONDS = 30.0
ORACLE_INSTANCES_PER_KIND = 25
ROUND_TRIP_COUNT = 1000
REJECTION_COUNT = 20
MUTATION_FILE_COUNT = 50
FETCH_COUNT = 15
CORRUPT_EVERY = 5

# Published identifiers used as ground truth.
GPL3_CONTENT_ID = "94a9ed024d3859793618152ea559a168bbcbb5e2"
EMPTY_CONTENT_ID = "e69de29bb2d1d6434b8b29ae775ad8c2e48c5391"
EMPTY_DIRECTORY_ID = "4b825dc642cb6eb9a060e54bf8d69288fbee4904"
EMPTY_SNAPSHOT_ID = "1a8893e6a86f444e8be8e7bda6cb34fb1735a00e"

KNOWN_PUBLISHED_IDS = [
    "swh:1:cnt:94a9ed024d3859793618152ea559a168bbcbb5e2",
    "swh:1:dir:d198bc9d7a6bcf6db04f476d29314f157507d505",
    "swh:1:rev:309cf2674ee7a0749978cf8265ab91a60aea0f7d",
    "swh:1:rel:22ece559cc7cc2364edc5e5593d63ae8bd229f9f",
    "swh:1:snp:c7c108084bc0bf3d81436bf980b46e98bd338453",
    "swh:1:cnt:41ddb23118f92d7218099a5e7a990cf58f1d07fa;lines=64-72",
    "swh:1:dir:c6f07c2173a458d098de45d4c459a8f1916d900f"
    ";origin=https://github.com/id-Software/Quake-III-Arena",
    "swh:1:cnt:d5214ff9562a1fe78db51944506ba48c20de3379"
    ";origin=https://gitorious.org/parmap/parmap.git;lines=101-143",
]


def _report(number: int, summary: str) -> None:
    print(f"[criterion {number}] PASS: {summary}")


# --- criterion 1 --------------------------------------------------------------
# The canonical GPL-3.0 text must hash to its published content id,
# bit-exact, in under one second.


def test_criterion_01_license_text_hashes_bit_exact_within_one_second(
    gpl3_bytes,
):
    started = time.perf_counter()
    computed = content_id(Content(gpl3_bytes))
    elapsed = time.perf_counter() - started
    assert computed.hex == GPL3_CONTENT_ID
    assert str(swhid_of(Content(gpl3_bytes))) == f"swh:1:cnt:{GPL3_CONTENT_ID}"
    assert elapsed < LICENSE_ID_BUDGET_SECONDS
    _report(1, f"license text -> {computed.hex} in {elapsed:.4f}s")


# --- criterion 2 --------------------------------------------------------------
# Degenerate objects must get their frozen ids, and near-identical shapes
# (empty file vs empty subdirectory under the same name) must not collide.


def test_criterion_02_degenerate_objects_get_frozen_distinct_ids(oracle):
    empty_content = content_id(Content(b"")).hex
    empty_directory = directory_id(Directory(())).hex
    empty_snapshot = snapshot_id(Snapshot({})).hex
    assert empty_content == EMPTY_CONTENT_ID
    assert empty_directory == EMPTY_DIRECTORY_ID
    assert empty_snapshot == EMPTY_SNAPSHOT_ID
    # first principles: an empty snapshot is nothing but its header
    assert hashlib.sha1(b"snapshot 0\x00").hexdigest() == EMPTY_SNAPSHOT_ID

    with_file = Directory(
        (
            DirectoryEntry(
                b"f",
                EntryPermission.REGULAR_FILE,
                ObjectId.from_hex(EMPTY_CONTENT_ID),
            ),
        )
    )
    with_subdir = Directory(
        (
            DirectoryEntry(
                b"f",
                EntryPermission.DIRECTORY,
                ObjectId.from_hex(EMPTY_DIRECTORY_ID),
            ),
        )
    )
    with_file_id = directory_id(with_file).hex
    with_subdir_id = directory_id(with_subdir).hex
    assert with_file_id == oracle.mktree(
        [("100644", "blob", EMPTY_CONTENT_ID, "f")]
    )
    assert with_subdir_id == oracle.mktree(
        [("040000", "tree", EMPTY_DIRECTORY_ID, "f")]
    )

    ids = {
        empty_content,
        empty_directory,
        empty_snapshot,
        with_file_id,
        with_subdir_id,
    }
    assert len(ids) == 5
    _report(2, "five degenerate ids frozen and pairwise distinct")


# --- criterion 3 --------------------------------------------------------------
# 100 seeded instances (25 each of content, directory, revision, release)
# must hash to exactly what git plumbing computes, within 30 seconds.

_ENTRY_SHAPES = {
    "file": ("100644", "blob", EntryPermission.REGULAR_FILE),
    "exec": ("100755", "blob", EntryPermission.EXECUTABLE_FILE),
    "link": ("120000", "blob", EntryPermission.SYMLINK),
    "dir": ("040000", "tree", EntryPermission.DIRECTORY),
    "gitlink": ("160000", "commit", EntryPermission.NESTED_REVISION),
}

_NAME_CHARS = string.ascii_lowercase + string.digits + "._-"
_UTC_OFFSETS = ["+0000", "+0200", "-0130", "+0530", "-1100", "+1400"]
_WORDS = [
    "refactor", "tighten", "hash", "walk", "rename",
    "prune", "vendor", "naïve", "fix", "sort",
]


def _fresh_name(rng: random.Random, used: set) -> str:
    # starts with a letter, so never ".", "..", or a dotfile
    while True:
        name = rng.choice(string.ascii_lowercase) + "".join(
            rng.choices(_NAME_CHARS, k=rng.randrange(0, 11))
        )
        if name not in used:
            used.add(name)
            return name


def _rand_person(rng: random.Random):
    first = "".join(rng.choices(string.ascii_lowercase, k=rng.randrange(3, 9)))
    last = "".join(rng.choices(string.ascii_lowercase, k=rng.randrange(3, 9)))
    host = "".join(rng.choices(string.ascii_lowercase, k=rng.randrange(3, 8)))
    seconds = rng.randrange(1, 2**31 - 1)
    return (
        f"{first} {last}",
        f"{first}@{host}.example",
        seconds,
        rng.choice(_UTC_OFFSETS),
    )


def _stamp(person) -> PersonStamp:
    name, email, seconds, offset = person
    return PersonStamp(f"{name} <{email}>".encode(), seconds, offset)


def _rand_message(rng: random.Random, allow_empty: bool = True) -> bytes:
    if allow_empty and rng.random() < 0.1:
        return b""
    paragraphs = [
        " ".join(rng.choices(_WORDS, k=rng.randrange(1, 6)))
        for _ in range(rng.randrange(1, 4))
    ]
    text = "\n\n".join(paragraphs)
    if rng.random() < 0.8:
        text += "\n"
    return text.encode("utf-8")


def test_criterion_03_hundred_seeded_instances_match_git(oracle):
    rng = random.Random(20260814)
    started = time.perf_counter()
    checked = 0

    written_blobs = []
    for _ in range(ORACLE_INSTANCES_PER_KIND):
        data = rng.randbytes(rng.randrange(0, 4096))
        mine = content_id(Content(data)).hex
        assert mine == oracle.blob_id(data)
        written_blobs.append(mine)
        checked += 1

    # Trees take entry targets as given, so this leg isolates directory
    # serialization (sorting, modes, nul framing) from blob hashing.
    tree_pool = []
    for _ in range(ORACLE_INSTANCES_PER_KIND):
        git_entries = []
        my_entries = []
        used: set = set()
        for _ in range(rng.randrange(0, 7)):
            name = _fresh_name(rng, used)
            kind = rng.choice(
                ["file", "file", "file", "exec", "link", "dir", "dir", "gitlink"]
            )
            if kind == "dir" and not tree_pool:
                kind = "file"
            if kind == "gitlink":
                target = "%040x" % rng.randrange(1 << 160)
            elif kind == "dir":
                target = rng.choice(tree_pool)
            else:
                target = content_id(
                    Content(rng.randbytes(rng.randrange(0, 64)))
                ).hex
            mode, git_kind, permission = _ENTRY_SHAPES[kind]
            git_entries.append((mode, git_kind, target, name))
            my_entries.append(
                DirectoryEntry(
                    name.encode(), permission, ObjectId.from_hex(target)
                )
            )
        mine = directory_id(Directory(tuple(my_entries))).hex
        assert mine == oracle.mktree(git_entries)
        tree_pool.append(mine)
        checked += 1

    commit_pool = []
    for _ in range(ORACLE_INSTANCES_PER_KIND):
        tree = rng.choice(tree_pool)
        parents = rng.sample(
            commit_pool, k=min(len(commit_pool), rng.randrange(0, 3))
        )
        author = _rand_person(rng)
        committer = _rand_person(rng)
        message = _rand_message(rng)
        mine = revision_id(
            Revision(
                tree=ObjectId.from_hex(tree),
                parents=tuple(ObjectId.from_hex(p) for p in parents),
                author=_stamp(author),
                committer=_stamp(committer),
                message=message,
            )
        ).hex
        assert mine == oracle.commit_id(tree, parents, author, committer, message)
        commit_pool.append(mine)
        checked += 1

    # git tag needs its target in the object db, so releases point at
    # objects the oracle has already written.
    targets = (
        [(h, ObjectType.CONTENT) for h in written_blobs]
        + [(h, ObjectType.DIRECTORY) for h in tree_pool]
        + [(h, ObjectType.REVISION) for h in commit_pool]
    )
    for index in range(ORACLE_INSTANCES_PER_KIND):
        target_hex, target_type = rng.choice(targets)
        name = f"acceptance-{index:02d}-" + "".join(
            rng.choices(string.ascii_lowercase, k=6)
        )
        tagger = _rand_person(rng)
        message = _rand_message(rng, allow_empty=False)
        mine = release_id(
            Release(
                target=ObjectId.from_hex(target_hex),
                target_type=target_type,
                name=name.encode(),
                message=message,
                tagger=_stamp(tagger),
            )
        ).hex
        assert mine == oracle.tag_id(target_hex, name, message, tagger)
        checked += 1

    elapsed = time.perf_counter() - started
    assert checked == 4 * ORACLE_INSTANCES_PER_KIND
    assert elapsed < ORACLE_SUITE_BUDGET_SECONDS
    _report(3, f"{checked} library ids == git ids in {elapsed:.1f}s")


# --- criterion 4 --------------------------------------------------------------
# A snapshot with every branch flavor must hash to the frozen id derived
# from a manifest assembled by hand, regardless of branch insertion order.

FROZEN_SNAPSHOT_ID = "2cb461bacebad24078af18f0a745a2dc3874e85a"


def test_criterion_04_snapshot_matches_handwritten_manifest_any_order():
    rev_master = "0f067e637b5c7f7af6b523e772d8f2fa86616aad"
    rev_dev = "4081540863f3c0e50c60b1709ca6df2720b2595e"
    rel_v1 = "22ece559cc7cc2364edc5e5593d63ae8bd229f9f"

    # Reference manifest written out by hand: branch names in byte order,
    # each line `<kind> SP <name> NUL <target-len>:<target-bytes>`, headed
    # by `snapshot SP <body-len> NUL`.
    body = b"".join(
        [
            b"alias HEAD\x00" + b"17:refs/heads/master",
            b"content refs/file\x00" + b"20:" + bytes.fromhex(GPL3_CONTENT_ID),
            b"dangling refs/gone\x00" + b"0:",
            b"revision refs/heads/dev\x00" + b"20:" + bytes.fromhex(rev_dev),
            b"revision refs/heads/master\x00"
            + b"20:"
            + bytes.fromhex(rev_master),
            b"snapshot refs/mirror\x00"
            + b"20:"
            + bytes.fromhex(EMPTY_SNAPSHOT_ID),
            b"release refs/tags/v1.0\x00" + b"20:" + bytes.fromhex(rel_v1),
            b"directory refs/tree\x00"
            + b"20:"
            + bytes.fromhex(EMPTY_DIRECTORY_ID),
        ]
    )
    manifest = b"snapshot %d\x00%s" % (len(body), body)
    assert hashlib.sha1(manifest).hexdigest() == FROZEN_SNAPSHOT_ID

    oid = ObjectId.from_hex
    branches = {
        b"refs/heads/master": BranchTarget.to_object(
            ObjectType.REVISION, oid(rev_master)
        ),
        b"refs/heads/dev": BranchTarget.to_object(
            ObjectType.REVISION, oid(rev_dev)
        ),
        b"refs/tags/v1.0": BranchTarget.to_object(
            ObjectType.RELEASE, oid(rel_v1)
        ),
        b"refs/file": BranchTarget.to_object(
            ObjectType.CONTENT, oid(GPL3_CONTENT_ID)
        ),
        b"refs/tree": BranchTarget.to_object(
            ObjectType.DIRECTORY, oid(EMPTY_DIRECTORY_ID)
        ),
        b"refs/mirror": BranchTarget.to_object(
            ObjectType.SNAPSHOT, oid(EMPTY_SNAPSHOT_ID)
        ),
        b"HEAD": BranchTarget.to_alias(b"refs/heads/master"),
        b"refs/gone": BranchTarget.dangling_ref(),
    }
    assert manifest_of(Snapshot(branches)) == manifest
    assert snapshot_id(Snapshot(branches)).hex == FROZEN_SNAPSHOT_ID

    names = list(branches)
    rng = random.Random(4)
    for _ in range(10):
        rng.shuffle(names)
        shuffled = {name: branches[name] for name in names}
        assert snapshot_id(Snapshot(shuffled)).hex == FROZEN_SNAPSHOT_ID
    _report(4, "snapshot id frozen against handwritten bytes, order-free")


# --- criterion 5 --------------------------------------------------------------
# The identifier grammar must round-trip 1000 seeded values, reject 20
# malformed inputs, and reproduce published identifiers verbatim.

Z40 = "0" * 40
MALFORMED_INPUTS = [
    "",
    "swh",
    "swh:",
    "SWH:1:cnt:" + Z40,
    "swh:2:cnt:" + Z40,
    "swh:one:cnt:" + Z40,
    "swh:1:blob:" + Z40,
    "swh:1:cnt",
    "swh:1:cnt:" + "0" * 39,
    "swh:1:cnt:" + "0" * 41,
    "swh:1:cnt:" + "g" * 40,
    "swh:1:cnt:" + Z40 + ";",
    "swh:1:cnt:" + Z40 + ";origin",
    "swh:1:cnt:" + Z40 + ";origin=",
    "swh:1:cnt:" + Z40 + ";origin=not a url",
    "swh:1:cnt:" + Z40 + ";lines=",
    "swh:1:cnt:" + Z40 + ";lines=abc",
    "swh:1:cnt:" + Z40 + ";lines=9-5",
    "swh:1:cnt:" + Z40 + ";lines=0",
    "swh:1:cnt:" + Z40 + ";origin=https://a.org;origin=https://b.org",
]


def test_criterion_05_grammar_round_trips_and_rejects():
    rng = random.Random(1789)
    for _ in range(ROUND_TRIP_COUNT):
        core = CoreSwhid(
            rng.choice(list(ObjectType)), ObjectId(rng.randbytes(20))
        )
        origin = None
        lines = None
        if rng.random() < 0.5:
            scheme = rng.choice(["https", "git+ssh", "svn"])
            host = "".join(rng.choices(string.ascii_lowercase, k=6))
            leaf = "".join(
                rng.choices(string.ascii_lowercase + string.digits, k=8)
            )
            origin = f"{scheme}://{host}.example/{leaf}"
            if rng.random() < 0.1:
                origin += "/café"  # non-ascii exercises byte-offset handling
        if rng.random() < 0.5:
            start = rng.randrange(1, 10_000)
            if rng.random() < 0.6:
                lines = LineRange(start, start + rng.randrange(0, 500))
            else:
                lines = LineRange(start)
        value = QualifiedSwhid(core=core, origin=origin, lines=lines)
        text = str(value)
        parsed = parse(text)
        assert parsed == value
        assert str(parsed) == text

    assert len(MALFORMED_INPUTS) == REJECTION_COUNT
    rejected = 0
    for bad in MALFORMED_INPUTS:
        with pytest.raises(SwhidParseError):
            parse(bad)
        rejected += 1
    assert rejected == REJECTION_COUNT

    for text in KNOWN_PUBLISHED_IDS:
        assert str(parse(text)) == text

    _report(
        5,
        f"{ROUND_TRIP_COUNT} round trips, {rejected} rejections,"
        f" {len(KNOWN_PUBLISHED_IDS)} published ids reproduced",
    )


# --- criterion 6 --------------------------------------------------------------
# Mutating any one of 50 files must flip `swhid verify` to exit code 1 and
# localize the change to exactly that file; restoring it must verify clean.


def test_criterion_06_fifty_file_mutations_each_localized(tmp_path):
    layout = ["", "src", "src/core", "src/util", "docs", "docs/api", "data/raw"]
    root = tmp_path / "project"
    rel_paths = []
    for index in range(MUTATION_FILE_COUNT):
        sub = layout[index % len(layout)]
        rel = f"{sub}/file{index:02d}.txt" if sub else f"file{index:02d}.txt"
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(f"payload {index}\n".encode() * (index % 5 + 1))
        rel_paths.append(rel)

    root_swhid, store = ingest_path(root)
    objects = tmp_path / "objects-export"
    store.save(objects)

    runner = CliRunner()
    clean = runner.invoke(main, ["verify", str(root_swhid), str(root)])
    assert clean.exit_code == ExitStatus.OK

    localized = 0
    for rel in rel_paths:
        target = root / rel
        original = target.read_bytes()
        target.write_bytes(original[:-1] + bytes([original[-1] ^ 0x01]))
        result = runner.invoke(
            main,
            [
                "verify",
                str(root_swhid),
                str(root),
                "--objects",
                str(objects),
                "--json",
            ],
        )
        assert result.exit_code == ExitStatus.MISMATCH
        report = json.loads(result.stdout)
        assert report["matched"] is False
        assert [(d["path"], d["note"]) for d in report["detail"]] == [
            (rel, "differs")
        ]
        target.write_bytes(original)
        localized += 1

    assert localized == MUTATION_FILE_COUNT
    restored = runner.invoke(
        main, ["verify", str(root_swhid), str(root), "--objects", str(objects)]
    )
    assert restored.exit_code == ExitStatus.OK
    _report(
        6,
        f"{localized}/{MUTATION_FILE_COUNT} single-file mutations localized"
        " to the exact path",
    )


# --- criterion 7 --------------------------------------------------------------
# With every 5th raw response corrupted, 15 CLI fetches must fail on
# exactly the corrupted ones, and a failed fetch must leave no file behind:
# unverified bytes never reach disk.


def test_criterion_07_corrupted_fetches_never_reach_disk(archive, tmp_path):
    payloads = [
        f"artifact {index}\n".encode() * (index + 1)
        for index in range(FETCH_COUNT)
    ]
    ids = [archive.add_content(data) for data in payloads]
    archive.corrupt_every = CORRUPT_EVERY

    runner = CliRunner()
    failures = []
    for number, (swhid, data) in enumerate(zip(ids, payloads), start=1):
        out_file = tmp_path / f"out-{number:02d}"
        result = runner.invoke(
            main,
            [
                "resolve",
                str(swhid),
                "--fetch",
                str(out_file),
                "--endpoint",
                archive.endpoint,
            ],
        )
        if result.exit_code == ExitStatus.OK:
            assert out_file.read_bytes() == data
        else:
            assert result.exit_code == ExitStatus.MISMATCH
            assert not out_file.exists()
            failures.append(number)

    assert failures == [5, 10, 15]
    # one GET per fetch: integrity failures are terminal, never retried
    assert archive.raw_requests == FETCH_COUNT
    _report(
        7,
        f"{FETCH_COUNT} fetches, corrupted #{failures} rejected,"
        " nothing unverified written",
    )


# --- criterion 8 --------------------------------------------------------------
# Ten identical files must collapse to one stored blob (plus the tree) and
# re-ingesting the same tree must add nothing new.


def test_criterion_08_identical_files_deduplicate_in_the_store(tmp_path):
    root = tmp_path / "dupes"
    root.mkdir()
    payload = b"the same bytes in every copy\n"
    for index in range(10):
        (root / f"copy{index}.txt").write_bytes(payload)

    root_swhid, store = ingest_path(root)
    blob = content_id(Content(payload))
    assert len(store) == 2  # one blob + one tree
    assert store.insertions(ObjectType.CONTENT, blob) == 10
    assert (ObjectType.DIRECTORY, root_swhid.object_id) in store

    again, same_store = ingest_path(root, store=store)
    assert again == root_swhid
    assert same_store is store
    assert len(store) == 2
    assert store.insertions(ObjectType.CONTENT, blob) == 20
    assert store.audit() == []
    _report(8, "10 identical files -> 2 stored objects; re-ingest adds none")


# --- criterion 9 --------------------------------------------------------------
# Resolving and fetching the GPL-3.0 content against the live archive must
# confirm the type and return the exact bytes. It contacts the public archive,
# so it runs only when SWHID_LIVE_ARCHIVE=1 is set, and it still skips when
# the archive is unreachable.


@pytest.mark.skipif(
    os.environ.get("SWHID_LIVE_ARCHIVE") != "1",
    reason="criterion 9 contacts the public archive; set SWHID_LIVE_ARCHIVE=1",
)
def test_criterion_09_live_archive_confirms_known_content(gpl3_bytes):
    swhid = parse(f"swh:1:cnt:{GPL3_CONTENT_ID}")
    try:
        metadata = resolve_metadata(swhid, timeout=10.0, retries=1)
        data = fetch_content_verified(swhid, timeout=30.0, retries=1)
    except TransportError as exc:
        pytest.skip(f"criterion 9: live archive unreachable ({exc})")
    assert metadata.swhid == swhid.core
    assert metadata.object_type_confirmed
    assert data == gpl3_bytes
    _report(9, f"live archive served {len(data)} verified license bytes")
