import base64
import hashlib

import pytest
from builders import DROP, doc, person, release, revision
from hypothesis import example, given, settings, strategies as st
from oracle import hash_texts

from swhid.describe import describe_nodes, realize_descriptions
from swhid.errors import (
    DuplicateNameError,
    InvalidBranchNameError,
    InvalidNameError,
    MalformedNameError,
    MalformedPersonError,
)
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
    content_id,
    directory_id,
    manifest_of,
    object_id_of,
    release_id,
    revision_id,
    snapshot_id,
    swhid_of,
)
from swhid.syntax import ObjectId, ObjectType

EMPTY_BLOB = "e69de29bb2d1d6434b8b29ae775ad8c2e48c5391"
EMPTY_TREE = "4b825dc642cb6eb9a060e54bf8d69288fbee4904"
EMPTY_SNAPSHOT = "1a8893e6a86f444e8be8e7bda6cb34fb1735a00e"
GPL3 = "94a9ed024d3859793618152ea559a168bbcbb5e2"


def _id(n: int) -> ObjectId:
    return ObjectId(bytes([n]) * 20)


# --- manifest bytes, checked against hand-assembled expectations -------------


def test_content_manifest_bytes():
    assert manifest_of(Content(b"abc")) == b"blob 3\x00abc"
    assert manifest_of(Content(b"")) == b"blob 0\x00"


def test_directory_manifest_bytes():
    d = Directory(
        (
            DirectoryEntry(b"b.txt", EntryPermission.REGULAR_FILE, _id(1)),
            DirectoryEntry(b"a", EntryPermission.DIRECTORY, _id(2)),
        )
    )
    body = (
        b"40000 a\x00" + b"\x02" * 20
        + b"100644 b.txt\x00" + b"\x01" * 20
    )
    assert manifest_of(d) == b"tree %d\x00%s" % (len(body), body)


def test_revision_manifest_bytes():
    stamp = PersonStamp(b"Ann <ann@example.org>", 1500000000, "-0230")
    r = Revision(
        tree=_id(3),
        parents=(_id(4), _id(5)),
        author=stamp,
        committer=PersonStamp(b"Bob <bob@example.org>", 1500000001, "+0000"),
        message=b"merge\n",
    )
    body = (
        b"tree " + (b"\x03" * 20).hex().encode() + b"\n"
        b"parent " + (b"\x04" * 20).hex().encode() + b"\n"
        b"parent " + (b"\x05" * 20).hex().encode() + b"\n"
        b"author Ann <ann@example.org> 1500000000 -0230\n"
        b"committer Bob <bob@example.org> 1500000001 +0000\n"
        b"\n"
        b"merge\n"
    )
    assert manifest_of(r) == b"commit %d\x00%s" % (len(body), body)


def test_release_manifest_bytes_without_tagger():
    r = Release(
        target=_id(6),
        target_type=ObjectType.REVISION,
        name=b"v1.0",
        message=b"notes\n",
        tagger=None,
    )
    body = (
        b"object " + (b"\x06" * 20).hex().encode() + b"\n"
        b"type commit\n"
        b"tag v1.0\n"
        b"\n"
        b"notes\n"
    )
    assert manifest_of(r) == b"tag %d\x00%s" % (len(body), body)


@pytest.mark.parametrize(
    "target_type,token",
    [
        (ObjectType.CONTENT, b"blob"),
        (ObjectType.DIRECTORY, b"tree"),
        (ObjectType.REVISION, b"commit"),
        (ObjectType.RELEASE, b"tag"),
        (ObjectType.SNAPSHOT, b"snapshot"),
    ],
)
def test_release_target_type_tokens(target_type, token):
    r = Release(
        target=_id(1), target_type=target_type, name=b"x", message=b""
    )
    assert b"type %s\n" % token in manifest_of(r)


def test_snapshot_manifest_bytes():
    rev = _id(7)
    rel = _id(8)
    snap = Snapshot(
        {
            b"refs/heads/main": BranchTarget.to_object(ObjectType.REVISION, rev),
            b"HEAD": BranchTarget.to_alias(b"refs/heads/main"),
            b"refs/tags/v1": BranchTarget.to_object(ObjectType.RELEASE, rel),
            b"refs/broken": BranchTarget.dangling_ref(),
        }
    )
    body = (
        b"alias HEAD\x00" + b"15:refs/heads/main"
        + b"dangling refs/broken\x00" + b"0:"
        + b"revision refs/heads/main\x00" + b"20:" + rev.raw
        + b"release refs/tags/v1\x00" + b"20:" + rel.raw
    )
    assert manifest_of(snap) == b"snapshot %d\x00%s" % (len(body), body)


def test_manifest_rejects_foreign_values():
    with pytest.raises(TypeError):
        manifest_of(b"blob")  # type: ignore[arg-type]


# --- frozen degenerate ids ----------------------------------------------------


def test_empty_content_id():
    assert content_id(Content(b"")).hex == EMPTY_BLOB


def test_empty_directory_id():
    assert directory_id(Directory(())).hex == EMPTY_TREE


def test_empty_snapshot_id():
    assert snapshot_id(Snapshot({})).hex == EMPTY_SNAPSHOT
    assert (
        hashlib.sha1(b"snapshot 0\x00").hexdigest() == EMPTY_SNAPSHOT
    )


def test_gpl3_content_id(gpl3_bytes):
    assert content_id(Content(gpl3_bytes)).hex == GPL3


def test_swhid_of():
    assert str(swhid_of(Content(b""))) == f"swh:1:cnt:{EMPTY_BLOB}"
    assert str(swhid_of(Directory(()))) == f"swh:1:dir:{EMPTY_TREE}"


def test_object_id_of_returns_type():
    object_type, object_id = object_id_of(Snapshot({}))
    assert object_type is ObjectType.SNAPSHOT
    assert object_id.hex == EMPTY_SNAPSHOT


# --- equivalence with git plumbing --------------------------------------------


def test_blob_ids_match_git(oracle, gpl3_bytes):
    for data in (b"", b"hi\n", b"\x00\xff" * 33, gpl3_bytes):
        assert content_id(Content(data)).hex == oracle.blob_id(data)


def test_tree_sort_order_matches_git(oracle):
    # 'foo.txt' sorts before the directory 'foo', which sorts before 'foo0':
    # directories compare as if their name ended in '/'.
    inner_blob = oracle.blob_id(b"x")
    inner_tree = oracle.mktree([("100644", "blob", inner_blob, "x")])
    blob = oracle.blob_id(b"y")
    expected = oracle.mktree(
        [
            ("040000", "tree", inner_tree, "foo"),
            ("100644", "blob", blob, "foo.txt"),
            ("100644", "blob", blob, "foo0"),
            ("100644", "blob", blob, "fo"),
        ]
    )
    x = content_id(Content(b"x"))
    y = content_id(Content(b"y"))
    inner = Directory(
        (DirectoryEntry(b"x", EntryPermission.REGULAR_FILE, x),)
    )
    d = Directory(
        (
            DirectoryEntry(b"foo.txt", EntryPermission.REGULAR_FILE, y),
            DirectoryEntry(b"fo", EntryPermission.REGULAR_FILE, y),
            DirectoryEntry(b"foo", EntryPermission.DIRECTORY, directory_id(inner)),
            DirectoryEntry(b"foo0", EntryPermission.REGULAR_FILE, y),
        )
    )
    assert directory_id(d).hex == expected


def test_tree_with_all_entry_kinds_matches_git(oracle):
    blob = oracle.blob_id(b"#!/bin/sh\n")
    link = oracle.blob_id(b"target/path")
    gitlink = "aa" * 20
    sub = oracle.mktree([])
    expected = oracle.mktree(
        [
            ("100644", "blob", blob, "plain"),
            ("100755", "blob", blob, "runme"),
            ("120000", "blob", link, "ln"),
            ("160000", "commit", gitlink, "vendored"),
            ("040000", "tree", sub, "empty"),
        ]
    )
    script = content_id(Content(b"#!/bin/sh\n"))
    linkid = content_id(Content(b"target/path"))
    d = Directory(
        (
            DirectoryEntry(b"plain", EntryPermission.REGULAR_FILE, script),
            DirectoryEntry(b"runme", EntryPermission.EXECUTABLE_FILE, script),
            DirectoryEntry(b"ln", EntryPermission.SYMLINK, linkid),
            DirectoryEntry(
                b"vendored",
                EntryPermission.NESTED_REVISION,
                ObjectId.from_hex(gitlink),
            ),
            DirectoryEntry(b"empty", EntryPermission.DIRECTORY, directory_id(Directory(()))),
        )
    )
    assert directory_id(d).hex == expected


def test_nested_trees_match_git(oracle):
    blob1 = oracle.blob_id(b"one")
    blob2 = oracle.blob_id(b"two")
    link = oracle.blob_id(b"../up")
    root_hex = oracle.tree_from_paths(
        {
            "a/b/c.txt": ("100644", blob1),
            "a/d.txt": ("100755", blob2),
            "a/b/ln": ("120000", link),
            "e.txt": ("100644", blob2),
        }
    )
    c1 = content_id(Content(b"one"))
    c2 = content_id(Content(b"two"))
    cl = content_id(Content(b"../up"))
    b = Directory(
        (
            DirectoryEntry(b"c.txt", EntryPermission.REGULAR_FILE, c1),
            DirectoryEntry(b"ln", EntryPermission.SYMLINK, cl),
        )
    )
    a = Directory(
        (
            DirectoryEntry(b"b", EntryPermission.DIRECTORY, directory_id(b)),
            DirectoryEntry(b"d.txt", EntryPermission.EXECUTABLE_FILE, c2),
        )
    )
    root = Directory(
        (
            DirectoryEntry(b"a", EntryPermission.DIRECTORY, directory_id(a)),
            DirectoryEntry(b"e.txt", EntryPermission.REGULAR_FILE, c2),
        )
    )
    assert directory_id(root).hex == root_hex
    # Interior nodes agree too, straight from git's own nesting.
    assert directory_id(a).hex == oracle.subtree_id(root_hex, "a")
    assert directory_id(b).hex == oracle.subtree_id(root_hex, "a/b")


def test_commit_ids_match_git(oracle):
    tree = oracle.mktree([])
    person = ("Ann Example", "ann@example.org", 1234567890, "+0200")
    cases = [
        ((), b"initial\n"),
        ((), b""),  # empty message
        ((), b"no trailing newline"),
        ((), "résumé\n".encode("utf-8")),
    ]
    parents: list = []
    for parent_list, message in cases:
        expected = oracle.commit_id(tree, parent_list, person, person, message)
        r = Revision(
            tree=ObjectId.from_hex(tree),
            parents=tuple(ObjectId.from_hex(p) for p in parent_list),
            author=PersonStamp(b"Ann Example <ann@example.org>", 1234567890, "+0200"),
            committer=PersonStamp(b"Ann Example <ann@example.org>", 1234567890, "+0200"),
            message=message,
        )
        assert revision_id(r).hex == expected
        parents.append(expected)
    # merge commit with two parents, distinct author and committer
    author = ("Ann Example", "ann@example.org", 1, "-1100")
    committer = ("Bo B", "bo@example.org", 2, "+0000")
    expected = oracle.commit_id(tree, parents[:2], author, committer, b"merge\n")
    r = Revision(
        tree=ObjectId.from_hex(tree),
        parents=tuple(ObjectId.from_hex(p) for p in parents[:2]),
        author=PersonStamp(b"Ann Example <ann@example.org>", 1, "-1100"),
        committer=PersonStamp(b"Bo B <bo@example.org>", 2, "+0000"),
        message=b"merge\n",
    )
    assert revision_id(r).hex == expected


def test_commit_with_minus_zero_offset_matches_git(oracle):
    # '-0000' cannot be produced through commit-tree env vars, so the raw
    # object bytes are written by hand and hashed by git itself.
    tree = "4b825dc642cb6eb9a060e54bf8d69288fbee4904"
    raw = (
        b"tree 4b825dc642cb6eb9a060e54bf8d69288fbee4904\n"
        b"author A <a@x> 1735689600 -0000\n"
        b"committer A <a@x> 1735689600 -0000\n"
        b"\n"
        b"utc, but unspecified\n"
    )
    expected = oracle.hash_raw("commit", raw)
    stamp = PersonStamp(b"A <a@x>", 1735689600, "-0000")
    r = Revision(
        tree=ObjectId.from_hex(tree),
        parents=(),
        author=stamp,
        committer=stamp,
        message=b"utc, but unspecified\n",
    )
    assert revision_id(r).hex == expected
    # The two zero offsets are distinct values with distinct ids.
    plus = Revision(
        tree=ObjectId.from_hex(tree),
        parents=(),
        author=PersonStamp(b"A <a@x>", 1735689600, "+0000"),
        committer=PersonStamp(b"A <a@x>", 1735689600, "+0000"),
        message=b"utc, but unspecified\n",
    )
    assert revision_id(plus) != revision_id(r)


def test_commit_extra_headers_fold_like_git(oracle):
    raw = (
        b"tree 4b825dc642cb6eb9a060e54bf8d69288fbee4904\n"
        b"author A <a@x> 10 +0000\n"
        b"committer A <a@x> 10 +0000\n"
        b"gpgsig -----BEGIN PGP SIGNATURE-----\n"
        b" aGVsbG8=\n"
        b" \n"
        b" -----END PGP SIGNATURE-----\n"
        b"\n"
        b"signed\n"
    )
    expected = oracle.hash_raw("commit", raw)
    stamp = PersonStamp(b"A <a@x>", 10, "+0000")
    r = Revision(
        tree=ObjectId.from_hex("4b825dc642cb6eb9a060e54bf8d69288fbee4904"),
        parents=(),
        author=stamp,
        committer=stamp,
        message=b"signed\n",
        extra_headers=(
            (
                b"gpgsig",
                b"-----BEGIN PGP SIGNATURE-----\n"
                b"aGVsbG8=\n"
                b"\n"
                b"-----END PGP SIGNATURE-----",
            ),
        ),
    )
    assert revision_id(r).hex == expected


def test_negative_timestamp_renders_plainly(oracle):
    stamp = PersonStamp(b"A <a@x>", -5, "+0000")
    assert stamp.line(b"author") == b"author A <a@x> -5 +0000\n"
    raw = (
        b"tree 4b825dc642cb6eb9a060e54bf8d69288fbee4904\n"
        b"author A <a@x> -5 +0000\n"
        b"committer A <a@x> -5 +0000\n"
        b"\n"
        b"before the epoch\n"
    )
    r = Revision(
        tree=ObjectId.from_hex("4b825dc642cb6eb9a060e54bf8d69288fbee4904"),
        parents=(),
        author=stamp,
        committer=stamp,
        message=b"before the epoch\n",
    )
    assert revision_id(r).hex == oracle.hash_raw("commit", raw)


def test_tag_ids_match_git(oracle):
    blob = oracle.blob_id(b"data\n")
    tree = oracle.mktree([("100644", "blob", blob, "f")])
    person = ("Tag Ger", "tg@example.org", 1600000000, "+0530")
    commit = oracle.commit_id(tree, [], person, person, b"c\n")
    stamp = PersonStamp(b"Tag Ger <tg@example.org>", 1600000000, "+0530")
    cases = [
        (commit, ObjectType.REVISION, b"v1.0", b"release notes\n"),
        (blob, ObjectType.CONTENT, b"blob-tag", b"points at bytes\n"),
        (tree, ObjectType.DIRECTORY, b"tree-tag", b"points at a tree\n"),
        (commit, ObjectType.REVISION, b"multiline", b"line one\n\nline three\n\n"),
        (commit, ObjectType.REVISION, b"no-eol", b"no trailing newline"),
    ]
    for target_hex, target_type, name, message in cases:
        expected = oracle.tag_id(target_hex, name.decode(), message, person)
        r = Release(
            target=ObjectId.from_hex(target_hex),
            target_type=target_type,
            name=name,
            message=message,
            tagger=stamp,
        )
        assert release_id(r).hex == expected


def test_taggerless_tag_matches_git(oracle):
    raw = (
        b"object 4b825dc642cb6eb9a060e54bf8d69288fbee4904\n"
        b"type tree\n"
        b"tag anonymous\n"
        b"\n"
        b"no tagger line at all\n"
    )
    r = Release(
        target=ObjectId.from_hex("4b825dc642cb6eb9a060e54bf8d69288fbee4904"),
        target_type=ObjectType.DIRECTORY,
        name=b"anonymous",
        message=b"no tagger line at all\n",
        tagger=None,
    )
    assert release_id(r).hex == oracle.hash_raw("tag", raw)


# --- git parity for generated revisions and releases ---------------------------

# Names and emails git keeps as given: it strips spaces and dots, among
# other "crud", from their ends.
_NAMES = st.text("abAZ09-_. \u00e9", min_size=1, max_size=6).filter(
    lambda text: text[0] not in " ." and text[-1] not in " ."
)
_EMAILS = st.text("ab09-_.@+\u00e9", max_size=6).filter(
    lambda text: not text or "." not in (text[0], text[-1])
)
_OFFSETS = st.one_of(
    st.sampled_from(["+0000", "-0000", "+1400", "-0930"]),
    st.builds("{}{:02}{:02}".format, st.sampled_from("+-"), st.integers(0, 99), st.integers(0, 59)),
)
# (name, email, seconds, offset), as GitOracle takes a person; an email of
# None, in an @example, is a person without one.
_PEOPLE = st.tuples(_NAMES, _EMAILS, st.one_of(st.just(0), st.integers(2**32, 2**63)), _OFFSETS)
_MESSAGES = st.lists(
    st.sampled_from([b"a", b" ", b"\n", b"\r", b"\r\n", b"\xff", b"\xe9", "\u00e9".encode()]),
    max_size=6,
).map(b"".join)
_TAG_NAMES = st.from_regex(r"\A[a-z0-9][a-z0-9_-]{0,5}(\.[a-z0-9_-]{1,3})?\Z")


def _model_only(people, parents=(), message=None) -> list:
    """Why git's porcelain cannot write these inputs as given: the model keeps them,
    since the archive must identify the history it finds.
    """
    reasons = []
    for _, email, seconds, offset in people:
        if offset == "-0000":
            reasons.append("git writes the offset -0000 as +0000")
        if int(offset[3:]) > 59:
            reasons.append("git carries an offset's minutes past 59 into its hours")
        if seconds < 0:
            reasons.append("git refuses a date before the epoch")
        if email is None:
            reasons.append("git writes a person without an email as 'name <>'")
    if len(set(parents)) < len(parents):
        reasons.append("commit-tree drops a parent given twice")
    if message is not None and not _is_utf8(message):
        reasons.append("commit-tree rewrites the bytes of a message that are not UTF-8 as Latin-1")
    return reasons


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _stamp(who) -> PersonStamp:
    name, email, seconds, offset = who
    raw = name if email is None else f"{name} <{email}>"
    return PersonStamp(raw.encode(), seconds, offset)


def _written(who):
    """who as git's porcelain is given it: without an email, with an empty one."""
    name, email, seconds, offset = who
    return name, email or "", seconds, offset


def _porcelain(call, *args):
    """The id git's porcelain writes, or None where it refuses the input."""
    try:
        return call(*args)
    except RuntimeError:
        return None


def _agrees_with_git(oracle, node, porcelain, reasons) -> None:
    """The porcelain wrote the model's id, or for a model-only input git's
    object check accepts the model's bytes and hashes them to that id.
    """
    header, _, body = manifest_of(node).partition(b"\x00")
    model = object_id_of(node)[1].hex
    if not reasons:
        assert porcelain == model
        return
    assert porcelain != model, reasons
    kind = header.split(b" ")[0].decode()
    assert hash_texts(oracle.root / ".git", kind, [body], oracle.root / "texts") == [model]


@pytest.fixture(scope="module")
def parent_commits(session_oracle):
    who = ("P", "p@x", 0, "+0000")
    return [
        session_oracle.commit_id(EMPTY_TREE, [], who, who, b"parent %d\n" % i) for i in range(3)
    ]


_A = ("A", "a@x", 0, "+0000")


@settings(max_examples=20, deadline=None)
@example(parents=[], author=("A", "a@x", 0, "-0000"), committer=_A, message=b"")
@example(parents=[], author=_A, committer=("A", "a@x", 0, "+0099"), message=b"")
@example(parents=[], author=("A", "a@x", -5, "+0000"), committer=_A, message=b"")
@example(parents=[], author=("A", None, 0, "+0000"), committer=_A, message=b"")
@example(parents=[1, 1], author=_A, committer=_A, message=b"")
@example(parents=[], author=_A, committer=_A, message=b"\xff\n")
@given(
    parents=st.lists(st.integers(0, 2), max_size=3, unique=True),
    author=_PEOPLE,
    committer=_PEOPLE,
    message=_MESSAGES,
)
def test_generated_revisions_match_git(
    session_oracle, parent_commits, parents, author, committer, message
):
    parents = [parent_commits[i] for i in parents]  # commit-tree needs a parent it holds
    node = Revision(
        ObjectId.from_hex(EMPTY_TREE),
        [ObjectId.from_hex(p) for p in parents],
        _stamp(author),
        _stamp(committer),
        message,
    )
    entry = revision(
        parents=parents,
        message=DROP,
        message_b64=base64.b64encode(message).decode(),
        **person("author", author),
        **person("committer", committer),
    )
    ((realized, _),) = realize_descriptions(describe_nodes(doc(entry)))
    assert realized == swhid_of(node)
    porcelain = _porcelain(
        session_oracle.commit_id, EMPTY_TREE, parents, _written(author), _written(committer), message
    )
    reasons = _model_only([author, committer], parents, message)
    _agrees_with_git(session_oracle, node, porcelain, reasons)


@settings(max_examples=15, deadline=None)
@example(name="v1", message=b"", tagger=("A", "a@x", 0, "-0000"))
@example(name="v1", message=b"", tagger=("A", None, -5, "+0000"))
@given(name=_TAG_NAMES, message=_MESSAGES, tagger=_PEOPLE)
def test_generated_releases_match_git(session_oracle, parent_commits, name, message, tagger):
    target = parent_commits[0]
    node = Release(
        ObjectId.from_hex(target), ObjectType.REVISION, name.encode(), message, _stamp(tagger)
    )
    entry = release(
        target=target,
        target_type="revision",
        name=name,
        message=DROP,
        message_b64=base64.b64encode(message).decode(),
        **person("tagger", tagger),
    )
    ((realized, _),) = realize_descriptions(describe_nodes(doc(entry)))
    assert realized == swhid_of(node)
    porcelain = _porcelain(session_oracle.tag_id, target, name, message, _written(tagger))
    _agrees_with_git(session_oracle, node, porcelain, _model_only([tagger]))


# --- snapshots ----------------------------------------------------------------


def test_snapshot_branch_order_is_irrelevant():
    targets = {
        b"refs/heads/main": BranchTarget.to_object(ObjectType.REVISION, _id(1)),
        b"HEAD": BranchTarget.to_alias(b"refs/heads/main"),
        b"refs/tags/v1": BranchTarget.to_object(ObjectType.RELEASE, _id(2)),
    }
    names = list(targets)
    forward = Snapshot({n: targets[n] for n in names})
    backward = Snapshot({n: targets[n] for n in reversed(names)})
    assert snapshot_id(forward) == snapshot_id(backward)


def test_snapshot_every_branch_kind():
    snap = Snapshot(
        {
            b"cnt": BranchTarget.to_object(ObjectType.CONTENT, _id(1)),
            b"dir": BranchTarget.to_object(ObjectType.DIRECTORY, _id(2)),
            b"rev": BranchTarget.to_object(ObjectType.REVISION, _id(3)),
            b"rel": BranchTarget.to_object(ObjectType.RELEASE, _id(4)),
            b"snp": BranchTarget.to_object(ObjectType.SNAPSHOT, _id(5)),
            b"alias": BranchTarget.to_alias(b"rev"),
            b"gone": BranchTarget.dangling_ref(),
        }
    )
    manifest = manifest_of(snap)
    for token in (
        b"content ",
        b"directory ",
        b"revision ",
        b"release ",
        b"snapshot snp\x00",  # branch line, not the manifest header
        b"alias ",
        b"dangling ",
    ):
        assert token in manifest


def test_branch_target_invariants():
    with pytest.raises(ValueError):
        BranchTarget(BranchKind.ALIAS)  # alias without a name
    with pytest.raises(ValueError):
        BranchTarget(BranchKind.REVISION)  # object branch without target
    with pytest.raises(ValueError):
        BranchTarget(BranchKind.DANGLING, target=_id(1))
    with pytest.raises(ValueError):
        BranchTarget(BranchKind.ALIAS, target=_id(1), alias_name=b"x")


# --- construction validation ----------------------------------------------------


def test_directory_rejects_duplicate_names():
    entry = DirectoryEntry(b"same", EntryPermission.REGULAR_FILE, _id(1))
    other = DirectoryEntry(b"same", EntryPermission.DIRECTORY, _id(2))
    with pytest.raises(DuplicateNameError):
        Directory((entry, other))


@pytest.mark.parametrize("name", [b"", b"a/b", b"a\x00b"])
def test_entry_name_validation(name):
    with pytest.raises(InvalidNameError):
        DirectoryEntry(name, EntryPermission.REGULAR_FILE, _id(1))


@pytest.mark.parametrize(
    "person,offset",
    [
        (b"A <a@x>\n", "+0000"),
        (b"A <a@x>", "+000"),
        (b"A <a@x>", "0000"),
        (b"A <a@x>", "+00000"),
        (b"A <a@x>", "+0a00"),
    ],
)
def test_person_stamp_validation(person, offset):
    with pytest.raises(MalformedPersonError):
        PersonStamp(person, 0, offset)


@pytest.mark.parametrize("name", [b"", b"a\nb", b"a\x00b"])
def test_release_name_validation(name):
    with pytest.raises(MalformedNameError):
        Release(target=_id(1), target_type=ObjectType.REVISION, name=name, message=b"")


def test_snapshot_branch_name_validation():
    with pytest.raises(InvalidBranchNameError):
        Snapshot({b"bad\x00name": BranchTarget.dangling_ref()})


def test_revision_header_key_validation():
    stamp = PersonStamp(b"A <a@x>", 0, "+0000")
    with pytest.raises(MalformedNameError):
        Revision(
            tree=_id(1),
            parents=(),
            author=stamp,
            committer=stamp,
            message=b"",
            extra_headers=((b"two words", b"v"),),
        )


# --- properties -----------------------------------------------------------------

_names = st.binary(min_size=1, max_size=12).filter(
    lambda b: b"/" not in b and b"\x00" not in b
)
_perms = st.sampled_from(list(EntryPermission))
_targets = st.binary(min_size=20, max_size=20).map(ObjectId)
_entries = st.lists(
    st.builds(DirectoryEntry, _names, _perms, _targets),
    max_size=8,
    unique_by=lambda e: e.name,
)


@given(_entries, st.randoms())
def test_directory_id_ignores_entry_order(entries, rng):
    shuffled = list(entries)
    rng.shuffle(shuffled)
    assert directory_id(Directory(tuple(entries))) == directory_id(
        Directory(tuple(shuffled))
    )


@given(st.binary(max_size=4096))
def test_content_manifest_layout(data):
    manifest = manifest_of(Content(data))
    header, _, body = manifest.partition(b"\x00")
    assert header == b"blob %d" % len(data)
    assert body == data
