import contextlib
import errno
import fnmatch
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from builders import export_object, trees_only, write_tree
from clirunner import CliRunner
from hypothesis import assume, example, given, settings, strategies as st

import swhid.ingest
import swhid.model
from swhid.cli import main
from swhid.errors import (
    ExitStatus,
    NotFoundError,
    RangeOutOfBoundsError,
    StoreError,
    TypeMismatchError,
    UnreadableError,
    UnsupportedNodeKindError,
)
from swhid.ingest import (
    ObjectStore,
    extract_lines,
    ingest_path,
    verify_path,
)
from swhid.model import (
    Content,
    Directory,
    DirectoryEntry,
    EntryPermission,
    PersonStamp,
    Revision,
    content_id,
    swhid_of,
)
from swhid.syntax import CoreSwhid, LineRange, ObjectId, ObjectType, parse

SRC = Path(swhid.ingest.__file__).resolve().parents[1]


def make_tree(root: Path) -> None:
    """A small fixture tree with every representable node kind."""
    src = {
        b"main.c": ("file", b"int main(void) { return 0; }\n", False),
        b"util.c": ("file", b"/* helpers */\n", False),
    }
    write_tree(os.fsencode(root), ("dir", {
        b"src": ("dir", src, False),
        b"docs": ("dir", {b"readme.txt": ("file", b"hello\n", False)}, False),
        b"empty": ("dir", {}, False),
        b"run.sh": ("file", b"#!/bin/sh\nexit 0\n", True),
        b"entry": ("link", b"src/main.c"),
    }, False))


# --- ingestion ------------------------------------------------------------------


def test_ingest_single_file(tmp_path, oracle):
    target = tmp_path / "f.txt"
    target.write_bytes(b"payload\n")
    swhid, store = ingest_path(target)
    assert swhid.object_type is ObjectType.CONTENT
    assert swhid.object_id.hex == oracle.blob_id(b"payload\n")
    assert len(store) == 1


def test_ingest_directory_matches_git_add(tmp_path, oracle):
    root = tmp_path / "proj"
    make_tree(root)
    swhid, _ = ingest_path(root)
    assert swhid.object_type is ObjectType.DIRECTORY
    # git cannot represent the empty directory, so compare against a tree
    # ingested without it.
    pruned, _ = ingest_path(root, excludes=("empty",))
    expected = oracle.add_worktree_path(root)
    assert pruned.object_id.hex == expected
    assert swhid != pruned  # the empty dir is part of the identifier here


def test_ingest_empty_directory(tmp_path):
    root = tmp_path / "hollow"
    root.mkdir()
    swhid, _ = ingest_path(root)
    assert swhid.object_id.hex == "4b825dc642cb6eb9a060e54bf8d69288fbee4904"


def test_ingest_symlink_is_never_followed(tmp_path):
    root = tmp_path / "d"
    root.mkdir()
    (root / "real.txt").write_bytes(b"data")
    os.symlink("real.txt", root / "ln")
    os.symlink("nowhere/at/all", root / "broken")
    os.symlink("/etc", root / "outside")
    swhid, store = ingest_path(root)
    # Each link contributes the id of its target *path bytes*.
    for target in (b"real.txt", b"nowhere/at/all", b"/etc"):
        key = (ObjectType.CONTENT, content_id(Content(target)))
        assert key in store
    # A symlink as the root path hashes the same way.
    link_id, _ = ingest_path(root / "broken")
    assert link_id.object_id == content_id(Content(b"nowhere/at/all"))


def test_ingest_executable_bit(tmp_path, oracle):
    root = tmp_path / "d"
    root.mkdir()
    (root / "tool").write_bytes(b"#!/bin/sh\n")
    (root / "tool").chmod(0o700)
    (root / "plain").write_bytes(b"#!/bin/sh\n")
    (root / "plain").chmod(0o600)
    swhid, _ = ingest_path(root)
    assert swhid.object_id.hex == oracle.add_worktree_path(root)


def test_ingest_exclude_patterns(tmp_path):
    root = tmp_path / "d"
    make_tree(root)
    (root / "src" / "main.o").write_bytes(b"\x7fELF junk")
    (root / "build").mkdir()
    (root / "build" / "out.bin").write_bytes(b"artifacts")
    baseline, _ = ingest_path(root, excludes=("*.o", "build"))
    clean, _ = ingest_path(root)
    assert baseline != clean
    # Removing the excluded files on disk yields the same id.
    (root / "src" / "main.o").unlink()
    (root / "build" / "out.bin").unlink()
    (root / "build").rmdir()
    again, _ = ingest_path(root)
    assert again == baseline


def test_ingest_exclude_by_relative_path(tmp_path):
    root = tmp_path / "d"
    (root / "a").mkdir(parents=True)
    (root / "b").mkdir()
    (root / "a" / "keep.txt").write_bytes(b"k")
    (root / "b" / "keep.txt").write_bytes(b"k")
    only_b, _ = ingest_path(root, excludes=("a/keep.txt",))
    both, _ = ingest_path(root)
    assert only_b != both
    # The name-only pattern removes both copies.
    neither, _ = ingest_path(root, excludes=("keep.txt",))
    assert neither not in (only_b, both)


def test_collect_reports_children_before_parents(tmp_path):
    root = tmp_path / "d"
    make_tree(root)
    collected = []
    swhid, _ = ingest_path(root, collect=collected)
    rels = [rel for rel, _ in collected]
    assert rels[-1] == ""  # root comes last
    assert collected[-1][1] == swhid
    assert rels.index("src/main.c") < rels.index("src")
    assert rels.index("docs/readme.txt") < rels.index("docs")
    by_rel = dict(collected)
    assert by_rel["entry"].object_type is ObjectType.CONTENT
    assert by_rel["src"].object_type is ObjectType.DIRECTORY
    # A file or symlink root gives one row, its own.
    for leaf in ("run.sh", "entry"):
        collected = []
        swhid, _ = ingest_path(root / leaf, collect=collected)
        assert collected == [("", swhid)] and swhid == by_rel[leaf]


def test_parallel_ingest_matches_serial(tmp_path):
    root = tmp_path / "d"
    make_tree(root)
    serial_rows, parallel_rows = [], []
    serial, serial_store = ingest_path(root, jobs=1, collect=serial_rows)
    parallel, parallel_store = ingest_path(root, jobs=4, collect=parallel_rows)
    assert serial == parallel
    assert serial_rows == parallel_rows
    assert len(serial_store) == len(parallel_store)


def test_ingest_missing_path(tmp_path):
    with pytest.raises(NotFoundError):
        ingest_path(tmp_path / "absent")


def test_ingest_special_node(tmp_path):
    root = tmp_path / "d"
    root.mkdir()
    os.mkfifo(root / "pipe")
    with pytest.raises(UnsupportedNodeKindError):
        ingest_path(root)
    with pytest.raises(UnsupportedNodeKindError):
        ingest_path(root / "pipe")


def test_ingest_unreadable_file(tmp_path, monkeypatch):
    # Tests run as root, where permission bits don't bite; simulate the
    # read failure instead.
    root = tmp_path / "d"
    root.mkdir()
    (root / "locked").write_bytes(b"secret")
    real = os.open

    def flaky(path, *args, **kwargs):
        if os.path.basename(path) == "locked":
            raise PermissionError(13, "Permission denied")
        return real(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", flaky)
    with pytest.raises(UnreadableError, match="locked: Permission denied"):
        ingest_path(root)


@pytest.mark.parametrize("change", ["grow", "shrink"])
def test_ingest_file_changing_mid_read(tmp_path, monkeypatch, change):
    root = tmp_path / "d"
    root.mkdir()
    victim = root / "moving"
    victim.write_bytes(b"x" * 100)
    inode = victim.stat().st_ino
    real = os.read

    def racing_read(fd, count):
        # Another writer gets in between fstat and the first read.
        if os.fstat(fd).st_ino == inode and os.lseek(fd, 0, os.SEEK_CUR) == 0:
            if change == "grow":
                with open(victim, "ab") as fh:
                    fh.write(b"more")
            else:
                os.truncate(victim, os.fstat(fd).st_size // 2)
        return real(fd, count)

    monkeypatch.setattr(os, "read", racing_read)
    with pytest.raises(UnreadableError, match="moving: changed while being read"):
        ingest_path(root)
    result = CliRunner().invoke(main, ["identify", str(root)])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)
    assert "changed while being read" in result.output
    assert "Traceback" not in result.output


def _counting(monkeypatch, name):
    """Record the arguments of every call to os.<name>."""
    calls = []
    real = getattr(os, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(os, name, counted)
    return calls


def test_ingest_reads_each_small_file_once(tmp_path, monkeypatch, oracle):
    root = tmp_path / "d"
    make_tree(root)
    (root / "empty").rmdir()  # git cannot hold an empty directory
    (root / "empty.txt").write_bytes(b"")
    (root / "almost").write_bytes(b"z" * ((1 << 16) - 1))
    regular = [
        p for p in root.rglob("*") if p.is_file() and not p.is_symlink()
    ]
    reads = _counting(monkeypatch, "read")
    swhid, _ = ingest_path(root)
    assert len(reads) == len(regular) == 6
    assert swhid.object_id.hex == oracle.add_worktree_path(root)


def test_ingest_streams_large_file_in_chunks(tmp_path, monkeypatch, oracle):
    data = os.urandom(200 << 10)
    target = tmp_path / "big.bin"
    target.write_bytes(data)
    reads = _counting(monkeypatch, "read")
    swhid, store = ingest_path(target)
    # Three full 64 KiB reads, then the 8 KiB rest with one byte to spare.
    assert [count for _, count in reads] == [1 << 16] * 3 + [(8 << 10) + 1]
    assert swhid.object_id.hex == oracle.blob_id(data)
    manifest = store.get(swhid.object_type, swhid.object_id)
    assert manifest == b"blob %d\x00%s" % (len(data), data)


def test_ingest_never_opens_a_fifo(tmp_path, monkeypatch):
    root = tmp_path / "d"
    root.mkdir()
    os.mkfifo(root / "pipe")
    opened = _counting(monkeypatch, "open")
    with pytest.raises(UnsupportedNodeKindError):
        ingest_path(root)
    assert not any(os.fspath(args[0]).endswith("pipe") for args in opened)


def test_ingest_file_swapped_for_symlink(tmp_path, monkeypatch):
    root = tmp_path / "d"
    root.mkdir()
    victim = root / "victim"
    victim.write_bytes(b"scanned as a file")
    (tmp_path / "outside").write_bytes(b"must not be hashed")
    real = os.open
    swaps = []

    def swapping_open(path, *args, **kwargs):
        # Another process replaces the file between the scan and the open.
        # The swap names the victim in full: the walk may open it by its
        # bare name relative to a directory fd.
        if os.path.basename(path) == "victim" and not victim.is_symlink():
            victim.unlink()
            os.symlink(tmp_path / "outside", victim)
            swaps.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", swapping_open)
    with pytest.raises(UnreadableError) as excinfo:
        ingest_path(root)
    assert str(excinfo.value) == f"{victim}: Too many levels of symbolic links"
    assert len(swaps) == 1
    os.unlink(root / "victim")
    (root / "victim").write_bytes(b"scanned as a file")
    result = CliRunner().invoke(main, ["identify", str(root)])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)
    assert "victim" in result.output
    assert "Traceback" not in result.output
    assert len(swaps) == 2


def test_ingest_directory_swapped_for_symlink(tmp_path, monkeypatch):
    root = tmp_path / "d"
    sub = root / "sub"
    sub.mkdir(parents=True)
    (sub / "f").write_bytes(b"scanned as a directory")
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "f").write_bytes(b"must not be hashed")
    real = os.open
    swaps = []

    def swapping_open(path, *args, **kwargs):
        # Another process replaces the directory between its parent's scan
        # and the descent into it.
        if os.path.basename(path) == "sub" and not sub.is_symlink():
            sub.rename(tmp_path / "moved")
            os.symlink(outside, sub)
            swaps.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", swapping_open)
    with pytest.raises(UnreadableError) as excinfo:
        ingest_path(root)
    # O_DIRECTORY refuses the link before O_NOFOLLOW would.
    assert str(excinfo.value) == f"{sub}: Not a directory"
    assert len(swaps) == 1
    sub.unlink()
    (tmp_path / "moved").rename(sub)
    result = CliRunner().invoke(main, ["identify", str(root)])
    assert result.exit_code == 3
    assert result.stderr == f"swhid: {sub}: Not a directory\n"
    assert result.stdout == ""
    assert len(swaps) == 2


def test_ingest_reads_a_parent_swapped_mid_walk_through_its_fd(tmp_path, monkeypatch):
    root = tmp_path / "d"
    parent = root / "a"
    parent.mkdir(parents=True)
    (parent / "1").write_bytes(b"first")
    (parent / "2").write_bytes(b"second")
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "1").write_bytes(b"must not be hashed")
    (outside / "2").write_bytes(b"nor this")
    expected, _ = ingest_path(root)
    real = os.open
    swaps = []

    def swapping_open(path, *args, **kwargs):
        # Another process moves the directory away and puts a symlink in its
        # place while its files are being read: the walk goes on reading the
        # directory it scanned, through its fd.
        if os.path.basename(path) == "1" and not parent.is_symlink():
            parent.rename(tmp_path / "moved")
            os.symlink(outside, parent)
            swaps.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", swapping_open)
    assert ingest_path(root)[0] == expected
    assert len(swaps) == 1


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _chain(top: Path, depth: int) -> list:
    """top/d/d/.../d, depth levels below top, with a file at each level."""
    chain = [top]
    top.mkdir()
    for level in range(depth):
        (chain[-1] / "f").write_bytes(b"%d\n" % level)
        chain.append(chain[-1] / "d")
        chain[-1].mkdir()
    return chain


def test_ingest_closes_every_fd(tmp_path, monkeypatch, oracle):
    # Deeper than the fds the walk holds, so it closes ancestors and reopens
    # them; a sibling after each "d" is read from the reopened fd.
    chain = _chain(tmp_path / "top", swhid.ingest._HELD_FDS + 10)
    for directory in chain:
        (directory / "z").write_bytes(b"after the subdirectory\n")
    before = _open_fds()
    collected = []
    root_id, _ = ingest_path(chain[0], collect=collected)
    assert _open_fds() == before
    assert root_id.object_id.hex == oracle.add_worktree_path(chain[0])
    assert len(collected) == 3 * len(chain) - 1  # the bottom holds no "f"
    real = os.open

    def refusing(path, *args, **kwargs):
        if os.path.basename(path) == "z":
            raise PermissionError(13, "Permission denied")
        return real(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", refusing)
    with pytest.raises(UnreadableError) as excinfo:
        ingest_path(chain[0])
    assert str(excinfo.value) == f"{chain[-1]}/z: Permission denied"
    assert _open_fds() == before


def test_ingest_refuses_an_ancestor_moved_while_closed(tmp_path, monkeypatch):
    depth = swhid.ingest._HELD_FDS + 10
    chain = _chain(tmp_path / "top", depth)
    (chain[-1] / "leaf").write_bytes(b"bottom\n")
    real = os.open
    # A directory whose parent's fd the walk has closed by the time it
    # reads the bottom; moved away with everything below it.
    moved = chain[5]

    def moving(path, *args, **kwargs):
        if os.path.basename(path) == "leaf" and moved.exists():
            moved.rename(tmp_path / "elsewhere")
        return real(path, *args, **kwargs)

    before = _open_fds()
    monkeypatch.setattr(os, "open", moving)
    with pytest.raises(UnreadableError) as excinfo:
        ingest_path(chain[0])
    assert str(excinfo.value) == f"{chain[4]}: moved while being read"
    assert _open_fds() == before


def test_errors_below_the_root_name_absolute_paths(tmp_path, monkeypatch):
    sub = tmp_path / "proj" / "sub"
    (sub / "closed").mkdir(parents=True)
    (sub / "listless").mkdir()
    (sub / "locked").write_bytes(b"secret")
    (sub / "untyped").write_bytes(b"")
    os.symlink("locked", sub / "link")
    os.mkfifo(sub / "pipe")
    # Each round refuses one entry fewer, in the order the walk meets them:
    # untyped as sub is listed, then the entries by name.
    denied = "Permission denied"
    rounds = [
        ("untyped", denied), ("closed", denied), ("link", denied), ("listless", denied),
        ("locked", denied), ("pipe", "not a regular file, directory, or symlink"),
    ]
    refused = set()
    listless = os.stat(sub / "listless").st_ino
    real_open, real_readlink, real_scandir = os.open, os.readlink, os.scandir

    class Untyped:  # a listed entry whose type cannot be read
        name = "untyped"

        def is_dir(self, follow_symlinks=True):
            raise PermissionError(13, denied)

    # Tests run as root, where permission bits don't bite: refuse the open of
    # closed and locked, the readlink of link, and the listing of listless's fd.
    def opening(path, *args, **kwargs):
        if os.path.basename(path) in refused - {"listless"}:
            raise PermissionError(13, denied)
        return real_open(path, *args, **kwargs)

    def readlink(path, *args, **kwargs):
        if os.fsdecode(os.path.basename(path)) in refused:
            raise PermissionError(13, denied)
        return real_readlink(path, *args, **kwargs)

    def scandir(fd):
        if "listless" in refused and os.fstat(fd).st_ino == listless:
            raise PermissionError(13, denied)
        with real_scandir(fd) as listed:
            entries = [Untyped() if e.name in refused & {"untyped"} else e for e in listed]
        return contextlib.nullcontext(entries)

    monkeypatch.setattr(os, "open", opening)
    monkeypatch.setattr(os, "readlink", readlink)
    monkeypatch.setattr(os, "scandir", scandir)
    monkeypatch.chdir(tmp_path)
    # However the root is given, an entry below it is named by its absolute path,
    # and identify exits 3 with that message alone.
    for given in ("proj", "proj/", str(tmp_path / "proj")):
        refused.update(name for name, _ in rounds)
        for name, reason in rounds:
            message = f"{sub}/{name}: {reason}"
            error = UnsupportedNodeKindError if name == "pipe" else UnreadableError
            with pytest.raises(error) as excinfo:
                ingest_path(given)
            assert str(excinfo.value) == message
            result = CliRunner().invoke(main, ["identify", given])
            assert (result.exit_code, result.stdout, result.stderr) == (3, "", f"swhid: {message}\n")
            assert isinstance(result.exception, SystemExit)
            refused.discard(name)


def _walk_excluding(root: Path, patterns) -> set:
    """The kept relative paths, by the one-fnmatchcase-per-pattern rule."""

    def excluded(name, rel):
        return any(
            fnmatch.fnmatchcase(name, p) or fnmatch.fnmatchcase(rel, p)
            for p in patterns
        )

    kept = set()
    for top, dirs, files in os.walk(root):
        base = os.path.relpath(top, root)
        for name in list(dirs) + files:
            rel = name if base == "." else f"{base}/{name}"
            if excluded(name, rel):
                if name in dirs:
                    dirs.remove(name)
            else:
                kept.add(rel)
    return kept


@pytest.mark.parametrize(
    "patterns",
    [
        (),
        ("*.o",),
        ("*.o", "build", "docs/*"),
        ("src/*.c", "[rR]*", "?"),
        ("*/lib/*", "x*y*z", "docs"),
        ("src/lib", "a.o", "*[!c]"),
    ],
)
def test_ingest_exclude_matches_per_pattern_fnmatch(tmp_path, patterns):
    root = tmp_path / "d"
    make_tree(root)
    (root / "src" / "lib").mkdir()
    for rel in ["a.o", "src/main.o", "src/lib/x1y2z", "src/lib/k.c", "build", "q"]:
        (root / rel).write_bytes(rel.encode())
    collected = []
    ingest_path(root, excludes=patterns, collect=collected)
    assert {rel for rel, _ in collected} - {""} == _walk_excluding(root, patterns)


def test_ingest_deep_tree(tmp_path, oracle):
    # Built with a loop: os.makedirs, like a recursive walk, would hit the
    # interpreter's recursion limit.
    depth = 1100
    path = os.fspath(tmp_path / "deep")
    os.mkdir(path)
    chain = [path]
    for _ in range(depth):
        path = os.path.join(path, "d")
        os.mkdir(path)
        chain.append(path)
    leaf = os.path.join(path, "leaf.txt")
    try:
        with open(leaf, "wb") as fh:
            fh.write(b"bottom\n")
        swhid, reference = ingest_path(chain[0])
        assert swhid.object_id.hex == oracle.add_worktree_path(Path(chain[0]))
        # Again in a child whose soft fd limit is below the depth.
        limited = (
            "import resource, sys\n"
            "from swhid.ingest import ingest_path\n"
            "hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_NOFILE, (min(1024, hard), hard))\n"
            "print(ingest_path(sys.argv[1])[0])\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", limited, chain[0]],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout == f"{swhid}\n"
        with open(leaf, "wb") as fh:
            fh.write(b"edited\n")
        report = verify_path(swhid, chain[0], reference=reference)
        assert [(d.path, d.note) for d in report.detail] == [
            ("/".join(["d"] * depth + ["leaf.txt"]), "differs")
        ]
    finally:
        # shutil.rmtree may recurse too, so leave pytest a shallow tree.
        if os.path.exists(leaf):
            os.unlink(leaf)
        for directory in reversed(chain):
            os.rmdir(directory)


_NAMES = (
    st.lists(st.sampled_from(b"ab.- \xe9\xff"), min_size=1, max_size=4)
    .map(bytes)
    .filter(lambda name: name not in (b".", b".."))
)
_LEAVES = st.one_of(
    st.tuples(
        st.just("file"),
        st.one_of(st.sampled_from([b"", b"same\n"]), st.binary(max_size=40)),
        st.booleans(),
    ),
    st.tuples(
        st.just("link"),
        st.binary(min_size=1, max_size=12).filter(lambda t: b"\x00" not in t),
    ),
)


def _directories(children):
    # Never empty: git cannot represent an empty directory. The flag adds
    # entries that the "*.tmp" exclusion must drop.
    return st.tuples(
        st.just("dir"),
        st.dictionaries(_NAMES, children, min_size=1, max_size=4),
        st.booleans(),
    )


@settings(max_examples=30, deadline=None)
@given(tree=_directories(st.recursive(_LEAVES, _directories, max_leaves=16)))
def test_ingest_random_trees_match_git(tree, session_oracle, tmp_path_factory):
    base = tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp())
    root = os.path.join(os.fsencode(base), b"t")
    excluded = write_tree(root, tree)
    swhid, _ = ingest_path(os.fsdecode(root), excludes=("*.tmp",))
    for path in excluded:
        (shutil.rmtree if os.path.isdir(path) else os.unlink)(path)
    expected = session_oracle.add_worktree_path(Path(os.fsdecode(root)))
    assert swhid.object_id.hex == expected


def test_ingest_non_utf8_names(tmp_path, oracle):
    root = tmp_path / "d"
    root.mkdir()
    raw_name = b"caf\xe9.txt"  # latin-1 bytes, invalid utf-8
    with open(os.path.join(os.fsencode(root), raw_name), "wb") as fh:
        fh.write(b"x")
    swhid, _ = ingest_path(root)
    assert swhid.object_id.hex == oracle.add_worktree_path(root)


# --- object store -----------------------------------------------------------------


def test_store_deduplicates():
    store = ObjectStore()
    first = store.add(Content(b"same"))
    second = store.add(Content(b"same"))
    assert first == second
    assert len(store) == 1
    assert store.insertions(first.object_type, first.object_id) == 2


def test_store_get_returns_manifest():
    store = ObjectStore()
    swhid = store.add(Content(b"abc"))
    assert store.get(swhid.object_type, swhid.object_id) == b"blob 3\x00abc"
    assert store.get(ObjectType.DIRECTORY, swhid.object_id) is None


def test_store_save_load_round_trip(tmp_path):
    store = ObjectStore()
    cnt = store.add(Content(b"abc"))
    sub = Directory(
        (DirectoryEntry(b"f", EntryPermission.REGULAR_FILE, cnt.object_id),)
    )
    dir_swhid = store.add(sub)
    stamp = PersonStamp(b"A <a@x>", 0, "+0000")
    rev = store.add(
        Revision(
            tree=dir_swhid.object_id,
            parents=(),
            author=stamp,
            committer=stamp,
            message=b"c\n",
        )
    )
    store.save(tmp_path / "exported")
    loaded = ObjectStore.load(tmp_path / "exported")
    assert len(loaded) == 3
    for swhid in (cnt, dir_swhid, rev):
        assert loaded.get(swhid.object_type, swhid.object_id) == store.get(
            swhid.object_type, swhid.object_id
        )
    assert loaded.audit() == []


def test_store_add_serializes_once(monkeypatch):
    blob = Content(b"abc")
    tree = Directory(
        (DirectoryEntry(b"f", EntryPermission.REGULAR_FILE, content_id(blob)),)
    )
    expected = [swhid_of(blob), swhid_of(tree)]
    calls = []
    real = swhid.model.manifest_of

    def counting(node):
        calls.append(node)
        return real(node)

    # Both bindings: object_id_of would serialize through the model's.
    monkeypatch.setattr(swhid.ingest, "manifest_of", counting)
    monkeypatch.setattr(swhid.model, "manifest_of", counting)
    store = ObjectStore()
    assert [store.add(blob), store.add(tree)] == expected
    assert calls == [blob, tree]


def test_store_rereads_ingested_files(tmp_path):
    root = tmp_path / "proj"
    make_tree(root)
    _, store = ingest_path(root)
    key = (ObjectType.CONTENT, content_id(Content(b"hello\n")))
    assert store.get(*key) == b"blob 6\x00hello\n"
    (root / "docs" / "readme.txt").write_bytes(b"HELLO\n")
    with pytest.raises(StoreError):
        store.get(*key)
    assert store.audit() == [CoreSwhid(*key)]
    out = tmp_path / "exported"
    with pytest.raises(StoreError):
        store.save(out)
    hexid = key[1].hex
    bucket = out / "objects" / hexid[:2]
    assert not bucket.exists() or not [
        p for p in bucket.iterdir() if hexid[2:] in p.name
    ]


def test_store_rereads_files_after_chdir(tmp_path, monkeypatch):
    make_tree(tmp_path / "proj")
    monkeypatch.chdir(tmp_path)
    root_id, store = ingest_path("proj")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert store.audit() == []
    store.save(tmp_path / "exported")
    loaded = ObjectStore.load(tmp_path / "exported")
    assert set(loaded) == set(store)
    assert verify_path(root_id, tmp_path / "proj", reference=loaded).matched


def test_store_failed_save_keeps_earlier_copy(tmp_path):
    root = tmp_path / "proj"
    make_tree(root)
    _, store = ingest_path(root)
    out = tmp_path / "exported"
    store.save(out)
    hexid = content_id(Content(b"hello\n")).hex
    saved = out / "objects" / hexid[:2] / hexid[2:]
    (root / "docs" / "readme.txt").write_bytes(b"HELLO\n")
    with pytest.raises(StoreError):
        store.save(out)
    assert saved.read_bytes() == b"blob 6\x00hello\n"
    assert not list((out / "objects").glob("*/.*"))
    assert ObjectStore.load(out).audit() == []


def test_store_save_turns_os_errors_into_store_errors(tmp_path):
    store = ObjectStore()
    hexid = store.add(Content(b"abc")).object_id.hex
    objects = tmp_path / "exported" / "objects"
    objects.mkdir(parents=True)
    # The bucket taken by a regular file fails before any write; the object's
    # name taken by a directory fails at the rename, after the write.
    (objects / hexid[:2]).write_bytes(b"")
    with pytest.raises(StoreError, match=str(objects / hexid[:2])) as excinfo:
        store.save(tmp_path / "exported")
    assert isinstance(excinfo.value.__cause__, FileExistsError)
    (objects / hexid[:2]).unlink()
    (objects / hexid[:2] / hexid[2:]).mkdir(parents=True)
    with pytest.raises(StoreError) as excinfo:
        store.save(tmp_path / "exported")
    assert isinstance(excinfo.value.__cause__, IsADirectoryError)
    left = sorted(str(p.relative_to(objects)) for p in objects.rglob("*"))
    assert left == [hexid[:2], f"{hexid[:2]}/{hexid[2:]}"]


def test_store_load_rejects_stray_entries(tmp_path):
    base = tmp_path / "exported"
    (base / "objects" / "zz").mkdir(parents=True)
    with pytest.raises(StoreError) as excinfo:
        ObjectStore.load(base)
    assert str(excinfo.value) == "unexpected entry 'zz' in objects/"
    with pytest.raises(StoreError) as excinfo:
        ObjectStore.load(tmp_path / "never-written")
    assert str(excinfo.value) == f"{tmp_path / 'never-written'}: no objects/ directory"
    (base / "objects" / "zz").rmdir()
    (base / "objects" / "ab").write_bytes(b"")
    with pytest.raises(StoreError) as excinfo:
        ObjectStore.load(base)
    assert str(excinfo.value) == "unexpected entry 'ab' in objects/"
    (base / "objects" / "ab").unlink()
    for name in ("x", "ab" * 19 + "a", "AB" * 19):
        (base / "objects" / "ab").mkdir(exist_ok=True)
        (base / "objects" / "ab" / name).write_bytes(b"blob 0\x00")
        with pytest.raises(StoreError) as excinfo:
            ObjectStore.load(base)
        assert str(excinfo.value) == f"unexpected entry {name!r} in objects/ab/"
        (base / "objects" / "ab" / name).unlink()


def test_store_audit_detects_tampering(tmp_path):
    store = ObjectStore()
    swhid = store.add(Content(b"original"))
    store.save(tmp_path / "exported")
    hexid = swhid.object_id.hex
    victim = tmp_path / "exported" / "objects" / hexid[:2] / hexid[2:]
    victim.write_bytes(b"blob 7\x00tainted")
    # load() re-hashes every object, so tampering stops there, before audit.
    with pytest.raises(StoreError, match=f"{hexid[2:]}: bytes do not hash") as excinfo:
        ObjectStore.load(tmp_path / "exported")
    where = f"objects/{hexid[:2]}/{hexid[2:]}"
    assert str(excinfo.value) == f"{where}: bytes do not hash to the file name"


@pytest.mark.parametrize(
    "manifest, message",
    [
        (b"blob 4\x00abc", "header does not give"),
        (b"blob 03\x00abc", "header does not give"),
        (b"blob 3abc", "header does not give"),
        (b"blob  3\x00abc", "header does not give"),
        (b"frob 3\x00abc", "unknown manifest kind"),
        (b"blob", "header does not give"),
        (b"blob3\x00abc", "unknown manifest kind"),
        (b"", "unknown manifest kind"),
    ],
    ids=["long", "zero-padded", "no-nul", "two-spaces", "unknown-kind", "kind-only",
         "no-space", "empty"],
)
def test_store_load_rejects_bad_headers(tmp_path, manifest, message):
    hexid = export_object(tmp_path / "exported", manifest)
    with pytest.raises(StoreError, match=message) as excinfo:
        ObjectStore.load(tmp_path / "exported")
    where = f"objects/{hexid[:2]}/{hexid[2:]}"
    if message == "unknown manifest kind":
        message += f" {manifest.split(b' ', 1)[0]!r}"
    else:
        message = "header does not give the body's length"
    assert str(excinfo.value) == f"{where}: {message}"


def test_store_load_turns_read_errors_into_store_errors(tmp_path):
    hexid = "ab" * 20
    item = tmp_path / "exported" / "objects" / "ab" / hexid[2:]
    item.mkdir(parents=True)
    with pytest.raises(StoreError, match=hexid[2:]) as excinfo:
        ObjectStore.load(tmp_path / "exported")
    error = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(item))
    assert str(excinfo.value) == str(error)


@pytest.mark.parametrize("name", ["ab", "zz"])
def test_store_load_keeps_a_bucket_stat_fault_apart_from_a_bad_layout(
    tmp_path, monkeypatch, name
):
    # objects/ listable but not searchable: stat of the bucket fails with
    # EACCES. A test running as root cannot make that happen on disk.
    folder = tmp_path / "exported" / "objects" / name
    folder.mkdir(parents=True)
    real_stat = os.stat

    def stat(path, *args, **kwargs):
        if os.fspath(path) == str(folder):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
        return real_stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", stat)
    with pytest.raises(StoreError) as excinfo:
        ObjectStore.load(tmp_path / "exported")
    assert str(excinfo.value) == f"[Errno 13] {os.strerror(errno.EACCES)}: '{folder}'"


@pytest.mark.parametrize("linked", ["bucket", "objects"])
def test_store_load_follows_a_symlinked_directory(tmp_path, linked):
    make_tree(tmp_path / "proj")
    _, store = ingest_path(tmp_path / "proj")
    store.save(tmp_path / "exported")
    objects = tmp_path / "exported" / "objects"
    moved = objects / sorted(os.listdir(objects))[0] if linked == "bucket" else objects
    os.rename(moved, tmp_path / "elsewhere")
    os.symlink(tmp_path / "elsewhere", moved)
    loaded = ObjectStore.load(tmp_path / "exported")
    assert set(loaded) == set(store)
    assert [loaded.get(*key) for key in store] == [store.get(*key) for key in store]


def test_store_load_names_the_first_bad_item_in_name_order(tmp_path):
    bucket = tmp_path / "exported" / "objects" / "ab"
    bucket.mkdir(parents=True)
    for name in ("f" * 38, "0" * 38, "7" * 38):  # not in name order on disk
        (bucket / name).write_bytes(b"blob 0\x00")
    with pytest.raises(StoreError) as excinfo:
        ObjectStore.load(tmp_path / "exported")
    assert str(excinfo.value) == f"objects/ab/{'0' * 38}: bytes do not hash to the file name"


def test_store_reports_an_ingested_file_deleted_since(tmp_path):
    root = tmp_path / "proj"
    make_tree(root)
    _, store = ingest_path(root)
    key = (ObjectType.CONTENT, content_id(Content(b"hello\n")))
    (root / "docs" / "readme.txt").unlink()
    message = f"content {key[1].hex}: {root / 'docs' / 'readme.txt'}: No such file or directory"
    with pytest.raises(StoreError) as excinfo:
        store.get(*key)
    assert str(excinfo.value) == message
    out = tmp_path / "exported"
    with pytest.raises(StoreError) as excinfo:
        store.save(out)
    assert str(excinfo.value) == message
    assert not list((out / "objects").glob("*/*" + key[1].hex[2:]))
    assert not list((out / "objects").glob("*/.*"))
    assert store.audit() == [CoreSwhid(*key)]


def _hostile_export(tmp_path, kind):
    """An export whose one object file is a FIFO, or a symlink to /dev/zero."""
    item = tmp_path / "exported" / "objects" / "ab" / ("ab" * 19)
    item.parent.mkdir(parents=True)
    if kind == "fifo":
        os.mkfifo(item)
        return tmp_path / "exported", f"objects/ab/{item.name}: not a regular file"
    os.symlink("/dev/zero", item)
    return tmp_path / "exported", str(OSError(errno.ELOOP, os.strerror(errno.ELOOP), str(item)))


def _capped_child(code, *args):
    """Run code in a child whose address space is capped at 400 MiB, for at most 30 s.

    A load that reads /dev/zero then runs out of memory in the child, and
    one that blocks on a FIFO times out, instead of taking the test run down.
    """
    capped = (
        "import resource, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, hard))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", capped + code, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=30,
    )


@pytest.mark.parametrize("kind", ["fifo", "link-to-dev-zero"])
def test_store_load_refuses_non_regular_objects(tmp_path, kind):
    base, message = _hostile_export(tmp_path, kind)
    code = (
        "from swhid.errors import StoreError\n"
        "from swhid.ingest import ObjectStore\n"
        "try:\n"
        "    ObjectStore.load(sys.argv[1])\n"
        "except StoreError as exc:\n"
        "    print(exc)\n"
    )
    child = _capped_child(code, str(base))
    assert child.returncode == 0, child.stderr
    assert child.stdout == message + "\n"


@pytest.mark.parametrize("kind", ["fifo", "link-to-dev-zero"])
def test_verify_objects_from_a_hostile_export_exits_3(tmp_path, kind):
    base, message = _hostile_export(tmp_path, kind)
    (tmp_path / "proj").mkdir()
    args = ["verify", "--objects", str(base), "swh:1:dir:" + "0" * 40, str(tmp_path / "proj")]
    child = _capped_child("from swhid.cli import main\nmain(sys.argv[1:])\n", *args)
    assert child.returncode == 3
    assert child.stderr == f"swhid: {message}\n"
    assert child.stdout == ""


def _object_files(export: str) -> list:
    objects = os.path.join(export, "objects")
    return sorted(
        os.path.join(objects, bucket, item)
        for bucket in os.listdir(objects)
        for item in os.listdir(os.path.join(objects, bucket))
    )


_HEX40 = st.text("0123456789abcdef", min_size=40, max_size=40)
_MUTATIONS = ("truncate", "append", "flip", "swap", "rename", "directory", "symlink", "drop")


def _mutate(export: str, mutation: str, data) -> None:
    """Apply one mutation to an export, drawing its choices from data."""
    if mutation == "drop":
        shutil.rmtree(os.path.join(export, "objects"))
        return
    files = _object_files(export)
    victim = data.draw(st.sampled_from(files))
    other = data.draw(st.sampled_from([f for f in files if f != victim] or files))
    with open(victim, "rb") as fh:
        body = bytearray(fh.read())
    if mutation in ("truncate", "append", "flip"):
        if mutation == "truncate":
            del body[data.draw(st.integers(0, len(body) - 1)) :]
        elif mutation == "append":
            body += data.draw(st.binary(min_size=1, max_size=8))
        else:
            body[data.draw(st.integers(0, len(body) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        with open(victim, "wb") as fh:
            fh.write(body)
    elif mutation == "swap":
        if other == victim:  # a trees-only export of a flat tree holds one file
            return
        os.rename(victim, victim + ".swap")
        os.rename(other, victim)
        os.rename(victim + ".swap", other)
    elif mutation == "rename":
        taken = [f[-41:].replace(os.sep, "") for f in files]  # bucket + item
        own = taken[files.index(victim)]
        hexid = data.draw(st.one_of(st.sampled_from(taken), _HEX40).filter(lambda h: h != own))
        bucket = os.path.join(export, "objects", hexid[:2])
        os.makedirs(bucket, exist_ok=True)
        os.rename(victim, os.path.join(bucket, hexid[2:]))
    else:
        os.unlink(victim)
        if mutation == "directory":
            os.mkdir(victim)
        else:
            os.symlink(other, victim)


def _export_outcome(export: str, root: str, root_id: CoreSwhid):
    """What load makes of an export (its error text, or each object in order), and verify's run."""
    try:
        loaded = ObjectStore.load(export)
    except StoreError as exc:
        objects = str(exc)
    else:
        objects = [(key, loaded.get(*key)) for key in loaded]
    cli = CliRunner().invoke(main, ["verify", "--objects", export, str(root_id), root])
    return objects, (cli.exit_code, cli.stdout, cli.stderr)


@settings(max_examples=40, deadline=None)
@given(
    tree=_directories(st.recursive(_LEAVES, _directories, max_leaves=5)),
    only_trees=st.booleans(),
    mutation=st.sampled_from(_MUTATIONS),
    data=st.data(),
)
def test_hostile_export_is_refused_or_reads_as_before(tree, only_trees, mutation, data):
    with tempfile.TemporaryDirectory() as base:
        root = os.path.join(base, "t")
        write_tree(os.fsencode(root), tree)
        root_id, store = ingest_path(root)
        export = os.path.join(base, "exported")
        if only_trees:
            trees_only(store, Path(export))
        else:
            store.save(export)
        before = _export_outcome(export, root, root_id)
        assert before[1] == (0, f"ok {root_id}\n", "")
        _mutate(export, mutation, data)
        objects, cli = _export_outcome(export, root, root_id)
    if isinstance(objects, str):
        assert cli == (3, "", f"swhid: {objects}\n")
    else:
        assert (objects, cli) == before


@pytest.mark.parametrize(
    "body",
    [b"garbage", b"100644 f\x00" + b"\x01" * 19, b"100644 f" + b"\x01" * 21],
    ids=["no-space", "short-id", "no-nul"],
)
def test_malformed_reference_tree_is_a_store_error(tmp_path, body):
    hexid = export_object(tmp_path / "exported", b"tree %d\x00%s" % (len(body), body))
    reference = ObjectStore.load(tmp_path / "exported")
    (tmp_path / "proj").mkdir()
    (tmp_path / "proj" / "f").write_bytes(b"x")
    expected = CoreSwhid(ObjectType.DIRECTORY, ObjectId.from_hex(hexid))
    with pytest.raises(StoreError, match=f"tree {hexid}: malformed"):
        verify_path(expected, tmp_path / "proj", reference=reference)


def test_store_counts_insertions_with_one_key_hash(monkeypatch):
    # The store is keyed by raw digest, whose hash bytes objects cache: an
    # insert hashes no ObjectId, and a typed lookup converts at the edge.
    calls = []
    real = ObjectId.__hash__

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(ObjectId, "__hash__", counting)
    store = ObjectStore()
    store.add(Content(b"a"))
    new = len(calls)
    store.add(Content(b"a"))
    assert new == len(calls) == 0
    assert store.insertions(ObjectType.CONTENT, content_id(Content(b"a"))) == 2


def test_store_typed_edges_over_raw_digest_keys(tmp_path):
    store = ObjectStore()
    cnt = store.add(Content(b"abc"))
    entry = DirectoryEntry(b"f", EntryPermission.REGULAR_FILE, cnt.object_id)
    tree = store.add(Directory((entry,)))
    # One digest, asked for under the other type.
    assert store.get(ObjectType.DIRECTORY, cnt.object_id) is None
    assert store.get(ObjectType.CONTENT, tree.object_id) is None
    assert store.insertions(ObjectType.DIRECTORY, cnt.object_id) == 0
    assert store.insertions(ObjectType.CONTENT, cnt.object_id) == 1
    assert (ObjectType.DIRECTORY, cnt.object_id) not in store
    assert (ObjectType.CONTENT, cnt.object_id) in store
    assert list(store) == [
        (ObjectType.CONTENT, cnt.object_id),
        (ObjectType.DIRECTORY, tree.object_id),
    ]
    make_tree(tmp_path / "proj")
    _, walked = ingest_path(tmp_path / "proj")
    assert {type(t) for t, _ in walked} == {ObjectType}
    assert {type(i) for _, i in walked} == {ObjectId}


def test_store_is_thread_safe():
    store = ObjectStore()
    payloads = [b"%d" % (i % 7) for i in range(700)]

    def worker(chunk):
        for data in chunk:
            store.add(Content(data))

    threads = [
        threading.Thread(target=worker, args=(payloads[i::4],))
        for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(store) == 7
    total = sum(
        store.insertions(object_type, object_id)
        for object_type, object_id in store
    )
    assert total == 700


# --- verification -----------------------------------------------------------------


def test_verify_matching_file(tmp_path, gpl3_bytes):
    target = tmp_path / "license.txt"
    target.write_bytes(gpl3_bytes)
    expected = parse("swh:1:cnt:94a9ed024d3859793618152ea559a168bbcbb5e2")
    report = verify_path(expected, target)
    assert report.matched
    assert report.detail == ()


def test_verify_detects_file_change(tmp_path, gpl3_bytes):
    target = tmp_path / "license.txt"
    target.write_bytes(gpl3_bytes + b"\n")
    expected = parse("swh:1:cnt:94a9ed024d3859793618152ea559a168bbcbb5e2")
    report = verify_path(expected, target)
    assert not report.matched
    assert report.actual.object_id != report.expected.object_id
    assert [d.path for d in report.detail] == [""]


def test_verify_matching_directory(tmp_path):
    root = tmp_path / "proj"
    make_tree(root)
    swhid, _ = ingest_path(root)
    report = verify_path(swhid, root)
    assert report.matched


def test_verify_localizes_divergence_with_reference(tmp_path):
    root = tmp_path / "proj"
    make_tree(root)
    swhid, reference = ingest_path(root)
    (root / "src" / "main.c").write_bytes(b"int main(void) { return 1; }\n")
    report = verify_path(swhid, root, reference=reference)
    assert not report.matched
    assert [d.path for d in report.detail] == ["src/main.c"]
    assert report.detail[0].note == "differs"
    assert report.detail[0].expected_hex == content_id(
        Content(b"int main(void) { return 0; }\n")
    ).hex


def test_verify_reports_missing_and_unexpected(tmp_path):
    root = tmp_path / "proj"
    make_tree(root)
    swhid, reference = ingest_path(root)
    (root / "docs" / "readme.txt").unlink()
    (root / "docs" / "intruder.txt").write_bytes(b"new\n")
    report = verify_path(swhid, root, reference=reference)
    notes = {d.path: d.note for d in report.detail}
    assert notes == {
        "docs/intruder.txt": "unexpected",
        "docs/readme.txt": "missing",
    }


def test_verify_reports_mode_change(tmp_path):
    root = tmp_path / "proj"
    make_tree(root)
    swhid, reference = ingest_path(root)
    (root / "src" / "util.c").chmod(0o755)
    report = verify_path(swhid, root, reference=reference)
    assert [d.note for d in report.detail] == ["mode differs"]
    assert report.detail[0].path == "src/util.c"


def test_verify_without_reference_reports_root_only(tmp_path):
    root = tmp_path / "proj"
    make_tree(root)
    swhid, reference = ingest_path(root)
    _, unrelated = ingest_path(root / "src")
    (root / "src" / "main.c").write_bytes(b"changed\n")
    report = verify_path(swhid, root)
    assert [d.path for d in report.detail] == [""]
    # One row for the root, as (path, expected, actual, note): without a
    # reference, with one that lacks the expected root, and for a content
    # even when the reference holds the expected one.
    main_c = CoreSwhid(ObjectType.CONTENT, content_id(Content(b"int main(void) { return 0; }\n")))
    for expected, target, store in [
        (swhid, root, None),
        (swhid, root, unrelated),
        (main_c, root / "src" / "main.c", reference),
    ]:
        report = verify_path(expected, target, reference=store)
        actual = ingest_path(target)[0].object_id.hex
        rows = [(d.path, d.expected_hex, d.actual_hex, d.note) for d in report.detail]
        assert rows == [("", expected.object_id.hex, actual, "differs")]


def test_verify_detail_limit_bounds_every_path(tmp_path):
    root = tmp_path / "proj"
    make_tree(root)
    swhid, reference = ingest_path(root)
    (root / "src" / "main.c").write_bytes(b"changed\n")
    (root / "docs" / "readme.txt").unlink()
    # Without a reference, with one lacking the root, and with the full one.
    for store, rows in [(None, 1), (ObjectStore(), 1), (reference, 2)]:
        for limit in (0, 1, 20):
            report = verify_path(swhid, root, reference=store, detail_limit=limit)
            assert not report.matched
            assert len(report.detail) == min(limit, rows)


@pytest.mark.parametrize("reference", [None, ObjectStore()], ids=["none", "empty"])
def test_verify_keeps_no_tree_without_a_reference_to_compare(tmp_path, monkeypatch, reference):
    root = tmp_path / "proj"
    make_tree(root)
    swhid, _ = ingest_path(root)
    (root / "src" / "main.c").write_bytes(b"changed\n")
    inserted = []
    real = ObjectStore._insert
    monkeypatch.setattr(
        ObjectStore, "_insert", lambda self, *args: inserted.append(args) or real(self, *args)
    )
    report = verify_path(swhid, root, reference=reference)
    assert inserted == []
    actual = ingest_path(root)[0].object_id.hex
    rows = [(d.path, d.expected_hex, d.actual_hex, d.note) for d in report.detail]
    assert rows == [("", swhid.object_id.hex, actual, "differs")]


def test_verify_detail_rows_against_a_trees_only_reference(tmp_path):
    root = tmp_path / "proj"
    make_tree(root)
    swhid, full = ingest_path(root)
    reference = trees_only(full, tmp_path / "exported")
    assert len(reference) == 4 and len(full) == 9
    (root / "src" / "main.c").write_bytes(b"int main(void) { return 1; }\n")
    (root / "src" / "util.c").chmod(0o755)
    (root / "docs" / "readme.txt").unlink()
    (root / "docs" / "intruder.txt").write_bytes(b"new\n")
    os.unlink(root / "entry")
    os.symlink("src/util.c", root / "entry")
    (root / "empty" / "new").write_bytes(b"")
    rows = [
        ("docs/intruder.txt", None, "3e757656cf36eca53338e520d134963a44f793f8", "unexpected"),
        ("docs/readme.txt", "ce013625030ba8dba906f756967f9e9ca394464a", None, "missing"),
        ("empty/new", None, "e69de29bb2d1d6434b8b29ae775ad8c2e48c5391", "unexpected"),
        ("entry", "58777349ec0ce72459642aad19620b7bd1d3c3ff",
         "75efe9c19d0e60e4e08d1f5a810a0fb6b713a946", "differs"),
        ("src/main.c", "78f2de106c92b0d60772bd5aa6c1e6da7bf71005",
         "98c444a915d0f839398f7db6061ee499cf4e6b6b", "differs"),
        ("src/util.c", "3715665a84b0a35ab1ced45fef964fdc38bd64f8",
         "3715665a84b0a35ab1ced45fef964fdc38bd64f8", "mode differs"),
    ]
    for limit in (0, 1, 20):
        report = verify_path(swhid, root, reference=reference, detail_limit=limit)
        assert str(report.actual) == "swh:1:dir:6dc6f4750f5a802b7fb568b8e6188fec64fe1771"
        assert [(d.path, d.expected_hex, d.actual_hex, d.note) for d in report.detail] == (
            rows[:limit]
        )


def test_verify_type_mismatches(tmp_path):
    root = tmp_path / "proj"
    make_tree(root)
    dir_swhid, _ = ingest_path(root)
    file_swhid, _ = ingest_path(root / "run.sh")
    with pytest.raises(TypeMismatchError):
        verify_path(file_swhid, root)
    with pytest.raises(TypeMismatchError):
        verify_path(dir_swhid, root / "run.sh")
    snp = CoreSwhid(ObjectType.SNAPSHOT, dir_swhid.object_id)
    with pytest.raises(TypeMismatchError):
        verify_path(snp, root)


def test_verify_missing_path(tmp_path):
    expected = parse("swh:1:cnt:94a9ed024d3859793618152ea559a168bbcbb5e2")
    with pytest.raises(NotFoundError):
        verify_path(expected, tmp_path / "gone")


def test_verify_accepts_qualified_identifier(tmp_path, gpl3_bytes):
    target = tmp_path / "license.txt"
    target.write_bytes(gpl3_bytes)
    qualified = parse(
        "swh:1:cnt:94a9ed024d3859793618152ea559a168bbcbb5e2"
        ";origin=https://example.org/repo;lines=1-3"
    )
    assert verify_path(qualified, target).matched


# --- extract_lines ------------------------------------------------------------------


def test_extract_middle_lines():
    data = b"one\ntwo\nthree\nfour\n"
    assert extract_lines(data, LineRange(2, 3)) == b"two\nthree\n"


def test_extract_single_line():
    assert extract_lines(b"a\nb\nc\n", LineRange(2)) == b"b\n"
    assert extract_lines(b"a\nb\nc\n", LineRange(2, 2)) == b"b\n"


def test_extract_preserves_missing_final_newline():
    assert extract_lines(b"a\nb", LineRange(2)) == b"b"
    assert extract_lines(b"a\nb", LineRange(1)) == b"a\n"
    assert extract_lines(b"a\nb", LineRange(1, 2)) == b"a\nb"


def test_extract_end_clamps_to_last_line():
    assert extract_lines(b"a\nb\nc", LineRange(2, 99)) == b"b\nc"


def test_extract_carriage_returns_are_content():
    data = b"a\r\nb\r\n"
    assert extract_lines(data, LineRange(1)) == b"a\r\n"


def test_extract_start_beyond_content():
    with pytest.raises(RangeOutOfBoundsError):
        extract_lines(b"a\nb\n", LineRange(3))
    with pytest.raises(RangeOutOfBoundsError):
        extract_lines(b"", LineRange(1))


def test_extract_whole_file_round_trip(gpl3_bytes):
    count = gpl3_bytes.count(b"\n")
    assert extract_lines(gpl3_bytes, LineRange(1, count)) == gpl3_bytes


@given(
    st.lists(st.binary(max_size=6).filter(lambda b: b"\n" not in b), min_size=1, max_size=12),
    st.booleans(),
    st.data(),
)
def test_extract_lines_slices_cleanly(lines, trailing, data):
    # An unterminated final line only exists if it has bytes; otherwise
    # the list models more lines than the file holds.
    assume(trailing or lines[-1] != b"")
    raw = b"\n".join(lines) + (b"\n" if trailing else b"")
    start = data.draw(st.integers(min_value=1, max_value=len(lines)))
    end = data.draw(st.integers(min_value=start, max_value=len(lines)))
    out = extract_lines(raw, LineRange(start, end))
    expected = b"\n".join(lines[start - 1 : end])
    if end < len(lines) or trailing:
        expected += b"\n"
    assert out == expected


def _split_every_line(data: bytes, line_range: LineRange) -> bytes:
    """extract_lines as it was first written: split all of data, then slice."""
    physical = data.split(b"\n")
    if data.endswith(b"\n") or not data:
        physical = physical[:-1]
    count = len(physical)
    start = line_range.start
    end = line_range.end if line_range.end is not None else start
    if start > count:
        raise RangeOutOfBoundsError(
            f"range starts at line {start} but content has {count} line(s)"
        )
    end = min(end, count)
    selected = b"\n".join(physical[start - 1 : end])
    if end < count or data.endswith(b"\n"):
        selected += b"\n"
    return selected


def _outcome(extract, data: bytes, line_range: LineRange):
    try:
        return extract(data, line_range)
    except RangeOutOfBoundsError as exc:
        return str(exc)


_HUGE = st.integers(min_value=2**63 - 2, max_value=2**64 + 2)


@st.composite
def _line_ranges(draw):
    start = draw(st.integers(min_value=1, max_value=45) | _HUGE)
    end = draw(
        st.sampled_from([None, start])
        | st.integers(min_value=start + 1, max_value=start + 45)
        | st.integers(min_value=max(start + 1, 2**63 - 1), max_value=2**64 + 3)
    )
    return LineRange(start, end)


@settings(max_examples=500)
@given(
    data=st.lists(st.sampled_from([b"a", b"\r", b"\n"]), max_size=40).map(b"".join),
    line_range=_line_ranges(),
)
@example(data=b"a\nb", line_range=LineRange(1, 2**63))
@example(data=b"a\n", line_range=LineRange(1, 2**64))
@example(data=b"", line_range=LineRange(2**63))
@example(data=b"a\na", line_range=LineRange(2**63 - 1, 2**63))
def test_extract_lines_matches_splitting_every_line(data, line_range):
    assert _outcome(extract_lines, data, line_range) == _outcome(
        _split_every_line, data, line_range
    )


def test_extract_lines_command_on_a_mebibyte_file(tmp_path):
    rng = random.Random(21)
    data = b"".join(
        b"x" * rng.randrange(40) + rng.choice([b"\n", b"\r\n"]) for _ in range(52_000)
    ) + b"unterminated"  # about 1 MiB
    count = data.count(b"\n") + 1
    target = tmp_path / "big.txt"
    target.write_bytes(data)
    ident = swhid_of(Content(data))
    for lines, code, err in [
        ("1-2", 0, ""),
        (f"{count}-{count + 7}", 0, ""),
        (
            str(count + 1),
            ExitStatus.USAGE,
            f"swhid: range starts at line {count + 1} but content has {count} line(s)\n",
        ),
    ]:
        args = ["extract-lines", f"{ident};lines={lines}", str(target)]
        child = subprocess.run(
            [sys.executable, "-m", "swhid.cli", *args],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            timeout=60,
        )
        out = _outcome(_split_every_line, data, parse(f"{ident};lines={lines}").lines)
        assert (child.returncode, child.stdout, child.stderr.decode()) == (
            code,
            out if code == 0 else b"",
            err,
        )

