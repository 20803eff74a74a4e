import base64
import errno
import functools
import importlib.metadata
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from builders import export_object, write_tree
from clirunner import CliRunner
from hypothesis import given, settings, strategies as st

import swhid
import swhid.cli
import swhid.errors as errors
import swhid.resolve
import swhid.syntax
from swhid.cli import ExitStatus, main
from swhid.ingest import ingest_path
from swhid.model import Content, content_id, swhid_of

from mockarchive import TLS_CERT, MockArchive

GPL3_ID = "swh:1:cnt:94a9ed024d3859793618152ea559a168bbcbb5e2"


@pytest.fixture
def runner():
    return CliRunner()


def test_exit_status_values():
    assert ExitStatus.OK == 0
    assert ExitStatus.MISMATCH == 1
    assert ExitStatus.USAGE == 2
    assert ExitStatus.IO_ERROR == 3


EXIT_STATUS_OF = {
    "SwhidError": ExitStatus.USAGE,
    "ModelError": ExitStatus.USAGE,
    "DuplicateNameError": ExitStatus.USAGE,
    "InvalidNameError": ExitStatus.USAGE,
    "MalformedPersonError": ExitStatus.USAGE,
    "MalformedNameError": ExitStatus.USAGE,
    "InvalidBranchNameError": ExitStatus.USAGE,
    "IngestError": ExitStatus.IO_ERROR,
    "NotFoundError": ExitStatus.IO_ERROR,
    "UnreadableError": ExitStatus.IO_ERROR,
    "UnsupportedNodeKindError": ExitStatus.IO_ERROR,
    "TypeMismatchError": ExitStatus.USAGE,
    "RangeOutOfBoundsError": ExitStatus.USAGE,
    "StoreError": ExitStatus.IO_ERROR,
    "SchemaError": ExitStatus.USAGE,
    "UnknownReferenceError": ExitStatus.USAGE,
    "ResolveError": ExitStatus.IO_ERROR,
    "NotFoundInArchiveError": ExitStatus.IO_ERROR,
    "TypeContradictionError": ExitStatus.MISMATCH,
    "TransportError": ExitStatus.IO_ERROR,
    "IntegrityMismatchError": ExitStatus.MISMATCH,
    "SwhidParseError": ExitStatus.USAGE,
}


def _error_classes(cls=errors.SwhidError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda c: c.__name__)
def test_every_error_class_names_its_exit_status(cls):
    # A class missing from the table fails here with a KeyError.
    assert cls.exit_status is EXIT_STATUS_OF[cls.__name__]


# --- identify -----------------------------------------------------------------


def test_identify_file(runner, tmp_path, gpl3_bytes):
    target = tmp_path / "license.txt"
    target.write_bytes(gpl3_bytes)
    result = runner.invoke(main, ["identify", str(target)])
    assert result.exit_code == 0
    assert result.output == f"{GPL3_ID}\t{target}\n"


def test_identify_directory_and_json(runner, tmp_path):
    (tmp_path / "f.txt").write_bytes(b"x\n")
    result = runner.invoke(main, ["identify", "--json", str(tmp_path)])
    assert result.exit_code == 0
    (row,) = json.loads(result.output)
    assert row["path"] == str(tmp_path)
    assert row["swhid"].startswith("swh:1:dir:")


def test_identify_json_matches_json_dumps(runner, tmp_path):
    root = tmp_path / "names"
    root.mkdir()
    raw_names = [
        b'quote"d', b"back\\slash", b"ctl\x01\x1f\t\nend", "caf\u00e9 \u2603 \U0001f600".encode(),
        b"latin\xe9", b"\xff\xfe",
    ]
    for raw in raw_names:
        with open(os.path.join(os.fsencode(root), raw), "wb") as fh:
            fh.write(raw)
    collected = []
    ingest_path(root, collect=collected)
    expected = []
    for rel, swhid in collected:
        path = os.path.join(str(root), rel) if rel else str(root)
        row = {"path": path}
        try:
            path.encode("utf-8")
        except UnicodeEncodeError:
            row["path_b64"] = base64.b64encode(os.fsencode(path)).decode()
        row["swhid"] = str(swhid)
        expected.append(row)
    result = runner.invoke(main, ["identify", "--recursive", "--json", str(root)])
    assert result.exit_code == 0
    assert result.output == json.dumps(expected, indent=2) + "\n"
    rows = json.loads(result.output)
    with_b64 = [row for row in rows if "path_b64" in row]
    assert sorted(os.path.basename(base64.b64decode(r["path_b64"])) for r in with_b64) == [
        b"latin\xe9", b"\xff\xfe"
    ]
    for row in with_b64:
        assert os.fsencode(row["path"]) == base64.b64decode(row["path_b64"])


def test_identify_recursive_json_bytes(runner, tmp_path, monkeypatch):
    top = tmp_path / "t"
    (top / "sub").mkdir(parents=True)
    (top / "build" / "deep").mkdir(parents=True)
    (top / "a.txt").write_bytes(b"a\n")
    (top / "run.sh").write_bytes(b"#!/bin/sh\n")
    (top / "run.sh").chmod(0o755)
    os.symlink("a.txt", top / "link")
    (top / "sub" / "b.txt").write_bytes(b"b\n")
    (top / "build" / "out.o").write_bytes(b"obj")
    (top / "build" / "deep" / "x").write_bytes(b"x")
    with open(os.path.join(os.fsencode(top), b"latin\xe9"), "wb") as fh:
        fh.write(b"l\n")
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["identify", "--recursive", "--json", "--exclude", "build", "t"])
    assert result.exit_code == 0
    assert result.stdout_bytes == (
        b"[\n"
        b'  {\n    "path": "t/a.txt",\n'
        b'    "swhid": "swh:1:cnt:78981922613b2afb6025042ff6bd878ac1994e85"\n  },\n'
        b'  {\n    "path": "t/latin\\udce9",\n'
        b'    "path_b64": "dC9sYXRpbuk=",\n'
        b'    "swhid": "swh:1:cnt:1f9d725a9de833a65966881dce2e907b86e72c5e"\n  },\n'
        b'  {\n    "path": "t/link",\n'
        b'    "swhid": "swh:1:cnt:8d14cbf983b3fad683171c9418998d9f68340823"\n  },\n'
        b'  {\n    "path": "t/run.sh",\n'
        b'    "swhid": "swh:1:cnt:1a2485251c33a70432394c93fb89330ef214bfc9"\n  },\n'
        b'  {\n    "path": "t/sub/b.txt",\n'
        b'    "swhid": "swh:1:cnt:61780798228d17af2d34fce4cfbdf35556832472"\n  },\n'
        b'  {\n    "path": "t/sub",\n'
        b'    "swhid": "swh:1:dir:f8f7aefc2900a3d737cea9eee45729fd55761e1a"\n  },\n'
        b'  {\n    "path": "t",\n'
        b'    "swhid": "swh:1:dir:b490affdf1c2c0eabe4d2cdd68bc28b7e9fc6d0b"\n  }\n'
        b"]\n"
    )


@pytest.mark.parametrize(
    "root, ident",
    [
        ("a.txt", "swh:1:cnt:78981922613b2afb6025042ff6bd878ac1994e85"),
        ("link", "swh:1:cnt:8d14cbf983b3fad683171c9418998d9f68340823"),  # b"a.txt"
    ],
)
def test_identify_recursive_on_a_non_directory_gives_one_row(
    runner, tmp_path, monkeypatch, root, ident
):
    (tmp_path / "a.txt").write_bytes(b"a\n")
    os.symlink("a.txt", tmp_path / "link")
    monkeypatch.chdir(tmp_path)
    text = runner.invoke(main, ["identify", "--recursive", root])
    assert (text.exit_code, text.stdout) == (0, f"{ident}\t{root}\n")
    as_json = runner.invoke(main, ["identify", "--recursive", "--json", root])
    assert as_json.exit_code == 0
    assert as_json.stdout == json.dumps([{"path": root, "swhid": ident}], indent=2) + "\n"
    collected = []
    swhid, _ = ingest_path(root, collect=collected)
    assert (str(swhid), collected) == (ident, [("", swhid)])


def test_identify_recursive_lists_children_first(runner, tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a.txt").write_bytes(b"a\n")
    result = runner.invoke(main, ["identify", "--recursive", str(tmp_path)])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    paths = [line.split("\t", 1)[1] for line in lines]
    assert paths == [
        str(tmp_path / "sub" / "a.txt"),
        str(tmp_path / "sub"),
        str(tmp_path),
    ]
    assert lines[0].startswith("swh:1:cnt:")
    assert lines[-1].startswith("swh:1:dir:")


def test_identify_multiple_paths(runner, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_bytes(b"a")
    b.write_bytes(b"b")
    result = runner.invoke(main, ["identify", str(a), str(b)])
    assert result.exit_code == 0
    assert len(result.output.splitlines()) == 2


def test_identify_exclude(runner, tmp_path):
    (tmp_path / "keep.c").write_bytes(b"k")
    (tmp_path / "junk.o").write_bytes(b"j")
    with_junk = runner.invoke(main, ["identify", str(tmp_path)])
    cleaned = runner.invoke(
        main, ["identify", "--exclude", "*.o", str(tmp_path)]
    )
    assert with_junk.output != cleaned.output
    (tmp_path / "junk.o").unlink()
    bare = runner.invoke(main, ["identify", str(tmp_path)])
    assert bare.output.split("\t")[0] == cleaned.output.split("\t")[0]


def test_identify_type_mismatch_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["identify", "--type", "cnt", str(tmp_path)])
    assert result.exit_code == ExitStatus.USAGE
    assert "swhid:" in result.stderr


def test_identify_missing_path_is_io_error(runner, tmp_path):
    result = runner.invoke(main, ["identify", str(tmp_path / "nope")])
    assert result.exit_code == ExitStatus.IO_ERROR


def test_identify_requires_a_path(runner):
    result = runner.invoke(main, ["identify"])
    assert result.exit_code == ExitStatus.USAGE


# Names with bytes that JSON escapes, a tab, a space, non-UTF-8 bytes and a
# non-ASCII letter; scandir never yields "." or "..".
_ROW_NAMES = (
    st.lists(
        st.sampled_from([b"a", b"\t", b'"', b"\\", b" ", b"\xe9", b"\xff", "é".encode()]),
        min_size=1,
        max_size=4,
    )
    .map(b"".join)
    .filter(lambda name: name not in (b".", b".."))
)
_ROW_LEAVES = st.one_of(
    st.tuples(st.just("file"), st.binary(max_size=8), st.booleans()),
    st.tuples(st.just("link"), st.sampled_from([b"a", b"../\xe9", b"missing"])),
)


def _row_dirs(children):
    # The flag adds a "*.tmp" file and directory for --exclude to drop.
    return st.tuples(
        st.just("dir"),
        st.dictionaries(_ROW_NAMES, children, min_size=1, max_size=3),
        st.booleans(),
    )


def _identify_reference(paths, excludes, recursive, as_json) -> bytes:
    """identify's stdout, built from ingest_path's collect rows and json.dumps."""
    rows = []
    for path in paths:
        collected = []
        root, _ = ingest_path(path, excludes, collect=collected)
        for rel, swhid in collected if recursive else [("", root)]:
            rows.append((os.path.join(path, rel) if rel else path, str(swhid)))
    if not as_json:
        return b"".join(os.fsencode(f"{s}\t{p}\n") for p, s in rows)
    dicts = []
    for p, s in rows:
        try:
            p.encode("utf-8")
            path_b64 = {}
        except UnicodeEncodeError:
            path_b64 = {"path_b64": base64.b64encode(os.fsencode(p)).decode()}
        dicts.append({"path": p, **path_b64, "swhid": s})
    return (json.dumps(dicts, indent=2) + "\n").encode()


_ROOTS = st.tuples(
    _ROW_NAMES,
    st.one_of(_ROW_LEAVES, _row_dirs(st.recursive(_ROW_LEAVES, _row_dirs, max_leaves=8))),
    st.booleans(),  # a directory root spelt with a trailing "/"
)


@settings(max_examples=40, deadline=None)
@given(
    roots=st.lists(_ROOTS, min_size=1, max_size=3, unique_by=lambda root: root[0]),
    exclude=st.booleans(),
)
def test_identify_stdout_matches_ingest_path_rows(roots, exclude, tmp_path_factory):
    base = tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp())
    paths, kinds = [], []
    for name, node, slash in roots:
        path = os.path.join(base, os.fsdecode(name))
        write_tree(os.fsencode(path), node)
        paths.append(path + "/" if slash and node[0] == "dir" else path)
        kinds.append("dir" if node[0] == "dir" else "cnt")
    other = {"dir": os.path.join(base, "other-dir"), "cnt": os.path.join(base, "other-file")}
    write_tree(os.fsencode(other["dir"]), ("dir", {b"f": ("file", b"", False)}, False))
    write_tree(os.fsencode(other["cnt"]), ("file", b"", False))
    missing = os.path.join(base, "missing")
    # --type of the first root's kind fails on a last path of the other kind.
    kind = kinds[0]
    same_kind = [p for p, k in zip(paths, kinds) if k == kind]
    wrong, wrong_kind = (other["cnt"], "content") if kind == "dir" else (other["dir"], "directory")
    options = ["--exclude", "*.tmp"] if exclude else []
    runner = CliRunner()
    for flags in ([], ["--recursive"], ["--json"], ["--recursive", "--json"]):
        result = runner.invoke(main, ["identify", *flags, *options, *paths])
        assert (result.exit_code, result.stderr_bytes) == (0, b"")
        assert result.stdout_bytes == _identify_reference(
            paths, options[1:], "--recursive" in flags, "--json" in flags
        )
        failed = runner.invoke(main, ["identify", *flags, *options, *paths, missing])
        assert (failed.exit_code, failed.stdout_bytes) == (ExitStatus.IO_ERROR, b"")
        assert failed.stderr == f"swhid: {missing}: no such file or directory\n"
        args = ["identify", *flags, *options, "--type", kind, *same_kind, wrong]
        failed = runner.invoke(main, args)
        assert (failed.exit_code, failed.stdout_bytes) == (ExitStatus.USAGE, b"")
        assert failed.stderr == (
            f"swhid: {wrong}: computed a {wrong_kind} identifier, but --type {kind} was requested\n"
        )


# --- parse --------------------------------------------------------------------


def test_parse_text_output(runner):
    result = runner.invoke(main, ["parse", GPL3_ID])
    assert result.exit_code == 0
    assert "object type  content" in result.output
    assert "94a9ed024d3859793618152ea559a168bbcbb5e2" in result.output


def test_parse_text_output_with_qualifiers(runner):
    result = runner.invoke(main, ["parse", GPL3_ID + ";origin=https://example.org/r;lines=2-9"])
    assert (result.exit_code, result.stderr_bytes) == (0, b"")
    assert result.stdout_bytes == (
        f"canonical    {GPL3_ID};origin=https://example.org/r;lines=2-9\n"
        "object type  content\n"
        "object id    94a9ed024d3859793618152ea559a168bbcbb5e2\n"
        "origin       https://example.org/r\n"
        "lines        2-9\n"
    ).encode()


def test_parse_json_output(runner):
    qualified = GPL3_ID + ";origin=https://example.org/repo;lines=2-9"
    result = runner.invoke(main, ["parse", "--json", qualified])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["canonical"] == qualified
    assert payload["object_type"] == "content"
    assert payload["origin"] == "https://example.org/repo"
    assert payload["lines"] == "2-9"


def test_parse_invalid_identifier(runner):
    result = runner.invoke(main, ["parse", "swh:1:xyz:beef"])
    assert result.exit_code == ExitStatus.USAGE
    assert "error at byte 6" in result.stderr


def test_parse_warns_but_accepts_uppercase(runner):
    result = runner.invoke(
        main, ["parse", "swh:1:cnt:" + "94A9ED024D3859793618152EA559A168BBCBB5E2"]
    )
    assert result.exit_code == 0
    assert "warning" in result.stderr
    assert GPL3_ID.split(":")[-1] in result.output


def test_parse_permissive_flag(runner):
    text = GPL3_ID + ";visit=2"
    strict = runner.invoke(main, ["parse", text])
    assert strict.exit_code == ExitStatus.USAGE
    loose = runner.invoke(main, ["parse", "--permissive", text])
    assert loose.exit_code == 0


@pytest.mark.parametrize(
    "text, code",
    [(GPL3_ID + ";lines=1", 0), (GPL3_ID[:10] + GPL3_ID[10:].upper(), 0), ("swh:1:x", 2)],
    ids=["clean", "warning", "error"],
)
def test_parse_scans_the_identifier_once(runner, text, code):
    # Counted by code object, however the CLI reaches the scanner.
    scanner = swhid.syntax._scan.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is scanner:
            calls.append(event)

    sys.setprofile(profile)
    try:
        result = runner.invoke(main, ["parse", text])
    finally:
        sys.setprofile(None)
    assert result.exit_code == code, result.output
    assert len(calls) == 1


# --- verify ---------------------------------------------------------------------


def test_verify_ok(runner, tmp_path, gpl3_bytes):
    target = tmp_path / "license.txt"
    target.write_bytes(gpl3_bytes)
    result = runner.invoke(main, ["verify", GPL3_ID, str(target)])
    assert result.exit_code == ExitStatus.OK
    assert result.output.startswith("ok ")


def test_verify_mismatch(runner, tmp_path, gpl3_bytes):
    target = tmp_path / "license.txt"
    target.write_bytes(gpl3_bytes[:-1])
    result = runner.invoke(main, ["verify", GPL3_ID, str(target)])
    assert result.exit_code == ExitStatus.MISMATCH
    assert "mismatch" in result.output


def test_verify_localizes_with_object_store(runner, tmp_path):
    root = tmp_path / "proj"
    (root / "sub").mkdir(parents=True)
    (root / "sub" / "deep.txt").write_bytes(b"original\n")
    (root / "top.txt").write_bytes(b"top\n")
    swhid, store = ingest_path(root)
    store.save(tmp_path / "objects-dir")
    (root / "sub" / "deep.txt").write_bytes(b"tampered\n")
    result = runner.invoke(
        main,
        [
            "verify",
            str(swhid),
            str(root),
            "--objects",
            str(tmp_path / "objects-dir"),
        ],
    )
    assert result.exit_code == ExitStatus.MISMATCH
    assert "sub/deep.txt" in result.output


def test_verify_json_report(runner, tmp_path):
    target = tmp_path / "f.txt"
    target.write_bytes(b"abc")
    swhid = swhid_of(Content(b"abc"))
    result = runner.invoke(main, ["verify", "--json", str(swhid), str(target)])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["matched"] is True
    assert payload["detail"] == []


def test_verify_json_detail_carries_path_b64_for_non_utf8_names(runner, tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    raw_name = b"caf\xe9.txt"  # latin-1 bytes, invalid utf-8
    raw_path = os.path.join(os.fsencode(root), raw_name)
    with open(raw_path, "wb") as fh:
        fh.write(b"original\n")
    (root / "plain.txt").write_bytes(b"plain\n")
    swhid, store = ingest_path(root)
    store.save(tmp_path / "objects")
    with open(raw_path, "wb") as fh:
        fh.write(b"tampered\n")
    (root / "plain.txt").write_bytes(b"changed\n")
    result = runner.invoke(
        main,
        ["verify", "--json", "--objects", str(tmp_path / "objects"), str(swhid), str(root)],
    )
    assert result.exit_code == ExitStatus.MISMATCH
    detail = json.loads(result.stdout)["detail"]
    assert [list(row) for row in detail] == [
        ["path", "path_b64", "expected", "actual", "note"],
        ["path", "expected", "actual", "note"],
    ]
    assert detail[0]["path"] == os.fsdecode(raw_name)
    assert base64.b64decode(detail[0]["path_b64"]) == raw_name
    assert detail[1]["path"] == "plain.txt"
    assert all(row["note"] == "differs" for row in detail)


def test_verify_snapshot_id_is_usage_error(runner, tmp_path):
    ident = "swh:1:snp:94a9ed024d3859793618152ea559a168bbcbb5e2"
    result = runner.invoke(main, ["verify", ident, str(tmp_path)])
    assert result.exit_code == ExitStatus.USAGE


def test_verify_bad_identifier_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["verify", "swh:1:cnt:short", str(tmp_path)])
    assert result.exit_code == ExitStatus.USAGE


def test_verify_missing_path_is_io_error(runner, tmp_path):
    result = runner.invoke(main, ["verify", GPL3_ID, str(tmp_path / "gone")])
    assert result.exit_code == ExitStatus.IO_ERROR


def test_verify_cnt_id_against_directory_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["verify", GPL3_ID, str(tmp_path)])
    assert result.exit_code == ExitStatus.USAGE


# --- resolve --------------------------------------------------------------------


def test_resolve_prints_archive_url(runner):
    result = runner.invoke(main, ["resolve", GPL3_ID])
    assert result.exit_code == 0
    assert result.output.strip() == (
        "https://archive.softwareheritage.org/" + GPL3_ID
    )


def test_resolve_other_resolvers(runner):
    result = runner.invoke(main, ["resolve", "--resolver", "n2t", GPL3_ID])
    assert result.output.strip() == "https://n2t.net/" + GPL3_ID
    result = runner.invoke(
        main, ["resolve", "--resolver", "identifiers-org", GPL3_ID]
    )
    assert result.output.strip() == "https://identifiers.org/" + GPL3_ID


def test_resolve_check_against_archive(runner, archive):
    swhid = archive.add_content(b"checked\n")
    result = runner.invoke(
        main,
        ["resolve", "--check", "--endpoint", archive.endpoint, str(swhid)],
    )
    assert result.exit_code == 0
    assert "known to archive (type confirmed)" in result.output


def test_resolve_check_json_bytes(runner, archive):
    swhid = archive.add_content(b"checked\n")
    result = runner.invoke(
        main,
        ["resolve", "--check", "--json", "--endpoint", archive.endpoint, str(swhid)],
    )
    assert (result.exit_code, result.stderr_bytes) == (0, b"")
    assert result.stdout_bytes == (
        "{\n"
        f'  "url": "https://archive.softwareheritage.org/{swhid}",\n'
        '  "known": true,\n'
        '  "type_confirmed": true,\n'
        f'  "browse_url": "{archive.endpoint}/browse/{swhid}"\n'
        "}\n"
    ).encode()


def test_resolve_check_endpoint_env_var(runner, archive):
    swhid = archive.add_content(b"via env\n")
    result = runner.invoke(
        main,
        ["resolve", "--check", str(swhid)],
        env={"SWHID_ARCHIVE_URL": archive.endpoint},
    )
    assert result.exit_code == 0


def test_resolve_check_unknown_is_io_error(runner, archive):
    result = runner.invoke(
        main,
        ["resolve", "--check", "--endpoint", archive.endpoint, GPL3_ID],
    )
    assert result.exit_code == ExitStatus.IO_ERROR


def test_resolve_check_type_contradiction_is_mismatch(runner, archive):
    swhid = archive.add_content(b"odd\n", object_type_name="release")
    result = runner.invoke(
        main,
        ["resolve", "--check", "--endpoint", archive.endpoint, str(swhid)],
    )
    assert result.exit_code == ExitStatus.MISMATCH


def test_resolve_check_other_object_id_is_mismatch(runner, archive):
    swhid = archive.add_content(b"odd\n")
    archive.metadata[str(swhid)]["object_id"] = "0" * 40
    result = runner.invoke(
        main,
        ["resolve", "--check", "--endpoint", archive.endpoint, str(swhid)],
    )
    assert result.exit_code == ExitStatus.MISMATCH
    assert "known to archive" not in result.output
    assert result.stderr.startswith("swhid: archive reports object 0000")


def _no_backoff(monkeypatch):
    for name in ("resolve_metadata", "fetch_content_verified"):
        call = getattr(swhid.resolve, name)
        no_wait = functools.partial(call, sleep=lambda _: None)
        monkeypatch.setattr(swhid.resolve, name, no_wait)


@pytest.mark.parametrize(
    "mode, value",
    [
        ("short_by", 10),
        ("resolve_body", b" " * (2 << 20) + b"{}"),
        ("endless", True),
    ],
    ids=["short_by", "resolve_body", "endless"],  # the 2 MiB value would be its id
)
def test_resolve_hostile_archive_exits_3(
    runner, archive, tmp_path, monkeypatch, mode, value
):
    swhid = archive.add_content(b"the payload\n")
    setattr(archive, mode, value)
    _no_backoff(monkeypatch)
    out = tmp_path / "out.bin"
    result = runner.invoke(
        main,
        [
            "resolve",
            "--check",
            "--fetch",
            str(out),
            "--endpoint",
            archive.endpoint,
            str(swhid),
        ],
    )
    assert result.exit_code == ExitStatus.IO_ERROR, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_resolve_fetch_short_body_exits_3(runner, archive, tmp_path, monkeypatch):
    swhid = archive.add_content(b"the payload\n")
    archive.short_by = 10
    _no_backoff(monkeypatch)
    out = tmp_path / "out.bin"
    result = runner.invoke(
        main,
        ["resolve", "--fetch", str(out), "--endpoint", archive.endpoint, str(swhid)],
    )
    assert result.exit_code == ExitStatus.IO_ERROR, result.output
    assert "Traceback" not in result.stderr
    assert archive.raw_requests == 3
    assert not out.exists()


def test_resolve_fetch_writes_verified_bytes(runner, archive, tmp_path):
    swhid = archive.add_content(b"the payload\n")
    out = tmp_path / "fetched.bin"
    result = runner.invoke(
        main,
        [
            "resolve",
            "--fetch",
            str(out),
            "--endpoint",
            archive.endpoint,
            str(swhid),
        ],
    )
    assert result.exit_code == 0
    assert out.read_bytes() == b"the payload\n"
    assert "verified bytes" in result.output


def test_resolve_fetch_corrupted_writes_nothing(runner, archive, tmp_path):
    swhid = archive.add_content(b"the payload\n")
    archive.corrupt_every = 1
    out = tmp_path / "fetched.bin"
    result = runner.invoke(
        main,
        [
            "resolve",
            "--fetch",
            str(out),
            "--endpoint",
            archive.endpoint,
            str(swhid),
        ],
    )
    assert result.exit_code == ExitStatus.MISMATCH
    assert not out.exists()


def test_resolve_fetch_failed_write_keeps_earlier_file(
    runner, archive, tmp_path, monkeypatch
):
    swhid = archive.add_content(b"the payload\n")
    out = tmp_path / "fetched.bin"
    out.write_bytes(b"earlier\n")

    def full_disk(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "replace", full_disk)
    result = runner.invoke(
        main,
        ["resolve", "--fetch", str(out), "--endpoint", archive.endpoint, str(swhid)],
    )
    assert result.exit_code == ExitStatus.IO_ERROR, result.output
    assert result.stderr == f"swhid: {out}: {os.strerror(errno.ENOSPC)}\n"
    assert out.read_bytes() == b"earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fetched.bin"]


def test_resolve_fetch_into_missing_directory_exits_3(runner, archive, tmp_path):
    swhid = archive.add_content(b"the payload\n")
    out = tmp_path / "no-such-dir" / "out.bin"
    result = runner.invoke(
        main,
        ["resolve", "--fetch", str(out), "--endpoint", archive.endpoint, str(swhid)],
    )
    assert result.exit_code == ExitStatus.IO_ERROR, result.output
    assert result.stderr == f"swhid: {out}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_resolve_fetch_requires_content_id(runner, tmp_path):
    ident = "swh:1:dir:94a9ed024d3859793618152ea559a168bbcbb5e2"
    result = runner.invoke(
        main, ["resolve", "--fetch", str(tmp_path / "x"), ident]
    )
    assert result.exit_code == ExitStatus.USAGE


def _cli_child(
    args, python=("-m", "swhid.cli"), text=True, stdout=subprocess.PIPE, input=None, **env
):
    """Run python [python] args, fed input; no *_proxy variables but env's."""
    src = Path(swhid.__file__).resolve().parents[1]
    base = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    return subprocess.run(
        [sys.executable, *python, *args],
        env=dict(base, PYTHONPATH=str(src), **env),
        input=input,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=text,
        timeout=60,
    )


def test_resolve_goes_through_http_proxy(archive):
    swhid = archive.add_content(b"proxied\n")
    child = _cli_child(
        ["resolve", "--check", "--endpoint", "http://archive.invalid", str(swhid)],
        http_proxy=archive.endpoint,
    )
    assert child.returncode == 0, child.stderr
    assert "known to archive" in child.stdout
    assert archive.proxied == 1


def test_resolve_bypasses_proxy_for_no_proxy_hosts(archive):
    swhid = archive.add_content(b"direct\n")
    proxy = MockArchive()
    try:
        child = _cli_child(
            ["resolve", "--check", "--endpoint", archive.endpoint, str(swhid)],
            http_proxy=proxy.endpoint,
            no_proxy="127.0.0.1",
        )
    finally:
        proxy.close()
    assert child.returncode == 0, child.stderr
    assert proxy.proxied == 0 and proxy.resolve_requests == 0
    assert archive.resolve_requests == 1 and archive.proxied == 0


@pytest.mark.parametrize(
    "env, loaded",
    [
        ({}, False),
        ({"http_proxy": "", "HTTPS_PROXY": "http://127.0.0.1:9", "no_proxy": "*"}, False),
        ({"HTTP_PROXY": "http://127.0.0.1:9", "no_proxy": "127.0.0.1"}, True),
    ],
    ids=["no-proxy-variable", "none-for-http", "bypassed"],
)
def test_resolve_loads_urllib_request_only_when_a_proxy_can_apply(archive, env, loaded):
    swhid = archive.add_content(b"direct\n")
    probe = (
        "import sys; from swhid.cli import main\n"
        "try: main()\n"
        "except SystemExit as exc: print(exc.code)\n"
        "print('urllib.request' in sys.modules)"
    )
    args = ["resolve", "--check", "--endpoint", archive.endpoint, str(swhid)]
    child = _cli_child(args, python=("-c", probe), **env)
    assert child.returncode == 0, child.stderr
    known = "known to archive (type confirmed)"
    assert child.stdout.splitlines()[-3:] == [known, "None", str(loaded)]
    assert archive.resolve_requests == 1 and archive.proxied == 0


def _with_credentials(archive) -> str:
    return archive.endpoint.replace("http://", "http://user:p%40ss@")


BASIC = "Basic " + base64.b64encode(b"user:p@ss").decode()


def test_resolve_check_of_deeply_nested_json_exits_3(archive):
    swhid = archive.add_content(b"x")
    archive.resolve_body = b"[" * 100_000
    child = _cli_child(["resolve", "--check", "--endpoint", archive.endpoint, str(swhid)])
    assert child.returncode == ExitStatus.IO_ERROR
    assert child.stdout == ""
    url = f"{archive.endpoint}/api/1/resolve/{swhid}/"
    assert child.stderr == f"swhid: GET {url}: body is not JSON\n"
    assert "Traceback" not in child.stderr


def test_resolve_sends_proxy_credentials_as_basic(archive):
    swhid = archive.add_content(b"proxied\n")
    child = _cli_child(
        ["resolve", "--check", "--endpoint", "http://archive.invalid", str(swhid)],
        http_proxy=_with_credentials(archive),
    )
    assert child.returncode == 0, child.stderr
    assert archive.proxy_auth == [BASIC]


def test_resolve_tunnels_https_through_proxy(archive):
    swhid = archive.add_content(b"tunnelled\n")
    child = _cli_child(
        ["resolve", "--check", "--endpoint", "https://archive.invalid", str(swhid)],
        https_proxy=_with_credentials(archive),
    )
    assert child.returncode == ExitStatus.IO_ERROR, child.stderr
    assert child.stderr == (
        f"swhid: GET https://archive.invalid/api/1/resolve/{swhid}/:"
        " Tunnel connection failed: 403 Forbidden\n"
    )
    assert archive.tunnels == ["archive.invalid:443"] * 3
    assert archive.proxy_auth == [BASIC] * 3


# Backoff waits are no output of a command; a child run through this skips them.
_WITHOUT_BACKOFF = "import time; time.sleep = lambda s: None\nfrom swhid.cli import main\nmain()"


@pytest.fixture
def https_archive(monkeypatch):
    # Only SSL_CERT_FILE, where a test sets it, may make a child trust the archive.
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    server = MockArchive(https=True)
    yield server
    server.close()


def _fetch_over_tls(archive, out, endpoint, **env):
    swhid = archive.add_content(b"over tls\n")
    args = ["resolve", "--check", "--fetch", str(out), "--endpoint", endpoint, str(swhid)]
    return _cli_child(args, python=("-c", _WITHOUT_BACKOFF), **env)


def test_resolve_fetches_over_tls_from_a_trusted_archive(https_archive, tmp_path):
    out = tmp_path / "fetched.bin"
    endpoint = https_archive.endpoint
    assert endpoint.startswith("https://127.0.0.1:")
    child = _fetch_over_tls(https_archive, out, endpoint, SSL_CERT_FILE=str(TLS_CERT))
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[1:] == [
        "known to archive (type confirmed)",
        f"wrote 9 verified bytes to {out}",
    ]
    assert out.read_bytes() == b"over tls\n"
    assert https_archive.resolve_requests == https_archive.raw_requests == 1


def test_resolve_refuses_an_untrusted_certificate(https_archive, tmp_path):
    out = tmp_path / "fetched.bin"
    child = _fetch_over_tls(https_archive, out, https_archive.endpoint)
    assert child.returncode == ExitStatus.IO_ERROR, child.stderr
    assert "certificate verify failed" in child.stderr
    assert "Traceback" not in child.stderr
    assert https_archive.resolve_requests == 0 and not out.exists()


def test_resolve_refuses_a_certificate_for_another_host(https_archive, tmp_path):
    out = tmp_path / "fetched.bin"
    endpoint = https_archive.endpoint.replace("127.0.0.1", "localhost")
    child = _fetch_over_tls(https_archive, out, endpoint, SSL_CERT_FILE=str(TLS_CERT))
    assert child.returncode == ExitStatus.IO_ERROR, child.stderr
    assert "certificate verify failed: Hostname mismatch" in child.stderr
    assert "'localhost'" in child.stderr
    assert https_archive.resolve_requests == 0 and not out.exists()


def test_resolve_child_closes_pooled_connections_at_exit(
    keep_alive_archive, tmp_path
):
    swhid = keep_alive_archive.add_content(b"the payload\n")
    out = tmp_path / "fetched.bin"
    endpoint = keep_alive_archive.endpoint
    child = _cli_child(
        ["resolve", "--check", "--fetch", str(out), "--endpoint", endpoint, str(swhid)],
        python=("-X", "dev", "-W", "error::ResourceWarning", "-m", "swhid.cli"),
    )
    assert child.returncode == 0, child.stderr
    assert "ResourceWarning" not in child.stderr
    assert out.read_bytes() == b"the payload\n"
    assert keep_alive_archive.connections == 1


# Exit handlers run last-registered first, so this one, registered before
# swhid is imported, sees the sockets swhid's own handler left open.
_COUNT_OPEN_SOCKETS_AT_EXIT = """
import atexit, gc, socket

def report():
    live = [o for o in gc.get_objects() if isinstance(o, socket.socket)]
    print(sum(s.fileno() != -1 for s in live), "open")

atexit.register(report)
from swhid.cli import main
main()
"""


def test_pooled_connections_are_closed_at_exit(keep_alive_archive):
    swhid = keep_alive_archive.add_content(b"the payload\n")
    endpoint = keep_alive_archive.endpoint
    child = _cli_child(
        ["resolve", "--check", "--endpoint", endpoint, str(swhid)],
        python=("-c", _COUNT_OPEN_SOCKETS_AT_EXIT),
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.endswith("\n0 open\n"), child.stdout
    assert keep_alive_archive.connections == 1


def test_resolve_bad_identifier(runner):
    result = runner.invoke(main, ["resolve", "not-an-id"])
    assert result.exit_code == ExitStatus.USAGE


# --- extract-lines ----------------------------------------------------------------


def test_extract_lines_outputs_selection(runner, tmp_path):
    data = b"alpha\nbravo\ncharlie\ndelta\n"
    target = tmp_path / "f.txt"
    target.write_bytes(data)
    ident = f"{swhid_of(Content(data))};lines=2-3"
    result = runner.invoke(main, ["extract-lines", ident, str(target)])
    assert result.exit_code == 0
    assert result.stdout_bytes == b"bravo\ncharlie\n"


def test_extract_lines_verifies_first(runner, tmp_path):
    data = b"alpha\nbravo\n"
    target = tmp_path / "f.txt"
    target.write_bytes(b"alpha\nbravo!\n")
    ident = f"{swhid_of(Content(data))};lines=1"
    result = runner.invoke(main, ["extract-lines", ident, str(target)])
    assert result.exit_code == ExitStatus.MISMATCH
    assert result.stdout_bytes == b""
    loose = runner.invoke(
        main, ["extract-lines", "--no-verify", ident, str(target)]
    )
    assert loose.exit_code == 0
    assert loose.stdout_bytes == b"alpha\n"


def test_extract_lines_requires_lines_qualifier(runner, tmp_path):
    target = tmp_path / "f.txt"
    target.write_bytes(b"x\n")
    ident = str(swhid_of(Content(b"x\n")))
    result = runner.invoke(main, ["extract-lines", ident, str(target)])
    assert result.exit_code == ExitStatus.USAGE


def test_extract_lines_range_out_of_bounds(runner, tmp_path):
    data = b"only\n"
    target = tmp_path / "f.txt"
    target.write_bytes(data)
    ident = f"{swhid_of(Content(data))};lines=5"
    result = runner.invoke(main, ["extract-lines", ident, str(target)])
    assert result.exit_code == ExitStatus.USAGE


def test_extract_lines_missing_file(runner, tmp_path):
    ident = GPL3_ID + ";lines=1"
    result = runner.invoke(
        main, ["extract-lines", ident, str(tmp_path / "gone")]
    )
    assert result.exit_code == ExitStatus.IO_ERROR


def test_extract_lines_binary_safe(runner, tmp_path):
    data = b"\x00\x01\n\xff\xfe\n"
    target = tmp_path / "f.bin"
    target.write_bytes(data)
    ident = f"{swhid_of(Content(data))};lines=2"
    result = runner.invoke(main, ["extract-lines", ident, str(target)])
    assert result.exit_code == 0
    assert result.stdout_bytes == b"\xff\xfe\n"


def test_extract_lines_reads_a_pipe():
    expected = swhid_of(Content(b"a\nb\nc\n")).object_id.hex
    args = ["extract-lines", f"swh:1:cnt:{expected};lines=2", "/dev/stdin"]
    child = _cli_child(args, input="a\nb\nc\n")
    assert (child.returncode, child.stdout, child.stderr) == (0, "b\n", "")
    child = _cli_child(args, input="a\nB\nc\n")
    actual = swhid_of(Content(b"a\nB\nc\n")).object_id.hex
    assert child.returncode == ExitStatus.MISMATCH
    assert child.stdout == ""
    assert child.stderr == f"swhid: /dev/stdin hashes to {actual}, expected {expected}\n"


# --- group-level behavior ------------------------------------------------------------


def test_unknown_command_is_usage_error(runner):
    result = runner.invoke(main, ["frobnicate"])
    assert result.exit_code == ExitStatus.USAGE


def test_bad_option_value_is_usage_error(runner, tmp_path):
    result = runner.invoke(
        main, ["identify", "--jobs", "0", str(tmp_path)]
    )
    assert result.exit_code == ExitStatus.USAGE


def _store_with(tmp_path, manifest, hexid=""):
    # verify of a one-file tree against an export of manifest alone.
    hexid = export_object(tmp_path / "store", manifest, hexid)
    (tmp_path / "proj").mkdir()
    (tmp_path / "proj" / "f").write_bytes(b"x")
    store = str(tmp_path / "store")
    return ["verify", "--objects", store, f"swh:1:dir:{hexid}", str(tmp_path / "proj")]


def _missing_store(tmp_path, request):
    store = str(tmp_path / "gone")
    return ["verify", "--objects", store, "swh:1:dir:" + "0" * 40, str(tmp_path)]


def _misnamed_store(tmp_path, request):
    return _store_with(tmp_path, b"blob 3\x00abc", hexid="0" * 40)


def _malformed_tree_store(tmp_path, request):
    return _store_with(tmp_path, b"tree 7\x00garbage")


def _refused_port(tmp_path, request):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    return ["resolve", "--check", "--endpoint", f"http://127.0.0.1:{port}", GPL3_ID]


def _unwritable_fetch(tmp_path, request):
    archive = request.getfixturevalue("archive")
    swhid = archive.add_content(b"payload\n")
    out = tmp_path / "no-such-dir" / "out.bin"
    return ["resolve", "--fetch", str(out), "--endpoint", archive.endpoint, str(swhid)]


def _schema_error_in_identify(tmp_path, request):
    def broken(*args, **kwargs):
        raise errors.SchemaError("injected")

    request.getfixturevalue("monkeypatch").setattr("swhid.ingest._walk", broken)
    return ["identify", str(tmp_path)]


@pytest.mark.parametrize(
    "case, code",
    [
        (_missing_store, ExitStatus.IO_ERROR),
        (_misnamed_store, ExitStatus.IO_ERROR),
        (_malformed_tree_store, ExitStatus.IO_ERROR),
        (_refused_port, ExitStatus.IO_ERROR),
        (_unwritable_fetch, ExitStatus.IO_ERROR),
        (_schema_error_in_identify, ExitStatus.USAGE),
    ],
    ids=lambda value: getattr(value, "__name__", "").strip("_") or None,
)
def test_errors_end_in_their_exit_status(runner, tmp_path, request, case, code):
    result = runner.invoke(main, case(tmp_path, request))
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("swhid: ")
    assert "Traceback" not in result.output


# Each case: (args, exit status, stderr), with DIR for the test's directory.
def _forced_type(tmp_path, request):
    return ["identify", "--type", "cnt", "DIR"], ExitStatus.USAGE, (
        "swhid: DIR: computed a directory identifier, but --type cnt was requested\n"
    )


def _fetch_of_a_directory_id(tmp_path, request):
    ident = "swh:1:dir:" + "0" * 40
    return ["resolve", "--fetch", "DIR/x", ident], ExitStatus.USAGE, (
        "swhid: --fetch needs a content identifier\n"
    )


def _fetch_into_a_file_instead_of_a_directory(tmp_path, request):
    archive = request.getfixturevalue("archive")
    swhid = archive.add_content(b"payload\n")
    (tmp_path / "file").write_bytes(b"")
    args = ["resolve", "--fetch", "DIR/file/out", "--endpoint", archive.endpoint, str(swhid)]
    return args, ExitStatus.IO_ERROR, "swhid: DIR/file/out: Not a directory\n"


def _extract_from_a_directory_id(tmp_path, request):
    ident = "swh:1:dir:" + "0" * 40 + ";lines=1"
    return ["extract-lines", ident, "DIR/f"], ExitStatus.USAGE, (
        "swhid: extract-lines needs a content identifier\n"
    )


def _extract_without_lines(tmp_path, request):
    return ["extract-lines", GPL3_ID, "DIR/f"], ExitStatus.USAGE, (
        "swhid: identifier carries no lines qualifier\n"
    )


def _extract_from_a_missing_file(tmp_path, request):
    return ["extract-lines", GPL3_ID + ";lines=1", "DIR/gone"], ExitStatus.IO_ERROR, (
        "swhid: DIR/gone: No such file or directory\n"
    )


def _extract_from_a_changed_file(tmp_path, request):
    (tmp_path / "f").write_bytes(b"x\n")
    actual = swhid_of(Content(b"x\n")).object_id.hex
    return ["extract-lines", GPL3_ID + ";lines=1", "DIR/f"], ExitStatus.MISMATCH, (
        f"swhid: DIR/f hashes to {actual}, expected {GPL3_ID[10:]}\n"
    )


@pytest.mark.parametrize(
    "case",
    [
        _forced_type,
        _fetch_of_a_directory_id,
        _fetch_into_a_file_instead_of_a_directory,
        _extract_from_a_directory_id,
        _extract_without_lines,
        _extract_from_a_missing_file,
        _extract_from_a_changed_file,
    ],
    ids=lambda case: case.__name__.strip("_"),
)
def test_command_errors_exit_code_and_stderr(runner, tmp_path, request, case):
    args, code, stderr = case(tmp_path, request)
    result = runner.invoke(main, [a.replace("DIR", str(tmp_path)) for a in args])
    assert result.exit_code == code, result.output
    assert result.stderr == stderr.replace("DIR", str(tmp_path))
    assert result.stdout_bytes == b""


def test_interrupt_exits_1_without_traceback(runner, tmp_path, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("swhid.ingest._walk", interrupted)
    result = runner.invoke(main, ["identify", str(tmp_path)])
    assert result.exit_code == 1
    assert result.stderr == "swhid: interrupted\n"


def _swhid_installed() -> bool:
    try:
        importlib.metadata.distribution("swhid")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def _pyproject() -> dict:
    # The suite runs uninstalled (PYTHONPATH=src), so declarations are read
    # from pyproject.toml itself rather than from installed metadata.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        return tomllib.load(f)


def test_console_script_entry_point(runner):
    scripts = _pyproject()["project"]["scripts"]
    assert scripts["swhid"] == "swhid.cli:main"

    entry_point = importlib.metadata.EntryPoint(
        name="swhid", value=scripts["swhid"], group="console_scripts"
    )
    cli = entry_point.load()
    assert cli is main
    result = runner.invoke(cli, ["--help"])
    assert result.exit_code == 0
    listed = {
        line.split()[0]
        for line in result.output.split("Commands:", 1)[1].splitlines()
        if line.strip()
    }
    assert listed >= {"identify", "parse", "verify", "resolve", "extract-lines"}


@pytest.mark.skipif(not _swhid_installed(), reason="swhid is not installed")
def test_installed_console_script_entry_point():
    entry_points = importlib.metadata.entry_points(group="console_scripts")
    names = {ep.name: ep.value for ep in entry_points}
    assert names.get("swhid") == "swhid.cli:main"


def test_version_option(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def test_version_matches_pyproject():
    assert swhid.__version__ == _pyproject()["project"]["version"]


def test_cli_import_leaves_requests_unloaded():
    # identify/verify/parse never touch the network, and library users
    # who only mint ids import swhid; the HTTP stack would add ~30 ms to
    # their start-up.
    src = Path(swhid.__file__).resolve().parents[1]
    network = ("requests", "urllib.request", "http.client", "swhid.transport")
    for module in ("swhid", "swhid.cli"):
        probe = (
            f"import sys, {module}; "
            f"print([m for m in {network!r} if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            check=True,
        )
        assert out.stdout.strip() == b"[]", module


def _child_output(code: str) -> str:
    src = Path(swhid.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


@pytest.mark.parametrize(
    "module, loaded",
    [
        ("swhid", ["swhid"]),
        ("swhid.syntax", ["swhid", "swhid.errors", "swhid.syntax"]),
        (
            "swhid.describe",
            ["swhid", "swhid.describe", "swhid.errors", "swhid.model", "swhid.syntax"],
        ),
        ("swhid.cli", ["swhid", "swhid.cli", "swhid.errors", "swhid.syntax"]),
    ],
)
def test_import_loads_only_the_modules_it_uses(module, loaded):
    # The package imports its submodules on first use, and the CLI needs no
    # module from outside the standard library: a CLI child starts at little
    # over interpreter cost. The value types are plain classes, so neither
    # dataclasses nor the inspect module it loads is imported.
    unwanted = ("http.client", "urllib.request", "dataclasses", "inspect")
    probe = (
        f"import sys; before = set(sys.modules); import {module}; "
        "print(sorted(m for m in set(sys.modules) - before"
        f" if m.split('.')[0] not in sys.stdlib_module_names or m in {unwanted!r}))"
    )
    assert _child_output(probe) == repr(loaded)


def test_parse_child_loads_neither_ingest_nor_transport():
    # Each command imports what it runs: parse needs swhid.syntax alone.
    probe = (
        "import sys; from swhid.cli import main\n"
        "try: main(['parse', '--json', sys.argv[1]])\n"
        "except SystemExit as exc: print(exc.code)\n"
        "print(sorted(m for m in sys.modules if m.startswith('swhid')))"
    )
    child = _cli_child([GPL3_ID], python=("-c", probe))
    assert child.returncode == 0, child.stderr
    *output, code, loaded = child.stdout.splitlines()
    assert json.loads("".join(output))["canonical"] == GPL3_ID and code == "None"
    assert loaded == repr(["swhid", "swhid.cli", "swhid.errors", "swhid.syntax"])


def test_resolve_fetch_child_does_not_load_ingest(archive, tmp_path):
    # Writing the fetched file needs swhid._atomic, not the filesystem layer,
    # and a GET over http needs a socket: neither http.client with the email
    # package it parses headers with, nor ssl, nor urllib.request.
    swhid = archive.add_content(b"payload\n")
    out = tmp_path / "out.bin"
    unwanted = ("swhid.ingest", "http.client", "email", "ssl", "urllib.request")
    probe = (
        "import sys; from swhid.cli import main\n"
        "try: main(sys.argv[1:])\n"
        "except SystemExit as exc: print(exc.code)\n"
        f"print([m for m in {unwanted!r} if m in sys.modules])"
    )
    args = ["resolve", "--check", "--fetch", str(out), "--endpoint", archive.endpoint, str(swhid)]
    child = _cli_child(args, python=("-c", probe))
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-2:] == ["None", "[]"]
    assert out.read_bytes() == b"payload\n"


def test_parser_lists_every_resolver_kind():
    assert swhid.cli._RESOLVERS == tuple(kind.value for kind in swhid.resolve.ResolverKind)


def test_every_public_name_resolves_on_first_access():
    probe = (
        "import swhid; "
        "assert set(swhid.__all__) <= set(dir(swhid)); "
        "values = [getattr(swhid, name) for name in swhid.__all__]; "
        "namespace = {}; exec('from swhid import *', namespace); "
        "print(all(namespace[n] is v for n, v in zip(swhid.__all__, values)), len(values))"
    )
    assert _child_output(probe) == f"True {len(swhid.__all__)}"


# --- the contract as a shell sees it -------------------------------------------------
# Real children, so that argument parsing and stream handling are pinned as
# an installed swhid runs them, not only through the in-process runner.

A_ID = "swh:1:cnt:78981922613b2afb6025042ff6bd878ac1994e85"  # b"a\n"
B_ID = "swh:1:cnt:61780798228d17af2d34fce4cfbdf35556832472"  # b"b\n"
TWO_ROWS_JSON = """[
  {
    "path": "DIR/a",
    "swhid": "%s"
  },
  {
    "path": "DIR/b",
    "swhid": "%s"
  }
]
""" % (A_ID, B_ID)


@pytest.mark.parametrize(
    "args, code, stdout",
    [
        ([], ExitStatus.USAGE, ""),
        (["frobnicate"], ExitStatus.USAGE, ""),
        (["--frobnicate"], ExitStatus.USAGE, ""),
        (["identify"], ExitStatus.USAGE, ""),
        (["identify", "--jobs", "0", "DIR"], ExitStatus.USAGE, ""),
        (["identify", "--jobs", "x", "DIR"], ExitStatus.USAGE, ""),
        (["identify", "--rec", "DIR"], ExitStatus.USAGE, ""),
        (["identify", "--type", "x", "DIR"], ExitStatus.USAGE, ""),
        (["resolve", "--resolver", "x", GPL3_ID], ExitStatus.USAGE, ""),
        (["identify", "DIR/a", "--json", "DIR/b"], ExitStatus.OK, TWO_ROWS_JSON),
        (["identify", "--json", "--", "DIR/a", "DIR/b"], ExitStatus.OK, TWO_ROWS_JSON),
        (["identify", "--", "-missing"], ExitStatus.IO_ERROR, ""),
        (["identify", "--json", "--", "DIR/a", "-missing"], ExitStatus.IO_ERROR, ""),
        (["identify", "DIR/a", "--json", "DIR/b", "--", "-missing"], ExitStatus.IO_ERROR, ""),
        (["identify", "--jobs", "2", "DIR/b"], ExitStatus.OK, f"{B_ID}\tDIR/b\n"),
        (["parse", f"{GPL3_ID};lines=" + "1" * 4301], ExitStatus.USAGE, ""),
    ],
)
def test_contract_child_exit_code_and_stdout(tmp_path, args, code, stdout):
    (tmp_path / "a").write_bytes(b"a\n")
    (tmp_path / "b").write_bytes(b"b\n")
    child = _cli_child([a.replace("DIR", str(tmp_path)) for a in args], text=False)
    assert child.returncode == code, child.stderr
    assert child.stdout == stdout.replace("DIR", str(tmp_path)).encode()
    assert b"Traceback" not in child.stderr


def test_contract_child_version():
    child = _cli_child(["--version"])
    assert child.returncode == 0, child.stderr
    assert "0.1.0" in child.stdout


def test_contract_child_reads_endpoint_from_environment(archive):
    swhid = archive.add_content(b"via env\n")
    child = _cli_child(
        ["resolve", "--check", str(swhid)], text=False, SWHID_ARCHIVE_URL=archive.endpoint
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == (
        f"https://archive.softwareheritage.org/{swhid}\n"
        "known to archive (type confirmed)\n"
    ).encode()
    assert archive.resolve_requests == 1


def test_contract_child_closed_stdout_exits_1_quietly(tmp_path):
    (tmp_path / "a").write_bytes(b"a\n")
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write the child makes fails with EPIPE
    try:
        child = _cli_child(["identify", "--recursive", str(tmp_path)], stdout=write_end)
    finally:
        os.close(write_end)
    assert child.returncode == 1
    assert child.stderr == ""


@pytest.mark.parametrize("unbuffered", [True, False], ids=["raw-stdout", "buffered-stdout"])
def test_contract_child_writes_all_of_its_output_to_a_non_blocking_pipe(
    runner, tmp_path, monkeypatch, unbuffered
):
    # Four pipe buffers of rows: the child must wait for a reader that starts late.
    for i in range(1000):
        (tmp_path / ("%04d" % i + "x" * 200)).write_bytes(b"%d\n" % i)
    args = ["identify", "--recursive", "--json", str(tmp_path)]
    expected = runner.invoke(main, args).stdout_bytes
    assert len(expected) > 4 * 65536
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    env = {"PYTHONUNBUFFERED": "1"} if unbuffered else {}
    read_end, write_end = os.pipe()
    os.set_blocking(write_end, False)
    with os.fdopen(read_end, "rb") as reader:
        try:
            child = subprocess.Popen(
                [sys.executable, "-m", "swhid.cli", *args],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=str(Path(swhid.__file__).parents[1]), **env),
            )
        finally:
            os.close(write_end)
        watchdog = threading.Timer(60, child.kill)  # a hung child must not hang the suite
        watchdog.start()
        try:
            time.sleep(0.5)
            output = reader.read()
        finally:
            watchdog.cancel()
    stderr = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=60), stderr) == (0, b"")
    assert output == expected


@pytest.mark.parametrize("stdout_encoding", [None, "utf-8:strict"])
def test_contract_child_writes_non_utf8_names_as_their_bytes(tmp_path, stdout_encoding):
    # A UTF-8 locale other than C/POSIX gives Python a strict stdout too.
    env = {} if stdout_encoding is None else {"PYTHONIOENCODING": stdout_encoding}
    root = tmp_path / "proj"
    root.mkdir()
    raw_path = os.path.join(os.fsencode(root), b"caf\xe9.txt")
    with open(raw_path, "wb") as fh:
        fh.write(b"original\n")
    swhid, store = ingest_path(root)
    child = _cli_child(["identify", "--recursive", str(root)], text=False, **env)
    assert child.returncode == 0, child.stderr
    file_id = swhid_of(Content(b"original\n"))
    assert child.stdout == b"%s\t%s\n%s\t%s\n" % (
        str(file_id).encode(), raw_path, str(swhid).encode(), os.fsencode(root)
    )
    store.save(tmp_path / "objects")
    with open(raw_path, "wb") as fh:
        fh.write(b"tampered\n")
    objects = str(tmp_path / "objects")
    child = _cli_child(["verify", "--objects", objects, str(swhid), str(root)], text=False, **env)
    assert child.returncode == ExitStatus.MISMATCH
    assert child.stderr == b""
    tampered = swhid_of(Content(b"tampered\n")).object_id.hex
    assert child.stdout.endswith(
        b"  caf\xe9.txt: differs (expected %s, found %s)\n"
        % (file_id.object_id.hex.encode(), tampered.encode())
    )
