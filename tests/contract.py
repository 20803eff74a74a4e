"""The CLI's contract: one row per case of `swhid ARGV`.

tests/test_cli.py checks every row, and tests/differential.py runs every
row as a child of both sides it compares. A row runs in a new directory,
which is also its working directory. Its fixture (one of the writers
below, built with tests/builders.py, or none) fills the directory first.
In argv, env values, archive settings and expected bytes, DIR stands for
that directory and ARCHIVE for the endpoint of a MockArchive. A row with
archive settings (a dict, maybe empty) runs against a MockArchive that
holds PAYLOAD and has those attributes set; the others have no archive.

A row's outcome is its exit code, its stdout with each file that the
command left in the directory appended (and removed), and its stderr. Its
expected stdout and stderr are exact bytes or a named predicate,
predicate(data, directory).

test_cli.py runs a row in its own process, unless the row has stdin or
*_proxy variables: swhid.transport keeps the proxy settings it first read
for the life of a process, so such rows run as a child. Resolve's retry
waits are skipped in both runners, since they are no output.

To add a case, append a Row to ROWS with a short id of its own.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from base64 import b64encode
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from builders import ODD_NAMES, export_object, write_tree
from swhid.ingest import ingest_path

Outcome = Tuple[int, bytes, bytes]
Predicate = Callable[[bytes, Path], bool]
# The archive settings a row may change; each child starts from their defaults.
SETTINGS = (
    "corrupt_every", "fail_raw", "fail_resolve", "redirect_to", "resolve_body", "short_by",
    "endless", "endless_sent",
)
# Backoff waits are no output of a command; a child run through this skips them.
WITHOUT_BACKOFF = "import time; time.sleep = lambda s: None\nfrom swhid.cli import main\nmain()"


def cnt(data: bytes) -> str:
    """The content identifier of data, as git hashes a blob."""
    return "swh:1:cnt:" + hashlib.sha1(b"blob %d\x00%s" % (len(data), data)).hexdigest()


GPL3 = (Path(__file__).parent / "data" / "gpl-3.0.txt").read_bytes()
GPL3_ID = "swh:1:cnt:94a9ed024d3859793618152ea559a168bbcbb5e2"
A_ID, B_ID = cnt(b"a\n"), cnt(b"b\n")
PAYLOAD = b"the payload\n"
PAYLOAD_ID = cnt(PAYLOAD)
UNKNOWN_ID = "swh:1:cnt:" + "0" * 40
DIR_ID = "swh:1:dir:" + "0" * 40
LINES = b"alpha\nbravo\ncharlie\ndelta\n"
BINARY = b"\x00\x01\n\xff\xfe\n"
ABC = b"a\nb\nc\n"


@dataclasses.dataclass(frozen=True)
class Row:
    id: str
    argv: Tuple[str, ...]
    code: int
    stdout: Union[bytes, Predicate] = b""
    stderr: Union[bytes, Predicate] = b""
    fixture: Optional[Callable[[Path], None]] = None
    stdin: Optional[bytes] = None
    env: Mapping[str, str] = dataclasses.field(default_factory=dict)
    archive: Optional[Mapping[str, Any]] = None

    @property
    def in_child(self) -> bool:
        return self.stdin is not None or any(k.lower().endswith("_proxy") for k in self.env)


def row(id: str, argv: str, code: int, stdout=b"", stderr=b"", **fields) -> Row:
    """A Row whose argv is written as a shell would split it."""
    return Row(id, tuple(shlex.split(argv)), code, stdout, stderr, **fields)


def substitute(value, root: Path, endpoint: Optional[str]):
    """value with DIR and ARCHIVE replaced, for a str or bytes; any other value as it is."""
    if isinstance(value, bytes):
        return os.fsencode(substitute(os.fsdecode(value), root, endpoint))
    if not isinstance(value, str):
        return value
    value = value.replace("DIR", str(root))
    return value if endpoint is None else value.replace("ARCHIVE", endpoint)


# --- fixtures ---------------------------------------------------------------------

# t holds a file, an executable, a symlink, a subdirectory, a name that is not
# UTF-8 and a build directory; bare is t without build.
_T = {
    b"a.txt": ("file", b"a\n", False),
    b"run.sh": ("file", b"#!/bin/sh\n", True),
    b"link": ("link", b"a.txt"),
    b"sub": ("dir", {b"b.txt": ("file", b"b\n", False)}, False),
    b"latin\xe9": ("file", b"l\n", False),
}
_BUILD = {b"out.o": ("file", b"obj", False), b"deep": ("dir", {b"x": ("file", b"x", False)}, False)}
_SMALL = {
    b"a": ("file", b"a\n", False),
    b"b": ("file", b"b\n", False),
    b"license.txt": ("file", GPL3, False),
    b"lines.txt": ("file", LINES, False),
    b"bin": ("file", BINARY, False),
    b"t": ("dir", {**_T, b"build": ("dir", _BUILD, False)}, False),
    b"bare": ("dir", _T, False),
}


def _write(root: Path, nodes: Mapping[bytes, Any]) -> None:
    for name, node in nodes.items():
        write_tree(os.path.join(os.fsencode(root), name), node)


def small(root: Path) -> None:
    """a, b, license.txt (the GPL-3.0 text), lines.txt, bin, and the trees t and bare."""
    _write(root, _SMALL)


def odd(root: Path) -> None:
    """tree: builders.ODD_NAMES, with *.tmp junk."""
    _write(root, {b"tree": ODD_NAMES})


def tampered(root: Path) -> None:
    """proj, changed in three files after its full export to objects."""
    _write(root, {b"proj": ("dir", {
        b"sub": ("dir", {b"deep.txt": ("file", b"original\n", False)}, False),
        b"top.txt": ("file", b"top\n", False),
        b"caf\xe9.txt": ("file", b"original\n", False),
        b"plain.txt": ("file", b"plain\n", False),
    }, False)})
    ingest_path(root / "proj")[1].save(root / "objects")
    for name, data in ((b"sub/deep.txt", b"tampered\n"), (b"caf\xe9.txt", b"tampered\n")):
        with open(os.path.join(os.fsencode(root), b"proj", name), "wb") as fh:
            fh.write(data)
    (root / "proj" / "plain.txt").write_bytes(b"changed\n")


PROJ_ID = "swh:1:dir:593cac8e0aed30d78455e43ad5bf92084050be4c"  # proj before the changes


def one_object(manifest: bytes, hexid: str = "") -> Callable[[Path], None]:
    """A fixture of store, an export of manifest alone (named hexid if given), and proj/f."""

    def fixture(root: Path) -> None:
        export_object(root / "store", manifest, hexid)
        _write(root, {b"proj": ("dir", {b"f": ("file", b"x", False)}, False)})

    return fixture


MALFORMED_TREE = b"tree 7\x00garbage"
MALFORMED_TREE_ID = hashlib.sha1(MALFORMED_TREE).hexdigest()


# --- predicates ---------------------------------------------------------------------


def identify_reference(paths, excludes, recursive: bool, as_json: bool, cwd=".") -> bytes:
    """identify's stdout, built from ingest_path's collect rows and json.dumps."""
    rows = []
    for path in paths:
        collected: List[Tuple[str, Any]] = []
        root, _ = ingest_path(os.path.join(cwd, path), excludes, collect=collected)
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
            path_b64 = {"path_b64": b64encode(os.fsencode(p)).decode()}
        dicts.append({"path": p, **path_b64, "swhid": s})
    return (json.dumps(dicts, indent=2) + "\n").encode()


def rows_of(paths, excludes=(), recursive=False, as_json=False) -> Predicate:
    """A predicate: identify's stdout is identify_reference's for these inputs."""

    def ingest_path_rows(data: bytes, root: Path) -> bool:
        return data == identify_reference(paths, excludes, recursive, as_json, root)

    return ingest_path_rows


def usage_error(data: bytes, root: Path) -> bool:
    """argparse's refusal: its usage text, then a last line "swhid[ COMMAND]: error: ..."."""
    last = data.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    return data.startswith(b"usage: swhid") and re.match(rb"swhid( [a-z-]+)?: error: ", last) is not None


# --- running a row --------------------------------------------------------------------


def serve(archive, settings: Mapping[str, Any], defaults: Mapping[str, Any]) -> None:
    """Give archive PAYLOAD, and settings over defaults (its SETTINGS as it was made)."""
    archive.add_content(PAYLOAD)
    for name, value in {**defaults, **settings}.items():
        setattr(archive, name, substitute(value, Path(), archive.endpoint))


def run(row: Row, root: Path, endpoint: Optional[str], execute) -> Outcome:
    """row's outcome in root, where execute(argv, env, stdin) gives (code, stdout, stderr)."""
    argv = [substitute(arg, root, endpoint) for arg in row.argv]
    env = {key: substitute(value, root, endpoint) for key, value in row.env.items()}
    before = set(os.listdir(root))
    code, stdout, stderr = execute(argv, env, row.stdin)
    for name in sorted(set(os.listdir(root)) - before):
        stdout += b"\n--- " + os.fsencode(name) + b" ---\n" + (root / name).read_bytes()
        (root / name).unlink()
    return code, stdout, stderr


def child_env(src: Path) -> Dict[str, str]:
    """The environment of a child of src: PYTHONPATH set, and no *_proxy variables."""
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    return dict(env, PYTHONPATH=str(src))


def child(src: Path, argv: Sequence[str], env: Mapping[str, str], stdin, cwd: Path) -> Outcome:
    """The outcome of `swhid argv` in a child of src's package, without backoff waits."""
    feed = {"stdin": subprocess.DEVNULL} if stdin is None else {"input": stdin}
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_BACKOFF, *argv],
        cwd=cwd,
        env=dict(child_env(src), **env),
        capture_output=True,
        timeout=300,
        **feed,
    )
    return done.returncode, done.stdout, done.stderr


# --- the rows -------------------------------------------------------------------------

EXCLUDE_TMP, TMP = "--recursive --exclude '*.tmp'", ["*.tmp"]
NOT_FOUND = b"swhid: tree/missing: no such file or directory\n"
# identify --recursive --json --exclude build t, of the small fixture.
T_ROWS_JSON = (
    b'[\n'
    b'  {\n    "path": "t/a.txt",\n    "swhid": "%s"\n  },\n' % A_ID.encode()
    + b'  {\n    "path": "t/latin\\udce9",\n    "path_b64": "dC9sYXRpbuk=",\n'
    b'    "swhid": "swh:1:cnt:1f9d725a9de833a65966881dce2e907b86e72c5e"\n  },\n'
    b'  {\n    "path": "t/link",\n'
    b'    "swhid": "swh:1:cnt:8d14cbf983b3fad683171c9418998d9f68340823"\n  },\n'
    b'  {\n    "path": "t/run.sh",\n'
    b'    "swhid": "swh:1:cnt:1a2485251c33a70432394c93fb89330ef214bfc9"\n  },\n'
    b'  {\n    "path": "t/sub/b.txt",\n    "swhid": "%s"\n  },\n' % B_ID.encode()
    + b'  {\n    "path": "t/sub",\n'
    b'    "swhid": "swh:1:dir:f8f7aefc2900a3d737cea9eee45729fd55761e1a"\n  },\n'
    b'  {\n    "path": "t",\n'
    b'    "swhid": "swh:1:dir:b490affdf1c2c0eabe4d2cdd68bc28b7e9fc6d0b"\n  }\n'
    b']\n'
)
T_ROWS = (
    f"{A_ID}\tt/a.txt\n"
    "swh:1:cnt:1f9d725a9de833a65966881dce2e907b86e72c5e\tt/latin\udce9\n"
    "swh:1:cnt:8d14cbf983b3fad683171c9418998d9f68340823\tt/link\n"
    "swh:1:cnt:1a2485251c33a70432394c93fb89330ef214bfc9\tt/run.sh\n"
    f"{B_ID}\tt/sub/b.txt\n"
    "swh:1:dir:f8f7aefc2900a3d737cea9eee45729fd55761e1a\tt/sub\n"
    "swh:1:dir:b490affdf1c2c0eabe4d2cdd68bc28b7e9fc6d0b\tt\n"
)
A_AND_B_JSON = (
    f'[\n  {{\n    "path": "DIR/a",\n    "swhid": "{A_ID}"\n  }},\n'
    f'  {{\n    "path": "DIR/b",\n    "swhid": "{B_ID}"\n  }}\n]\n'
).encode()
GPL3_HEX = GPL3_ID[10:]
PARSED = f"canonical    {GPL3_ID}\nobject type  content\nobject id    {GPL3_HEX}\n".encode()
QUALIFIED_JSON = (
    '{\n  "canonical": "%s;origin=https://example.org/%s;lines=%s",\n'
    '  "schema_version": 1,\n  "object_type": "content",\n  "object_id": "%s",\n'
    '  "origin": "https://example.org/%s",\n  "lines": "%s"\n}\n'
)
TAMPERED = (
    ("caf\udce9.txt", "Y2Fm6S50eHQ=", cnt(b"original\n"), cnt(b"tampered\n")),
    ("plain.txt", None, cnt(b"plain\n"), cnt(b"changed\n")),
    ("sub/deep.txt", None, cnt(b"original\n"), cnt(b"tampered\n")),
)
URL = f"https://archive.softwareheritage.org/{PAYLOAD_ID}\n"
KNOWN = "known to archive (type confirmed)\n"
FETCH = f"resolve --check --fetch fetched.bin --endpoint ARCHIVE {PAYLOAD_ID}"
LEFT = b"\n--- fetched.bin ---\n" + PAYLOAD  # what run() appends of the file written
FETCHED = b"wrote 12 verified bytes to fetched.bin\n" + LEFT
CORRUPTED_ID = cnt(bytes([PAYLOAD[0] ^ 0xFF]) + PAYLOAD[1:])  # as MockArchive.corrupt flips it
RESOLVE_GET = f"swhid: GET ARCHIVE/api/1/resolve/{PAYLOAD_ID}/: "
FETCHED_JSON = (
    f'{{\n  "url": "{URL[:-1]}",\n  "known": true,\n  "type_confirmed": true,\n'
    f'  "browse_url": "ARCHIVE/browse/{PAYLOAD_ID}"%s\n}}\n'
)


def _verify_detail(as_json: bool) -> bytes:
    """verify's report on the tampered fixture."""
    actual = "swh:1:dir:0d1f06762e12086d2386c7d4fed6164c89b20d04"
    if not as_json:
        lines = [f"mismatch: expected {PROJ_ID}\n          computed {actual}\n"]
        lines += [f"  {p}: differs (expected {e[10:]}, found {a[10:]})\n" for p, _, e, a in TAMPERED]
        return os.fsencode("".join(lines))
    detail = [
        {"path": p, **({"path_b64": b64} if b64 else {}), "expected": e[10:], "actual": a[10:],
         "note": "differs"}
        for p, b64, e, a in TAMPERED
    ]
    report = {"expected": PROJ_ID, "actual": actual, "matched": False, "detail": detail}
    return (json.dumps(report, indent=2) + "\n").encode()


ROWS: List[Row] = [
    # identify over builders.ODD_NAMES; the harness runs these over its seeded trees too.
    row("identify-odd", "identify tree", 0, rows_of(["tree"]), fixture=odd),
    row("identify-odd-json", "identify --json tree", 0, rows_of(["tree"], as_json=True),
        fixture=odd),
    row("identify-odd-recursive", "identify --recursive tree", 0,
        rows_of(["tree"], recursive=True), fixture=odd),
    row("identify-odd-exclude", f"identify {EXCLUDE_TMP} tree", 0,
        rows_of(["tree"], TMP, recursive=True), fixture=odd),
    row("identify-odd-exclude-json", f"identify --json {EXCLUDE_TMP} tree", 0,
        rows_of(["tree"], TMP, recursive=True, as_json=True), fixture=odd),
    row("identify-odd-and-file", f"identify {EXCLUDE_TMP} tree tree/caf\udce9.txt", 0,
        rows_of(["tree", "tree/caf\udce9.txt"], TMP, recursive=True), fixture=odd),
    row("identify-file-and-odd-json", f"identify --json {EXCLUDE_TMP} tree/caf\udce9.txt tree", 0,
        rows_of(["tree/caf\udce9.txt", "tree"], TMP, recursive=True, as_json=True), fixture=odd),
    row("identify-odd-link-json", "identify --recursive --json tree/link\udce9", 0,
        rows_of(["tree/link\udce9"], recursive=True, as_json=True), fixture=odd),
    row("identify-odd-file-and-link", "identify tree/caf\udce9.txt tree/link\udce9", 0,
        rows_of(["tree/caf\udce9.txt", "tree/link\udce9"]), fixture=odd),
    row("identify-odd-then-missing", f"identify {EXCLUDE_TMP} tree tree/missing", 3,
        stderr=NOT_FOUND, fixture=odd),
    row("identify-odd-then-missing-json", f"identify --json {EXCLUDE_TMP} tree tree/missing", 3,
        stderr=NOT_FOUND, fixture=odd),
    row("identify-odd-type-dir-of-file", f"identify --type dir {EXCLUDE_TMP} tree tree/caf\udce9.txt",
        2, stderr=b"swhid: tree/caf\\udce9.txt: computed a content identifier,"
        b" but --type dir was requested\n", fixture=odd),
    row("identify-odd-type-cnt-of-dir", "identify --type cnt --json tree/caf\udce9.txt tree", 2,
        stderr=b"swhid: tree: computed a directory identifier, but --type cnt was requested\n",
        fixture=odd),
    # identify over the small fixture; t and bare (t without build) have one id
    row("identify-file", "identify DIR/license.txt", 0, f"{GPL3_ID}\tDIR/license.txt\n".encode(),
        fixture=small),
    row("identify-two-files", "identify a b", 0, f"{A_ID}\ta\n{B_ID}\tb\n".encode(), fixture=small),
    row("identify-dir-json", "identify --json DIR/t/sub", 0,
        b'[\n  {\n    "path": "DIR/t/sub",\n'
        b'    "swhid": "swh:1:dir:f8f7aefc2900a3d737cea9eee45729fd55761e1a"\n  }\n]\n',
        fixture=small),
    row("identify-t", "identify t", 0, b"swh:1:dir:06f9e3e3c2211a6884ad3ba4d54384088cded2d0\tt\n",
        fixture=small),
    row("identify-exclude", "identify --exclude build t", 0,
        b"swh:1:dir:b490affdf1c2c0eabe4d2cdd68bc28b7e9fc6d0b\tt\n", fixture=small),
    row("identify-bare", "identify bare", 0,
        b"swh:1:dir:b490affdf1c2c0eabe4d2cdd68bc28b7e9fc6d0b\tbare\n", fixture=small),
    row("identify-recursive", "identify --recursive --exclude build t", 0, os.fsencode(T_ROWS),
        fixture=small),
    row("identify-recursive-json", "identify --recursive --json --exclude build t", 0, T_ROWS_JSON,
        fixture=small),
    row("identify-recursive-file", "identify --recursive t/a.txt", 0, f"{A_ID}\tt/a.txt\n".encode(),
        fixture=small),
    row("identify-recursive-file-json", "identify --recursive --json t/a.txt", 0,
        f'[\n  {{\n    "path": "t/a.txt",\n    "swhid": "{A_ID}"\n  }}\n]\n'.encode(),
        fixture=small),
    row("identify-recursive-link", "identify --recursive t/link", 0,
        f"{cnt(b'a.txt')}\tt/link\n".encode(), fixture=small),
    row("identify-recursive-link-json", "identify --recursive --json t/link", 0,
        f'[\n  {{\n    "path": "t/link",\n    "swhid": "{cnt(b"a.txt")}"\n  }}\n]\n'.encode(),
        fixture=small),
    row("identify-paths-after-options", "identify DIR/a --json DIR/b", 0, A_AND_B_JSON,
        fixture=small),
    row("identify-paths-after-dashes", "identify --json -- DIR/a DIR/b", 0, A_AND_B_JSON,
        fixture=small),
    row("identify-dash-path", "identify -- -missing", 3,
        stderr=b"swhid: -missing: no such file or directory\n", fixture=small),
    row("identify-dash-path-last", "identify --json -- a -missing", 3,
        stderr=b"swhid: -missing: no such file or directory\n", fixture=small),
    row("identify-dashes-after-paths", "identify a --json b -- -missing", 3,
        stderr=b"swhid: -missing: no such file or directory\n", fixture=small),
    row("identify-jobs-2", "identify --jobs 2 DIR/b", 0, f"{B_ID}\tDIR/b\n".encode(),
        fixture=small),
    row("identify-type-cnt-of-dir", "identify --type cnt DIR/t", 2,
        stderr=b"swhid: DIR/t: computed a directory identifier, but --type cnt was requested\n",
        fixture=small),
    row("identify-missing", "identify nope", 3, stderr=b"swhid: nope: no such file or directory\n"),
    row("identify-no-path", "identify", 2, stderr=usage_error),
    row("identify-jobs-0", "identify --jobs 0 .", 2, stderr=usage_error),
    row("identify-jobs-x", "identify --jobs x .", 2, stderr=usage_error),
    row("identify-abbreviated", "identify --rec .", 2, stderr=usage_error),
    row("identify-type-x", "identify --type x .", 2, stderr=usage_error),
    # parse: every DiagnosticKind, qualifiers, --json and --permissive
    row("parse", f"parse {GPL3_ID}", 0, PARSED),
    row("parse-qualifiers", f"parse '{GPL3_ID};origin=https://example.org/r;lines=2-9'", 0,
        f"canonical    {GPL3_ID};origin=https://example.org/r;lines=2-9\n".encode()
        + PARSED[PARSED.index(b"\n") + 1:]
        + b"origin       https://example.org/r\nlines        2-9\n"),
    row("parse-json", f"parse --json '{GPL3_ID};origin=https://example.org/repo;lines=2-9'", 0,
        (QUALIFIED_JSON % (GPL3_ID, "repo", "2-9", GPL3_HEX, "repo", "2-9")).encode()),
    row("parse-bad-prefix", "parse sha1:94a9ed02", 2,
        stderr=b"swhid: error at byte 0: identifier must start with 'swh:'\n"),
    row("parse-unsupported-version", f"parse swh:2:cnt:{GPL3_HEX}", 2,
        stderr=b"swhid: error at byte 4: unsupported schema version '2' (expected '1')\n"),
    row("parse-bad-type", "parse swh:1:xyz:beef", 2,
        stderr=b"swhid: error at byte 6: unknown object type 'xyz' (expected cnt, dir, rev, rel,"
        b" or snp)\nswhid: error at byte 10: object id must be 40 hex digits, got 4\n"),
    row("parse-bad-hex", "parse swh:1:cnt:short", 2,
        stderr=b"swhid: error at byte 10: object id must be 40 hex digits, got 5\n"),
    row("parse-bad-qualifier", f"parse '{GPL3_ID};visit=2'", 2,
        stderr=b"swhid: error at byte 51: unknown qualifier key 'visit'\n"),
    row("parse-bad-line-range", f"parse '{GPL3_ID};lines=9-2'", 2,
        stderr=b"swhid: error at byte 51: line range end 2 precedes start 9\n"),
    row("parse-huge-line-number", f"parse '{GPL3_ID};lines={'1' * 4301}'", 2,
        stderr=b"swhid: error at byte 51: line number is too large\n"),
    row("parse-uppercase-hex", f"parse swh:1:cnt:{GPL3_HEX.upper()}", 0, PARSED,
        b"swhid: warning at byte 10: object id uses non-canonical uppercase hex digits\n"),
    row("parse-qualifier-order", f"parse --json '{GPL3_ID};lines=1;origin=https://example.org/r'",
        0, (QUALIFIED_JSON % (GPL3_ID, "r", "1", GPL3_HEX, "r", "1")).encode(),
        b"swhid: warning at byte 59: non-canonical qualifier order (origin belongs before lines)\n"),
    row("parse-permissive", f"parse --permissive '{GPL3_ID};visit=2'", 0, PARSED,
        b"swhid: warning at byte 51: unknown qualifier key 'visit' ignored\n"),
    # verify
    row("verify", f"verify {GPL3_ID} license.txt", 0, f"ok {GPL3_ID}\n".encode(), fixture=small),
    row("verify-mismatch", f"verify {A_ID} b", 1,
        f"mismatch: expected {A_ID}\n          computed {B_ID}\n"
        f"  .: differs (expected {A_ID[10:]}, found {B_ID[10:]})\n".encode(), fixture=small),
    row("verify-json", f"verify --json {A_ID} a", 0,
        f'{{\n  "expected": "{A_ID}",\n  "actual": "{A_ID}",\n  "matched": true,\n'
        '  "detail": []\n}\n'.encode(), fixture=small),
    row("verify-objects", f"verify --objects objects {PROJ_ID} proj", 1, _verify_detail(False),
        fixture=tampered),
    row("verify-objects-json", f"verify --json --objects objects {PROJ_ID} proj", 1,
        _verify_detail(True), fixture=tampered),
    row("verify-snapshot-id", f"verify swh:1:snp:{GPL3_HEX} t", 2,
        stderr=b"swhid: snapshot identifiers cannot be checked against a filesystem path\n",
        fixture=small),
    row("verify-bad-id", "verify swh:1:cnt:short t", 2,
        stderr=b"swhid: error at byte 10: object id must be 40 hex digits, got 5\n", fixture=small),
    row("verify-missing-path", f"verify {GPL3_ID} gone", 3,
        stderr=b"swhid: gone: no such file or directory\n"),
    row("verify-cnt-id-of-dir", f"verify {GPL3_ID} t", 2, stderr=b"swhid: t: expected a file\n",
        fixture=small),
    row("verify-missing-store", f"verify --objects gone {DIR_ID} t", 3,
        stderr=b"swhid: gone: no objects/ directory\n", fixture=small),
    row("verify-misnamed-store", f"verify --objects store {DIR_ID} proj", 3,
        stderr=b"swhid: objects/00/00000000000000000000000000000000000000:"
        b" bytes do not hash to the file name\n", fixture=one_object(b"blob 3\x00abc", "0" * 40)),
    row("verify-malformed-store", f"verify --objects store swh:1:dir:{MALFORMED_TREE_ID} proj", 3,
        stderr=f"swhid: tree {MALFORMED_TREE_ID}: malformed entry at byte 0\n".encode(),
        fixture=one_object(MALFORMED_TREE)),
    # resolve without an archive
    row("resolve", f"resolve {GPL3_ID}", 0,
        f"https://archive.softwareheritage.org/{GPL3_ID}\n".encode()),
    row("resolve-n2t", f"resolve --resolver n2t {GPL3_ID}", 0,
        f"https://n2t.net/{GPL3_ID}\n".encode()),
    row("resolve-identifiers-org", f"resolve --resolver identifiers-org {GPL3_ID}", 0,
        f"https://identifiers.org/{GPL3_ID}\n".encode()),
    row("resolve-archive-api", f"resolve --resolver archive-api {GPL3_ID}", 0,
        f"https://archive.softwareheritage.org/api/1/resolve/{GPL3_ID}/\n".encode()),
    row("resolve-resolver-x", f"resolve --resolver x {GPL3_ID}", 2, stderr=usage_error),
    row("resolve-bad-id", "resolve not-an-id", 2,
        stderr=b"swhid: error at byte 0: identifier must start with 'swh:'\n"),
    row("resolve-fetch-dir-id", f"resolve --fetch x {DIR_ID}", 2,
        stderr=b"swhid: --fetch needs a content identifier\n"),
    row("resolve-refused-port", f"resolve --check --endpoint http://127.0.0.1:1 {GPL3_ID}", 3,
        stderr=f"swhid: GET http://127.0.0.1:1/api/1/resolve/{GPL3_ID}/:"
        " [Errno 111] Connection refused\n".encode()),
    # resolve against the archive, with --check and --fetch
    row("resolve-check", f"resolve --check --endpoint ARCHIVE {PAYLOAD_ID}", 0,
        (URL + KNOWN).encode(), archive={}),
    row("resolve-check-json", f"resolve --check --json --endpoint ARCHIVE {PAYLOAD_ID}", 0,
        (FETCHED_JSON % "").encode(), archive={}),
    row("resolve-check-env", f"resolve --check {PAYLOAD_ID}", 0, (URL + KNOWN).encode(),
        archive={}, env={"SWHID_ARCHIVE_URL": "ARCHIVE"}),
    row("resolve-unknown", f"resolve --check --endpoint ARCHIVE {UNKNOWN_ID}", 3,
        stderr=f"swhid: ARCHIVE/api/1/resolve/{UNKNOWN_ID}/: not found in archive\n".encode(),
        archive={}),
    row("resolve-type-contradiction", f"resolve --check --endpoint ARCHIVE {PAYLOAD_ID}", 1,
        stderr=b"swhid: archive reports 'release', identifier says 'content'\n",
        archive={"resolve_body": b'{"object_type": "release", "object_id": "%s"}'
                 % PAYLOAD_ID[10:].encode()}),
    row("resolve-other-object-id", f"resolve --check --endpoint ARCHIVE {PAYLOAD_ID}", 1,
        stderr=f"swhid: archive reports object {'0' * 40}, expected {PAYLOAD_ID[10:]}\n".encode(),
        archive={"resolve_body": b'{"object_type": "content", "object_id": "%s"}' % (b"0" * 40)}),
    row("resolve-fetch", f"resolve --fetch fetched.bin --endpoint ARCHIVE {PAYLOAD_ID}", 0,
        URL.encode() + FETCHED, archive={}),
    row("resolve-check-fetch", FETCH, 0, (URL + KNOWN).encode() + FETCHED, archive={}),
    row("resolve-check-fetch-json", f"resolve --json {FETCH[8:]}", 0,
        (FETCHED_JSON % ',\n  "written": "fetched.bin",\n  "size": 12').encode()
        + LEFT, archive={}),
    row("resolve-fetch-unknown", FETCH.replace(PAYLOAD_ID, UNKNOWN_ID), 3,
        stderr=f"swhid: ARCHIVE/api/1/resolve/{UNKNOWN_ID}/: not found in archive\n".encode(),
        archive={}),
    row("resolve-fetch-corrupted", FETCH, 1,
        stderr=f"swhid: fetched bytes hash to {CORRUPTED_ID[10:]},"
        f" expected {PAYLOAD_ID[10:]}\n".encode(), archive={"corrupt_every": 1}),
    row("resolve-fetch-500s-then-ok", FETCH, 0, (URL + KNOWN).encode() + FETCHED,
        archive={"fail_resolve": 1, "fail_raw": 2}),
    row("resolve-fetch-redirect", FETCH.replace("ARCHIVE", "ARCHIVE/old"), 0,
        (URL + KNOWN).encode() + FETCHED, archive={"redirect_to": "ARCHIVE"}),
    row("resolve-fetch-short-body", FETCH, 3,
        stderr=(RESOLVE_GET + "IncompleteRead(181 bytes read, 10 more expected)\n").encode(),
        archive={"short_by": 10}),
    row("resolve-fetch-short-body-json", f"resolve --json {FETCH[8:]}", 3,
        stderr=(RESOLVE_GET + "IncompleteRead(181 bytes read, 10 more expected)\n").encode(),
        archive={"short_by": 10}),
    row("resolve-fetch-endless", FETCH, 3,
        stderr=(RESOLVE_GET + "body over 1048576 bytes\n").encode(), archive={"endless": True}),
    row("resolve-fetch-oversized-metadata", FETCH, 3,
        stderr=(RESOLVE_GET + "body over 1048576 bytes\n").encode(),
        archive={"resolve_body": b'{"object_type": "content", "object_id": "%s"}'
                 % PAYLOAD_ID[10:].encode() + b" " * (1 << 20)}),
    row("resolve-fetch-non-json", FETCH, 3, stderr=(RESOLVE_GET + "body is not JSON\n").encode(),
        archive={"resolve_body": b"<html>not json</html>"}),
    row("resolve-deeply-nested-json", f"resolve --check --endpoint ARCHIVE {PAYLOAD_ID}", 3,
        stderr=(RESOLVE_GET + "body is not JSON\n").encode(), archive={"resolve_body": b"[" * 100_000}),
    row("resolve-fetch-into-missing-dir",
        f"resolve --fetch no-such-dir/out.bin --endpoint ARCHIVE {PAYLOAD_ID}", 3,
        stderr=b"swhid: no-such-dir/out.bin: No such file or directory\n", archive={}),
    row("resolve-fetch-into-a-file", f"resolve --fetch a/out --endpoint ARCHIVE {PAYLOAD_ID}", 3,
        stderr=b"swhid: a/out: Not a directory\n", fixture=small, archive={}),
    row("resolve-http-proxy", FETCH.replace("ARCHIVE", "http://archive.invalid"), 0,
        (URL + KNOWN).encode() + FETCHED, archive={}, env={"http_proxy": "ARCHIVE"}),
    row("resolve-refused-connect", f"resolve --check --endpoint https://archive.invalid {PAYLOAD_ID}",
        3, stderr=f"swhid: GET https://archive.invalid/api/1/resolve/{PAYLOAD_ID}/:"
        " Tunnel connection failed: 403 Forbidden\n".encode(), archive={},
        env={"https_proxy": "ARCHIVE"}),
    # extract-lines
    row("extract-lines", f"extract-lines '{cnt(LINES)};lines=2-3' lines.txt", 0, b"bravo\ncharlie\n",
        fixture=small),
    row("extract-lines-one", f"extract-lines '{cnt(LINES)};lines=3' lines.txt", 0, b"charlie\n",
        fixture=small),
    row("extract-lines-binary", f"extract-lines '{cnt(BINARY)};lines=2' bin", 0, b"\xff\xfe\n",
        fixture=small),
    row("extract-lines-out-of-bounds", f"extract-lines '{cnt(LINES)};lines=5' lines.txt", 2,
        stderr=b"swhid: range starts at line 5 but content has 4 line(s)\n", fixture=small),
    row("extract-lines-no-verify", f"extract-lines --no-verify '{A_ID};lines=1' lines.txt", 0,
        b"alpha\n", fixture=small),
    row("extract-lines-mismatch-file", f"extract-lines '{cnt(ABC)};lines=2' lines.txt", 1,
        stderr=f"swhid: lines.txt hashes to {cnt(LINES)[10:]}, expected {cnt(ABC)[10:]}\n".encode(),
        fixture=small),
    row("extract-lines-mismatch", f"extract-lines '{cnt(ABC)};lines=2' /dev/stdin", 1,
        stderr=f"swhid: /dev/stdin hashes to {cnt(ABC.upper())[10:]},"
        f" expected {cnt(ABC)[10:]}\n".encode(), stdin=ABC.upper()),
    row("extract-lines-pipe", f"extract-lines '{cnt(ABC)};lines=2' /dev/stdin", 0, b"b\n",
        stdin=ABC),
    row("extract-lines-missing-path", f"extract-lines '{GPL3_ID};lines=1' gone", 3,
        stderr=b"swhid: gone: No such file or directory\n"),
    row("extract-lines-no-lines", f"extract-lines {GPL3_ID} license.txt", 2,
        stderr=b"swhid: identifier carries no lines qualifier\n", fixture=small),
    row("extract-lines-dir-id", f"extract-lines '{DIR_ID};lines=1' t", 2,
        stderr=b"swhid: extract-lines needs a content identifier\n", fixture=small),
    # no command, an unknown one, --version
    row("no-command", "", 2, stderr=usage_error),
    row("unknown-command", "frobnicate", 2, stderr=usage_error),
    row("unknown-option", "--frobnicate", 2, stderr=usage_error),
    row("version", "--version", 0, b"swhid, version 0.1.0\n"),
]
