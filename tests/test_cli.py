import base64
import errno
import functools
import importlib.metadata
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import contract
import pytest
from builders import write_tree
from clirunner import CliRunner
from hypothesis import given, settings, strategies as st

import swhid
import swhid.cli
import swhid.errors as errors
import swhid.resolve
import swhid.syntax
from swhid.cli import ExitStatus, main
from swhid.ingest import ingest_path
from swhid.model import Content, swhid_of

from mockarchive import TLS_CERT, MockArchive

GPL3_ID = contract.GPL3_ID
SRC = Path(swhid.__file__).resolve().parents[1]


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


# --- the contract table (tests/contract.py) ---------------------------------------------


def _no_backoff(monkeypatch):
    for name in ("resolve_metadata", "fetch_content_verified"):
        call = getattr(swhid.resolve, name)
        no_wait = functools.partial(call, sleep=lambda _: None)
        monkeypatch.setattr(swhid.resolve, name, no_wait)


def _check(row, root, endpoint, execute):
    code, stdout, stderr = contract.run(row, root, endpoint, execute)
    assert code == row.code, stderr
    for data, expected in ((stdout, row.stdout), (stderr, row.stderr)):
        if callable(expected):
            assert expected(data, root), f"{expected.__name__}: {data!r}"
        else:
            assert data == contract.substitute(expected, root, endpoint)


def _child(root):
    return functools.partial(contract.child, SRC, cwd=root)


@pytest.mark.parametrize("row", contract.ROWS, ids=lambda row: row.id)
def test_contract_row(row, tmp_path, monkeypatch, request):
    endpoint = None
    if row.archive is not None:
        archive = request.getfixturevalue("archive")
        contract.serve(archive, row.archive, {})
        endpoint = archive.endpoint
    if row.fixture is not None:
        row.fixture(tmp_path)
    if row.in_child:
        execute = _child(tmp_path)
    else:
        monkeypatch.chdir(tmp_path)
        _no_backoff(monkeypatch)

        def execute(argv, env, stdin):
            result = CliRunner().invoke(main, argv, env=env)
            if not isinstance(result.exception, (SystemExit, type(None))):
                raise result.exception
            return result.exit_code, result.stdout_bytes, result.stderr_bytes

    _check(row, tmp_path, endpoint, execute)


# Argv forms that a real process parses: no command, unknown ones, --version,
# paths around options and "--", and the line number past int()'s digit limit.
ARGV_FORMS = {
    "no-command", "unknown-command", "unknown-option", "version", "identify-no-path",
    "identify-jobs-0", "identify-jobs-x", "identify-abbreviated", "identify-type-x",
    "resolve-resolver-x", "identify-paths-after-options", "identify-paths-after-dashes",
    "identify-dash-path", "identify-dash-path-last", "identify-dashes-after-paths",
    "identify-jobs-2", "parse-huge-line-number",
}


@pytest.mark.parametrize(
    "row", [row for row in contract.ROWS if row.id in ARGV_FORMS], ids=lambda row: row.id
)
def test_contract_row_in_a_child(row, tmp_path):
    if row.fixture is not None:
        row.fixture(tmp_path)
    _check(row, tmp_path, None, _child(tmp_path))


def test_contract_has_rows_of_every_command_and_exit_code():
    commands = swhid.cli._parser()._subparsers._group_actions[0].choices
    first = {row.argv[0] if row.argv else "" for row in contract.ROWS}
    assert first >= {*commands, "", "frobnicate", "--version"}
    readme = (SRC.parent / "README.md").read_text()
    table = readme.split("Exit codes are part of the contract:", 1)[1].split("\n\n")[1]
    codes = {int(code) for code in re.findall(r"^\| (\d+) ", table, re.MULTILINE)}
    assert codes == {0, 1, 2, 3}
    assert codes <= {row.code for row in contract.ROWS}
    assert len({row.id for row in contract.ROWS}) == len(contract.ROWS)
    assert ARGV_FORMS <= {row.id for row in contract.ROWS}


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
        assert result.stdout_bytes == contract.identify_reference(
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


def _cli_child(args, python=("-m", "swhid.cli"), text=True, stdout=subprocess.PIPE, **env):
    """Run python [python] args; no *_proxy variables but env's."""
    return subprocess.run(
        [sys.executable, *python, *args],
        env=dict(contract.child_env(SRC), **env),
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
    return _cli_child(args, python=("-c", contract.WITHOUT_BACKOFF), **env)


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


@pytest.mark.parametrize(
    "raised, code, stderr",
    [
        (KeyboardInterrupt(), 1, "swhid: interrupted\n"),
        (errors.SchemaError("injected"), 2, "swhid: $: injected\n"),
    ],
    ids=["interrupt", "schema-error"],
)
def test_walk_errors_exit_without_traceback(runner, tmp_path, monkeypatch, raised, code, stderr):
    def broken(*args, **kwargs):
        raise raised

    monkeypatch.setattr("swhid.ingest._walk", broken)
    result = runner.invoke(main, ["identify", str(tmp_path)])
    assert (result.exit_code, result.stdout, result.stderr) == (code, "", stderr)
    assert isinstance(result.exception, SystemExit)


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
# Real children, so that stream handling is pinned as an installed swhid runs it.


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
