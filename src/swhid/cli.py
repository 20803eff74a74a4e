"""Command line interface.

Exit codes are part of the contract: 0 success, 1 verification mismatch,
2 usage or syntax error, 3 I/O or network failure. A SwhidError raised by
any command ends in its class's exit_status (see swhid.errors), caught in
one place: the command group's invoke().
"""
from __future__ import annotations

import base64
import json as jsonlib
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NoReturn

import click

from . import __version__
from .errors import ExitStatus, SwhidError
from .ingest import ObjectStore, extract_lines, ingest_path, verify_path
from .model import Content, content_id
from .resolve import (
    ResolverKind,
    fetch_content_verified,
    resolve_metadata,
    resolver_url,
)
from .syntax import ObjectType, parse, validate


def _fail(code: ExitStatus, message: str) -> NoReturn:
    click.echo(f"swhid: {message}", err=True)
    sys.exit(code)


class _Group(click.Group):
    """Ends every command's SwhidError in that error's exit_status."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except SwhidError as exc:
            _fail(exc.exit_status, str(exc))


@click.group(
    cls=_Group, context_settings={"help_option_names": ["-h", "--help"]}
)
@click.version_option(version=__version__)
def main():
    """Intrinsic, verifiable identifiers for source code artifacts."""


@main.command()
@click.argument("paths", nargs=-1, required=True)
@click.option(
    "--type",
    "force_type",
    type=click.Choice(["cnt", "dir"]),
    default=None,
    help="Fail unless the computed identifier has this type.",
)
@click.option(
    "--exclude",
    "excludes",
    multiple=True,
    metavar="PATTERN",
    help="Skip entries matching this glob (name or relative path).",
)
@click.option(
    "--recursive",
    is_flag=True,
    help="Print an identifier for every node under each path.",
)
@click.option(
    "--jobs",
    type=click.IntRange(min=1),
    default=1,
    help="Accepted for compatibility; files are hashed in one thread.",
)
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON array.")
def identify(paths, force_type, excludes, recursive, jobs, as_json):
    """Compute identifiers for filesystem paths."""
    rows = []
    for path in paths:
        collected = [] if recursive else None
        swhid, _ = ingest_path(path, excludes, jobs=jobs, collect=collected)
        if force_type is not None and swhid.object_type.value != force_type:
            _fail(
                ExitStatus.USAGE,
                f"{path}: computed a {swhid.object_type.long_name}"
                f" identifier, but --type {force_type} was requested",
            )
        prefix = os.path.join(path, "")  # what os.path.join(path, rel) puts before rel
        rows.extend((prefix + r if r else path, i) for r, i in collected or [("", swhid)])
    if as_json:
        click.echo(_json_rows(rows))
    else:
        for p, s in rows:
            click.echo(f"{s}\t{p}")


def _path_b64(path: str) -> dict:
    """{"path_b64": base64 of its bytes} for a path that is not UTF-8, else {}."""
    try:
        path.encode("utf-8")
        return {}
    except UnicodeEncodeError:
        return {"path_b64": base64.b64encode(os.fsencode(path)).decode()}


def _json_rows(rows) -> str:
    """json.dumps(indent=2) of path/swhid dicts (plus _path_b64), at C speed."""
    out = []
    for path, swhid in rows:
        encoded = encode_basestring_ascii(path)
        if not path.isascii():  # the common ASCII path skips the UTF-8 check
            for key, value in _path_b64(path).items():
                encoded += ',\n    "%s": "%s"' % (key, value)
        out.append('  {\n    "path": %s,\n    "swhid": "%s"\n  }' % (encoded, swhid))
    return "[\n%s\n]" % ",\n".join(out) if out else "[]"


@main.command(name="parse")
@click.argument("identifier")
@click.option(
    "--permissive",
    is_flag=True,
    help="Tolerate unknown qualifier keys (warn and drop them).",
)
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON object.")
def parse_command(identifier, permissive, as_json):
    """Validate an identifier and print its parts."""
    diagnostics = validate(identifier, permissive)
    for diagnostic in diagnostics:
        click.echo(f"swhid: {diagnostic}", err=True)
    if any(not d.is_warning for d in diagnostics):
        sys.exit(ExitStatus.USAGE)
    value = parse(identifier, permissive)
    if as_json:
        click.echo(
            jsonlib.dumps(
                {
                    "canonical": str(value),
                    "schema_version": value.core.schema_version,
                    "object_type": value.object_type.long_name,
                    "object_id": value.object_id.hex,
                    "origin": value.origin,
                    "lines": str(value.lines) if value.lines else None,
                },
                indent=2,
            )
        )
    else:
        click.echo(f"canonical    {value}")
        click.echo(f"object type  {value.object_type.long_name}")
        click.echo(f"object id    {value.object_id.hex}")
        if value.origin is not None:
            click.echo(f"origin       {value.origin}")
        if value.lines is not None:
            click.echo(f"lines        {value.lines}")


@main.command()
@click.argument("identifier")
@click.argument("path")
@click.option(
    "--exclude",
    "excludes",
    multiple=True,
    metavar="PATTERN",
    help="Skip entries matching this glob (name or relative path).",
)
@click.option(
    "--objects",
    "objects_dir",
    type=click.Path(),
    default=None,
    help="Exported object store used to localize directory divergences.",
)
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON object.")
def verify(identifier, path, excludes, objects_dir, as_json):
    """Check that PATH still hashes to IDENTIFIER."""
    value = parse(identifier)
    reference = None if objects_dir is None else ObjectStore.load(objects_dir)
    report = verify_path(value, path, reference=reference, excludes=excludes)
    if as_json:
        click.echo(
            jsonlib.dumps(
                {
                    "expected": str(report.expected),
                    "actual": str(report.actual),
                    "matched": report.matched,
                    "detail": [
                        {
                            "path": d.path,
                            **_path_b64(d.path),
                            "expected": d.expected_hex,
                            "actual": d.actual_hex,
                            "note": d.note,
                        }
                        for d in report.detail
                    ],
                },
                indent=2,
            )
        )
    elif report.matched:
        click.echo(f"ok {report.expected}")
    else:
        click.echo(f"mismatch: expected {report.expected}")
        click.echo(f"          computed {report.actual}")
        for d in report.detail:
            where = d.path or "."
            click.echo(
                f"  {where}: {d.note}"
                f" (expected {d.expected_hex or '-'},"
                f" found {d.actual_hex or '-'})"
            )
    sys.exit(ExitStatus.OK if report.matched else ExitStatus.MISMATCH)


@main.command()
@click.argument("identifier")
@click.option(
    "--resolver",
    type=click.Choice([k.value for k in ResolverKind]),
    default=ResolverKind.ARCHIVE_WEB.value,
    show_default=True,
    help="Which resolver to build a URL for.",
)
@click.option(
    "--check",
    is_flag=True,
    help="Ask the archive whether it knows the object.",
)
@click.option(
    "--fetch",
    "fetch_to",
    type=click.Path(),
    default=None,
    metavar="FILE",
    help="Download a content object into FILE (verified first).",
)
@click.option(
    "--endpoint",
    envvar="SWHID_ARCHIVE_URL",
    default=None,
    metavar="URL",
    help="Archive API base URL [env: SWHID_ARCHIVE_URL].",
)
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON object.")
def resolve(identifier, resolver, check, fetch_to, endpoint, as_json):
    """Build a resolver URL, optionally checking the archive."""
    value = parse(identifier)
    if fetch_to is not None and value.object_type is not ObjectType.CONTENT:
        _fail(ExitStatus.USAGE, "--fetch needs a content identifier")
    url = resolver_url(value, ResolverKind(resolver))
    info: dict = {"url": url}
    if check:
        metadata = resolve_metadata(value.core, endpoint)
        info["known"] = True
        info["type_confirmed"] = metadata.object_type_confirmed
        if metadata.browse_url:
            info["browse_url"] = metadata.browse_url
    if fetch_to is not None:
        data = fetch_content_verified(value.core, endpoint)
        try:
            Path(fetch_to).write_bytes(data)
        except OSError as exc:
            _fail(ExitStatus.IO_ERROR, f"{fetch_to}: {exc.strerror or exc}")
        info["written"] = fetch_to
        info["size"] = len(data)
    if as_json:
        click.echo(jsonlib.dumps(info, indent=2))
    else:
        click.echo(url)
        if check:
            suffix = (
                " (type confirmed)" if info["type_confirmed"] else ""
            )
            click.echo(f"known to archive{suffix}")
        if fetch_to is not None:
            click.echo(f"wrote {info['size']} verified bytes to {fetch_to}")


@main.command(name="extract-lines")
@click.argument("identifier")
@click.argument("path")
@click.option(
    "--no-verify",
    is_flag=True,
    help="Skip checking the file against the identifier.",
)
def extract_lines_command(identifier, path, no_verify):
    """Write the line range a qualified identifier selects from PATH."""
    value = parse(identifier)
    if value.object_type is not ObjectType.CONTENT:
        _fail(ExitStatus.USAGE, "extract-lines needs a content identifier")
    if value.lines is None:
        _fail(ExitStatus.USAGE, "identifier carries no lines qualifier")
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        _fail(ExitStatus.IO_ERROR, f"{path}: {exc.strerror or exc}")
    if not no_verify:
        actual = content_id(Content(data))
        if actual != value.object_id:
            _fail(
                ExitStatus.MISMATCH,
                f"{path} hashes to {actual.hex},"
                f" identifier says {value.object_id.hex}",
            )
    click.echo(extract_lines(data, value.lines), nl=False)


if __name__ == "__main__":
    main()
