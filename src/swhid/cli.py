"""Command line interface.

Exit codes are part of the contract: 0 success, 1 verification mismatch,
2 usage or syntax error, 3 I/O or network failure. argparse ends a usage
error in 2. Every other failure is a SwhidError, which main() alone prints
and ends in its class's exit_status (see swhid.errors). A command returns
a status only for a result: verify's mismatch, or parse's diagnostics.

Each command imports the modules it needs when it runs, so a child that
parses one identifier does not load the filesystem or network layers.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn, Optional, Sequence, Union

from . import __version__
from .errors import ExitStatus, IngestError, IntegrityMismatchError, SwhidError, TypeMismatchError
from .syntax import SCHEMA_VERSION, ObjectType, _scan, parse

# The values of swhid.resolve.ResolverKind, which the parser lists without importing it.
_RESOLVERS = ("archive-web", "archive-api", "identifiers-org", "n2t")


def _write(data: Union[str, bytes, bytearray]) -> None:
    """Write all of data to stdout, and flush it; text is encoded by os.fsencode.

    That is the filesystem encoding with errors="surrogateescape", the
    inverse of how names were read, so a name that is not UTF-8 comes out
    as its own bytes whatever errors setting stdout has. What a raw or
    non-blocking stdout does not take at once goes when select says it can.
    """
    out = sys.stdout.buffer
    view = memoryview(os.fsencode(data) if isinstance(data, str) else data)
    while True:
        try:
            view = view[out.write(view) or 0 :]
            if not view:
                return out.flush()
        except BlockingIOError as exc:
            view = view[exc.characters_written :]
        import select

        select.select((), (out,), ())


def _write_json(value) -> None:
    import json

    _write(json.dumps(value, indent=2) + "\n")


def identify(args: argparse.Namespace) -> None:
    """Compute identifiers for filesystem paths."""
    from .ingest import _walk

    # Only each row's bytes (encoded as _write encodes text) are kept, and one write
    # at the end sends them, so an error leaves stdout empty. --jobs changes nothing.
    encoding, errors = sys.getfilesystemencoding(), sys.getfilesystemencodeerrors()
    out = bytearray(b"[\n" if args.as_json else b"")
    if args.as_json:
        from json.encoder import encode_basestring_ascii

    def row(node: tuple) -> None:  # reads path and prefix as the loop below sets them
        rel, object_type, raw = node
        name = prefix + rel if rel else path
        swhid = f"swh:{SCHEMA_VERSION}:{object_type.value}:{raw.hex()}"
        if args.as_json:  # json.dumps(indent=2) of its dict, plus _path_b64, at C speed
            encoded = encode_basestring_ascii(name)
            if not name.isascii():  # the common ASCII path skips the UTF-8 check
                encoded += "".join(',\n    "%s": "%s"' % kv for kv in _path_b64(name).items())
            text = '  {\n    "path": %s,\n    "swhid": "%s"\n  },\n' % (encoded, swhid)
        else:
            text = f"{swhid}\t{name}\n"
        out.extend(text.encode(encoding, errors))

    for path in args.paths:
        prefix = os.path.join(path, "")  # what os.path.join(path, rel) puts before rel
        object_type, raw = _walk(path, args.excludes, rows=row if args.recursive else None)
        if args.force_type is not None and object_type.value != args.force_type:
            raise TypeMismatchError(
                f"{path}: computed a {object_type.long_name}"
                f" identifier, but --type {args.force_type} was requested"
            )
        if not args.recursive:
            row(("", object_type, raw))
    if args.as_json:
        out[-2:] = b"\n]\n"  # in place of the last row's ",\n"; each path gives a row
    _write(out)


def _path_b64(path: str) -> dict:
    """{"path_b64": base64 of its bytes} for a path that is not UTF-8, else {}."""
    try:
        path.encode("utf-8")
        return {}
    except UnicodeEncodeError:
        import base64

        return {"path_b64": base64.b64encode(os.fsencode(path)).decode()}


def parse_command(args: argparse.Namespace) -> Optional[ExitStatus]:
    """Validate an identifier and print its parts."""
    value, diagnostics = _scan(args.identifier, args.permissive, True)
    for diagnostic in diagnostics:
        print(f"swhid: {diagnostic}", file=sys.stderr)
    if value is None:  # an error among the diagnostics
        return ExitStatus.USAGE
    if args.as_json:
        fields = {
            "canonical": str(value),
            "schema_version": value.core.schema_version,
            "object_type": value.object_type.long_name,
            "object_id": value.object_id.hex,
            "origin": value.origin,
            "lines": str(value.lines) if value.lines else None,
        }
        _write_json(fields)
        return None
    lines = [
        f"canonical    {value}",
        f"object type  {value.object_type.long_name}",
        f"object id    {value.object_id.hex}",
    ]
    if value.origin is not None:
        lines.append(f"origin       {value.origin}")
    if value.lines is not None:
        lines.append(f"lines        {value.lines}")
    _write("".join(line + "\n" for line in lines))
    return None


def verify(args: argparse.Namespace) -> ExitStatus:
    """Check that PATH still hashes to IDENTIFIER."""
    from .ingest import ObjectStore, verify_path

    value = parse(args.identifier)
    reference = None if args.objects_dir is None else ObjectStore.load(args.objects_dir)
    report = verify_path(value, args.path, reference=reference, excludes=args.excludes)
    if args.as_json:
        fields = {
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
        }
        _write_json(fields)
    elif report.matched:
        _write(f"ok {report.expected}\n")
    else:
        _write(
            f"mismatch: expected {report.expected}\n"
            f"          computed {report.actual}\n"
            + "".join(
                f"  {d.path or '.'}: {d.note}"
                f" (expected {d.expected_hex or '-'}, found {d.actual_hex or '-'})\n"
                for d in report.detail
            )
        )
    return ExitStatus.OK if report.matched else ExitStatus.MISMATCH


def resolve(args: argparse.Namespace) -> None:
    """Build a resolver URL, optionally checking the archive."""
    from .resolve import ResolverKind, fetch_content_verified, resolve_metadata, resolver_url

    value = parse(args.identifier)
    fetch_to = args.fetch_to
    if fetch_to is not None and value.object_type is not ObjectType.CONTENT:
        raise SwhidError("--fetch needs a content identifier")
    endpoint = os.environ.get("SWHID_ARCHIVE_URL") if args.endpoint is None else args.endpoint
    url = resolver_url(value, ResolverKind(args.resolver))
    info: dict = {"url": url}
    if args.check:
        metadata = resolve_metadata(value.core, endpoint)
        info["known"] = True
        info["type_confirmed"] = metadata.object_type_confirmed
        if metadata.browse_url:
            info["browse_url"] = metadata.browse_url
    if fetch_to is not None:
        from pathlib import Path

        from ._atomic import write_atomically

        data = fetch_content_verified(value.core, endpoint)
        try:
            write_atomically(Path(fetch_to), lambda write: write(data))
        except OSError as exc:
            raise IngestError(f"{fetch_to}: {exc.strerror or exc}") from exc
        info["written"] = fetch_to
        info["size"] = len(data)
    if args.as_json:
        _write_json(info)
        return
    lines = [url]
    if args.check:
        lines.append("known to archive" + (" (type confirmed)" if info["type_confirmed"] else ""))
    if fetch_to is not None:
        lines.append(f"wrote {info['size']} verified bytes to {fetch_to}")
    _write("".join(line + "\n" for line in lines))


def extract_lines_command(args: argparse.Namespace) -> None:
    """Write the line range a qualified identifier selects from PATH."""
    from pathlib import Path

    from .ingest import _unreadable, extract_lines
    from .model import Content, content_id

    value = parse(args.identifier)
    if value.object_type is not ObjectType.CONTENT:
        raise TypeMismatchError("extract-lines needs a content identifier")
    if value.lines is None:
        raise SwhidError("identifier carries no lines qualifier")
    try:
        data = Path(args.path).read_bytes()
    except OSError as exc:
        raise _unreadable(args.path, exc) from exc
    if not args.no_verify:
        actual = content_id(Content(data))
        if actual != value.object_id:
            raise IntegrityMismatchError(value.object_id.hex, actual.hex, f"{args.path} hashes to")
    _write(extract_lines(data, value.lines))


class _Commands(argparse._SubParsersAction):
    """Parses a command's arguments; identify's paths may follow options.

    argparse gives a variadic positional only its first run of arguments
    and returns the later ones as extras, in order and with any "--" kept;
    here they join identify's paths (identify A --json B). The standard
    library's parse_intermixed_args would do the same, but drops a "--"
    that no positional argument precedes.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        name, *rest = values
        command = self.choices[name]
        _, extras = command.parse_known_args(rest, namespace)
        if not extras:
            return
        cut = extras.index("--") if "--" in extras else len(extras)
        if name != "identify" or any(a.startswith("-") and a != "-" for a in extras[:cut]):
            command.error("unrecognized arguments: " + " ".join(extras))
        namespace.paths += extras[:cut] + extras[cut + 1 :]


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a whole number of at least 1")
    return jobs


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swhid",
        description="Intrinsic, verifiable identifiers for source code artifacts.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(
        title="Commands", metavar="COMMAND", required=True, action=_Commands
    )

    def command(name, run, *positionals, json_help=None):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run)
        for metavar in positionals:
            sub.add_argument(metavar.lower(), metavar=metavar)
        if json_help is not None:
            sub.add_argument("--json", dest="as_json", action="store_true", help=json_help)
        return sub

    def excludes(sub):
        sub.add_argument(
            "--exclude",
            dest="excludes",
            action="append",
            default=[],
            metavar="PATTERN",
            help="Skip entries matching this glob (name or relative path).",
        )

    sub = command("identify", identify, json_help="Emit a JSON array.")
    sub.add_argument("paths", nargs="+", metavar="PATH")
    sub.add_argument(
        "--type",
        dest="force_type",
        choices=["cnt", "dir"],
        help="Fail unless the computed identifier has this type.",
    )
    excludes(sub)
    sub.add_argument(
        "--recursive",
        action="store_true",
        help="Print an identifier for every node under each path.",
    )
    sub.add_argument(
        "--jobs",
        type=_jobs,
        default=1,
        help="Accepted for compatibility; files are hashed in one thread.",
    )

    sub = command("parse", parse_command, "IDENTIFIER", json_help="Emit a JSON object.")
    sub.add_argument(
        "--permissive",
        action="store_true",
        help="Tolerate unknown qualifier keys (warn and drop them).",
    )

    sub = command("verify", verify, "IDENTIFIER", "PATH", json_help="Emit a JSON object.")
    excludes(sub)
    sub.add_argument(
        "--objects",
        dest="objects_dir",
        metavar="DIR",
        help="Exported object store used to localize directory divergences.",
    )

    sub = command("resolve", resolve, "IDENTIFIER", json_help="Emit a JSON object.")
    sub.add_argument(
        "--resolver",
        choices=_RESOLVERS,
        default=_RESOLVERS[0],
        help="Which resolver to build a URL for (default: %(default)s).",
    )
    sub.add_argument(
        "--check",
        action="store_true",
        help="Ask the archive whether it knows the object.",
    )
    sub.add_argument(
        "--fetch",
        dest="fetch_to",
        metavar="FILE",
        help="Download a content object into FILE (verified first).",
    )
    sub.add_argument(
        "--endpoint",
        metavar="URL",
        help="Archive API base URL (default: $SWHID_ARCHIVE_URL, else the public archive).",
    )

    sub = command("extract-lines", extract_lines_command, "IDENTIFIER", "PATH")
    sub.add_argument(
        "--no-verify",
        action="store_true",
        help="Skip checking the file against the identifier.",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> NoReturn:
    """Run the command line on argv (default sys.argv[1:]) and exit with its status."""
    args = _parser().parse_args(argv)
    try:
        status = args.run(args)  # each write is flushed
    except SwhidError as exc:
        print(f"swhid: {exc}", file=sys.stderr)
        sys.exit(exc.exit_status)
    except BrokenPipeError:
        # The reader closed stdout (| head): exit 1 without a word, and let
        # the interpreter's last flush of stdout go to /dev/null.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        print("swhid: interrupted", file=sys.stderr)
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    main()
