"""Compare this checkout's CLI children and description realization with another revision's.

    python tests/differential.py --rev REV [--seeds 1,2]

--rev extracts src/swhid at REV with `git archive` into a temporary
directory. Each identify, verify and resolve case runs one CLI child with
PYTHONPATH set to each side's src, and compares exit code, stdout bytes and
stderr.

identify: the inputs are perfbench's seeded tree-many-small trees, one per
seed (--seeds "" for none), and a small tree with names that are not UTF-8
or that JSON escapes. The cases cover text and --json, --recursive,
--exclude '*.tmp', two paths, file and symlink roots, and a last path that
is missing or of the wrong --type.

verify: `verify [--json] --exclude '*.tmp'` of each of those trees and of a
changed copy (perfbench's seeded edits on a hard-link copy, or one edited
file in a copy of the small tree), with no reference, with --objects of a
full export (ingest_path, then ObjectStore.save) and with --objects of an
export of its trees alone. The identifier and both exports come from this
checkout.

resolve: `resolve --check --fetch FILE [--json]` against one MockArchive
(tests/mockarchive.py) that is ok, lacks the id, corrupts it, fails with
500s first, redirects, cuts the body short, serves oversized or non-JSON
metadata, or serves as the http proxy, or refuses the CONNECT of an https
one. The sides run one after the other, each on the same archive state,
and the fetched file's bytes are compared too. Backoff waits are skipped
in both children: they are no output.

documents: in this process, with the --rev side's package imported as
swhid_parent, realize_descriptions(describe_nodes(document)) of builders.BUILT,
of each seed's perfbench history document, and of mutated copies of them
(builders.mutate, seeded by their number): 1 000 of BUILT and 50 of each
history document. The outcome is each id's text, or the exception's class
name and text, location included.

The script prints how many cases it compared per surface and the first
differences, and exits 1 if there is any.
"""
from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))  # for the mock archive's ids and the exports
import gen  # noqa: E402
import swhid  # noqa: E402
from builders import BUILT, MUTATIONS, doc, mutate, trees_only, write_tree  # noqa: E402
from mockarchive import MockArchive  # noqa: E402
from swhid.ingest import ingest_path  # noqa: E402

Outcome = Tuple[int, bytes, bytes]
EXCLUDE = ["--exclude", "*.tmp"]
FETCHED = "fetched.bin"
# The archive settings the resolve cases change, restored before each child.
SETTINGS = ("corrupt_every", "fail_raw", "fail_resolve", "redirect_to", "resolve_body", "short_by")
WITHOUT_BACKOFF = "import time; time.sleep = lambda s: None\nfrom swhid.cli import main\nmain()"


def extract(rev: str, into: Path) -> Path:
    """The src directory of src/swhid at rev, extracted into into."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/swhid"],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # The filter keyword exists from Python 3.10.12 and 3.11.4 on.
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(into, **safe)
    return into / "src"


# A small tree of names that are not UTF-8 or need JSON escapes; its flags add *.tmp junk.
ODD_NAMES = ("dir", {
    b"caf\xe9.txt": ("file", b"latin-1 name\n", False),
    b"\xff\xfe": ("file", b"", False),
    b'quote"d': ("file", b"q\n", False),
    b"back\\slash": ("file", b"b\n", False),
    b"tab\there": ("file", b"t\n", False),
    b"new\nline": ("file", b"n\n", False),
    "snow ☃ café".encode(): ("file", b"s\n", False),
    b"d\xe9": ("dir", {
        b"inner.txt": ("file", b"inner\n", False),
        b"run.sh": ("file", b"#!/bin/sh\n", True),
        b"up": ("link", b"../\xff\xfe"),
    }, True),
    b"nested": ("dir", {b"a": ("dir", {b"b": ("dir", {
        b"c d": ("file", b"deep\n", False),
    }, False)}, False)}, False),
    b"link\xe9": ("link", b"caf\xe9.txt"),
    b"dangling": ("link", b"nowhere"),
}, True)


def cases(root: str, file: str, link: str) -> Iterator[List[str]]:
    """identify's arguments for one tree, given one of its files and symlinks."""
    missing = os.path.join(root, "missing")
    yield [root]
    yield ["--json", root]
    yield ["--recursive", root]
    yield ["--recursive", *EXCLUDE, root]
    yield ["--recursive", "--json", *EXCLUDE, root]
    yield ["--recursive", *EXCLUDE, root, file]
    yield ["--recursive", "--json", *EXCLUDE, file, root]
    yield ["--recursive", "--json", link]
    yield [file, link]
    yield ["--recursive", *EXCLUDE, root, missing]
    yield ["--recursive", "--json", *EXCLUDE, root, missing]
    yield ["--type", "dir", "--recursive", *EXCLUDE, root, file]
    yield ["--type", "cnt", "--json", file, root]


def child_env(src: Path) -> dict:
    """The environment of a child of src: PYTHONPATH set, and no *_proxy variables."""
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    return dict(env, PYTHONPATH=str(src))


def verify_cases(work_dir: Path, name: str, changed: str) -> List[List[str]]:
    """verify's arguments for the tree name and its changed copy, after writing both exports."""
    root_id, store = ingest_path(work_dir / name, ("*.tmp",))
    store.save(work_dir / f"{name}.full")
    trees_only(store, work_dir / f"{name}.trees")
    references = ([], ["--objects", f"{name}.full"], ["--objects", f"{name}.trees"])
    return [
        ["verify", *as_json, *EXCLUDE, *objects, str(root_id), path]
        for path in (name, changed)
        for objects in references
        for as_json in ([], ["--json"])
    ]


def run(src: Path, args: Sequence[str], cwd: Path) -> Outcome:
    env = child_env(src)
    child = subprocess.run(
        [sys.executable, "-m", "swhid.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=300,
    )
    return child.returncode, child.stdout, child.stderr


def resolve_cases(archive: MockArchive) -> Iterator[Tuple[str, List[str], dict, dict]]:
    """(name, resolve's arguments, *_proxy variables, archive settings) of each resolve case."""
    known = str(archive.add_content(b"the payload\n"))
    unknown = "swh:1:cnt:" + "0" * 40
    payload = json.dumps(archive.metadata[known]).encode()
    base = archive.endpoint
    fetch = ["--check", "--fetch", FETCHED, "--endpoint", base]
    yield "ok", [*fetch, known], {}, {}
    yield "ok --json", ["--json", *fetch, known], {}, {}
    yield "unknown", [*fetch, unknown], {}, {}
    yield "corrupted", [*fetch, known], {}, {"corrupt_every": 1}
    yield "500s then ok", [*fetch, known], {}, {"fail_resolve": 1, "fail_raw": 2}
    yield "redirect", [*fetch[:-1], base + "/old", known], {}, {"redirect_to": base}
    yield "short body", [*fetch, known], {}, {"short_by": 10}
    yield "short body --json", ["--json", *fetch, known], {}, {"short_by": 10}
    oversized = payload + b" " * (1 << 20)
    yield "oversized metadata", [*fetch, known], {}, {"resolve_body": oversized}
    yield "non-JSON metadata", [*fetch, known], {}, {"resolve_body": b"<html>not json</html>"}
    proxied = [*fetch[:-1], "http://archive.invalid", known]
    yield "http proxy", proxied, {"http_proxy": base}, {}
    tunnelled = ["--check", "--endpoint", "https://archive.invalid", known]
    yield "refused CONNECT", tunnelled, {"https_proxy": base}, {}


def run_resolve(src: Path, args: Sequence[str], proxies: dict, cwd: Path) -> Outcome:
    """One resolve child's outcome, with the fetched file's bytes appended to its stdout."""
    child = subprocess.run(
        [sys.executable, "-c", WITHOUT_BACKOFF, "resolve", *args],
        cwd=cwd,
        env=dict(child_env(src), **proxies),
        capture_output=True,
        timeout=300,
    )
    fetched = cwd / FETCHED
    stdout = child.stdout
    if fetched.exists():
        stdout += b"\n--- " + FETCHED.encode() + b" ---\n" + fetched.read_bytes()
        fetched.unlink()
    return child.returncode, stdout, child.stderr


def _first_difference(name: str, ours: bytes, theirs: bytes) -> str:
    at = next((i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b), None)
    if at is None:
        at = min(len(ours), len(theirs))
    window = slice(max(0, at - 40), at + 40)
    return (
        f"  {name} differs at byte {at} (lengths {len(theirs)} / {len(ours)}):\n"
        f"    parent: {theirs[window]!r}\n    this:   {ours[window]!r}"
    )


def _differences(label: str, ours: Outcome, theirs: Outcome) -> List[str]:
    if ours == theirs:
        return []
    lines = [f"{label}:"]
    if ours[0] != theirs[0]:
        lines.append(f"  exit code: parent {theirs[0]}, this {ours[0]}")
    for name, i in (("stdout", 1), ("stderr", 2)):
        if ours[i] != theirs[i]:
            lines.append(_first_difference(name, ours[i], theirs[i]))
    return ["\n".join(lines)]


def compare_resolve(
    parent_src: Path, cwd: Path, modes: Optional[Sequence[str]] = None
) -> List[Tuple[str, Outcome, Outcome]]:
    """(label, this side's outcome, the parent's) of the resolve cases named (all by default)."""
    cwd.mkdir()
    archive = MockArchive()
    defaults = {name: getattr(archive, name) for name in SETTINGS}
    results = []
    try:
        for name, args, proxies, state in resolve_cases(archive):
            if modes is not None and name not in modes:
                continue
            outcomes = []
            for src in (parent_src, ROOT / "src"):
                for key, value in {**defaults, **state}.items():
                    setattr(archive, key, value)
                outcomes.append(run_resolve(src, args, proxies, cwd))
            results.append((f"resolve {name}", outcomes[1], outcomes[0]))
    finally:
        archive.close()
    return results


def import_parent(src: Path):
    """The swhid package under src, imported afresh in this process as swhid_parent."""
    for name in [name for name in sys.modules if name.split(".")[0] == "swhid_parent"]:
        del sys.modules[name]
    package = src / "swhid"
    spec = importlib.util.spec_from_file_location(
        "swhid_parent", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["swhid_parent"] = module
    spec.loader.exec_module(module)
    return module


def documents(seeds: Sequence[int]) -> Iterator[Tuple[str, bytes]]:
    """(name, document) of BUILT, of each seed's history document, and of their mutated copies."""
    bases = [("built", list(BUILT), 1000)]  # each with how many mutated copies to compare
    bases += [(f"history {seed}", json.loads(gen.history(seed).newest_first), 50) for seed in seeds]
    for name, entries, copies in bases:
        yield name, doc(*entries)
        for number in range(copies):
            mutation = MUTATIONS[number % len(MUTATIONS)]
            mutated = mutate(entries, mutation, random.Random(number))
            yield f"{name}, {mutation} {number}", doc(*mutated)


def realized(package, document: bytes):
    """The text of each id package realizes document to, or its exception's class name and text."""
    try:
        return [str(s) for s, _ in package.realize_descriptions(package.describe_nodes(document))]
    except Exception as exc:  # a crash is an outcome to compare too
        return type(exc).__name__, str(exc)


def compare_documents(parent_src: Path, seeds: Sequence[int]) -> Tuple[int, List[str]]:
    """(documents compared, a description of each difference) against parent_src's package."""
    parent = import_parent(parent_src)
    compared, differences = 0, []
    for name, document in documents(seeds):
        ours, theirs = realized(swhid, document), realized(parent, document)
        compared += 1
        if ours != theirs:
            lines = f"documents {name}:\n  parent: {theirs!r:.300}\n  this:   {ours!r:.300}"
            differences.append(lines)
    return compared, differences


def compare(
    parent_src: Path, seeds: Sequence[int], modes: Optional[Sequence[str]] = None
) -> Tuple[Dict[str, int], List[str]]:
    """({surface: cases compared}, a description of each difference) against parent_src.

    modes names the resolve cases to run; all of them by default.
    """
    ours_src = ROOT / "src"
    differences: List[str] = []
    counts = {"identify": 0, "verify": 0, "resolve": 0, "documents": 0}
    with tempfile.TemporaryDirectory() as work, ThreadPoolExecutor(3) as pool:
        work_dir = Path(work)
        # One thread runs the resolve cases in turn, while two run the other sides.
        resolved = pool.submit(compare_resolve, parent_src, work_dir / "resolve", modes)
        write_tree(os.fsencode(work_dir / "odd"), ODD_NAMES)
        shutil.copytree(work_dir / "odd", work_dir / "odd-changed", symlinks=True)
        (work_dir / "odd-changed" / os.fsdecode(b"d\xe9/inner.txt")).write_bytes(b"edited\n")
        trees = [("odd", os.fsdecode(b"odd/caf\xe9.txt"), os.fsdecode(b"odd/link\xe9"))]
        for seed in seeds:
            name = f"seed{seed}"
            tree = gen.many_small_tree(seed, work_dir / name)
            gen.mutate(gen.link_copy(tree, work_dir / f"{name}-changed"), seed)
            trees.append((name, f"{name}/{tree.files[0]}", f"{name}/{tree.links[0]}"))
        children = []
        for name, file, link in trees:
            children += [("identify", ["identify", *args]) for args in cases(name, file, link)]
            children += [("verify", args) for args in verify_cases(work_dir, name, f"{name}-changed")]
        for surface, args in children:
            theirs, ours = pool.map(run, (parent_src, ours_src), [args] * 2, [work_dir] * 2)
            counts[surface] += 1
            differences += _differences(f"{surface} {' '.join(args[1:])!r}", ours, theirs)
        counts["documents"], found = compare_documents(parent_src, seeds)
        differences += found
        for label, ours, theirs in resolved.result():
            counts["resolve"] += 1
            differences += _differences(label, ours, theirs)
    return counts, differences


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="the git revision to compare with")
    parser.add_argument("--seeds", default="1", help="comma-separated tree seeds (default: 1)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    with tempfile.TemporaryDirectory() as scratch:
        counts, differences = compare(extract(args.rev, Path(scratch)), seeds)
    compared = ", ".join(f"{n} {surface}" for surface, n in counts.items())
    print(f"cases compared: {compared}; {len(differences)} differences")
    for difference in differences[:5]:
        print(difference)
    return 1 if differences or not all(counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
