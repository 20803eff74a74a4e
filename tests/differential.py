"""Compare this checkout's CLI children, realization and syntax with another revision's.

    python tests/differential.py --rev REV [--seeds 1,2]

--rev extracts src/swhid at REV with `git archive` into a temporary
directory. Each CLI case runs one child per side, with PYTHONPATH set to
that side's src, and the two are compared by exit code, stdout bytes and
stderr.

contract: every row of tests/contract.py. A row runs in a directory of its
own, which its fixture fills once for both sides; a file the command leaves
there is compared too, and removed between the sides. Rows with archive
settings run one after the other against one MockArchive
(tests/mockarchive.py), set up afresh for each child. The rows over
builders.ODD_NAMES run again over perfbench's seeded tree-many-small tree
of each seed (--seeds "" for none), into which the two entries those rows
name are added.

verify: `verify [--json] --exclude '*.tmp'` of the ODD_NAMES tree and of
each seeded tree, and of a changed copy of each (perfbench's seeded edits
on a hard-link copy, or one edited file in a copy of the small tree), with
no reference, with --objects of a full export (ingest_path, then
ObjectStore.save) and with --objects of an export of its trees alone. The
identifier and both exports come from this checkout.

documents: in this process, with the --rev side's package imported as
swhid_parent, realize_descriptions(describe_nodes(document)) of builders.BUILT,
of each seed's perfbench history document, and of mutated copies of them
(builders.mutate, seeded by their number): 1 000 of BUILT and 50 of each
history document. The outcome is each id's text, or the exception's class
name and text, location included.

syntax: in this process too, parse, validate and format_swhid of
builders.IDENTIFIERS, of 2 000 seeded one-character edits of them
(builders.edit), and of the first 20 000 ids of each seed's perfbench
identifier corpus with an edited copy of each, in strict and permissive
mode. The outcome is the repr and text of parse's value and format_swhid's
text, or the exception's class name, text and diagnostic; and the repr of
validate's list.

The script prints how many cases it compared per surface and the first
differences, and exits 1 if there is any.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
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
from builders import (  # noqa: E402
    BUILT, IDENTIFIERS, MUTATIONS, ODD_NAMES, doc, edit, mutate, trees_only, write_tree,
)
from contract import ROWS, SETTINGS, Outcome, Row, child, odd, run, serve  # noqa: E402
from mockarchive import MockArchive  # noqa: E402
from swhid.ingest import ingest_path  # noqa: E402

EXCLUDE = ["--exclude", "*.tmp"]


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


def seeded(tree: gen.Tree):
    """A fixture like contract.odd, with a hard-link copy of tree, plus the entries the rows name."""

    def fixture(root: Path) -> None:
        gen.link_copy(tree, root / "tree")
        for name in (b"caf\xe9.txt", b"link\xe9"):
            write_tree(os.path.join(os.fsencode(root), b"tree", name), ODD_NAMES[1][name])

    return fixture


def compare_row(row: Row, root: Path, sides: Sequence[Path], archive=None, defaults=None):
    """row's outcome on each side, in root, which row's fixture fills once."""
    root.mkdir()
    if row.fixture is not None:
        row.fixture(root)
    outcomes = []
    for src in sides:
        endpoint = None
        if row.archive is not None:
            serve(archive, row.archive, defaults)
            endpoint = archive.endpoint
        outcomes.append(run(row, root, endpoint, functools.partial(child, src, cwd=root)))
    return outcomes


def compare_served(rows: Sequence[Row], roots: Sequence[Path], sides: Sequence[Path]):
    """compare_row of each row, in turn, against one MockArchive."""
    archive = MockArchive()
    defaults = {name: getattr(archive, name) for name in SETTINGS}
    try:
        return [compare_row(row, root, sides, archive, defaults) for row, root in zip(rows, roots)]
    finally:
        archive.close()


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


def compare_documents(parent, seeds: Sequence[int]) -> Tuple[int, List[str]]:
    """(documents compared, a description of each difference) against the package parent."""
    compared, differences = 0, []
    for name, document in documents(seeds):
        ours, theirs = realized(swhid, document), realized(parent, document)
        compared += 1
        if ours != theirs:
            lines = f"documents {name}:\n  parent: {theirs!r:.300}\n  this:   {ours!r:.300}"
            differences.append(lines)
    return compared, differences


def identifiers(seeds: Sequence[int]) -> Iterator[str]:
    """builders.IDENTIFIERS, edits of them, and each seed's corpus ids with an edit of each."""
    yield from IDENTIFIERS
    rng = random.Random(0)
    for number in range(2000):
        yield edit(IDENTIFIERS[number % len(IDENTIFIERS)], rng)
    for seed in seeds:
        texts = gen.corpus(seed).texts[:20_000]
        rng = random.Random(seed)
        yield from texts
        yield from (edit(text, rng) for text in texts)


def checked(package, text: str, permissive: bool):
    """What package's parse, format_swhid and validate make of text, as text."""
    try:
        value = package.parse(text, permissive=permissive)
        parsed = repr(value), str(value), package.format_swhid(value)
    except Exception as exc:  # a crash is an outcome to compare too
        parsed = type(exc).__name__, str(exc), repr(getattr(exc, "diagnostic", None))
    try:
        return parsed, repr(package.validate(text, permissive=permissive))
    except Exception as exc:
        return parsed, (type(exc).__name__, str(exc))


def compare_syntax(parent, seeds: Sequence[int]) -> Tuple[int, List[str]]:
    """(texts compared, a description of each difference) against the package parent."""
    compared, differences = 0, []
    for text in identifiers(seeds):
        compared += 1
        for permissive in (False, True):
            ours, theirs = checked(swhid, text, permissive), checked(parent, text, permissive)
            if ours != theirs:
                lines = f"syntax {text!r:.100} permissive={permissive}:\n  parent: {theirs!r:.300}"
                differences.append(f"{lines}\n  this:   {ours!r:.300}")
    return compared, differences


def compare(
    parent_src: Path, seeds: Sequence[int], modes: Optional[Sequence[str]] = None
) -> Tuple[Dict[str, int], List[str]]:
    """({surface: cases compared}, a description of each difference) against parent_src.

    modes names the contract rows to run, by id; all of them by default.
    """
    sides = (parent_src, ROOT / "src")
    differences: List[str] = []
    counts = {"contract": 0, "verify": 0, "documents": 0, "syntax": 0}
    with tempfile.TemporaryDirectory() as work, ThreadPoolExecutor(3) as pool:
        work_dir = Path(work)
        write_tree(os.fsencode(work_dir / "odd"), ODD_NAMES)
        shutil.copytree(work_dir / "odd", work_dir / "odd-changed", symlinks=True)
        (work_dir / "odd-changed" / os.fsdecode(b"d\xe9/inner.txt")).write_bytes(b"edited\n")
        chosen = [row for row in ROWS if modes is None or row.id in modes]
        rows, trees = list(chosen), ["odd"]
        for seed in seeds:
            name = f"seed{seed}"
            tree = gen.many_small_tree(seed, work_dir / name)
            gen.mutate(gen.link_copy(tree, work_dir / f"{name}-changed"), seed)
            trees.append(name)
            rows += [
                dataclasses.replace(row, id=f"{row.id} {name}", fixture=seeded(tree))
                for row in chosen
                if row.fixture is odd
            ]
        roots = [work_dir / "contract" / str(i) for i in range(len(rows))]
        (work_dir / "contract").mkdir()
        # One thread runs the rows with archive settings in turn, while two run the rest.
        served = [i for i, row in enumerate(rows) if row.archive is not None]
        served_job = pool.submit(
            compare_served, [rows[i] for i in served], [roots[i] for i in served], sides
        )
        pending = [
            ("contract", row.id, pool.submit(compare_row, row, root, sides))
            for row, root in zip(rows, roots)
            if row.archive is None
        ]

        def both(args):  # a verify case's outcome on each side
            return [child(src, args, {}, None, work_dir) for src in sides]

        for name in trees:
            cases = verify_cases(work_dir, name, f"{name}-changed")
            pending += [("verify", " ".join(args[1:]), pool.submit(both, args)) for args in cases]
        parent = import_parent(parent_src)
        counts["documents"], differences = compare_documents(parent, seeds)
        counts["syntax"], found = compare_syntax(parent, seeds)
        differences += found
        results = [(surface, label, job.result()) for surface, label, job in pending]
        results += [("contract", rows[i].id, pair) for i, pair in zip(served, served_job.result())]
        for surface, label, (theirs, ours) in results:
            counts[surface] += 1
            differences += _differences(f"{surface} {label!r}", ours, theirs)
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
