"""Compare `swhid identify` children of this checkout with another revision's.

    python tests/differential.py --rev REV [--seeds 1,2]

--rev extracts src/swhid at REV with `git archive` into a temporary
directory. Each case runs `python -m swhid.cli identify ...` once with
PYTHONPATH set to each side's src, and compares (exit code, stdout bytes,
stderr).

The inputs are perfbench's seeded tree-many-small trees, one per seed
(--seeds "" for none), and a small tree with names that are not UTF-8 or
that JSON escapes. The cases cover text and --json, --recursive,
--exclude '*.tmp', two paths, file and symlink roots, and a last path that
is missing or of the wrong --type. The script prints how many cases it
compared and the first differences, and exits 1 if there is any.
"""
from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402

Outcome = Tuple[int, bytes, bytes]
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


def odd_names_tree(root: Path) -> None:
    """A small tree of names that are not UTF-8, need JSON escapes, or are excluded."""
    files = {
        b"caf\xe9.txt": b"latin-1 name\n",
        b"\xff\xfe": b"",
        b'quote"d': b"q\n",
        b"back\\slash": b"b\n",
        b"tab\there": b"t\n",
        b"new\nline": b"n\n",
        "snow ☃ café".encode(): b"s\n",
        b"d\xe9/inner.txt": b"inner\n",
        b"d\xe9/run.sh": b"#!/bin/sh\n",
        b"d\xe9/junk.tmp": b"junk",
        b"only.tmp/x": b"dropped with its directory",
        b"nested/a/b/c d": b"deep\n",
    }
    links = {b"link\xe9": b"caf\xe9.txt", b"d\xe9/up": b"../\xff\xfe", b"dangling": b"nowhere"}
    base = os.fsencode(root)
    for name, data in files.items():
        path = os.path.join(base, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)
    os.chmod(os.path.join(base, b"d\xe9/run.sh"), 0o755)
    for name, target in links.items():
        os.symlink(target, os.path.join(base, name))


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


def run(src: Path, args: Sequence[str], cwd: Path) -> Outcome:
    env = dict(os.environ, PYTHONPATH=str(src))
    child = subprocess.run(
        [sys.executable, "-m", "swhid.cli", "identify", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=300,
    )
    return child.returncode, child.stdout, child.stderr


def _first_difference(name: str, ours: bytes, theirs: bytes) -> str:
    at = next((i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b), None)
    if at is None:
        at = min(len(ours), len(theirs))
    window = slice(max(0, at - 40), at + 40)
    return (
        f"  {name} differs at byte {at} (lengths {len(theirs)} / {len(ours)}):\n"
        f"    parent: {theirs[window]!r}\n    this:   {ours[window]!r}"
    )


def compare(parent_src: Path, seeds: Sequence[int]) -> Tuple[int, List[str]]:
    """(cases compared, a description of each difference), this checkout against parent_src."""
    ours_src = ROOT / "src"
    differences: List[str] = []
    count = 0
    with tempfile.TemporaryDirectory() as work, ThreadPoolExecutor(2) as pool:
        work_dir = Path(work)
        odd_names_tree(work_dir / "odd")
        trees = [("odd", os.fsdecode(b"odd/caf\xe9.txt"), os.fsdecode(b"odd/link\xe9"))]
        for seed in seeds:
            tree = gen.many_small_tree(seed, work_dir / f"seed{seed}")
            name = f"seed{seed}"
            trees.append((name, f"{name}/{tree.files[0]}", f"{name}/{tree.links[0]}"))
        for root, file, link in trees:
            for args in cases(root, file, link):
                theirs, ours = pool.map(run, (parent_src, ours_src), [args] * 2, [work_dir] * 2)
                count += 1
                if ours == theirs:
                    continue
                lines = [f"identify {' '.join(args)!r}:"]
                if ours[0] != theirs[0]:
                    lines.append(f"  exit code: parent {theirs[0]}, this {ours[0]}")
                for label, i in (("stdout", 1), ("stderr", 2)):
                    if ours[i] != theirs[i]:
                        lines.append(_first_difference(label, ours[i], theirs[i]))
                differences.append("\n".join(lines))
    return count, differences


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="the git revision to compare with")
    parser.add_argument("--seeds", default="1", help="comma-separated tree seeds (default: 1)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    with tempfile.TemporaryDirectory() as scratch:
        count, differences = compare(extract(args.rev, Path(scratch)), seeds)
    print(f"{count} identify cases compared, {len(differences)} differences")
    for difference in differences[:5]:
        print(difference)
    return 1 if differences or not count else 0


if __name__ == "__main__":
    sys.exit(main())
