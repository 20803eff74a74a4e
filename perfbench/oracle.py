"""Git as the independent oracle for tree, revision and release ids.

Nothing here imports swhid: git reads the generated files itself and
computes every id with its own code.
"""
from __future__ import annotations

import os
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

_ENV = dict(
    os.environ,
    GIT_CONFIG_GLOBAL=os.devnull,
    GIT_CONFIG_SYSTEM=os.devnull,
    GIT_CONFIG_NOSYSTEM="1",
)


def git(gitdir: Path, *args: str, stdin: bytes = b"", env: Optional[Dict[str, str]] = None) -> bytes:
    proc = subprocess.run(
        ["git", "--git-dir", str(gitdir), *args],
        input=stdin,
        capture_output=True,
        env={**_ENV, **(env or {})},
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"git {args[0]} failed: {proc.stderr.decode(errors='replace')}")
    return proc.stdout


def init(gitdir: Path) -> Path:
    subprocess.run(["git", "init", "-q", "--bare", str(gitdir)], env=_ENV, check=True)
    return gitdir


def tree_ids(gitdir: Path, worktree: Path, paths: Sequence[str]) -> Tuple[str, Dict[str, Tuple[str, str]]]:
    """Root tree id of worktree restricted to paths, and (type, id) of every node below.

    The paths go through a throwaway index: git lstats and hashes each one
    itself (--info-only skips writing blobs), and write-tree nests and
    sorts the trees.
    """
    index = gitdir / f"index-{worktree.name}"
    env = {"GIT_INDEX_FILE": str(index), "GIT_WORK_TREE": str(worktree)}
    stdin = b"".join(os.fsencode(p) + b"\x00" for p in paths)
    subprocess.run(
        ["git", "--git-dir", str(gitdir), "update-index", "--add", "--info-only", "-z", "--stdin"],
        input=stdin, cwd=worktree, env={**_ENV, **env}, check=True, capture_output=True,
    )
    root = git(gitdir, "write-tree", "--missing-ok", env=env).decode().strip()
    index.unlink()
    nodes: Dict[str, Tuple[str, str]] = {}
    for record in git(gitdir, "ls-tree", "-r", "-t", "-z", root).split(b"\x00"):
        if record:
            meta, path = record.split(b"\t", 1)
            _, kind, hexid = meta.decode().split()
            nodes[os.fsdecode(path)] = ("dir" if kind == "tree" else "cnt", hexid)
    return root, nodes


def tree_store(gitdir: Path, nodes: Dict[str, Tuple[str, str]], root: str, store: Path) -> None:
    """Write git's tree objects in the layout ObjectStore.load reads.

    Only trees: verify --objects needs directory manifests to localize a
    mismatch, and a store of 500 files costs far fewer inode allocations
    than one of 10 000.
    """
    trees = sorted({root} | {hexid for kind, hexid in nodes.values() if kind == "dir"})
    out = git(gitdir, "cat-file", "--batch", stdin="".join(t + "\n" for t in trees).encode())
    pos = 0
    for hexid in trees:
        header_end = out.index(b"\n", pos)
        _, kind, size = out[pos:header_end].split()
        body = out[header_end + 1 : header_end + 1 + int(size)]
        pos = header_end + 1 + int(size) + 1
        bucket = store / "objects" / hexid[:2]
        bucket.mkdir(parents=True, exist_ok=True)
        (bucket / hexid[2:]).write_bytes(b"%s %d\x00%s" % (kind, len(body), body))


def hash_texts(gitdir: Path, kind: str, texts: List[bytes], scratch: Path) -> List[str]:
    """git's id for each object text, hashed in one --stdin-paths batch."""
    scratch.mkdir(parents=True, exist_ok=True)
    names = []
    for n, text in enumerate(texts):
        name = scratch / f"{kind}-{n}"
        name.write_bytes(text)
        names.append(os.fsencode(name) + b"\n")
    out = git(gitdir, "hash-object", "-t", kind, "--stdin-paths", stdin=b"".join(names))
    return out.decode().split()


def hash_object_floor(worktree: Path, files: Sequence[str]) -> None:
    """`git hash-object --stdin-paths` over the regular files: the git floor."""
    stdin = b"".join(os.fsencode(worktree / f) + b"\n" for f in files)
    subprocess.run(
        ["git", "hash-object", "--no-filters", "--stdin-paths"],
        input=stdin, env=_ENV, check=True, capture_output=True,
    )
