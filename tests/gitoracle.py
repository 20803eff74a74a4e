"""Independent reference hasher driven through git plumbing.

Used to cross-check object ids without sharing any serialization code with
the library under test. Trees can be built two ways: from leaf paths via
the index (write-tree does its own sorting and nesting) or directly via
mktree.
"""
from __future__ import annotations

import hashlib
import itertools
import os
import re
import subprocess
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class GitOracle:
    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._counter = itertools.count()
        self._git("init", "-q", ".")

    def _git(
        self,
        *args: str,
        input_bytes: Optional[bytes] = None,
        env: Optional[Dict[str, str]] = None,
        cwd: Optional[Path] = None,
    ) -> bytes:
        full_env = dict(
            os.environ,
            GIT_CONFIG_GLOBAL="/dev/null",
            GIT_CONFIG_SYSTEM="/dev/null",
        )
        if env:
            full_env.update(env)
        proc = subprocess.run(
            ["git", *args],
            cwd=cwd or self.root,
            input=input_bytes,
            capture_output=True,
            env=full_env,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"git {' '.join(args)} failed: "
                + proc.stderr.decode("utf-8", "replace")
            )
        return proc.stdout

    def _hex(self, out: bytes) -> str:
        return out.decode("ascii").strip()

    def blob_id(self, data: bytes) -> str:
        return self._hex(self._git("hash-object", "-w", "--stdin", input_bytes=data))

    def tree_from_paths(self, files: Dict[str, Tuple[str, str]]) -> str:
        """Build nested trees from leaf paths: {path: (mode, object hex)}.

        Modes are the index-representable ones (100644, 100755, 120000,
        160000); interior trees and their sort order come from git itself.
        """
        index = self.root / f"oracle-index-{next(self._counter)}"
        env = {"GIT_INDEX_FILE": str(index)}
        for path, (mode, object_hex) in files.items():
            self._git(
                "update-index",
                "--add",
                "--cacheinfo",
                f"{mode},{object_hex},{path}",
                env=env,
            )
        return self._hex(self._git("write-tree", env=env))

    def subtree_id(self, tree_hex: str, path: str) -> str:
        return self._hex(self._git("rev-parse", f"{tree_hex}:{path}"))

    def mktree(self, entries: Iterable[Tuple[str, str, str, str]]) -> str:
        """Build one tree level: entries of (mode, kind, hex, name).

        Entries may arrive in any order; git sorts them itself. --missing
        permits gitlink targets that are not in the object db.
        """
        listing = b"".join(
            f"{mode} {kind} {object_hex}\t{name}\n".encode("utf-8")
            for mode, kind, object_hex, name in entries
        )
        return self._hex(self._git("mktree", "--missing", input_bytes=listing))

    def commit_id(
        self,
        tree_hex: str,
        parents: Sequence[str],
        author: Tuple[str, str, int, str],
        committer: Tuple[str, str, int, str],
        message: bytes,
    ) -> str:
        """author/committer are (name, email, seconds, utc offset)."""
        args = ["commit-tree", tree_hex]
        for parent in parents:
            args += ["-p", parent]
        a_name, a_email, a_secs, a_tz = author
        c_name, c_email, c_secs, c_tz = committer
        env = {
            "GIT_AUTHOR_NAME": a_name,
            "GIT_AUTHOR_EMAIL": a_email,
            "GIT_AUTHOR_DATE": f"@{a_secs} {a_tz}",
            "GIT_COMMITTER_NAME": c_name,
            "GIT_COMMITTER_EMAIL": c_email,
            "GIT_COMMITTER_DATE": f"@{c_secs} {c_tz}",
        }
        return self._hex(self._git(*args, input_bytes=message, env=env))

    def tag_id(
        self,
        target_hex: str,
        name: str,
        message: bytes,
        tagger: Tuple[str, str, int, str],
    ) -> str:
        message_file = self.root / f"oracle-tagmsg-{next(self._counter)}"
        message_file.write_bytes(message)
        t_name, t_email, t_secs, t_tz = tagger
        env = {
            "GIT_COMMITTER_NAME": t_name,
            "GIT_COMMITTER_EMAIL": t_email,
            "GIT_COMMITTER_DATE": f"@{t_secs} {t_tz}",
        }
        self._git(
            "tag", "-a", "-F", str(message_file), "--cleanup=verbatim",
            name, target_hex, env=env,
        )
        object_hex = self._hex(self._git("rev-parse", f"refs/tags/{name}"))
        self._git("tag", "-d", name)
        return object_hex

    def hash_raw(self, kind: str, raw: bytes) -> str:
        """Hash handwritten object bytes with git's own header logic."""
        return self._hex(
            self._git(
                "hash-object", "-t", kind, "--stdin", "--literally",
                input_bytes=raw,
            )
        )

    def fsck_verdict(self, manifests: Iterable[bytes]) -> List[str]:
        """The message ids of what `git fsck --strict` finds wrong with manifests.

        Each is written zlib'd as a loose object into a new bare repository,
        as git writes objects; an empty list means git accepts them all.
        """
        repo = self.root / f"fsck-{next(self._counter)}.git"
        self._git("init", "-q", "--bare", str(repo))
        for manifest in manifests:
            hexid = hashlib.sha1(manifest).hexdigest()
            loose = repo / "objects" / hexid[:2] / hexid[2:]
            loose.parent.mkdir(exist_ok=True)
            loose.write_bytes(zlib.compress(manifest))
        try:
            self._git("--git-dir", str(repo), "fsck", "--strict", "--no-dangling")
        except RuntimeError as exc:
            return re.findall(r"error in \w+ [0-9a-f]{40}: (\w+):", str(exc))
        return []

    def add_worktree_path(self, path: Path) -> str:
        """Stage a real file/symlink tree with git add; return its tree id.

        Fully independent ingestion check: git stats, reads, and sorts the
        worktree itself.
        """
        index = self.root / f"oracle-index-{next(self._counter)}"
        env = {
            "GIT_INDEX_FILE": str(index),
            "GIT_WORK_TREE": str(path),
        }
        git_dir = str(self.root / ".git")
        self._git(
            "--git-dir", git_dir, "add", "-A", ".", env=env, cwd=Path(path)
        )
        return self._hex(
            self._git("--git-dir", git_dir, "write-tree", env=env)
        )
