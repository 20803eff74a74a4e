"""Atomic file writes, shared by ObjectStore.save and the CLI's resolve --fetch.

A module of its own, so that a resolve child writes its file without
importing (and, with no bytecode cache, compiling) the filesystem layer.
"""
from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Callable


def write_atomically(path: Path, emit: Callable[[Callable[[bytes], Any]], None]) -> None:
    """Write what emit passes to its write argument into path.

    The bytes go to .NAME.partial beside path first and are renamed into
    place, so a failed write removes the partial file and leaves any
    earlier copy of path intact.
    """
    partial = path.with_name(f".{path.name}.partial")
    try:
        with open(partial, "wb") as out:
            emit(out.write)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
