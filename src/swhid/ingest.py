"""Filesystem ingestion, the deduplicating object store, and verification.

One walk, _walk(), hashes a tree once, each file as a stream, opening each
directory and file by name relative to its parent directory's fd. It keeps
only what its caller needs: ingest_path() stores one manifest per distinct
object (a file is kept as its path, not its bytes), verify_path() keeps
tree manifests only to compare with a reference, and identify keeps only
the bytes it prints. Symlinks are never followed: the link target bytes are
the content, exactly as in version control. verify_path() recomputes an id
and, given a reference store, walks both trees to localize the divergence.
"""
from __future__ import annotations

import errno
import fnmatch
import hashlib
import os
import re
import stat
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import (
    NotFoundError,
    RangeOutOfBoundsError,
    StoreError,
    TypeMismatchError,
    UnreadableError,
    UnsupportedNodeKindError,
)
from .model import (
    MANIFEST_KIND_TO_TYPE,
    Content,
    DagNode,
    EntryPermission,
    manifest_of,
    object_id_of,  # unused here; perfbench's tracer patches swhid.ingest.object_id_of
    tree_body,
)
from .syntax import CoreSwhid, LineRange, ObjectId, ObjectType, QualifiedSwhid, _setattr, _Value

__all__ = [
    "ObjectStore",
    "ingest_path",
    "EntryMismatch",
    "VerificationReport",
    "verify_path",
    "extract_lines",
]


# The names save() gives an object's bucket and file: its id's first 2 and last 38 hex digits.
_BUCKET_RE = re.compile(r"[0-9a-f]{2}")
_ITEM_RE = re.compile(r"[0-9a-f]{38}")


class ObjectStore:
    """In-memory map from (object type, object id) to manifest bytes.

    add() is idempotent: re-adding an object keeps one copy and bumps an
    insertion counter, so callers can observe deduplication. Thread-safe.
    Regular files reached by ingest_path() are kept as their path, not
    their bytes: get(), save() and audit() read them again, streaming.
    """

    def __init__(self):
        # raw digest -> [object type, value, insertions]: the value is a
        # manifest, or (as str) the path of a file holding the content. Two
        # types never share a digest, as the type is in the hashed header.
        self._objects: Dict[bytes, list] = {}
        self._lock = threading.Lock()

    def add(self, node: DagNode) -> CoreSwhid:
        """Store a node's manifest, returning its identifier."""
        manifest = manifest_of(node)
        object_type = MANIFEST_KIND_TO_TYPE[manifest[: manifest.index(b" ")]]
        raw = hashlib.sha1(manifest).digest()
        self._insert(object_type, raw, manifest)
        return CoreSwhid(object_type, ObjectId(raw))

    def _insert(self, object_type: ObjectType, raw: bytes, value) -> None:
        with self._lock:
            self._objects.setdefault(raw, [object_type, value, 0])[2] += 1

    def _emit(self, raw: bytes, value, sink: Callable[[bytes], Any]) -> None:
        """Feed a manifest to sink; StoreError if a re-read file no longer matches its id."""
        if isinstance(value, bytes):
            sink(value)
            return
        try:
            _, digest = _read_file(value, value, sink)
        except UnreadableError as exc:
            raise StoreError(f"content {raw.hex()}: {exc}") from exc
        if digest != raw:
            raise StoreError(f"content {raw.hex()}: {value} changed since ingest")

    def _entry(self, object_type: ObjectType, raw: bytes) -> Optional[list]:
        entry = self._objects.get(raw)
        return entry if entry is not None and entry[0] is object_type else None

    def get(self, object_type: ObjectType, object_id: ObjectId) -> Optional[bytes]:
        """The object's manifest, or None. StoreError if its file changed."""
        entry = self._entry(object_type, object_id.raw)
        if entry is None:
            return None
        pieces: List[bytes] = []
        self._emit(object_id.raw, entry[1], pieces.append)
        return b"".join(pieces)

    def insertions(self, object_type: ObjectType, object_id: ObjectId) -> int:
        """How many times add() has seen this object."""
        entry = self._entry(object_type, object_id.raw)
        return 0 if entry is None else entry[2]

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, key: Tuple[ObjectType, ObjectId]) -> bool:
        object_type, object_id = key
        return self._entry(object_type, object_id.raw) is not None

    def __iter__(self) -> Iterator[Tuple[ObjectType, ObjectId]]:
        return ((entry[0], ObjectId(raw)) for raw, entry in self._objects.items())

    def audit(self) -> List[CoreSwhid]:
        """Re-hash every manifest; return identifiers that no longer match."""
        bad = []
        for raw, (object_type, value, _) in self._objects.items():
            digest = hashlib.sha1()
            try:
                self._emit(raw, value, digest.update)
            except StoreError:
                pass  # the digest cannot match either
            if digest.digest() != raw:
                bad.append(CoreSwhid(object_type, ObjectId(raw)))
        return bad

    def save(self, root: Union[str, Path]) -> None:
        """Write manifests under root/objects/<2 hex>/<38 hex>.

        A file that no longer hashes to its id, or an OSError, raises
        StoreError. Each object is written under a temporary name and renamed
        into place, so a failed save leaves any earlier copy of it intact.
        """
        from ._atomic import write_atomically

        base = Path(root) / "objects"
        try:
            for raw, (_, value, _) in self._objects.items():
                hexid = raw.hex()
                bucket = base / hexid[:2]
                bucket.mkdir(parents=True, exist_ok=True)
                write_atomically(
                    bucket / hexid[2:],
                    lambda write: self._emit(raw, value, write),
                )
        except OSError as exc:
            raise StoreError(str(exc)) from exc

    @classmethod
    def load(cls, root: Union[str, Path]) -> "ObjectStore":
        """Read a directory written by save().

        StoreError for a bad layout, an unreadable entry, or an object
        whose header length or sha1 disagrees with its bytes or its name.
        """
        base = Path(root) / "objects"
        if not base.is_dir():
            raise StoreError(f"{root}: no objects/ directory")
        store = cls()
        try:
            for bucket in sorted(os.listdir(base)):
                folder = os.path.join(base, bucket)
                # isdir hides every OSError; Path.is_dir raises a permission fault.
                is_dir = os.path.isdir(folder) or Path(folder).is_dir()
                if not is_dir or not _BUCKET_RE.fullmatch(bucket):
                    raise StoreError(f"unexpected entry {bucket!r} in objects/")
                for item in sorted(os.listdir(folder)):
                    if not _ITEM_RE.fullmatch(item):
                        raise StoreError(f"unexpected entry {item!r} in objects/{bucket}/")
                    where = f"objects/{bucket}/{item}"
                    parts: List[bytes] = []
                    _, raw = _read_file(os.path.join(folder, item), where, parts.append, blob=False)
                    manifest = b"".join(parts)
                    # The header is read in place: no copy of the body.
                    space, nul = manifest.find(b" "), manifest.find(b"\x00")
                    kind = manifest if space < 0 else manifest[:space]
                    if kind not in MANIFEST_KIND_TO_TYPE:
                        raise StoreError(f"{where}: unknown manifest kind {kind!r}")
                    if nul < 0 or manifest[:nul] != b"%s %d" % (kind, len(manifest) - nul - 1):
                        raise StoreError(f"{where}: header does not give the body's length")
                    if raw.hex() != bucket + item:
                        raise StoreError(f"{where}: bytes do not hash to the file name")
                    store._insert(MANIFEST_KIND_TO_TYPE[kind], raw, manifest)
        except (OSError, UnreadableError) as exc:  # an OSError keeps its own text
            raise StoreError(str(exc.__cause__ or exc)) from exc
        return store


# --- filesystem ingestion ----------------------------------------------------


_CHUNK = 1 << 16
_REGULAR = EntryPermission.REGULAR_FILE.token
_EXECUTABLE = EntryPermission.EXECUTABLE_FILE.token
_SYMLINK = EntryPermission.SYMLINK.token
_TREE = EntryPermission.DIRECTORY.token
# A link in the last component fails to open, and a FIFO opens without
# blocking; fstat on the fd then says what was opened.
_OPEN_FLAGS = os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK
_DIR_FLAGS = os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW
# The walk holds at most this many directory fds; see _walk.
_HELD_FDS = 64
# An entry's kind, from its scandir type.
_DIR, _FILE, _LINK, _OTHER = range(4)


def _unreadable(path: str, exc: OSError) -> UnreadableError:
    return UnreadableError(f"{path}: {exc.strerror or exc}")


def _lstat_root(path: Union[str, Path]) -> os.stat_result:
    try:
        return os.lstat(path)
    except (OSError, ValueError):
        raise NotFoundError(f"{path}: no such file or directory") from None


def _read_file(
    name: Union[str, Path],
    path: str,
    sink: Optional[Callable[[bytes], Any]] = None,
    dir_fd: Optional[int] = None,
    blob: bool = True,
) -> Tuple[int, bytes]:
    """A regular file's st_mode and the sha1 of its blob manifest (of its bytes if not blob).

    The file is name, relative to dir_fd if given; path names it in errors.
    sink, if given, receives the manifest: header, then bytes. Mode, size and
    bytes come from one fd, opened without following a link or blocking,
    whose fstat must show a regular file. A directory raises EISDIR, as
    open() does; it, any other file that is not regular, a file that reads
    to another length than its size, or any OSError raises UnreadableError.
    A file under 64 KiB takes one read.
    """
    try:
        fd = os.open(name, _OPEN_FLAGS, dir_fd=dir_fd)
        try:
            st = os.fstat(fd)
            if stat.S_ISDIR(st.st_mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(name))
            if not stat.S_ISREG(st.st_mode):
                raise UnreadableError(f"{path}: not a regular file")
            size, done = st.st_size, 0
            header = b"blob %d\x00" % size if blob else b""
            digest = hashlib.sha1(header)
            if sink is not None:
                sink(header)
            while done <= size:
                want = min(size + 1 - done, _CHUNK)
                chunk = os.read(fd, want)
                if not chunk:
                    break
                digest.update(chunk)
                if sink is not None:
                    sink(chunk)
                done += len(chunk)
                if done == size and len(chunk) < want:
                    break  # a short read reached the size: the end
        finally:
            os.close(fd)
    except OSError as exc:
        raise _unreadable(path, exc) from exc
    if done != size:
        raise UnreadableError(f"{path}: changed while being read ({done}/{size} bytes)")
    return st.st_mode, digest.digest()


def _leaf(
    name: str, dir_fd: Optional[int], path: str, kind: int, store: Optional[ObjectStore]
) -> Tuple[bytes, bytes]:
    """A non-directory's mode token and raw id; store, if given, keeps the content."""
    if kind == _LINK:
        try:
            target = os.readlink(os.fsencode(name), dir_fd=dir_fd)
        except OSError as exc:
            raise _unreadable(path, exc) from exc
        manifest = manifest_of(Content(target))
        raw = hashlib.sha1(manifest).digest()
        if store is not None:
            store._insert(ObjectType.CONTENT, raw, manifest)
        return _SYMLINK, raw
    if kind != _FILE:
        raise UnsupportedNodeKindError(f"{path}: not a regular file, directory, or symlink")
    mode, raw = _read_file(name, path, dir_fd=dir_fd)
    if store is not None:
        store._insert(ObjectType.CONTENT, raw, path)
    return _EXECUTABLE if mode & stat.S_IXUSR else _REGULAR, raw


def _open_dir(name: str, dir_fd: Optional[int], path: str) -> int:
    try:
        return os.open(name, _DIR_FLAGS, dir_fd=dir_fd)
    except OSError as exc:
        raise _unreadable(path, exc) from exc


def _scan(fd: int, path: str, prefix: str, excluded) -> Iterator[Tuple[str, int]]:
    """(name, kind) of a directory's entries whose name and relative path are not excluded.

    prefix is what the entries' relative paths start with. Sorted by name.
    Each kind comes from the scandir type while fd is open, with no stat
    of its own where the filesystem gives the type.
    """
    kept = []
    try:
        with os.scandir(fd) as it:
            for entry in it:
                name = entry.name
                if excluded and (excluded(name) or excluded(prefix + name)):
                    continue
                try:
                    if entry.is_dir(follow_symlinks=False):
                        kind = _DIR
                    elif entry.is_file(follow_symlinks=False):
                        kind = _FILE
                    else:
                        kind = _LINK if entry.is_symlink() else _OTHER
                except OSError as exc:
                    raise _unreadable(os.path.join(path, name), exc) from exc
                kept.append((name, kind))
    except OSError as exc:
        raise _unreadable(path, exc) from exc
    kept.sort()
    return iter(kept)


class _Frame:
    """A directory being read by _walk."""

    __slots__ = ("name", "rel", "path", "prefix", "entries", "rows", "fd")

    def __init__(self, name: str, rel: str, path: str, fd: int):
        self.name = name  # its entry name in its parent
        self.rel = rel  # the path its entries' relative paths start with: "" or "a/b/"
        self.path = path  # its absolute path, as errors name it
        self.prefix = os.path.join(path, "")  # what its entries' absolute paths start with
        self.entries: Iterator[Tuple[str, int]] = iter(())  # (name, kind) left to walk
        self.rows: List[Tuple[bytes, bytes, bytes]] = []  # (name, mode token, raw id) done
        self.fd: Any = fd  # or, while closed, its (st_dev, st_ino)


def _walk(
    path: Union[str, Path],
    excludes: Sequence[str] = (),
    trees: Optional[ObjectStore] = None,
    contents: Optional[ObjectStore] = None,
    rows: Optional[Callable[[Tuple[str, ObjectType, bytes]], Any]] = None,
) -> Tuple[ObjectType, bytes]:
    """The object type and raw id of a filesystem node.

    trees and contents, if given, keep the directories and the contents
    reached. rows, if given, is called with each node's (root-relative path,
    type, raw id) once it is done, children before parents; the root's is "".
    """
    mode = _lstat_root(path).st_mode
    # Absolute, so the store still finds its files after a chdir.
    root = os.path.join(os.getcwd(), os.fspath(path))
    if not stat.S_ISDIR(mode):
        kind = _LINK if stat.S_ISLNK(mode) else _FILE if stat.S_ISREG(mode) else _OTHER
        _, raw = _leaf(root, None, root, kind, contents)
        if rows is not None:
            rows(("", ObjectType.CONTENT, raw))
        return ObjectType.CONTENT, raw
    # One regex for all patterns, each anchored as fnmatchcase anchors it.
    excluded = excludes and re.compile("|".join(map(fnmatch.translate, excludes))).match
    # Post-order walk over a stack of frames. Each directory is opened by
    # name relative to its parent's fd with O_NOFOLLOW, and each file
    # relative to its directory's, so an entry swapped for a symlink after
    # the scan fails instead of being followed. Names from scandir are
    # never empty and hold no '/' or NUL, so rows skip the checks
    # DirectoryEntry makes for library callers.
    #
    # Only the deepest _HELD_FDS frames hold their fd, an int. A shallower
    # one is closed and keeps its (st_dev, st_ino) instead; when the walk
    # returns to it, it is reopened as ".." of its child and must be the
    # same directory, else UnreadableError.
    frames = [_Frame("", "", root, _open_dir(root, None, root))]
    try:
        frames[0].entries = _scan(frames[0].fd, root, "", excluded)
        while True:
            frame = frames[-1]
            fd, prefix, rel, done = frame.fd, frame.prefix, frame.rel, frame.rows
            for name, kind in frame.entries:
                if kind == _DIR:
                    child_path = prefix + name
                    child_fd = _open_dir(name, fd, child_path)
                    child = _Frame(name, f"{rel}{name}/", child_path, child_fd)
                    frames.append(child)
                    if len(frames) > _HELD_FDS and isinstance(frames[-1 - _HELD_FDS].fd, int):
                        dropped = frames[-1 - _HELD_FDS]
                        dropped_fd = dropped.fd
                        st = os.fstat(dropped_fd)
                        dropped.fd = (st.st_dev, st.st_ino)
                        os.close(dropped_fd)
                    child.entries = _scan(child.fd, child.path, child.rel, excluded)
                    break
                token, raw = _leaf(name, fd, prefix + name, kind, contents)
                if rows is not None:
                    rows((rel + name, ObjectType.CONTENT, raw))
                done.append((os.fsencode(name), token, raw))
            else:
                body = tree_body(done)
                manifest = b"tree %d\x00%s" % (len(body), body)
                raw = hashlib.sha1(manifest).digest()
                if trees is not None:
                    trees._insert(ObjectType.DIRECTORY, raw, manifest)
                if rows is not None:
                    rows((rel[:-1], ObjectType.DIRECTORY, raw))
                if len(frames) == 1:
                    break
                parent = frames[-2]
                if not isinstance(parent.fd, int):
                    parent.fd = _reopen(fd, parent.fd, parent.path)
                frames.pop()
                os.close(fd)
                parent.rows.append((os.fsencode(frame.name), _TREE, raw))
    finally:
        for frame in frames:
            if isinstance(frame.fd, int):
                os.close(frame.fd)
    return ObjectType.DIRECTORY, raw


def _reopen(child_fd: int, identity: Tuple[int, int], path: str) -> int:
    """An fd on ".." of child_fd; UnreadableError unless it is the directory identity names."""
    fd = _open_dir("..", child_fd, path)
    st = os.fstat(fd)
    if (st.st_dev, st.st_ino) != identity:
        os.close(fd)
        raise UnreadableError(f"{path}: moved while being read")
    return fd


def ingest_path(
    path: Union[str, Path],
    excludes: Sequence[str] = (),
    *,
    store: Optional[ObjectStore] = None,
    jobs: int = 1,
    collect: Optional[List[Tuple[str, CoreSwhid]]] = None,
) -> Tuple[CoreSwhid, ObjectStore]:
    """Compute the identifier of a filesystem node.

    Returns the root identifier and the store holding every object reached.
    collect, if given, receives (root-relative path, id) pairs for every
    node, children before parents; the root's relative path is "".
    jobs is accepted for compatibility: files are hashed in one thread.
    """
    if store is None:
        store = ObjectStore()
    rows: list = []
    object_type, raw = _walk(path, excludes, store, store, None if collect is None else rows.append)
    if collect is not None:
        collect.extend((rel, CoreSwhid(t, ObjectId(r))) for rel, t, r in rows)
    return CoreSwhid(object_type, ObjectId(raw)), store


# --- verification ------------------------------------------------------------


class EntryMismatch(_Value):
    """One localized divergence. path is root-relative; "" is the root.

    note is "differs", "missing", "unexpected", or "mode differs".
    """

    __slots__ = ("path", "expected_hex", "actual_hex", "note")

    def __init__(
        self, path: str, expected_hex: Optional[str], actual_hex: Optional[str], note: str
    ):
        _setattr(self, "path", path)
        _setattr(self, "expected_hex", expected_hex)
        _setattr(self, "actual_hex", actual_hex)
        _setattr(self, "note", note)


class VerificationReport(_Value):
    __slots__ = ("expected", "actual", "detail")

    def __init__(
        self, expected: CoreSwhid, actual: CoreSwhid, detail: Tuple[EntryMismatch, ...] = ()
    ):
        _setattr(self, "expected", expected)
        _setattr(self, "actual", actual)
        _setattr(self, "detail", detail)

    @property
    def matched(self) -> bool:
        return self.expected == self.actual


def _tree_entries(raw: bytes, manifest: bytes) -> Dict[bytes, Tuple[bytes, bytes]]:
    """name -> (mode, raw id) of a tree manifest; StoreError if it is malformed."""
    body = manifest[manifest.index(b"\x00") + 1 :]
    entries: Dict[bytes, Tuple[bytes, bytes]] = {}
    pos = 0
    try:
        while pos < len(body):
            space = body.index(b" ", pos)
            nul = body.index(b"\x00", space)
            end = nul + 21
            if end > len(body):
                raise ValueError("short id")
            entries[body[space + 1 : nul]] = (body[pos:space], body[nul + 1 : end])
            pos = end
    except ValueError:
        raise StoreError(f"tree {raw.hex()}: malformed entry at byte {pos}")
    return entries


def _localize(
    expected_raw: bytes,
    actual_raw: bytes,
    reference: ObjectStore,
    actual_store: ObjectStore,
    limit: int,
) -> Tuple[EntryMismatch, ...]:
    """The first limit divergences of a depth-first walk of both trees."""
    out: List[EntryMismatch] = []
    # (path, expected (mode, raw id) or None, actual one or None); the
    # entries of a directory are pushed in reverse so they pop in name order.
    stack = [("", (_TREE, expected_raw), (_TREE, actual_raw))]
    while stack and len(out) < limit:
        rel, exp, act = stack.pop()
        if exp == act:
            continue
        note = "differs"
        if act is None:
            note = "missing"
        elif exp is None:
            note = "unexpected"
        elif exp[1] == act[1]:
            note = "mode differs"
        elif exp[0] == act[0] == _TREE:
            # Two trees: descend when both stores hold them, else report the pair.
            expected = reference.get(ObjectType.DIRECTORY, ObjectId(exp[1]))
            actual = actual_store.get(ObjectType.DIRECTORY, ObjectId(act[1]))
            if expected is not None and actual is not None:
                expected_entries = _tree_entries(exp[1], expected)
                actual_entries = _tree_entries(act[1], actual)
                names = set(expected_entries) | set(actual_entries)
                for name in sorted(names, reverse=True):
                    child_rel = f"{rel}/{os.fsdecode(name)}" if rel else os.fsdecode(name)
                    stack.append(
                        (child_rel, expected_entries.get(name), actual_entries.get(name))
                    )
                continue
        out.append(EntryMismatch(rel, exp and exp[1].hex(), act and act[1].hex(), note))
    return tuple(out)


def verify_path(
    expected: Union[QualifiedSwhid, CoreSwhid],
    path: Union[str, Path],
    *,
    reference: Optional[ObjectStore] = None,
    excludes: Sequence[str] = (),
    detail_limit: int = 20,
) -> VerificationReport:
    """Recompute the id of path and compare against expected.

    Only content and directory identifiers can be checked against the
    filesystem; anything else raises TypeMismatchError, as does a content
    id named against a directory (and vice versa). With a reference store
    holding the expected tree's manifests, a directory mismatch is
    localized to the diverging entries instead of just the root.
    """
    core = expected.core if isinstance(expected, QualifiedSwhid) else expected
    if core.object_type not in (ObjectType.CONTENT, ObjectType.DIRECTORY):
        raise TypeMismatchError(
            f"{core.object_type.long_name} identifiers cannot be checked"
            " against a filesystem path"
        )
    is_dir_node = stat.S_ISDIR(_lstat_root(path).st_mode)
    if is_dir_node != (core.object_type is ObjectType.DIRECTORY):
        raise TypeMismatchError(f"{path}: expected a {'file' if is_dir_node else 'directory'}")
    # Trees are kept only to compare with a reference; without one, both
    # stores are empty and the detail is the root alone.
    trees = ObjectStore()
    object_type, raw = _walk(path, excludes, trees if reference else None)
    detail = _localize(core.object_id.raw, raw, reference or trees, trees, detail_limit)
    actual = CoreSwhid(object_type, ObjectId(raw))
    return VerificationReport(expected=core, actual=actual, detail=detail)


# --- line extraction ---------------------------------------------------------


def extract_lines(data: bytes, line_range: LineRange) -> bytes:
    """Return the 1-indexed inclusive line range of data.

    Lines are separated by LF only. An end past the last line clamps; a
    start past the last line raises RangeOutOfBoundsError. The result ends
    with LF only if the last extracted line did in the original bytes.
    """
    start = line_range.start
    end = line_range.end if line_range.end is not None else start
    # Split up to line end only. Capped by the length, as bytes.split
    # refuses a maxsplit past sys.maxsize.
    parts = data.split(b"\n", min(end, len(data)))
    if len(parts) > end:  # line `end` ends in LF
        return b"\n".join(parts[start - 1 : end]) + b"\n"
    count = len(parts) - (not parts[-1])  # all split; b"" after a final LF
    if start > count:
        raise RangeOutOfBoundsError(
            f"range starts at line {start} but content has {count} line(s)"
        )
    return b"\n".join(parts[start - 1 :])
