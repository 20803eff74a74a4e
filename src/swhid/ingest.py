"""Filesystem ingestion, the deduplicating object store, and verification.

ingest_path() walks a tree once, hashing each file as a stream, and stores
one manifest per distinct object (a file is kept as its path, not its
bytes). Symlinks are never followed: the link target bytes are the content,
exactly as in version control. verify_path() recomputes an id and, given a
reference store, walks both trees to localize the divergence.
"""
from __future__ import annotations

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
        # [value, insertions]: the value is a manifest, or (as str) the path
        # of a file holding the content. One mapping, so an insert hashes
        # its key once.
        self._objects: Dict[Tuple[ObjectType, ObjectId], list] = {}
        self._lock = threading.Lock()

    def add(self, node: DagNode) -> CoreSwhid:
        """Store a node's manifest, returning its identifier."""
        return self._add_manifest(manifest_of(node))

    def _add_manifest(self, manifest: bytes) -> CoreSwhid:
        """Store a well-formed manifest; its type comes from the header's kind."""
        object_type = MANIFEST_KIND_TO_TYPE[manifest[: manifest.index(b" ")]]
        return self._insert(object_type, ObjectId(hashlib.sha1(manifest).digest()), manifest)

    def _insert(self, object_type: ObjectType, object_id: ObjectId, value) -> CoreSwhid:
        with self._lock:
            self._objects.setdefault((object_type, object_id), [value, 0])[1] += 1
        return CoreSwhid(object_type, object_id)

    def _emit(self, object_id: ObjectId, value, sink: Callable[[bytes], Any]) -> None:
        """Feed a manifest to sink; StoreError if a re-read file no longer matches its id."""
        if isinstance(value, bytes):
            sink(value)
            return
        try:
            _, digest = _read_file(value, sink)
        except UnreadableError as exc:
            raise StoreError(f"content {object_id.hex}: {exc}") from exc
        if digest != object_id.raw:
            raise StoreError(f"content {object_id.hex}: {value} changed since ingest")

    def get(self, object_type: ObjectType, object_id: ObjectId) -> Optional[bytes]:
        """The object's manifest, or None. StoreError if its file changed."""
        entry = self._objects.get((object_type, object_id))
        if entry is None:
            return None
        pieces: List[bytes] = []
        self._emit(object_id, entry[0], pieces.append)
        return b"".join(pieces)

    def insertions(self, object_type: ObjectType, object_id: ObjectId) -> int:
        """How many times add() has seen this object."""
        entry = self._objects.get((object_type, object_id))
        return 0 if entry is None else entry[1]

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, key: Tuple[ObjectType, ObjectId]) -> bool:
        return key in self._objects

    def __iter__(self):
        return iter(self._objects)

    def audit(self) -> List[CoreSwhid]:
        """Re-hash every manifest; return identifiers that no longer match."""
        bad = []
        for (object_type, object_id), (value, _) in self._objects.items():
            digest = hashlib.sha1()
            try:
                self._emit(object_id, value, digest.update)
            except StoreError:
                pass  # the digest cannot match either
            if digest.digest() != object_id.raw:
                bad.append(CoreSwhid(object_type, object_id))
        return bad

    def save(self, root: Union[str, Path]) -> None:
        """Write manifests under root/objects/<2 hex>/<38 hex>.

        A file that no longer hashes to its id, or an OSError, raises
        StoreError. Each object is written under a temporary name and renamed
        into place, so a failed save leaves any earlier copy of it intact.
        """
        base = Path(root) / "objects"
        try:
            for (_, object_id), (value, _) in self._objects.items():
                hexid = object_id.hex
                bucket = base / hexid[:2]
                bucket.mkdir(parents=True, exist_ok=True)
                write_atomically(
                    bucket / hexid[2:],
                    lambda write: self._emit(object_id, value, write),
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
            for bucket in sorted(base.iterdir()):
                if not bucket.is_dir() or not _BUCKET_RE.fullmatch(bucket.name):
                    raise StoreError(f"unexpected entry {bucket.name!r} in objects/")
                where = f"objects/{bucket.name}/"
                for item in sorted(bucket.iterdir()):
                    if not _ITEM_RE.fullmatch(item.name):
                        raise StoreError(f"unexpected entry {item.name!r} in {where}")
                    manifest = item.read_bytes()
                    kind = manifest.split(b" ", 1)[0]
                    if kind not in MANIFEST_KIND_TO_TYPE:
                        raise StoreError(f"{where}{item.name}: unknown manifest kind {kind!r}")
                    header, nul, body = manifest.partition(b"\x00")
                    if not nul or header != b"%s %d" % (kind, len(body)):
                        raise StoreError(
                            f"{where}{item.name}: header does not give the body's length"
                        )
                    if store._add_manifest(manifest).object_id.hex != bucket.name + item.name:
                        raise StoreError(f"{where}{item.name}: bytes do not hash to the file name")
        except OSError as exc:
            raise StoreError(str(exc)) from exc
        return store


# --- filesystem ingestion ----------------------------------------------------


_CHUNK = 1 << 16
_REGULAR = EntryPermission.REGULAR_FILE.token
_EXECUTABLE = EntryPermission.EXECUTABLE_FILE.token
# A link in the last component fails to open, and a FIFO opens without
# blocking; fstat on the fd then says what was opened.
_OPEN_FLAGS = os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK


def _unreadable(path: str, exc: OSError) -> UnreadableError:
    return UnreadableError(f"{path}: {exc.strerror or exc}")


def _lstat_root(path: Union[str, Path]) -> os.stat_result:
    try:
        return os.lstat(path)
    except (OSError, ValueError):
        raise NotFoundError(f"{path}: no such file or directory") from None


def _read_file(path: str, sink: Optional[Callable[[bytes], Any]] = None) -> Tuple[int, bytes]:
    """A regular file's st_mode and the sha1 of its blob manifest.

    sink, if given, receives the manifest: header, then bytes. Mode, size and
    bytes come from one fd, whose fstat must show a regular file. A file that
    is not, that reads to another length than its size, or any OSError
    raises UnreadableError. A file under 64 KiB takes one read.
    """
    try:
        fd = os.open(path, _OPEN_FLAGS)
        try:
            st = os.fstat(fd)
            if not stat.S_ISREG(st.st_mode):
                raise UnreadableError(f"{path}: not a regular file")
            size, done = st.st_size, 0
            header = b"blob %d\x00" % size
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


def _scan(path: str, rel: str, excluded) -> Iterator[os.DirEntry]:
    """A directory's entries whose name and relative path are not excluded, by name."""
    prefix = f"{rel}/" if rel else ""
    try:
        with os.scandir(path) as it:
            kept = [
                e for e in it
                if not (excluded and (excluded(e.name) or excluded(prefix + e.name)))
            ]
    except OSError as exc:
        raise _unreadable(path, exc) from exc
    kept.sort(key=lambda entry: entry.name)
    return iter(kept)


def _ingest_leaf(
    path: str, is_link: bool, is_file: bool, store: ObjectStore
) -> Tuple[CoreSwhid, bytes]:
    if is_link:
        try:
            target = os.readlink(os.fsencode(path))
        except OSError as exc:
            raise _unreadable(path, exc) from exc
        return store.add(Content(target)), EntryPermission.SYMLINK.token
    if not is_file:
        raise UnsupportedNodeKindError(f"{path}: not a regular file, directory, or symlink")
    mode, digest = _read_file(path)
    token = _EXECUTABLE if mode & stat.S_IXUSR else _REGULAR
    return store._insert(ObjectType.CONTENT, ObjectId(digest), path), token


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
    mode = _lstat_root(path).st_mode
    # Absolute, so the store still finds its files after a chdir.
    root = os.path.join(os.getcwd(), os.fspath(path))
    if store is None:
        store = ObjectStore()
    if not stat.S_ISDIR(mode):
        swhid, _ = _ingest_leaf(root, stat.S_ISLNK(mode), stat.S_ISREG(mode), store)
        if collect is not None:
            collect.append(("", swhid))
        return swhid, store
    # One regex for all patterns, each anchored as fnmatchcase anchors it.
    excluded = excludes and re.compile("|".join(map(fnmatch.translate, excludes))).match
    # Post-order walk. A frame is a directory being read: name, relative
    # path, entries left, and the (name, mode token, raw id) rows of the
    # entries finished. Each entry is classified by its scandir type, with
    # no stat of its own; a file's mode comes from fstat when it is read.
    # Names from scandir are never empty and hold no '/' or NUL, so rows
    # skip the checks DirectoryEntry makes for library callers.
    frames = [("", "", _scan(root, "", excluded), [])]
    while frames:
        name, rel, children, rows = frames[-1]
        child = next(children, None)
        if child is None:
            frames.pop()
            body = tree_body(rows)
            swhid = store._add_manifest(b"tree %d\x00%s" % (len(body), body))
            token = EntryPermission.DIRECTORY.token
        else:
            name = child.name
            rel = f"{rel}/{name}" if rel else name
            try:
                is_dir = child.is_dir(follow_symlinks=False)
                is_link = child.is_symlink()
                is_file = child.is_file(follow_symlinks=False)
            except OSError as exc:
                raise _unreadable(child.path, exc) from exc
            if is_dir:
                frames.append((name, rel, _scan(child.path, rel, excluded), []))
                continue
            swhid, token = _ingest_leaf(child.path, is_link, is_file, store)
        if collect is not None:
            collect.append((rel, swhid))
        if frames:
            frames[-1][3].append((os.fsencode(name), token, swhid.object_id.raw))
    return swhid, store


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


def _tree_entries(object_id: ObjectId, manifest: bytes) -> Dict[bytes, Tuple[bytes, ObjectId]]:
    """name -> (mode, id) of a tree manifest; StoreError if it is malformed."""
    body = manifest[manifest.index(b"\x00") + 1 :]
    entries: Dict[bytes, Tuple[bytes, ObjectId]] = {}
    pos = 0
    try:
        while pos < len(body):
            space = body.index(b" ", pos)
            nul = body.index(b"\x00", space)
            name = body[space + 1 : nul]
            entries[name] = (body[pos:space], ObjectId(body[nul + 1 : nul + 21]))
            pos = nul + 21
    except ValueError:
        raise StoreError(f"tree {object_id.hex}: malformed entry at byte {pos}")
    return entries


def _localize(
    expected_id: ObjectId,
    actual_id: ObjectId,
    reference: ObjectStore,
    actual_store: ObjectStore,
    limit: int,
) -> Tuple[EntryMismatch, ...]:
    """The first limit divergences of a depth-first walk of both trees."""
    out: List[EntryMismatch] = []
    tree = EntryPermission.DIRECTORY.token
    # (path, expected (mode, id) or None, actual one or None); the entries
    # of a directory are pushed in reverse so they pop in name order.
    stack = [("", (tree, expected_id), (tree, actual_id))]
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
        elif exp[0] == act[0] == tree:
            # Two trees: descend when both stores hold them, else report the pair.
            expected = reference.get(ObjectType.DIRECTORY, exp[1])
            actual = actual_store.get(ObjectType.DIRECTORY, act[1])
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
        out.append(EntryMismatch(rel, exp and exp[1].hex, act and act[1].hex, note))
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
    actual, actual_store = ingest_path(path, excludes)
    # An empty store holds no expected tree, so the detail is the root alone.
    store = ObjectStore() if reference is None else reference
    detail = _localize(core.object_id, actual.object_id, store, actual_store, detail_limit)
    return VerificationReport(expected=core, actual=actual, detail=detail)


# --- line extraction ---------------------------------------------------------


def extract_lines(data: bytes, line_range: LineRange) -> bytes:
    """Return the 1-indexed inclusive line range of data.

    Lines are separated by LF only. An end past the last line clamps; a
    start past the last line raises RangeOutOfBoundsError. The result ends
    with LF only if the last extracted line did in the original bytes.
    """
    physical = data.split(b"\n")
    if data.endswith(b"\n") or not data:
        physical = physical[:-1]
    count = len(physical)
    start = line_range.start
    end = line_range.end if line_range.end is not None else start
    if start > count:
        raise RangeOutOfBoundsError(
            f"range starts at line {start} but content has {count} line(s)"
        )
    end = min(end, count)
    selected = b"\n".join(physical[start - 1 : end])
    if end < count or data.endswith(b"\n"):
        selected += b"\n"
    return selected
