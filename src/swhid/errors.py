"""Exception hierarchy shared by all swhid modules.

Everything raised on purpose by this package derives from SwhidError, so
callers can catch one base class. Each class names the CLI exit status it
ends in as its exit_status; this module is the only map from error to
exit code.
"""
from __future__ import annotations

import enum


class ExitStatus(enum.IntEnum):
    OK = 0
    MISMATCH = 1
    USAGE = 2
    IO_ERROR = 3


class SwhidError(Exception):
    """Base class for all errors raised by this package."""
    exit_status = ExitStatus.USAGE


# --- model / node construction -------------------------------------------

class ModelError(SwhidError):
    """Invalid Merkle node construction."""


class DuplicateNameError(ModelError):
    """A directory contains two entries with the same name."""


class InvalidNameError(ModelError):
    """A directory entry name is empty or contains NUL or '/'."""


class MalformedPersonError(ModelError):
    """A person stamp has a bad UTC offset or a newline in the raw bytes."""


class MalformedNameError(ModelError):
    """A release name is empty or contains NUL or newline."""


class InvalidBranchNameError(ModelError):
    """A snapshot branch name contains NUL."""


# --- ingest / filesystem ---------------------------------------------------

class IngestError(SwhidError):
    """Base class for filesystem ingestion failures."""
    exit_status = ExitStatus.IO_ERROR


class NotFoundError(IngestError):
    """The requested path does not exist."""


class UnreadableError(IngestError):
    """A file or directory exists but cannot be read."""


class UnsupportedNodeKindError(IngestError):
    """The path is neither a regular file, directory, nor symlink."""


class TypeMismatchError(IngestError):
    """The identifier's object type contradicts the node kind on disk."""
    exit_status = ExitStatus.USAGE


class RangeOutOfBoundsError(IngestError):
    """A line range starts beyond the last line of the content."""
    exit_status = ExitStatus.USAGE


class StoreError(SwhidError):
    """An object store directory is structurally invalid."""
    exit_status = ExitStatus.IO_ERROR


# --- description files -----------------------------------------------------

class SchemaError(SwhidError):
    """A node description document violates the expected schema."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location


class UnknownReferenceError(SwhidError):
    """A description references a label that cannot be resolved."""


# --- resolution ------------------------------------------------------------

class ResolveError(SwhidError):
    """Base class for archive resolution failures."""
    exit_status = ExitStatus.IO_ERROR


class NotFoundInArchiveError(ResolveError):
    """The archive does not know the requested identifier."""


class TypeContradictionError(ResolveError):
    """The archive holds the object under a different type."""
    exit_status = ExitStatus.MISMATCH


class TransportError(ResolveError):
    """Network-level failure talking to the archive."""


class IntegrityMismatchError(ResolveError):
    """Fetched bytes, or the archive's metadata, name another object."""
    exit_status = ExitStatus.MISMATCH

    def __init__(
        self,
        expected_hex: str,
        actual_hex: str,
        claim: str = "fetched bytes hash to",
    ):
        super().__init__(f"{claim} {actual_hex}, expected {expected_hex}")
        self.expected_hex = expected_hex
        self.actual_hex = actual_hex
