"""Intrinsic, cryptographically verifiable identifiers for source code.

Identifiers name nodes of a Merkle DAG (file contents, directories,
revisions, releases, snapshots) by the sha1 of a canonical manifest, so
anyone holding the object can recompute and check its id without trusting
a registry.
"""
from . import errors
from .describe import NodeDescription, describe_nodes, realize_descriptions
from .ingest import (
    ObjectStore,
    VerificationReport,
    extract_lines,
    ingest_path,
    verify_path,
)
from .model import (
    BranchKind,
    BranchTarget,
    Content,
    Directory,
    DirectoryEntry,
    EntryPermission,
    PersonStamp,
    Release,
    Revision,
    Snapshot,
    content_id,
    directory_id,
    manifest_of,
    object_id_of,
    release_id,
    revision_id,
    snapshot_id,
    swhid_of,
)
from .resolve import (
    ResolvedMetadata,
    ResolverConfig,
    ResolverKind,
    fetch_content_verified,
    resolve_metadata,
    resolver_url,
)
from .syntax import (
    CoreSwhid,
    LineRange,
    ObjectId,
    ObjectType,
    ParseDiagnostic,
    QualifiedSwhid,
    SwhidParseError,
    format_swhid,
    parse,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "ObjectType",
    "ObjectId",
    "CoreSwhid",
    "LineRange",
    "QualifiedSwhid",
    "ParseDiagnostic",
    "SwhidParseError",
    "parse",
    "format_swhid",
    "validate",
    "Content",
    "DirectoryEntry",
    "Directory",
    "EntryPermission",
    "PersonStamp",
    "Revision",
    "Release",
    "BranchKind",
    "BranchTarget",
    "Snapshot",
    "content_id",
    "directory_id",
    "revision_id",
    "release_id",
    "snapshot_id",
    "manifest_of",
    "object_id_of",
    "swhid_of",
    "ObjectStore",
    "NodeDescription",
    "VerificationReport",
    "ingest_path",
    "describe_nodes",
    "realize_descriptions",
    "verify_path",
    "extract_lines",
    "ResolverKind",
    "ResolverConfig",
    "ResolvedMetadata",
    "resolver_url",
    "resolve_metadata",
    "fetch_content_verified",
    "__version__",
]
