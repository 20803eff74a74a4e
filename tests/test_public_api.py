"""The package's public names, and the module paths the benchmark patches."""
import swhid
import swhid.describe
import swhid.ingest
import swhid.model


_PUBLIC_NAMES = [
    "errors", "ObjectType", "ObjectId", "CoreSwhid", "LineRange", "QualifiedSwhid",
    "ParseDiagnostic", "SwhidParseError", "parse", "format_swhid", "validate",
    "Content", "DirectoryEntry", "Directory", "EntryPermission", "PersonStamp",
    "Revision", "Release", "BranchKind", "BranchTarget", "Snapshot", "content_id",
    "directory_id", "revision_id", "release_id", "snapshot_id", "manifest_of",
    "object_id_of", "swhid_of", "ObjectStore", "NodeDescription",
    "VerificationReport", "ingest_path", "describe_nodes", "realize_descriptions",
    "verify_path", "extract_lines", "ResolverKind", "ResolverConfig",
    "ResolvedMetadata", "resolver_url", "resolve_metadata", "fetch_content_verified",
    "__version__",
]


def test_public_names_and_reexports():
    assert swhid.__all__ == _PUBLIC_NAMES
    for name in ("NodeDescription", "describe_nodes", "realize_descriptions"):
        assert getattr(swhid, name) is getattr(swhid.describe, name)
    # perfbench's tracer patches these two on swhid.ingest by name.
    assert swhid.ingest.manifest_of is swhid.model.manifest_of
    assert swhid.ingest.object_id_of is swhid.model.object_id_of
