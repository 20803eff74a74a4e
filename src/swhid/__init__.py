"""Intrinsic, cryptographically verifiable identifiers for source code.

Identifiers name nodes of a Merkle DAG (file contents, directories,
revisions, releases, snapshots) by the sha1 of a canonical manifest, so
anyone holding the object can recompute and check its id without trusting
a registry.

Importing the package loads no submodule: each public name below is
imported from its submodule the first time it is read, so a program that
needs only swhid.syntax does not pay for the rest.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it, in __all__ order.
_SUBMODULE_OF = {
    "errors": "errors",
    **dict.fromkeys(
        "ObjectType ObjectId CoreSwhid LineRange QualifiedSwhid ParseDiagnostic"
        " SwhidParseError parse format_swhid validate".split(),
        "syntax",
    ),
    **dict.fromkeys(
        "Content DirectoryEntry Directory EntryPermission PersonStamp Revision Release"
        " BranchKind BranchTarget Snapshot content_id directory_id revision_id release_id"
        " snapshot_id manifest_of object_id_of swhid_of".split(),
        "model",
    ),
    "ObjectStore": "ingest",
    "NodeDescription": "describe",
    "VerificationReport": "ingest",
    "ingest_path": "ingest",
    "describe_nodes": "describe",
    "realize_descriptions": "describe",
    "verify_path": "ingest",
    "extract_lines": "ingest",
    **dict.fromkeys(
        "ResolverKind ResolverConfig ResolvedMetadata resolver_url resolve_metadata"
        " fetch_content_verified".split(),
        "resolve",
    ),
}

__all__ = [*_SUBMODULE_OF, "__version__"]


def __getattr__(name: str):
    submodule = _SUBMODULE_OF.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{submodule}")
    value = module if name == submodule else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
