"""Description documents: every schema error, pinned by message and location."""
import functools
import json
import random

import gen
import pytest
from hypothesis import example, given, settings, strategies as st
from oracle import hash_texts

from swhid.errors import ExitStatus, ModelError, SchemaError, UnknownReferenceError
from swhid.describe import NodeDescription, describe_nodes, realize_descriptions
from swhid.ingest import ObjectStore
from swhid.model import (
    BranchTarget,
    PersonStamp,
    Revision,
    Snapshot,
    manifest_of,
    revision_id,
    swhid_of,
)
from swhid.syntax import ObjectId, ObjectType

from builders import (
    BUILT, DROP, EMPTY_TREE, MUTATIONS, doc, mutate, person, release, revision, snapshot
)

_SURROGATE = "string holds a lone surrogate, which UTF-8 cannot encode"

# (id, document, location or None for UnknownReferenceError, message).
# One row per place describe_nodes raises SchemaError, then rows that pin
# which of two errors is reported first, then hostile documents.
_CASES = [
    ("not-json", b"{", "$",
     "not valid JSON: Expecting property name enclosed in double quotes:"
     " line 1 column 2 (char 1)"),
    ("not-utf8", b"[\xff]", "$",
     "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 1:"
     " invalid start byte"),
    ("top-level-not-list", b"{}", "$", "top-level value must be a list"),
    ("entry-not-object", b"[1]", "$[0]", "each description must be an object"),
    ("type-missing", b"[{}]", "$[0]", "missing required field 'type'"),
    ("type-wrong-type", b'[{"type": 1}]', "$[0].type",
     "field 'type' has the wrong type"),
    ("type-unknown", b'[{"type": "blob"}]', "$[0].type",
     "unknown node type 'blob' (expected revision, release, or snapshot)"),
    ("label-empty", doc(revision(label="")), "$[0].label",
     "label must be a non-empty string"),
    ("label-not-string", doc(revision(label=7)), "$[0].label",
     "label must be a non-empty string"),
    ("label-duplicate", doc(revision(label="a"), release(label="a")),
     "$[1].label", "duplicate label 'a'"),
    ("parents-not-list", doc(revision(parents="x")), "$[0].parents",
     "field 'parents' has the wrong type"),
    ("parent-not-string", doc(revision(parents=[EMPTY_TREE, 5])),
     "$[0].parents[1]", "object reference must be a string"),
    ("tree-missing", doc(revision(tree=DROP)), "$[0]",
     "missing required field 'tree'"),
    ("tree-empty-label", doc(revision(tree="label:")), "$[0].tree",
     "empty label reference"),
    ("tree-bad-hex", doc(revision(tree=EMPTY_TREE.upper())), "$[0].tree",
     f"{EMPTY_TREE.upper()!r} is neither 40 lowercase hex digits nor 'label:<name>'"),
    ("message-and-b64", doc(revision(message_b64="bQ==")), "$[0]",
     "both 'message' and 'message_b64' given"),
    ("message-not-string", doc(revision(message=5)), "$[0].message",
     "field 'message' must be a string"),
    ("message-b64-not-string", doc(revision(message=DROP, message_b64=5)),
     "$[0].message_b64", "field 'message_b64' must be a string"),
    ("message-b64-bad", doc(revision(message=DROP, message_b64="!!")),
     "$[0].message_b64", "bad base64 in 'message_b64': Only base64 data is allowed"),
    ("message-missing", doc(revision(message=DROP)), "$[0]",
     "missing required field 'message'"),
    ("author-missing", doc(revision(author=DROP)), "$[0]",
     "missing required field 'author'"),
    ("author-date-missing", doc(revision(author_date=DROP)), "$[0]",
     "missing required field 'author_date'"),
    ("author-date-not-object", doc(revision(author_date=[])), "$[0].author_date",
     "field 'author_date' has the wrong type"),
    ("seconds-float", doc(revision(author_date={"seconds": 1.5, "offset": "+0000"})),
     "$[0].author_date.seconds", "field 'seconds' has the wrong type"),
    ("seconds-bool", doc(revision(committer_date={"seconds": True, "offset": "+0000"})),
     "$[0].committer_date", "field 'seconds' has the wrong type"),
    ("offset-missing", doc(revision(author_date={"seconds": 0})),
     "$[0].author_date", "missing required field 'offset'"),
    ("offset-bad", doc(revision(author_date={"seconds": 0, "offset": "+2"})),
     "$[0].author_date", "UTC offset '+2' is not +HHMM/-HHMM"),
    ("person-newline", doc(revision(author="A\nB")), "$[0].author_date",
     "person bytes contain a newline"),
    ("extra-headers-not-list", doc(revision(extra_headers={"k": "v"})),
     "$[0].extra_headers", "field 'extra_headers' must be a list of [key, value] pairs"),
    ("extra-header-not-pair", doc(revision(extra_headers=[["k", "v"], ["k"]])),
     "$[0].extra_headers[1]", "expected a [key, value] string pair"),
    ("extra-header-not-strings", doc(revision(extra_headers=[["k", 1]])),
     "$[0].extra_headers[0]", "expected a [key, value] string pair"),
    ("target-type-missing", doc(release(target_type=DROP)), "$[0]",
     "missing required field 'target_type'"),
    ("target-type-unknown", doc(release(target_type="blob")), "$[0].target_type",
     "unknown object type name 'blob'"),
    ("tagger-date-without-tagger", doc(release(tagger=DROP)), "$[0]",
     "'tagger_date' given without 'tagger'"),
    ("tagger-date-missing", doc(release(tagger_date=DROP)), "$[0]",
     "missing required field 'tagger_date'"),
    ("target-not-string", doc(release(target=[])), "$[0].target",
     "field 'target' has the wrong type"),
    ("name-b64-and-name", doc(release(name_b64="djE=")), "$[0]",
     "both 'name' and 'name_b64' given"),
    ("branches-not-object", doc(snapshot([])), "$[0].branches",
     "field 'branches' has the wrong type"),
    ("branch-not-object", doc(snapshot({"b": 1})), "$[0].branches['b']",
     "branch must be null or an object"),
    ("branch-kind-missing", doc(snapshot({"b": {"target": EMPTY_TREE}})),
     "$[0].branches['b']", "missing required field 'target_type'"),
    ("branch-kind-unknown", doc(snapshot({"b": {"target_type": "tag", "target": EMPTY_TREE}})),
     "$[0].branches['b']", "unknown branch target type 'tag'"),
    ("branch-dangling-object", doc(snapshot({"b": {"target_type": "dangling"}})),
     "$[0].branches['b']", "dangling branches are written as null"),
    ("branch-target-missing", doc(snapshot({"b": {"target_type": "revision"}})),
     "$[0].branches['b']", "missing required field 'target'"),
    ("branch-target-bad-hex", doc(snapshot({"b": {"target_type": "revision", "target": "x"}})),
     "$[0].branches['b'].target", "'x' is neither 40 lowercase hex digits nor 'label:<name>'"),
    ("alias-target-not-string", doc(snapshot({"b": {"target_type": "alias", "target": 5}})),
     "$[0].branches['b'].target", "field 'target' must be a string"),
    ("alias-target-bad-b64", doc(snapshot({"b": {"target_type": "alias", "target_b64": "YQ"}})),
     "$[0].branches['b'].target_b64", "bad base64 in 'target_b64': Incorrect padding"),
    ("undefined-label", doc(snapshot({"b": {"target_type": "release", "target": "label:r"}})),
     None, "label 'r' is never defined"),
    # Two errors in one document: the first one checked is reported.
    ("bad-tree-and-parent", doc(revision(tree="t", parents=["p"])), "$[0].parents[0]",
     "'p' is neither 40 lowercase hex digits nor 'label:<name>'"),
    ("undefined-tree-and-parent", doc(revision(tree="label:x", parents=["label:y"])),
     None, "label 'x' is never defined"),
    ("bad-target-type-and-target", doc(release(target_type="blob", target="t")),
     "$[0].target_type", "unknown object type name 'blob'"),
    # Hostile documents.
    ("deep-nesting", b"[" * 100000, "$",
     "not valid JSON: maximum recursion depth exceeded while decoding a JSON array"
     " from a unicode string"),
    ("huge-integer",
     b'[{"type": "revision", "author_date": {"seconds": ' + b"9" * 5000 + b"}}]", "$",
     "not valid JSON: Exceeds the limit (4300 digits) for integer string conversion:"
     " value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
    ("surrogate-message", doc(revision(message="\udce9")), "$[0].message", _SURROGATE),
    ("surrogate-author", doc(revision(author="A \udce9")), "$[0].author", _SURROGATE),
    ("surrogate-branch-name", doc(snapshot({"\udce9": None})),
     "$[0].branches['\\udce9']", _SURROGATE),
    ("surrogate-header-value", doc(revision(extra_headers=[["k", "\udce9"]])),
     "$[0].extra_headers[0]", _SURROGATE),
]


@pytest.mark.parametrize(
    "document, location, message",
    [case[1:] for case in _CASES],
    ids=[case[0] for case in _CASES],
)
def test_describe_rejects_malformed_document(document, location, message):
    if location is None:
        with pytest.raises(UnknownReferenceError) as excinfo:
            describe_nodes(document)
        assert str(excinfo.value) == message
        return
    with pytest.raises(SchemaError) as excinfo:
        describe_nodes(document)
    assert excinfo.value.location == location
    assert str(excinfo.value) == f"{location}: {message}"



def _round_trip() -> list:
    """A snapshot that names revision "tip" before the entry defining it, and a release of tip."""
    ann = "Ann <ann@example.org>"
    date = {"seconds": 1234567890, "offset": "+0200"}
    branches = {
        "refs/heads/main": {"target_type": "revision", "target": "label:tip"},
        "HEAD": {"target_type": "alias", "target": "refs/heads/main"},
        "refs/gone": None,
    }
    return [
        snapshot(branches, label="snap"),
        revision(label="tip", author=ann, author_date=date, committer=ann,
                 committer_date=date, message="initial\n"),
        release(label="v1", target="label:tip", target_type="revision", name="v1.0",
                message="notes\n", tagger=ann,
                tagger_date={"seconds": 1234567891, "offset": "+0200"}),
    ]


def test_describe_and_realize_round_trip():
    descriptions = describe_nodes(doc(*_round_trip()))
    assert [d.kind for d in descriptions] == [
        ObjectType.SNAPSHOT,
        ObjectType.REVISION,
        ObjectType.RELEASE,
    ]
    store = ObjectStore()
    realized = realize_descriptions(descriptions, store)
    assert len(realized) == 3
    ids = {swhid.object_type: swhid for swhid, _ in realized}

    stamp = PersonStamp(b"Ann <ann@example.org>", 1234567890, "+0200")
    tip = Revision(
        tree=ObjectId.from_hex(EMPTY_TREE),
        parents=(),
        author=stamp,
        committer=stamp,
        message=b"initial\n",
    )
    assert ids[ObjectType.REVISION] == swhid_of(tip)
    assert ids[ObjectType.SNAPSHOT].object_id == swhid_of(
        Snapshot(
            {
                b"refs/heads/main": BranchTarget.to_object(
                    ObjectType.REVISION, revision_id(tip)
                ),
                b"HEAD": BranchTarget.to_alias(b"refs/heads/main"),
                b"refs/gone": BranchTarget.dangling_ref(),
            }
        )
    ).object_id
    # Everything landed in the store.
    for swhid, _ in realized:
        assert store.get(swhid.object_type, swhid.object_id) is not None


def test_describe_forward_references_allowed():
    # The snapshot above references "tip" before it is defined.
    descriptions = describe_nodes(doc(*_round_trip()))
    realized = realize_descriptions(descriptions)
    assert realized[0][0].object_type is ObjectType.SNAPSHOT


def test_describe_rejects_bad_json():
    with pytest.raises(SchemaError):
        describe_nodes(b"")
    with pytest.raises(SchemaError):
        describe_nodes(b"{")
    with pytest.raises(SchemaError):
        describe_nodes(b'{"type": "revision"}')  # not a list


def test_describe_rejects_unknown_type():
    with pytest.raises(SchemaError) as excinfo:
        describe_nodes(b'[{"type": "blob"}]')
    assert excinfo.value.location == "$[0].type"


def test_describe_rejects_bad_hex():
    document = _round_trip()
    document[1]["tree"] = "not-hex"
    with pytest.raises(SchemaError) as excinfo:
        describe_nodes(doc(*document))
    assert excinfo.value.location == "$[1].tree"


def test_describe_rejects_bad_offset():
    document = _round_trip()
    document[1]["author_date"] = {"seconds": 1234567890, "offset": "+2"}
    with pytest.raises(SchemaError) as excinfo:
        describe_nodes(doc(*document))
    assert "author_date" in excinfo.value.location


def test_describe_rejects_duplicate_labels():
    document = _round_trip()
    document[2]["label"] = "tip"
    with pytest.raises(SchemaError):
        describe_nodes(doc(*document))


def test_describe_rejects_undefined_label():
    document = _round_trip()
    document[0]["branches"]["refs/heads/main"]["target"] = "label:nowhere"
    with pytest.raises(UnknownReferenceError):
        describe_nodes(doc(*document))


def test_describe_base64_fields():
    document = doc(
        release(
            target="aa" * 20,
            target_type="revision",
            name=DROP,
            name_b64="djEuMA==",  # "v1.0"
            message=DROP,
            message_b64="aGkA",  # "hi\0"
        )
    )
    (description,) = describe_nodes(document)
    assert description.fields["name"] == b"v1.0"
    assert description.fields["message"] == b"hi\x00"


def test_describe_rejects_missing_fields():
    with pytest.raises(SchemaError):
        describe_nodes(b'[{"type": "revision", "parents": []}]')


def test_describe_rejects_tagger_date_without_tagger():
    document = doc(release(target="aa" * 20, target_type="revision", tagger=DROP))
    with pytest.raises(SchemaError):
        describe_nodes(document)


def test_describe_extra_headers():
    document = doc(revision(extra_headers=[["encoding", "ISO-8859-1"]]))
    (description,) = describe_nodes(document)
    ((swhid, node),) = realize_descriptions([description])
    assert b"encoding ISO-8859-1\n" in manifest_of(node)


def _chain(order) -> list:
    """Revisions r0 <- r1 <- ... <- r5, a release of r3 and a snapshot."""
    entries = [
        revision(
            label=f"r{index}",
            parents=[f"label:r{index - 1}"] if index else [],
            author_date={"seconds": index, "offset": "+0000"},
            committer_date={"seconds": index, "offset": "+0000"},
            message=f"commit {index}\n",
        )
        for index in range(6)
    ]
    entries.append(
        release(label="v1", target="label:r3", target_type="revision",
                tagger=DROP, tagger_date=DROP)
    )
    branches = {
        "main": {"target_type": "revision", "target": "label:r5"},
        "v1": {"target_type": "release", "target": "label:v1"},
    }
    entries.append(snapshot(branches, label="snap"))
    return [entries[i] for i in order]


def test_realize_mixed_order_matches_oldest_first():
    oldest = describe_nodes(doc(*_chain(range(8))))
    expected = {
        d.label: swhid for d, (swhid, _) in zip(oldest, realize_descriptions(oldest))
    }
    # Forward and backward references, in document order.
    mixed = [7, 2, 5, 0, 6, 4, 1, 3]
    descriptions = describe_nodes(doc(*_chain(mixed)))
    realized = realize_descriptions(descriptions)
    assert {d.label: swhid for d, (swhid, _) in zip(descriptions, realized)} == expected

    # A cycle (c1 <-> c2), a node hanging off it (c3), and a dropped
    # definition (r5): the realizable part still goes into the store, and
    # the error names every label left unresolved.
    document = _chain(mixed)
    for label, parent in (("c1", "c2"), ("c2", "c1"), ("c3", "c1")):
        document.append(dict(document[3], label=label, parents=[f"label:{parent}"]))
    stuck = [d for d in describe_nodes(doc(*document)) if d.label != "r5"]
    store = ObjectStore()
    with pytest.raises(UnknownReferenceError) as excinfo:
        realize_descriptions(stuck, store)
    assert str(excinfo.value) == "reference cycle or undefined labels: c1, c2, r5"
    assert set(store) == {
        (expected[label].object_type, expected[label].object_id)
        for label in ("r0", "r1", "r2", "r3", "r4", "v1")
    }


def test_realize_reports_unresolvable_labels():
    # A self-reference can never resolve.
    document = doc(
        release(label="a", target="label:a", target_type="release", name="x",
                tagger=DROP, tagger_date=DROP)
    )
    descriptions = describe_nodes(document)
    with pytest.raises(UnknownReferenceError):
        realize_descriptions(descriptions)


@pytest.mark.parametrize("kind", [ObjectType.CONTENT, ObjectType.DIRECTORY, "content"])
def test_realize_refuses_a_kind_it_cannot_build(kind):
    descriptions = [*describe_nodes(doc(revision())), NodeDescription(kind, None, {"data": b"x"})]
    with pytest.raises(SchemaError) as excinfo:
        realize_descriptions(descriptions)
    assert (excinfo.value.location, str(excinfo.value)) == (
        "$[1]", f"$[1]: cannot realize a node of kind {kind!r}"
    )


# Documents describe_nodes accepts but a model constructor refuses while
# realize_descriptions builds the entry.
_MODEL_RULES = [
    ("empty-release-name", doc(snapshot({}), release(name="")), "$[1]",
     "release name is empty"),
    ("header-key-with-space", doc(revision(extra_headers=[["a b", "v"]])), "$[0]",
     "extra header key b'a b' is not a single word"),
    ("branch-name-with-nul", doc(snapshot({"a\u0000b": None})), "$[0]",
     "branch name b'a\\x00b' contains NUL"),
]


@pytest.mark.parametrize(
    "document, location, message",
    [case[1:] for case in _MODEL_RULES],
    ids=[case[0] for case in _MODEL_RULES],
)
def test_realize_reports_a_model_rule_as_schema_error(document, location, message):
    descriptions = describe_nodes(document)
    with pytest.raises(SchemaError) as excinfo:
        realize_descriptions(descriptions)
    assert excinfo.value.location == location
    assert str(excinfo.value) == f"{location}: {message}"
    assert isinstance(excinfo.value.__cause__, ModelError)
    assert excinfo.value.exit_status == ExitStatus.USAGE


def test_describe_rejects_non_ascii_base64():
    with pytest.raises(SchemaError) as excinfo:
        describe_nodes(doc(revision(message=DROP, message_b64="m\u00e9")))
    assert excinfo.value.location == "$[0].message_b64"
    assert str(excinfo.value) == (
        "$[0].message_b64: bad base64 in 'message_b64':"
        " string argument should contain only ASCII characters"
    )


def test_described_history_matches_git(oracle):
    author = ("Ann", "ann@example.org", 1234567890, "+0200")
    committer = ("Bob", "bob@example.org", 1234567899, "-0130")
    tagger = ("Cy", "cy@example.org", 1234567999, "+0000")

    def commit(label, parents, message):
        return revision(
            label=label, parents=parents, message=message,
            **person("author", author), **person("committer", committer),
        )

    # Newest first: each label is used before the entry that defines it.
    document = [
        release(
            target="label:tip", target_type="revision", name="v1.0",
            message="first release\n", **person("tagger", tagger),
        ),
        commit("tip", ["label:base"], "second\n"),
        commit("base", [], "first\n"),
    ]
    realized = realize_descriptions(describe_nodes(doc(*document)))
    base = oracle.commit_id(EMPTY_TREE, [], author, committer, b"first\n")
    tip = oracle.commit_id(EMPTY_TREE, [base], author, committer, b"second\n")
    tag = oracle.tag_id(tip, "v1.0", b"first release\n", tagger)
    assert [str(swhid) for swhid, _ in realized] == [
        f"swh:1:rel:{tag}", f"swh:1:rev:{tip}", f"swh:1:rev:{base}"
    ]


# --- mutated documents ----------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _base(source: str):
    """The entries of a generated or built document, and the id each realizes to."""
    data = gen.history(1).newest_first if source == "history" else doc(*BUILT)
    return json.loads(data), [swhid for swhid, _ in realize_descriptions(describe_nodes(data))]


@settings(max_examples=20, deadline=None)
@example(source="built", mutation="drop", seed=23)  # r1's extra header: r1, v1 and snap change
@given(
    source=st.sampled_from(["built", "history"]),
    mutation=st.sampled_from(MUTATIONS),
    seed=st.integers(0, 2**32),
)
def test_mutated_document_is_refused_or_realized_as_git_hashes_it(
    session_oracle, source, mutation, seed
):
    entries, ids = _base(source)
    data = doc(*mutate(entries, mutation, random.Random(seed)))
    try:
        realized = realize_descriptions(describe_nodes(data))
    except (SchemaError, UnknownReferenceError):
        return
    assert len(realized) == len(entries)
    changed = {ObjectType.REVISION: [], ObjectType.RELEASE: []}
    for (swhid, node), before in zip(realized, ids):
        if swhid != before and swhid.object_type in changed:
            changed[swhid.object_type].append((swhid.object_id.hex, manifest_of(node)))
    for object_type, kind in ((ObjectType.REVISION, "commit"), (ObjectType.RELEASE, "tag")):
        if changed[object_type]:  # one git child per type, checking each object's format
            hexes, manifests = zip(*changed[object_type])
            bodies = [manifest.partition(b"\x00")[2] for manifest in manifests]
            texts = session_oracle.root / "texts"
            assert hash_texts(session_oracle.root / ".git", kind, bodies, texts) == list(hexes)
