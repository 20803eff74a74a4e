"""Description documents: every schema error, pinned by message and location."""
import json

import pytest

from swhid.errors import ExitStatus, ModelError, SchemaError, UnknownReferenceError
from swhid.describe import describe_nodes, realize_descriptions

_TREE = "4b825dc642cb6eb9a060e54bf8d69288fbee4904"
_DROP = object()


def _node(base, changes):
    node = dict(base)
    for key, value in changes.items():
        if value is _DROP:
            del node[key]
        else:
            node[key] = value
    return node


def _revision(**changes):
    return _node(
        {
            "type": "revision",
            "tree": _TREE,
            "parents": [],
            "author": "A <a@x>",
            "author_date": {"seconds": 0, "offset": "+0000"},
            "committer": "A <a@x>",
            "committer_date": {"seconds": 0, "offset": "+0000"},
            "message": "m\n",
        },
        changes,
    )


def _release(**changes):
    return _node(
        {
            "type": "release",
            "target": _TREE,
            "target_type": "directory",
            "name": "v1",
            "message": "",
            "tagger": "A <a@x>",
            "tagger_date": {"seconds": 0, "offset": "+0000"},
        },
        changes,
    )


def _snapshot(branches):
    return {"type": "snapshot", "branches": branches}


def _doc(*nodes) -> bytes:
    return json.dumps(list(nodes)).encode()


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
    ("label-empty", _doc(_revision(label="")), "$[0].label",
     "label must be a non-empty string"),
    ("label-not-string", _doc(_revision(label=7)), "$[0].label",
     "label must be a non-empty string"),
    ("label-duplicate", _doc(_revision(label="a"), _release(label="a")),
     "$[1].label", "duplicate label 'a'"),
    ("parents-not-list", _doc(_revision(parents="x")), "$[0].parents",
     "field 'parents' has the wrong type"),
    ("parent-not-string", _doc(_revision(parents=[_TREE, 5])),
     "$[0].parents[1]", "object reference must be a string"),
    ("tree-missing", _doc(_revision(tree=_DROP)), "$[0]",
     "missing required field 'tree'"),
    ("tree-empty-label", _doc(_revision(tree="label:")), "$[0].tree",
     "empty label reference"),
    ("tree-bad-hex", _doc(_revision(tree=_TREE.upper())), "$[0].tree",
     f"{_TREE.upper()!r} is neither 40 lowercase hex digits nor 'label:<name>'"),
    ("message-and-b64", _doc(_revision(message_b64="bQ==")), "$[0]",
     "both 'message' and 'message_b64' given"),
    ("message-not-string", _doc(_revision(message=5)), "$[0].message",
     "field 'message' must be a string"),
    ("message-b64-not-string", _doc(_revision(message=_DROP, message_b64=5)),
     "$[0].message_b64", "field 'message_b64' must be a string"),
    ("message-b64-bad", _doc(_revision(message=_DROP, message_b64="!!")),
     "$[0].message_b64", "bad base64 in 'message_b64': Only base64 data is allowed"),
    ("message-missing", _doc(_revision(message=_DROP)), "$[0]",
     "missing required field 'message'"),
    ("author-missing", _doc(_revision(author=_DROP)), "$[0]",
     "missing required field 'author'"),
    ("author-date-missing", _doc(_revision(author_date=_DROP)), "$[0]",
     "missing required field 'author_date'"),
    ("author-date-not-object", _doc(_revision(author_date=[])), "$[0].author_date",
     "field 'author_date' has the wrong type"),
    ("seconds-float", _doc(_revision(author_date={"seconds": 1.5, "offset": "+0000"})),
     "$[0].author_date.seconds", "field 'seconds' has the wrong type"),
    ("seconds-bool", _doc(_revision(committer_date={"seconds": True, "offset": "+0000"})),
     "$[0].committer_date", "field 'seconds' has the wrong type"),
    ("offset-missing", _doc(_revision(author_date={"seconds": 0})),
     "$[0].author_date", "missing required field 'offset'"),
    ("offset-bad", _doc(_revision(author_date={"seconds": 0, "offset": "+2"})),
     "$[0].author_date", "UTC offset '+2' is not +HHMM/-HHMM"),
    ("person-newline", _doc(_revision(author="A\nB")), "$[0].author_date",
     "person bytes contain a newline"),
    ("extra-headers-not-list", _doc(_revision(extra_headers={"k": "v"})),
     "$[0].extra_headers", "field 'extra_headers' must be a list of [key, value] pairs"),
    ("extra-header-not-pair", _doc(_revision(extra_headers=[["k", "v"], ["k"]])),
     "$[0].extra_headers[1]", "expected a [key, value] string pair"),
    ("extra-header-not-strings", _doc(_revision(extra_headers=[["k", 1]])),
     "$[0].extra_headers[0]", "expected a [key, value] string pair"),
    ("target-type-missing", _doc(_release(target_type=_DROP)), "$[0]",
     "missing required field 'target_type'"),
    ("target-type-unknown", _doc(_release(target_type="blob")), "$[0].target_type",
     "unknown object type name 'blob'"),
    ("tagger-date-without-tagger", _doc(_release(tagger=_DROP)), "$[0]",
     "'tagger_date' given without 'tagger'"),
    ("tagger-date-missing", _doc(_release(tagger_date=_DROP)), "$[0]",
     "missing required field 'tagger_date'"),
    ("target-not-string", _doc(_release(target=[])), "$[0].target",
     "field 'target' has the wrong type"),
    ("name-b64-and-name", _doc(_release(name_b64="djE=")), "$[0]",
     "both 'name' and 'name_b64' given"),
    ("branches-not-object", _doc(_snapshot([])), "$[0].branches",
     "field 'branches' has the wrong type"),
    ("branch-not-object", _doc(_snapshot({"b": 1})), "$[0].branches['b']",
     "branch must be null or an object"),
    ("branch-kind-missing", _doc(_snapshot({"b": {"target": _TREE}})),
     "$[0].branches['b']", "missing required field 'target_type'"),
    ("branch-kind-unknown", _doc(_snapshot({"b": {"target_type": "tag", "target": _TREE}})),
     "$[0].branches['b']", "unknown branch target type 'tag'"),
    ("branch-dangling-object", _doc(_snapshot({"b": {"target_type": "dangling"}})),
     "$[0].branches['b']", "dangling branches are written as null"),
    ("branch-target-missing", _doc(_snapshot({"b": {"target_type": "revision"}})),
     "$[0].branches['b']", "missing required field 'target'"),
    ("branch-target-bad-hex", _doc(_snapshot({"b": {"target_type": "revision", "target": "x"}})),
     "$[0].branches['b'].target", "'x' is neither 40 lowercase hex digits nor 'label:<name>'"),
    ("alias-target-not-string", _doc(_snapshot({"b": {"target_type": "alias", "target": 5}})),
     "$[0].branches['b'].target", "field 'target' must be a string"),
    ("alias-target-bad-b64", _doc(_snapshot({"b": {"target_type": "alias", "target_b64": "YQ"}})),
     "$[0].branches['b'].target_b64", "bad base64 in 'target_b64': Incorrect padding"),
    ("undefined-label", _doc(_snapshot({"b": {"target_type": "release", "target": "label:r"}})),
     None, "label 'r' is never defined"),
    # Two errors in one document: the first one checked is reported.
    ("bad-tree-and-parent", _doc(_revision(tree="t", parents=["p"])), "$[0].parents[0]",
     "'p' is neither 40 lowercase hex digits nor 'label:<name>'"),
    ("undefined-tree-and-parent", _doc(_revision(tree="label:x", parents=["label:y"])),
     None, "label 'x' is never defined"),
    ("bad-target-type-and-target", _doc(_release(target_type="blob", target="t")),
     "$[0].target_type", "unknown object type name 'blob'"),
    # Hostile documents.
    ("deep-nesting", b"[" * 100000, "$",
     "not valid JSON: maximum recursion depth exceeded while decoding a JSON array"
     " from a unicode string"),
    ("huge-integer",
     b'[{"type": "revision", "author_date": {"seconds": ' + b"9" * 5000 + b"}}]", "$",
     "not valid JSON: Exceeds the limit (4300 digits) for integer string conversion:"
     " value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
    ("surrogate-message", _doc(_revision(message="\udce9")), "$[0].message", _SURROGATE),
    ("surrogate-author", _doc(_revision(author="A \udce9")), "$[0].author", _SURROGATE),
    ("surrogate-branch-name", _doc(_snapshot({"\udce9": None})),
     "$[0].branches['\\udce9']", _SURROGATE),
    ("surrogate-header-value", _doc(_revision(extra_headers=[["k", "\udce9"]])),
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


# Documents describe_nodes accepts but a model constructor refuses while
# realize_descriptions builds the entry.
_MODEL_RULES = [
    ("empty-release-name", _doc(_snapshot({}), _release(name="")), "$[1]",
     "release name is empty"),
    ("header-key-with-space", _doc(_revision(extra_headers=[["a b", "v"]])), "$[0]",
     "extra header key b'a b' is not a single word"),
    ("branch-name-with-nul", _doc(_snapshot({"a\u0000b": None})), "$[0]",
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
        describe_nodes(_doc(_revision(message=_DROP, message_b64="m\u00e9")))
    assert excinfo.value.location == "$[0].message_b64"
    assert str(excinfo.value) == (
        "$[0].message_b64: bad base64 in 'message_b64':"
        " string argument should contain only ASCII characters"
    )


def test_described_history_matches_git(oracle):
    author = ("Ann", "ann@example.org", 1234567890, "+0200")
    committer = ("Bob", "bob@example.org", 1234567899, "-0130")
    tagger = ("Cy", "cy@example.org", 1234567999, "+0000")

    def person(key, who):
        name, email, seconds, offset = who
        return {key: f"{name} <{email}>", f"{key}_date": {"seconds": seconds, "offset": offset}}

    def commit(label, parents, message):
        return {
            "type": "revision", "label": label, "tree": _TREE, "parents": parents,
            **person("author", author), **person("committer", committer), "message": message,
        }

    # Newest first: each label is used before the entry that defines it.
    document = [
        {
            "type": "release", "target": "label:tip", "target_type": "revision",
            "name": "v1.0", "message": "first release\n", **person("tagger", tagger),
        },
        commit("tip", ["label:base"], "second\n"),
        commit("base", [], "first\n"),
    ]
    realized = realize_descriptions(describe_nodes(_doc(*document)))
    base = oracle.commit_id(_TREE, [], author, committer, b"first\n")
    tip = oracle.commit_id(_TREE, [base], author, committer, b"second\n")
    tag = oracle.tag_id(tip, "v1.0", b"first release\n", tagger)
    assert [str(swhid) for swhid, _ in realized] == [
        f"swh:1:rel:{tag}", f"swh:1:rev:{tip}", f"swh:1:rev:{base}"
    ]

