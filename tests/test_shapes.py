"""The declared document shapes: what the library writes fits them, and a
refusal names the first misfit's JSON path."""

import contextlib
import io
import json

import pytest

from schemoids import cli, corpus, shapes
from schemoids.extensions import trivial_system
from schemoids.fincat import (
    CategoryError,
    MalformedDocument,
    cyclic_group_table,
    one_object_group,
    serialize_groupoid,
)
from schemoids.schemes import group_scheme, hamming, serialize_scheme


def example_document(name):
    """The document `schemoids examples NAME` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["examples", name]) == 0
    return json.loads(out.getvalue())


def written_documents():
    """(spec, document) for every kind of document the library writes."""
    z3 = one_object_group(*cyclic_group_table(3))
    docs = [(shapes.EXTENSION if entry.kind == "extension" else shapes.BUNDLE,
             example_document(name)) for name, entry in sorted(corpus.ENTRIES.items())]
    docs += [(shapes.SYSTEM, cli.system_to_json(trivial_system(z3.base, modulus, 2)))
             for modulus in (3, None)]
    docs += [(shapes.GROUPOID, serialize_groupoid(z3))]
    docs += [(shapes.SCHEME, serialize_scheme(s))
             for s in (hamming(2, 3), group_scheme(*cyclic_group_table(4)))]
    return docs


DOCUMENTS = written_documents()


def test_check_admits_what_the_library_writes():
    assert {spec.name for spec, _ in DOCUMENTS} >= {"bundle", "extension", "groupoid", "scheme"}
    for spec, doc in DOCUMENTS:
        assert shapes.check(spec, doc) is doc, doc


@pytest.mark.parametrize("spec, doc, at, cls, path, message", [
    (shapes.SYSTEM, {"ranks": {}, "push": [["a", "b", [[1]]]] * 3 + [["a", "b"]], "pull": []},
     "system", MalformedDocument, "system.push[3]",
     "system.push[3]: [a, b, matrix] expected, not 2 entries"),
    (shapes.SCHEME, {"size": 2, "relations": [[0, 1], [1, True]]}, "", MalformedDocument,
     "relations[1][1]", "relations: an array of arrays of integers expected; "
                        "relations[1][1]: an integer expected, not bool"),
    (shapes.BUNDLE, {"category": {"objects": 5}}, "", CategoryError, "category.objects",
     "category.objects: a JSON array expected, not int"),
    (shapes.BUNDLE, {"partition": {"blocks": {}}}, "", MalformedDocument, "category",
     "category: missing from the bundle"),
    (shapes.GROUPOID, {"objects": [], "morphisms": [], "identities": {}, "compose": [],
                       "inverse": {"f": 1}}, "", MalformedDocument, "inverse.f",
     "inverse.f: a string expected, not int"),
    (shapes.BUNDLE, {"category": {"objects": [], "morphisms": [], "identities": {},
                                  "compose": [0, 1, True]}}, "", CategoryError,
     "category.compose[2]", "category.compose[2]: a morphism position expected, not bool"),
    (shapes.SYSTEM, {"kind": "trivial", "rank": -1}, "system", MalformedDocument, "system.rank",
     "system.rank: a non-negative integer expected, not -1"),
    (shapes.SYSTEM, {"kind": ["trivial"]}, "system", MalformedDocument, "system.kind",
     "system.kind: ['trivial'] is not 'trivial', 'induced' or 'explicit'"),
    (shapes.square(2), [["0", "1"], ["1", 0]], "table", MalformedDocument, "table[1][1]",
     "table: 2 rows of 2 entries expected; table[1][1]: a string expected, not int"),
    (shapes.COCYCLE, {"entries": [["a", "b", [1, "0"]]]}, "cocycle", MalformedDocument,
     "cocycle.entries[0][2]", "cocycle.entries[0]: [f, g, vector] expected; "
     "cocycle.entries[0][2]: an array of integers or one integer expected, not list"),
], ids=["push-entry", "bool-relation", "category-field", "missing", "inverse-entry",
        "table-entry-bool", "negative-rank", "list-kind", "table-entry", "cocycle-vector"])
def test_a_refusal_names_the_first_misfit(spec, doc, at, cls, path, message):
    with pytest.raises(cls) as err:
        shapes.check(spec, doc, at)
    assert type(err.value) is cls and str(err.value) == message and err.value.path == path


def test_composition_entries_are_named_only_when_the_read_fails():
    """CATEGORY finds each entry an array; COMPOSE, checked only when the
    read fails, names the entry that is no [f, g, fg]."""
    raw = {"objects": ["x"], "morphisms": [{"id": "1", "src": "x", "tgt": "x"}],
           "identities": {"x": "1"}, "compose": [["1", "1", "1"], [1, "1", "1"]]}
    assert shapes.check(shapes.CATEGORY, raw) is raw
    with pytest.raises(CategoryError) as err:
        shapes.check(shapes.COMPOSE, raw["compose"], "compose")
    assert err.value.path == "compose[1][0]"
    assert str(err.value) == ("compose[1]: a JSON array [f, g, fg] expected; "
                              "compose[1][0]: a string expected, not int")


def test_records_checked_a_field_at_a_time_are_walked_on_a_misfit():
    """A category's morphisms are checked a field at a time over all of
    them; a record without a field or with one of the wrong type is then
    walked to and named."""
    morphisms = [{"id": "1", "src": "x", "tgt": "x"}, {"id": "2", "src": "x"}]
    for bad, message in ((None, "category.morphisms[1].tgt: a string expected, not NoneType"),
                         ({"id": 2, "src": "x", "tgt": "x"},
                          "category.morphisms[1].id: a string expected, not int"),
                         ("2", "category.morphisms[1]: a JSON object expected, not str")):
        doc = {"objects": ["x"], "identities": {}, "compose": [],
               "morphisms": morphisms[:1] + ([bad] if bad else morphisms[1:])}
        with pytest.raises(CategoryError) as err:
            shapes.check(shapes.CATEGORY, doc, "category")
        assert str(err.value) == ("category.morphisms: each entry must be an object with id, "
                                  "src and tgt; " + message)
