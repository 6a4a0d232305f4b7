"""Malformed input never crashes the CLI.

Every subcommand that reads input gets small valid documents with one of
them spoiled: replaced by a random JSON value, cut short, or with one field
(at any depth) dropped or given a value of another type.  The CLI must
answer with exit 0, 1 or 2, never with exit 3 (the program's own error),
and a refusal must print its error envelope as stdout's last line, naming
a `SchemoidsError` class or a failed read (`JSONDecodeError`,
`FileNotFoundError`), never a built-in error of the decoding.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from schemoids import cli
from schemoids.bridges import s_tilde
from schemoids.extensions import trivial_system
from schemoids.fincat import (
    SchemoidsError,
    cyclic_group_table,
    one_object_group,
    serialize,
    serialize_groupoid,
)
from schemoids.schemes import hamming, j_embed, serialize_scheme


def call(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:       # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def seed_documents() -> dict:
    """One small valid document of every input kind."""
    h22 = hamming(2, 2)
    bundle = cli.bundle_to_json(j_embed(h22))
    z2 = one_object_group(*cyclic_group_table(2))
    return {
        "scheme": {"kind": "scheme", **serialize_scheme(h22)},
        "bundle": bundle,
        "category": bundle["category"],
        "groupoid": serialize_groupoid(z2),
        "pair-bundle": cli.bundle_to_json(s_tilde(z2)),
        "identity": {"objects": {x: x for x in bundle["category"]["objects"]},
                     "morphisms": {m["id"]: m["id"] for m in bundle["category"]["morphisms"]}},
        "z2-category": serialize(z2.base),
        "trivial-system": {"kind": "trivial", "modulus": 2, "rank": 1},
        "explicit-system": cli.system_to_json(trivial_system(z2.base, 2)),
        "cocycle": {"entries": []},
        "matrix": [[2, 1], [1, 2]],
        "group-table": {"elements": ["0", "1", "2"],
                        "table": [[str((i + j) % 3) for j in range(3)] for i in range(3)]},
        "perms": {"perms": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "size": 3},
        "example": json.loads(call(["examples", "ex2_8"])[1]),
        "extension": json.loads(call(["examples", "ex5_10_e0"])[1]),
    }


# argv per subcommand; "@kind" names the document of that kind
COMMANDS = [
    ["validate", "@category"],
    ["validate", "@bundle"],
    ["analyze", "@bundle"],
    ["analyze", "@example"],
    ["constants", "@bundle"],
    ["algebra", "@bundle"],
    ["terwilliger", "@bundle", "--object", "00"],
    ["embed-scheme", "@scheme"],
    ["from-groupoid", "@groupoid"],
    ["to-groupoid", "@pair-bundle"],
    ["roundtrip-check", "@groupoid"],
    ["admissible", "@bundle", "@bundle", "@identity"],
    ["cohomology", "@z2-category", "@trivial-system"],
    ["cohomology", "@z2-category", "@explicit-system", "--degree", "1"],
    ["extend", "@z2-category", "@trivial-system", "@cocycle"],
    ["split", "@extension"],
    ["equivalent", "@extension", "@extension"],
    ["thicken", "@scheme", "--z", "2"],
    ["thicken", "--matrix", "@matrix"],
    ["gen", "group-scheme", "@group-table"],
    ["gen", "orbits", "@perms"],
]

DOCS = seed_documents()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 7) | st.text("ab0,|", max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text("ab", max_size=2), kids,
                                                              max_size=3),
    max_leaves=6)

OTHER_TYPES = (None, True, 5, -1, "x", [], {}, [[0]])


def refusal_names() -> set:
    """The classes a refusal may name: SchemoidsError and its subclasses,
    and the read errors `cli.load` refuses by."""
    names, todo = set(), [SchemoidsError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo += cls.__subclasses__()
    return names | {"JSONDecodeError", "FileNotFoundError"}


REFUSALS = refusal_names()


def paths(doc, prefix=()):
    """Every path to a dict value or list item inside doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def spoil(doc, data) -> str:
    """The text of doc spoiled one way, drawn by Hypothesis."""
    how = data.draw(st.sampled_from(("random", "truncate", "drop", "retype", "swap")))
    text = json.dumps(doc)
    if how == "random":
        return json.dumps(data.draw(json_values))
    if how == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    path = data.draw(st.sampled_from(list(paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if how == "drop":
        del parent[path[-1]]
    elif how == "swap":
        # a value of the same type: another label of the document, or a small integer
        values = [value_at(doc, p) for p in paths(doc)]
        labels = sorted({v for v in values if type(v) is str}) + ["?"]
        parent[path[-1]] = data.draw(st.sampled_from(labels) if type(old) is str
                                     else st.integers(-1, 3) if type(old) is int else st.just(old))
    else:
        parent[path[-1]] = data.draw(st.sampled_from(
            [v for v in OTHER_TYPES if type(v) is not type(old)]))
    return json.dumps(doc)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_every_seed_is_accepted(workdir):
    """The unspoiled documents pass, so a refusal below is the spoiling's."""
    for argv in COMMANDS:
        files = [workdir / f"seed-{i}.json" for i in range(len(argv))]
        args = []
        for arg, path in zip(argv, files):
            if arg.startswith("@"):
                path.write_text(json.dumps(DOCS[arg[1:]]), encoding="utf-8")
                arg = str(path)
            args.append(arg)
        code, out, err = call(args)
        assert code == 0, (argv, out, err)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_malformed_input_is_refused_not_crashed(workdir, data):
    argv = data.draw(st.sampled_from(COMMANDS))
    slots = [i for i, arg in enumerate(argv) if arg.startswith("@")]
    spoiled = data.draw(st.sampled_from(slots))
    args = []
    for i, arg in enumerate(argv):
        if arg.startswith("@"):
            doc = DOCS[arg[1:]]
            path = workdir / f"input-{i}.json"
            path.write_text(spoil(doc, data) if i == spoiled else json.dumps(doc), encoding="utf-8")
            arg = str(path)
        args.append(arg)
    code, out, err = call(args)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 1:
        last = json.loads(out.strip().splitlines()[-1])
        assert last.get("error") in REFUSALS, (argv, last)
