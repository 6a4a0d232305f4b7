from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from schemoids import fincat
from schemoids.fincat import (
    CategoryError,
    CategoryTooLarge,
    Functor,
    MissingIdentity,
    NonAssociative,
    NotInvertible,
    UndefinedComposite,
    as_groupoid,
    build_category,
    connector_name,
    cyclic_group_table,
    disjoint_union,
    full_subcategory,
    join,
    one_object_group,
    opposite,
    pair_name,
    product,
    serialize,
    serialize_groupoid,
    terminal_category,
    validate_category,
    validate_functor,
    validate_groupoid,
)
from oracles import factorization_category, labelled, validate_category_dense


def arrow_category():
    # x --f--> y with identities only otherwise
    return build_category(
        ["x", "y"],
        [("1_x", "x", "x"), ("1_y", "y", "y"), ("f", "x", "y")],
        {"x": "1_x", "y": "1_y"},
        (),
    )


def chain3_category():
    # x -> y -> z poset chain: morphisms f: x->y, g: y->z, h = g∘f
    compose = {("g", "f"): "h"}
    return build_category(
        ["x", "y", "z"],
        [("1_x", "x", "x"), ("1_y", "y", "y"), ("1_z", "z", "z"),
         ("f", "x", "y"), ("g", "y", "z"), ("h", "x", "z")],
        {"x": "1_x", "y": "1_y", "z": "1_z"},
        ((f, g, fg) for (f, g), fg in compose.items()),
    )


def test_terminal_valid():
    t = terminal_category()
    assert len(t.objects) == 1 and len(t.morphisms) == 1


def test_arrow_category_valid():
    c = arrow_category()
    assert len(c.objects) == 2 and len(c.morphisms) == 3
    assert c.comp("f", "1_x") == "f" and c.comp("1_y", "f") == "f"


def test_nonassociative_detected():
    # 3-arrow chain x->y->z->w with two parallel fillers for x->w; wiring
    # (h∘g)∘f and h∘(g∘f) to different fillers breaks associativity only
    objs = ["x", "y", "z", "w"]
    mors = [("1_x", "x", "x"), ("1_y", "y", "y"), ("1_z", "z", "z"), ("1_w", "w", "w"),
            ("f", "x", "y"), ("g", "y", "z"), ("h", "z", "w"),
            ("gf", "x", "z"), ("hg", "y", "w"), ("hgf", "x", "w"), ("hgf2", "x", "w")]
    idents = {"x": "1_x", "y": "1_y", "z": "1_z", "w": "1_w"}
    good = {("g", "f"): "gf", ("h", "g"): "hg", ("h", "gf"): "hgf", ("hg", "f"): "hgf"}
    raw = serialize(build_category(objs, mors, idents, ((f, g, fg) for (f, g), fg in good.items())))
    bad = dict(good)
    bad[("hg", "f")] = "hgf2"
    raw["compose"] = [[f, g, fg] for (f, g), fg in bad.items()]
    with pytest.raises(NonAssociative) as err:
        validate_category(raw)
    assert err.value.witness == ("h", "g", "f", "hgf2", "hgf")


def chain3_raw(compose, identities=None):
    """The chain x -> y -> z as a raw description with the given entries."""
    return {"objects": ["x", "y", "z"],
            "morphisms": [{"id": m, "src": s, "tgt": t} for m, s, t in (
                ("1_x", "x", "x"), ("1_y", "y", "y"), ("1_z", "z", "z"),
                ("f", "x", "y"), ("g", "y", "z"), ("h", "x", "z"))],
            "identities": identities or {"x": "1_x", "y": "1_y", "z": "1_z"},
            "compose": compose}


PARALLEL_RAW = {"objects": ["x", "y"],
                "morphisms": [{"id": m, "src": s, "tgt": t} for m, s, t in (
                    ("1_x", "x", "x"), ("1_y", "y", "y"), ("a", "x", "y"), ("b", "x", "y"))],
                "identities": {"x": "1_x", "y": "1_y"},
                "compose": [["a", "1_x", "b"]]}


@pytest.mark.parametrize("raw, cls, message", [
    # (g, 1_x) replaces (g, f), so row g has the length of into(y)
    (chain3_raw([["g", "1_x", "h"]]), fincat.EndpointMismatch,
     "('g', '1_x') composed but src('g') != tgt('1_x')"),
    (chain3_raw([]), UndefinedComposite, "no composite for ('g', 'f')"),
    (chain3_raw([["g", "f", "g"]]), fincat.EndpointMismatch,
     "composite 'g' of ('g', 'f') has wrong endpoints"),
    (chain3_raw([["g", "f", "f"]]), fincat.EndpointMismatch,
     "composite 'f' of ('g', 'f') has wrong endpoints"),
    (chain3_raw([["g", "f", "g"], ["g", "f", "g"]]), fincat.EndpointMismatch,
     "composite 'g' of ('g', 'f') has wrong endpoints"),
    # entries at identity pairs, which the unit laws would otherwise fill
    (chain3_raw([["g", "f", "h"], ["f", "1_x", "h"]]), fincat.EndpointMismatch,
     "composite 'h' of ('f', '1_x') has wrong endpoints"),
    (PARALLEL_RAW, MissingIdentity, "unit law fails at 'a'"),
    # a bad endpoint is reported only after every entry is read
    (chain3_raw([["g", "f", "g"], ["g", "k", "h"]]), UndefinedComposite,
     "composition entry ('g', 'k', 'h') names unknown morphisms"),
    (chain3_raw([["g", "f", "g"], ["g", "f", "h"]]), UndefinedComposite,
     "conflicting entries for ('g', 'f')"),
    (chain3_raw([["g", "f", "h"]], {"x": "1_x", "y": "1_y", "z": "1_z", "ghost": "f"}),
     CategoryError, "identities: 'ghost' is not an object"),
], ids=["foreign-factor", "missing", "wrong-source", "wrong-target", "given-twice",
        "identity-pair-endpoints", "identity-pair-unit-law", "bad-then-unknown",
        "bad-then-conflicting", "ghost-identity"])
def test_bad_table_is_refused_as_the_full_scan_refuses_it(raw, cls, message):
    """Endpoints checked as each entry is read and totality by row length
    give the class and the message of the scan of all M² pairs."""
    with pytest.raises(CategoryError) as want:
        validate_category_dense(raw)
    with pytest.raises(CategoryError) as got:
        validate_category(raw)
    assert type(want.value) is type(got.value) is cls
    assert str(want.value) == str(got.value) == message


def test_rows_given_in_code_build_the_category():
    """Rows of positions aligned with into(src f) build the category the
    label triples build, listed in table order."""
    arrow = arrow_category()
    built = build_category(arrow.objects, arrow.morphisms, arrow.identity, rows=[[0], [1, 2], [2]])
    assert built == arrow
    assert list(built.entries()) == [(0, (0, 0)), (1, (1, 1)), (1, (2, 2)), (2, (0, 2))]


@pytest.mark.parametrize("rows, error, message", [
    ([[0], [1, 2]], CategoryError, "2 rows given for 3 morphisms"),
    ([[0], [1], [2]], CategoryError, "row of '1_y': 2 positions of morphisms expected"),
    ([[0], [1, 3], [2]], CategoryError, "row of '1_y': 2 positions of morphisms expected"),
    ([[0], [1, -1], [2]], CategoryError, "row of '1_y': 2 positions of morphisms expected"),
    ([[0], [1, 0], [2]], fincat.EndpointMismatch, "composite '1_x' of ('1_y', 'f') has wrong endpoints"),
])
def test_rows_given_in_code_are_checked(rows, error, message):
    """Rows of the wrong number or length, or with a position out of range,
    are refused before they are read; a composite with the wrong endpoints
    is refused as the full scan refuses it."""
    arrow = arrow_category()
    with pytest.raises(error) as err:
        build_category(arrow.objects, arrow.morphisms, arrow.identity, rows=rows)
    assert str(err.value) == message


def test_rows_and_triples_given_together_are_refused():
    """A call that gives both composition triples and rows is refused, so
    neither is silently dropped, even when the triples are empty."""
    arrow = arrow_category()
    for compose in ((), [("f", "1_x", "f")]):
        with pytest.raises(TypeError):
            build_category(arrow.objects, arrow.morphisms, arrow.identity, compose, rows=[[0], [1, 2], [2]])


def test_missing_composite_detected():
    raw = serialize(chain3_category())
    raw["compose"] = []
    with pytest.raises(UndefinedComposite):
        validate_category(raw)


@pytest.mark.parametrize("field, value, message", [
    ("objects", "x", "objects: a JSON array expected, not str"),
    ("morphisms", 5, "morphisms: a JSON array expected, not int"),
    ("morphisms", [{"id": "1_x", "src": "x"}], "morphisms: each entry must be an object"),
    ("morphisms", [["1_x", "x", "x"]], "morphisms: each entry must be an object"),
    ("identities", [["x", "1_x"]], "identities: a JSON object expected, not list"),
    ("compose", None, "compose: a JSON array expected, not NoneType"),
], ids=["objects", "morphisms", "morphism-without-tgt", "morphism-as-list", "identities",
        "compose"])
def test_field_of_wrong_type_is_a_category_error(field, value, message):
    """validate_category checks the JSON types of its four fields before
    reading them, and names the field it refuses."""
    raw = {**serialize(terminal_category()), field: value}
    with pytest.raises(CategoryError) as err:
        validate_category(raw)
    assert type(err.value) is CategoryError and str(err.value).startswith(message)


ONE_ARROW = {"objects": ["x"], "morphisms": [{"id": "1", "src": "x", "tgt": "x"}],
             "identities": {"x": "1"}}


@pytest.mark.parametrize("compose, message", [
    ([["1", "1"]], "compose[0]: a JSON array [f, g, fg] expected, not 2 entries"),
    ([["1", "1", "1"], 5], "compose[1]: a JSON array [f, g, fg] expected, not int"),
    ([["1", "1", "1"], ["1", "1", "1", "1"]],
     "compose[1]: a JSON array [f, g, fg] expected, not 4 entries"),
], ids=["pair", "int", "second-of-four"])
def test_compose_entry_that_is_no_triple_is_a_category_error(compose, message):
    """In a list of label triples, an entry the read loop cannot unpack is
    refused naming its index."""
    with pytest.raises(CategoryError) as err:
        validate_category({**ONE_ARROW, "compose": compose})
    assert type(err.value) is CategoryError and str(err.value) == message


@pytest.mark.parametrize("entry, name", [("112", "str"), ({"1": 0, "2": 0, "0": 0}, "dict")],
                         ids=["string", "object"])
def test_compose_entry_that_unpacks_as_three_labels_is_refused(entry, name):
    """A string of three characters, or an object of three keys, unpacks
    as three morphism labels in the read loop; it is still no [f, g, fg]
    array.  In Z/3, "112" would read as 1∘1 = 2 and {"1", "2", "0"} as
    1∘2 = 0, both true."""
    raw = labelled(serialize(one_object_group(*cyclic_group_table(3)).base))
    at = raw["compose"].index(["1", "1", "2"] if name == "str" else ["1", "2", "0"])
    raw["compose"][at] = entry
    with pytest.raises(CategoryError) as err:
        validate_category(raw)
    assert str(err.value) == f"compose[{at}]: a JSON array [f, g, fg] expected, not {name}"


@pytest.mark.parametrize("entry, found", [(True, "bool"), (1.0, "float"), ("1", "str")],
                         ids=["true", "float", "string"])
def test_table_entry_that_is_no_integer_is_refused_by_path(entry, found):
    """In a table of positions, true is not position 1, and neither is
    1.0 or "1": each is refused at its JSON path, where Z/3's table holds 1."""
    raw = serialize(one_object_group(*cyclic_group_table(3)).base)
    at = raw["compose"].index(1)
    raw["compose"][at] = entry
    with pytest.raises(CategoryError) as err:
        validate_category(raw)
    assert type(err.value) is CategoryError and err.value.path == f"compose[{at}]"
    assert str(err.value) == f"compose[{at}]: a morphism position expected, not {found}"


def test_table_of_wrong_length_or_range_is_refused_by_path():
    """Z/3's table has 9 entries, each below 3; a table one entry short or
    long is refused as a whole, and one with positions out of range at the
    first of them, also inside a larger document."""
    table = serialize(one_object_group(*cyclic_group_table(3)).base)["compose"]
    cases = [(table[:-1], "", "compose", "compose: a JSON array of 9 entries expected, "
                                          "not 8 entries"),
             (table + [0], "", "compose", "compose: a JSON array of 9 entries expected, "
                                          "not 10 entries"),
             (table[:4] + [3] + table[5:7] + [7] + table[8:], "", "compose[4]",
              "compose[4]: a morphism position below 3 expected, not 3"),
             (table[:2] + [-1] + table[3:], "base", "base.compose[2]",
              "base.compose[2]: a morphism position below 3 expected, not -1")]
    for compose, at, path, message in cases:
        raw = {**serialize(one_object_group(*cyclic_group_table(3)).base), "compose": compose}
        with pytest.raises(CategoryError) as err:
            fincat.read_category(raw, at)
        assert type(err.value) is CategoryError and err.value.path == path
        assert str(err.value) == message


def test_unpacking_error_with_only_triples_is_raised_as_it_is(monkeypatch):
    """A ValueError or TypeError while every compose entry is a triple is
    not the input's fault, so it is not turned into a refusal."""
    def broken(*args):
        raise TypeError("a bug")
    monkeypatch.setattr(fincat, "_validate", broken)
    with pytest.raises(TypeError, match="a bug"):
        validate_category({**ONE_ARROW, "compose": [["1", "1", "1"]]})


def test_roundtrip_bit_exact():
    for c in (terminal_category(), arrow_category(), chain3_category(),
              one_object_group(*cyclic_group_table(4)).base):
        assert validate_category(serialize(c)) == c


def test_product_counts():
    c = arrow_category()
    g = one_object_group(*cyclic_group_table(2)).base
    p = product(c, g)
    assert len(p.objects) == 2 and len(p.morphisms) == 6
    t = terminal_category()
    tt = product(t, t)
    assert len(tt.objects) == 1 and len(tt.morphisms) == 1


def test_product_unit_iso():
    c = arrow_category()
    p = product(c, terminal_category())
    assert len(p.objects) == len(c.objects) and len(p.morphisms) == len(c.morphisms)


def test_join_counts():
    t = terminal_category()
    j = join(t, t)
    # the 2-object arrow shape
    assert len(j.objects) == 2 and len(j.morphisms) == 3
    c = arrow_category()
    g = one_object_group(*cyclic_group_table(2)).base
    jj = join(c, g)
    assert len(jj.morphisms) == len(c.morphisms) + len(g.morphisms) + len(c.objects) * len(g.objects)


def test_join_with_comma_labels():
    """Objects "x,y", "x" joined with "z", "y,z" used to name two connecting
    morphisms "w[x,y,z]"; plain labels keep the "w[a,b]" ids."""
    c = build_category(["x,y", "x"], [("1", "x,y", "x,y"), ("2", "x", "x")],
                       {"x,y": "1", "x": "2"}, ())
    d = build_category(["z", "y,z"], [("1", "z", "z"), ("2", "y,z", "y,z")],
                       {"z": "1", "y,z": "2"}, ())
    j = join(c, d)
    assert len(set(j.morphism_ids)) == len(j.morphisms) == 8
    assert j.hom("L.x,y", "R.z") == (connector_name("x,y", "z"),) == ("w[x\\,y,z]",)
    assert j.hom("L.x", "R.y,z") == ("w[x,y\\,z]",)
    assert validate_category(serialize(j)) == j
    assert connector_name("a", "b") == "w[a,b]"
    t = terminal_category()
    assert join(t, t).hom("L.*", "R.*") == ("w[*,*]",)


def test_join_g_gop():
    g = one_object_group(*cyclic_group_table(2)).base
    jq = join(g, opposite(g))
    assert len(jq.objects) == 2 and len(jq.morphisms) == 5


def test_opposite_involution():
    for c in (terminal_category(), arrow_category(), chain3_category()):
        assert opposite(opposite(c)) == c
    c = arrow_category()
    o = opposite(c)
    assert o.src("f") == "y" and o.tgt("f") == "x"


def test_factorization_category():
    t = terminal_category()
    ft = factorization_category(t)
    assert len(ft.objects) == 1 and len(ft.morphisms) == 1
    c = arrow_category()
    fc = factorization_category(c)
    assert set(fc.objects) == {"1_x", "1_y", "f"}
    # oracle: count commuting squares (alpha, beta) with alpha∘f0∘beta = g0
    expected = {}
    for f0 in c.morphism_ids:
        for a in c.morphism_ids:
            if c.src(a) != c.tgt(f0):
                continue
            for b in c.morphism_ids:
                if c.tgt(b) != c.src(f0):
                    continue
                g0 = c.comp(c.comp(a, f0), b)
                expected[(f0, g0)] = expected.get((f0, g0), 0) + 1
    for (f0, g0), n in expected.items():
        assert len([m for m in fc.morphism_ids if fc.src(m) == f0 and fc.tgt(m) == g0]) == n
    assert len(fc.objects) == len(c.morphisms)


def test_as_groupoid():
    z3 = one_object_group(*cyclic_group_table(3))
    g = as_groupoid(z3.base)
    assert g.inverse == z3.inverse
    with pytest.raises(NotInvertible):
        as_groupoid(arrow_category())


def test_inverse_table_is_built_once_per_category(monkeypatch):
    """`analysis_report` asks for the inverse table through `is_groupoid` and
    through `analyze_thinness`; the category builds it once, and each
    Groupoid gets its own copy."""
    from schemoids.cli import analysis_report
    from schemoids.schemes import group_scheme, j_embed
    built = []
    table = fincat.FinCategory.__dict__["_inverse"]

    def counted(cat):
        built.append(cat)
        return table.func(cat)

    prop = cached_property(counted)
    prop.__set_name__(fincat.FinCategory, "_inverse")
    monkeypatch.setattr(fincat.FinCategory, "_inverse", prop)
    qs = j_embed(group_scheme(*cyclic_group_table(16)))
    built.clear()    # group_scheme's own check that Z/16 is a group
    report = analysis_report(qs)
    assert report["basic"] and report["semi_thin"] and report["thin"]
    assert built == [qs.category]
    as_groupoid(qs.category).inverse.clear()
    assert len(as_groupoid(qs.category).inverse) == 256 and built == [qs.category]


def test_disjoint_union_groupoid_fails_nothing():
    t = terminal_category()
    d = disjoint_union(t, t)
    assert len(d.objects) == 2 and len(d.morphisms) == 2
    as_groupoid(d)


def test_functor_validation():
    c = arrow_category()
    ident = fincat.identity_functor(c)
    validate_functor(ident, c, c)
    bad = Functor({"x": "x", "y": "x"}, {"1_x": "1_x", "1_y": "1_x", "f": "f"})
    with pytest.raises(fincat.NotAFunctor):
        validate_functor(bad, c, c)


def test_broken_composition_law_carries_a_witness():
    """Sending 1 to 2 in Z/3 keeps the identity and the endpoints, so only
    the composition law breaks; the witness is a pair (f, g) at which it does."""
    c = one_object_group(*cyclic_group_table(3)).base
    bad = Functor({"*": "*"}, {"0": "0", "1": "2", "2": "2"})
    with pytest.raises(fincat.NotAFunctor, match="composition not preserved") as err:
        validate_functor(bad, c, c)
    f, g, got, expected = err.value.witness
    assert got == bad(c.comp(f, g)) and expected == c.comp(bad(f), bad(g)) and got != expected


def test_generators_of_a_full_subcategory_are_those_validation_picks():
    """full_subcategory is validated like any category built in code, so its
    Light generators are the ones `_validate` picks for its serialized form."""
    c = join(chain3_category(), one_object_group(*cyclic_group_table(3)).base)
    assert c.generators == validate_category(serialize(c)).generators
    for keep in (["L.x", "L.z"], ["L.y", "R.*"], ["L.x", "L.y", "R.*"]):
        sub = full_subcategory(c, keep)
        assert sub.generators == validate_category(serialize(sub)).generators


def table(rows):
    """Multiplication table on one-letter elements: rows[x][i] is x*y for y
    the i-th key of rows."""
    return {(x, y): rows[x][i] for x in rows for i, y in enumerate(rows)}


def test_one_object_group_refuses_tables_that_are_no_group():
    """No two-sided unit; a unit e but (a*a)*a = b*a = a while
    a*(a*a) = a*b = b; a monoid in which a has no inverse."""
    with pytest.raises(MissingIdentity):
        one_object_group("ab", table({"a": "aa", "b": "aa"}))
    with pytest.raises(NonAssociative):
        one_object_group("eab", table({"e": "eab", "a": "abb", "b": "baa"}))
    with pytest.raises(NotInvertible):
        one_object_group("ea", table({"e": "ea", "a": "aa"}))


def test_product_and_join_pass_validation_again():
    # validate_category(serialize(...)) re-checks all laws
    c = arrow_category()
    g = one_object_group(*cyclic_group_table(2)).base
    for built in (product(c, g), join(c, g), disjoint_union(c, g)):
        assert validate_category(serialize(built)) == built


LABELS = st.text(alphabet="a,()\\", max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.tuples(LABELS, LABELS), st.tuples(LABELS, LABELS), st.booleans())
def test_pair_name_injective(p, q, nest):
    """Distinct pairs of labels get distinct names, also one level nested."""
    name = (lambda a, b: pair_name(pair_name(a, b), a)) if nest else pair_name
    assert (name(*p) == name(*q)) == (p == q)


def test_pair_name_keeps_plain_and_nested_names():
    assert pair_name("00", "01") == "(00,01)"
    assert pair_name(pair_name("00", "01"), "1") == "((00,01),1)"
    assert pair_name("a,b", "c") == "(a\\,b,c)" != pair_name("a", "b,c")


def test_product_with_comma_labels():
    """Objects "a,b", "a" times "c", "b,c" used to give "(a,b,c)" twice."""
    c = build_category(["a,b", "a"], [("1", "a,b", "a,b"), ("1,", "a", "a")],
                       {"a,b": "1", "a": "1,"}, ())
    d = build_category(["c", "b,c"], [(",1", "c", "c"), ("1", "b,c", "b,c")],
                       {"c": ",1", "b,c": "1"}, ())
    p = product(c, d)
    assert len(set(p.objects)) == 4 and len(set(p.morphism_ids)) == 4
    assert validate_category(serialize(p)) == p


def pair_groupoid_document():
    """x and y with one morphism each way: f: x -> y, g: y -> x."""
    cat = build_category(["x", "y"], [("1x", "x", "x"), ("1y", "y", "y"), ("f", "x", "y"),
                                      ("g", "y", "x")], {"x": "1x", "y": "1y"},
                         [("f", "g", "1y"), ("g", "f", "1x")])
    return serialize_groupoid(as_groupoid(cat))


@pytest.mark.parametrize("inverse, message", [
    ({"1x": "1x", "1y": "1y", "f": "h", "g": "f"}, "listed inverse of 'f' is wrong"),
    ({"1x": "1x", "1y": "1y", "f": "1y", "g": "f"}, "listed inverse of 'f' is wrong"),
    ({"1x": "1x", "1y": "1y", "f": "g"}, "inverse is not an involution at 'f'"),
    ({"1x": "1x", "1y": "1y", "g": "f"}, "no inverse listed for 'f'"),
], ids=["unknown", "wrong-endpoints", "unlisted", "missing"])
def test_a_listed_inverse_is_checked_before_it_is_looked_up(inverse, message):
    """An inverse that names no morphism, runs the wrong way, or is listed
    for f but not for f^-1 is refused as NotInvertible, not KeyError."""
    raw = {**pair_groupoid_document(), "inverse": inverse}
    with pytest.raises(NotInvertible, match=message):
        validate_groupoid(raw)


def test_product_budget_admits_exactly_the_budget(monkeypatch):
    """With the budget lowered to 8, Z/2 x Z/4 (exactly 8 morphisms) is
    built and Z/3 x Z/3 (9) is refused before any morphism is named."""
    z = {n: one_object_group(*cyclic_group_table(n)).base for n in (2, 3, 4)}
    monkeypatch.setattr(fincat, "PRODUCT_BUDGET", 8)
    assert len(product(z[2], z[4]).morphisms) == 8

    def named(a, b):
        raise AssertionError("a product morphism was named")

    monkeypatch.setattr(fincat, "pair_name", named)
    with pytest.raises(CategoryTooLarge, match="the product would have 9 morphisms: over the budget of 8"):
        product(z[3], z[3])
