"""Schemoid morphisms: `schemoid_morphisms` against the brute-force oracle,
`schemoid_isomorphic` on relabelled copies, and fullness of s̃ from
groupoids to thin schemoids on based morphisms."""

from functools import cache
from itertools import permutations

from hypothesis import assume, given, settings, strategies as st

from schemoids import corpus
from schemoids.bridges import faithfulness_roundtrip, s_tilde, s_tilde_on_functor
from schemoids.fincat import (
    as_groupoid,
    build_category,
    cyclic_group_table,
    disjoint_union,
    one_object_group,
)
from schemoids.schemes import hamming, j_embed
from schemoids.schemoid import (
    AxiomViolation,
    discrete_partition,
    make_partition,
    schemoid_isomorphic,
    schemoid_morphism,
    schemoid_morphisms,
    verify_quasi_schemoid,
)
from schemoids.thicken import thicken_scheme

from oracles import functors_by_search, schemoid_morphisms_by_search
from test_properties import small_categories


def key(fun):
    return tuple(sorted(fun.object_map.items())), tuple(sorted(fun.morphism_map.items()))


def enumerated(a, b):
    """The functors of `schemoid_morphisms(a, b)`, each required to come once."""
    found = [key(g.functor) for g in schemoid_morphisms(a, b)]
    assert len(found) == len(set(found))
    return set(found)


def relabelled(qs):
    """A copy of qs with every object, morphism and block renamed and each
    list in reverse order."""
    cat = qs.category
    ob = {x: f"o{i}" for i, x in enumerate(cat.objects)}
    mo = {m: f"m{i}" for i, m in enumerate(cat.morphism_ids)}
    copy = build_category([ob[x] for x in reversed(cat.objects)],
                          [(mo[m], ob[s], ob[t]) for m, s, t in reversed(cat.morphisms)],
                          {ob[x]: mo[e] for x, e in cat.identity.items()},
                          ((mo[f], mo[g], mo[fg]) for (f, g), fg in cat.compose.items()))
    blocks = {f"b{i}": [mo[m] for m in members]
              for i, members in enumerate(reversed(qs.partition.blocks.values()))}
    return verify_quasi_schemoid(copy, make_partition(copy, blocks))


def assert_finds_relabelled_copy(qs):
    copy = relabelled(qs)
    iso = schemoid_isomorphic(qs, copy)
    assert iso is not None
    g = schemoid_morphism(qs, copy, iso)
    assert sorted(iso.morphism_map.values()) == sorted(copy.category.morphism_ids)
    assert sorted(g.block_image.values()) == sorted(copy.partition.names())


@cache
def small_inputs():
    """The corpus schemoids with at most 4 objects, and thicken_scheme(H(2,2), 1)."""
    inputs = {name: corpus.build(name) for name, entry in corpus.ENTRIES.items()
              if entry.kind == "schemoid"}
    inputs = {name: qs for name, qs in inputs.items() if len(qs.category.objects) <= 4}
    inputs["thicken_h22_1"] = thicken_scheme(hamming(2, 2), 1)
    return inputs


def test_enumerator_matches_search_on_small_schemoids():
    """Every ordered pair of the small inputs where the oracle's search fits
    its cap: 393 of the 23² pairs."""
    inputs = small_inputs()
    compared = 0
    for an, a in inputs.items():
        for bn, b in inputs.items():
            try:
                expected = {key(f) for f in schemoid_morphisms_by_search(a, b, cap=1 << 8)}
            except ValueError:
                continue
            assert enumerated(a, b) == expected, (an, bn)
            compared += 1
    assert len(inputs) == 23 and compared == 393


def test_enumerator_matches_search_on_thickened_h22():
    thick, h22 = small_inputs()["thicken_h22_1"], small_inputs()["ex2_6_ii_h22"]
    for a, b in ((thick, thick), (thick, h22), (h22, thick)):
        assert enumerated(a, b) == {key(f) for f in schemoid_morphisms_by_search(a, b)}


def test_isomorphic_finds_relabelled_copies():
    for qs in small_inputs().values():
        assert_finds_relabelled_copy(qs)


def test_isomorphic_separates_the_product_base_extensions():
    """e0 and e1 have the same sizes and structure constants but are not
    isomorphic.  Only injective choices are searched, so the answer does not
    wait for the 24576 morphisms e0 -> e0."""
    e0, e1 = corpus.build("e0_schemoid"), corpus.build("e1_schemoid")
    assert schemoid_isomorphic(e0, e1) is None
    assert_finds_relabelled_copy(e0)


def partitioned(cat, one_block):
    """The discrete or the one-block quasi-schemoid on cat, None when the
    one block breaks the concatenation axiom."""
    if not one_block:
        return verify_quasi_schemoid(cat, discrete_partition(cat))
    try:
        return verify_quasi_schemoid(cat, make_partition(cat, {"all": cat.morphism_ids}))
    except AxiomViolation:
        return None


@settings(max_examples=40, deadline=None)
@given(small_categories(), st.booleans(), small_categories(), st.booleans())
def test_enumerator_matches_search_on_small_categories(c, one_block_c, d, one_block_d):
    a, b = partitioned(c, one_block_c), partitioned(d, one_block_d)
    assume(a is not None and b is not None)
    try:
        expected = {key(f) for f in schemoid_morphisms_by_search(a, b, cap=1 << 12)}
    except ValueError:      # over the oracle's cap
        assume(False)
    assert enumerated(a, b) == expected
    assert_finds_relabelled_copy(a)


# ---------------------------------------------------------------------------
# Fullness: every based morphism s̃K -> s̃H is s̃F for one functor F: K -> H
# ---------------------------------------------------------------------------

def groupoids():
    z = lambda n: one_object_group(*cyclic_group_table(n))
    klein = ["00", "01", "10", "11"]
    xor = {(a, b): f"{int(a[0]) ^ int(b[0])}{int(a[1]) ^ int(b[1])}" for a in klein for b in klein}
    s3 = ["".join(p) for p in permutations("012")]
    after = {(a, b): "".join(a[int(i)] for i in b) for a in s3 for b in s3}
    pair = lambda n: as_groupoid(j_embed(hamming(1, n)).category)
    return {
        "Z/1": z(1), "Z/2": z(2), "Z/3": z(3), "Z/4": z(4),
        "Z/2xZ/2": one_object_group(klein, xor), "S3": one_object_group(s3, after),
        "P2": pair(2), "P3": pair(3),
        "Z/1+Z/2": as_groupoid(disjoint_union(z(1).base, z(2).base)),
        "Z/2+P2": as_groupoid(disjoint_union(z(2).base, pair(2).base)),
    }


# (blockwise, based) morphisms s̃K -> s̃H; based counts are |Hom(K, H)|
COUNTS = {
    ("Z/4", "Z/2"): (4, 2), ("Z/2", "Z/4"): (8, 2), ("Z/3", "Z/3"): (9, 3),
    ("Z/4", "Z/4"): (16, 4), ("S3", "S3"): (60, 10), ("S3", "Z/2"): (4, 2),
}


def test_based_morphisms_are_exactly_s_tilde_of_functors():
    """A morphism s̃K -> s̃H is based when it sends the identities of K,
    the base points of s̃K, to identities of H, as faithfulness_roundtrip
    requires (NotBasedMorphism).  The based ones are the s̃F, F in
    Hom(K, H) found by brute force, each hit once, and faithfulness_roundtrip
    gives back that F."""
    gs = groupoids()
    over_cap = []
    for kn, k in gs.items():
        sk, ids_k = s_tilde(k), k.base.identities()
        for hn, h in gs.items():
            try:
                homs = functors_by_search(k.base, h.base, cap=1 << 13)
            except ValueError:
                over_cap.append((kn, hn))
                continue
            sh, ids_h = s_tilde(h), h.base.identities()
            morphisms = list(schemoid_morphisms(sk, sh))
            based = [g for g in morphisms if all(g.functor.object_map[x] in ids_h for x in ids_k)]
            functor_of = {key(s_tilde_on_functor(f, k, h).functor): key(f) for f in homs}
            assert len(functor_of) == len(homs), (kn, hn)
            assert sorted(key(g.functor) for g in based) == sorted(functor_of), (kn, hn)
            for g in based:
                assert key(faithfulness_roundtrip(g, k, h)) == functor_of[key(g.functor)]
            if (kn, hn) in COUNTS:
                assert (len(morphisms), len(based)) == COUNTS[(kn, hn)]
    assert over_cap == [("P3", "S3")]
