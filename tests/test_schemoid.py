import pytest

from schemoids.fincat import (
    Functor,
    build_category,
    cyclic_group_table,
    one_object_group,
    pair_name,
    terminal_category,
)
from schemoids.schemes import hamming, j_embed
from schemoids.schemoid import (
    AxiomViolation,
    BlockNotPreserved,
    LoopConditionViolated,
    NotBlockwise,
    NotComposable,
    check_association,
    check_concatenation,
    compose_schemoid_morphisms,
    discrete_partition,
    identity_morphism,
    is_basic,
    is_unital,
    make_partition,
    partition_from_json,
    analyze_thinness,
    schemoid_isomorphic,
    schemoid_join,
    schemoid_morphism,
    schemoid_product,
    serialize_partition,
    verify_quasi_schemoid,
)
from oracles import schemoid_constants_bruteforce


def arrow_category():
    return build_category(
        ["x", "y"],
        [("1_x", "x", "x"), ("1_y", "y", "y"), ("f", "x", "y")],
        {"x": "1_x", "y": "1_y"},
        (),
    )


def ex2_8():
    """Arrow category with blocks {identities} and {f}, T swapping x and y."""
    cat = arrow_category()
    partition = make_partition(cat, {"S1": ["1_x", "1_y"], "S2": ["f"]})
    t = Functor({"x": "y", "y": "x"}, {"1_x": "1_y", "1_y": "1_x", "f": "f"},
                contravariant=True)
    involution = check_association(cat, partition, t)
    return verify_quasi_schemoid(cat, partition, involution)


def group_bullet(n):
    """One-object group Z/n with the single-block partition and T = inverse."""
    gpd = one_object_group(*cyclic_group_table(n))
    cat = gpd.base
    partition = make_partition(cat, {"G": list(cat.morphism_ids)})
    t = Functor({o: o for o in cat.objects}, dict(gpd.inverse), contravariant=True)
    involution = check_association(cat, partition, t)
    return verify_quasi_schemoid(cat, partition, involution)


def test_discrete_partition_always_passes():
    for cat in (terminal_category(), arrow_category(), one_object_group(*cyclic_group_table(4)).base):
        table = check_concatenation(cat, discrete_partition(cat))
        assert all(v in (0, 1) for v in table.entries.values())


def test_h22_constants_frozen():
    """p-values for j(H(2,2)), frozen from the brute-force oracle."""
    qs = j_embed(hamming(2, 2))
    pts = qs.category.objects
    # (z, x)∘(x, y) = (z, y) on the complete graph, written out from the points
    entries = [(pair_name(z, x), pair_name(x, y), pair_name(z, y))
               for z in pts for x in pts for y in pts]
    oracle = schemoid_constants_bruteforce(entries, qs.partition.blocks)
    assert {k: v for k, v in qs.constants.entries.items() if v} == oracle
    assert qs.p("R1", "R1", "R2") == 2
    assert qs.p("R1", "R1", "R1") == 0
    assert qs.p("R1", "R1", "R0") == 2
    assert qs.p("R1", "R2", "R1") == 1


def test_axiom_violation_witness():
    cat = arrow_category()
    partition = make_partition(cat, {"A": ["1_x", "f"], "B": ["1_y"]})
    with pytest.raises(AxiomViolation) as err:
        check_concatenation(cat, partition)
    sigma, tau, mu, h1, c1, h2, c2 = err.value.witness
    assert {h1, h2} <= {"1_x", "f", "1_y"} and c1 != c2


def _first_violation(cat, partition):
    """Brute force: the first (sigma, tau, mu) in block order whose count of
    factorizations is not constant over mu, with the first member of mu in
    sorted order and the first member whose count differs from it."""
    bo = partition.block_of
    names = partition.names()
    for sigma in names:
        for tau in names:
            for mu in names:
                members = sorted(partition.blocks[mu])
                count = {h: sum(1 for (f, g), fg in cat.compose.items()
                                if fg == h and bo[f] == sigma and bo[g] == tau) for h in members}
                h1 = members[0]
                for h in members[1:]:
                    if count[h] != count[h1]:
                        return sigma, tau, mu, h1, count[h1], h, count[h]
    return None


def test_moved_morphism_witness_matches_bruteforce():
    """Every move of one morphism between two off-diagonal blocks of
    j(H(3,2)) is refused with the first non-constant block triple, and its
    counts are the real numbers of factorizations."""
    qs = j_embed(hamming(3, 2))
    cat = qs.category
    blocks = {b: sorted(ms) for b, ms in qs.partition.blocks.items()}
    off = [b for b in blocks if not set(blocks[b]) <= cat.identities()]
    moves = [(m, b, t) for b in off for m in blocks[b] for t in off if t != b]
    assert len(moves) == 112
    for m, b, t in moves:
        moved = {k: [x for x in v if x != m] for k, v in blocks.items()}
        moved[t].append(m)
        partition = make_partition(cat, moved)
        with pytest.raises(AxiomViolation) as err:
            check_concatenation(cat, partition)
        assert err.value.witness == _first_violation(cat, partition)


def test_unitality():
    qs = ex2_8()
    assert is_unital(qs.category, qs.partition) == (True, None)
    cat = arrow_category()
    assert is_unital(cat, discrete_partition(cat)) == (True, None)
    mixed = make_partition(cat, {"A": ["1_x", "f"], "B": ["1_y"]})
    flag, offender = is_unital(cat, mixed)
    assert not flag and offender == "A"


def test_group_bullet_is_schemoid_but_not_unital():
    qs = group_bullet(2)
    assert qs.p("G", "G", "G") == 2
    assert not is_unital(qs.category, qs.partition)[0]
    assert not is_basic(qs)  # basic needs unitality


def test_association_involution_checks():
    qs = j_embed(hamming(2, 2))
    assert qs.involution is not None
    img = qs.involution.block_image
    assert img == {"R0": "R0", "R1": "R1", "R2": "R2"}
    # Z/3 split so that a block's T-image {e, g^2} is not itself a block
    gpd = one_object_group(*cyclic_group_table(3))
    cat = gpd.base
    partition = make_partition(cat, {"A": ["0", "1"], "B": ["2"]})
    t = Functor({"*": "*"}, dict(gpd.inverse), contravariant=True)
    with pytest.raises(BlockNotPreserved):
        check_association(cat, partition, t)
    # the discrete partition is always closed under T: {g}* = {g^2} is a block
    disc = make_partition(cat, {"e": ["0"], "g": ["1"], "g2": ["2"]})
    inv = check_association(cat, disc, t)
    assert inv.block_image == {"e": "e", "g": "g2", "g2": "g"}


def test_loop_condition():
    # block mixing an endomorphism with a non-loop violates the loop condition
    cat = arrow_category()
    partition = make_partition(cat, {"A": ["1_x"], "B": ["1_y", "f"]})
    t = Functor({"x": "x", "y": "y"}, {m: m for m in cat.morphism_ids}, contravariant=True)
    with pytest.raises(LoopConditionViolated):
        check_association(cat, partition, t)


def test_structure_constant_sum_rule():
    # sum_mu p * |mu| = number of composable pairs from sigma x tau
    for qs in (j_embed(hamming(2, 2)), group_bullet(3), ex2_8()):
        cat, part = qs.category, qs.partition
        for sigma in part.names():
            for tau in part.names():
                pairs = sum(1 for f in part.blocks[sigma] for g in part.blocks[tau]
                            if cat.src(f) == cat.tgt(g))
                total = sum(qs.p(sigma, tau, mu) * len(part.blocks[mu]) for mu in part.names())
                assert pairs == total


def test_involution_constant_symmetry():
    # p^{mu*}_{tau* sigma*} = p^mu_{sigma tau}
    for qs in (j_embed(hamming(2, 2)), group_bullet(3), ex2_8()):
        img = qs.involution.block_image
        for (sigma, tau, mu), v in qs.constants.entries.items():
            assert qs.p(img[tau], img[sigma], img[mu]) == v


def test_schemoid_join_with_comma_labels():
    """One singleton block per connecting morphism, named as join names it;
    "x,y" -> "z" and "x" -> "y,z" used to share the name "w[x,y,z]"."""
    def discrete(objects):
        cat = build_category(objects, [(f"1{x}", x, x) for x in objects],
                             {x: f"1{x}" for x in objects}, ())
        return verify_quasi_schemoid(cat, discrete_partition(cat))

    joined = schemoid_join(discrete(["x,y", "x"]), discrete(["z", "y,z"]))
    assert joined.partition.blocks["w[x\\,y,z]"] == {"w[x\\,y,z]"}
    assert joined.partition.blocks["w[x,y\\,z]"] == {"w[x,y\\,z]"}
    assert len(joined.partition) == 8


def test_thinness_ex2_8_not_semithin():
    report = analyze_thinness(ex2_8())
    assert report.unital and not report.groupoid_with_t_inverse and not report.semi_thin
    assert report.witness == "underlying category is not a groupoid"


def test_thinness_does_not_relabel_internal_errors(monkeypatch):
    """Only NotInvertible reads as "not a groupoid"; any other error
    propagates."""
    from schemoids import schemoid

    def broken(cat):
        raise RuntimeError("internal")

    monkeypatch.setattr(schemoid, "as_groupoid", broken)
    with pytest.raises(RuntimeError, match="internal"):
        analyze_thinness(group_bullet(2))


def test_product_of_schemoids():
    a = ex2_8()
    b = group_bullet(2)
    prod = schemoid_product(a, b)
    assert len(prod.category.morphisms) == 6
    assert len(prod.partition) == 2
    assert prod.involution is not None


def test_join_of_schemoids():
    a = group_bullet(2)
    b = group_bullet(2)
    j = schemoid_join(a, b)
    assert len(j.category.morphisms) == 5
    assert len(j.partition) == 3
    assert is_unital(j.category, j.partition)[0] is False  # G-blocks contain identities


def test_isomorphism_identity_and_relabel():
    qs = j_embed(hamming(2, 2))
    w = schemoid_isomorphic(qs, qs)
    assert w is not None
    # relabelled copy: permute the vertex names
    perm = {"00": "10", "10": "11", "11": "01", "01": "00"}
    sch = hamming(2, 2)
    rel = [[0] * 4 for _ in range(4)]
    pts = list(sch.points)
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            rel[pts.index(perm[x])][pts.index(perm[y])] = sch.relation_of[i][j]
    from schemoids.schemes import validate_scheme
    relabelled = validate_scheme(4, rel, points=pts, classes=sch.classes)
    w2 = schemoid_isomorphic(qs, j_embed(relabelled))
    assert w2 is not None


def test_not_isomorphic_ex2_10():
    """The join schemoid of two copies of (Z/2)^bullet is not isomorphic to
    the two-object schemoid with blocks pairing g with its opposite copy."""
    g = group_bullet(2)
    join_qs = schemoid_join(g, g)
    # the comparison object: same category shape, blocks {e, e'}, {g, g'}, {w}
    cat = join_qs.category
    ids = sorted(cat.morphism_ids)
    e1, e2 = "L.0", "R.0"
    g1, g2 = "L.1", "R.1"
    w = [m for m in ids if m.startswith("w[")][0]
    paired = make_partition(cat, {"Se": [e1, e2], "Sg": [g1, g2], "Sf": [w]})
    paired_qs = verify_quasi_schemoid(cat, paired)
    assert schemoid_isomorphic(paired_qs, join_qs) is None
    assert schemoid_isomorphic(join_qs, paired_qs) is None


def test_partition_serialization_roundtrip():
    qs = j_embed(hamming(2, 2))
    raw = serialize_partition(qs.partition)
    back = partition_from_json(qs.category, raw)
    assert back == qs.partition


def test_schemoid_morphisms_compose_only_through_the_same_schemoid():
    """On Z/2, f: discrete -> one block and g: discrete -> discrete share the
    category in the middle but not the partition, so g∘f is refused; a
    rebuilt copy of the middle schemoid still composes."""
    cat = group_bullet(2).category
    discrete = verify_quasi_schemoid(cat, discrete_partition(cat))
    ident = Functor({"*": "*"}, {m: m for m in cat.morphism_ids})
    f = schemoid_morphism(discrete, group_bullet(2), ident)
    g = identity_morphism(discrete)
    assert f.block_image == {"0": "G", "1": "G"}
    with pytest.raises(NotComposable):
        compose_schemoid_morphisms(g, f)
    with pytest.raises(NotBlockwise):
        schemoid_morphism(group_bullet(2), discrete, ident)
    copy = verify_quasi_schemoid(cat, discrete_partition(cat))
    assert compose_schemoid_morphisms(identity_morphism(copy), g).block_image == {"0": "0", "1": "1"}
