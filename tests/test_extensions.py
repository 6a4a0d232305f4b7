import time
from itertools import product as iproduct

import pytest

from schemoids import corpus, extensions
from schemoids.extensions import (
    BaseMismatch,
    BaseNotConnectedGroupoid,
    ComplexTooLarge,
    Cochain2,
    EXTENSION_BUDGET,
    ExtensionError,
    ExtensionTooLarge,
    FunctorialityViolated,
    HypothesisFailed,
    InvalidModulus,
    NotACocycle,
    NotNormalized,
    build_extension,
    bw_cohomology,
    bw_differentials,
    coboundary_of_1cochain,
    cochain2_from_function,
    cochain2_sub,
    cocycle_from_json,
    cocycle_to_json,
    equivalence,
    extensions_equivalent,
    induced_system,
    is_normalized,
    is_split,
    lift_involution,
    lift_schemoid,
    normalize_cocycle,
    trivial_system,
    validate_natural_system,
    zero_cochain2,
)
from schemoids.fincat import (
    NonAssociative,
    as_groupoid,
    build_category,
    cyclic_group_table,
    one_object_group,
    terminal_category,
)
from schemoids.schemes import hamming, j_embed
from schemoids.schemoid import discrete_partition, is_unital, make_partition, verify_quasi_schemoid

from test_schemoid import group_bullet
from oracles import (
    bar_complex_group_cohomology,
    brute_force_sections,
    cocycle_defect,
    coboundary_of_1cochain as coboundary_by_formula,
    dense_cohomology_invariants,
    equivalences_by_search,
    full_complex_section,
    labelled_system,
    unchecked_system,
)


def zcat(n):
    return one_object_group(*cyclic_group_table(n)).base


def product_base():
    """j(H(2,2)) x (Z/2)-bullet as a quasi-schemoid with involution."""
    from schemoids.schemoid import schemoid_product
    return schemoid_product(j_embed(hamming(2, 2)), group_bullet(2))


def z2_cocycle_on_product(base_cat):
    """Pullback of the nontrivial group 2-cocycle of Z/2: value a.b on the
    group components of the pair of morphisms."""
    def group_part(m):
        # product morphism ids look like "((x,y),g)" with g in {0, 1}
        return int(m[:-1].rsplit(",", 1)[1])

    def fn(f, g):
        return (group_part(f) * group_part(g) % 2,)

    return fn


def test_group_cocycle_pullback_reads_the_projection():
    """The corpus cocycle, read through the second projection, equals the
    value a.b read off the product morphism names."""
    cat = product_base().category
    fn = corpus.group_cocycle_pullback(cat)
    by_name = z2_cocycle_on_product(cat)
    assert all(fn(f, g) == by_name(f, g) for f, g in cat.compose)
    assert {fn(f, g) for f, g in cat.compose} == {(0,), (1,)}
    with pytest.raises(ValueError):
        corpus.group_cocycle_pullback(zcat(2))


def test_trivial_system_validates():
    for cat in (terminal_category(), zcat(2), j_embed(hamming(2, 2)).category):
        sys_ = trivial_system(cat, 2)
        assert validate_natural_system(cat, 2, *labelled_system(sys_)) == sys_


def test_induced_system_validates():
    cat = zcat(2)
    # H: one object -> (Z/3)^1 with H(g) = multiplication by -1 (order 2)
    sys_ = induced_system(cat, 3, {"*": 1}, {"0": [[1]], "1": [[2]]})
    assert validate_natural_system(cat, 3, *labelled_system(sys_)) == sys_


def test_broken_system_detected():
    """One wrong matrix, 1_* = 0 on D_1; the witness is the push law at
    (1, 1, 0): (1∘1)_* = 0_* = 1 on D_0, but 1_* 1_* = 0."""
    cat = zcat(2)
    rank, push, pull = labelled_system(trivial_system(cat, 2))
    push[("1", "1")] = ((0,),)  # not the required composite
    with pytest.raises(FunctorialityViolated) as err:
        validate_natural_system(cat, 2, rank, push, pull)
    assert err.value.witness == ("push", "1", "1", "0")


def one_object_tables(cat, push_at, pull_at):
    """Push and pull tables on a one-object group: the push at (a, f) is
    push_at(a), the pull at (f, b) is pull_at(b)."""
    pairs = [(f, g) for f in cat.morphism_ids for g in cat.morphism_ids]
    return {(a, f): push_at(a) for a, f in pairs}, {(f, b): pull_at(b) for f, b in pairs}


def test_pull_law_is_checked():
    """Z/3 over Z/7, rank 1, push the identity and pull (f, b) -> P(b) with
    P(0) = 1, P(1) = P(2) = 2: every law but the pull law holds, and
    (1∘1)^* = P(2) = 2 differs from 1^* 1^* = 4."""
    cat = zcat(3)
    scale = {"0": 1, "1": 2, "2": 2}
    push, pull = one_object_tables(cat, lambda a: [[1]], lambda b: [[scale[b]]])
    rank = dict.fromkeys(cat.morphism_ids, 1)
    with pytest.raises(FunctorialityViolated, match=r"^pull law fails at \('0', '1', '1'\)$") as err:
        validate_natural_system(cat, 7, rank, push, pull)
    assert err.value.witness == ("pull", "0", "1", "1")


def test_commute_law_is_checked():
    """Z/2 over Z/3, rank 2, push A = diag(1, 2) at a = 1 and pull
    B = [[0, 1], [1, 0]] at b = 1: push and pull are each functorial, but
    AB != BA."""
    cat = zcat(2)
    one = [[1, 0], [0, 1]]
    push, pull = one_object_tables(cat, lambda a: [[1, 0], [0, 2]] if a == "1" else one,
                                   lambda b: [[0, 1], [1, 0]] if b == "1" else one)
    rank = dict.fromkeys(cat.morphism_ids, 2)
    with pytest.raises(FunctorialityViolated, match=r"^commute law fails at \('1', '0', '1'\)$") as err:
        validate_natural_system(cat, 3, rank, push, pull)
    assert err.value.witness == ("commute", "1", "0", "1")


def test_distributivity_is_checked():
    """One composite of a freshly built total moved within its fiber,
    (1|1)∘(1|1) = 0|0 made 0|1, breaks the linear distributivity law."""
    cat = zcat(2)
    ext = build_extension(cat, trivial_system(cat, 2), zero_cochain2())
    total = ext.total
    i, k = total.index["1|1"], total.index["0|1"]
    assert total.rows[i][total.inpos[i]] == total.index["0|0"]
    total.rows[i][total.inpos[i]] = k
    with pytest.raises(ExtensionError, match=r"^distributivity fails over \('1', '1'\)$"):
        extensions._verify_distributivity(ext)


def test_terminal_cohomology_vanishes():
    cat = terminal_category()
    for sys_ in (trivial_system(cat, 2), trivial_system(cat, 3, rank=2), trivial_system(cat, 4)):
        for deg in (1, 2):
            h = bw_cohomology(cat, sys_, deg)
            assert h.describe() == "0"


def test_group_cohomology_z2():
    cat = zcat(2)
    sys_ = trivial_system(cat, 2)
    h2 = bw_cohomology(cat, sys_, 2)
    assert h2.invariants == (2,) and h2.order == 2
    h1 = bw_cohomology(cat, sys_, 1)
    assert h1.invariants == (2,)  # Hom(Z/2, Z/2)


def test_group_cohomology_z3_mod2():
    cat = zcat(3)
    sys_ = trivial_system(cat, 2)
    assert bw_cohomology(cat, sys_, 2).describe() == "0"
    assert bw_cohomology(cat, sys_, 1).describe() == "0"


def test_group_cohomology_matches_bar_complex():
    """Degree 1 and 2 cross-check against the independently coded bar complex."""
    for n, m, rank in ((2, 2, 1), (3, 2, 1), (2, 3, 1), (4, 2, 1), (2, 2, 2), (2, 4, 1)):
        cat = zcat(n)
        sys_ = trivial_system(cat, m, rank=rank)
        els, table = cyclic_group_table(n)
        for deg in (1, 2):
            ours = bw_cohomology(cat, sys_, deg)
            oracle = bar_complex_group_cohomology(els, table, m, deg, rank=rank)
            assert sorted(ours.invariants) == sorted(oracle), (n, m, rank, deg)


def test_rational_cohomology_rank():
    cat = zcat(2)
    sys_ = trivial_system(cat, None)
    assert bw_cohomology(cat, sys_, 2).free_rank == 0  # finite group, Q coefficients


def test_complex_assembly_asserts_dd_zero():
    cat = j_embed(hamming(2, 2)).category
    sys_ = trivial_system(cat, 2)
    cx = bw_differentials(cat, sys_)
    assert cx.dim == (4, 16, 64, 256)


def test_cocycle_normalization():
    cat = zcat(2)
    sys_ = trivial_system(cat, 2)
    raw = cochain2_from_function(sys_, lambda f, g: (1,))
    assert not is_normalized(sys_, raw)
    fixed = normalize_cocycle(sys_, raw)
    assert is_normalized(sys_, fixed)
    # normalization preserves the class
    diff = cochain2_sub(sys_, raw, fixed)
    cx = bw_differentials(cat, sys_)
    from schemoids import linalg
    assert linalg.solve(cx.d1_rows, cx.cochain2_vector(diff), cx.dim[1], 2) is not None


def test_build_extension_zero_cocycle_z2():
    cat = zcat(2)
    sys_ = trivial_system(cat, 2)
    ext = build_extension(cat, sys_, zero_cochain2())
    assert len(ext.total.morphisms) == 4
    s = is_split(ext)
    assert s is not None
    # zero cocycle splits via the zero section
    assert s.morphism_map["0"] == "0|0"


def test_build_extension_rejects_bad_input():
    cat = zcat(2)
    sys_ = trivial_system(cat, 2)
    bad = Cochain2({("1", "0"): (1,)})  # g∘1 entry: not normalized
    with pytest.raises(NotNormalized):
        build_extension(cat, sys_, bad)
    not_cocycle = Cochain2({("1", "1"): (1,), ("0", "0"): (0,)})
    # delta(1,1)=1 alone IS the Z/4 cocycle; check it passes instead
    ext = build_extension(cat, sys_, not_cocycle)
    assert ext is not None


def test_z4_extension_of_z2_not_split():
    """The nontrivial class of H^2(Z/2; Z/2): total category is Z/4."""
    cat = zcat(2)
    sys_ = trivial_system(cat, 2)
    delta = Cochain2({("1", "1"): (1,)})
    ext = build_extension(cat, sys_, delta)
    assert is_split(ext) is None
    assert brute_force_sections(ext) == []
    # total category is the cyclic group of order 4: every element invertible,
    # and some element has order 4
    from schemoids.fincat import as_groupoid
    g = as_groupoid(ext.total)
    orders = set()
    for e in ext.total.morphism_ids:
        k, cur = 1, e
        while not ext.total.is_identity(cur):
            cur = ext.total.comp(e, cur)
            k += 1
        orders.add(k)
    assert 4 in orders


def test_split_matches_bruteforce():
    cat = zcat(2)
    sys_ = trivial_system(cat, 2)
    for delta, expect in ((zero_cochain2(), True), (Cochain2({("1", "1"): (1,)}), False)):
        ext = build_extension(cat, sys_, delta)
        assert (is_split(ext) is not None) == expect
        assert bool(brute_force_sections(ext)) == expect


def test_appendix_toy_composition():
    """(f,a,a')∘(g,b,b') = (f∘g, a+b, ab + a' + b') in the twisted extension."""
    base = product_base()
    cat = base.category
    sys_ = trivial_system(cat, 2)
    delta = cochain2_from_function(sys_, z2_cocycle_on_product(cat))
    assert is_normalized(sys_, delta)
    ext = build_extension(cat, sys_, delta)
    for (f, g) in list(cat.compose)[:32]:
        fa, fb = int(f[:-1].rsplit(",", 1)[1]), int(g[:-1].rsplit(",", 1)[1])
        for a2 in (0, 1):
            for b2 in (0, 1):
                e1 = f"{f}|{a2}"
                e2 = f"{g}|{b2}"
                comp = ext.total.comp(e1, e2)
                base_comp = cat.comp(f, g)
                expected_fiber = (fa * fb + a2 + b2) % 2
                assert comp == f"{base_comp}|{expected_fiber}"


def test_lift_schemoid_scaling_j_h22():
    base = j_embed(hamming(2, 2))
    sys_ = trivial_system(base.category, 2)
    ext = build_extension(base.category, sys_, zero_cochain2())
    lifted = lift_schemoid(base, ext)
    assert lifted.p("R1", "R1", "R2") == 4  # 2 x base constant 2
    for (s, t, m), v in base.constants.entries.items():
        assert lifted.p(s, t, m) == 2 * v


def test_lift_discrete_on_point():
    cat = terminal_category()
    qs = verify_quasi_schemoid(cat, discrete_partition(cat))
    sys_ = trivial_system(cat, 2)
    ext = build_extension(cat, sys_, zero_cochain2())
    lifted = lift_schemoid(qs, ext)
    assert len(lifted.partition) == 1
    only = lifted.block_names()[0]
    assert len(lifted.partition.blocks[only]) == 2
    assert lifted.p(only, only, only) == 2


def test_lift_involution_j_h22():
    base = j_embed(hamming(2, 2))
    sys_ = trivial_system(base.category, 2)
    ext = build_extension(base.category, sys_, zero_cochain2())
    schemoid = lift_involution(base, ext)
    assert schemoid.involution is not None
    # T-tilde is the inverse map on all 32 morphisms
    from schemoids.fincat import as_groupoid
    inv = as_groupoid(ext.total).inverse
    for e in ext.total.morphism_ids:
        assert schemoid.involution.functor.morphism_map[e] == inv[e]


def test_lift_involution_nontrivial_cocycle():
    base = product_base()
    cat = base.category
    sys_ = trivial_system(cat, 2)
    delta = cochain2_from_function(sys_, z2_cocycle_on_product(cat))
    ext = build_extension(cat, sys_, delta)
    schemoid = lift_involution(base, ext)
    assert not is_unital(schemoid.category, schemoid.partition)[0]
    # lifted constants are 2 x base on all triples
    for s in base.block_names():
        for t in base.block_names():
            for m in base.block_names():
                assert schemoid.p(s, t, m) == 2 * base.p(s, t, m)


@pytest.mark.parametrize("m, a, invertible", [(4, 2, False), (6, 3, False),
                                               (4, 3, True), (6, 5, True)])
def test_lift_refuses_non_invertible_transport(m, a, invertible):
    """Over the arrow category x -f-> y, f_* = (a) on (Z/m)^1 is invertible
    exactly when gcd(a, m) = 1; otherwise the lift is refused."""
    base = corpus.build("ex2_8")
    system = induced_system(base.category, m, {"x": 1, "y": 1},
                            {"1_x": [[1]], "1_y": [[1]], "f": [[a]]})
    ext = build_extension(base.category, system, zero_cochain2())
    if invertible:
        lifted = lift_schemoid(base, ext)
        assert len(lifted.category.morphisms) == 3 * m
    else:
        with pytest.raises(HypothesisFailed, match="not invertible"):
            lift_schemoid(base, ext)


def test_lift_involution_rank_two_shear():
    """Z/3 acting on (Z/3)^2 by a shear, whose inverse is not its transpose:
    every lifted morphism gets its true inverse."""
    base = group_bullet(3)
    shear = {"0": [[1, 0], [0, 1]], "1": [[1, 1], [0, 1]], "2": [[1, 2], [0, 1]]}
    system = induced_system(base.category, 3, {"*": 2}, shear)
    lifted = lift_involution(base, build_extension(base.category, system, zero_cochain2()))
    total, inverse = lifted.category, lifted.involution.functor.morphism_map
    assert len(total.morphisms) == 27
    for e in total.morphism_ids:
        assert total.comp(e, inverse[e]) == total.identity[total.tgt(e)]


def test_lift_involution_rank_two_shear_nontrivial_cocycle():
    """The shear system with the normalized cocycle d F, F(1) = (1, 0) and
    F(2) = (0, 1): delta(1, 2) = (2, 1) enters the inverse formula, and every
    lifted inverse is the total category's own."""
    from schemoids.fincat import as_groupoid
    base = group_bullet(3)
    shear = {"0": [[1, 0], [0, 1]], "1": [[1, 1], [0, 1]], "2": [[1, 2], [0, 1]]}
    system = induced_system(base.category, 3, {"*": 2}, shear)
    delta = coboundary_of_1cochain(system, {"1": (1, 0), "2": (0, 1)})
    assert is_normalized(system, delta) and delta.entries[("1", "2")] == (2, 1)
    ext = build_extension(base.category, system, delta)
    lifted = lift_involution(base, ext)
    assert lifted.involution.functor.morphism_map == as_groupoid(ext.total).inverse


def test_lift_involution_reads_cocycle_entries_mod_m():
    """On Z/2 over Z/2, the entries 3 and -1 at (1, 1) are the class of 1:
    all three build the same total and lift to the same involution."""
    base = corpus.build("ex2_7_z2")
    system = trivial_system(base.category, 2)
    maps = [lift_involution(base, build_extension(base.category, system,
                                                  Cochain2({("1", "1"): (x,)})))
            .involution.functor.morphism_map for x in (1, 3, -1)]
    assert maps[0] == maps[1] == maps[2] == {"0|0": "0|0", "0|1": "0|1", "1|0": "1|1", "1|1": "1|0"}


def test_lift_refuses_a_rank_changing_push():
    """Over the arrow category x -f-> y with ranks x: 1 and y: 2, f_* is a
    2 x 1 matrix, so no transport at (f, 1_x) is a bijection of fibers."""
    base = corpus.build("ex2_8")
    system = induced_system(base.category, 2, {"x": 1, "y": 2},
                            {"1_x": [[1]], "1_y": [[1, 0], [0, 1]], "f": [[1], [0]]})
    ext = build_extension(base.category, system, zero_cochain2())
    with pytest.raises(HypothesisFailed, match=r"transport matrix at \('f', '1_x'\) is not invertible"):
        lift_schemoid(base, ext)


@pytest.mark.parametrize("d, split", [(0, True), (2, False)])
def test_lift_involution_over_a_sign_pullback(d, split):
    """Z/2 over Z/4 with every push the identity and the generator pulling
    back by -1, a system that is not induced, where H^2 = Z/2: the split
    extension (delta(1, 1) = 0) and the non-split one (delta(1, 1) = 2) both
    lift, each involution is the total's own inverse map and every constant
    is 4 times the base one."""
    base = corpus.build("ex2_7_z2")
    cat = base.category
    pairs = list(iproduct(cat.morphism_ids, repeat=2))
    system = validate_natural_system(cat, 4, dict.fromkeys(cat.morphism_ids, 1),
                                     dict.fromkeys(pairs, [[1]]),
                                     {(f, b): [[3 if b == "1" else 1]] for f, b in pairs})
    assert bw_cohomology(cat, system, 2).invariants == (2,)
    ext = build_extension(cat, system, Cochain2({("1", "1"): (d,)}))
    assert (is_split(ext) is not None) is split
    lifted = lift_involution(base, ext)
    assert lifted.involution.functor.morphism_map == as_groupoid(ext.total).inverse
    names = base.block_names()
    for sigma, tau, mu in iproduct(names, repeat=3):
        assert lifted.p(sigma, tau, mu) == 4 * base.p(sigma, tau, mu)


def test_lift_refuses_a_block_over_identities_of_two_ranks():
    """Two objects with only their identities, both in one block: over ranks
    1 at x and 2 at y the fibers of the block's members differ in size, and
    the lift is refused."""
    cat = build_category(["x", "y"], [("1_x", "x", "x"), ("1_y", "y", "y")],
                         {"x": "1_x", "y": "1_y"}, [("1_x", "1_x", "1_x"), ("1_y", "1_y", "1_y")])
    base = verify_quasi_schemoid(cat, make_partition(cat, {"B": ["1_x", "1_y"]}))
    system = induced_system(cat, 2, {"x": 1, "y": 2}, {"1_x": [[1]], "1_y": [[1, 0], [0, 1]]})
    ext = build_extension(cat, system, zero_cochain2())
    with pytest.raises(HypothesisFailed, match="source-identity ranks differ inside block 'B'"):
        lift_schemoid(base, ext)


def test_lift_involution_does_not_relabel_internal_errors(monkeypatch):
    """Only NotInvertible reads as "base is not a groupoid"; any other error
    propagates."""
    def extension(qs):
        return build_extension(qs.category, trivial_system(qs.category, 2), zero_cochain2())

    arrow = corpus.build("ex2_8")
    with pytest.raises(BaseNotConnectedGroupoid, match="not a groupoid"):
        lift_involution(arrow, extension(arrow))

    def broken(cat):
        raise RuntimeError("internal")

    monkeypatch.setattr(extensions, "as_groupoid", broken)
    base = group_bullet(2)
    with pytest.raises(RuntimeError, match="internal"):
        lift_involution(base, extension(base))


def test_every_extension_of_j_h22_splits():
    base = j_embed(hamming(2, 2))
    cat = base.category
    sys_ = trivial_system(cat, 2)
    cx = bw_differentials(cat, sys_)
    assert bw_cohomology(cat, sys_, 2, cx).describe() == "0"
    # build one nonzero normalized cocycle as a coboundary and split it
    fvals = {m: (1,) for m in cat.morphism_ids if not cat.is_identity(m)}
    delta = coboundary_of_1cochain(sys_, fvals)
    assert delta.entries, "coboundary should be nonzero"
    assert is_normalized(sys_, delta)
    ext = build_extension(cat, sys_, delta)
    section = is_split(ext)
    assert section is not None


def test_two_classes_over_product_base():
    base = product_base()
    cat = base.category
    sys_ = trivial_system(cat, 2)
    cx = bw_differentials(cat, sys_)
    h2 = bw_cohomology(cat, sys_, 2, cx)
    assert h2.invariants == (2,) and h2.order == 2
    delta1 = cochain2_from_function(sys_, z2_cocycle_on_product(cat))
    e0 = build_extension(cat, sys_, zero_cochain2())
    e1 = build_extension(cat, sys_, delta1)
    assert is_split(e0) is not None
    assert is_split(e1) is None
    assert extensions_equivalent(e0, e0)
    assert not extensions_equivalent(e0, e1)


def test_the_extension_layer_reads_no_labelled_table():
    """On the product base, the explicit-system check, the trivial system,
    the complex, H^1 and H^2, both extensions, splitting, equivalence and
    the lifted involution all run on the int rows: neither the base nor a
    total builds the labelled `compose` view."""
    base = product_base()
    cat = base.category
    sys_ = trivial_system(cat, 2)
    assert validate_natural_system(cat, 2, *labelled_system(sys_)) == sys_
    cx = bw_differentials(cat, sys_)
    assert cx.dim == (4, 32, 256, 2048)
    assert bw_cohomology(cat, sys_, 1, cx).invariants == (2,)
    assert bw_cohomology(cat, sys_, 2, cx).invariants == (2,)
    e0 = build_extension(cat, sys_, zero_cochain2())
    e1 = build_extension(cat, sys_, cochain2_from_function(sys_, z2_cocycle_on_product(cat)))
    assert is_split(e0) is not None and is_split(e1) is None
    assert extensions_equivalent(e1, e1) and not extensions_equivalent(e0, e1)
    assert lift_involution(base, e1).involution is not None
    for c in (cat, e0.total, e1.total):
        assert "compose" not in vars(c)


def test_not_a_cocycle_names_the_reference_triple():
    """Flip the e1 cocycle of the product base at each of its 196 pairs
    without an identity: build_extension refuses each, naming the first
    triple at which the reference finds d2 nonzero."""
    cat = product_base().category
    sys_ = trivial_system(cat, 2)
    delta1 = cochain2_from_function(sys_, z2_cocycle_on_product(cat))
    pairs = [(f, g) for (f, g) in cat.compose if not (cat.is_identity(f) or cat.is_identity(g))]
    assert len(pairs) == 196
    for f, g in pairs:
        tampered = cochain2_sub(sys_, delta1, Cochain2({(f, g): (1,)}))
        want = cocycle_defect(sys_, tampered)
        assert want is not None
        with pytest.raises(NotACocycle) as err:
            build_extension(cat, sys_, tampered)
        assert str(err.value) == f"d(delta) != 0 at {want[:3]}"


def test_cocycle_test_streams_the_triples():
    """The cocycle test of a build holds neither the triples nor d2."""
    cat = product_base().category
    sys_ = trivial_system(cat, 2)
    cx = bw_differentials(cat, sys_)
    assert cx.cocycle_defect(cochain2_from_function(sys_, z2_cocycle_on_product(cat))) is None
    assert "basis3" not in vars(cx) and "d2_rows" not in vars(cx)


def test_build_extension_scans_no_triple_when_the_total_is_associative(monkeypatch):
    """The total's associativity check is the cocycle test of a build, so
    an accepted cocycle is never checked triple by triple."""
    def scan(self, delta):
        raise AssertionError("cocycle_defect called on an accepted cocycle")

    monkeypatch.setattr(extensions.BWComplex, "cocycle_defect", scan)
    cat = product_base().category
    sys_ = trivial_system(cat, 2)
    ext = build_extension(cat, sys_, cochain2_from_function(sys_, z2_cocycle_on_product(cat)))
    assert len(ext.total.morphisms) == 64


def test_build_extension_on_a_system_that_is_not_natural():
    """A hand-built system on Z/3 whose push at (1, 1) is zero is not
    natural.  A cochain that is no cocycle for it is refused with the
    reference's first triple; the zero cocycle gives a table that is not
    associative, and that category error stands."""
    cat = zcat(3)
    one = ((1,),)
    push = {key: one for key in cat.compose}
    push[("1", "1")] = ((0,),)
    sys_ = unchecked_system(cat, 3, dict.fromkeys(cat.morphism_ids, 1), push,
                            {key: one for key in cat.compose})
    for delta in (Cochain2({("2", "2"): (1,)}), Cochain2({("1", "2"): (1,)})):
        want = cocycle_defect(sys_, delta)
        assert want is not None
        with pytest.raises(NotACocycle) as err:
            build_extension(cat, sys_, delta)
        assert str(err.value) == f"d(delta) != 0 at {want[:3]}"
    assert cocycle_defect(sys_, zero_cochain2()) is None
    with pytest.raises(NonAssociative) as err:
        build_extension(cat, sys_, zero_cochain2())
    assert str(err.value) == ("('1|0'∘'0|1')∘'1|0' = '2|1' but "
                              "'1|0'∘('0|1'∘'1|0') = '2|0'")


def test_build_extension_refuses_matrix_of_wrong_shape():
    """A hand-built system on Z/2 whose push at (1, 1) has two rows for a
    rank-1 fiber is refused before any table is built, not cut to one row."""
    cat = zcat(2)
    one = ((1,),)
    push = {key: one for key in cat.compose}
    push[("1", "1")] = ((1,), (1,))
    sys_ = unchecked_system(cat, 2, dict.fromkeys(cat.morphism_ids, 1), push,
                            {key: one for key in cat.compose})
    with pytest.raises(FunctorialityViolated, match=r"push matrix for \('1', '1'\) has wrong shape"):
        build_extension(cat, sys_, zero_cochain2())


def test_build_extension_refuses_cocycle_entry_of_wrong_length():
    """D of 1∘1 has rank 1 over Z/2 with the trivial rank-1 system, so a
    two-coordinate entry, built in code or read as JSON (zero or not), is
    refused, not cut to one."""
    cat = zcat(2)
    sys_ = trivial_system(cat, 2)
    for delta in (Cochain2({("1", "1"): (1, 0)}),
                  cocycle_from_json(sys_, {"entries": [["1", "1", [0, 0]]]})):
        with pytest.raises(ExtensionError, match=r"\('1', '1'\) has 2 coordinates"):
            build_extension(cat, sys_, delta)


def test_build_extension_refuses_a_total_over_the_budget():
    """The trivial rank-12 system over Z/6 on Z/2 would give 2 * 6^12
    morphisms and 4 * 6^24 composites; both counts are named, and the
    refusal comes before any fiber element is, so it is immediate."""
    cat = zcat(2)
    sys_ = trivial_system(cat, 6, rank=12)
    start = time.perf_counter()
    with pytest.raises(ExtensionTooLarge) as err:
        build_extension(cat, sys_, zero_cochain2())
    assert time.perf_counter() - start < 1
    assert f"{2 * 6 ** 12} morphisms and {4 * 6 ** 24} composites" in str(err.value)
    assert str(EXTENSION_BUDGET) in str(err.value)


def test_extension_budget_admits_j_h52_over_z3():
    """The largest extension any test, benchmark or CI step builds, j(H(5,2))
    over Z/3 (3072 morphisms, 294912 composites), is within the budget;
    counted here without building it."""
    cat = j_embed(hamming(5, 2)).category
    extensions._check_budget(cat, trivial_system(cat, 3))


def test_d2_budget_admits_exactly_the_budget(monkeypatch):
    """With the budget lowered to 8, d2 of Z/2 over Z/2 (dim C^3 = 8) is
    built and d2 of Z/3 (27) is refused, before any row is built."""
    monkeypatch.setattr(extensions, "COMPLEX_BUDGET", 8)
    cx = bw_differentials(zcat(2), trivial_system(zcat(2), 2))
    assert cx.dim[3] == len(cx.d2_rows) == 8
    cx = bw_differentials(zcat(3), trivial_system(zcat(3), 2))

    def built(*args):
        raise AssertionError("a row of d2 was built")

    monkeypatch.setattr(extensions.BWComplex, "_d2_at", built)
    with pytest.raises(ComplexTooLarge, match="d2 would have 27 rows: over the budget of 8"):
        cx.d2_rows


def test_d2_budget_admits_j_h42_over_z2():
    """d2 of j(H(4,2)) over Z/2, the complex the budget's comment measures,
    has 65536 rows, within COMPLEX_BUDGET; counted without building it."""
    cat = j_embed(hamming(4, 2)).category
    assert bw_differentials(cat, trivial_system(cat, 2)).dim[3] == 65536 <= extensions.COMPLEX_BUDGET


def test_equivalence_coboundary_shift():
    cat = zcat(2)
    sys_ = trivial_system(cat, 2)
    fvals = {"1": (1,)}
    shift = coboundary_of_1cochain(sys_, fvals)
    delta = Cochain2({("1", "1"): (1,)})
    shifted = cochain2_sub(sys_, delta, shift)
    e1 = build_extension(cat, sys_, delta)
    e2 = build_extension(cat, sys_, normalize_cocycle(sys_, shifted))
    assert extensions_equivalent(e1, e2)


def test_base_mismatch():
    e1 = build_extension(zcat(2), trivial_system(zcat(2), 2), zero_cochain2())
    cat3 = zcat(3)
    e2 = build_extension(cat3, trivial_system(cat3, 2), zero_cochain2())
    with pytest.raises(BaseMismatch):
        extensions_equivalent(e1, e2)


def test_cocycle_json_roundtrip():
    cat = zcat(2)
    sys_ = trivial_system(cat, 2)
    delta = Cochain2({("1", "1"): (1,)})
    assert cocycle_from_json(sys_, cocycle_to_json(delta)).entries == delta.entries


@pytest.mark.parametrize("rank", [-1, "1", True, 1.5, None])
def test_trivial_system_refuses_a_rank_that_is_no_natural_number(rank):
    """A rank of -1 reached bw_cohomology and failed its count of d2's rows
    as an AssertionError; it is the input's fault, so an ExtensionError."""
    with pytest.raises(ExtensionError, match="rank must be a non-negative integer"):
        bw_cohomology(zcat(2), trivial_system(zcat(2), 2, rank), 2)


@pytest.mark.parametrize("modulus", [0, 1, -4, True, False, 2.0, "4"])
def test_invalid_modulus_rejected(modulus):
    """Every way of making a system checks the modulus: None or an int >= 2."""
    cat = zcat(2)
    with pytest.raises(InvalidModulus):
        trivial_system(cat, modulus)
    with pytest.raises(InvalidModulus):
        induced_system(cat, modulus, {"*": 1}, {"0": [[1]], "1": [[1]]})
    ident = [[1]]
    with pytest.raises(InvalidModulus):
        validate_natural_system(cat, modulus, {"0": 1, "1": 1},
                                {key: ident for key in cat.compose},
                                {key: ident for key in cat.compose})


@pytest.mark.parametrize("n, m, want", [(4, 8, (2, 4)), (6, 12, (2, 6)), (4, None, ())])
def test_mixed_invariant_factors(n, m, want):
    """Z/n acting on Z^2 by diag(1, -1): H^1 and H^2 have invariant factors
    of different orders; over Z/12 the 2- and 3-parts recombine into
    d_1 | d_2.  Frozen from the dense Smith lattice route."""
    cat = zcat(n)
    maps = {str(i): [[1, 0], [0, (-1) ** i]] for i in range(n)}
    system = induced_system(cat, m, {"*": 2}, maps)
    cx = bw_differentials(cat, system)
    for degree, d_prev, d_n in ((1, cx.d0, cx.d1), (2, cx.d1, cx.d2)):
        h = bw_cohomology(cat, system, degree, cx)
        assert h.invariants == want and h.free_rank == 0
        if m is not None:
            assert tuple(dense_cohomology_invariants(d_prev, d_n, cx.dim[degree], m)) == want


def test_composite_modulus_extension():
    """Z/4 coefficients on Z/2: H^2 = Z/2, through the elimination over Z/2^2."""
    cat = zcat(2)
    sys_ = trivial_system(cat, 4)
    h2 = bw_cohomology(cat, sys_, 2)
    assert h2.invariants == (2,)
    delta = Cochain2({("1", "1"): (2,)})  # the order-2 class times 1? value 2 mod 4
    ext = build_extension(cat, sys_, delta)
    # delta = 2 * (the generator): is it split? solve over Z/4
    got = is_split(ext)
    # the class of delta: d F = delta needs F with F(g)+F(g)-F(0)... decided by solver;
    # cross-check against brute force
    assert (got is not None) == bool(brute_force_sections(ext))


def test_split_section_over_an_odd_modulus():
    """s(f) = (f, F(f)) for d F = delta; with s(f) = (f, -F(f)) the section
    is no functor as soon as 2 F != 0, as over Z/3 here."""
    cat = zcat(3)
    sys_ = trivial_system(cat, 3)
    ext = build_extension(cat, sys_, coboundary_of_1cochain(sys_, {"1": (1,)}))
    section = is_split(ext)
    assert section is not None
    assert section.morphism_map["1"] in ext.fiber["1"]
    assert len(brute_force_sections(ext)) == 3      # one per 1-cocycle Hom(Z/3, Z/3)


@pytest.mark.parametrize("modulus", [2, 3])
def test_split_solves_d1_only_on_the_skeleton(monkeypatch, modulus):
    """The section of the zero extension of j(H(4,2)), and the equivalence
    of two separately built ones, are solved on the one-object skeleton and
    moved onto the 16 objects by conjugation: d1 is evaluated at the
    skeleton's one pair, never at the 4096 of the base, and no complex of
    the whole base is built."""
    cat = j_embed(hamming(4, 2)).category
    ext = build_extension(cat, trivial_system(cat, modulus), zero_cochain2())
    ext2 = build_extension(cat, trivial_system(cat, modulus), zero_cochain2())
    sk = bw_differentials(cat, ext.system).skeleton.category
    calls, complexes = [], []
    d1_at, complex_of = extensions.BWComplex._d1_at, extensions.bw_differentials

    def spy(self, f, g):
        calls.append((self.category.objects, f, g))
        return d1_at(self, f, g)

    def spy_complex(c, system):
        complexes.append(c.objects)
        return complex_of(c, system)

    monkeypatch.setattr(extensions.BWComplex, "_d1_at", spy)
    monkeypatch.setattr(extensions, "bw_differentials", spy_complex)
    section = is_split(ext)
    assert section is not None
    assert all(section.morphism_map[f] == ext.fiber[f][0] for f in cat.morphism_ids)
    phi = equivalence(ext, ext2)
    assert phi is not None
    assert all(phi.morphism_map[e] == e for e in ext.total.morphism_ids)
    assert set(calls) == {(sk.objects, f, g) for f, (g, _) in sk.entries()}
    assert complexes == [sk.objects, sk.objects]


def twisted_i2_z3():
    """I_2 x Z/3 with its two projections, and the Z/3 system induced by
    letting the cross morphisms act by -1."""
    from schemoids.fincat import product_with_projections
    from test_properties import indiscrete_category
    cat, p, q = product_with_projections(indiscrete_category(2), zcat(3))
    maps = {f: [[-1 if p(f) in ("p0>p1", "p1>p0") else 1]] for f in cat.morphism_ids}
    return cat, p, q, induced_system(cat, 3, dict.fromkeys(cat.objects, 1), maps)


def twisted_coboundary_extension():
    """On `twisted_i2_z3`, the extension by delta = d F with F = 1 on the
    morphisms p1 -> p0, and those morphisms."""
    cat, p, _, system = twisted_i2_z3()
    back = [f for f in cat.morphism_ids if p(f) == "p1>p0"]
    return build_extension(cat, system, coboundary_of_1cochain(system, dict.fromkeys(back, (1,)))), back


def test_split_moves_a_twisted_section_through_inverse_lifts():
    """On I_2 x Z/3, the cross morphisms acting by -1 on Z/3, and delta = d F
    with F = 1 on the morphisms p1 -> p0: the lift (u, 0) of an isomorphism
    u: p1 -> p0 has its inverse off position 0 of the fiber over u^-1, so
    the conjugation must find it.  The section is one of those the
    exhaustive search finds."""
    ext, back = twisted_coboundary_extension()
    cat = ext.base
    for u in back:
        (v,) = [v for v in cat.hom(cat.tgt(u), cat.src(u)) if cat.is_identity(cat.comp(v, u))]
        assert not ext.total.is_identity(ext.total.comp(ext.fiber[v][0], ext.fiber[u][0]))
    section = is_split(ext)
    assert section is not None
    assert section.morphism_map in brute_force_sections(ext, cap=3 ** 12)


def test_equivalence_conjugates_the_source_through_its_inverse_lifts():
    """With the twisted coboundary extension as the source, the conjugate
    ũ1_y ∘ (f, 0) ∘ ũ1_x⁻¹ lies off position 0 of its fiber, so φ must read
    it from the source's total.  Each functor is one the search finds."""
    e1, _ = twisted_coboundary_extension()
    e0 = build_extension(e1.base, e1.system, zero_cochain2())
    for a, b in ((e1, e0), (e1, e1), (e0, e1)):
        phi = equivalence(a, b)
        assert phi is not None
        assert phi.morphism_map in equivalences_by_search(a, b, cap=3 ** 12)


def test_split_on_a_skeletal_base_is_the_full_solve():
    """Z/4 is its own skeleton, so every conjugating isomorphism is an
    identity and the section is the one the whole complex's solve gives."""
    cat = zcat(4)
    system = trivial_system(cat, 2)
    ext = build_extension(cat, system, coboundary_of_1cochain(system, {"1": (1,), "2": (1,)}))
    assert bw_differentials(cat, system).skeleton.category is cat
    section = is_split(ext)
    assert section is not None and any(v != ext.fiber[f][0] for f, v in section.morphism_map.items())
    assert section.morphism_map == full_complex_section(ext)


def test_cohomology_of_j_h52_on_its_skeleton():
    """dims (32, 1024, 32768, 1048576); the whole complex took 29 s and 1 GB,
    the skeleton is the terminal category."""
    cat = j_embed(hamming(5, 2)).category
    sys_ = trivial_system(cat, 2)
    cx = bw_differentials(cat, sys_)
    assert cx.dim == (32, 1024, 32768, 1048576)
    assert bw_cohomology(cat, sys_, 1, cx).describe() == "0"
    assert bw_cohomology(cat, sys_, 2, cx).describe() == "0"
    assert "d2_rows" not in vars(cx) and "basis3" not in vars(cx)


def test_skeleton_of_groupoid_bases():
    """j(H(3,2)) has the terminal category as skeleton, the product base
    the one-object Z/2."""
    cat = j_embed(hamming(3, 2)).category
    sk = bw_differentials(cat, trivial_system(cat, 2)).skeleton.category
    assert len(sk.objects) == 1 and len(sk.morphisms) == 1
    cat = product_base().category
    sk = bw_differentials(cat, trivial_system(cat, 2)).skeleton.category
    assert len(sk.objects) == 1 and len(sk.morphisms) == 2
    e = sk.identity[sk.objects[0]]
    (g,) = [f for f in sk.morphism_ids if f != e]
    assert sk.comp(g, g) == e                       # the one-object Z/2


def test_skeleton_needs_both_composites():
    """g∘f = 1_a but f∘g is an idempotent e != 1_b: a and b are not
    isomorphic, so the category is its own skeleton."""
    from schemoids.fincat import build_category
    cat = build_category(
        ["a", "b"],
        [("1a", "a", "a"), ("1b", "b", "b"), ("f", "a", "b"), ("g", "b", "a"), ("e", "b", "b")],
        {"a": "1a", "b": "1b"},
        [("g", "f", "1a"), ("f", "g", "e"), ("e", "f", "f"), ("g", "e", "g"), ("e", "e", "e")])
    for modulus in (2, None):
        cx = bw_differentials(cat, trivial_system(cat, modulus))
        assert cx.skeleton is cx


def every_cocycle_extension(cat, system):
    """The extension of every normalized 2-cochain that build_extension
    accepts, the cochains enumerated over the pairs without an identity."""
    pairs = [(f, g) for (f, g) in cat.compose if not (cat.is_identity(f) or cat.is_identity(g))]
    values = [list(iproduct(range(system.modulus), repeat=system.rank[cat.index[cat.comp(f, g)]]))
              for f, g in pairs]
    exts = []
    for choice in iproduct(*values):
        try:
            exts.append(build_extension(cat, system, Cochain2(dict(zip(pairs, choice)))))
        except NotACocycle:
            pass
    return exts


def twisted_cocycle_extensions():
    """On `twisted_i2_z3`, whose 50 pairs without an identity allow 3^50
    cochains, a sample: k times the carry cocycle of Z/3 moved onto the base,
    delta(f, g) = H(u)^-1 (k carry(q f, q g)) with u the cross morphism into
    the object of p0 (-1 when tgt f lies over p1), plus d F for three
    normalized F, d F computed by vector arithmetic."""
    cat, p, q, system = twisted_i2_z3()
    back = [f for f in cat.morphism_ids if p(f) == "p1>p0"]
    loops = [f for f in cat.morphism_ids if p(f) == "p0>p0" and not cat.is_identity(f)]
    shifts = [coboundary_by_formula(system, fvals)
              for fvals in ({}, dict.fromkeys(back, (1,)), {loops[0]: (2,), back[1]: (1,)})]

    def carried(k, shift):
        def fn(f, g):
            sign = -1 if p.object_map[cat.tgt(f)] == "p1" else 1
            carry = int(q(f)) + int(q(g)) >= 3
            return ((sign * k * carry + shift.value(system, f, g)[0]) % 3,)
        return cochain2_from_function(system, fn)

    return cat, system, [build_extension(cat, system, carried(k, shift))
                         for k in range(3) for shift in shifts]


def sweep(cat, system):
    return cat, system, every_cocycle_extension(cat, system)


def product_base_of(c, n):
    from schemoids.fincat import product_with_projections
    return product_with_projections(c, zcat(n))[0]


EQUIVALENCE_SWEEPS = {
    "Z/2 over Z/2": (2, lambda: sweep(zcat(2), trivial_system(zcat(2), 2))),
    "Z/3 over Z/3": (3, lambda: sweep(zcat(3), trivial_system(zcat(3), 3))),
    "Z/4 over Z/2": (2, lambda: sweep(zcat(4), trivial_system(zcat(4), 2))),
    "Z/2xZ/2 over Z/2": (8, lambda: sweep(product_base_of(zcat(2), 2),
                                          trivial_system(product_base_of(zcat(2), 2), 2))),
    "arrow x Z/2 over Z/2": (2, lambda: sweep(product_base_of(corpus.build("ex2_8").category, 2),
                                              trivial_system(product_base_of(
                                                  corpus.build("ex2_8").category, 2), 2))),
    "twisted I_2 x Z/3": (3, twisted_cocycle_extensions),
}


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_SWEEPS))
def test_equivalence_classes_by_search(case):
    """The search, which uses no cohomology, splits the extensions into
    H^2.order classes; `equivalence` finds a functor exactly for the pairs
    in one class, and it is one the search finds.  The search finds the same
    number of functors for every equivalent pair."""
    classes_expected, build = EQUIVALENCE_SWEEPS[case]
    cat, system, exts = build()
    classes, counts = set(), set()
    for a in exts:
        row = []
        for b in exts:
            found = equivalences_by_search(a, b, cap=3 ** 12)
            phi = equivalence(a, b)
            assert (phi is not None) == bool(found)
            if found:
                assert phi.morphism_map in found
                counts.add(len(found))
            row.append(bool(found))
        classes.add(tuple(row))
    assert len(classes) == bw_cohomology(cat, system, 2).order == classes_expected
    assert len(counts) == 1


def test_a_witness_that_fails_its_check_is_an_internal_error(monkeypatch):
    """`_transported` with one fiber position flipped gives a map that is no
    functor; the check on the witness is the program's own certificate, so
    split and equivalence raise AssertionError, not a refusal."""
    e0 = corpus.extension_e(0)
    f = next(i for i, f in enumerate(e0.base.morphism_ids) if not e0.base.is_identity(f))
    transported = extensions._transported

    def flipped(e2, e1):
        image = transported(e2, e1)
        image[f] = 1 - image[f]
        return image

    monkeypatch.setattr(extensions, "_transported", flipped)
    for witness in (lambda: is_split(e0), lambda: equivalence(e0, e0)):
        with pytest.raises(AssertionError, match="the witness is no functor"):
            witness()


def test_natural_system_equality_compares_each_row_pair_once(monkeypatch):
    """Two trivial systems on j(H(3,2)) share one row per source object, so
    equality compares 8 pairs of rows of 8 matrices each, not the 512 push
    and 512 pull matrices one by one; a system is equal to itself with no
    comparison at all."""
    from schemoids import linalg
    cat = j_embed(hamming(3, 2)).category
    one, other = trivial_system(cat, 2), trivial_system(cat, 2)
    calls = []
    mat_eq_mod = linalg.mat_eq_mod

    def counted(a, b, m):
        calls.append(m)
        return mat_eq_mod(a, b, m)

    monkeypatch.setattr(linalg, "mat_eq_mod", counted)
    assert one == one and not calls
    assert one == other and len(calls) == len(cat.morphisms) == 64


def test_natural_system_equality_sees_one_changed_matrix():
    """A copy of the trivial system with one push or one pull matrix changed
    at one pair compares unequal, although the other rows stay shared; a
    matrix equal mod m compares equal."""
    from dataclasses import replace
    cat = zcat(3)
    system = trivial_system(cat, 2)
    i, j = cat.index["1"], cat.index["2"]
    for field in ("push", "pull"):
        for mat, equal in ((((0,),), False), (((3,),), True)):
            rows = list(getattr(system, field))
            rows[i] = {**rows[i], j: mat}
            changed = replace(system, **{field: tuple(rows)})
            assert (changed == system) is equal and (system == changed) is equal


def test_lift_schemoid_checks_each_shared_transport_table_once(monkeypatch):
    """The trivial system on j(H(3,2)) gives one identity table, shared by
    the push and pull of all 512 pairs; lift_schemoid reads it for its
    bijection check once."""
    base = j_embed(hamming(3, 2))
    ext = build_extension(base.category, trivial_system(base.category, 2), zero_cochain2())
    reads = []

    class Counted(list):
        def __iter__(self):
            reads.append(id(self))
            return super().__iter__()

    counted = {}
    pairs = [tuple(counted.setdefault(id(t), Counted(t)) for t in tables)
             for tables in ext.tables.pairs]
    monkeypatch.setattr(ext.tables, "pairs", pairs)
    assert len(counted) == 1
    lifted = lift_schemoid(base, ext)
    assert len(reads) == 1 and len(lifted.category.morphisms) == 128
