import dataclasses
import time

import pytest
from hypothesis import given, settings, strategies as st

from schemoids import bridges
from schemoids.bridges import (
    NotBasedMorphism,
    NotSemiThin,
    canonical_groupoid_witness,
    faithfulness_roundtrip,
    k_discrete,
    phi_psi_check,
    r_tilde,
    s_tilde,
    s_tilde_on_functor,
)
from schemoids.fincat import (
    Functor,
    Groupoid,
    build_category,
    cyclic_group_table,
    disjoint_union,
    one_object_group,
    terminal_category,
    validate_functor,
)
from schemoids.schemes import SizeLimit
from schemoids.schemoid import (
    analyze_thinness,
    check_association,
    make_partition,
    schemoid_isomorphic,
    schemoid_morphism,
    verify_quasi_schemoid,
)
from schemoids.algebra import Rationals, schemoid_algebra

from oracles import thin_base_points
from test_schemoid import group_bullet


def zmod(n):
    return one_object_group(*cyclic_group_table(n))


def two_object_connected_groupoid():
    """Objects x, y with exactly one morphism in every hom-set."""
    mors = [("xx", "x", "x"), ("yy", "y", "y"), ("xy", "x", "y"), ("yx", "y", "x")]
    compose = {}
    for m1, s1, t1 in mors:
        for m2, s2, t2 in mors:
            if s1 == t2:
                compose[(m1, m2)] = next(m for m, s, t in mors if s == s2 and t == t1)
    cat = build_category(["x", "y"], mors, {"x": "xx", "y": "yy"},
                         ((f, g, fg) for (f, g), fg in compose.items()))
    return Groupoid(cat, {"xx": "xx", "yy": "yy", "xy": "yx", "yx": "xy"})


def c_i_family(k):
    """Disjoint union of k copies of the two-object singleton-hom groupoid,
    blocks collecting all copies of each arrow, T = inverse."""
    cats = []
    for i in range(k):
        mors = [(f"xx{i}", f"x{i}", f"x{i}"), (f"yy{i}", f"y{i}", f"y{i}"),
                (f"f{i}", f"x{i}", f"y{i}"), (f"g{i}", f"y{i}", f"x{i}")]
        compose = {}
        for m1, s1, t1 in mors:
            for m2, s2, t2 in mors:
                if s1 == t2:
                    compose[(m1, m2)] = next(m for m, s, t in mors if s == s2 and t == t1)
        cats.append(build_category([f"x{i}", f"y{i}"], mors,
                                   {f"x{i}": f"xx{i}", f"y{i}": f"yy{i}"},
                                   ((f, g, fg) for (f, g), fg in compose.items())))
    objects = [o for c in cats for o in c.objects]
    morphisms = [m for c in cats for m in c.morphisms]
    identity = {}
    compose = {}
    for c in cats:
        identity.update(c.identity)
        compose.update(c.compose)
    cat = build_category(objects, morphisms, identity,
                         ((f, g, fg) for (f, g), fg in compose.items()))
    blocks = {
        "s0x": [f"xx{i}" for i in range(k)],
        "s0y": [f"yy{i}" for i in range(k)],
        "t1": [f"f{i}" for i in range(k)],
        "t2": [f"g{i}" for i in range(k)],
    }
    partition = make_partition(cat, blocks)
    tmap = {}
    for i in range(k):
        tmap.update({f"xx{i}": f"xx{i}", f"yy{i}": f"yy{i}", f"f{i}": f"g{i}", f"g{i}": f"f{i}"})
    t = Functor({o: o for o in objects}, tmap, contravariant=True)
    involution = check_association(cat, partition, t)
    return verify_quasi_schemoid(cat, partition, involution)


def test_s_tilde_z2():
    qs = s_tilde(zmod(2))
    assert len(qs.category.objects) == 2
    assert len(qs.category.morphisms) == 4
    assert {name: len(m) for name, m in qs.partition.blocks.items()} == {"G[0]": 2, "G[1]": 2}
    report = analyze_thinness(qs, qs.base_points)
    assert report.thin and len(report.base_points) == 1


def test_s_tilde_trivial_and_disjoint():
    qs = s_tilde(Groupoid(terminal_category(), {"1_*": "1_*"}))
    assert len(qs.category.morphisms) == 1 and len(qs.partition) == 1
    t = terminal_category()
    d = disjoint_union(t, t)
    gpd = Groupoid(d, {m: m for m in d.morphism_ids})
    qs2 = s_tilde(gpd)
    assert len(qs2.category.objects) == 2
    assert len(qs2.category.morphisms) == 2  # no cross morphisms
    assert len(qs2.partition) == 2           # blocks stay distinct per component
    report = analyze_thinness(qs2, qs2.base_points)
    assert report.thin and len(report.base_points) == 2


def test_s_tilde_thin_for_groups():
    for n in (1, 2, 3, 4):
        qs = s_tilde(zmod(n))
        report = analyze_thinness(qs, qs.base_points)
        assert report.semi_thin and report.thin
        assert len(report.base_points) == 1
        assert len(qs.partition) == n


def test_s_tilde_block_count_invariant():
    for g in (zmod(3), two_object_connected_groupoid()):
        qs = s_tilde(g)
        assert len(qs.partition) == len(g.base.morphisms)


def test_k_discrete():
    t = terminal_category()
    assert len(k_discrete(t).partition) == 1
    cat = build_category(["x", "y"],
                         [("1_x", "x", "x"), ("1_y", "y", "y"), ("f", "x", "y")],
                         {"x": "1_x", "y": "1_y"}, ())
    qs = k_discrete(cat)
    assert len(qs.partition) == 3
    alg = schemoid_algebra(qs, Rationals())
    assert alg.dimension == 3  # whole category algebra


def test_r_tilde_of_s_tilde_z3():
    g = zmod(3)
    qs = s_tilde(g)
    rt = r_tilde(qs)
    assert len(rt.base.objects) == 1
    assert len(rt.base.morphisms) == 3
    witness = canonical_groupoid_witness(g, qs, analyze_thinness(qs, qs.base_points))
    assert witness is not None


def test_r_tilde_rejects_group_bullet():
    with pytest.raises(NotSemiThin):
        r_tilde(group_bullet(2))


def test_c_i_boundary():
    for k in (1, 2, 3):
        qs = c_i_family(k)
        report = analyze_thinness(qs)
        assert report.semi_thin
        assert report.thin == (k == 2)
        rt = r_tilde(qs)
        # always isomorphic to the single two-object groupoid C_1
        assert len(rt.base.objects) == 2 and len(rt.base.morphisms) == 4
        target = c_i_family(1)
        qs_rt = verify_quasi_schemoid(rt.base, make_partition(rt.base, {m: [m] for m in rt.base.morphism_ids}))
        qs_c1 = verify_quasi_schemoid(target.category,
                                      make_partition(target.category, {m: [m] for m in target.category.morphism_ids}))
        assert schemoid_isomorphic(qs_rt, qs_c1) is not None


def test_c2_isomorphic_to_double():
    # s_tilde(C_1) is isomorphic to C_I exactly for |I| = 2
    qs2 = c_i_family(2)
    double = s_tilde(r_tilde(qs2))
    assert schemoid_isomorphic(qs2, double) is not None
    qs3 = c_i_family(3)
    double3 = s_tilde(r_tilde(qs3))
    assert schemoid_isomorphic(qs3, double3) is None


def test_phi_psi_roundtrip():
    for g in (zmod(1), zmod(2), zmod(3), two_object_connected_groupoid()):
        qs = s_tilde(g)
        trip = phi_psi_check(qs, analyze_thinness(qs, qs.base_points))
        assert trip is not None
    # thin schemoid not in the s_tilde image a priori: C_2 with base points
    qs = c_i_family(2)
    report = analyze_thinness(qs)
    qs = verify_quasi_schemoid(qs.category, qs.partition, qs.involution, report.base_points)
    phi_psi_check(qs, analyze_thinness(qs, qs.base_points))


def test_phi_psi_terminal():
    g = Groupoid(terminal_category(), {"1_*": "1_*"})
    qs = s_tilde(g)
    trip = phi_psi_check(qs, analyze_thinness(qs, qs.base_points))
    assert trip.phi.object_map == {"1_*": "G[1_*]"}


def test_s_tilde_on_functor_reduction():
    z4, z2 = zmod(4), zmod(2)
    red = Functor({"*": "*"}, {str(i): str(i % 2) for i in range(4)})
    validate_functor(red, z4.base, z2.base)
    mor = s_tilde_on_functor(red, z4, z2)
    assert mor.block_image == {f"G[{i}]": f"G[{i % 2}]" for i in range(4)}


def test_s_tilde_on_functor_inclusion():
    z2, z4 = zmod(2), zmod(4)
    inc = Functor({"*": "*"}, {"0": "0", "1": "2"})
    validate_functor(inc, z2.base, z4.base)
    mor = s_tilde_on_functor(inc, z2, z4)
    assert mor.block_image == {"G[0]": "G[0]", "G[1]": "G[2]"}


def test_faithfulness_roundtrip_recovers():
    z4, z2 = zmod(4), zmod(2)
    red = Functor({"*": "*"}, {str(i): str(i % 2) for i in range(4)})
    g = s_tilde_on_functor(red, z4, z2)
    rec = faithfulness_roundtrip(g, z4, z2)
    assert rec.morphism_map == red.morphism_map
    ident = Functor({"*": "*"}, {str(i): str(i) for i in range(4)})
    g2 = s_tilde_on_functor(ident, z4, z4)
    rec2 = faithfulness_roundtrip(g2, z4, z4)
    assert rec2.morphism_map == ident.morphism_map


def test_faithfulness_rejects_translated():
    # translate objects by a nonidentity element: still a functor on the
    # s_tilde image but not base-point preserving
    z4 = zmod(4)
    qs = s_tilde(z4)
    shift = {str(i): str((i + 1) % 4) for i in range(4)}
    omap = dict(shift)
    mmap = {}
    for (m, src, tgt) in qs.category.morphisms:
        mmap[m] = f"({shift[tgt]},{shift[src]})"
    fun = Functor(omap, mmap)
    g = schemoid_morphism(qs, qs, fun)
    with pytest.raises(NotBasedMorphism):
        faithfulness_roundtrip(g, z4, z4)


def test_s_tilde_injective_on_homs():
    """Distinct group homomorphisms Z/4 -> Z/2 stay distinct under s_tilde."""
    z4, z2 = zmod(4), zmod(2)
    homs = []
    for c in range(2):
        mmap = {str(i): str((c * i) % 2) for i in range(4)}
        f = Functor({"*": "*"}, mmap)
        validate_functor(f, z4.base, z2.base)
        homs.append(s_tilde_on_functor(f, z4, z2))
    assert homs[0].functor.morphism_map != homs[1].functor.morphism_map


def _thin_candidates():
    """Semi-thin schemoids: the C_I family, thin only for |I| = 2, and
    s_tilde images, connected or with two components."""
    t = terminal_category()
    two = disjoint_union(t, t)
    groupoids = [zmod(n) for n in (1, 2, 3, 4)] + [
        two_object_connected_groupoid(), Groupoid(two, {m: m for m in two.morphism_ids})]
    return [c_i_family(k) for k in (1, 2, 3)] + [s_tilde(g) for g in groupoids]


THIN_CANDIDATES = _thin_candidates()


def _check_base_points(qs, given):
    report = analyze_thinness(qs, given)
    assert report.semi_thin
    thin, base_points = thin_base_points(qs, given)
    assert (report.thin, report.base_points) == (thin, base_points)
    block_of, identity = qs.partition.block_of, qs.category.identity
    assert report.phi == (None if base_points is None
                          else {x: block_of[identity[x]] for x in base_points})


@pytest.mark.parametrize("k, given, thin", [
    (2, None, True),
    (2, ["x0", "y1"], True),
    (2, ["y1", "x0"], True),         # reported in the given order
    (2, ["x0", "y0"], False),        # two in one component, none in the other
    (2, ["x0", "x1"], False),        # one identity block twice
    (2, ["x0", "x0"], False),
    (2, ["x0"], False),
    (2, ["x0", "y1", "x1"], False),
    (2, ["x0", "ghost"], False),
    (1, ["x0", "y0"], False),        # two in the one component
    (1, None, False),
    (3, ["x0", "y1", "x2"], False),
])
def test_given_base_points_on_the_c_i_family(k, given, thin):
    qs = c_i_family(k)
    _check_base_points(qs, given)
    report = analyze_thinness(qs, given)
    assert report.thin == thin
    if thin and given is not None:
        assert report.base_points == tuple(given)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_given_and_searched_base_points_match_enumeration(data):
    """Given base points, searched ones, and given points drawn with
    repeats and with two in one component, against `thin_base_points`."""
    qs = data.draw(st.sampled_from(THIN_CANDIDATES))
    objects = qs.category.objects
    given = data.draw(st.none() | st.lists(st.sampled_from(objects), max_size=len(objects) + 1))
    _check_base_points(qs, given)
    found = analyze_thinness(qs).base_points
    if found is not None:
        _check_base_points(qs, list(found))


def test_phi_psi_check_reads_a_broken_report_as_a_program_error():
    """Two base points in one component cannot come from a thin report;
    given one, the round trip fails as a program error, not as NotThin."""
    qs = c_i_family(2)
    broken = dataclasses.replace(analyze_thinness(qs, qs.base_points), base_points=("x0", "y0"))
    with pytest.raises(ValueError):
        phi_psi_check(qs, broken)


def test_s_tilde_refuses_oversized_triple_counts_before_building():
    """s̃ of Z/n has n³ composable triples: Z/129 (2146689) is past the
    budget of 2²¹ and refused as SizeLimit before any name is built; with
    the budget lowered to 8, Z/2 (exactly 8) is still built."""
    group = one_object_group(*cyclic_group_table(129))
    start = time.perf_counter()
    with pytest.raises(SizeLimit, match=f"{129 ** 3} composable triples of morphisms exceed"):
        s_tilde(group)
    assert time.perf_counter() - start < 1


def test_s_tilde_budget_admits_exactly_the_budget(monkeypatch):
    """With the budget lowered to 8, Z/2 (exactly 8 triples) is built and
    Z/3 (27) is refused."""
    monkeypatch.setattr(bridges, "SCHEME_BUDGET", 8)
    assert len(s_tilde(one_object_group(*cyclic_group_table(2))).category.morphisms) == 4
    with pytest.raises(SizeLimit, match="27 composable triples"):
        s_tilde(one_object_group(*cyclic_group_table(3)))
