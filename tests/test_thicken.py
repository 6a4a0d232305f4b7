import time

import pytest

from schemoids.admissible import (
    condition_P,
    is_admissible,
    induced_algebra_map,
    multiplicities,
    verify_sum_identity,
)
from schemoids.algebra import Rationals, schemoid_algebra
from schemoids.fincat import cyclic_group_table, validate_category, serialize
from schemoids.linalg import rank
from schemoids.schemes import (
    SCHEME_BUDGET,
    NotSchemeMorphism,
    SizeLimit,
    group_scheme,
    hamming,
    j_embed,
    validate_scheme,
)
from schemoids import thicken
from schemoids.schemoid import compose_schemoid_morphisms, is_unital, schemoid_isomorphic
from schemoids.thicken import (
    DiagonalTooSmall,
    NotTransitive,
    ThickenError,
    UnequalThickness,
    category_from_matrix,
    frame_irreducibility,
    projection_phi,
    residual_scaling_laws,
    sc_functor,
    sigma_prime,
    thicken_involution,
    thicken_scheme,
)
from oracles import sparse_rows

Q = Rationals()


def test_matrix_validation():
    with pytest.raises(NotTransitive):
        category_from_matrix([[2, 1, 0], [0, 2, 1], [0, 0, 2]])
    with pytest.raises(DiagonalTooSmall):
        category_from_matrix([[1]])
    # triangular but transitive is fine
    category_from_matrix([[2, 1], [0, 2]])


def test_smallest_category():
    framed = category_from_matrix([[2]])
    cat = framed.category
    assert len(cat.morphisms) == 2
    phi = framed.frame[("0", "0")]
    assert cat.comp(phi, phi) == phi


def test_two_object_matrix():
    framed = category_from_matrix([[2, 1], [1, 2]])
    assert len(framed.category.morphisms) == 6
    # hom-set cardinalities equal the matrix
    for i, a in enumerate(framed.labels):
        for j, b in enumerate(framed.labels):
            assert len(framed.category.hom(a, b)) == framed.counts[i][j]


def test_ex7_11_counts():
    s = hamming(2, 2)
    sc = thicken_scheme(s, [1, 1, 1])
    assert len(sc.category.objects) == 4
    assert len(sc.category.morphisms) == 20
    assert set(sc.block_names()) == {"1", "R0", "R1", "R2"}


def test_frame_irreducibility():
    for z in ([[2, 1], [1, 2]], [[3, 2], [2, 3]]):
        framed = category_from_matrix(z)
        assert frame_irreducibility(framed) == (True, None)


def test_sigma_prime_variants():
    framed = category_from_matrix([[2, 1], [1, 2]])
    for residual in ("lump", "singletons"):
        qs = sigma_prime(framed, residual)
        assert is_unital(qs.category, qs.partition)[0]
    # empty residual: all off-diagonal 1, diagonal 2
    framed2 = category_from_matrix([[2, 1], [1, 2]])
    qs2 = sigma_prime(framed2, "lump")
    # residual = the phi_ii extras; here z_ii = 2 means none
    assert "Q" not in qs2.partition.blocks


def test_sc1_h22_axiom_and_dimension():
    s = hamming(2, 2)
    sc = thicken_scheme(s, 1)
    assert is_unital(sc.category, sc.partition)[0]
    alg = schemoid_algebra(sc, Q)
    assert alg.dimension == 4  # dim A(X, P) + 1


def test_sc1_group_scheme_z3_dimension():
    s = group_scheme(*cyclic_group_table(3))
    sc = thicken_scheme(s, 1)
    alg = schemoid_algebra(sc, Q)
    assert alg.dimension == 4  # 3 classes + 1


def test_sc2_h22_blocks_and_laws():
    s = hamming(2, 2)
    sc = thicken_scheme(s, 2)
    assert len(sc.category.morphisms) == 36
    assert set(sc.block_names()) == {"1", "R0", "R1", "R2", "R0~", "R1~", "R2~"}
    assert residual_scaling_laws(sc, s, 2) == (True, None)


def test_sc3_group_scheme_z2_laws():
    s = group_scheme(*cyclic_group_table(2))
    sc = thicken_scheme(s, 3)
    assert len(sc.category.morphisms) == 14
    assert residual_scaling_laws(sc, s, 3) == (True, None)


@pytest.mark.parametrize("classes", [["1", "2"], ["X", "X~"], ["R1", "R0"], ["\\", "\\\\"],
                                     ["1~", "\\1"]])
@pytest.mark.parametrize("z", [2, 3, [1, 2], [3, 1]])
def test_thickening_does_not_depend_on_class_names(classes, z):
    """Class names that are also the identity block's name, or a class name
    with "~" after it, or hold backslashes, name distinct blocks: the
    thickening is the one of classes R0, R1 up to renaming the blocks."""
    relations = [[0, 1], [1, 0]]
    s = validate_scheme(2, relations, classes=classes)
    ref = thicken_scheme(validate_scheme(2, relations, classes=["R0", "R1"]), z)
    sc = thicken_scheme(s, z)
    assert sc.category == ref.category
    rename = {name: ref.partition.block_of[min(members)]
              for name, members in sc.partition.blocks.items()}
    assert len(set(rename.values())) == len(rename)
    assert {rename[name]: members for name, members in sc.partition.blocks.items()} \
        == ref.partition.blocks
    assert {tuple(map(rename.get, key)): c for key, c in sc.constants.entries.items()} \
        == ref.constants.entries
    assert residual_scaling_laws(sc, s, z) == (True, None)


def test_unequal_thickness():
    s = hamming(1, 2)
    sc = thicken_scheme(s, [1, 2])
    assert is_unital(sc.category, sc.partition)[0]
    with pytest.raises(UnequalThickness):
        thicken_involution(sc, s, [1, 2])


@pytest.mark.parametrize("thickness, message", [
    ([2], "one thickness per class"), ([2, 2, 2, 2], "one thickness per class"),
    ([2, 0, 2], "at least 1"), (0, "at least 1"),
])
def test_every_thickness_taker_refuses_a_bad_thickness(thickness, message):
    """H(2,2) has three classes; a list of another length, or a thickness
    below 1, is refused the same way wherever a thickness is taken."""
    s = hamming(2, 2)
    sc = thicken_scheme(s, 2)
    for call in (thicken_scheme, lambda s, z: residual_scaling_laws(sc, s, z),
                 lambda s, z: thicken_involution(sc, s, z)):
        with pytest.raises(ThickenError, match=message):
            call(s, thickness)


def test_involution_sc1_sc2():
    s = hamming(2, 2)
    for z in (1, 2):
        sc = thicken_scheme(s, z)
        schemoid = thicken_involution(sc, s, z)
        assert schemoid.involution is not None
        img = schemoid.involution.block_image
        assert img["R1"] == "R1" and img["R0"] == "R0"
    s2 = group_scheme(*cyclic_group_table(2))
    sc2 = thicken_scheme(s2, 2)
    schemoid2 = thicken_involution(sc2, s2, 2)
    assert schemoid2.involution is not None


def test_projection_admissible_sc1():
    s = hamming(2, 2)
    sc = thicken_scheme(s, 1)
    jimg = j_embed(s)
    phi = projection_phi(sc, s, jimg)
    assert is_admissible(phi).admissible
    assert condition_P(sc)[0]
    mult = multiplicities(phi)
    assert set(mult.values()) == {1}
    ok, _ = verify_sum_identity(phi, mult)
    assert ok
    amap = induced_algebra_map(phi, Q)
    # 4-dim onto 3-dim: surjective, not injective
    rows = {t: i for i, t in enumerate(amap.target.basis)}
    cols = {sview: i for i, sview in enumerate(amap.source.basis)}
    mat = [[0] * len(cols) for _ in rows]
    for (t, sview), v in amap.matrix.items():
        mat[rows[t]][cols[sview]] = v
    assert rank(sparse_rows(mat)) == 3
    assert amap.source.dimension == 4


def test_projection_admissible_sc2_via_condition_P():
    s = hamming(2, 2)
    sc = thicken_scheme(s, 2)
    assert condition_P(sc)[0]
    jimg = j_embed(s)
    phi = projection_phi(sc, s, jimg)
    assert is_admissible(phi).admissible
    mult = multiplicities(phi)
    ok, _ = verify_sum_identity(phi, mult)
    assert ok


def test_sc_z1_trivial_scheme_is_matrix_2():
    point = validate_scheme(1, [[0]])
    sc = thicken_scheme(point, 1)
    assert len(sc.category.morphisms) == 2


def test_sc_functor_identity_and_quotient():
    s = hamming(2, 2)
    sc = thicken_scheme(s, 2)
    ident = sc_functor({x: x for x in s.points}, (s, sc), (s, sc))
    assert is_admissible(ident).admissible or True  # identity is a schemoid morphism
    assert ident.block_image == {b: b for b in sc.block_names()}
    point = validate_scheme(1, [[0]])
    scp = thicken_scheme(point, 2)
    quot = sc_functor({x: "0" for x in s.points}, (s, sc), (point, scp))
    assert quot.block_image["R1"] == "R0"
    with pytest.raises(NotSchemeMorphism):
        # hamming(2,2) -> hamming(1,2) by first coordinate: distance-2 pairs
        # land on distance-0, distance-1 pairs across classes
        h12 = hamming(1, 2)
        sch12 = thicken_scheme(h12, 2)
        sc_functor({"00": "0", "01": "0", "10": "1", "11": "1"}, (s, sc), (h12, sch12))


def test_sc_functor_functoriality():
    s = hamming(2, 2)
    sc = thicken_scheme(s, 2)
    point = validate_scheme(1, [[0]])
    scp = thicken_scheme(point, 2)
    quot = sc_functor({x: "0" for x in s.points}, (s, sc), (point, scp))
    ident_p = sc_functor({"0": "0"}, (point, scp), (point, scp))
    comp = compose_schemoid_morphisms(ident_p, quot)
    assert comp.functor.morphism_map == quot.functor.morphism_map


def test_isomorphic_schemes_give_isomorphic_thickenings():
    s = hamming(2, 2)
    perm = {"00": "01", "01": "00", "10": "11", "11": "10"}
    pts = list(s.points)
    rel = [[0] * 4 for _ in range(4)]
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            rel[pts.index(perm[x])][pts.index(perm[y])] = s.relation_of[i][j]
    s2 = validate_scheme(4, rel, points=pts, classes=s.classes)
    sc1 = thicken_scheme(s, 1)
    sc2 = thicken_scheme(s2, 1)
    assert schemoid_isomorphic(sc1, sc2) is not None


def test_thickened_category_revalidates():
    s = hamming(2, 2)
    sc = thicken_scheme(s, 2)
    assert validate_category(serialize(sc.category)) == sc.category


def test_thicken_labels_with_underscores():
    """Points whose ids used to collide ("phi_a_b_c_0" named two morphisms)."""
    rel = [[0 if x == y else 1 for y in range(4)] for x in range(4)]
    points = ["a_b", "c", "a", "b_c"]
    s = validate_scheme(4, rel, points=points)
    sc = thicken_scheme(s, 1)
    cat = sc.category
    assert len(set(cat.morphism_ids)) == len(cat.morphisms) == 20
    assert cat.hom("a_b", "c") == ("phi_a\\_b_c_0",) and cat.hom("a", "b_c") == ("phi_a_b\\_c_0",)
    assert validate_category(serialize(cat)) == cat
    involution = thicken_involution(sc, s, 1).involution
    assert involution.functor.morphism_map["phi_a\\_b_c_0"] == "phi_c_a\\_b_0"
    phi = projection_phi(sc, s, j_embed(s))
    assert phi.functor.morphism_map["id_a\\_b"] == phi.functor.morphism_map["phi_a\\_b_a\\_b_0"]
    swap = {"a_b": "b_c", "b_c": "a_b", "a": "c", "c": "a"}
    image = sc_functor(swap, (s, sc), (s, sc))
    assert image.functor.morphism_map["phi_a\\_b_c_0"] == "phi_b\\_c_a_0"


def test_thicken_ids_of_plain_and_backslash_labels():
    """Plain labels keep their ids; a backslash is escaped too."""
    sc = thicken_scheme(hamming(2, 2), 2)
    assert "id_00" in sc.category.morphism_ids and "phi_00_01_1" in sc.category.morphism_ids
    framed = category_from_matrix([[2, 1], [0, 2]], labels=["x\\", "x\\_"])
    assert set(framed.category.morphism_ids) == {
        "id_x\\\\", "id_x\\\\\\_", "phi_x\\\\_x\\\\_0", "phi_x\\\\\\__x\\\\\\__0",
        "phi_x\\\\_x\\\\\\__0"}


def test_the_thickening_budget_counts_composable_triples():
    """1ᵀZ³1, the budget's count, is the number of composable triples of
    the category built.  For H(2,2) it is 4·77³ at z = 19, within
    SCHEME_BUDGET, and 4·81³ at z = 20, past it: z = 20 is refused, and so
    is z = 100, in well under a second, before any morphism is built."""
    z = [[2, 1, 3], [0, 3, 0], [1, 2, 2]]
    cat = category_from_matrix(z).category
    assert sum(len(cat.rows[j]) for _, (j, _) in cat.entries()) == 254 == sum(
        z[a][b] * z[b][c] * z[c][d] for a in range(3) for b in range(3) for c in range(3)
        for d in range(3))
    assert 4 * 77 ** 3 <= SCHEME_BUDGET < 4 * 81 ** 3
    h22 = hamming(2, 2)
    with pytest.raises(SizeLimit, match=f"{4 * 81 ** 3} composable triples"):
        thicken_scheme(h22, 20)
    start = time.perf_counter()
    with pytest.raises(SizeLimit, match="exceed the budget"):
        thicken_scheme(h22, 100)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("z", [[[2] * 300 for _ in range(300)],
                               [[200, 200, 0], [0, 200, 200], [0, 0, 200]]])
def test_an_oversized_matrix_is_refused_before_the_transitivity_scan(monkeypatch, z):
    """The count of composable triples comes before check_transitive's m³
    scan: an all-2 matrix at m = 300 and a non-transitive one past the
    budget are SizeLimit without the scan."""
    def scanned(z):
        raise AssertionError("check_transitive ran")

    monkeypatch.setattr(thicken, "check_transitive", scanned)
    with pytest.raises(SizeLimit, match="exceed the budget"):
        category_from_matrix(z)
    with pytest.raises(AssertionError, match="check_transitive ran"):
        category_from_matrix([[2, 1], [0, 2]])
