import random
import re
import time
import tracemalloc
from itertools import permutations, product
from math import comb

import pytest
from hypothesis import event, example, given, settings, strategies as st

from schemoids.fincat import NonAssociative, as_groupoid, cyclic_group_table, serialize
from schemoids.schemes import (
    AssociationScheme,
    CoherentConfiguration,
    InvalidGroupTable,
    NonConstantIntersection,
    NotAGroup,
    NotSchemeMorphism,
    SchemeError,
    SizeLimit,
    group_scheme,
    hamming,
    j_embed,
    orbit_configuration,
    scheme_from_json,
    scheme_morphism,
    serialize_scheme,
    validate_scheme,
)
from schemoids.schemoid import check_concatenation
from oracles import (
    adjacency,
    completed_entries,
    cyclotomic_generators,
    diagonal_classes,
    group_closure,
    hamming_distance_matrix,
    hamming_generators,
    intersection_numbers_bruteforce,
    is_transitive,
    johnson_generators,
    mat_mul_int,
    matched_classes,
    pair_count,
    scheme_morphism_bruteforce,
    schemoid_constants_bruteforce,
)
from test_fincat import table


def test_hamming_2_2():
    s = hamming(2, 2)
    assert isinstance(s, AssociationScheme)
    assert s.size == 4 and len(s.classes) == 3
    assert [pair_count(s, c) for c in s.classes] == [4, 8, 4]
    assert s.p("R1", "R2", "R1") == 1
    assert sum(pair_count(s, c) for c in s.classes) == 16


def test_hamming_1_q():
    s = hamming(1, 3)
    assert len(s.classes) == 2 and s.size == 3


def peak_bytes(call):
    """The peak of memory traced while `call` runs."""
    tracemalloc.start()
    try:
        call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_hamming_limit():
    """More than 128 words are refused by the one scheme budget before any
    word is built; H(7, 2), 128 words, is admitted."""
    def refused():
        with pytest.raises(SizeLimit, match=r"\(2\^8\) points"):
            hamming(8, 2)
    assert peak_bytes(refused) < 1 << 20
    with pytest.raises(SizeLimit):
        hamming(10 ** 9, 3)     # no power of 3 that large is formed
    assert hamming(7, 2).size == 128


def test_a_group_table_over_the_budget_is_refused_before_it_is_read(monkeypatch):
    import schemoids.schemes as schemes
    monkeypatch.setattr(schemes, "one_object_group", None)     # a call would raise TypeError
    els, tab = cyclic_group_table(129)
    with pytest.raises(SizeLimit, match="129 points"):
        group_scheme(els, tab)


def test_intersection_matches_oracle():
    s = hamming(2, 2)
    oracle = intersection_numbers_bruteforce([list(r) for r in s.relation_of])
    translated = {(s.classes[e], s.classes[f], s.classes[g]): v
                  for (e, f, g), v in oracle.items()}
    assert translated == s.intersection


def test_nonconstant_detected():
    rel = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]  # trivial rank-2 scheme on 3 points
    validate_scheme(3, rel)
    bad = [[0, 1, 1], [1, 0, 2], [1, 2, 0]]  # perturbed: class 2 not transpose-balanced
    with pytest.raises(NonConstantIntersection) as err:
        validate_scheme(3, bad)
    # p^R0_{R1,R1}: two paths 0 -R1-> z -R1-> 0 but one path from 1 back to 1
    assert err.value.witness == ("R1", "R1", "R0", ("0", "0"), 2, ("1", "1"), 1)


def test_diagonal_split_is_configuration():
    rel = [[0, 2], [3, 1]]
    cfg = validate_scheme(2, rel)
    assert isinstance(cfg, CoherentConfiguration) and not isinstance(cfg, AssociationScheme)
    assert diagonal_classes(cfg) == ("R0", "R1")


def test_group_scheme_z2_z3():
    els, table = cyclic_group_table(2)
    s2 = group_scheme(els, table)
    assert s2.size == 2 and len(s2.classes) == 2
    els3, table3 = cyclic_group_table(3)
    s3 = group_scheme(els3, table3)
    # p^{G_f}_{G_g G_h} = 1 iff g*h = f
    for g in els3:
        for h in els3:
            for f in els3:
                expected = 1 if (int(g) + int(h)) % 3 == int(f) else 0
                assert s3.p(f"G[{g}]", f"G[{h}]", f"G[{f}]") == expected


def test_group_scheme_trivial():
    s = group_scheme(["e"], {("e", "e"): "e"})
    assert s.size == 1 and len(s.classes) == 1


def test_invalid_group_table():
    with pytest.raises(InvalidGroupTable):
        group_scheme(["a", "b"], {("a", "a"): "a", ("a", "b"): "b",
                                  ("b", "a"): "b", ("b", "b"): "b"})


def test_group_scheme_refuses_no_unit_and_non_associative_tables():
    """The tables of test_one_object_group_refuses_tables_that_are_no_group."""
    with pytest.raises(InvalidGroupTable, match="unit"):
        group_scheme("ab", table({"a": "aa", "b": "aa"}))
    with pytest.raises(InvalidGroupTable) as err:
        group_scheme("eab", table({"e": "eab", "a": "abb", "b": "baa"}))
    assert isinstance(err.value.__cause__, NonAssociative)


def test_orbit_configuration_z4():
    perms = [[(i + k) % 4 for i in range(4)] for k in range(4)]
    s = orbit_configuration(perms, 4)
    assert isinstance(s, AssociationScheme)
    assert len(s.classes) == 4
    assert is_transitive(perms, 4)


def test_orbit_configuration_trivial_group():
    cfg = orbit_configuration([[0, 1]], 2)
    assert not isinstance(cfg, AssociationScheme)
    assert len(cfg.classes) == 4
    assert not is_transitive([[0, 1]], 2)


def test_orbit_configuration_s3():
    import itertools
    perms = [list(p) for p in itertools.permutations(range(3))]
    s = orbit_configuration(perms, 3)
    assert isinstance(s, AssociationScheme) and len(s.classes) == 2


def test_not_a_group():
    """A set of permutations that holds no identity or is not closed is a
    generating set like any other; only an entry that is no permutation of
    0..size-1 is refused."""
    for perms in ([[1, 0, 2]], [[0, 1, 2], [1, 2, 0]]):
        cfg = orbit_configuration(perms, 3)
        assert cfg == orbit_configuration(group_closure(perms, 3), 3)
    for bad in ([0, 1], [0, 1, 1], [0, 1, 3]):
        with pytest.raises(NotAGroup):
            orbit_configuration([[1, 2, 0], bad], 3)


def test_many_generators_keep_the_orbit_stack_within_n_squared_pairs():
    """A pair is marked when it is first reached, so 16 random permutations
    of 128 points, whose every image on a stack would be 16·128² pairs
    (16 MiB), stay under 4 MiB; they generate a 2-transitive group."""
    rng = random.Random(0)
    perms = [rng.sample(range(128), 128) for _ in range(16)]
    cfgs = []
    assert peak_bytes(lambda: cfgs.append(orbit_configuration(perms, 128))) < 4 << 20
    assert cfgs[0].classes == ("O0", "O1")


def test_orbit_walk_budget_counts_distinct_perms():
    """The walk's work is N² pair images per distinct perm: S_6's 720
    elements on 6 points and 129 copies of one perm of 128 points are
    admitted, while 1000 distinct perms of 128 points (16.4M images) are
    refused as SizeLimit in well under a second."""
    assert len(orbit_configuration([list(p) for p in permutations(range(6))], 6).classes) == 2
    rng = random.Random(1)
    shift = [(i + 1) % 128 for i in range(128)]
    assert len(orbit_configuration([shift] * 129, 128).classes) == 128
    perms = [rng.sample(range(128), 128) for _ in range(1000)]
    start = time.perf_counter()
    with pytest.raises(SizeLimit, match="1000 distinct perms exceed the budget"):
        orbit_configuration(perms, 128)
    assert time.perf_counter() - start < 0.5


def generating_sets():
    """Lists of permutations of 0..size-1 on at most 6 points."""
    return st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.permutations(range(n)), max_size=3), st.just(n)))


@settings(max_examples=60, deadline=None)
@given(generating_sets())
@example(([], 4))
@example(([[1, 0, 2, 3]], 4))
@example(([[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 3, 5]], 6))
@example(([list(p) for p in permutations(range(4))], 4))
@example(([[(i + k) % 6 for i in range(6)] for k in range(6)], 6))
@example(([[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]], 6))
def test_a_generating_set_and_its_group_give_one_configuration(case):
    """Following each pair forward under the generators reaches the orbit
    of the whole group: the closure found by a breadth-first search over
    compositions gives the same classes, numbered alike."""
    perms, size = case
    cfg = orbit_configuration(perms, size)
    full = orbit_configuration(group_closure(perms, size), size)
    assert (cfg.relation_of, cfg.classes) == (full.relation_of, full.classes)


@pytest.mark.parametrize("n, q", [(3, 3), (4, 3), (6, 2)])
def test_hamming_from_four_generators(n, q):
    """S_q wr S_n from four generators has Hamming's distance classes."""
    cfg = orbit_configuration(hamming_generators(n, q), q ** n)
    h = hamming(n, q)
    match = matched_classes(cfg, [[h.classes[k] for k in row] for row in h.relation_of])
    assert {(match[e], match[f], match[g]): v for (e, f, g), v in cfg.intersection.items()} \
        == h.intersection


@pytest.mark.parametrize("n, k", [(4, 2), (6, 3), (8, 4)])
def test_johnson_from_two_generators(n, k):
    """J(n, k) from a transposition and an n-cycle: class i holds the
    subsets meeting in k - i points, of valency C(k, i) C(n-k, i), and
    p^i_{1,i+1} = (k-i)(n-k-i), p^i_{1,i-1} = i^2."""
    perms, subsets = johnson_generators(n, k)
    cfg = orbit_configuration(perms, len(subsets))
    match = matched_classes(cfg, [[k - len(s & t) for t in subsets] for s in subsets])
    name = {i: c for c, i in match.items()}
    assert [cfg.relation_of[0].count(cfg.classes.index(name[i])) for i in range(k + 1)] \
        == [comb(k, i) * comb(n - k, i) for i in range(k + 1)]
    for i in range(k + 1):
        if i < k:
            assert cfg.p(name[1], name[i + 1], name[i]) == (k - i) * (n - k - i)
        if i > 0:
            assert cfg.p(name[1], name[i - 1], name[i]) == i * i


@pytest.mark.parametrize("p, e", [(5, 2), (7, 3), (7, 2), (13, 4)])
def test_cyclotomic_from_two_generators(p, e):
    """The cyclotomic scheme on Z/p: the class of (x, y) is the coset of
    y - x in the units modulo the index-e subgroup.  It is symmetric exactly
    when -1 lies in that subgroup, that is when (p - 1)/e is even, and
    otherwise j's involution swaps blocks."""
    perms, labels = cyclotomic_generators(p, e)
    cfg = orbit_configuration(perms, p)
    matched_classes(cfg, labels)
    swapped = {c: t for c, t in j_embed(cfg).involution.block_image.items() if c != t}
    assert (swapped == {}) == ((p - 1) // e % 2 == 0)
    assert (p, e) != (7, 2) or swapped == {"O1": "O2", "O2": "O1"}


def test_scheme_morphism_matches_the_per_class_scan():
    """Every point map between small schemes: the class map, or a refusal
    exactly when the per-class scan finds a class meeting two classes."""
    schemes = [hamming(2, 2), hamming(1, 2), hamming(1, 3), validate_scheme(1, [[0]]),
               group_scheme(*cyclic_group_table(3))]
    for source, target in product(schemes, repeat=2):
        for image in product(target.points, repeat=source.size):
            f = dict(zip(source.points, image))
            expected = scheme_morphism_bruteforce(f, source, target)
            if expected is None:
                with pytest.raises(NotSchemeMorphism):
                    scheme_morphism(f, source, target)
            else:
                assert scheme_morphism(f, source, target) == expected
    with pytest.raises(NotSchemeMorphism) as err:
        scheme_morphism({"00": "0", "01": "0", "10": "1", "11": "1"}, hamming(2, 2), hamming(1, 2))
    assert err.value.witness == ("R1", ("00", "10"), "R0", "R1")
    with pytest.raises(NotSchemeMorphism, match="'1' unmapped"):
        scheme_morphism({"0": "0"}, hamming(1, 2), hamming(1, 2))


def test_j_embed_counts():
    qs = j_embed(hamming(2, 2))
    assert len(qs.category.objects) == 4
    assert len(qs.category.morphisms) == 16
    assert len(qs.partition) == 3
    trivial = j_embed(validate_scheme(1, [[0]]))
    assert len(trivial.category.morphisms) == 1


def test_j_embed_is_groupoid_with_transpose_inverse():
    qs = j_embed(hamming(2, 2))
    gpd = as_groupoid(qs.category)
    for x in qs.category.objects:
        for y in qs.category.objects:
            assert gpd.inverse[f"({x},{y})"] == f"({y},{x})"


def test_j_embed_constants_equal_scheme_numbers():
    els, table = cyclic_group_table(2)
    for s in (hamming(2, 2), group_scheme(els, table)):
        qs = j_embed(s)
        nonzero = {k: v for k, v in qs.constants.entries.items() if v}
        assert nonzero == s.intersection
        assert check_concatenation(qs.category, qs.partition).entries == s.intersection


def test_adjacency_algebra_identity():
    # sum_l R_l = all-ones and R_l R_m = sum_g p^g_{lm} R_g as integer matrices
    for s in (hamming(2, 2), group_scheme(*cyclic_group_table(3))):
        n = s.size
        total = [[sum(adjacency(s, c)[i][j] for c in s.classes) for j in range(n)] for i in range(n)]
        assert total == [[1] * n for _ in range(n)]
        for e in s.classes:
            for f in s.classes:
                prod = mat_mul_int(adjacency(s, e), adjacency(s, f))
                expect = [[0] * n for _ in range(n)]
                for g in s.classes:
                    p = s.p(e, f, g)
                    if p:
                        adj = adjacency(s, g)
                        for i in range(n):
                            for j in range(n):
                                expect[i][j] += p * adj[i][j]
                assert prod == expect


def test_scheme_serialization_roundtrip():
    for s in (hamming(2, 2), group_scheme(*cyclic_group_table(3))):
        assert scheme_from_json(serialize_scheme(s)) == s


def test_hamming_class_size_identity():
    for n, q in ((1, 2), (2, 2), (1, 3)):
        s = hamming(n, q)
        assert sum(pair_count(s, c) for c in s.classes) == q ** (2 * n)


def _h32_tampers():
    """H(3,2) with one pair {x, y} moved to each other off-diagonal class:
    still symmetric with the diagonal intact."""
    rel = hamming_distance_matrix(3, 2)
    for x in range(8):
        for y in range(x + 1, 8):
            for cls in range(1, 4):
                if cls != rel[x][y]:
                    bad = [list(row) for row in rel]
                    bad[x][y] = bad[y][x] = cls
                    yield bad


def test_nonconstant_intersection_names_oracle_triple():
    """Each of the 56 single-pair tampers is refused naming the
    lexicographically first non-constant (e, f, g) of the brute-force
    oracle, and the two counts in the witness are real counts."""
    tampers = list(_h32_tampers())
    assert len(tampers) == 56
    for rel in tampers:
        with pytest.raises(AssertionError) as oracle:
            intersection_numbers_bruteforce(rel)
        want = tuple(f"R{i}" for i in re.search(r"p\^(\d+)_\{(\d+),(\d+)\}",
                                                str(oracle.value)).group(2, 3, 1))
        with pytest.raises(NonConstantIntersection) as err:
            validate_scheme(8, rel, classes=[f"R{i}" for i in range(4)])
        e, f, g, pair1, c1, pair2, c2 = err.value.witness
        assert (e, f, g) == want
        for (x, z), c in ((pair1, c1), (pair2, c2)):
            x, z = int(x), int(z)
            assert rel[x][z] == int(g[1:])
            assert c == sum(1 for y in range(8) if rel[x][y] == int(e[1:]) and rel[y][z] == int(f[1:]))
        assert c1 != c2


@st.composite
def tallied_matrices(draw):
    """An N x N class matrix, N = 1..6, that passes the diagonal and
    transpose checks, so that `validate_scheme` reaches the tally: the
    cyclic distance classes, the same with one symmetric pair moved into a
    drawn class, or each unordered off-diagonal pair drawn from the class
    pairs (2, 2), (3, 3), (4, 5) and (5, 4), 5 the transpose of 4, over a
    diagonal of class 0 or of classes 0 and 1 (a configuration).  Class
    indices are renumbered 0..k-1 in order of first appearance."""
    n = draw(st.integers(1, 6))
    rel = [[0] * n for _ in range(n)]
    if draw(st.booleans()):
        for x in range(n):
            for y in range(n):
                rel[x][y] = min((y - x) % n, (x - y) % n)
        if n > 1 and draw(st.booleans()):
            x, y = draw(st.sampled_from([(x, y) for x in range(n) for y in range(x + 1, n)]))
            rel[x][y] = rel[y][x] = draw(st.integers(1, n // 2))
    else:
        diagonal = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        for x in range(n):
            rel[x][x] = diagonal[x]
            for y in range(x + 1, n):
                rel[x][y], rel[y][x] = draw(st.sampled_from([(2, 2), (3, 3), (4, 5), (5, 4)]))
    number: dict[int, int] = {}
    return [[number.setdefault(c, len(number)) for c in row] for row in rel]


@settings(max_examples=300, deadline=None)
@given(tallied_matrices())
def test_tally_matches_bruteforce_on_random_matrices(rel):
    """`validate_scheme` gives the intersection numbers of the brute-force
    count, key for key and in the same order, or NonConstantIntersection
    at its first non-constant (e, f, g), witnessed by the first pair of
    class g in row-major order and the first pair whose count differs."""
    n = len(rel)
    try:
        want = intersection_numbers_bruteforce(rel)
    except AssertionError as oracle:
        e, f, g = map(int, re.search(r"p\^(\d+)_\{(\d+),(\d+)\}", str(oracle)).group(2, 3, 1))
        count = lambda x, z: sum(rel[x][y] == e and rel[y][z] == f for y in range(n))
        pairs = [(x, z) for x in range(n) for z in range(n) if rel[x][z] == g]
        c1 = count(*pairs[0])
        second = next(p for p in pairs if count(*p) != c1)
        event("violation")
        with pytest.raises(NonConstantIntersection) as err:
            validate_scheme(n, rel)
        assert err.value.witness == (f"R{e}", f"R{f}", f"R{g}", tuple(map(str, pairs[0])), c1,
                                     tuple(map(str, second)), count(*second))
        return
    event("accepted")
    got = validate_scheme(n, rel).intersection
    assert list(got.items()) == [((f"R{e}", f"R{f}", f"R{g}"), p) for (e, f, g), p in want.items()]


def test_point_name_count_checked():
    with pytest.raises(SchemeError):
        validate_scheme(2, [[0, 1], [1, 0]], points=["a"])


def test_j_embed_labels_with_commas():
    """Points whose pair names used to collide ("(a,b,c)" twice)."""
    rel = [[0 if x == y else 1 for y in range(4)] for x in range(4)]
    s = validate_scheme(4, rel, points=["a,b", "c", "a", "b,c"])
    qs = j_embed(s)
    assert len(set(qs.category.morphism_ids)) == 16
    assert qs.constants.entries == check_concatenation(qs.category, qs.partition).entries


def dihedral_table(n):
    """D_n of order 2n on elements "r.s": rotation r followed by s reflections."""
    elements = [f"{r}.{s}" for s in range(2) for r in range(n)]
    return elements, {(f"{r1}.{s1}", f"{r2}.{s2}"): f"{(r1 + (-1) ** s1 * r2) % n}.{s1 ^ s2}"
                      for r1 in range(n) for s1 in range(2) for r2 in range(n) for s2 in range(2)}


def product_table(m, n):
    """Z/m × Z/n on elements "a.b"."""
    elements = [f"{a}.{b}" for a in range(m) for b in range(n)]
    return elements, {(f"{a1}.{b1}", f"{a2}.{b2}"): f"{(a1 + a2) % m}.{(b1 + b2) % n}"
                      for a1 in range(m) for b1 in range(n) for a2 in range(m) for b2 in range(n)}


# Z/3 turning the points 0, 1, 2 and 3, 4, 5 at once: two point orbits, so
# the diagonal splits into two classes and the result is no scheme
TWO_ORBITS = ([[0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], [2, 0, 1, 5, 3, 4]], 6)

J_EMBED_CASES = {
    **{f"H({n},2)": (lambda n=n: hamming(n, 2)) for n in range(1, 5)},
    "H(2,3)": lambda: hamming(2, 3),
    **{f"Z/{n}": (lambda n=n: group_scheme(*cyclic_group_table(n))) for n in range(3, 8)},
    "D3": lambda: group_scheme(*dihedral_table(3)),
    "D4": lambda: group_scheme(*dihedral_table(4)),
    "Z/2xZ/3": lambda: group_scheme(*product_table(2, 3)),
    "two-orbits": lambda: orbit_configuration(*TWO_ORBITS),
}


@pytest.mark.parametrize("name", list(J_EMBED_CASES))
def test_j_embed_constants_match_an_independent_recount(name):
    """j(S) takes its structure constants from S's intersection numbers; a
    recount by `check_concatenation`, which tallies the block matrix read
    off the category's endpoints, and a count of the entries of its
    serialized table, completed by the dense oracle, give the same table,
    key for key and in the same order."""
    s = J_EMBED_CASES[name]()
    assert isinstance(s, AssociationScheme) == (name != "two-orbits")
    qs = j_embed(s)
    cat, partition = qs.category, qs.partition
    assert partition.names() == s.classes
    recount = check_concatenation(cat, partition).entries
    assert list(qs.constants.entries.items()) == list(recount.items())
    blocks = {b: sorted(members) for b, members in partition.blocks.items()}
    assert qs.constants.entries == schemoid_constants_bruteforce(
        completed_entries(serialize(cat)), blocks)
    assert qs.constants.entries is not s.intersection


@pytest.mark.parametrize("points, classes, message", [
    (None, ["D", "R", "R"], "duplicate class name 'R'"),
    (["a", "b", "a", "c"], None, "duplicate point name 'a'"),
])
def test_duplicate_names_are_refused(points, classes, message):
    """Two classes named R used to collide in `intersection` (last write
    wins: p^R_{RR} = 2) while j(S) merged them into one block and recounted
    3; two points named a collide in j(S)'s morphism names."""
    rel = [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]]
    with pytest.raises(SchemeError, match=re.escape(message)):
        validate_scheme(4, rel, points=points, classes=classes)
