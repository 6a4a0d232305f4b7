import random
from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from schemoids.algebra import (
    AlgebraError,
    AlgebraMap,
    NotTerminal,
    PrimeField,
    Rationals,
    check_algebra_hom,
    identity_algebra_map,
    ring_from_name,
    schemoid_algebra,
    span_closure,
    terwilliger,
    _assert_associative,
    _solve_tensor_unit,
    _sparse_rows,
)
from schemoids import algebra, corpus
from schemoids.admissible import induced_algebra_map
from schemoids.fincat import cyclic_group_table, one_object_group, terminal_category
from schemoids.schemes import group_scheme, hamming, j_embed, orbit_configuration, validate_scheme
from schemoids.schemoid import discrete_partition, verify_quasi_schemoid
from schemoids.thicken import projection_phi, thicken_scheme

from test_properties import small_categories
from test_schemoid import ex2_8, group_bullet
from oracles import (
    adjacency,
    algebra_is_unital,
    assert_associative_dense,
    check_algebra_hom_fractions,
    johnson_generators,
    mat_mul_int,
    matrix_algebra_closure_dim,
    solve_tensor_unit_fractions,
    span_closure_fractions,
)


Q = Rationals()


def test_ring_parsing():
    assert isinstance(ring_from_name("Q"), Rationals)
    assert ring_from_name("F5").p == 5
    with pytest.raises(AlgebraError):
        ring_from_name("F4")


def test_category_algebra_dims():
    assert len(terminal_category().morphisms) == 1
    assert len(j_embed(hamming(2, 2)).category.morphisms) == 16
    assert len(ex2_8().category.morphisms) == 3


def test_h22_algebra():
    qs = j_embed(hamming(2, 2))
    alg = schemoid_algebra(qs, Q)
    assert alg.dimension == 3
    prod = alg.multiply({"R1": Fraction(1)}, {"R1": Fraction(1)})
    assert prod == {"R0": Fraction(2), "R2": Fraction(2)}
    assert alg.unital and alg.unit == {"R0": Fraction(1)}
    assert algebra_is_unital(alg, qs)


def test_h22_algebra_matches_adjacency_products():
    """Oracle: multiplication table equals adjacency-matrix products."""
    s = hamming(2, 2)
    qs = j_embed(s)
    alg = schemoid_algebra(qs, Q)
    adj = {c: adjacency(s, c) for c in s.classes}
    n = s.size
    for e in s.classes:
        for f in s.classes:
            prod = mat_mul_int(adj[e], adj[f])
            expect = [[0] * n for _ in range(n)]
            for g in s.classes:
                coeff = alg.c(e, f, g)
                assert coeff == int(coeff)
                for i in range(n):
                    for j in range(n):
                        expect[i][j] += int(coeff) * adj[g][i][j]
            assert prod == expect


def test_group_bullet_not_unital_but_tensor_unit_over_Q():
    """A single-block group: s_G . s_G = |G| s_G.  Over Q the tensor has the
    abstract unit s_G/|G|, yet the algebra is not unital as a subalgebra of
    the category algebra; the combinatorial test agrees."""
    qs = group_bullet(2)
    alg = schemoid_algebra(qs, Q)
    assert alg.dimension == 1
    assert alg.multiply({"G": Fraction(1)}, {"G": Fraction(1)}) == {"G": Fraction(2)}
    assert not alg.unital
    assert alg.tensor_unit == {"G": Fraction(1, 2)}
    assert not algebra_is_unital(alg, qs)
    # over F2 even the tensor unit disappears
    alg2 = schemoid_algebra(qs, PrimeField(2))
    assert not alg2.unital and alg2.tensor_unit is None


def test_unitality_disagreement_is_an_internal_error():
    """An algebra whose unital flag contradicts the combinatorial test is
    the program's own fault: a plain AssertionError, not a refusal."""
    for qs in (j_embed(hamming(2, 2)), group_bullet(2)):
        alg = schemoid_algebra(qs, Q)
        wrong = replace(alg, unital=not alg.unital)
        with pytest.raises(AssertionError, match="unitality cross-check failed"):
            algebra_is_unital(wrong, qs)


def test_group_ring_of_discrete_group_schemoid():
    """Singleton blocks on a group recover the group ring."""
    from schemoids.fincat import one_object_group
    gpd = one_object_group(*cyclic_group_table(2))
    qs = verify_quasi_schemoid(gpd.base, discrete_partition(gpd.base))
    alg = schemoid_algebra(qs, Q)
    assert alg.dimension == 2
    assert alg.multiply({"1": Fraction(1)}, {"1": Fraction(1)}) == {"0": Fraction(1)}
    assert alg.unital and alg.unit == {"0": Fraction(1)}


def test_discrete_partition_unit_is_identity_sum():
    cat = ex2_8().category
    qs = verify_quasi_schemoid(cat, discrete_partition(cat))
    alg = schemoid_algebra(qs, Q)
    assert alg.unital and alg.unit == {"1_x": Fraction(1), "1_y": Fraction(1)}


def test_terwilliger_trivial():
    qs = j_embed(validate_scheme(1, [[0]]))
    clo = terwilliger(qs, qs.category.objects[0], Q)
    assert clo.dimension == 1


def test_terwilliger_z2_matches_matrix_oracle():
    s = group_scheme(*cyclic_group_table(2))
    qs = j_embed(s)
    for e in qs.category.objects:
        clo = terwilliger(qs, e, Q)
        # oracle: matrix algebra closure of adjacency + dual idempotents in M_2
        n = s.size
        gens = [adjacency(s, c) for c in s.classes]
        ei = s.points.index(e)
        for c in s.classes:
            diag = [[0] * n for _ in range(n)]
            for xi in range(n):
                if s.relation_of[ei][xi] == s.classes.index(c):
                    diag[xi][xi] = 1
            gens.append(diag)
        assert clo.dimension == matrix_algebra_closure_dim(gens)


def test_terwilliger_h22_vertex_independent():
    s = hamming(2, 2)
    qs = j_embed(s)
    dims = {terwilliger(qs, e, Q).dimension for e in qs.category.objects}
    assert len(dims) == 1
    # frozen from the matrix-closure oracle
    n = s.size
    gens = [adjacency(s, c) for c in s.classes]
    for c in s.classes:
        diag = [[0] * n for _ in range(n)]
        for xi in range(n):
            if s.relation_of[0][xi] == s.classes.index(c):
                diag[xi][xi] = 1
        gens.append(diag)
    assert dims == {matrix_algebra_closure_dim(gens)}


def test_terwilliger_not_terminal():
    """A nonterminal object is refused with the witness (x, e, |Hom(x, e)|),
    a name that is no object as unknown, with no witness."""
    qs = ex2_8()
    with pytest.raises(NotTerminal, match="'x' is not terminal") as err:
        terwilliger(qs, "x", Q)
    assert err.value.witness == ("y", "x", 0)
    with pytest.raises(NotTerminal, match="unknown object 'nope'") as err:
        terwilliger(qs, "nope", Q)
    assert err.value.witness is None


def test_check_algebra_hom_identity_and_zero():
    alg = schemoid_algebra(j_embed(hamming(2, 2)), Q)
    assert check_algebra_hom(identity_algebra_map(alg), alg, alg) == (True, None)
    nonunital = schemoid_algebra(group_bullet(2), Q)
    zero = AlgebraMap(nonunital, nonunital, {})
    assert check_algebra_hom(zero, nonunital, nonunital) == (True, None)


def test_check_algebra_hom_first_witness_in_basis_order():
    """On the group ring of Z/4, 0, 1, 2, 3 -> 0, 1, 2, 1 keeps every square
    (1 + 1 = 2, 3 + 3 = 2) but not 1 + 2 = 3.  Scanning sigma before tau,
    the first failing pair is (1, 2); tau before sigma would meet (2, 1)."""
    g = one_object_group(*cyclic_group_table(4)).base
    alg = schemoid_algebra(verify_quasi_schemoid(g, discrete_partition(g)), Q)
    assert alg.basis == ("0", "1", "2", "3")
    image = {"0": "0", "1": "1", "2": "2", "3": "1"}
    amap = AlgebraMap(alg, alg, {(image[s], s): Q.one for s in alg.basis})
    assert check_algebra_hom(amap, alg, alg) == (False, ("1", "2"))


# ---------------------------------------------------------------------------
# Sparse associativity check against the dense oracle
# ---------------------------------------------------------------------------

RINGS = (Q, PrimeField(2), PrimeField(3))


def _poly_tensor(coeffs):
    """Constants of K[x]/(f) in the basis 1, x, ..., x^(k-1), f monic of
    degree k with lower coefficients coeffs: commutative and associative."""
    k = len(coeffs)
    power = [0] * (k - 1) + [1]             # x^(k-1)
    powers = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(k - 1):                  # x^k .. x^(2k-2)
        top = power[-1]
        power = [0] + power[:-1]
        power = [a - top * c for a, c in zip(power, coeffs)]
        powers.append(power)
    return {(f"x{i}", f"x{j}", f"x{m}"): c
            for i in range(k) for j in range(k)
            for m, c in enumerate(powers[i + j]) if c}


def _incidence_tensor(relation, lam, ring):
    """Incidence algebra of a preorder, E_ab E_bc = E_ac, with E_ab scaled by
    lam[(a, b)]: associative and, with two related points, non-commutative."""
    name = lambda a, b: f"e{a}{b}"
    tensor = {}
    for a, b in relation:
        for b2, c in relation:
            if b == b2:
                tensor[(name(a, b), name(b, c), name(a, c))] = (
                    lam[(a, b)] * lam[(b, c)] * ring.inv(lam[(a, c)]))
    return [name(a, b) for a, b in relation], tensor


@st.composite
def small_tensors(draw):
    """(basis, tensor, ring) with k <= 5: an associative family, or random
    constants, and then possibly one constant perturbed.  Over F_p the
    constants are drawn unreduced, so both checks must reduce them."""
    ring = draw(st.sampled_from(RINGS))
    kind = draw(st.sampled_from(["poly", "incidence", "random"]))
    if kind == "poly":
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=5))
        basis, tensor = [f"x{i}" for i in range(len(coeffs))], _poly_tensor(coeffs)
    elif kind == "incidence":
        n = draw(st.integers(1, 3))
        rel = {(a, a) for a in range(n)}
        rel |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                 max_size=2)))
        while more := {(a, c) for a, b in rel for b2, c in rel if b == b2} - rel:
            rel |= more                     # transitive closure
        assume(len(rel) <= 5)
        units = [Fraction(1), Fraction(2), Fraction(-1, 3)] if ring == Q else range(1, ring.p)
        lam = {pair: draw(st.sampled_from(units)) for pair in sorted(rel)}
        basis, tensor = _incidence_tensor(sorted(rel), lam, ring)
    else:
        basis = [f"b{i}" for i in range(draw(st.integers(1, 4)))]
        keys = [(s, t, m) for s in basis for t in basis for m in basis]
        tensor = {key: draw(st.integers(-2, 3))
                  for key in draw(st.lists(st.sampled_from(keys), max_size=6, unique=True))}
    if draw(st.booleans()):
        key = tuple(draw(st.sampled_from(basis)) for _ in range(3))
        tensor[key] = tensor.get(key, 0) + draw(st.sampled_from([1, 2, -1]))
    if ring == Q:
        tensor = {key: Fraction(v) for key, v in tensor.items()}
    return basis, tensor, ring


def _associativity_verdict(check, basis, tensor, ring):
    try:
        check(basis, tensor, ring)
    except AlgebraError as err:
        return str(err)
    return None


def _sparse_check(basis, tensor, ring):
    _assert_associative(basis, _sparse_rows(tensor, ring), ring)


@settings(max_examples=300, deadline=None)
@given(small_tensors())
def test_sparse_associativity_matches_dense_oracle(case):
    """Same accept/reject verdict, and the same first failing quadruple."""
    basis, tensor, ring = case
    assert (_associativity_verdict(_sparse_check, basis, tensor, ring)
            == _associativity_verdict(assert_associative_dense, basis, tensor, ring))


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_associativity_check_rejects_perturbed_tensor(ring):
    """A valid tensor is accepted and one bumped constant is refused by both."""
    alg = schemoid_algebra(j_embed(hamming(2, 2)), ring)
    assert _associativity_verdict(_sparse_check, alg.basis, alg.tensor, ring) is None
    assert _associativity_verdict(assert_associative_dense, alg.basis, alg.tensor, ring) is None
    bumped = dict(alg.tensor)
    bumped[("R0", "R1", "R1")] += ring.one     # R0 stops acting as the unit on R1
    got = _associativity_verdict(_sparse_check, alg.basis, bumped, ring)
    assert got is not None
    assert got == _associativity_verdict(assert_associative_dense, alg.basis, bumped, ring)


@cache
def _large_bases():
    """Schemoids with k = 9 and 16 basis elements, where the check's keys
    rho k + nu run past 9: the discrete partitions of j(Z/3) and j(Z/4), and
    the class partition of j(Z/16)."""
    j = {n: j_embed(group_scheme(*cyclic_group_table(n))) for n in (3, 4, 16)}
    return tuple(verify_quasi_schemoid(j[n].category, discrete_partition(j[n].category))
                 for n in (3, 4)) + (j[16],)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_large_basis_associativity_matches_dense_oracle(ring):
    """The valid tensor is accepted by both checks; with one constant bumped
    or added, the verdict and the quadruple are the dense scan's.  Adding
    s_mu to the square of s_e, e = basis[0] an identity block, breaks the
    first pair (e, e) at many (rho, nu) at once, so the one reported must be
    the least in basis order."""
    rng = random.Random(29)
    for qs in _large_bases():
        alg = schemoid_algebra(qs, ring)
        basis, tensor = alg.basis, alg.tensor
        assert _associativity_verdict(_sparse_check, basis, tensor, ring) is None
        assert _associativity_verdict(assert_associative_dense, basis, tensor, ring) is None
        keys = [(s, t, m) for s in basis for t in basis for m in basis]
        e = basis[0]
        for key in (rng.choice(sorted(tensor)), rng.choice(keys), (basis[-1],) * 3,
                    *((e, e, mu) for mu in basis)):
            perturbed = dict(tensor)
            perturbed[key] = perturbed.get(key, ring.zero) + ring.one
            got = _associativity_verdict(_sparse_check, basis, perturbed, ring)
            assert got is not None
            assert got == _associativity_verdict(assert_associative_dense, basis, perturbed, ring)


def _schemoid_sweep():
    """j(H(n,2)) for n <= 4, the thickenings of H(2,2) with z <= 4 and the
    corpus schemoids."""
    h22 = hamming(2, 2)
    return ([j_embed(hamming(n, 2)) for n in range(1, 5)]
            + [thicken_scheme(h22, z) for z in range(1, 5)]
            + [corpus.build(name) for name, entry in corpus.ENTRIES.items()
               if entry.kind == "schemoid"])


def _spy_on_the_unit_solve(mp):
    """Record the calls of `_solve_tensor_unit` in the list returned."""
    calls, solve = [], algebra._solve_tensor_unit

    def spy(*args):
        calls.append(args)
        return solve(*args)

    mp.setattr(algebra, "_solve_tensor_unit", spy)
    return calls


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_tensor_unit_by_substitution_matches_fraction_oracle(ring, monkeypatch):
    """The tensor unit equals the Fraction reference's, and the unit is
    solved for only when the sum of identities is not in the span."""
    calls = _spy_on_the_unit_solve(monkeypatch)
    unital = 0
    for qs in _schemoid_sweep():
        calls.clear()
        alg = schemoid_algebra(qs, ring)
        assert alg.tensor_unit == solve_tensor_unit_fractions(alg.basis, alg.tensor, ring)
        assert bool(calls) != alg.unital
        if alg.unital:
            unital += 1
            assert alg.tensor_unit == alg.unit
    assert unital >= 20


@settings(max_examples=60, deadline=None)
@given(small_categories(), st.sampled_from(RINGS))
def test_discrete_partition_unit_by_substitution_matches_fraction_oracle(cat, ring):
    """A discrete partition is unital, with no unit solve, and its unit is
    the Fraction reference's tensor unit."""
    qs = verify_quasi_schemoid(cat, discrete_partition(cat))
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_on_the_unit_solve(mp)
        alg = schemoid_algebra(qs, ring)
    assert alg.unital and not calls
    assert alg.tensor_unit == alg.unit == solve_tensor_unit_fractions(alg.basis, alg.tensor, ring)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@pytest.mark.parametrize("row", [("R1", "R0"), ("R0", "R1")], ids=["left-only", "right-only"])
def test_identity_sum_unit_on_one_side_only_is_an_internal_error(ring, row):
    """Rows in which s_R0, the sum of identities of j(H(2,2)), is a unit on
    one side only fail the substitution as AssertionError: s_R1 s_R0 or
    s_R0 s_R1 becomes s_R2, and the product on the other side stays s_R1."""
    qs = j_embed(hamming(2, 2))
    basis = tuple(qs.partition.names())
    rows = _sparse_rows(qs.constants.entries, ring)
    assert algebra._unit_analysis(qs, basis, rows, ring)[0]
    rows[row] = {"R2": 1}
    with pytest.raises(AssertionError, match="unit cross-check failed"):
        algebra._unit_analysis(qs, basis, rows, ring)


# ---------------------------------------------------------------------------
# Terwilliger closure against the matrix oracle and the Hamming closed forms
# ---------------------------------------------------------------------------

def _terwilliger_matrices(s, base):
    """Adjacency matrices and the dual idempotents at point index base."""
    n = s.size
    gens = [adjacency(s, c) for c in s.classes]
    for ci in range(len(s.classes)):
        gens.append([[int(x == y and s.relation_of[base][x] == ci) for y in range(n)]
                     for x in range(n)])
    return gens


def _reduced(x, ring):
    return x % ring.p if isinstance(ring, PrimeField) else x


@pytest.mark.parametrize("n, q, closed_form", [(2, 2, comb(5, 3)), (3, 2, comb(6, 3)),
                                               (2, 3, comb(6, 4)), (3, 3, comb(7, 4))])
def test_terwilliger_hamming_matches_oracles(n, q, closed_form):
    """dim T(H(n,2)) = C(n+3,3) and dim T(H(n,3)) = C(n+4,4) over Q, F2, F3;
    the basis is fully reduced and closed under products; the matrix oracle
    agrees."""
    s = hamming(n, q)
    qs = j_embed(s)
    assert matrix_algebra_closure_dim(_terwilliger_matrices(s, 0)) == closed_form
    for ring in RINGS:
        clo = terwilliger(qs, s.points[0], ring)
        assert clo.dimension == closed_form
        pos = {m: i for i, m in enumerate(clo.order)}
        basis = [{clo.order[c]: x for c, x in row.items()} for row in clo.basis]
        pivots = [min(b, key=pos.__getitem__) for b in basis]
        assert pivots == sorted(set(pivots), key=pos.__getitem__)
        for b, piv in zip(basis, pivots):
            assert b[piv] == ring.one
            assert all(x == _reduced(x, ring) and x for x in b.values())
            assert not any(piv in other for other in basis if other is not b)
        assert all(clo.contains(clo.multiply(u, v)) for u in clo.basis for v in clo.basis)
        assert not all(clo.contains({pos[m]: ring.one}) for m in clo.order)


@pytest.mark.parametrize("n, q, products", [(3, 2, 104), (2, 3, 81)])
@pytest.mark.parametrize("ring", (Q, PrimeField(3)), ids=repr)
def test_closure_product_count_and_skipped_pairs(monkeypatch, ring, n, q, products):
    """With the graded generators the residues already span T(j(H(n,q))),
    so r equals the dimension and dim x r (400 and 225) is every pair of
    basis rows.  The closure takes 104 and 81 products instead: the count
    is pinned, every (pivot row, residue) pair is taken at most once, and
    each pair it skips has a zero product, computed here from the
    composition rows without the closure's target index."""
    qs = j_embed(hamming(n, q))
    cat = qs.category
    pivots, residues, taken = [], [], []
    by_target, product = algebra._by_target, algebra._product

    class Recording(algebra._Echelon):
        def add(self, row, col, u):
            super().add(row, col, u)
            pivots.append(row)

    def indexing(cat, v):
        ending_at = by_target(cat, v)
        residues.append((v, ending_at))
        return ending_at

    def counted(cat, u, ending_at, p):
        taken.append((id(u), id(ending_at)))
        return product(cat, u, ending_at, p)

    monkeypatch.setattr(algebra, "_Echelon", Recording)
    monkeypatch.setattr(algebra, "_by_target", indexing)
    monkeypatch.setattr(algebra, "_product", counted)
    clo = terwilliger(qs, cat.objects[0], ring)
    assert len(pivots) == len(residues) == clo.dimension
    assert len(taken) == len(set(taken)) == products
    rows = {id(row): row for row in pivots}
    assert all(u in rows for u, _ in taken)
    taken = set(taken)
    for row in pivots:
        for v, ending_at in residues:
            if (id(row), id(ending_at)) in taken:
                continue
            out = {}
            for f, a in row.items():
                for g, b in v.items():
                    if cat.tgt_of[g] == cat.src_of[f]:
                        h = cat.rows[f][cat.inpos[g]]
                        out[h] = out.get(h, 0) + a * b
            assert not any(_reduced(x, ring) for x in out.values())


def _ungraded_generators(qs, e, ring):
    """The generators the closure took before the grading: each block sum
    A_sigma and each nonzero E*_sigma."""
    cat, blocks = qs.category, qs.partition.blocks
    to_e = {x: cat.hom(x, e)[0] for x in cat.objects}
    sums = [{m: ring.one for m in blocks[b]} for b in qs.partition.names()]
    duals = [{cat.identity[x]: ring.one for x in cat.objects if to_e[x] in blocks[b]}
             for b in qs.partition.names()]
    return sums + [d for d in duals if d]


def _affine(a, n):
    """The pair orbits of x -> a x and x -> x + 1 on Z/n."""
    return orbit_configuration([[a * x % n for x in range(n)], [(x + 1) % n for x in range(n)]], n)


# J(5,2) and the two affine schemes are cases where the graded pieces do not
# span T (14 of 15, 15 of 17 and 15 of 21 dimensions), so their closure has
# to take products that leave the span
GRADED_CASES = {
    "H(2,2)": (lambda: hamming(2, 2), 10, True),
    "H(2,3)": (lambda: hamming(2, 3), 15, True),
    "J(5,2)": (lambda: orbit_configuration(johnson_generators(5, 2)[0], 10), 15, True),
    "Z7": (lambda: _affine(2, 7), 17, True),
    "Z13": (lambda: _affine(4, 13), 21, False),
}


@pytest.mark.parametrize("case", GRADED_CASES)
@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_graded_closure_matches_ungraded_generators(case, ring):
    """T from the graded pieces is, entry for entry, the closure of the
    block sums and the E*_sigma; on the smaller cases it is also the
    Fraction all-pairs closure of those generators.  Over Q the dimension
    is the one pinned, and the pieces alone span less than T where the
    scheme is not a Hamming scheme."""
    build, dim, small = GRADED_CASES[case]
    qs = j_embed(build())
    cat = qs.category
    e = cat.objects[0]
    clo = terwilliger(qs, e, ring)
    gens = _ungraded_generators(qs, e, ring)
    assert clo.basis == span_closure(cat, ring, gens).basis
    if small:
        got = [{clo.order[c]: x for c, x in row.items()} for row in clo.basis]
        assert got == span_closure_fractions(cat, ring, gens)
    if ring == Q:
        assert clo.dimension == dim


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_graded_closure_matches_fraction_oracle_on_orbit_schemes(data):
    """On the pair orbits of up to three random permutations of at most six
    points, or of x -> a x and x -> x + 1 on Z/5 or Z/7 (where the pieces
    can fall short of T), from a random terminal object, the graded
    closure is the Fraction all-pairs closure of the ungraded generators,
    over Q, F2 and F3."""
    if data.draw(st.booleans()):
        n = data.draw(st.sampled_from((5, 7)))
        cfg = _affine(data.draw(st.integers(1, n - 1)), n)
    else:
        size = data.draw(st.integers(1, 6))
        perms = data.draw(st.lists(st.permutations(range(size)), max_size=3))
        cfg = orbit_configuration([list(p) for p in perms], size)
    qs = j_embed(cfg)
    ring = data.draw(st.sampled_from(RINGS))
    e = data.draw(st.sampled_from(qs.category.objects))
    clo = terwilliger(qs, e, ring)
    got = [{clo.order[c]: x for c, x in row.items()} for row in clo.basis]
    assert got == span_closure_fractions(qs.category, ring, _ungraded_generators(qs, e, ring))


# ---------------------------------------------------------------------------
# Integer elimination against the Fraction references
# ---------------------------------------------------------------------------

CLOSURE_RINGS = (Q, PrimeField(2), PrimeField(3), PrimeField(5))


@cache
def _jh22_category():
    return j_embed(hamming(2, 2)).category


def _generator_sets(cat, coefficients):
    vector = st.dictionaries(st.sampled_from(cat.morphism_ids), coefficients,
                             min_size=1, max_size=4)
    return st.lists(vector, min_size=1, max_size=3)


def _coefficients(ring):
    """Over Q, integers and Fractions; over F_p, unreduced integers."""
    if ring == Q:
        return st.sampled_from([Fraction(x) for x in (1, -1, 2, 0)] + [Fraction(1, 2), Fraction(-2, 3)])
    return st.integers(-3, 7)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_closure_matches_fraction_oracle(data):
    """The closure basis over Q, F2, F3 and F5 is the reduced echelon basis
    the Fraction closure builds, entry for entry and in the same order."""
    ring = data.draw(st.sampled_from(CLOSURE_RINGS))
    cat = data.draw(st.one_of(small_categories(), st.builds(_jh22_category)))
    gens = data.draw(_generator_sets(cat, _coefficients(ring)))
    clo = span_closure(cat, ring, gens)
    got = [{clo.order[c]: x for c, x in row.items()} for row in clo.basis]
    assert got == span_closure_fractions(cat, ring, gens)
    if ring == Q:
        assert all(isinstance(x, Fraction) for row in got for x in row.values())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_closure_dimension_over_Q_and_a_large_prime(data):
    """Integer generators span closures of the same dimension over Q and
    over F_(2^31 - 1)."""
    cat = data.draw(st.one_of(small_categories(), st.builds(_jh22_category)))
    gens = data.draw(_generator_sets(cat, st.integers(-2, 2)))
    assert (span_closure(cat, Q, gens).dimension
            == span_closure(cat, PrimeField(2 ** 31 - 1), gens).dimension)


@settings(max_examples=300, deadline=None)
@given(small_tensors())
def test_tensor_unit_matches_fraction_oracle(case):
    """The integer unit solve and the Fraction reference find the same
    two-sided unit, or agree that there is none."""
    basis, tensor, ring = case
    assert (_solve_tensor_unit(basis, _sparse_rows(tensor, ring), ring)
            == solve_tensor_unit_fractions(basis, tensor, ring))


# ---------------------------------------------------------------------------
# Fraction-free hom check against the Fraction reference
# ---------------------------------------------------------------------------

@cache
def _hom_cases(ring_name):
    """Algebras over the ring (j(H(2,2)), j(H(3,2)) and the group ring of
    Z/4) and the induced maps of the four thickening projections."""
    ring = ring_from_name(ring_name)
    z4 = one_object_group(*cyclic_group_table(4)).base
    algebras = [schemoid_algebra(qs, ring) for qs in (
        j_embed(hamming(2, 2)), j_embed(hamming(3, 2)),
        verify_quasi_schemoid(z4, discrete_partition(z4)))]
    h22 = hamming(2, 2)
    j22 = j_embed(h22)
    projections = [induced_algebra_map(projection_phi(thicken_scheme(h22, z), h22, j22), ring)
                   for z in range(1, 5)]
    return algebras, projections


def _right_multiplication(alg, e):
    """The matrix of x -> x e: a homomorphism when e is an idempotent of a
    commutative algebra, and over Q its entries have denominators."""
    return {(t, s): x for s in alg.basis
            for t, x in alg.multiply({s: alg.ring.one}, e).items()}


def _idempotent_of_all_ones(alg):
    """J / c, where J is the sum of the basis and J^2 = c J (c the number of
    points, or of group elements); J itself when c vanishes in the ring."""
    ring = alg.ring
    total = {s: ring.one for s in alg.basis}
    c = alg.multiply(total, total).get(alg.basis[0])
    return {s: ring.one * ring.inv(c) for s in alg.basis} if c else total


@st.composite
def algebra_maps(draw):
    """Maps over Q, F2, F3 and F5: identities, scaled identities, the
    induced projection maps, zero maps, right multiplications by the
    idempotent J / c or by a random element, and random matrices; then
    possibly one entry perturbed.  Over Q the coefficients include 1/2 and
    -2/3, so the common denominator D is often not 1."""
    ring = draw(st.sampled_from(CLOSURE_RINGS))
    algebras, projections = _hom_cases(ring.name())
    coefficients = _coefficients(ring)
    kind = draw(st.sampled_from(["identity", "scaled", "projection", "zero",
                                 "idempotent", "right", "random"]))
    if kind == "projection":
        amap = draw(st.sampled_from(projections))
        a, b, matrix = amap.source, amap.target, dict(amap.matrix)
    else:
        a = b = draw(st.sampled_from(algebras))
        if kind in ("identity", "scaled"):
            c = ring.one if kind == "identity" else draw(coefficients)
            matrix = {(s, s): c for s in a.basis}
        elif kind == "zero":
            matrix = {}
        elif kind == "idempotent":
            matrix = _right_multiplication(a, _idempotent_of_all_ones(a))
        elif kind == "right":
            e = draw(st.dictionaries(st.sampled_from(a.basis), coefficients, max_size=3))
            matrix = _right_multiplication(a, e)
        else:
            keys = [(t, s) for t in a.basis for s in a.basis]
            matrix = {key: draw(coefficients)
                      for key in draw(st.lists(st.sampled_from(keys), max_size=6, unique=True))}
    if draw(st.booleans()):
        key = (draw(st.sampled_from(b.basis)), draw(st.sampled_from(a.basis)))
        matrix[key] = matrix.get(key, ring.zero) + draw(coefficients)
    return AlgebraMap(a, b, matrix)


@settings(max_examples=300, deadline=None)
@given(algebra_maps())
def test_hom_check_matches_fraction_reference(amap):
    """Same verdict and the same first witness as the Fraction check."""
    a, b = amap.source, amap.target
    assert check_algebra_hom(amap, a, b) == check_algebra_hom_fractions(amap, a, b)


def test_hom_check_clears_the_common_denominator():
    """x -> x J/4 on j(H(2,2)) over Q has entries 1/4 and 1/2, so D = 4.
    It is multiplicative on every basis pair (J/4 is a central idempotent)
    but sends the unit to J/4: the only failure is the unit clause."""
    alg = schemoid_algebra(j_embed(hamming(2, 2)), Q)
    e = _idempotent_of_all_ones(alg)
    assert e == {s: Fraction(1, 4) for s in alg.basis}
    amap = AlgebraMap(alg, alg, _right_multiplication(alg, e))
    assert {x.denominator for x in amap.matrix.values()} == {2, 4}
    assert check_algebra_hom(amap, alg, alg) == (False, ("unit", "unit"))
    assert check_algebra_hom_fractions(amap, alg, alg) == (False, ("unit", "unit"))


def _terminal_objects(cat):
    return [e for e in cat.objects if all(len(cat.hom(x, e)) == 1 for x in cat.objects)]


def test_values_over_Q_are_fractions():
    """Over Q every coefficient handed out is a Fraction, never an int: the
    algebra's tensor, unit, tensor unit and products, Terwilliger bases and
    their products, and the matrices and images of induced maps.  An int would print, hash and serialize
    differently."""
    h22 = hamming(2, 2)
    thick = [thicken_scheme(h22, z) for z in range(1, 5)]
    family = ([corpus.build(name) for name, entry in corpus.ENTRIES.items()
               if entry.kind == "schemoid"]
              + thick + [j_embed(hamming(n, 2)) for n in range(1, 5)])
    values = []
    for qs in family:
        alg = schemoid_algebra(qs, Q)
        values += alg.tensor.values()
        values += (alg.unit or {}).values()
        values += (alg.tensor_unit or {}).values()
        ones = {s: Q.one for s in alg.basis}
        values += alg.multiply(ones, ones).values()
        for e in _terminal_objects(qs.category)[:1]:
            clo = terwilliger(qs, e, Q)
            values += [x for row in clo.basis for x in row.values()]
            values += [x for u in clo.basis[:3] for v in clo.basis[:3]
                       for x in clo.multiply(u, v).values()]
    j22 = j_embed(h22)
    for sc in thick:
        amap = induced_algebra_map(projection_phi(sc, h22, j22), Q)
        values += amap.matrix.values()
        values += amap.apply({s: Q.one for s in amap.source.basis}).values()
    assert values and all(isinstance(x, Fraction) for x in values)


@pytest.mark.parametrize("ring", [Q, PrimeField(2), PrimeField(3)])
def test_tensor_is_a_read_only_view_of_the_rows(ring):
    """The algebra keeps its constants once, as integer rows; `tensor` and
    `c` read them as ring elements: the nonzero constants of the table in
    its order, Fractions over Q and residues over F_p."""
    h22 = hamming(2, 2)
    for qs in [thicken_scheme(h22, 3), j_embed(hamming(3, 2)), group_bullet(3), ex2_8()]:
        alg = schemoid_algebra(qs, ring)
        want = [(key, ring.from_int(c)) for key, c in qs.constants.entries.items()
                if ring.from_int(c)]
        assert list(alg.tensor.items()) == want
        assert all(type(x) is (Fraction if ring == Q else int) for _, x in want)
        assert alg.tensor is alg.tensor
        with pytest.raises(TypeError):
            alg.tensor[(alg.basis[0],) * 3] = ring.one
        for sigma in alg.basis:
            for tau in alg.basis:
                for mu in alg.basis:
                    assert alg.c(sigma, tau, mu) == ring.from_int(qs.p(sigma, tau, mu))
