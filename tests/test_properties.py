"""Randomized structural properties over generated small instances."""

from itertools import product as iproduct

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from schemoids.bridges import s_tilde, s_tilde_on_functor
from schemoids.extensions import (
    Cochain2,
    FunctorialityViolated,
    NotACocycle,
    NotNormalized,
    build_extension,
    bw_cohomology,
    bw_differentials,
    coboundary_of_1cochain,
    cochain2_sub,
    extensions_equivalent,
    induced_system,
    is_normalized,
    is_split,
    trivial_system,
    validate_natural_system,
)
from schemoids.fincat import (
    CategoryError,
    EndpointMismatch,
    MissingIdentity,
    NonAssociative,
    NotAFunctor,
    NotInvertible,
    as_groupoid,
    build_category,
    cyclic_group_table,
    identity_functor,
    is_groupoid,
    join,
    one_object_group,
    opposite,
    pair_name,
    product,
    product_with_projections,
    serialize,
    terminal_category,
    validate_category,
    validate_functor,
)
from schemoids.schemes import group_scheme, hamming, j_embed, scheme_from_json, serialize_scheme
from schemoids.schemoid import (
    AxiomViolation,
    QuasiSchemoid,
    StructureConstantTable,
    check_concatenation,
    compose_schemoid_morphisms,
    discrete_partition,
    make_partition,
    partition_from_json,
    schemoid_join,
    schemoid_product,
    serialize_partition,
    verify_quasi_schemoid,
)
from schemoids import corpus
from schemoids.admissible import condition_P, is_admissible
from schemoids.fincat import Functor

from oracles import (
    coboundary_of_1cochain as reference_coboundary,
    cocycle_defect as reference_cocycle_defect,
    dense_cohomology_invariants,
    full_complex_cohomology,
    full_complex_is_coboundary,
    completed_entries,
    condition_P_bruteforce,
    extension_description,
    join_description,
    opposite_description,
    product_description,
    s_tilde_description,
    table_entries,
    table_rows,
    inverses_bruteforce,
    labelled,
    labelled_system,
    light_generators_greedy,
    natural_law_failures,
    schemoid_constants_bruteforce,
    span_dimension_fractions,
    validate_category_dense,
    validate_functor_dense,
    validate_natural_system_dense,
)


def poset_category(n, edges):
    """Category of a finite poset given by a DAG edge set (reachability order)."""
    reach = {i: {i} for i in range(n)}
    changed = True
    while changed:
        changed = False
        for (a, b) in edges:
            for i in range(n):
                if a in reach[i] and b not in reach[i]:
                    reach[i].add(b)
                    changed = True
    objects = [f"v{i}" for i in range(n)]
    morphisms = []
    for i in range(n):
        for j in sorted(reach[i]):
            morphisms.append((f"e{i}_{j}", f"v{i}", f"v{j}"))
    identity = {f"v{i}": f"e{i}_{i}" for i in range(n)}
    compose = {}
    for i in range(n):
        for j in sorted(reach[i]):
            for k in sorted(reach[j]):
                compose[(f"e{j}_{k}", f"e{i}_{j}")] = f"e{i}_{k}"
    return build_category(objects, morphisms, identity,
                          ((f, g, fg) for (f, g), fg in compose.items()))


@st.composite
def small_posets(draw):
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    return poset_category(n, edges)


@st.composite
def small_categories(draw):
    kind = draw(st.sampled_from(["terminal", "group", "poset", "join", "product", "scheme"]))
    if kind == "terminal":
        return terminal_category()
    if kind == "group":
        n = draw(st.integers(1, 5))
        return one_object_group(*cyclic_group_table(n)).base
    if kind == "poset":
        return draw(small_posets())
    if kind == "join":
        a = draw(small_posets())
        n = draw(st.integers(1, 3))
        return join(a, one_object_group(*cyclic_group_table(n)).base)
    if kind == "product":
        a = draw(small_posets())
        n = draw(st.integers(1, 3))
        return product(a, one_object_group(*cyclic_group_table(n)).base)
    q = draw(st.integers(2, 3))
    return j_embed(hamming(1, q)).category


@settings(max_examples=40, deadline=None)
@given(small_categories())
def test_discrete_partition_always_passes(cat):
    table = check_concatenation(cat, discrete_partition(cat))
    assert all(v in (0, 1) for v in table.entries.values())


@settings(max_examples=25, deadline=None)
@given(small_posets(), st.integers(1, 4))
def test_product_and_join_of_schemoids_pass(cat, n):
    a = verify_quasi_schemoid(cat, discrete_partition(cat))
    gpd = one_object_group(*cyclic_group_table(n))
    bpart = make_partition(gpd.base, {"G": list(gpd.base.morphism_ids)})
    b = verify_quasi_schemoid(gpd.base, bpart)
    prod = schemoid_product(a, b)
    assert len(prod.partition) == len(a.partition) * len(b.partition)
    jn = schemoid_join(a, b)
    assert len(jn.partition) == len(a.partition) + len(b.partition) + \
        len(a.category.objects) * len(b.category.objects)
    # counts from the construction
    assert len(jn.category.morphisms) == len(a.category.morphisms) + \
        len(b.category.morphisms) + len(a.category.objects) * len(b.category.objects)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.data())
def test_admissible_composites(a, b, c, data):
    """Images of one-object groupoid maps are admissible and compose to
    admissible morphisms."""
    za = one_object_group(*cyclic_group_table(a))
    zb = one_object_group(*cyclic_group_table(b))
    zc = one_object_group(*cyclic_group_table(c))
    cands_ab = [x for x in range(b) if (x * a) % b == 0]
    cands_bc = [x for x in range(c) if (x * b) % c == 0]
    x = data.draw(st.sampled_from(cands_ab))
    y = data.draw(st.sampled_from(cands_bc))
    f1 = Functor({"*": "*"}, {str(i): str(i * x % b) for i in range(a)})
    f2 = Functor({"*": "*"}, {str(i): str(i * y % c) for i in range(b)})
    m1 = s_tilde_on_functor(f1, za, zb)
    m2 = s_tilde_on_functor(f2, zb, zc)
    assert is_admissible(m1).admissible
    assert is_admissible(m2).admissible
    comp = compose_schemoid_morphisms(m2, m1)
    assert is_admissible(comp).admissible


@settings(max_examples=20, deadline=None)
@given(small_categories(), st.integers(2, 4), st.integers(1, 2))
def test_differentials_compose_to_zero(cat, modulus, rank):
    """Reading d1_rows checks d1∘d0 = 0 and reading d2_rows checks d2∘d1 = 0;
    dim, computed before anything is built, matches what is built."""
    cx = bw_differentials(cat, trivial_system(cat, modulus, rank))
    rows = (cx.d0_rows, cx.d1_rows, cx.d2_rows)
    triples = [(f, g, h) for (f, g) in cat.compose for h in cat.morphism_ids
               if (g, h) in cat.compose]
    assert cx.basis3 == [tuple(map(cat.index.__getitem__, t)) for t in triples]
    pairs = [(f, g) for f, (g, _) in cat.entries()]
    bases = (cat.objects, cat.morphism_ids, pairs, cx.basis3)
    assert tuple(rank * len(b) for b in bases) == cx.dim
    assert tuple(len(r) for r in rows) == cx.dim[1:]
    assert all(0 <= c < cx.dim[n] for n, r in enumerate(rows) for row in r for c in row)
    offsets = (cx.offset0, cx.offset1, [cx.offset2[f][g] for f, g in pairs])
    for basis, offset in zip(bases, offsets):
        assert offset == list(range(0, rank * len(basis), rank))


MODULI = [None, 2, 3, 4, 6, 8, 9, 12]


def _dense_reference(cx, degree, modulus):
    """(invariants, free rank) of H^degree from the dense differentials:
    ranks of Fraction matrices over Q, the Smith lattice route over Z/m."""
    d_prev, d_n = (cx.d0, cx.d1) if degree == 1 else (cx.d1, cx.d2)
    dim_n = cx.dim[degree]
    if modulus is None:
        return (), dim_n - span_dimension_fractions(d_n) - span_dimension_fractions(d_prev)
    return tuple(dense_cohomology_invariants(d_prev, d_n, dim_n, modulus)), 0


def _assert_matches_dense(cat, system):
    cx = bw_differentials(cat, system)
    for degree in (1, 2):
        h = bw_cohomology(cat, system, degree, cx)
        assert (h.invariants, h.free_rank) == _dense_reference(cx, degree, system.modulus)


@settings(max_examples=60, deadline=None)
@given(small_categories(), st.sampled_from(MODULI), st.integers(1, 2))
def test_cohomology_matches_dense_reference(cat, modulus, rank):
    """The sparse local elimination against the dense Smith-form route, on
    trivial systems; complexes with more than 400 triples are skipped to
    keep the dense route fast."""
    triples = sum(1 for (f, g) in cat.compose for h in cat.morphism_ids if (g, h) in cat.compose)
    assume(triples * rank <= 400)
    _assert_matches_dense(cat, trivial_system(cat, modulus, rank))


def _power(a, e):
    out = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for _ in range(e):
        out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in out]
    return out


# generators A with A^n = 1 for the Z/n-modules Z^r: the sign, the swap,
# diag(1, -1), and rotations of order 3, 4 and 6
ACTIONS = {
    "sign": (2, [[-1]]),
    "diag": (2, [[1, 0], [0, -1]]),
    "swap": (2, [[0, 1], [1, 0]]),
    "rot3": (3, [[0, -1], [1, -1]]),
    "rot4": (4, [[0, -1], [1, 0]]),
    "rot6": (6, [[1, -1], [1, 0]]),
}


TWISTS = [(n, action) for n in range(1, 7) for action in sorted(ACTIONS)
          if n % ACTIONS[action][0] == 0]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(TWISTS), st.sampled_from(MODULI))
def test_twisted_cohomology_matches_dense_reference(twist, modulus):
    """Induced systems of Z/n, n <= 6, acting on Z^r through a generator of
    order dividing n, against the dense route."""
    n, action = twist
    gen = ACTIONS[action][1]
    cat = one_object_group(*cyclic_group_table(n)).base
    maps = {str(i): _power(gen, i) for i in range(n)}
    system = induced_system(cat, modulus, {cat.objects[0]: len(gen)}, maps)
    _assert_matches_dense(cat, system)


def indiscrete_category(k):
    """One morphism between any two of k objects: every object isomorphic
    to every other."""
    objects = [f"p{i}" for i in range(k)]
    morphisms = [(f"{a}>{b}", a, b) for a in objects for b in objects]
    compose = {(f"{b}>{c}", f"{a}>{b}"): f"{a}>{c}"
               for a in objects for b in objects for c in objects}
    return build_category(objects, morphisms, {a: f"{a}>{a}" for a in objects},
                          ((f, g, fg) for (f, g), fg in compose.items()))


@st.composite
def skeleton_cases(draw):
    """A base B from small_categories(), or Z/n or a poset times Z/n, with
    phi: B -> Z/n (zero off the group factor); C = B x I_k for the
    indiscrete I_k, k <= 3, so that C has isomorphic objects; and a trivial
    or twisted induced system on C pulled back from B, the twist a
    generator A of order dividing n acting through phi."""
    kind = draw(st.sampled_from(["small", "group", "group", "product"]))
    if kind == "small":
        base, n = draw(small_categories()), 1
        phi = dict.fromkeys(base.morphism_ids, 0)
    else:
        n = draw(st.integers(1, 6))
        group = one_object_group(*cyclic_group_table(n)).base
        value = {str(i): i for i in range(n)}
        if kind == "group":
            base, proj = group, (lambda f: f)
        else:
            base, _, proj = product_with_projections(draw(small_posets()), group)
        phi = {f: value[proj(f)] for f in base.morphism_ids}
    twists = [a for a in sorted(ACTIONS) if n % ACTIONS[a][0] == 0]
    twist = draw(st.sampled_from([None, None] + twists))
    k = draw(st.sampled_from([1, 2, 2, 3]))
    modulus = draw(st.sampled_from(MODULI))
    rank = draw(st.integers(1, 2))
    return base, phi, n, twist, k, modulus, rank


def _pulled_back(base, phi, twist, k, modulus, rank):
    cat, p, _ = product_with_projections(base, indiscrete_category(k))
    phi_c = {f: phi[p(f)] for f in cat.morphism_ids}
    if twist is None:
        return cat, phi_c, trivial_system(cat, modulus, rank), [[int(i == j) for j in range(rank)]
                                                                for i in range(rank)]
    gen = ACTIONS[twist][1]
    maps = {f: _power(gen, phi_c[f]) for f in cat.morphism_ids}
    return cat, phi_c, induced_system(cat, modulus, {x: len(gen) for x in cat.objects}, maps), gen


def _cocycle(system, phi, n, gen, data):
    """w * carry(phi f, phi g) minus the coboundary of a random 1-cochain
    that vanishes on identities, w a multiple of a vector fixed by the
    generator: a normalized cocycle, nonzero on the multiples of the
    carry class whenever such a vector exists."""
    m, cat = system.modulus, system.category
    fixed = [v for v in iproduct(range(m), repeat=len(gen))
             if all(sum(a * x for a, x in zip(row, v)) % m == v[i] for i, row in enumerate(gen))]
    v = data.draw(st.sampled_from([v for v in fixed if any(v)] or fixed))
    c = data.draw(st.integers(1, m - 1))
    w = tuple(c * x % m for x in v)
    carry = {(f, g): w for (f, g) in cat.compose if phi[f] + phi[g] >= n and any(w)}
    fvals = {f: tuple(data.draw(st.integers(0, m - 1)) for _ in range(r))
             for f, r in zip(cat.morphism_ids, system.rank) if not cat.is_identity(f)}
    return cochain2_sub(system, Cochain2(carry), coboundary_of_1cochain(system, fvals))


@settings(max_examples=60, deadline=None)
@given(skeleton_cases(), st.data())
def test_skeleton_matches_full_complex(case, data):
    """H^1, H^2, split and equivalent computed on the skeleton agree with the
    whole category's complex.  k drops until the whole complex has at most
    2500 coordinates in degree 3, and extensions are built only while the
    total category stays small."""
    base, phi, n, twist, k, modulus, rank = case
    while True:
        cat, phi_c, system, gen = _pulled_back(base, phi, twist, k, modulus, rank)
        cx = bw_differentials(cat, system)
        if cx.dim[3] <= 2500 or k == 1:
            break
        k -= 1
    assume(cx.dim[3] <= 2500)
    event(f"skeleton {len(cx.skeleton.category.objects)} of {len(cat.objects)} objects")
    for degree in (1, 2):
        h = bw_cohomology(cat, system, degree, cx)
        assert (h.invariants, h.free_rank) == full_complex_cohomology(cat, system, degree)
    if modulus is None or len(cat.compose) * modulus ** (2 * len(gen)) > 5000:
        return
    d1, d2 = _cocycle(system, phi_c, n, gen, data), _cocycle(system, phi_c, n, gen, data)
    e1, e2 = build_extension(cat, system, d1), build_extension(cat, system, d2)
    split = full_complex_is_coboundary(cat, system, d1)
    event(f"split {split}")
    assert (is_split(e1) is not None) == split
    assert extensions_equivalent(e1, e2) == full_complex_is_coboundary(
        cat, system, cochain2_sub(system, d1, d2))


@st.composite
def cocycle_cases(draw):
    """C = B x Z/n for B from small_categories(), phi: C -> Z/n its
    projection, m in {2, 3, 4, 6}, and on C a trivial system of rank 1 or 2
    (n <= 3) or the system induced by a generator A of order n acting
    through phi, of rank 1 (the sign) or 2 (non-identity push)."""
    base = draw(small_categories())
    twist = draw(st.sampled_from([None, None] + sorted(ACTIONS)))
    n = ACTIONS[twist][0] if twist else draw(st.integers(1, 3))
    cat, _, proj = product_with_projections(base, one_object_group(*cyclic_group_table(n)).base)
    phi = {f: int(proj(f)) for f in cat.morphism_ids}
    modulus = draw(st.sampled_from([2, 3, 4, 6]))
    if twist is None:
        return cat, phi, n, trivial_system(cat, modulus, draw(st.integers(1, 2)))
    gen = ACTIONS[twist][1]
    maps = {f: _power(gen, phi[f]) for f in cat.morphism_ids}
    return cat, phi, n, induced_system(cat, modulus, {x: len(gen) for x in cat.objects}, maps)


def _case_cochains(case, data):
    """A random 1-cochain F and three 2-cochains on a cocycle case: the
    carry w * carry(phi f, phi g) for a random w, the coboundary d F and a
    random single-entry cochain."""
    cat, phi, n, system = case
    m, rank = system.modulus, labelled_system(system)[0]

    def vector(r):
        return tuple(data.draw(st.integers(0, m - 1)) for _ in range(r))

    fvals = {f: vector(rank[f]) for f in cat.morphism_ids}
    coboundary = coboundary_of_1cochain(system, fvals)
    w = vector(rank[cat.morphism_ids[0]])
    carry = Cochain2({(f, g): w for (f, g) in cat.compose if phi[f] + phi[g] >= n and any(w)})
    pair = data.draw(st.sampled_from(list(cat.compose)))
    single = Cochain2({pair: vector(rank[cat.compose[pair]])})
    return fvals, (carry, coboundary, single)


@settings(max_examples=60, deadline=None)
@given(cocycle_cases(), st.data())
def test_cocycle_test_and_coboundary_match_reference(case, data):
    """BWComplex.cocycle_defect, which reads d2's rows, names the reference's
    first failing triple (or None) on carry cochains w * carry(phi f, phi g)
    for a random w, on coboundaries of random 1-cochains and on random
    single-entry cochains; coboundary_of_1cochain, which reads d1's rows,
    equals the reference.  Complexes with more than 3000 coordinates in
    degree 3 are skipped to keep the reference fast."""
    cat, phi, n, system = case
    cx = bw_differentials(cat, system)
    assume(cx.dim[3] <= 3000)
    fvals, cochains = _case_cochains(case, data)
    assert cochains[1].entries == reference_coboundary(system, fvals).entries
    for delta in cochains:
        want = reference_cocycle_defect(system, delta)
        event("cocycle" if want is None else "not a cocycle")
        assert cx.cocycle_defect(delta) == (want and want[:3])


def _z2_case(rank):
    """Z/2 (the product of the terminal category with Z/2) with the trivial
    rank-r system over Z/3, as `cocycle_cases` draws it."""
    cat = one_object_group(*cyclic_group_table(2)).base
    return cat, {"0": 0, "1": 1}, 2, trivial_system(cat, 3, rank)


@settings(max_examples=40, deadline=None)
@given(cocycle_cases(), st.data())
@example(_z2_case(0), None)
@example(_z2_case(2), None)
def test_build_extension_matches_reference_cocycle_test(case, data):
    """On the same three cochains, build_extension, whose cocycle test is
    the associativity check of its total category, refuses a cochain that
    is not normalized (NotNormalized), succeeds exactly when the reference
    finds no triple with d2 nonzero, and otherwise raises NotACocycle
    naming the reference's first triple.  An accepted cocycle's total has
    the table that `extension_table_by_formula` computes on vectors, entry
    for entry and in table order: the formula's entries sorted by the
    positions of their two factors in `extension_description`'s morphism
    list.  Cases whose total has more than 20000 composites are skipped.
    The two explicit examples, trivial systems of rank 0 and 2 over Z/3 on
    Z/2, take the zero cochain and the cocycle (1, ..., 1) at (1, 1)."""
    cat, phi, n, system = case
    m, rank = system.modulus, labelled_system(system)[0]
    assume(sum(m ** (rank[f] + rank[g]) for f, g in cat.compose) <= 20000)
    if data is None:
        cochains = (Cochain2({}), Cochain2({("1", "1"): (1,) * rank["1"]}))
    else:
        cochains = _case_cochains(case, data)[1]
    for delta in cochains:
        want = reference_cocycle_defect(system, delta)
        if not is_normalized(system, delta):
            event("not normalized")
            with pytest.raises(NotNormalized):
                build_extension(cat, system, delta)
        elif want is None:
            event("cocycle")
            ext = build_extension(cat, system, delta)
            assert len(ext.total.morphisms) == sum(m ** rank[f] for f in cat.morphism_ids)
            described = extension_description(cat, system, delta)
            pos = {f["id"]: n for n, f in enumerate(described["morphisms"])}
            want = sorted((((g, f), h) for g, f, h in described["compose"]),
                          key=lambda entry: (pos[entry[0][0]], pos[entry[0][1]]))
            assert list(ext.total.compose.items()) == want
        else:
            event("not a cocycle")
            with pytest.raises(NotACocycle) as err:
                build_extension(cat, system, delta)
            assert str(err.value) == f"d(delta) != 0 at {want[:3]}"


@settings(max_examples=30, deadline=None)
@given(small_categories())
def test_category_serialization_roundtrip(cat):
    assert validate_category(serialize(cat)) == cat


@st.composite
def written_categories(draw):
    """A category of each kind the library writes: a small one, j(S) of a
    Hamming or cyclic scheme, a product of two small ones, or the total of
    a split extension of a small one."""
    kind = draw(st.sampled_from(["small", "j", "product", "extension"]))
    event(f"written: {kind}")
    if kind == "small":
        return draw(small_categories())
    if kind == "j":
        if draw(st.booleans()):
            return j_embed(hamming(draw(st.integers(1, 3)), 2)).category
        return j_embed(group_scheme(*cyclic_group_table(draw(st.integers(2, 5))))).category
    if kind == "product":
        a, b = draw(small_categories()), draw(small_categories())
        assume(len(a.morphisms) * len(b.morphisms) <= 200)
        return product(a, b)
    base = draw(small_categories())
    assume(len(base.morphisms) <= 12)
    system = trivial_system(base, draw(st.sampled_from([2, 3])), draw(st.integers(0, 1)))
    return build_extension(base, system, Cochain2({})).total


@settings(max_examples=60, deadline=None)
@given(written_categories())
def test_written_table_reads_back_the_category(cat):
    """The table `serialize` writes reads back into an equal category with
    the same entries, listed in the order of the table as the test's own
    decoder reads it, and writing that category again gives the same
    document."""
    raw = serialize(cat)
    back = validate_category(raw)
    assert back == cat
    assert sorted(back.entries()) == sorted(cat.entries())
    ids = back.morphism_ids
    assert [[ids[i], ids[j], ids[k]] for i, (j, k) in back.entries()] == labelled(raw)["compose"]
    assert serialize(back) == raw


SHAPE_TAMPERING = ("short", "long", "out of range", "true", "float", "string")


@st.composite
def tampered_writes(draw):
    """(kind, n, raw): the table `serialize` writes for a small category,
    tampered at entry n in one way: one entry short or long, a position
    out of range, a true, float or string entry (true and 1.0 put where
    the table holds 1 when it does), one composite redirected to a
    morphism with other endpoints, one of a pair of non-identities
    redirected to another parallel morphism, or the composite of f and
    the identity of src(f) redirected to another morphism parallel to f."""
    raw = serialize(draw(small_categories()))
    table, ids = raw["compose"], [m["id"] for m in raw["morphisms"]]
    ends = {m["id"]: (m["src"], m["tgt"]) for m in raw["morphisms"]}
    identities = set(raw["identities"].values())
    entries = labelled(raw)["compose"]
    kind = draw(st.sampled_from(SHAPE_TAMPERING + ("endpoints", "associativity", "unit law")))
    if kind in ("true", "float") and 1 in table:
        n = draw(st.sampled_from([n for n, k in enumerate(table) if k == 1]))
    elif kind == "associativity":
        n = draw(st.sampled_from([n for n, (f, g, _) in enumerate(entries)
                                  if f not in identities and g not in identities] or [None]))
    elif kind == "unit law":
        n = draw(st.sampled_from([n for n, (f, g, _) in enumerate(entries)
                                  if g in identities and f not in identities] or [None]))
    else:
        n = draw(st.integers(0, len(table) - 1))
    assume(n is not None)
    fg = entries[n][2]
    parallel = [k for k, m in enumerate(ids) if ends[m] == ends[fg] and m != fg]
    if kind == "short":
        assume(len(table) > 1)      # an empty array is a list of no label triples
        del table[n]
    elif kind == "long":
        table.insert(n, draw(st.integers(0, len(ids) - 1)))
    elif kind == "out of range":
        table[n] = draw(st.sampled_from([len(ids), len(ids) + 1, -1, -len(ids)]))
    elif kind == "true":
        table[n] = True
    elif kind == "float":
        table[n] = float(table[n])
    elif kind == "string":
        table[n] = fg
    elif kind == "endpoints":
        others = [k for k, m in enumerate(ids) if ends[m] != ends[fg]]
        assume(others)
        table[n] = draw(st.sampled_from(others))
    else:
        assume(parallel)
        table[n] = draw(st.sampled_from(parallel))
    return kind, n, raw


@settings(max_examples=400, deadline=None)
@given(tampered_writes())
def test_tampered_tables_are_refused_as_the_dense_oracle_reads_them(case):
    """A tampered table is refused with the error class of the dense
    oracle, which decodes the table on its own: a table that is not one
    integer in range per pair as a CategoryError naming the table, or the
    first bad entry, by its JSON path; a broken endpoint or unit law with
    the error and message of the full scan; broken associativity with a
    failing triple as its witness.  A redirect that keeps the laws gives
    the oracle's table."""
    kind, n, raw = case
    try:
        want = validate_category_dense(raw)
    except CategoryError as err:
        want = err
    try:
        got = validate_category(raw)
    except CategoryError as err:
        got = err
    event(f"{kind}: {type(want).__name__ if isinstance(want, CategoryError) else 'accepted'}")
    if kind in SHAPE_TAMPERING:
        assert type(got) is type(want) is CategoryError
        assert got.path == ("compose" if kind in ("short", "long") else f"compose[{n}]")
        return
    assert isinstance(want, {"endpoints": EndpointMismatch, "unit law": MissingIdentity,
                             "associativity": (NonAssociative, dict)}[kind])
    if isinstance(want, NonAssociative):
        assert type(got) is NonAssociative
        e, f, g, lhs, rhs = got.witness
        table = _completed_table(labelled(raw))
        assert table[(table[(e, f)], g)] == lhs != rhs == table[(e, table[(f, g)])]
    elif isinstance(want, CategoryError):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got.compose == want


@settings(max_examples=20, deadline=None)
@given(small_categories())
def test_partition_serialization_roundtrip(cat):
    qs = verify_quasi_schemoid(cat, discrete_partition(cat))
    raw = serialize_partition(qs.partition)
    assert partition_from_json(cat, raw) == qs.partition


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 2), st.integers(2, 3))
def test_scheme_serialization_roundtrip(n, q):
    s = hamming(n, q)
    assert scheme_from_json(serialize_scheme(s)) == s


@st.composite
def composition_tables(draw):
    """Raw category JSON on 1-3 objects and at most 8 morphisms, in a drawn
    order.  The unit laws hold by construction; every other composite is
    drawn from the hom-set it has to land in (and left out when that set is
    empty), so most tables are not associative."""
    objects = [f"x{i}" for i in range(draw(st.integers(1, 3)))]
    identity = {x: f"1_{x}" for x in objects}
    morphisms = [(e, x, x) for x, e in identity.items()]
    morphisms += [(f"m{i}", draw(st.sampled_from(objects)), draw(st.sampled_from(objects)))
                  for i in range(draw(st.integers(0, 8 - len(objects))))]
    morphisms = draw(st.permutations(morphisms))
    hom = {}
    for m, s, t in morphisms:
        hom.setdefault((s, t), []).append(m)
    compose = []
    for f, fs, ft in morphisms:
        for g, gs, gt in morphisms:
            if fs == gt and f[0] == g[0] == "m" and hom.get((gs, ft)):
                compose.append([f, g, draw(st.sampled_from(hom[(gs, ft)]))])
    return {"objects": objects, "identities": identity, "compose": compose,
            "morphisms": [{"id": m, "src": s, "tgt": t} for m, s, t in morphisms]}


@st.composite
def tampered_tables(draw):
    """A drawn table or a serialized small category, `tampered`."""
    return draw(tampered(draw(st.one_of(composition_tables(), composition_tables(),
                                        small_categories().map(serialize)))))


@st.composite
def tampered(draw, raw):
    """The raw description, its table decoded into label triples, left
    alone or with one entry dropped, redirected to any morphism, or added
    for any pair."""
    compose = [list(entry) for entry in labelled(raw)["compose"]]
    ids = [m["id"] for m in raw["morphisms"]]
    kind = draw(st.sampled_from(["none", "none", "drop", "redirect", "add"]))
    if kind == "drop" and compose:
        del compose[draw(st.integers(0, len(compose) - 1))]
    elif kind == "redirect" and compose:
        compose[draw(st.integers(0, len(compose) - 1))][2] = draw(st.sampled_from(ids))
    elif kind == "add":
        compose.append([draw(st.sampled_from(ids)) for _ in range(3)])
    return {**raw, "compose": compose}


def _completed_table(raw):
    src = {m["id"]: m["src"] for m in raw["morphisms"]}
    tgt = {m["id"]: m["tgt"] for m in raw["morphisms"]}
    table = {(f, g): fg for f, g, fg in raw["compose"]}
    for m in src:
        table.setdefault((m, raw["identities"][src[m]]), m)
        table.setdefault((raw["identities"][tgt[m]], m), m)
    return table


@settings(max_examples=400, deadline=None)
@given(tampered_tables())
def test_light_test_matches_dense_oracle(raw):
    """Light's test on a greedy generating set gives the verdict and the error
    class of the full triple scan, and its witness is a failing triple."""
    try:
        want = validate_category_dense(raw)
    except CategoryError as err:
        want = err
    try:
        got = validate_category(raw).compose
    except CategoryError as err:
        got = err
    event(type(want).__name__ if isinstance(want, CategoryError) else "accepted")
    if not isinstance(want, CategoryError):
        assert got == want
        return
    assert type(got) is type(want)
    if isinstance(got, NonAssociative):
        e, f, g, lhs, rhs = got.witness
        table = _completed_table(raw)
        assert table[(table[(e, f)], g)] == lhs != rhs == table[(e, table[(f, g)])]


@st.composite
def shuffled(draw, raw):
    """The raw description with its composition entries in a drawn order
    and, in about half the cases, without the entries the unit laws imply,
    which validation fills in.  A table is decoded into label triples
    first."""
    identities = set(raw["identities"].values())
    compose = draw(st.permutations(labelled(raw)["compose"]))
    if draw(st.booleans()):
        compose = [e for e in compose if e[0] not in identities and e[1] not in identities]
    return {**raw, "compose": compose}


@st.composite
def raw_categories(draw):
    """A small category as a raw description, `shuffled`: the entry list the
    oracles read."""
    return draw(shuffled(serialize(draw(small_categories()))))


@st.composite
def partitioned_categories(draw, categories=raw_categories()):
    """(raw, blocks): a raw category and a partition of its morphisms into
    at most four blocks, named in a drawn order; discrete in a quarter of
    the cases, so that the axiom holds, and drawn at random otherwise."""
    raw = draw(categories)
    ids = [m["id"] for m in raw["morphisms"]]
    if draw(st.integers(0, 3)) == 0:
        return raw, {f"B{m}": [m] for m in ids}
    k = draw(st.integers(1, 4))
    label = draw(st.lists(st.integers(0, k - 1), min_size=len(ids), max_size=len(ids)))
    order = draw(st.permutations(range(k)))
    blocks = {f"B{b}": [m for m, a in zip(ids, label) if a == b] for b in order}
    return raw, {name: members for name, members in blocks.items() if members}


@settings(max_examples=200, deadline=None)
@given(partitioned_categories())
def test_concatenation_count_matches_raw_entry_oracle(case):
    """The integer tally over the rows gives the constants, or the first
    failing block triple and its witness, that counting the raw entries gives."""
    raw, blocks = case
    cat = validate_category(raw)
    try:
        want = schemoid_constants_bruteforce(completed_entries(raw), blocks)
    except AxiomViolation as err:
        want = err
    try:
        got = check_concatenation(cat, make_partition(cat, blocks)).entries
    except AxiomViolation as err:
        got = err
    event("violation" if isinstance(want, AxiomViolation) else "accepted")
    if isinstance(want, AxiomViolation):
        assert isinstance(got, AxiomViolation) and got.witness == want.witness
    else:
        assert got == want


@st.composite
def partitioned_pair_groupoids(draw):
    """(raw, blocks): the pair groupoid on n = 1..6 objects or the s̃ of
    Z/n, both with one morphism in every hom-set, so that
    `check_concatenation` runs the intersection tally.  The morphism
    s -> t, i and j the positions of s and t, is labelled j - i mod n
    (the classes of Z/n) or its distance min(d, n - d), which hold the
    axiom, the same with one morphism moved to a drawn label, or by labels
    drawn at random, which mostly break it; blocks named in a drawn order."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        cat = s_tilde(one_object_group(*cyclic_group_table(n))).category
    else:
        points = [f"p{i}" for i in range(n)]
        cat = build_category(
            points, [(pair_name(t, s), s, t) for t in points for s in points],
            {x: pair_name(x, x) for x in points},
            [(pair_name(t, s), pair_name(s, r), pair_name(t, r))
             for t in points for s in points for r in points])
    position = {x: i for i, x in enumerate(cat.objects)}
    ids = sorted(cat.morphism_ids)
    kind = draw(st.sampled_from(["difference", "distance", "random"]))
    if kind == "random":
        label = dict(zip(ids, draw(st.lists(st.integers(0, 3), min_size=len(ids),
                                            max_size=len(ids)))))
    else:
        d = {m: (position[t] - position[s]) % n for m, s, t in cat.morphisms}
        label = {m: d[m] if kind == "difference" else min(d[m], n - d[m]) for m in ids}
        if draw(st.booleans()):
            label[draw(st.sampled_from(ids))] = draw(st.integers(0, n - 1))
    order = draw(st.permutations(sorted(set(label.values()))))
    blocks = {f"B{b}": [m for m in ids if label[m] == b] for b in order}
    return draw(shuffled(serialize(cat))), blocks


@settings(max_examples=300, deadline=None)
@given(partitioned_pair_groupoids())
def test_pair_groupoid_tally_matches_raw_entry_oracle(case):
    """On pair groupoids the intersection tally gives the constants, key
    for key and in the same order, or the AxiomViolation witness, that
    counting the raw entries gives."""
    raw, blocks = case
    cat = validate_category(raw)
    assert cat.thin and len(cat.morphisms) == len(cat.objects) ** 2
    try:
        want = list(schemoid_constants_bruteforce(completed_entries(raw), blocks).items())
    except AxiomViolation as err:
        want = err
    try:
        got = list(check_concatenation(cat, make_partition(cat, blocks)).entries.items())
    except AxiomViolation as err:
        got = err
    event("violation" if isinstance(want, AxiomViolation) else "accepted")
    if isinstance(want, AxiomViolation):
        assert isinstance(got, AxiomViolation) and got.witness == want.witness
    else:
        assert got == want


@settings(max_examples=200, deadline=None)
@given(partitioned_categories())
def test_condition_P_matches_raw_entry_oracle(case):
    """condition_P on the rows gives the verdict, and the first witness in
    table order, of the string-keyed scan of the raw entries put in table
    order (`table_entries`), however they were shuffled."""
    raw, blocks = case
    cat = validate_category(raw)
    partition = make_partition(cat, blocks)
    want = condition_P_bruteforce(table_entries(raw), partition.block_of)
    got = condition_P(QuasiSchemoid(cat, partition, StructureConstantTable({})))
    event("holds" if want[0] else want[1][0])
    assert got == want


@settings(max_examples=100, deadline=None)
@given(raw_categories())
def test_as_groupoid_matches_brute_inverse_search(raw):
    """as_groupoid finds, for every morphism, the inverse a search of the raw
    entries finds first, or names the first morphism without one."""
    cat = validate_category(raw)
    want = inverses_bruteforce(raw)
    missing = [f for f, g in want.items() if g is None]
    event("groupoid" if not missing else "not a groupoid")
    if missing:
        with pytest.raises(NotInvertible) as err:
            as_groupoid(cat)
        assert str(err.value) == f"morphism {missing[0]!r} has no inverse"
    else:
        assert as_groupoid(cat).inverse == want
    assert is_groupoid(cat) == (not missing)


@settings(max_examples=100, deadline=None)
@given(raw_categories())
def test_compose_view_is_the_raw_entries_and_unit_fills(raw):
    """The labelled view, built from the rows on first read, lists the raw
    entries, the first of any repeated pair, and the unit-law fills, in
    table order (`table_entries`), whatever order they were given in.  The
    table `serialize` writes holds the same pairs in the same order, and a
    category read back from it lists its entries in that order too."""
    cat = validate_category(raw)
    assert "compose" not in cat.__dict__
    view = cat.compose
    assert list(view.items()) == [((f, g), fg) for f, g, fg in table_entries(raw)]
    written = [((f, g), fg) for f, g, fg in labelled(serialize(cat))["compose"]]
    assert written == list(view.items())
    assert list(validate_category(serialize(cat)).compose.items()) == written
    assert cat.compose is view
    with pytest.raises(TypeError):
        view[next(iter(view))] = cat.morphism_ids[0]


@st.composite
def built_categories(draw):
    """(kind, category, raw): a category the library builds and the raw
    description whose completed entries it must list, in table order.  The
    factors are small categories read back from `shuffled` label lists; s̃
    takes a groupoid among them or Z/n; the extension totals are split (the zero cocycle of a
    trivial system) or not (the carry of Z/n over Z/m, gcd(n, m) > 1)."""
    kind = draw(st.sampled_from(["small", "product", "join", "opposite", "s_tilde", "split",
                                 "non-split"]))
    event(f"built: {kind}")

    def small():
        raw = draw(shuffled(serialize(draw(small_categories()))))
        return validate_category(raw), raw

    if kind == "small":
        return (kind, *small())
    if kind in ("product", "join"):
        (a, ra), (b, rb) = small(), small()
        assume(len(a.morphisms) * len(b.morphisms) <= 48)
        if kind == "product":
            return kind, product(a, b), product_description(ra, rb)
        return kind, join(a, b), join_description(ra, rb)
    if kind == "opposite":
        a, ra = small()
        return kind, opposite(a), opposite_description(ra)
    if kind == "s_tilde":
        a, ra = small()
        if not is_groupoid(a):
            ra = serialize(one_object_group(*cyclic_group_table(draw(st.integers(1, 4)))).base)
            a = validate_category(ra)
        return kind, s_tilde(as_groupoid(a)).category, s_tilde_description(ra)
    if kind == "split":
        base, _ = small()
        assume(len(base.morphisms) <= 12)
        system = trivial_system(base, draw(st.sampled_from([2, 3])), draw(st.integers(0, 1)))
        ext = build_extension(base, system, Cochain2({}))
        assert is_split(ext) is not None
        return kind, ext.total, extension_description(base, system, Cochain2({}))
    n, m = draw(st.sampled_from([(2, 2), (2, 4), (3, 3), (4, 2), (4, 4)]))
    base = one_object_group(*cyclic_group_table(n)).base
    system = trivial_system(base, m, 1)
    carry = Cochain2({(str(a), str(b)): (1,) for a in range(n) for b in range(n) if a + b >= n})
    ext = build_extension(base, system, carry)
    assert is_split(ext) is None
    return kind, ext.total, extension_description(base, system, carry)


@settings(max_examples=150, deadline=None)
@given(built_categories(), st.data())
def test_rows_entries_and_compose_match_the_construction_oracles(case, data):
    """Each row lists f∘g for g over into(src f), as the oracle reads the
    completed table by label; `entries()` and the `compose` view list the
    builder's entries and the unit-law fills in table order, not in the
    order the builder streamed them (`table_entries`); `comp` refuses a
    pair that does not compose with KeyError; and the written table reads
    back into an equal category that writes the same table."""
    kind, cat, raw = case
    want = table_entries(raw)
    ids = cat.morphism_ids
    assert [list(row) for row in cat.rows] == table_rows(raw)
    assert [(ids[i], ids[j], ids[k]) for i, (j, k) in cat.entries()] == want
    assert list(cat.compose.items()) == [((f, g), fg) for f, g, fg in want]
    apart = [(f, g) for f, s, _ in cat.morphisms for g, _, t in cat.morphisms if t != s]
    if apart:
        f, g = data.draw(st.sampled_from(apart))
        with pytest.raises(KeyError):
            cat.comp(f, g)
    written = serialize(cat)
    back = validate_category(written)
    assert back == cat and serialize(back) == written


def _coboundary_section(cat, m):
    """The section `is_split` finds for the extension of cat's trivial
    rank-1 system over Z/m by the coboundary d f, where f(x) is the
    position of x mod m and 0 at the identities, so that d f is normalized."""
    system = trivial_system(cat, m, 1)
    units = cat.identities()
    fvals = {f: (0 if f in units else n % m,) for n, f in enumerate(cat.morphism_ids)}
    ext = build_extension(cat, system, coboundary_of_1cochain(system, fvals))
    return is_split(ext).morphism_map


def assert_read_back_answers_alike(cat, partition):
    """cat and the category read back from its written table list the same
    entries and compose view in the same order, give the same condition_P
    result under `partition`, and, on at most 40 morphisms, the same
    coboundary sections over Z/2 and Z/3."""
    back = validate_category(serialize(cat))
    assert list(back.entries()) == list(cat.entries())
    assert list(back.compose.items()) == list(cat.compose.items())
    table = StructureConstantTable({})
    assert (condition_P(QuasiSchemoid(back, partition, table))
            == condition_P(QuasiSchemoid(cat, partition, table)))
    if len(cat.morphisms) <= 40:
        for m in (2, 3):
            assert _coboundary_section(back, m) == _coboundary_section(cat, m)


@pytest.mark.parametrize("name", [name for name, entry in corpus.ENTRIES.items()
                                  if entry.kind == "schemoid"])
def test_corpus_schemoids_and_their_read_backs_answer_alike(name):
    """Every corpus schemoid's category, built in code, answers as the same
    category read back from its bundle table does: one pair order."""
    qs = corpus.build(name)
    assert_read_back_answers_alike(qs.category, qs.partition)


@pytest.mark.parametrize("name, m", [("ex2_13_product", 3), ("ex7_11", 2), ("ex7_11", 3)])
def test_coboundary_sections_do_not_depend_on_how_the_base_was_built(name, m):
    """The cases where the built base and its read-back once gave different
    sections of the same coboundary extension."""
    cat = corpus.build(name).category
    assert _coboundary_section(validate_category(serialize(cat)), m) == _coboundary_section(cat, m)


def test_condition_P_witness_on_sc3_gs_z2_is_the_table_order_one():
    """sc3_gs_z2's condition_P witness, built in code or read back, is the
    first failure in table order, which is a pair of right factors; the
    built category once reported its given order's left factors."""
    qs = corpus.build("sc3_gs_z2")
    back = validate_category(serialize(qs.category))
    want = (False, ("two right factors", "phi_0_0_0", "phi_0_0_0", "phi_0_0_1", "phi_0_0_2"))
    assert condition_P(qs) == want
    assert condition_P(QuasiSchemoid(back, qs.partition, qs.constants)) == want


@settings(max_examples=100, deadline=None)
@given(built_categories(), st.data())
def test_built_categories_and_their_read_backs_answer_alike(case, data):
    """Each category the library builds, from shuffled labels, products,
    joins, opposites, s̃ or extension totals, answers as its read-back
    does, under a drawn partition into at most three blocks."""
    cat = case[1]
    label = data.draw(st.lists(st.integers(0, 2), min_size=len(cat.morphisms),
                               max_size=len(cat.morphisms)))
    blocks = {}
    for f, b in zip(cat.morphism_ids, label):
        blocks.setdefault(f"B{b}", []).append(f)
    assert_read_back_answers_alike(cat, make_partition(cat, blocks))


def thin_raw(n, related, order):
    """Raw description of the thin category on x0..x{n-1} with one morphism
    a{i}_{j}: x{i} -> x{j} exactly when (i, j) is in related, a reflexive
    and transitive relation; the morphisms are listed in the order given by
    the permutation `order` of the sorted pairs."""
    pairs = sorted(related)
    name = {(i, j): f"a{i}_{j}" for i, j in pairs}
    return {"objects": [f"x{i}" for i in range(n)],
            "morphisms": [{"id": name[pairs[p]], "src": f"x{pairs[p][0]}", "tgt": f"x{pairs[p][1]}"}
                          for p in order],
            "identities": {f"x{i}": name[(i, i)] for i in range(n)},
            "compose": [[name[(j, k)], name[(i, j)], name[(i, k)]]
                        for i, j in pairs for k in range(n) if (j, k) in name]}


@st.composite
def thin_categories(draw):
    """A thin category on at most five objects as a raw description,
    `shuffled`: a preorder, the reflexive and transitive closure of a drawn
    relation, or pair groupoids, one on each block of a drawn partition of
    the objects (one morphism between any two objects of a block)."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        drawn = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        related = {(i, i) for i in range(n)}.union(drawn)
        while (more := {(i, k) for i, j in related for j2, k in related if j == j2} - related):
            related |= more
        event("thin: preorder")
    else:
        label = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        related = {(i, j) for i in range(n) for j in range(n) if label[i] == label[j]}
        event("thin: pair groupoids")
    return draw(shuffled(thin_raw(n, related, draw(st.permutations(range(len(related)))))))


@settings(max_examples=300, deadline=None)
@given(thin_categories().flatmap(tampered))
def test_thin_validation_matches_dense_oracle(raw):
    """A thin table skips Light's generators and test, and still gets the
    verdict, the table and the error of the full triple scan; an accepted
    one picks its generators only when they are read, and they are those of
    the naive greedy closure."""
    try:
        want = validate_category_dense(raw)
    except CategoryError as err:
        want = err
    try:
        got = validate_category(raw)
    except CategoryError as err:
        got = err
    event(type(want).__name__ if isinstance(want, CategoryError) else "accepted")
    if isinstance(want, CategoryError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got.thin and "generators" not in got.__dict__
    assert got.compose == want
    assert got.generators == light_generators_greedy(raw)


@settings(max_examples=200, deadline=None)
@given(partitioned_categories(thin_categories()))
def test_condition_P_on_thin_categories_matches_raw_entry_oracle(case):
    """condition_P answers a thin category without a scan, and the answer
    is that of the string-keyed scan of the raw entries, under any partition."""
    raw, blocks = case
    cat = validate_category(raw)
    partition = make_partition(cat, blocks)
    want = condition_P_bruteforce(completed_entries(raw), partition.block_of)
    assert condition_P(QuasiSchemoid(cat, partition, StructureConstantTable({}))) == want


@st.composite
def thin_target_functors(draw):
    """(F, C, D) with D thin and C a small category or a thin one: F sends
    each object to an object of D, all to one in about half the cases, and
    each morphism to the one morphism of D between the images of its
    endpoints, reversed if F is contravariant.  Where that hom-set is empty,
    and for one drawn morphism in about half the cases, the image is any
    morphism of D, so that the endpoint checks fail.  C and D come as raw
    descriptions, `shuffled`."""
    d_raw = draw(thin_categories())
    d = validate_category(d_raw)
    c = draw(st.one_of(small_categories(), thin_categories().map(validate_category)))
    contravariant = draw(st.booleans())
    if draw(st.booleans()):
        omap = dict.fromkeys(c.objects, draw(st.sampled_from(d.objects)))
    else:
        omap = {x: draw(st.sampled_from(d.objects)) for x in c.objects}
    mmap = {}
    for m, s, t in c.morphisms:
        hom = d.hom(omap[t], omap[s]) if contravariant else d.hom(omap[s], omap[t])
        mmap[m] = hom[0] if hom else draw(st.sampled_from(d.morphism_ids))
    if draw(st.booleans()):
        mmap[draw(st.sampled_from(c.morphism_ids))] = draw(st.sampled_from(d.morphism_ids))
    return Functor(omap, mmap, contravariant), draw(shuffled(serialize(c))), d_raw


@settings(max_examples=300, deadline=None)
@given(thin_target_functors())
def test_functor_check_on_thin_targets_matches_dense_oracle(case):
    """Into a thin category the composition law is not checked, and the
    verdict and error are those of the check at every composable pair; a
    thin source never has its generators picked."""
    fun, c_raw, d_raw = case
    c, d = validate_category(c_raw), validate_category(d_raw)
    try:
        want = validate_functor_dense(fun, c_raw, d_raw)
    except CategoryError as err:
        want = err
    try:
        got = validate_functor(fun, c, d)
    except CategoryError as err:
        got = err
    event(str(want).split(" ", 1)[0] if isinstance(want, CategoryError) else "accepted")
    if isinstance(want, CategoryError):
        assert type(got) is type(want) is NotAFunctor and str(got) == str(want)
    else:
        assert got is fun
    assert not c.thin or "generators" not in c.__dict__


_SCHEMOIDS = {n: j_embed(hamming(n, 2)) for n in (2, 3)}


@st.composite
def functor_cases(draw):
    """(F, C, D) for an identity functor, the contravariant identity C ->
    C^op, the involution T of j(H(n,2)) or a projection of C × Z/k, with C
    drawn from small_categories(), j(H(2,2)) or j(H(3,2)).  About half the cases
    redirect the image of one non-identity morphism to another morphism with
    the same endpoints, so that only the composition law can fail.  C and D
    come as raw descriptions, `shuffled`."""
    n = draw(st.sampled_from([None, 2, 3]))
    cat = draw(small_categories()) if n is None else _SCHEMOIDS[n].category
    kind = draw(st.sampled_from(["identity", "opposite", "projection"]
                                + (["involution"] if n else [])))
    if kind == "identity":
        fun, c, d = identity_functor(cat), cat, cat
    elif kind == "opposite":
        ident = identity_functor(cat)
        fun = Functor(ident.object_map, ident.morphism_map, contravariant=True)
        c, d = cat, opposite(cat)
    elif kind == "involution":
        fun, c, d = _SCHEMOIDS[n].involution.functor, cat, cat
    else:
        group = one_object_group(*cyclic_group_table(draw(st.integers(1, 3)))).base
        c, p1, p2 = product_with_projections(cat, group)
        fun, d = draw(st.sampled_from([(p1, cat), (p2, group)]))
    event(kind + (" contravariant" if fun.contravariant else ""))
    omap, mmap = fun.object_map, dict(fun.morphism_map)
    swaps = []
    for m, s, t in c.morphisms:
        if not c.is_identity(m):
            s, t = (omap[t], omap[s]) if fun.contravariant else (omap[s], omap[t])
            swaps += [(m, other) for other in d.hom(s, t) if other != mmap[m]]
    if swaps and draw(st.booleans()):
        m, other = draw(st.sampled_from(swaps))
        mmap[m] = other
        fun = Functor(omap, mmap, fun.contravariant)
    return fun, draw(shuffled(serialize(c))), draw(shuffled(serialize(d)))


@settings(max_examples=200, deadline=None)
@given(functor_cases())
def test_functor_check_matches_dense_oracle(case):
    """The composition law checked at Light's generators gives the verdict
    and error class of the check at every composable pair, and its witness
    is a pair at which the law fails."""
    fun, c_raw, d_raw = case
    c, d = validate_category(c_raw), validate_category(d_raw)
    try:
        want = validate_functor_dense(fun, c_raw, d_raw)
    except CategoryError as err:
        want = err
    try:
        got = validate_functor(fun, c, d)
    except CategoryError as err:
        got = err
    event(type(want).__name__ if isinstance(want, CategoryError) else "accepted")
    if not isinstance(want, CategoryError):
        assert got is fun
        return
    assert type(got) is type(want) is NotAFunctor
    f, g, fg, expected = got.witness
    mmap = fun.morphism_map
    c_table, d_table = validate_category_dense(c_raw), validate_category_dense(d_raw)
    assert fg == mmap[c_table[(f, g)]]
    assert expected == (d_table[(mmap[g], mmap[f])] if fun.contravariant
                        else d_table[(mmap[f], mmap[g])])
    assert fg != expected


@st.composite
def perturbed_systems(draw):
    """On C from small_categories(), a trivial system of rank 1 or 2; or on
    C = B x Z/n, B from small_categories(), the system induced by a
    generator A of order n acting through the projection to Z/n.  Over
    Z/2, Z/3 or Z/4, with one or two entries of its push or pull matrices
    then set to a random residue."""
    cat = draw(small_categories())
    modulus = draw(st.sampled_from([2, 3, 4]))
    twist = draw(st.sampled_from([None, None] + sorted(ACTIONS)))
    if twist is None:
        system = trivial_system(cat, modulus, draw(st.integers(1, 2)))
    else:
        n, gen = ACTIONS[twist]
        cat, _, proj = product_with_projections(cat, one_object_group(*cyclic_group_table(n)).base)
        maps = {f: _power(gen, int(proj(f))) for f in cat.morphism_ids}
        system = induced_system(cat, modulus, {x: len(gen) for x in cat.objects}, maps)
    rank, push, pull = labelled_system(system)
    tables = {"push": {k: [list(row) for row in v] for k, v in push.items()},
              "pull": {k: [list(row) for row in v] for k, v in pull.items()}}
    for _ in range(draw(st.integers(1, 2))):
        table = tables[draw(st.sampled_from(sorted(tables)))]
        mat = table[draw(st.sampled_from(sorted(table)))]
        row = mat[draw(st.integers(0, len(mat) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(st.integers(0, modulus - 1))
    return cat, modulus, rank, tables["push"], tables["pull"]


@settings(max_examples=60, deadline=None)
@given(perturbed_systems())
def test_natural_system_check_matches_dense_oracle(case):
    """The push, pull and commutation laws checked at Light's generators
    accept exactly the systems the scan of every composable triple accepts,
    and the witness is a law the scan finds broken."""
    cat, modulus, rank, push, pull = case
    try:
        want = validate_natural_system_dense(cat, modulus, rank, push, pull)
    except FunctorialityViolated:
        want = False
    event("accepted" if want else "refused")
    try:
        validate_natural_system(cat, modulus, rank, push, pull)
    except FunctorialityViolated as err:
        assert not want
        assert err.witness in natural_law_failures(cat, modulus, rank, push, pull)
    else:
        assert want


@st.composite
def cyclic_functor_systems(draw):
    """On the one-object Z/n, n in {2, 3, 4, 6}, a rank-2 system over Z/3,
    Z/4 or Z/2 with push a -> A^phi(a) and pull b -> B^psi(b), A and B
    rank-2 generators from ACTIONS whose order divides n.  Mostly phi and
    psi are a -> c*a with c != 0, so push and pull are each functorial,
    and the system is natural exactly when the powers of A and B commute;
    sometimes one of them is any map with 0 -> 0, whose own law then fails
    as well."""
    n = draw(st.sampled_from([2, 3, 4, 6]))
    modulus = draw(st.sampled_from([3, 4, 2]))
    cat = one_object_group(*cyclic_group_table(n)).base
    actions = [a for a in sorted(ACTIONS) if a != "sign" and n % ACTIONS[a][0] == 0]

    def powers():
        order, gen = ACTIONS[draw(st.sampled_from(actions))]
        if draw(st.integers(0, 3)):
            c = draw(st.integers(1, order - 1))
            exponent = [c * a % order for a in range(n)]
        else:
            exponent = [0] + [draw(st.integers(0, order - 1)) for _ in range(n - 1)]
        return [_power(gen, e) for e in exponent]

    push_at, pull_at = powers(), powers()
    ids = cat.morphism_ids
    push = {(a, f): push_at[int(a)] for a in ids for f in ids}
    pull = {(f, b): pull_at[int(b)] for f in ids for b in ids}
    return cat, modulus, dict.fromkeys(ids, 2), push, pull


@settings(max_examples=80, deadline=None)
@given(cyclic_functor_systems())
def test_natural_system_check_matches_dense_oracle_on_functor_pairs(case):
    """Push and pull drawn as two functors on Z/n, sometimes not
    commuting and sometimes not functors: the check at Light's generators
    accepts exactly what the scan of every triple accepts, and its witness
    is a law the scan finds broken."""
    cat, modulus, rank, push, pull = case
    failures = natural_law_failures(cat, modulus, rank, push, pull)
    event(f"refused, first by the {failures[0][0]} law" if failures else "accepted")
    try:
        validate_natural_system(cat, modulus, rank, push, pull)
    except FunctorialityViolated as err:
        assert err.witness in failures
        with pytest.raises(FunctorialityViolated):
            validate_natural_system_dense(cat, modulus, rank, push, pull)
    else:
        assert not failures and validate_natural_system_dense(cat, modulus, rank, push, pull)
