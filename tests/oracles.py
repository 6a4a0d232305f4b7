"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written against the raw data (pair
matrices, Cayley tables, explicit enumeration) and never calls the code
paths it is meant to check.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod


def intersection_numbers_bruteforce(rel):
    """p^g_{ef} tables from a relation matrix by counting over all pairs.

    Returns dict[(e, f, g)] -> count (indices), raising if non-constant.
    """
    n = len(rel)
    classes = sorted({x for row in rel for x in row})
    out = {}
    for e in classes:
        for f in classes:
            for g in classes:
                values = set()
                for x in range(n):
                    for z in range(n):
                        if rel[x][z] != g:
                            continue
                        values.add(sum(1 for y in range(n) if rel[x][y] == e and rel[y][z] == f))
                if len(values) > 1:
                    raise AssertionError(f"non-constant p^{g}_{{{e},{f}}}: {values}")
                if values:
                    v = values.pop()
                    if v:
                        out[(e, f, g)] = v
    return out


def schemoid_constants_bruteforce(entries, blocks):
    """Structure constants by enumerating every composable pair, given as
    the entries (f, g, f∘g) of a completed table (`completed_entries`).

    `blocks` maps each block name to its members, in the partition's order.
    Returns the nonzero constants {(σ, τ, μ): p}; when a count is not
    constant along μ, raises AxiomViolation at the first (σ, τ, μ) in block
    order, naming the first member of μ by label and the first that differs.
    """
    from schemoids.schemoid import AxiomViolation

    block_of = {m: b for b, members in blocks.items() for m in members}
    tallies = {}
    for f, g, h in entries:
        key = (block_of[f], block_of[g], h)
        tallies[key] = tallies.get(key, 0) + 1
    out = {}
    for sigma in blocks:
        for tau in blocks:
            for mu, members in blocks.items():
                counts = [(h, tallies.get((sigma, tau, h), 0)) for h in sorted(members)]
                if not any(c for _, c in counts):
                    continue
                h1, c1 = counts[0]
                for h, c in counts[1:]:
                    if c != c1:
                        raise AxiomViolation(sigma, tau, mu, h1, c1, h, c)
                out[(sigma, tau, mu)] = c1
    return out


def condition_P_bruteforce(entries, block_of):
    """Condition P by the string-keyed scan of the entries (f, g, f∘g) of a
    completed table, in their order: (True, None), or (False, witness) at
    the first entry whose in-block solution differs from one seen before."""
    g_solutions, f_solutions = {}, {}
    for f, g, h in entries:
        other = g_solutions.setdefault((f, h, block_of[g]), g)
        if other != g:
            return False, ("two right factors", f, h, other, g)
        other = f_solutions.setdefault((g, h, block_of[f]), f)
        if other != f:
            return False, ("two left factors", g, h, other, f)
    return True, None


def inverses_bruteforce(raw):
    """f -> the first g in morphism order with f∘g and g∘f identities, or
    None when f has none; read from the raw description's entries."""
    table = validate_category_dense(raw)
    src = {m["id"]: m["src"] for m in raw["morphisms"]}
    tgt = {m["id"]: m["tgt"] for m in raw["morphisms"]}
    identity = raw["identities"]
    return {f: next((g for g in src if table.get((f, g)) == identity[tgt[f]]
                     and table.get((g, f)) == identity[src[f]]), None)
            for f in src}


def completed_entries(raw):
    """The entries (f, g, f∘g) of a raw description in the order given, the
    first of any repeated pair kept, followed by the unit-law fills: every
    composable pair once, read from the raw list by `validate_category_dense`."""
    return [(f, g, fg) for (f, g), fg in validate_category_dense(raw).items()]


def table_entries(raw):
    """The entries (f, g, f∘g) of a raw description in table order: f over
    the morphisms in the order given and, for each f, g over the morphisms
    with tgt(g) = src(f) in the same order, f∘g read by label from the
    table `validate_category_dense` completes.  The reference for the order
    of schemoids.fincat.FinCategory.entries, however the category was built."""
    table = validate_category_dense(raw)
    morphisms = [m["id"] for m in raw["morphisms"]]
    tgt = {m["id"]: m["tgt"] for m in raw["morphisms"]}
    return [(f["id"], g, table[(f["id"], g)]) for f in raw["morphisms"]
            for g in morphisms if tgt[g] == f["src"]]


def table_rows(raw):
    """For each morphism f in the order given, the positions of f∘g for g
    over the morphisms with tgt(g) = src(f) in the order given, read by
    label from the completed table: the reference for
    schemoids.fincat.FinCategory.rows."""
    table = validate_category_dense(raw)
    morphisms = raw["morphisms"]
    pos = {m["id"]: i for i, m in enumerate(morphisms)}
    return [[pos[table[(f["id"], g["id"])]] for g in morphisms if g["tgt"] == f["src"]]
            for f in morphisms]


def _description(objects, morphisms, identities, compose):
    return {"objects": list(objects),
            "morphisms": [{"id": m, "src": s, "tgt": t} for m, s, t in morphisms],
            "identities": dict(identities), "compose": [list(e) for e in compose]}


def product_description(a, b):
    """The raw description of the product of two raw descriptions, as
    schemoids.fincat.product builds it: objects (x, y) and morphisms (f, g),
    a's outer, named by `pair_name`, and the entries ((f1, f2), (g1, g2),
    (h1, h2)) for (f1, g1, h1) over a's completed entries, then (f2, g2,
    h2) over b's, in those orders."""
    from schemoids.fincat import pair_name
    ea, eb = completed_entries(a), completed_entries(b)
    return _description(
        [pair_name(x, y) for x in a["objects"] for y in b["objects"]],
        [(pair_name(f["id"], g["id"]), pair_name(f["src"], g["src"]), pair_name(f["tgt"], g["tgt"]))
         for f in a["morphisms"] for g in b["morphisms"]],
        {pair_name(x, y): pair_name(a["identities"][x], b["identities"][y])
         for x in a["objects"] for y in b["objects"]},
        [(pair_name(f1, f2), pair_name(g1, g2), pair_name(h1, h2))
         for f1, g1, h1 in ea for f2, g2, h2 in eb])


def join_description(a, b):
    """The raw description of the join a∗b, as schemoids.fincat.join builds
    it: a's and b's parts prefixed "L." and "R.", a's completed entries,
    then b's, then for each x of a and y of b the connector w[x,y]: x -> y,
    named by `connector_name`, with β∘w[x,y] = w[x,t] for each β: y -> t
    of b, then w[x,y]∘α = w[s,y] for each α: s -> x of a."""
    from schemoids.fincat import connector_name
    objects, morphisms, identities, compose = [], [], {}, []
    for tag, r in (("L.", a), ("R.", b)):
        objects += [tag + x for x in r["objects"]]
        morphisms += [(tag + m["id"], tag + m["src"], tag + m["tgt"]) for m in r["morphisms"]]
        identities.update({tag + x: tag + e for x, e in r["identities"].items()})
        compose += [(tag + f, tag + g, tag + h) for f, g, h in completed_entries(r)]
    w = {(x, y): connector_name(x, y) for x in a["objects"] for y in b["objects"]}
    morphisms += [(name, "L." + x, "R." + y) for (x, y), name in w.items()]
    for x, y in w:
        compose += [("R." + m["id"], w[(x, y)], w[(x, m["tgt"])])
                    for m in b["morphisms"] if m["src"] == y]
        compose += [(w[(x, y)], "L." + m["id"], w[(m["src"], y)])
                    for m in a["morphisms"] if m["tgt"] == x]
    return _description(objects, morphisms, identities, compose)


def opposite_description(a):
    """The raw description of the opposite of a, as
    schemoids.fincat.opposite builds it: each morphism reversed, and (g, f,
    f∘g) for each (f, g, f∘g) of a's completed entries, in that order."""
    return _description(a["objects"], [(m["id"], m["tgt"], m["src"]) for m in a["morphisms"]],
                      a["identities"], [(g, f, h) for f, g, h in completed_entries(a)])


def full_subcategory_description(a, objects):
    """The raw description of the full subcategory of a on some objects:
    those objects and the morphisms between them, in a's order, and the
    entries of a's completed table whose two factors are both among them."""
    keep = set(objects)
    morphisms = [(m["id"], m["src"], m["tgt"]) for m in a["morphisms"]
                 if m["src"] in keep and m["tgt"] in keep]
    ids = {m for m, _, _ in morphisms}
    return _description([x for x in a["objects"] if x in keep], morphisms,
                        {x: e for x, e in a["identities"].items() if x in keep},
                        [(f, g, h) for f, g, h in completed_entries(a) if f in ids and g in ids])


def s_tilde_description(a):
    """The raw description of the category of s̃ of a groupoid with raw
    description a, as the label stream schemoids.bridges.s_tilde once
    built: objects a's morphisms; for the morphisms grouped by target, the
    groups in order of first target, a morphism (k, l): l -> k named
    `pair_name`(k, l) for k, then l, in the group; the entries
    (k, m)∘(m, l) = (k, l) for k, m, l in the group, in that order."""
    from schemoids.fincat import pair_name
    groups = {}
    for m in a["morphisms"]:
        groups.setdefault(m["tgt"], []).append(m["id"])
    return _description(
        [m["id"] for m in a["morphisms"]],
        [(pair_name(k, l), l, k) for g in groups.values() for k in g for l in g],
        {m["id"]: pair_name(m["id"], m["id"]) for m in a["morphisms"]},
        [(pair_name(k, m), pair_name(m, l), pair_name(k, l))
         for g in groups.values() for k in g for m in g for l in g])


def extension_description(cat, system, delta):
    """The raw description of the total of the extension of cat by delta:
    objects those of cat, the fiber over each morphism f, in morphism
    order, named f|a for a in D_f in lexicographic order, 1_x|0 the
    identities, and the entries of `extension_table_by_formula`."""
    m, rank = system.modulus, labelled_system(system)[0]

    def name(f, vec):
        return f"{f}|{'.'.join(str(x) for x in vec)}"

    return _description(
        cat.objects,
        [(name(f, v), s, t) for f, s, t in cat.morphisms for v in product(range(m), repeat=rank[f])],
        {x: name(e, (0,) * rank[e]) for x, e in cat.identity.items()},
        [(g, f, h) for (g, f), h in extension_table_by_formula(cat, system, delta)])


def mat_mul_int(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            if a[i][t]:
                for j in range(m):
                    out[i][j] += a[i][t] * b[t][j]
    return out


def hamming_distance_matrix(n, q):
    words = ["".join(str(c) for c in w) for w in product(range(q), repeat=n)]
    return [[sum(1 for a, b in zip(u, v) if a != b) for v in words] for u in words]


def bar_complex_group_cohomology(elements, table, modulus, degree, rank=1):
    """H^degree(G; (Z/m)^rank), trivial action, via the inhomogeneous bar complex.

    Assembled from scratch: cochains are tuples over G^degree, and the
    differential is the standard alternating sum.  Returns the invariant
    factors (list of ints > 1) of the cohomology group.
    """
    els = list(elements)
    mul = lambda a, b: table[(a, b)]

    def tuples(k):
        return list(product(els, repeat=k))

    def delta_matrix(k):
        # rows: (k+1)-tuples x rank, cols: k-tuples x rank
        dom = tuples(k)
        cod = tuples(k + 1)
        dom_index = {t: i for i, t in enumerate(dom)}
        mat = [[0] * (len(dom) * rank) for _ in range(len(cod) * rank)]
        for r, tup in enumerate(cod):
            def add(src_tuple, coeff):
                c = dom_index[src_tuple]
                for j in range(rank):
                    mat[r * rank + j][c * rank + j] += coeff
            add(tup[1:], 1)  # trivial action
            for i in range(1, k + 1):
                merged = tup[:i - 1] + (mul(tup[i - 1], tup[i]),) + tup[i + 1:]
                add(merged, (-1) ** i)
            add(tup[:-1], (-1) ** (k + 1))
        return mat

    d_n = delta_matrix(degree)
    d_prev = delta_matrix(degree - 1)
    ker = kernel_lattice_mod(d_n, modulus)
    n_cols = len(d_prev)
    gens = [[d_prev[i][j] for j in range(len(d_prev[0]))] for i in range(n_cols)]
    mI = [[modulus if i == j else 0 for j in range(n_cols)] for i in range(n_cols)]
    stacked = [gens[i] + mI[i] for i in range(n_cols)]
    return quotient_invariants(ker, stacked)


# Dense Smith-form route over Z, kept here only as the reference for the
# sparse local elimination of schemoids.linalg: ker / im over Z/m for
# `homology` and one solution mod m for `solve`.  The package itself has no
# Smith form.

def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(a):
    """Return (d, u, v) with u @ a @ v = d diagonal, d_i | d_{i+1}.

    u and v are unimodular.  Pivots are chosen of minimal absolute value to
    keep entry growth in check; fine at the matrix sizes used here.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [row[:] for row in a]
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        drow, srow = d[dst], d[src]
        for j in range(cols):
            drow[j] += c * srow[j]
        urow, usrc = u[dst], u[src]
        for j in range(rows):
            urow[j] += c * usrc[j]

    def add_col(src, dst, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # locate minimal nonzero entry in the remaining block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(d[i][j])
                if x and (best is None or x < best):
                    best = x
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        swap_rows(t, pi)
        swap_cols(t, pj)
        # clear column and row t; restart if a reduction leaves a remainder
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t]:
                q = d[i][t] // d[t][t]
                add_row(t, i, -q)
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j]:
                q = d[t][j] // d[t][t]
                add_col(t, j, -q)
                if d[t][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility: pull any nondividing entry into the pivot position
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        if d[t][t] < 0:
            negate_row(t)
        t += 1
    return d, u, v


def kernel_lattice_mod(a, m):
    """Basis (as columns) of the lattice {x in Z^n : a @ x = 0 mod m}.

    Always full rank n since it contains m Z^n.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d, _, v = smith_normal_form(a)
    scale = []
    for j in range(cols):
        dj = d[j][j] if j < rows else 0
        scale.append(m // gcd(dj, m))
    return [[v[i][j] * scale[j] for j in range(cols)] for i in range(cols)]


def quotient_invariants(k, gens):
    """Invariant factors (>1) of lattice(k) / lattice(gens), gens ⊆ k.

    k is a full-rank n x n column basis; gens an n x s column span lying
    inside it and of finite index (our callers include m*I among gens).
    """
    coeff = _solve_fraction_matrix(k, gens)
    d, _, _ = smith_normal_form([[int(x) for x in row] for row in coeff])
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    return [x for x in diag if x not in (0, 1)]


def _solve_fraction_matrix(k, rhs):
    """Solve k @ x = rhs exactly; every entry of x must come out integral."""
    n = len(k)
    s = len(rhs[0]) if rhs else 0
    aug = [[Fraction(k[i][j]) for j in range(n)] + [Fraction(rhs[i][j]) for j in range(s)]
           for i in range(n)]
    # Gauss-Jordan with exact pivots
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("kernel basis is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    sol = [[aug[i][n + j] for j in range(s)] for i in range(n)]
    for row in sol:
        for x in row:
            if x.denominator != 1:
                raise ValueError("generators do not lie in the lattice")
    return sol


def dense_cohomology_invariants(d_prev, d_n, dim_n, modulus):
    """Invariant factors (>1) of ker d_n / im d_prev over Z/m, d_prev and d_n
    dense integer matrices: the Smith-form lattice route."""
    ker = kernel_lattice_mod(d_n, modulus)
    cols = len(d_prev[0]) if d_prev else 0
    gens = [[d_prev[i][j] for j in range(cols)] + [modulus if i == j else 0 for j in range(dim_n)]
            for i in range(dim_n)]
    return quotient_invariants(ker, gens)


def solve_mod(a, b, m):
    """One solution x of a @ x = b (mod m), or None: the dense Smith-form
    route, kept as the reference for the sparse schemoids.linalg.solve."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d, u, v = smith_normal_form(a)
    c = [sum(uij * bj for uij, bj in zip(row, b)) for row in u]
    y = [0] * cols
    for i in range(rows):
        di = d[i][i] if i < cols else 0
        ci = c[i] % m
        g = gcd(di, m)
        if ci % g:
            return None
        if i < cols and g != m:
            mg = m // g
            y[i] = (ci // g) * pow((di // g) % mg, -1, mg) % mg
    return [sum(vij * yj for vij, yj in zip(row, y)) % m for row in v]


def span_dimension_fractions(vectors):
    """Rank of a list of integer/Fraction vectors, exact elimination."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def matrix_algebra_closure_dim(generators):
    """Dimension over Q of the algebra generated by the n x n integer matrices given.

    Independent Terwilliger oracle: works directly with matrix products.
    The flattened basis matrices are kept as integer rows in reduced
    echelon form up to scaling (each row divided by its content, zero in
    every other pivot column), which spans over Q what the Fraction rows
    would span, so a candidate costs one fraction-free reduction.  Each
    basis matrix is multiplied on both sides with itself and every earlier
    one, once, which covers every product of two basis matrices.
    """
    echelon = {}          # pivot column -> reduced flattened integer row
    basis = []

    def scaled(v):
        g = gcd(*v)
        return [x // g for x in v] if g > 1 else v

    def add(mat):
        v = [x for row in mat for x in row]
        for piv, row in echelon.items():
            c = v[piv]
            if c:
                a = row[piv]
                v = [a * x - c * y for x, y in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            return
        v = scaled(v)
        for piv, row in echelon.items():
            c = row[lead]
            if c:
                echelon[piv] = scaled([v[lead] * x - c * y for x, y in zip(row, v)])
        echelon[lead] = v
        basis.append(mat)

    for g in generators:
        add(g)
    i = 0
    while i < len(basis):
        a = basis[i]
        for b in basis[:i + 1]:
            add(mat_mul_int(a, b))
            add(mat_mul_int(b, a))
        i += 1
    return len(basis)


def assert_associative_dense(basis, tensor, ring):
    """Dense associativity check of a structure-constant tensor, one
    (sigma, tau, rho, nu) at a time in basis order:

        sum_mu c^mu_{sigma tau} c^nu_{mu rho} = sum_mu c^mu_{tau rho} c^nu_{sigma mu}.

    tensor maps (sigma, tau, mu) to c^mu_{sigma tau}, a missing key being
    zero; ring is Q or F_p (ring.p).  Raises AlgebraError naming the first
    failing quadruple.
    """
    from schemoids.algebra import AlgebraError

    p = getattr(ring, "p", None)
    # c[s][t] maps mu to c^mu_{st}, all by basis position; a term with a
    # zero factor adds nothing, so each sum runs over its first factor's mu
    pos = {b: i for i, b in enumerate(basis)}
    c = [[{} for _ in basis] for _ in basis]
    for (s, t, m), x in tensor.items():
        if x:
            c[pos[s]][pos[t]][pos[m]] = x
    n = range(len(basis))
    for sigma in n:
        for tau in n:
            st = c[sigma][tau].items()
            for rho in n:
                tr = c[tau][rho].items()
                for nu in n:
                    lhs = sum(x * c[mu][rho].get(nu, 0) for mu, x in st)
                    rhs = sum(x * c[sigma][mu].get(nu, 0) for mu, x in tr)
                    diff = lhs - rhs
                    if (diff % p if p else diff) != 0:
                        raise AlgebraError(f"tensor not associative at ({basis[sigma]}, "
                                           f"{basis[tau]}, {basis[rho]}, {basis[nu]})")


def check_algebra_hom_fractions(amap, a, b):
    """f(xy) = f(x)f(y) on all basis pairs; unit to unit when both unital.

    Returns (True, None) or (False, witness pair).  The reference for the
    fraction-free schemoids.algebra.check_algebra_hom: it applies the map's
    own coefficients, Fractions over Q, to the products of basis elements
    and of their images, with no common denominator cleared.
    """
    one = a.ring.one
    image = {sigma: amap.apply({sigma: one}) for sigma in a.basis}
    for sigma in a.basis:
        for tau in a.basis:
            lhs = amap.apply(a.multiply({sigma: one}, {tau: one}))
            if lhs != b.multiply(image[sigma], image[tau]):
                return False, (sigma, tau)
    if a.unital and b.unital:
        if amap.apply(a.unit) != b.unit:
            return False, ("unit", "unit")
    return True, None


def labelled(raw):
    """raw with its "compose" as a list of [f, g, fg] label triples.  A
    table of positions, as schemoids.fincat.serialize writes it (a
    "compose" whose first entry is no array), is decoded here on its own:
    the composable pairs are (f, g) for f over the morphisms in the order
    given and, for each f, g over the morphisms with tgt(g) = src(f) in
    the same order; the table holds one entry per pair, the position of
    f∘g among the morphisms.  A table that is not one integer in range
    per pair (a boolean is no integer) is refused as a CategoryError; a
    list of triples is returned as it is."""
    from schemoids.fincat import CategoryError

    table = raw["compose"]
    if not table or isinstance(table[0], list):
        return raw
    ids = [m["id"] for m in raw["morphisms"]]
    pairs = [(f["id"], g["id"]) for f in raw["morphisms"] for g in raw["morphisms"]
             if g["tgt"] == f["src"]]
    if len(table) != len(pairs):
        raise CategoryError(f"compose: {len(pairs)} positions expected, not {len(table)}")
    for n, k in enumerate(table):
        if type(k) is not int or not 0 <= k < len(ids):
            raise CategoryError(f"compose[{n}]: no position of a morphism: {k!r}")
    return {**raw, "compose": [[f, g, ids[k]] for (f, g), k in zip(pairs, table)]}


def validate_category_dense(raw):
    """Category laws by the full scan: totality over all M² pairs of
    morphisms, associativity over every composable triple (g, f, e) in
    morphism order.  The reference for Light's test in
    schemoids.fincat.validate_category; same raw format, same error classes,
    returns the completed composition table.  A table of positions is
    read through `labelled`."""
    from schemoids.fincat import (CategoryError, EndpointMismatch, MissingIdentity,
                                  NonAssociative, UndefinedComposite)

    objects = tuple(str(x) for x in raw["objects"])
    if len(set(objects)) != len(objects):
        raise CategoryError("duplicate object ids")
    morphisms = tuple((str(m["id"]), str(m["src"]), str(m["tgt"])) for m in raw["morphisms"])
    mor_ids = [m for m, _, _ in morphisms]
    if len(set(mor_ids)) != len(mor_ids):
        raise CategoryError("duplicate morphism ids")
    obj_set = set(objects)
    for m, s, t in morphisms:
        if s not in obj_set or t not in obj_set:
            raise EndpointMismatch(f"morphism {m!r} has unknown endpoint")
    src = {m: s for m, s, _ in morphisms}
    tgt = {m: t for m, _, t in morphisms}

    identity = {str(k): str(v) for k, v in raw["identities"].items()}
    for x in objects:
        e = identity.get(x)
        if e is None or e not in src:
            raise MissingIdentity(f"object {x!r} has no identity morphism")
        if src[e] != x or tgt[e] != x:
            raise MissingIdentity(f"identity of {x!r} must be an endomorphism of {x!r}")
    for x in identity:
        if x not in obj_set:
            raise CategoryError(f"identities: {x!r} is not an object")

    compose = {}
    for f, g, fg in labelled(raw)["compose"]:
        f, g, fg = str(f), str(g), str(fg)
        if f not in src or g not in src or fg not in src:
            raise UndefinedComposite(f"composition entry ({f!r}, {g!r}, {fg!r}) names unknown morphisms")
        if (f, g) in compose and compose[(f, g)] != fg:
            raise UndefinedComposite(f"conflicting entries for ({f!r}, {g!r})")
        compose[(f, g)] = fg
    for m in src:
        compose.setdefault((m, identity[src[m]]), m)
        compose.setdefault((identity[tgt[m]], m), m)

    for f in src:
        for g in src:
            if src[f] != tgt[g]:
                if (f, g) in compose:
                    raise EndpointMismatch(f"({f!r}, {g!r}) composed but src({f!r}) != tgt({g!r})")
                continue
            fg = compose.get((f, g))
            if fg is None:
                raise UndefinedComposite(f"no composite for ({f!r}, {g!r})")
            if src[fg] != src[g] or tgt[fg] != tgt[f]:
                raise EndpointMismatch(f"composite {fg!r} of ({f!r}, {g!r}) has wrong endpoints")
    for m in src:
        if compose[(m, identity[src[m]])] != m or compose[(identity[tgt[m]], m)] != m:
            raise MissingIdentity(f"unit law fails at {m!r}")
    for g in src:
        for f in src:
            if src[f] != tgt[g]:
                continue
            fg = compose[(f, g)]
            for e in src:
                if src[e] != tgt[f]:
                    continue
                lhs = compose[(compose[(e, f)], g)]
                rhs = compose[(e, fg)]
                if lhs != rhs:
                    raise NonAssociative(e, f, g, lhs, rhs)
    return compose


def light_generators_greedy(raw):
    """Light's generating set of a valid raw description by the greedy rule
    read naively: walk the morphisms in the order given and keep each one
    that the composition closure of the identities and the morphisms kept
    before it misses, the closure recomputed from all composable pairs
    after every pick.  The reference for schemoids.fincat's `generators`."""
    table = validate_category_dense(raw)

    def closure(members):
        while True:
            new = {fg for (f, g), fg in table.items() if f in members and g in members} - members
            if not new:
                return members
            members = members | new

    members = closure({str(e) for e in raw["identities"].values()})
    generators = []
    for m in (str(m["id"]) for m in raw["morphisms"]):
        if m not in members:
            generators.append(m)
            members = closure(members | {m})
    return tuple(generators)


def validate_functor_dense(fun, c_raw, d_raw):
    """Functor laws by the full scan on raw descriptions: the composition
    law at every composable pair of C, read from the completed entries.
    The reference for the generator check in
    schemoids.fincat.validate_functor; same error class, no witness."""
    return _functor_laws_dense(fun, _described(c_raw), _described(d_raw))


def _described(raw):
    """Objects, identities, sources, targets and the completed composition
    table of a raw description."""
    return (raw["objects"], raw["identities"],
            {m["id"]: m["src"] for m in raw["morphisms"]},
            {m["id"]: m["tgt"] for m in raw["morphisms"]},
            validate_category_dense(raw))


def _functor_laws_dense(fun, c, d):
    from schemoids.fincat import NotAFunctor

    omap, mmap = fun.object_map, fun.morphism_map
    c_objects, c_identity, c_src, c_tgt, c_compose = c
    d_objects, d_identity, d_src, d_tgt, d_compose = d
    for x in c_objects:
        if omap.get(x) not in d_objects:
            raise NotAFunctor(f"object {x!r} unmapped or mapped outside the target")
        if mmap.get(c_identity[x]) != d_identity[omap[x]]:
            raise NotAFunctor(f"identity of {x!r} not preserved")
    for m in c_src:
        img = mmap.get(m)
        if img is None or img not in d_src:
            raise NotAFunctor(f"morphism {m!r} unmapped or mapped outside the target")
        s, t = c_src[m], c_tgt[m]
        if fun.contravariant:
            if d_src[img] != omap[t] or d_tgt[img] != omap[s]:
                raise NotAFunctor(f"endpoints of {m!r} not reversed correctly")
        else:
            if d_src[img] != omap[s] or d_tgt[img] != omap[t]:
                raise NotAFunctor(f"endpoints of {m!r} not preserved")
    for (f, g), fg in c_compose.items():
        if fun.contravariant:
            expected = d_compose[(mmap[g], mmap[f])]
        else:
            expected = d_compose[(mmap[f], mmap[g])]
        if mmap[fg] != expected:
            raise NotAFunctor(f"composition not preserved at ({f!r}, {g!r})")
    return fun


# Fraction route for the algebras over a field, kept as the reference for the
# integer elimination of schemoids.algebra (linalg._Echelon and its back
# substitution).

class ReducedEchelon:
    """Fully reduced echelon basis over Q (Fraction entries, p None) or F_p,
    grown one vector at a time.

    pivots maps each pivot key to its row: the pivot coefficient is 1 and
    the pivot column is zero in every other row, so one pass over the
    pivots a vector holds reduces it.  A new row's pivot is its first key in
    the order given by pos.
    """

    def __init__(self, p, pos):
        self.p = p
        self.pos = pos
        self.pivots = {}

    def _norm(self, x):
        return x % self.p if self.p else Fraction(x)

    def _subtract(self, target, f, row):
        for m, y in row.items():
            z = self._norm(target.get(m, 0) - f * y)
            if z:
                target[m] = z
            else:
                del target[m]

    def residue(self, vec):
        out = {k: y for k, x in vec.items() if (y := self._norm(x))}
        for k in [k for k in out if k in self.pivots]:
            self._subtract(out, out[k], self.pivots[k])
        return out

    def insert(self, vec):
        """Add vec to the span; its residue, or None when it lies in the span."""
        residue = self.residue(vec)
        if not residue:
            return None
        pivot = min(residue, key=self.pos.__getitem__)
        inv = pow(residue[pivot], -1, self.p) if self.p else 1 / residue[pivot]
        row = {k: self._norm(x * inv) for k, x in residue.items()}
        for other in self.pivots.values():
            if pivot in other:
                self._subtract(other, other[pivot], row)
        self.pivots[pivot] = row
        return residue

    def basis(self):
        return [self.pivots[k] for k in sorted(self.pivots, key=self.pos.__getitem__)]


def algebra_is_unital(alg, qs):
    """Subalgebra unitality, cross-checked against the combinatorial test
    schemoids.schemoid.is_unital; a disagreement raises AssertionError."""
    from schemoids.schemoid import is_unital
    combinatorial, _ = is_unital(qs.category, qs.partition)
    if alg.unital != combinatorial:
        raise AssertionError("unitality cross-check failed")
    return alg.unital


def span_closure_fractions(cat, ring, generators):
    """Reduced echelon basis, sorted by pivot in morphism order, of the
    subalgebra of the category algebra generated by the given vectors.

    The all-pairs reference for schemoids.algebra.span_closure, which
    multiplies each pivot row on the right by the generator residues only:
    here each inserted residue is multiplied on both sides with itself and
    every earlier residue, on a Fraction echelon, with products taken pair
    by pair from the composition table.  When no residue is left, every
    product of two basis rows lies in the span, so the span is closed
    without appeal to the right-multiplication certificate.
    """
    p = getattr(ring, "p", None)
    echelon = ReducedEchelon(p, {m: i for i, m in enumerate(cat.morphism_ids)})

    def multiply(u, v):
        out = {}
        for f, a in u.items():
            for g, b in v.items():
                h = cat.compose.get((f, g))
                if h is not None:
                    out[h] = out.get(h, 0) + a * b
        return out

    residues = [r for g in generators if (r := echelon.insert(g))]
    i = 0
    while i < len(residues):
        new = residues[i]
        for old in residues[:i + 1]:
            for prod in (multiply(new, old), multiply(old, new)):
                if (r := echelon.insert(prod)):
                    residues.append(r)
        i += 1
    return echelon.basis()


def solve_tensor_unit_fractions(basis, tensor, ring):
    """The two-sided unit of a structure-constant tensor, or None.

    tensor maps (sigma, tau, mu) to c^mu_{sigma tau}.  The left-unit and
    right-unit equations go into one Fraction echelon with the right-hand
    side, keyed None, ordered last; a pivot on None means no solution, and
    free unknowns are 0.  The reference for
    schemoids.algebra._solve_tensor_unit.
    """
    p = getattr(ring, "p", None)
    left, right = {}, {}
    for (sigma, tau, mu), c in tensor.items():
        left.setdefault((tau, mu), {})[sigma] = c
        right.setdefault((sigma, mu), {})[tau] = c
    pos = {b: i for i, b in enumerate(basis)}
    pos[None] = len(basis)
    echelon = ReducedEchelon(p, pos)
    for x in basis:
        for system in (left, right):
            system.setdefault((x, x), {})[None] = 1
    for system in (left, right):
        for eq in system.values():
            echelon.insert(eq)
            if None in echelon.pivots:
                return None
    return {b: row[None] for b, row in echelon.pivots.items() if row.get(None)}


def factorization_category(c):
    """Category of factorizations: objects are the morphisms of C, and a
    morphism f -> g is a pair (α, β) with α∘f∘β = g, composed by
    (α', β')∘(α, β) = (α'∘α, β∘β').  Nothing in the package builds it: a
    natural system is kept as its push and pull matrices per pair."""
    from schemoids.fincat import build_category
    objects = list(c.morphism_ids)
    morphisms = []
    compose = []
    mid = lambda a, b, f: f"({a},{b})@{f}"
    arrows = []
    for f in objects:
        for a in c.morphism_ids:
            if c.src(a) != c.tgt(f):
                continue
            af = c.comp(a, f)
            for b in c.morphism_ids:
                if c.tgt(b) != c.src(f):
                    continue
                g = c.comp(af, b)
                m = mid(a, b, f)
                morphisms.append((m, f, g))
                arrows.append((m, a, b, f, g))
    identity = {f: mid(c.identity[c.tgt(f)], c.identity[c.src(f)], f) for f in objects}
    for m2, a2, b2, f2, g2 in arrows:
        for m1, a1, b1, f1, g1 in arrows:
            if g1 != f2:
                continue
            compose.append((m2, m1, mid(c.comp(a2, a1), c.comp(b1, b2), f1)))
    return build_category(objects, morphisms, identity, compose)


# ---------------------------------------------------------------------------
# Baues–Wirsching cohomology on the whole category, the reference for
# schemoids.extensions, which restricts to a skeleton (one object per
# isomorphism class) before it eliminates.
# ---------------------------------------------------------------------------

def full_complex_cohomology(cat, system, degree):
    """(invariants, free rank) of H^degree from the differentials of the
    whole category, with no skeleton taken."""
    from schemoids.extensions import bw_differentials
    from schemoids.linalg import homology
    cx = bw_differentials(cat, system)
    d_prev, d_n = (cx.d0_rows, cx.d1_rows) if degree == 1 else (cx.d1_rows, cx.d2_rows)
    return homology(d_prev, d_n, system.modulus)


def full_complex_is_coboundary(cat, system, delta):
    """Whether d F = delta has a solution F on the whole category."""
    from schemoids.extensions import bw_differentials
    from schemoids.linalg import solve
    cx = bw_differentials(cat, system)
    return solve(cx.d1_rows, cx.cochain2_vector(delta), cx.dim[1], system.modulus) is not None


def full_complex_section(ext):
    """The section f -> (f, F(f)) for a solution F of d F = delta on the
    whole base, as a morphism map by label, or None: the reference for the
    section schemoids.extensions.is_split moves from the skeleton."""
    from schemoids.extensions import _position, bw_differentials
    from schemoids.linalg import solve
    cat, system = ext.base, ext.system
    cx = bw_differentials(cat, system)
    sol = solve(cx.d1_rows, cx.cochain2_vector(ext.cocycle), cx.dim[1], system.modulus)
    if sol is None:
        return None
    return {f: ext.fiber[f][_position(sol[off:off + r], system.modulus)]
            for f, off, r in zip(cat.morphism_ids, cx.offset1, system.rank)}


def natural_law_failures(cat, modulus, rank, push, pull):
    """Every broken law of a natural system whose matrices are all present
    and of the right shape, by the full scan: the unit laws at every f, and
    the push law, the pull law and push/pull commutation at every composable
    triple (x, y, z).  Each failure is named as in the witness of
    schemoid.extensions.FunctorialityViolated."""
    comp = cat.compose

    def norm(mat):
        return [[v % modulus if modulus else v for v in row] for row in mat]

    def one(r):
        return [[int(i == j) for j in range(r)] for i in range(r)]

    failures = []
    for f, s, t in cat.morphisms:
        if norm(push[(cat.identity[t], f)]) != one(rank[f]):
            failures.append(("unit push", cat.identity[t], f, None))
        if norm(pull[(f, cat.identity[s])]) != one(rank[f]):
            failures.append(("unit pull", None, f, cat.identity[s]))
    for (x, y), xy in comp.items():
        for w in cat.objects:
            for z in cat.hom(w, cat.src(y)):
                yz = comp[(y, z)]
                laws = (("push", push[(xy, z)], mat_mul_int(push[(x, yz)], push[(y, z)])),
                        ("pull", pull[(x, yz)], mat_mul_int(pull[(xy, z)], pull[(x, y)])),
                        ("commute", mat_mul_int(push[(x, yz)], pull[(y, z)]),
                         mat_mul_int(pull[(xy, z)], push[(x, y)])))
                failures += [(law, x, y, z) for law, lhs, rhs in laws if norm(lhs) != norm(rhs)]
    return failures


def validate_natural_system_dense(cat, modulus, rank, push, pull):
    """The natural-system laws by the full scan of `natural_law_failures`;
    the reference for the generator check in
    schemoids.extensions.validate_natural_system.  Raises
    FunctorialityViolated with the first failure as witness."""
    from schemoids.extensions import FunctorialityViolated
    failures = natural_law_failures(cat, modulus, rank, push, pull)
    if failures:
        raise FunctorialityViolated(f"{failures[0][0]} law fails", failures[0])
    return True


def labelled_system(system):
    """(rank, push, pull) of a natural system keyed by labels, as
    validate_natural_system reads them: {f: rank}, {(a, f): a_*} and
    {(f, b): b^*}."""
    ids = system.category.morphism_ids

    def keyed(maps):
        return {(ids[i], ids[j]): mat for i, row in enumerate(maps) for j, mat in row.items()}

    return dict(zip(ids, system.rank)), keyed(system.push), keyed(system.pull)


def unchecked_system(cat, modulus, rank, push, pull):
    """A NaturalSystem from tables keyed by labels, as `labelled_system`
    gives them, with no law checked: a way to build one that is not natural."""
    from schemoids.extensions import NaturalSystem
    index = cat.index

    def indexed(maps):
        rows = [{} for _ in cat.morphism_ids]
        for (f, g), mat in maps.items():
            rows[index[f]][index[g]] = mat
        return tuple(rows)

    return NaturalSystem(cat, modulus, tuple(map(rank.__getitem__, cat.morphism_ids)),
                         indexed(push), indexed(pull))


def _apply(mat, vec, modulus):
    """A matrix applied to a vector, reduced mod the modulus (None over Q)."""
    out = tuple(sum(x * y for x, y in zip(row, vec)) for row in mat)
    return out if modulus is None else tuple(x % modulus for x in out)


def coboundary_of_1cochain(system, fvals):
    """d F as a 2-cochain, for F given per morphism, by vector arithmetic
    on each pair; the reference for schemoids.extensions.coboundary_of_1cochain,
    which reads the rows of BWComplex's d1."""
    from schemoids.extensions import _vec_add, _vec_neg, cochain2_from_function
    cat = system.category
    m = system.modulus
    rank, push, pull = labelled_system(system)

    def fn(f, g):
        fg = cat.comp(f, g)
        val = _apply(push[(f, g)], fvals.get(g, (0,) * rank[g]), m)
        val = _vec_add(val, _vec_neg(fvals.get(fg, (0,) * rank[fg]), m), m)
        val = _vec_add(val, _apply(pull[(f, g)], fvals.get(f, (0,) * rank[f]), m), m)
        return val

    return cochain2_from_function(system, fn)


def extension_table_by_formula(cat, system, delta):
    """The composition table of the extension of cat by delta, as a list of
    ((g|b, f|a), g∘f|c) in construction order: (g, f) in `cat.compose`
    order, a in D_f, then b in D_g, each fiber in lexicographic order, with
    c = -delta(g, f) + g_* a + f^* b computed on vectors mod m; the
    reference for the fiber-index tables of schemoids.extensions.build_extension."""
    m = system.modulus
    rank, push, pull = labelled_system(system)

    def name(f, vec):
        return f"{f}|{'.'.join(str(x) for x in vec)}"

    def fiber(f):
        return list(product(range(m), repeat=rank[f]))

    table = []
    for (g, f), gf in cat.compose.items():
        minus_d = tuple(-x for x in delta.entries.get((g, f), (0,) * rank[gf]))
        for a in fiber(f):
            pushed = _apply(push[(g, f)], a, m)
            for b in fiber(g):
                pulled = _apply(pull[(g, f)], b, m)
                c = tuple((x + y + z) % m for x, y, z in zip(minus_d, pushed, pulled))
                table.append(((name(g, b), name(f, a)), name(gf, c)))
    return table


def cocycle_defect(system, delta):
    """First composable triple where d(delta) is nonzero, or None, by vector
    arithmetic on each triple; the reference for BWComplex.cocycle_defect,
    which reads the rows of its d2."""
    from schemoids.extensions import _vec_add, _vec_neg
    cat = system.category
    m = system.modulus
    _, push, pull = labelled_system(system)
    for (f, g) in cat.compose:
        fg = cat.comp(f, g)
        for h in cat.morphism_ids:
            if (g, h) not in cat.compose:
                continue
            gh = cat.comp(g, h)
            val = _apply(push[(f, gh)], delta.value(system, g, h), m)
            val = _vec_add(val, _vec_neg(delta.value(system, fg, h), m), m)
            val = _vec_add(val, delta.value(system, f, gh), m)
            val = _vec_add(val, _vec_neg(
                _apply(pull[(fg, h)], delta.value(system, f, g), m), m), m)
            if any(val):
                return (f, g, h, val)
    return None


def brute_force_sections(ext, cap=1 << 16):
    """All sections of an extension's projection by exhaustive enumeration
    of one fiber element per base morphism; independent of the linear path."""
    system = ext.system
    cat = ext.base
    mors = list(cat.morphism_ids)
    space = 1
    for f in mors:
        space *= system.modulus ** system.rank[cat.index[f]]
        if space > cap:
            raise ValueError("search space exceeds the cap")
    found = []
    for combo in product(*[ext.fiber[f] for f in mors]):
        smap = dict(zip(mors, combo))
        ok = all(smap[cat.identity[x]] == ext.total.identity[x] for x in cat.objects)
        if ok:
            for (f, g), fg in cat.compose.items():
                if ext.total.comp(smap[f], smap[g]) != smap[fg]:
                    ok = False
                    break
        if ok:
            found.append(smap)
    return found


def equivalences_by_search(e1, e2, cap=1 << 16):
    """Every functor φ: E1 -> E2 over the base of the form (f, a) -> (f, a + F(f)),
    as a morphism map by label, for two extensions with one base and system;
    the reference for schemoids.extensions.equivalence, using no cohomology.

    F runs over the maps from the base morphisms to their fibers, assigned
    depth first in morphism order.  Each composite e∘e' = e'' of E1's total
    is checked, φ(e)∘φ(e') = φ(e'') in E2's, as soon as F is fixed at the
    three base morphisms under it, so every φ kept has passed the whole
    composition scan, and the identities are checked at the end.  Fiber
    elements are read as vectors in lexicographic order and added mod m.
    ValueError when there are more than cap maps F."""
    cat, m = e1.base, e1.system.modulus
    ids, rank = list(cat.morphism_ids), dict(zip(cat.morphism_ids, e1.system.rank))
    if prod(m ** r for r in rank.values()) > cap:
        raise ValueError("search space exceeds the cap")
    vectors = {r: list(product(range(m), repeat=r)) for r in set(rank.values())}
    position = {r: {v: i for i, v in enumerate(vs)} for r, vs in vectors.items()}
    where = {e: (f, a) for f in ids for a, e in enumerate(e1.fiber[f])}
    level = {f: i for i, f in enumerate(ids)}
    checks = [[] for _ in ids]
    for (e, e_), c in e1.total.compose.items():
        under = (where[e][0], where[e_][0], where[c][0])
        checks[max(map(level.__getitem__, under))].append((e, e_, c))
    F, found = {}, []

    def image(e):
        f, a = where[e]
        vs = vectors[rank[f]]
        return e2.fiber[f][position[rank[f]][tuple((x + y) % m for x, y in zip(vs[a], vs[F[f]]))]]

    def extend(i):
        if i == len(ids):
            if all(image(e1.total.identity[x]) == e2.total.identity[x] for x in cat.objects):
                found.append({e: image(e) for e in where})
            return
        f = ids[i]
        for F[f] in range(m ** rank[f]):
            if all(e2.total.comp(image(e), image(e_)) == image(c) for e, e_, c in checks[i]):
                extend(i + 1)
        del F[f]

    extend(0)
    return found


def _functor_candidates(c, d, cap):
    """Every object map of C into D and, for each, every choice of images
    in D's hom-sets, an identity going to the identity of its object's
    image; ValueError when C has more than 4 objects or the choices exceed cap."""
    if len(c.objects) > 4:
        raise ValueError("more than 4 objects")
    maps = [dict(zip(c.objects, images)) for images in product(d.objects, repeat=len(c.objects))]
    choices = [[(d.identity[omap[s]],) if c.is_identity(f) else d.hom(omap[s], omap[t])
                for f, s, t in c.morphisms] for omap in maps]
    space = sum(prod(map(len, hom_choices)) for hom_choices in choices)
    if space > cap:
        raise ValueError(f"{space} choices exceed the cap")
    for omap, hom_choices in zip(maps, choices):
        for images in product(*hom_choices):
            yield omap, images


def functors_by_search(c, d, cap=1 << 16):
    """Every functor C -> D by exhaustive search over `_functor_candidates`,
    each checked by the full scan of validate_functor_dense."""
    from schemoids.fincat import Functor, NotAFunctor, serialize

    c_desc, d_desc = _described(serialize(c)), _described(serialize(d))
    found = []
    for omap, images in _functor_candidates(c, d, cap):
        fun = Functor(omap, dict(zip(c.morphism_ids, images)))
        try:
            _functor_laws_dense(fun, c_desc, d_desc)
        except NotAFunctor:
            continue
        found.append(fun)
    return found


def schemoid_morphisms_by_search(a, b, cap=1 << 19):
    """Every schemoid morphism a -> b as a functor, by exhaustive search over
    `_functor_candidates`, keeping what schemoids.schemoid.schemoid_morphism
    accepts.  A choice that sends one block into two is skipped before the
    call, which would raise NotBlockwise for it.  The reference for
    schemoid_morphisms."""
    from schemoids.fincat import Functor, NotAFunctor
    from schemoids.schemoid import schemoid_morphism

    ca = a.category
    blocks = [[ca.morphism_ids.index(m) for m in ms] for ms in a.partition.blocks.values()]
    block_of = b.partition.block_of
    found = []
    for omap, images in _functor_candidates(ca, b.category, cap):
        if any(len({block_of[images[i]] for i in ms}) > 1 for ms in blocks):
            continue
        fun = Functor(omap, dict(zip(ca.morphism_ids, images)))
        try:
            schemoid_morphism(a, b, fun)
        except NotAFunctor:
            continue
        found.append(fun)
    return found


def sparse_rows(a):
    """The rows of a dense matrix as {column: coefficient} dicts."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def adjacency(scheme, cls):
    """The 0/1 adjacency matrix of one class of a configuration."""
    k = scheme.classes.index(cls)
    return [[1 if x == k else 0 for x in row] for row in scheme.relation_of]


def pair_count(scheme, cls):
    """The number of point pairs in one class of a configuration."""
    k = scheme.classes.index(cls)
    return sum(row.count(k) for row in scheme.relation_of)


def diagonal_classes(scheme):
    """The classes that meet the diagonal, sorted."""
    return tuple(sorted({scheme.classes[row[x]] for x, row in enumerate(scheme.relation_of)}))


def is_transitive(perms, size):
    """Whether the permutations reach every point from 0."""
    reached = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in perms:
            if p[x] not in reached:
                reached.add(p[x])
                frontier.append(p[x])
    return len(reached) == size


def group_closure(perms, size):
    """Every element of the group the permutations generate, the identity
    first: a breadth-first search over compositions with the generators."""
    gens = [tuple(p) for p in perms]
    identity = tuple(range(size))
    seen, frontier = {identity}, [identity]
    elements = [identity]
    while frontier:
        fresh = []
        for g in frontier:
            for p in gens:
                h = tuple(p[g[i]] for i in range(size))
                if h not in seen:
                    seen.add(h)
                    fresh.append(h)
        elements += fresh
        frontier = fresh
    return [list(g) for g in elements]


def hamming_generators(n, q):
    """Four generators of S_q wr S_n on the words of H(n, q), numbered in
    base q with coordinate 0 most significant: shift the symbol at
    coordinate 0, swap symbols 0 and 1 there, swap coordinates 0 and 1,
    rotate the coordinates."""
    words = list(product(range(q), repeat=n))
    index = {w: i for i, w in enumerate(words)}
    moves = [lambda w: ((w[0] + 1) % q,) + w[1:],
             lambda w: ({0: 1, 1: 0}.get(w[0], w[0]),) + w[1:],
             lambda w: (w[1], w[0]) + w[2:] if n > 1 else w,
             lambda w: w[1:] + w[:1]]
    return [[index[move(w)] for w in words] for move in moves]


def johnson_generators(n, k):
    """The transposition (0 1) and the n-cycle i -> i + 1 acting on the
    k-subsets of 0..n-1, numbered in `combinations` order; with the subsets."""
    subsets = [frozenset(c) for c in combinations(range(n), k)]
    index = {s: i for i, s in enumerate(subsets)}
    maps = [{0: 1, 1: 0}, {i: (i + 1) % n for i in range(n)}]
    return [[index[frozenset(m.get(a, a) for a in s)] for s in subsets] for m in maps], subsets


def cyclotomic_generators(p, e):
    """x -> x + 1 and x -> h x on Z/p, h a generator of the index-e subgroup
    of the units; with the class of each pair, 0 on the diagonal and
    1 + the coset of y - x otherwise, by arithmetic alone."""
    g = next(g for g in range(2, p) if len({pow(g, i, p) for i in range(p - 1)}) == p - 1)
    coset = {pow(g, i, p): i % e for i in range(p - 1)}
    perms = [[(x + 1) % p for x in range(p)], [x * pow(g, e, p) % p for x in range(p)]]
    return perms, [[0 if x == y else 1 + coset[(y - x) % p] for y in range(p)] for x in range(p)]


def matched_classes(cfg, labels):
    """The class name -> label map read off row 0 of a scheme, asserted one
    to one and to agree with labels[x][y] on every pair (x, y)."""
    match = {}
    for k, label in zip(cfg.relation_of[0], labels[0]):
        assert match.setdefault(k, label) == label
    assert len(match) == len(cfg.classes) == len(set(match.values()))
    for x, row in enumerate(cfg.relation_of):
        assert [match[k] for k in row] == list(labels[x]), x
    return {cfg.classes[k]: label for k, label in match.items()}


def scheme_morphism_bruteforce(f_points, source, target):
    """The class map of a point map, or None when some class meets two
    target classes or a point goes outside the target: per class, every
    pair's image class by `points.index`."""
    if any(f_points.get(x) not in target.points for x in source.points):
        return None
    out = {}
    for c in source.classes:
        images = {target.classes[target.relation_of[target.points.index(f_points[x])]
                                                   [target.points.index(f_points[y])]]
                  for x in source.points for y in source.points
                  if source.classes[source.relation_of[source.points.index(x)]
                                    [source.points.index(y)]] == c}
        if len(images) != 1:
            return None
        out[c] = images.pop()
    return out


def thin_base_points(qs, base_points=None):
    """(thin, base points) of a semi-thin schemoid, by enumeration.

    Thin needs at most one morphism in each hom-set and one object per
    connected component whose identity blocks are exactly the blocks that
    hold an identity, each once.  Given base points must be such a choice,
    counted with repeats, and are returned as given; otherwise the first
    choice in the product of the components (in the order of their first
    objects), each listed in sorted order, is returned."""
    objects = list(qs.category.objects)
    arrows = [(s, t) for _, s, t in qs.category.morphisms]
    if len(set(arrows)) != len(arrows):
        return False, None
    identity = dict(qs.category.identity)
    s0 = sorted(b for b, members in qs.partition.blocks.items()
                if any(e in members for e in identity.values()))
    ident_block = {x: qs.partition.block_of[identity[x]] for x in objects}
    comps = []
    for x in objects:
        if any(x in c for c in comps):
            continue
        comp, grew = {x}, True
        while grew:
            grew = False
            for s, t in arrows:
                if (s in comp) != (t in comp):
                    comp |= {s, t}
                    grew = True
        comps.append(comp)

    def fits(v):
        return (len(v) == len(comps) and all(sum(x in c for x in v) == 1 for c in comps)
                and sorted(ident_block[x] for x in v) == s0)

    if base_points is not None:
        v = tuple(base_points)
        return (True, v) if fits(v) else (False, None)
    for v in product(*(sorted(c) for c in comps)):
        if fits(v):
            return True, v
    return False, None
