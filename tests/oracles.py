"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written against the raw data (pair
matrices, Cayley tables, explicit enumeration) and never calls the code
paths it is meant to check.
"""

from fractions import Fraction
from itertools import product


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


def schemoid_constants_bruteforce(cat, block_of):
    """Structure constants by enumerating every composable pair of morphisms."""
    tallies = {}
    for (f, g), h in cat.compose.items():
        tallies.setdefault((block_of[f], block_of[g], h), 0)
        tallies[(block_of[f], block_of[g], h)] += 1
    blocks = {}
    for m, b in block_of.items():
        blocks.setdefault(b, []).append(m)
    out = {}
    for (sigma, tau) in {(s, t) for (s, t, _) in tallies}:
        for mu, members in blocks.items():
            counts = {tallies.get((sigma, tau, h), 0) for h in members}
            assert len(counts) == 1, f"oracle: non-constant over {(sigma, tau, mu)}"
            c = counts.pop()
            if c:
                out[(sigma, tau, mu)] = c
    return out


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
    from schemoids import linalg

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
    ker = linalg.kernel_lattice_mod(d_n, modulus)
    n_cols = len(d_prev)
    gens = [[d_prev[i][j] for j in range(len(d_prev[0]))] for i in range(n_cols)]
    mI = [[modulus if i == j else 0 for j in range(n_cols)] for i in range(n_cols)]
    stacked = [gens[i] + mI[i] for i in range(n_cols)]
    return linalg.quotient_invariants(ker, stacked)


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
    """Dimension over Q of the algebra of n x n matrices generated by the inputs.

    Independent Terwilliger oracle: works directly with matrix products.
    """
    n = len(generators[0])
    flat = lambda m: [m[i][j] for i in range(n) for j in range(n)]

    basis_matrices = []
    basis_rows = []

    def in_span(vec):
        return span_dimension_fractions(basis_rows + [vec]) == len(basis_rows)

    def add(mat):
        v = flat(mat)
        if basis_rows and in_span(v):
            return False
        if not basis_rows and all(x == 0 for x in v):
            return False
        basis_matrices.append(mat)
        basis_rows.append(v)
        return True

    for g in generators:
        add(g)
    changed = True
    while changed:
        changed = False
        snapshot = list(basis_matrices)
        for a in snapshot:
            for b in snapshot:
                if add(mat_mul_int(a, b)):
                    changed = True
    return len(basis_rows)


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
    get = lambda s, t, m: tensor.get((s, t, m), 0)
    for sigma in basis:
        for tau in basis:
            for rho in basis:
                for nu in basis:
                    lhs = sum(get(sigma, tau, mu) * get(mu, rho, nu) for mu in basis)
                    rhs = sum(get(tau, rho, mu) * get(sigma, mu, nu) for mu in basis)
                    diff = lhs - rhs
                    if (diff % p if p else diff) != 0:
                        raise AlgebraError(
                            f"tensor not associative at ({sigma}, {tau}, {rho}, {nu})")
