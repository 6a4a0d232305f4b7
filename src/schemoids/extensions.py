"""Natural systems, low-degree cohomology of the factorization complex, and
linear extensions of quasi-schemoids.

A natural system assigns to every morphism f a finite free module
D_f = (Z/m)^r with m >= 2 (or Q^r) together with pushforward maps
a_* : D_f -> D_{af} and pullback maps b^* : D_f -> D_{fb}, functorially.
Cochains live on composable tuples; the differentials follow the
alternating-sum pattern

    (d F)(f, g)    = f_* F(g) - F(fg) + g^* F(f)
    (d D)(f, g, h) = f_* D(g, h) - D(fg, h) + D(f, gh) - h^* D(f, g)

whose degree-2 instance at (f, f^-1, f) pins the sign convention; d1∘d0 = 0
and d2∘d1 = 0 are checked when those differentials are first assembled.
Cohomology and the one solve behind splitting and equivalence run on a
skeleton of the base.
Extensions twist composition by a normalized 2-cocycle:
(g, b)∘(f, a) = (g∘f, -D(g, f) + g_* a + f^* b).

An extension is built on fiber indices: each element of D_f = (Z/m)^r is
numbered by its position in lexicographic order (`_position`), so the total
morphism (f, a) has index offset(f) + position(a).  Addition in (Z/m)^r is
one table per rank, and each push or pull matrix one table over its fiber,
built once per distinct matrix; the composites are read from those tables
(`_FiberTables`), never by arithmetic on tuples.  Each fiber element is
named once, when the total is built, and the extension keeps its tables:
the torsor check, the transport check of a lifted schemoid and the
witnesses read positions from them and names from `ExtensionCategory.fiber`.
A lifted involution reads no table: it is the total's own inverse map.
The construction by the formula above, on vectors, is the reference in the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, product as iproduct, repeat
from operator import add

from . import linalg
from .fincat import (
    CategoryError,
    FinCategory,
    Functor,
    NotAFunctor,
    NotInvertible,
    SchemoidsError,
    as_groupoid,
    build_category,
    full_subcategory,
    validate_functor,
)
from .schemoid import (
    AxiomViolation,
    QuasiSchemoid,
    check_association,
    check_concatenation,
    make_partition,
)
from .shapes import COCYCLE, check


class ExtensionError(SchemoidsError):
    pass


class InvalidModulus(ExtensionError):
    pass


class FunctorialityViolated(ExtensionError):
    """A natural-system law fails.  A broken unit, push, pull or commutation
    law carries a witness (law, a, f, b); see `validate_natural_system`."""


class NotACocycle(ExtensionError):
    pass


class NotNormalized(ExtensionError):
    pass


class HypothesisFailed(ExtensionError):
    pass


class BaseNotConnectedGroupoid(ExtensionError):
    pass


class BaseMismatch(ExtensionError):
    pass


class ExtensionTooLarge(ExtensionError):
    """The total category's tables would exceed `EXTENSION_BUDGET` entries."""


class ComplexTooLarge(ExtensionError):
    """d2 would have more than `COMPLEX_BUDGET` rows."""


Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


def _identity_matrix(r: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def _vec_add(u: Vector, v: Vector, modulus: int | None) -> Vector:
    if modulus is None:
        return tuple(map(add, u, v))
    return tuple([x % modulus for x in map(add, u, v)])


def _vec_neg(u: Vector, modulus: int | None) -> Vector:
    out = tuple(-a for a in u)
    return tuple(x % modulus for x in out) if modulus is not None else out


@dataclass(frozen=True, eq=False)
class NaturalSystem:
    """D on morphism positions; push[a] and pull[a] are dicts {f: matrix}
    with a key for each f into src(a), one matrix per composable pair, and
    may be shared, as a trivial system shares them among the morphisms with
    one source."""
    category: FinCategory
    modulus: int | None                      # None means rational coefficients
    rank: tuple[int, ...]                    # morphism -> rank of D_f
    push: tuple[dict[int, Matrix], ...]      # push[a][f]: D_f -> D_{af}
    pull: tuple[dict[int, Matrix], ...]      # pull[f][b]: D_f -> D_{fb}

    def __post_init__(self):
        m = self.modulus
        if m is not None and (type(m) is not int or m < 2):
            raise InvalidModulus(f"modulus must be an integer >= 2 or None (rational), got {m!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, NaturalSystem):
            return NotImplemented
        m = self.modulus
        rows = {(id(mine), id(theirs)): (mine, theirs)        # each distinct pair of rows once
                for mine, theirs in chain(zip(self.push, other.push), zip(self.pull, other.pull))}
        return (self.category == other.category and m == other.modulus and self.rank == other.rank
                and all(linalg.mat_eq_mod(mat, theirs[j], m)
                        for mine, theirs in rows.values() for j, mat in mine.items()))


def _positions(cat: FinCategory, f, g):
    """(i, j, k) for composable morphisms f and g of cat, named by label,
    with k the position of f∘g; None if they are not."""
    i, j = cat.index.get(f), cat.index.get(g)
    if i is None or j is None or cat.tgt_of[j] != cat.src_of[i]:
        return None
    return i, j, cat.rows[i][cat.inpos[j]]


def _check_shapes(cat, rank, push, pull):
    """Each push[a][f] and pull[f][b] must sit at a composable pair and have
    rank(a∘f) rows of rank(f) entries, or rank(f∘b) rows of rank(f)
    entries.  The pushes are checked first, row by row; each distinct
    matrix is measured once."""
    ids, src_of, tgt_of, inpos = cat.morphism_ids, cat.src_of, cat.tgt_of, cat.inpos
    measured: dict[int, tuple[int, set[int]]] = {}    # id(matrix) -> (rows, row lengths)
    for kind, maps, column in (("push", push, 1), ("pull", pull, 0)):
        for i, (row, mats) in enumerate(zip(cat.rows, maps)):
            for j, mat in mats.items():
                if tgt_of[j] != src_of[i]:
                    raise FunctorialityViolated(f"{kind} key ({ids[i]!r}, {ids[j]!r}) is not composable")
                k = row[inpos[j]]
                shape = measured.get(id(mat))
                if shape is None:
                    shape = measured[id(mat)] = (len(mat), set(map(len, mat)))
                n, lengths = shape
                if n != rank[k] or not lengths <= {rank[(i, j)[column]]}:
                    raise FunctorialityViolated(f"{kind} matrix for ({ids[i]!r}, {ids[j]!r}) "
                                                "has wrong shape")


def validate_natural_system(cat: FinCategory, modulus, rank, push, pull) -> NaturalSystem:
    """Check a raw system, keyed by labels: the rank table {f: rank} covers
    the morphisms, every composable pair has a push matrix {(a, f): a_*}
    and a pull matrix {(f, b): b^*} of the right shape, and the laws hold
    by matrix equality (`_checked`).  The system is kept on positions."""
    if set(rank) != set(cat.morphism_ids):
        raise FunctorialityViolated("rank table must cover exactly the morphisms")
    ids, indexed = cat.morphism_ids, []
    for kind, maps in (("push", push), ("pull", pull)):
        rows = [{} for _ in ids]
        for (f, g), mat in maps.items():
            at = _positions(cat, f, g)
            if at is None:
                raise FunctorialityViolated(f"{kind} key ({f!r}, {g!r}) is not composable")
            rows[at[0]][at[1]] = tuple(map(tuple, mat))
        missing = next(((ids[i], ids[j]) for i, (j, _) in cat.entries() if j not in rows[i]), None)
        if missing:
            raise FunctorialityViolated(f"{kind} map for {missing} missing")
        indexed.append(tuple(rows))
    return _checked(NaturalSystem(cat, modulus, tuple(map(rank.__getitem__, ids)), *indexed))


def _checked(system: NaturalSystem) -> NaturalSystem:
    """The shapes and the laws of a system.

    The unit laws 1_* = 1 and 1^* = 1 are checked at every f.  The push law
    (a2∘a1)_* = a2_* a1_* at f, the pull law (b1∘b2)^* = b2^* b1^* at f and
    the commutation a_* b^* = b^* a_* at (a, f, b) are checked only where
    a1, b1 and a run over C's Light generators (`cat.generators`), for every
    other morphism composable with them.  That suffices because C is
    associative: the a1 at which the push law holds for all a2 and f are
    closed under composition and, by the unit laws, contain the identities,
    so with the generators they are all of C; the same holds for b1 and the
    pull law, and then, the push law holding everywhere, for a and the
    commutation.  A broken law raises FunctorialityViolated with witness
    (law, a, f, b): ("unit push", 1, f, None), ("unit pull", None, f, 1),
    ("push", a2, a1, f), ("pull", f, b1, b2) or ("commute", a, f, b), the
    morphisms named by label in the order they compose.
    """
    cat, rank, push, pull = system.category, system.rank, system.push, system.pull
    _check_shapes(cat, rank, push, pull)
    ids, rows, inpos, mat_mul = cat.morphism_ids, cat.rows, cat.inpos, linalg.mat_mul

    def check(lhs, rhs, law, a, f, b):
        if not linalg.mat_eq_mod(lhs, rhs, system.modulus):
            a, f, b = (None if x is None else ids[x] for x in (a, f, b))
            raise FunctorialityViolated(f"{law} law fails at ({a!r}, {f!r}, {b!r})", (law, a, f, b))

    into, out_of, src_of, tgt_of, unit = cat.into, cat.out_of, cat.src_of, cat.tgt_of, cat.identity_of
    for f, (s, t) in enumerate(zip(src_of, tgt_of)):
        one = _identity_matrix(rank[f])
        check(push[unit[t]][f], one, "unit push", unit[t], f, None)
        check(pull[f][unit[s]], one, "unit pull", None, f, unit[s])
    for g in map(cat.index.__getitem__, cat.generators):
        push_g, row_g, at_g = push[g], rows[g], inpos[g]
        for f, gf in zip(into[src_of[g]], row_g):
            g_f = push_g[f]
            for a in out_of[tgt_of[g]]:            # push law, a1 = g
                check(push[rows[a][at_g]][f], mat_mul(push[a][gf], g_f), "push", a, g, f)
            for b, fb in zip(into[src_of[f]], rows[f]):      # commutation, a = g
                check(mat_mul(push_g[fb], pull[f][b]), mat_mul(pull[gf][b], g_f),
                      "commute", g, f, b)
        for f in out_of[tgt_of[g]]:
            f_g, fg = pull[f][g], rows[f][at_g]
            for b, gb in zip(into[src_of[g]], row_g):        # pull law, b1 = g
                check(pull[f][gb], mat_mul(pull[fg][b], f_g), "pull", f, g, b)
    return system


def trivial_system(cat: FinCategory, modulus: int | None, rank: int = 1) -> NaturalSystem:
    """D_f of the given rank at every f, every push and pull the identity;
    the morphisms with one source share one row of identities.  A rank
    that is no non-negative integer is refused."""
    if not (type(rank) is int and rank >= 0):
        raise ExtensionError(f"rank must be a non-negative integer, got {rank!r}")
    one = _identity_matrix(rank)
    shared = [dict.fromkeys(into, one) for into in cat.into]
    rows = tuple(map(shared.__getitem__, cat.src_of))
    return NaturalSystem(cat, modulus, (rank,) * len(rows), rows, rows)


def induced_system(cat: FinCategory, modulus: int | None, object_rank: dict,
                   maps: dict) -> NaturalSystem:
    """System induced from a functor into modules: D_f = H(tgt f), a_* = H(a),
    pullbacks are identities; checked as by `validate_natural_system`.  An
    object with no rank or a morphism with no map is refused."""
    for x in cat.objects:
        if x not in object_rank:
            raise FunctorialityViolated(f"object rank for {x!r} missing")
    for a in cat.morphism_ids:
        if a not in maps:
            raise FunctorialityViolated(f"module map for {a!r} missing")
    rank = tuple(object_rank[cat.objects[t]] for t in cat.tgt_of)
    ones = {r: _identity_matrix(r) for r in set(rank)}
    push = tuple(dict.fromkeys(cat.into[s], tuple(map(tuple, maps[a])))
                 for a, s in zip(cat.morphism_ids, cat.src_of))
    pull = tuple(dict.fromkeys(cat.into[s], ones[r]) for s, r in zip(cat.src_of, rank))
    return _checked(NaturalSystem(cat, modulus, rank, push, pull))


# ---------------------------------------------------------------------------
# Cochains
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Cochain2:
    """2-cochain: a fiber element per composable pair (f, g), f applied second."""
    entries: dict[tuple[str, str], Vector]

    def value(self, system: NaturalSystem, f: str, g: str) -> Vector:
        got = self.entries.get((f, g))
        if got is not None:
            return got
        return (0,) * system.rank[_positions(system.category, f, g)[2]]


def zero_cochain2() -> Cochain2:
    return Cochain2({})


def cochain2_from_function(system: NaturalSystem, fn) -> Cochain2:
    ids, entries = system.category.morphism_ids, {}
    for i, (j, _) in system.category.entries():
        v = tuple(fn(ids[i], ids[j]))
        if any(v):
            entries[(ids[i], ids[j])] = v
    return Cochain2(entries)


def cochain2_sub(system: NaturalSystem, a: Cochain2, b: Cochain2) -> Cochain2:
    entries = {}
    for key in set(a.entries) | set(b.entries):
        v = _vec_add(a.value(system, *key), _vec_neg(b.value(system, *key), system.modulus),
                     system.modulus)
        if any(v):
            entries[key] = v
    return Cochain2(entries)


def is_normalized(system: NaturalSystem, delta: Cochain2) -> bool:
    cat = system.category
    for (f, g), v in delta.entries.items():
        if (cat.is_identity(f) or cat.is_identity(g)) and any(
                x % system.modulus if system.modulus else x for x in v):
            return False
    return True


def coboundary_of_1cochain(system: NaturalSystem, fvals: dict) -> Cochain2:
    """d F as a 2-cochain, for F given per morphism by label, by the rows of
    d1; labels of no morphism are skipped."""
    cat = system.category
    cx, index = bw_differentials(cat, system), cat.index
    vec = [0] * cx.dim[1]
    for i, f, v in ((index[f], f, v) for f, v in fvals.items() if f in index):
        vec[cx.offset1[i]:cx.offset1[i] + len(v)] = _check_rank(f, v, system.rank[i])
    return cochain2_from_function(
        system, lambda f, g: _evaluate(cx._d1_at(index[f], index[g]), vec, system.modulus))


def normalize_cocycle(system: NaturalSystem, delta: Cochain2) -> Cochain2:
    """Cohomologous normalized representative (subtract d of an identity-supported
    1-cochain)."""
    cat = system.category
    fvals = {}
    for x in cat.objects:
        e = cat.identity[x]
        v = delta.value(system, e, e)
        if any(v):
            fvals[e] = v
    if not fvals:
        return delta
    return cochain2_sub(system, delta, coboundary_of_1cochain(system, fvals))


def cocycle_from_json(system: NaturalSystem, raw: dict) -> Cochain2:
    """A cochain from a cocycle document, the format `shapes.COCYCLE`
    declares: {"entries": [[f, g, vector], ...]}, each vector an array of
    integers or one integer."""
    return read_cocycle(system, check(COCYCLE, raw, "cocycle"))


def read_cocycle(system: NaturalSystem, raw: dict) -> Cochain2:
    """The cochain of a cocycle document that fits `shapes.COCYCLE`."""
    entries = {}
    for f, g, vec in raw["entries"]:
        if _positions(system.category, f, g) is None:
            raise ExtensionError(f"cocycle entry ({f!r}, {g!r}) is not a composable pair")
        entries[(f, g)] = (vec,) if type(vec) is int else tuple(vec)
    return Cochain2(entries)


def cocycle_to_json(delta: Cochain2) -> dict:
    return {"entries": [[f, g, list(v)] for (f, g), v in sorted(delta.entries.items())]}


# ---------------------------------------------------------------------------
# The cochain complex in degrees 0..3
#
# Each differential is kept as sparse rows {column: coefficient}, one row per
# coordinate of its target: a row of d2 has at most four blocks, one of d1
# three and one of d0 two.  Coefficients are plain integers; reduction mod m
# happens in the elimination (linalg.homology, linalg.solve), which splits m
# by the Chinese remainder theorem and works over each Z/p^k.  Cohomology
# comes back as invariant factors d_1 | d_2 | ... over Z/m and as a free
# rank over Q.
#
# The bases are indexed as the category is: C^0 has a block per object and
# C^1 one per morphism, by position, C^2 one per composable pair (f, g) in
# `entries()` order, the table order however C was built, and C^3 one per
# triple (f, g, h), h in morphism order (basis3); so no answer solved on the
# basis depends on whether C came from labels, rows or a bundle.
# offset0[x], offset1[f] and offset2[f][g], keyed like the system, give each
# block's first coordinate; they are built on first read, so an answer found
# on the skeleton builds only the skeleton's.  bw_differentials
# reads the four dimensions off the ranks and the rows: dim C^2 is the sum
# over u of W(u) = sum over h into src u of rank(u∘h), and dim C^3 the sum
# over pairs (f, g) of W(f∘g).
#
# Each d_n is written once, as its rows at one basis element of degree n + 1
# (BWComplex._d0_at, _d1_at, _d2_at).  d0_rows, d1_rows and d2_rows join them
# in basis order when first read, checking d1∘d0 = 0 and d2∘d1 = 0;
# coboundary_of_1cochain applies d1's rows pair by pair, and cocycle_defect
# applies d2's triple by triple as it streams the triples, so it holds
# neither them nor d2.  build_extension's cocycle test is the associativity
# check of its total category; it calls cocycle_defect only after that check
# fails, to name the first failing triple.  Only tests read the dense d0,
# d1, d2.
#
# H^n(C; D) = H^n(S; i*D) for the inclusion i: S -> C of a skeleton
# (Baues & Wirsching, J. Pure Appl. Algebra 38 (1985), Thm 1.11), so the
# cohomology runs on BWComplex.skeleton, the complex of the full subcategory
# on one object per isomorphism class.  Splitting and equivalence ask one
# question, whether d F = δ2 - δ1 has a solution: `_transported` solves it
# on S, built from the base and the system alone, and moves the answer onto
# C by conjugation with the isomorphisms x -> r(x) that _skeleton_objects
# certifies, so nothing builds or solves the whole base's complex.
# ---------------------------------------------------------------------------

# rows d2_rows may build, one per coordinate of C^3; past it d2 is refused
# before any row is built.  j(H(4,2)) over Z/2 has 65536 and builds them in
# about 0.5 s and 22 MB on a 2-vCPU host.
COMPLEX_BUDGET = 1 << 18


@dataclass(frozen=True, eq=False)
class BWComplex:
    category: FinCategory
    system: NaturalSystem
    dim: tuple[int, int, int, int]

    @cached_property
    def offset0(self) -> list[int]:
        ranks = map(self.system.rank.__getitem__, self.category.identity_of)
        return list(accumulate(ranks, initial=0))[:-1]

    @cached_property
    def offset1(self) -> list[int]:
        return list(accumulate(self.system.rank, initial=0))[:-1]

    @cached_property
    def offset2(self) -> list[dict[int, int]]:
        rank, start = self.system.rank, 0
        offset2: list[dict[int, int]] = [{} for _ in self.category.rows]
        for f, (g, fg) in self.category.entries():
            offset2[f][g] = start
            start += rank[fg]
        return offset2

    def _triples(self):
        """Composable triples (f, g, h): pairs (f, g) in table order, the
        `entries()` order, and h over into(src g) in morphism order."""
        cat = self.category
        into, src_of = cat.into, cat.src_of
        return ((f, g, h) for f, (g, _) in cat.entries() for h in into[src_of[g]])

    @cached_property
    def basis3(self) -> list:
        return list(self._triples())

    def _d0_at(self, f: int) -> list[dict[int, int]]:
        """Rows of d0 at f: f_* G(src f) - f^* G(tgt f)."""
        cat, system = self.category, self.system
        sx, tx = cat.src_of[f], cat.tgt_of[f]
        rows = [{} for _ in range(system.rank[f])]
        _add_block(rows, self.offset0[sx], system.push[f][cat.identity_of[sx]], 1)
        _add_block(rows, self.offset0[tx], system.pull[cat.identity_of[tx]][f], -1)
        return rows

    def _d1_at(self, f: int, g: int) -> list[dict[int, int]]:
        """Rows of d1 at (f, g): f_* F(g) - F(fg) + g^* F(f)."""
        system, offset1, cat = self.system, self.offset1, self.category
        fg = cat.rows[f][cat.inpos[g]]
        rows = [{} for _ in range(system.rank[fg])]
        _add_block(rows, offset1[g], system.push[f][g], 1)
        _add_identity(rows, offset1[fg], -1)
        _add_block(rows, offset1[f], system.pull[f][g], 1)
        return rows

    def _d2_at(self, f: int, g: int, h: int) -> list[dict[int, int]]:
        """Rows of d2 at (f, g, h): f_* D(g, h) - D(fg, h) + D(f, gh) - h^* D(f, g)."""
        cat, system, offset2 = self.category, self.system, self.offset2
        cat_rows, at_h = cat.rows, cat.inpos[h]
        fg, gh = cat_rows[f][cat.inpos[g]], cat_rows[g][at_h]
        rows = [{} for _ in range(system.rank[cat_rows[fg][at_h]])]
        _add_block(rows, offset2[g][h], system.push[f][gh], 1)
        _add_identity(rows, offset2[fg][h], -1)
        _add_identity(rows, offset2[f][gh], 1)
        _add_block(rows, offset2[f][g], system.pull[fg][h], -1)
        return rows

    @cached_property
    def d0_rows(self) -> list[dict[int, int]]:
        return [row for f in range(len(self.system.rank)) for row in self._d0_at(f)]

    @cached_property
    def d1_rows(self) -> list[dict[int, int]]:
        d1 = [row for f, (g, _) in self.category.entries() for row in self._d1_at(f, g)]
        _check_zero_composite(d1, self.d0_rows, self.system.modulus, "d1∘d0")
        return d1

    @cached_property
    def d2_rows(self) -> list[dict[int, int]]:
        """Refused as ComplexTooLarge, before any row is built, past
        COMPLEX_BUDGET rows (dim C^3)."""
        if self.dim[3] > COMPLEX_BUDGET:
            raise ComplexTooLarge(f"d2 would have {self.dim[3]} rows: over the budget of "
                                  f"{COMPLEX_BUDGET}")
        d2 = [row for f, g, h in self._triples() for row in self._d2_at(f, g, h)]
        if len(d2) != self.dim[3]:
            raise AssertionError(f"the triples span {len(d2)} coordinates, not dim C^3 = {self.dim[3]}")
        _check_zero_composite(d2, self.d1_rows, self.system.modulus, "d2∘d1")
        return d2

    def cocycle_defect(self, delta: Cochain2):
        """The first triple (f, g, h) of labels, in basis3 order, at which
        d2 delta is nonzero, or None; neither basis3 nor d2_rows is built."""
        vec = self.cochain2_vector(delta)
        m, ids = self.system.modulus, self.category.morphism_ids
        for f, g, h in self._triples():
            if any(_evaluate(self._d2_at(f, g, h), vec, m)):
                return (ids[f], ids[g], ids[h])
        return None

    @cached_property
    def d0(self) -> list[list[int]]:
        return _dense(self.d0_rows, self.dim[0])

    @cached_property
    def d1(self) -> list[list[int]]:
        return _dense(self.d1_rows, self.dim[1])

    @cached_property
    def d2(self) -> list[list[int]]:
        return _dense(self.d2_rows, self.dim[2])

    @cached_property
    def skeleton(self) -> BWComplex:
        """The complex of (S, i*D), S the full subcategory on one object per
        isomorphism class; self when the category is already skeletal."""
        sub, system, _ = _skeleton(self.category, self.system)
        return self if sub is self.category else bw_differentials(sub, system)

    def cochain2_vector(self, delta: Cochain2) -> list[int]:
        """Coordinates of delta on the pairs of this complex; on a skeleton
        that is the restriction i* delta.  An entry whose length is not the
        rank of D at f∘g is refused."""
        vec = [0] * self.dim[2]
        for (f, g), v in _placed(self.category, self.system, delta).items():
            vec[self.offset2[f][g]:self.offset2[f][g] + len(v)] = v
        return vec


def _placed(cat: FinCategory, system: NaturalSystem, delta: Cochain2) -> dict:
    """delta's entries at composable pairs of cat, keyed by position; an
    entry whose length is not the rank of D at f∘g is refused."""
    return {at[:2]: _check_rank(key, v, system.rank[at[2]]) for key, v in delta.entries.items()
            if (at := _positions(cat, *key)) is not None}


def _check_rank(key, v, r):
    """v, refused unless it has the r coordinates of D at key."""
    if len(v) != r:
        raise ExtensionError(f"entry {key!r} has {len(v)} coordinates, but D there has rank {r}")
    return v


def _dense(rows, cols: int) -> list[list[int]]:
    out = []
    for row in rows:
        full = [0] * cols
        for j, x in row.items():
            full[j] = x
        out.append(full)
    return out


def _skeleton_objects(cat: FinCategory) -> tuple[list[str], list[tuple[int, int]]]:
    """One object per isomorphism class, the first of each in object order,
    and for each object x, by position, a pair (u, v) of morphism positions:
    u: x -> r(x) an isomorphism to the representative of x's class and v its
    inverse, both 1_x on a representative.

    One pass over the morphisms: an f: x -> y joins the classes of x and y
    when some g: y -> x has g∘f = 1_x and f∘g = 1_y.  Every isomorphic pair
    has such an f, so the classes are exactly the isomorphism classes.  The
    isomorphisms that joined two classes span each class as a tree, and u_x
    is composed along the path from r(x) to x.
    """
    objects, rows, unit, inpos = cat.objects, cat.rows, cat.identity_of, cat.inpos
    parent = list(range(len(objects)))
    joins: list[list[tuple[int, int, int]]] = [[] for _ in objects]    # y -> (x, a: x -> y, a^-1)

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for f, (x, y) in enumerate(zip(cat.src_of, cat.tgt_of)):
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        g = next((g for g in map(cat.index.__getitem__, cat.hom(objects[y], objects[x]))
                  if rows[g][inpos[f]] == unit[x] and rows[f][inpos[g]] == unit[y]), None)
        if g is not None:
            parent[max(rx, ry)] = min(rx, ry)
            joins[y].append((x, f, g))
            joins[x].append((y, g, f))
    isos: list[tuple[int, int] | None] = [None] * len(objects)
    for r in (i for i, p in enumerate(parent) if p == i):
        isos[r], stack = (unit[r], unit[r]), [r]
        while stack:
            y = stack.pop()
            u, v = isos[y]
            for x, a, b in joins[y]:
                if isos[x] is None:
                    isos[x] = (rows[u][inpos[a]], rows[b][inpos[v]])    # u∘a: x -> r, a^-1∘u^-1
                    stack.append(x)
    return [x for i, x in enumerate(objects) if parent[i] == i], isos


def _skeleton(cat: FinCategory, system: NaturalSystem):
    """(S, i*D, isos): the full subcategory S on the representatives of
    `_skeleton_objects` with the system restricted to it, and its isomorphisms
    (u_x, u_x⁻¹); cat and system themselves when cat is skeletal."""
    objects, isos = _skeleton_objects(cat)
    if len(objects) == len(cat.objects):
        return cat, system, isos
    sub = full_subcategory(cat, objects)
    pos = list(map(cat.index.__getitem__, sub.morphism_ids))
    push, pull = (tuple({j: maps[p][pos[j]] for j in sub.into[s]} for p, s in zip(pos, sub.src_of))
                  for maps in (system.push, system.pull))
    rank = tuple(map(system.rank.__getitem__, pos))
    return sub, NaturalSystem(sub, system.modulus, rank, push, pull), isos


def bw_differentials(cat: FinCategory, system: NaturalSystem) -> BWComplex:
    """The complex of (cat, system) with its dimensions in degrees 0..3,
    read off the ranks and the rows; the offsets, the triples and the
    differentials are built on first read."""
    rank, rows = system.rank, cat.rows
    width = [sum(map(rank.__getitem__, row)) for row in rows]    # W(u)
    dim3 = sum(sum(map(width.__getitem__, row)) for row in rows)
    return BWComplex(cat, system, (sum(map(rank.__getitem__, cat.identity_of)), sum(rank),
                                   sum(width), dim3))


def _add_entry(row, col, x):
    x += row.get(col, 0)
    if x:
        row[col] = x
    else:
        row.pop(col, None)


def _add_block(rows, col_off, block, sign):
    for i, brow in enumerate(block):
        target = rows[i]
        for j, x in enumerate(brow):
            if x:
                _add_entry(target, col_off + j, sign * x)


def _add_identity(rows, col_off, sign):
    for i, row in enumerate(rows):
        _add_entry(row, col_off + i, sign)


def _evaluate(rows, vec, modulus) -> Vector:
    """The sparse rows applied to a vector, reduced mod the modulus."""
    out = (sum(c * vec[j] for j, c in row.items()) for row in rows)
    return tuple(x % modulus for x in out) if modulus is not None else tuple(out)


def _check_zero_composite(second, first, modulus, label):
    for row in second:
        acc: dict[int, int] = {}
        for c, x in row.items():
            for j, y in first[c].items():
                acc[j] = acc.get(j, 0) + x * y
        for v in acc.values():
            if (v % modulus if modulus else v) != 0:
                raise AssertionError(f"{label} is not zero; differential assembly is wrong")


@dataclass(frozen=True)
class CohomologyGroup:
    invariants: tuple[int, ...]   # cyclic orders > 1
    free_rank: int                # dimension over Q when rational

    @property
    def order(self) -> int | None:
        if self.free_rank:
            return None
        out = 1
        for d in self.invariants:
            out *= d
        return out

    def describe(self) -> str:
        parts = [f"Z/{d}" for d in self.invariants]
        if self.free_rank:
            parts.append(f"Q^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def bw_cohomology(cat: FinCategory, system: NaturalSystem, degree: int,
                  complex_: BWComplex | None = None) -> CohomologyGroup:
    """Cohomology of the natural-system complex in degree 1 or 2.

    Computed on the skeleton of the complex (`BWComplex.skeleton`): the
    inclusion i: S -> C of a full subcategory that meets every isomorphism
    class is an equivalence, so H^n(C; D) = H^n(S; i*D) (Baues & Wirsching,
    J. Pure Appl. Algebra 38 (1985), Thm 1.11).  H^1 and H^2 read from one
    complex share its skeleton.
    """
    if degree not in (1, 2):
        raise ExtensionError("only degrees 1 and 2 are supported")
    cx = (complex_ if complex_ is not None else bw_differentials(cat, system)).skeleton
    d_n = cx.d2_rows if degree == 2 else cx.d1_rows
    d_prev = cx.d1_rows if degree == 2 else cx.d0_rows
    invariants, free_rank = linalg.homology(d_prev, d_n, system.modulus)
    return CohomologyGroup(invariants, free_rank)


# ---------------------------------------------------------------------------
# Building extensions
# ---------------------------------------------------------------------------

def fiber_morphism_name(f: str, vec: Vector) -> str:
    return f"{f}|{'.'.join(str(x) for x in vec)}"


@dataclass(frozen=True, eq=False)
class ExtensionCategory:
    base: FinCategory
    system: NaturalSystem
    cocycle: Cochain2
    total: FinCategory
    projection: Functor
    fiber: dict[str, tuple[str, ...]]             # base morphism -> fiber ids, by position
    tables: _FiberTables                          # the build's addition and transport tables


# An extension's tables hold its morphisms, its composites and the addition
# tables of its fibers; over this many entries it is refused before any is
# built.  j(H(6,2)) over Z/2, about half of it, builds in about 5 s and
# 80 MB on a 2-vCPU host.
EXTENSION_BUDGET = 1 << 21


def _position(vec, m: int) -> int:
    """Position of a vector of (Z/m)^r in lexicographic order, its
    coordinates read mod m: the base-m number with those digits."""
    pos = 0
    for x in vec:
        pos = pos * m + x % m
    return pos


class _FiberTables:
    """Index tables over the fibers (Z/m)^r of a system, positions as in
    `_position`.

    `addition[k][p][q]` is the position of the sum of the vectors at p and q
    in the fiber over morphism k (by index), and `pairs`, one entry for each
    composable pair (g, f) in table order, holds g_* on D_f and f^* on
    D_g as tables: table[p] is the position of the image of the vector at p.
    Each table is built once per rank or per distinct (matrix, rank), from
    the addition table alone: a matrix table grows one coordinate at a
    time, adding the multiples of that coordinate's column.
    """

    def __init__(self, cat: FinCategory, system: NaturalSystem):
        self.m, rank, push, pull = system.modulus, system.rank, system.push, system.pull
        self._by_rank: dict[int, list[list[int]]] = {}
        self._by_matrix: dict[tuple[Matrix, int], list[int]] = {}
        self.addition = [self._add(r) for r in rank]
        self.pairs = [(self.table(push[g][f], rank[f]), self.table(pull[g][f], rank[g]))
                      for g, (f, _) in cat.entries()]

    def _add(self, r: int) -> list[list[int]]:
        table = self._by_rank.get(r)
        if table is None:
            m = self.m
            digit = [[(x + y) % m for y in range(m)] for x in range(m)]
            table = [[0]]
            for _ in range(r):      # (p, x) + (q, y) = (p + q, x + y), x and y the last digits
                table = [[hi + lo for hi in shifted for lo in digit[x]]
                         for shifted in ([h * m for h in row] for row in table) for x in range(m)]
            self._by_rank[r] = table
        return table

    def table(self, mat: Matrix, r: int) -> list[int]:
        """The table of a matrix on (Z/m)^r, into the positions of the
        fiber of rank len(mat); built on first request and kept."""
        table = self._by_matrix.get((mat, r))
        if table is None:
            m, add = self.m, self._add(len(mat))
            table = [0]
            for j in range(r):
                column = _position([row[j] for row in mat], m)
                multiples = list(accumulate(repeat(column, m - 1), lambda s, c: add[s][c], initial=0))
                table = [add[t][x] for t in table for x in multiples]
            self._by_matrix[(mat, r)] = table
        return table


def _check_budget(cat: FinCategory, system: NaturalSystem):
    """Refuse, as ExtensionTooLarge, a total whose morphisms, Σ_f m^{r_f},
    composites, Σ_{(g,f)} m^{r_f + r_g}, and addition tables, Σ_r m^{2r}
    over the distinct ranks, exceed EXTENSION_BUDGET entries together.
    Counted from the ranks alone, before any element is named."""
    m, rank = system.modulus, system.rank
    sizes = [m ** r for r in rank]
    morphisms = sum(sizes)
    into_size = [sum(map(sizes.__getitem__, ys)) for ys in cat.into]
    composites = sum(size * into_size[s] for size, s in zip(sizes, cat.src_of))
    addition = sum(m ** (2 * r) for r in set(rank))
    if morphisms + composites + addition > EXTENSION_BUDGET:
        raise ExtensionTooLarge(f"the total would have {morphisms} morphisms and {composites} "
                                f"composites, with {addition} addition-table entries: over the "
                                f"budget of {EXTENSION_BUDGET} entries")


def build_extension(cat: FinCategory, system: NaturalSystem, delta: Cochain2) -> ExtensionCategory:
    """Total category with composition twisted by a normalized cocycle.

    The fiber over f is D_f acting by translation, and each total morphism
    (f, a) is named once, by `fiber_morphism_name`.  The composites are
    read off fiber indices: (g, b)∘(f, a) lies over g∘f at position
    add[add[-δ(g, f)][g_*[a]]][f^*[b]] of its fiber, where add, g_* and f^*
    are `_FiberTables` tables built once per rank or matrix, and are
    streamed into `build_category` for (g, f) in the base's table order,
    a, then b, with no table of the total built here; the total, like any
    category, lists its own pairs in its table order.  That category's
    associativity test is the cocycle test: at the zero elements,
    (h,0)∘((g,0)∘(f,0)) - ((h,0)∘(g,0))∘(f,0) lies over hgf with vector
    h_*δ(g,f) - δ(hg,f) + δ(h,gf) - f^*δ(h,g) = (d2 δ)(h,g,f), so a total
    that passes forces d2 δ = 0 for the d2 whose cohomology bw_cohomology
    computes; for a natural system the converse holds too.  When the total
    fails, `BWComplex.cocycle_defect` names the first failing triple in
    basis3 order (`NotACocycle`); with no such triple the category error
    stands.  A push or pull matrix of the wrong shape, possible only in a
    system built without `validate_natural_system`, is refused before the
    table is built, and so are a cocycle entry whose length is not the rank
    of D at f∘g and a total over `EXTENSION_BUDGET` (`ExtensionTooLarge`).
    Fullness, the torsor property and the linear distributivity law are
    verified on the result, which keeps the tables for the readers after it.
    `tests/oracles.py::extension_table_by_formula` builds the same table by
    vector arithmetic, the reference the tests compare with.
    """
    if system.modulus is None:
        raise ExtensionError("building a finite extension needs a finite modulus")
    if system.category != cat:
        raise BaseMismatch("system lives over a different category")
    if not is_normalized(system, delta):
        raise NotNormalized("cocycle must vanish on identity pairs")
    m, rank = system.modulus, system.rank
    _check_shapes(cat, rank, system.push, system.pull)
    placed = _placed(cat, system, delta)
    _check_budget(cat, system)

    morphisms = []
    fiber: dict[str, tuple[str, ...]] = {}      # base morphism -> total ids, by position
    for i, (f, s, t) in enumerate(cat.morphisms):
        fiber[f] = tuple(fiber_morphism_name(f, vec) for vec in iproduct(range(m), repeat=rank[i]))
        morphisms.extend((e, s, t) for e in fiber[f])
    identity = {x: fiber[cat.identity[x]][0] for x in cat.objects}
    tables = _FiberTables(cat, system)
    fibers = list(fiber.values())

    def composites():
        """For each (g, f) and a in D_f, the triples ((g, b), (f, a), their composite), b in D_g."""
        for (i, (j, k)), (pushed, pulled) in zip(cat.entries(), tables.pairs):
            fiber_g, fiber_gf, add = fibers[i], fibers[k], tables.addition[k]
            d = placed.get((i, j))
            minus_d = add[_position([-x for x in d], m) if d else 0]
            for fa, a_pushed in zip(fibers[j], pushed):
                row = add[minus_d[a_pushed]]
                yield zip(fiber_g, repeat(fa), map(fiber_gf.__getitem__, map(row.__getitem__, pulled)))

    try:
        total = build_category(cat.objects, morphisms, identity, chain.from_iterable(composites()))
    except CategoryError as err:
        defect = bw_differentials(cat, system).cocycle_defect(delta)
        if defect is not None:
            raise NotACocycle(f"d(delta) != 0 at {defect}") from err
        raise
    projection = Functor({x: x for x in cat.objects},
                         {e: f for f, named in fiber.items() for e in named})
    validate_functor(projection, total, cat)

    ext = ExtensionCategory(cat, system, delta, total, projection, fiber, tables)
    _verify_torsor(ext)
    _verify_distributivity(ext)
    return ext


def _verify_torsor(ext: ExtensionCategory):
    """Each fiber has m^r members, and translation acts on it freely and
    transitively: the orbit of its zero under the addition table is all of it."""
    m = ext.system.modulus
    for f, add, r in zip(ext.base.morphism_ids, ext.tables.addition, ext.system.rank):
        fib = ext.fiber[f]
        if len(fib) != m ** r:
            raise ExtensionError(f"fiber over {f!r} has the wrong size")
        if set(map(fib.__getitem__, add[0])) != set(fib):
            raise ExtensionError(f"fiber action over {f!r} is not transitive")


def _verify_distributivity(ext: ExtensionCategory):
    """(f, a)∘(g, b) = (fg, c + f_* b + g^* a) over every composable base
    pair, where (fg, c) = (f, 0)∘(g, 0) is read from the total: checked on
    the total's int rows, the element of D_f at position a being total
    morphism offset(f) + a, against the tables the build used."""
    cat, ids, tables = ext.base, ext.base.morphism_ids, ext.tables
    rows, inpos = ext.total.rows, ext.total.inpos
    offset = list(accumulate((len(ext.fiber[f]) for f in ids), initial=0))
    for (i, (j, k)), (pushed, pulled) in zip(cat.entries(), tables.pairs):
        off_f, at_g, off_fg, add = offset[i], inpos[offset[j]], offset[k], tables.addition[k]
        c = rows[off_f][at_g] - off_fg
        if not 0 <= c < len(add):
            raise ExtensionError(f"distributivity fails over ({ids[i]!r}, {ids[j]!r})")
        # the fiber over g is consecutive in the morphisms, so in into(src f)
        got = [x for row in rows[off_f:off_f + len(pulled)] for x in row[at_g:at_g + len(pushed)]]
        want = [off_fg + add[add[c][a]][b] for a in pulled for b in pushed]
        if got != want:
            raise ExtensionError(f"distributivity fails over ({ids[i]!r}, {ids[j]!r})")


# ---------------------------------------------------------------------------
# Lifting schemoid structure
# ---------------------------------------------------------------------------

def lift_schemoid(base_qs: QuasiSchemoid, ext: ExtensionCategory) -> QuasiSchemoid:
    """Preimage partition on the total category, re-verified, with the
    fiber-size scaling of the structure constants asserted.  Every push and
    pull must be invertible: a pair whose transport table, read from the
    build's tables, is no bijection onto its target fiber is refused."""
    system = ext.system
    if base_qs.category != ext.base:
        raise BaseMismatch("schemoid lives over a different category")
    cat, m, rank = ext.base, system.modulus, system.rank
    ids, index = cat.morphism_ids, cat.index
    checked: set[int] = set()       # tables are kept per (matrix, rank): one shared has one target
    for (g, (f, gf)), tables in zip(cat.entries(), ext.tables.pairs):
        for t in (t for t in tables if id(t) not in checked):
            if len(t) != m ** rank[gf] or len(set(t)) != len(t):
                raise HypothesisFailed(f"transport matrix at {(ids[g], ids[f])} is not invertible")
            checked.add(id(t))
    for name, members in base_qs.partition.blocks.items():
        ranks = {rank[cat.identity_of[cat.src_of[index[f]]]] for f in members}
        if len(ranks) != 1:
            raise HypothesisFailed(f"source-identity ranks differ inside block {name!r}")

    blocks: dict[str, list[str]] = {}
    for f, named in ext.fiber.items():
        blocks.setdefault(base_qs.partition.block_of[f], []).extend(named)
    partition = make_partition(ext.total, blocks)
    # the lifted partition satisfies the axiom with the scaled constants;
    # a violation is this program's fault, not the input's
    try:
        constants = check_concatenation(ext.total, partition)
    except AxiomViolation as err:
        raise AssertionError(f"the lifted partition fails the axiom: {err}") from err

    # scaling law: lifted p = |D_f| * base p with f in the composite block;
    # f_* on D_{1_src f} is a bijection onto D_f, so rank f = rank 1_src(f)
    # and the source-identity check above makes |D_f| one number per block
    names = base_qs.partition.names()
    scale = {mu: m ** rank[index[next(iter(base_qs.partition.blocks[mu]))]] for mu in names}
    for sigma in names:
        for tau in names:
            for mu in names:
                if constants.p(sigma, tau, mu) != scale[mu] * base_qs.p(sigma, tau, mu):
                    raise AssertionError(f"scaling law fails at ({sigma!r}, {tau!r}, {mu!r})")
    return QuasiSchemoid(ext.total, partition, constants)


def lift_involution(base_qs: QuasiSchemoid, ext: ExtensionCategory) -> QuasiSchemoid:
    """Groupoid structure and involution on a lifted schemoid.

    Requires a connected groupoid base whose involution is the inverse map;
    the system may be any one whose transports `lift_schemoid` accepts.
    Over a groupoid base the total is a groupoid: f_* between the fibers
    over f⁻¹ and over an identity is a bijection, so (f, a) has a right and
    a left inverse over f⁻¹.  The lifted involution is the total's own
    inverse map (`as_groupoid`), certified by `check_association` on the
    lifted partition.  That the projection intertwines it with the base
    involution, and that it permutes blocks as the base involution does,
    can fail only by this program's fault: AssertionError.
    """
    cat = ext.base
    if base_qs.involution is None:
        raise BaseNotConnectedGroupoid("base schemoid carries no involution")
    try:
        gpd = as_groupoid(cat)
    except NotInvertible as err:
        raise BaseNotConnectedGroupoid("base is not a groupoid") from err
    if len(cat.components()) != 1:
        raise BaseNotConnectedGroupoid("base is not connected")
    if any(base_qs.involution.functor.morphism_map[f] != gpd.inverse[f]
           for f in cat.morphism_ids):
        raise BaseNotConnectedGroupoid("base involution is not the inverse map")

    lifted = lift_schemoid(base_qs, ext)
    total = ext.total
    inverse = as_groupoid(total).inverse
    t = Functor({x: x for x in total.objects}, inverse, contravariant=True)
    involution = check_association(total, lifted.partition, t)
    # compatibility with the base involution through the projection
    base_t = base_qs.involution.functor
    for e in total.morphism_ids:
        if ext.projection.morphism_map[inverse[e]] != base_t.morphism_map[ext.projection.morphism_map[e]]:
            raise AssertionError("projection does not intertwine the involutions")
    for sigma, star in base_qs.involution.block_image.items():
        if involution.block_image[sigma] != star:
            raise AssertionError("lifted involution permutes blocks differently from the base")
    return QuasiSchemoid(total, lifted.partition, lifted.constants, involution)


# ---------------------------------------------------------------------------
# Splitting and equivalence
# ---------------------------------------------------------------------------

def _transported(e2: ExtensionCategory, e1: ExtensionCategory | None) -> list[int] | None:
    """The fiber position p of φ(f, 0) = (f, p), for each base morphism f,
    of a functor φ: E1 -> E2 over the base, or None when there is none; E1
    is None for the split extension, which is not built.

    φ(f, a) = (f, a + F(f)) is a functor exactly when d F = δ2 - δ1, solved
    on the skeleton S alone, as i* is injective on H^2 (Baues & Wirsching,
    Thm 1.11).  The solution's φ_S over S is moved onto the whole base as

        φ(e: x -> y) = ũ2_y⁻¹ ∘ φ_S(ũ1_y ∘ e ∘ ũ1_x⁻¹) ∘ ũ2_x,

    ũ_x = (u_x, 0) in E1 or E2 lifting the isomorphism u_x: x -> r(x) that
    `_skeleton_objects` certifies, and ũ_x⁻¹ its inverse in the fiber over
    u_x⁻¹.  The inner ũ_y⁻¹ ∘ ũ_y cancel in φ(e')∘φ(e), and a translation
    rides along u_y⁻¹∘u_y = 1_y, so φ is a functor with φ(f, a) = φ(f, 0) + a.
    From the split source the inner conjugate of (f, 0) is (u_y∘f∘u_x⁻¹, 0).
    A total holds (f, a) at position offset(f) + a, so all is read on int rows.
    """
    cat, system = e2.base, e2.system
    m = system.modulus
    sub, restricted, isos = _skeleton(cat, system)
    sk = bw_differentials(sub, restricted)
    rhs = sk.cochain2_vector(e2.cocycle)
    if e1 is not None:
        rhs = [a - b for a, b in zip(rhs, sk.cochain2_vector(e1.cocycle))]
    sol = linalg.solve(sk.d1_rows, rhs, sk.dim[1], m)
    if sol is None:
        return None
    shift = {cat.index[f]: _position(sol[off:off + r], m)                # F_S, by base position
             for f, off, r in zip(sub.morphism_ids, sk.offset1, restricted.rank)}
    offset = list(accumulate((m ** r for r in system.rank), initial=0))
    lift = [offset[u] for u, _ in isos]                                   # ũ_x, by object

    def comp(c: FinCategory, f: int, g: int) -> int:                  # f∘g, by position
        return c.rows[f][c.inpos[g]]

    def inverses(total: FinCategory) -> list[int]:                     # ũ_x⁻¹, by object
        return [next(w for w in range(offset[v], offset[v + 1]) if comp(total, w, lu) == one)
                for (_, v), lu, one in zip(isos, lift, total.identity_of)]

    t2, add, back2 = e2.total, e2.tables.addition, inverses(e2.total)
    if e1 is not None:
        t1, back1 = e1.total, inverses(e1.total)
    image = []
    for f, (x, y) in enumerate(zip(cat.src_of, cat.tgt_of)):
        bar = comp(cat, comp(cat, isos[y][0], f), isos[x][1])           # u_y∘f∘u_x⁻¹
        a = 0 if e1 is None else comp(t1, comp(t1, lift[y], offset[f]), back1[x]) - offset[bar]
        inner = offset[bar] + add[bar][a][shift[bar]]                     # φ_S of the conjugate
        image.append(comp(t2, back2[y], comp(t2, inner, lift[x])) - offset[f])
    return image


def _certified(fun: Functor, source: FinCategory, target: ExtensionCategory, over: dict) -> Functor:
    """fun, checked as a functor source -> target.total whose projection
    takes fun(e) to over[e].  A witness from `_transported` that fails is
    this program's fault: AssertionError."""
    try:
        validate_functor(fun, source, target.total)
    except NotAFunctor as err:
        raise AssertionError(f"the witness is no functor: {err}") from err
    q, image = target.projection.morphism_map, fun.morphism_map
    if any(q[image[e]] != f for e, f in over.items()):
        raise AssertionError("the witness does not lie over the base")
    return fun


def is_split(ext: ExtensionCategory) -> Functor | None:
    """A verified section s with q∘s = id, or None: s(f) = φ(f, 0) for the
    φ that `_transported` finds from the split extension, (f, F(f)) with
    d F = δ, checked as a functor into the total over the base."""
    image = _transported(ext, None)
    if image is None:
        return None
    cat = ext.base
    section = Functor({x: x for x in cat.objects},
                      {f: ext.fiber[f][p] for f, p in zip(cat.morphism_ids, image)})
    return _certified(section, cat, ext, {f: f for f in cat.morphism_ids})


def equivalence(e1: ExtensionCategory, e2: ExtensionCategory) -> Functor | None:
    """A functor φ: E1.total -> E2.total over the base, φ(f, a) = (f, a + F(f))
    with d F = δ2 - δ1 and φ(f, 0) from `_transported`, checked before it is
    returned; None when the extensions are not equivalent.  Both must have
    the same base and system (BaseMismatch)."""
    if e1.base != e2.base:
        raise BaseMismatch("different base categories")
    if e1.system != e2.system:
        raise BaseMismatch("different natural systems")
    image = _transported(e2, e1)
    if image is None:
        return None
    phi = Functor({x: x for x in e1.base.objects},
                  {e: e2.fiber[f][add[a][p]]
                   for f, p, add in zip(e1.base.morphism_ids, image, e2.tables.addition)
                   for a, e in enumerate(e1.fiber[f])})
    return _certified(phi, e1.total, e2, e1.projection.morphism_map)


def extensions_equivalent(e1: ExtensionCategory, e2: ExtensionCategory) -> bool:
    """Whether `equivalence` finds a functor E1 -> E2 over the base."""
    return equivalence(e1, e2) is not None
