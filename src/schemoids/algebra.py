"""Category algebras, schemoid (Bose-Mesner) algebras and Terwilliger algebras.

Coefficients are the rationals or a prime field; all linear algebra is
exact.  The schemoid algebra of a verified quasi-schemoid is the span of
the block sums s_sigma inside the category algebra, with multiplication
governed by the structure constants.

The structure constants are stored once as sparse rows: rows[(sigma, tau)]
maps mu to c^mu_{sigma tau} for the nonzero constants only, and a pair
with no nonzero constant has no row.  Multiplication, the associativity
check and the unit certificate all walk these rows, so their cost follows
the number of nonzero constants, not the fifth power of the dimension.
The associativity check makes one accumulation per basis pair
(sigma, tau): both sides of the associative law, for every (rho, nu) at
once, keyed by rho k + nu on basis indices, and one comparison of the two.

Unitality of the schemoid algebra is decided in the subalgebra sense: the
algebra is unital exactly when the unit of the ambient category algebra,
the sum of all identities, lies in the block-sum span.  Then it is
certified by substitution, as a two-sided unit of every basis element,
and, being unique, it is the tensor unit.  An abstract unit of the
structure-constant tensor alone can exist over Q even for a non-unital
schemoid (a single-block group already shows this), so when the sum of
identities is not in the span the tensor unit is solved for, and tensor
unit existence and subalgebra unitality are reported separately.

Over Q the structure constants are integers, and so are the entries of
the generators a closure starts from, up to a common denominator.  The
associativity check, the unit solve and the closure therefore run on
integers (residues mod p over F_p), through the one exact elimination of
`linalg`; `Fraction` values appear only in the objects returned.  The
algebra keeps the integer rows it checked, and `multiply` walks them, so a
product of Fraction vectors is still a Fraction vector.  The hom check is
fraction-free: with D the lcm of a map's denominators, f is multiplicative
exactly when D (Df)(xy) = (Df)(x) (Df)(y), and both sides are integer.
Closure vectors are keyed by morphism position, column c naming the
morphism order[c], so products read the composition rows directly; labels
are met only when the generators come in.

Generated subalgebras (the Terwilliger algebra) are closed under the
generators only.  The pivot rows of one elimination grow one row at a time:
each generator and each product is reduced against them, and a nonzero
residue becomes a pivot row, its pivot its first column in morphism order,
and waits.  The generators' residues span what the generators span.  A
waiting row is multiplied on the right by each generator residue, so at
most dim x r products are taken, r the number of residues, where products
of every pair of rows would take about dim^2.  A product f g is nonzero
only when g ends where f starts, so each residue is indexed by target
object once, and a pair in which no source of the row is a target of the
residue is skipped: its product is exactly zero.  When none is waiting,
the span V holds the generators and V s lies in V for every generator s;
by induction V holds every nonempty word in the generators, and every row
of V is a combination of such words, so V is exactly the generated
subalgebra.  Back substitution then gives its reduced echelon basis, which
is unique.

The Terwilliger algebra is generated by homogeneous pieces E*_i A_sigma
E*_j rather than by the whole block sums (Terwilliger, "The subconstituent
algebra of an association scheme I", J. Algebraic Combin. 1 (1992)).  A
homogeneous row times a homogeneous residue is zero unless the levels
meet, so the grading is what makes most pairs skippable.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .fincat import SchemoidsError
from .linalg import (
    _Echelon,
    _eliminate,
    _rows_over,
    is_prime,
)
from .schemoid import QuasiSchemoid, identity_blocks


class AlgebraError(SchemoidsError):
    pass


class NotTerminal(AlgebraError):
    pass


class HomCheckFailed(AlgebraError):
    pass


class Rationals:
    p = None            # eliminations over Q run on integer rows, with no modulus
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def inv(self, a):
        return 1 / a

    def name(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __repr__(self):
        return "Q"


class PrimeField:
    zero = 0
    one = 1

    def __init__(self, p: int):
        if not is_prime(p):
            raise AlgebraError(f"{p} is not prime")
        self.p = p

    def from_int(self, n):
        return n % self.p

    def inv(self, a):
        return pow(a % self.p, -1, self.p)

    def name(self):
        return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __repr__(self):
        return f"F{self.p}"


def ring_from_name(name: str):
    if name in ("Q", "q"):
        return Rationals()
    if name and name[0] in "Ff" and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise AlgebraError(f"unknown ring {name!r}; use Q or Fp")


def _sparse_rows(tensor, ring) -> dict:
    """(sigma, tau) -> {mu: c^mu_{sigma tau}}, nonzero constants only,
    reduced mod p over F_p."""
    p = ring.p
    rows: dict[tuple, dict] = {}
    for (sigma, tau, mu), c in tensor.items():
        if p:
            c %= p
        if c:
            rows.setdefault((sigma, tau), {})[mu] = c
    return rows


def _nonzero(acc: dict, p) -> dict:
    """The entries of acc, reduced mod p when p is set, that are not zero."""
    if p:
        return {k: y for k, x in acc.items() if (y := x % p)}
    return {k: x for k, x in acc.items() if x}


def _combination(terms, ring) -> dict:
    """Sum of a * row over the (a, row) terms, as a sparse vector; rows may be None."""
    acc: dict = {}
    for a, row in terms:
        if row:
            for k, x in row.items():
                acc[k] = acc.get(k, 0) + a * x
    return _nonzero(acc, ring.p)


@dataclass(frozen=True, eq=False)
class SchemoidAlgebra:
    basis: tuple[str, ...]
    rows: dict[tuple[str, str], dict[str, int]]  # (sigma, tau) -> {mu: integer constant}
    ring: object
    unital: bool
    unit: dict[str, object] | None          # coordinates of sum of identities, when unital
    tensor_unit: dict[str, object] | None   # abstract two-sided unit of the tensor, if any

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def tensor(self) -> Mapping[tuple[str, str, str], object]:
        """(sigma, tau, mu) -> c^mu_{sigma tau} as a ring element, nonzero
        ones only, in the order of the rows: a read-only view of them,
        built on first read and kept."""
        from_int = self.ring.from_int
        return MappingProxyType({(sigma, tau, mu): from_int(c)
                                 for (sigma, tau), row in self.rows.items()
                                 for mu, c in row.items()})

    def c(self, sigma, tau, mu):
        return self.ring.from_int(self.rows.get((sigma, tau), {}).get(mu, 0))

    def multiply(self, u: dict, v: dict) -> dict:
        """u * v over the integer rows; Fraction coordinates give Fraction ones."""
        rows = self.rows
        return _combination(((a * b, rows.get((sigma, tau)))
                             for sigma, a in u.items() if a
                             for tau, b in v.items() if b), self.ring)


def schemoid_algebra(qs: QuasiSchemoid, ring) -> SchemoidAlgebra:
    """Block-sum subalgebra of the category algebra, with tensor checks.

    The checks run on the integer constants, reduced mod p over F_p, and
    the algebra keeps those rows, its one copy of the constants; they
    become ring elements only when read, through `c` or `tensor`.
    """
    basis = tuple(qs.partition.names())
    rows = _sparse_rows(qs.constants.entries, ring)
    _assert_associative(basis, rows, ring)
    unital_flag, unit, tensor_unit = _unit_analysis(qs, basis, rows, ring)
    return SchemoidAlgebra(basis, rows, ring, unital_flag, unit, tensor_unit)


def _assert_associative(basis, rows, ring):
    """sum_mu c^mu_{sigma tau} c^nu_{mu rho} = sum_mu c^mu_{tau rho} c^nu_{sigma mu}
    for every sigma, tau, rho, nu in the basis.

    One accumulation per pair (sigma, tau) builds both sides for every
    (rho, nu) at once, keyed by rho k + nu on basis indices (k the
    dimension): the left side walks the rows (mu, rho) of each mu in row
    (sigma, tau), the right side the rows (sigma, mu) of each mu in a row
    (tau, rho).  Each side is reduced mod p and stripped of zeros once, and
    one comparison decides the pair.  On a mismatch the smallest differing
    key is the (rho, nu) a dense scan in basis order meets first, so the
    failure reported is the dense scan's.
    """
    k = len(basis)
    index = {b: i for i, b in enumerate(basis)}
    out_of: dict[str, list] = {}    # mu -> (rho k + nu, c^nu_{mu rho}) over the rows (mu, rho)
    after: dict[str, list] = {}     # tau -> (rho k, mu, c^mu_{tau rho}) over the rows (tau, rho)
    indexed: dict[tuple, list] = {}     # (sigma, mu) -> (nu, c^nu_{sigma mu})
    for (x, rho), row in rows.items():
        r = index[rho] * k
        out_of.setdefault(x, []).extend((r + index[y], c) for y, c in row.items())
        after.setdefault(x, []).extend((r, y, c) for y, c in row.items())
        indexed[(x, rho)] = [(index[y], c) for y, c in row.items()]
    p = ring.p
    for sigma in basis:
        for tau in basis:
            lhs: dict[int, int] = {}
            for mu, a in rows.get((sigma, tau), {}).items():
                for key, c in out_of.get(mu, ()):
                    lhs[key] = lhs.get(key, 0) + a * c
            rhs: dict[int, int] = {}
            for r, mu, a in after.get(tau, ()):
                for nu, c in indexed.get((sigma, mu), ()):
                    rhs[r + nu] = rhs.get(r + nu, 0) + a * c
            lhs, rhs = _nonzero(lhs, p), _nonzero(rhs, p)
            if lhs != rhs:
                key = min(key for key in lhs.keys() | rhs.keys() if lhs.get(key) != rhs.get(key))
                raise AlgebraError(f"tensor not associative at "
                                   f"({sigma}, {tau}, {basis[key // k]}, {basis[key % k]})")


def _unit_analysis(qs, basis, rows, ring):
    """Whether the sum of identities is the unit, and the two-sided tensor unit.

    When the sum of identities lies in the block-sum span, with coordinates
    1 on the blocks U of identities, it is checked by substitution on the
    integer rows: sum_{sigma in U} s_sigma s_x = s_x = sum_{sigma in U} s_x s_sigma
    for every basis element x.  A two-sided unit is unique, so it is then
    the tensor unit, and no elimination runs.  The ambient unit acts as a
    unit on the span, so a failed substitution is the program's own fault:
    an internal error (`AssertionError`), not a verdict.  Only when the sum
    of identities is not in the span is the tensor unit solved for, by
    `_solve_tensor_unit`.
    """
    unit = _identity_sum_coords(qs, basis, ring)
    if unit is None:
        return False, None, _solve_tensor_unit(basis, rows, ring)
    for x in basis:
        left = _combination(((1, rows.get((sigma, x))) for sigma in unit), ring)
        right = _combination(((1, rows.get((x, sigma))) for sigma in unit), ring)
        if left != {x: 1} or right != {x: 1}:
            raise AssertionError("unit cross-check failed: identity sum lies in the "
                                 "span but is not the tensor unit")
    return True, unit, dict(unit)


def _identity_sum_coords(qs, basis, ring):
    """Expansion of sum-of-identities in the block-sum basis, or None.

    The s_sigma have disjoint supports, so the expansion exists exactly when
    no block mixes identities with other morphisms; it is then 1 on each
    block of identities, in block order, which is the order of the basis.
    """
    meeting, mixed = identity_blocks(qs.category, qs.partition)
    return None if mixed else dict.fromkeys(meeting, ring.one)


# ---------------------------------------------------------------------------
# Reduced echelon form over a field
# ---------------------------------------------------------------------------
# Every elimination here is linalg._Echelon with p = ring.p: over Q on
# integer rows divided by their content, over F_p on residues mod p.  Its
# back substitution gives the reduced echelon form, which is unique: pivot
# entry 1 and each pivot column zero in every other row, with Fraction
# entries over Q.

def _solve_tensor_unit(basis, rows, ring):
    """Intersect the left-unit and right-unit linear systems.

    Left unit: sum_sigma c^mu_{sigma tau} u_sigma = delta_{mu tau}; right
    unit: sum_tau c^mu_{sigma tau} u_tau = delta_{mu sigma}.  Equations are
    sparse rows over the unknowns, numbered in basis order, with the
    right-hand side as the last column; an equation that comes down to its
    right-hand side alone makes the system inconsistent.  With free unknowns
    set to 0, the solution is read off the reduced echelon form.  A
    two-sided unit is unique, so any solution is the unit.
    """
    index = {b: i for i, b in enumerate(basis)}
    rhs = len(basis)
    left: dict[tuple, dict] = {}
    right: dict[tuple, dict] = {}
    for (sigma, tau), row in rows.items():
        for mu, c in row.items():
            left.setdefault((tau, mu), {})[index[sigma]] = c
            right.setdefault((sigma, mu), {})[index[tau]] = c
    for x in basis:
        for system in (left, right):
            if (x, x) not in system:
                return None     # the equation reads 0 = 1
            system[(x, x)][rhs] = 1
    equations = _rows_over([*left.values(), *right.values()], ring.p)
    ech = _eliminate(equations, ring.p, 1, rhs=rhs)
    if ech is None:
        return None
    return {basis[j]: row[rhs] for j, row in ech.back_substitute().items() if rhs in row}


# ---------------------------------------------------------------------------
# Category-algebra vectors and the Terwilliger algebra
# ---------------------------------------------------------------------------

@dataclass
class CategoryAlgebraClosure:
    """Span basis of a generated subalgebra of the category algebra.

    Vectors are sparse and keyed by morphism position: column c is the
    morphism order[c], so they index the category's composition rows."""
    category: object
    ring: object
    order: tuple[str, ...]                   # order[c] names column c
    basis: list[dict[int, object]]           # fully reduced rows, sorted by pivot

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def multiply(self, u: dict, v: dict) -> dict:
        """u * v, pairing each f in u only with the g in v that end where f starts."""
        return _product(self.category, u, _by_target(self.category, v), self.ring.p)

    def contains(self, vec: dict) -> bool:
        """vec lies in the span.  One pass over the basis reduces it: each
        row, taken at its pivot (its first column), leaves the coefficients
        at the other pivots as they are, since the basis is fully reduced."""
        p = self.ring.p
        rest = {c: x % p for c, x in vec.items()} if p else dict(vec)
        for row in self.basis:
            f = rest.get(min(row))
            if f:
                for c, y in row.items():
                    z = rest.get(c, 0) - f * y
                    rest[c] = z % p if p else z
        return not any(rest.values())


def _by_target(cat, v: dict) -> dict[int, list]:
    """The nonzero entries of v, grouped by the position of their
    morphism's target: (inpos[g], b) for the entry b at g, its place in
    the rows of the morphisms out of that target."""
    tgt_of, inpos = cat.tgt_of, cat.inpos
    ending_at: dict[int, list] = {}
    for g, b in v.items():
        if b:
            ending_at.setdefault(tgt_of[g], []).append((inpos[g], b))
    return ending_at


def _product(cat, u: dict, ending_at: dict, p) -> dict:
    """u * v for v indexed by `_by_target`: each f in u meets only the g
    that end where f starts.  Reduced mod p when p is set."""
    rows, src_of = cat.rows, cat.src_of
    out: dict[int, object] = {}
    for f, a in u.items():
        if a:
            row = rows[f]
            for at, b in ending_at.get(src_of[f], ()):
                h = row[at]
                out[h] = out.get(h, 0) + a * b
    return _nonzero(out, p)


def span_closure(cat, ring, generators: list[dict]) -> CategoryAlgebraClosure:
    """The subalgebra of the category algebra generated by the given vectors.

    The generators are keyed by morphism id and are converted to position
    keys once, on entry.  Each pivot row is multiplied on the right by the
    generator residues only, the nonzero rows the generators leave after
    reduction, each indexed by target object once (`_by_target`).  A pair
    in which no source of the row is a target of the residue is skipped,
    since its product is exactly zero; the others are taken by `_product`,
    at most dim x r of them.  Certificate: the span V of the pivot rows
    contains the generators and V s lies in V for each residue s, hence for
    each generator; by induction V contains every nonempty word in the
    generators, and each pivot row is a combination of words, so V is the
    generated subalgebra.  The reduced echelon basis of V is unique, so it
    is the one any closure of the same span gives.
    """
    column, p, src_of = cat.index, ring.p, cat.src_of
    ech = _Echelon(p, 1)
    waiting: deque[dict] = deque()      # pivot rows not yet multiplied

    def add(row):
        ech.reduce(row)
        if row:
            ech.add(row, min(row), 0)
            waiting.append(row)

    for row in _rows_over([{column[m]: x for m, x in g.items()} for g in generators], p):
        add(row)
    residues = [_by_target(cat, s) for s in waiting]
    while waiting:
        new = waiting.popleft()
        sources = {src_of[f] for f in new}
        for ending_at in residues:
            if not sources.isdisjoint(ending_at):
                add(_product(cat, new, ending_at, p))
    return CategoryAlgebraClosure(cat, ring, cat.morphism_ids,
                                  list(ech.back_substitute().values()))


def terwilliger(qs: QuasiSchemoid, e: str, ring) -> CategoryAlgebraClosure:
    """Subalgebra generated by the block sums and the idempotents E*_sigma.

    e must be a terminal object: exactly one morphism x -> e per object x,
    whose block is the level of x.  E*_sigma sums the identities 1_x over
    the x of level sigma.  A name that is no object is refused as unknown,
    and a nonterminal object with the witness (x, e, |Hom(x, e)|), both as
    `NotTerminal`.

    The closure is generated by the E*_i and the pieces E*_i A_sigma E*_j
    of the block sums, each the sum of the morphisms of sigma whose target
    has level i and whose source has level j.  Each piece is a product of
    generators, and A_sigma is the sum of its pieces because the E*_i sum
    to the identity, so both generating sets give the same algebra.
    """
    cat = qs.category
    if e not in cat.identity:
        raise NotTerminal(f"unknown object {e!r}")
    block_of = qs.partition.block_of
    level = []      # object position -> level, the block of its morphism to e
    for x in cat.objects:
        arrows = cat.hom(x, e)
        if len(arrows) != 1:
            raise NotTerminal(f"{e!r} is not terminal: Hom({x!r}, {e!r}) has "
                              f"{len(arrows)} morphisms", (x, e, len(arrows)))
        level.append(block_of[arrows[0]])
    src_of, tgt_of = cat.src_of, cat.tgt_of
    pieces: dict[tuple, dict] = {}     # (sigma, level of target, level of source) -> piece
    for c, m in enumerate(cat.morphism_ids):
        pieces.setdefault((block_of[m], level[tgt_of[c]], level[src_of[c]]), {})[m] = ring.one
    idempotents: dict[str, dict] = {}
    for x, i in zip(cat.objects, level):
        idempotents.setdefault(i, {})[cat.identity[x]] = ring.one
    # sanity: the idempotents resolve the identity
    total = _combination(((ring.one, vec) for vec in idempotents.values()), ring)
    expected = {cat.identity[x]: ring.one for x in cat.objects}
    if total != expected:
        raise AlgebraError("sum of E_sigma is not the sum of identities")
    return span_closure(cat, ring, [*pieces.values(), *idempotents.values()])


# ---------------------------------------------------------------------------
# Algebra maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AlgebraMap:
    source: SchemoidAlgebra
    target: SchemoidAlgebra
    matrix: dict[tuple[str, str], object]   # (target basis, source basis) -> coefficient

    @cached_property
    def columns(self) -> dict:
        """source basis element -> {target basis element: coefficient}."""
        cols: dict[str, dict] = {}
        for (t, s), coeff in self.matrix.items():
            cols.setdefault(s, {})[t] = coeff
        return cols

    def apply(self, u: dict) -> dict:
        columns = self.columns
        return _combination(((a, columns.get(s)) for s, a in u.items()), self.target.ring)


def check_algebra_hom(amap: AlgebraMap, a: SchemoidAlgebra, b: SchemoidAlgebra):
    """f(xy) = f(x)f(y) on all basis pairs; unit to unit when both unital.

    Fraction-free.  Over Q let D be the lcm of the matrix's denominators
    (1 for an empty matrix) and g = D f, whose columns are integral; f is
    multiplicative exactly when D g(sigma tau) = g(sigma) g(tau), and both
    sides are computed on the integer rows of a and b.  Over F_p the
    columns are residues and D = 1.

    Returns (True, None) or (False, witness pair), the first failing pair
    in basis order, sigma before tau.
    """
    ring = b.ring
    p = ring.p
    d = 1 if p else math.lcm(*(x.denominator for x in amap.matrix.values()))
    columns = {s: {t: x % p if p else int(x * d) for t, x in col.items()}
               for s, col in amap.columns.items()}
    rows_a, rows_b = a.rows, b.rows
    for sigma in a.basis:
        g_sigma = columns.get(sigma, {})
        for tau in a.basis:
            g_tau = columns.get(tau, {})
            lhs = _combination(((d * c, columns.get(mu))
                                for mu, c in rows_a.get((sigma, tau), {}).items()), ring)
            rhs = _combination(((x * y, rows_b.get((s, t)))
                                for s, x in g_sigma.items() for t, y in g_tau.items()), ring)
            if lhs != rhs:
                return False, (sigma, tau)
    if a.unital and b.unital:
        if amap.apply(a.unit) != b.unit:
            return False, ("unit", "unit")
    return True, None


def compose_algebra_maps(second: AlgebraMap, first: AlgebraMap) -> AlgebraMap:
    ring = second.target.ring
    matrix = {}
    for t in second.target.basis:
        for s in first.source.basis:
            acc = ring.zero
            for mid in first.target.basis:
                x = second.matrix.get((t, mid))
                y = first.matrix.get((mid, s))
                if x and y:
                    acc += x * y
            if ring.p:
                acc %= ring.p
            if acc != ring.zero:
                matrix[(t, s)] = acc
    return AlgebraMap(first.source, second.target, matrix)


def identity_algebra_map(a: SchemoidAlgebra) -> AlgebraMap:
    return AlgebraMap(a, a, {(b, b): a.ring.one for b in a.basis})
