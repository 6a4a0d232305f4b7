"""Finite small categories, groupoids and functors.

A category has opaque string ids for objects and morphisms and an identity
assignment.  Morphisms and objects are numbered in input order, and into(x)
lists the morphisms into object x in morphism order.  The composition
convention is f∘g with src(f) = tgt(g): g is applied first.  The table is
one list of integers per morphism, aligned with into(src f): rows[i][p] =
k says that morphism k is the composite i∘into(src i)[p], and inpos[j] is
the position of j in into(tgt j), so the composite i∘j is
rows[i][inpos[j]].  The pairs are listed in this table order however the
category was built: f in morphism order, g over into(src f).  Labels
appear only at the boundary: `comp` looks up one composite by name, and
`compose`, the table keyed by label pairs, is a read-only view derived
from the rows on first read, for callers outside the library.  Validated
values are immutable by convention; every operation builds fresh
structures.

A category document writes its composition in one of two forms.
`serialize` writes a table: one integer per composable pair, f in
morphism order and, for each f, g over the morphisms into src(f) in
morphism order, the entry being the position of f∘g in "morphisms".  A
hand-written document may instead list [f, g, fg] label triples, in any
order and without the pairs the unit laws fill in.  `read_category` tells
the two apart by the JSON type of the first entry and reads both into the
same rows, which one check then certifies.  A table is exactly the rows
concatenated.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain
from types import MappingProxyType


class SchemoidsError(Exception):
    """Root of every refusal: a verdict on the input; `witness` names where a law fails."""

    def __init__(self, message="", witness=None):
        self.witness = witness
        super().__init__(message)


class MalformedDocument(SchemoidsError):
    """A JSON document of the wrong shape; the message names the field."""


class CategoryError(SchemoidsError):
    """Base for category-law violations."""


class MissingIdentity(CategoryError):
    pass


class NonAssociative(CategoryError):
    """(e∘f)∘g differs from e∘(f∘g); carries a witness (e, f, g, lhs, rhs)."""

    def __init__(self, e, f, g, lhs, rhs):
        super().__init__(f"({e!r}∘{f!r})∘{g!r} = {lhs!r} but {e!r}∘({f!r}∘{g!r}) = {rhs!r}",
                         (e, f, g, lhs, rhs))


class UndefinedComposite(CategoryError):
    pass


class EndpointMismatch(CategoryError):
    pass


class NotInvertible(CategoryError):
    pass


class CategoryTooLarge(SchemoidsError):
    """A category to be built would exceed its size budget."""


class NotAFunctor(CategoryError):
    """A functor law fails; a broken composition law carries a witness
    (f, g, F(f∘g), expected)."""


# morphisms a product may have: j(H(7,2)), the largest category the scheme
# layer builds, has as many
PRODUCT_BUDGET = 1 << 14


@dataclass(frozen=True, eq=False)
class FinCategory:
    """Built only by `_validate`, which also fills the index fields.

    The rows are the composition table, one entry for each composable
    pair: row i is aligned with into(src i), and rows[i][p] = k means
    ids[k] = ids[i]∘ids[into[src i][p]].  `inpos[j]` is the position of j
    in into(tgt j), so ids[i]∘ids[j] is ids[rows[i][inpos[j]]] whenever
    tgt j = src i, and `index` maps an id to its position.  Objects are
    numbered in order too, and the index fields below give each
    morphism's endpoints, each object's identity and the morphisms into
    and out of it, in morphism order.  The library reads only these;
    `entries` lists the pairs in table order, whether the category was
    built from labels, rows or a table, and `compose` is a labelled view
    derived from them for callers outside the library.
    """
    objects: tuple[str, ...]
    morphisms: tuple[tuple[str, str, str], ...]  # (id, src, tgt)
    identity: dict[str, str]                     # object -> identity morphism
    rows: tuple[list[int], ...]                  # rows[i][p] = k: ids[k] = ids[i]∘ids[into[src i][p]]
    index: dict[str, int]                        # id -> position in morphism_ids
    src_of: list[int]                            # morphism -> position of its source
    tgt_of: list[int]                            # morphism -> position of its target
    identity_of: list[int]                       # object -> position of its identity
    into: list[list[int]]                        # object -> the morphisms into it
    out_of: list[list[int]]                      # object -> the morphisms out of it
    inpos: list[int]                             # morphism j -> its position in into[tgt j]
    _src: dict[str, str]
    _tgt: dict[str, str]
    _hom: dict[tuple[str, str], tuple[str, ...]]
    _ids: tuple[str, ...]

    def src(self, f: str) -> str:
        return self._src[f]

    def tgt(self, f: str) -> str:
        return self._tgt[f]

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._hom.get((x, y), ())

    def comp(self, f: str, g: str) -> str:
        """f∘g; KeyError when f or g is no morphism or src(f) != tgt(g)."""
        i, j = self.index[f], self.index[g]
        if self.tgt_of[j] != self.src_of[i]:
            raise KeyError((f, g))
        return self._ids[self.rows[i][self.inpos[j]]]

    def entries(self):
        """(i, (j, k)) with ids[k] = ids[i]∘ids[j] for every composable
        pair, in table order: i in morphism order, j over into(src i).  The
        order is the same however the category was built."""
        into, s_of = self.into, self.src_of
        return ((i, jk) for i, row in enumerate(self.rows) for jk in zip(into[s_of[i]], row))

    @cached_property
    def compose(self) -> Mapping[tuple[str, str], str]:
        """(f, g) -> f∘g for every composable pair, in `entries` order: a
        read-only view of the rows, built on first read and kept."""
        ids = self._ids
        return MappingProxyType({(ids[i], ids[j]): ids[k] for i, (j, k) in self.entries()})

    def is_identity(self, f: str) -> bool:
        return self.identity.get(self._src[f]) == f and self._src[f] == self._tgt[f]

    @property
    def morphism_ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def thin(self) -> bool:
        """Every non-empty hom-set has exactly one morphism.  Then any two
        parallel composites are equal, so associativity and every law that
        equates two morphisms with the same endpoints hold by counting."""
        return len(self._hom) == len(self._ids)

    @cached_property
    def generators(self) -> tuple[str, ...]:
        """Light's generating set: with the identities it generates every
        morphism under composition.  Picked greedily in morphism order on
        first read and kept; `_validate` reads it for its associativity
        test unless the category is thin."""
        return tuple(map(self._ids.__getitem__, _light_generators(
            self.src_of, self.tgt_of, self.inpos, self.rows, self.identity_of)))

    @cached_property
    def _inverse(self) -> tuple[dict[str, str] | None, str | None]:
        """(f -> f⁻¹ for every morphism, None), where f⁻¹ is the first g of
        Hom(tgt f, src f) with f∘g and g∘f identities; or (None, f) for the
        first morphism f, in morphism order, with no such g.  Built on first
        read and kept, so `as_groupoid` and `is_groupoid` share one table."""
        ids, index, rows, inpos = self._ids, self.index, self.rows, self.inpos
        inverse = {}
        for i, (f, s, t) in enumerate(self.morphisms):
            row_f, at_f = rows[i], inpos[i]
            e_s, e_t = index[self.identity[s]], index[self.identity[t]]
            inv = next((j for j in map(index.__getitem__, self.hom(t, s))
                        if row_f[inpos[j]] == e_t and rows[j][at_f] == e_s), None)
            if inv is None:
                return None, f
            inverse[f] = ids[inv]
        return inverse, None

    def endomorphisms(self) -> tuple[str, ...]:
        return tuple(m for m, s, t in self.morphisms if s == t)

    def identities(self) -> frozenset[str]:
        return frozenset(self.identity.values())

    def components(self) -> list[frozenset[str]]:
        """Connected components of the object set under undirected
        reachability, in the order of their first objects."""
        parent = list(range(len(self.objects)))

        def find(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for s, t in zip(self.src_of, self.tgt_of):
            parent[find(s)] = find(t)
        comps: dict[int, set[str]] = {}
        for x, name in enumerate(self.objects):
            comps.setdefault(find(x), set()).add(name)
        return list(map(frozenset, comps.values()))

    def __eq__(self, other):
        if not isinstance(other, FinCategory):
            return NotImplemented
        return (self.objects == other.objects and self.morphisms == other.morphisms
                and self.identity == other.identity and self.rows == other.rows)

    def __repr__(self):
        return f"FinCategory({len(self.objects)} objects, {len(self.morphisms)} morphisms)"


@dataclass(frozen=True, eq=False)
class Groupoid:
    base: FinCategory
    inverse: dict[str, str]

    def __eq__(self, other):
        if not isinstance(other, Groupoid):
            return NotImplemented
        return self.base == other.base and self.inverse == other.inverse


@dataclass(frozen=True, eq=False)
class Functor:
    object_map: dict[str, str]
    morphism_map: dict[str, str]
    contravariant: bool = False

    def __eq__(self, other):
        if not isinstance(other, Functor):
            return NotImplemented
        return (self.object_map == other.object_map
                and self.morphism_map == other.morphism_map
                and self.contravariant == other.contravariant)

    def __call__(self, f: str) -> str:
        return self.morphism_map[f]


def pair_name(a: str, b: str) -> str:
    """Name "(a,b)" of a pair of labels, distinct for distinct pairs.

    A label stays as it is when it has no backslash, its parentheses
    balance and each of its commas sits inside parentheses, so a pair of
    such labels is one again and nested pairs read "((x,y),z)".  In any
    other label every backslash, comma and parenthesis gets a backslash in
    front.  The separator is then the first unescaped comma outside all
    unescaped parentheses, and a part holds a backslash exactly when it was
    escaped.
    """
    return f"({_label(a)},{_label(b)})"


def connector_name(a: str, b: str) -> str:
    """Name "w[a,b]" of the morphism a -> b that a join adds, with the labels
    escaped as in `pair_name`, so distinct pairs get distinct names."""
    return f"w[{_label(a)},{_label(b)}]"


_SPECIAL = re.compile(r"[\\,()]")
_ESCAPES = str.maketrans({c: "\\" + c for c in "\\,()"})


def _label(s: str) -> str:
    depth = 0
    for match in _SPECIAL.finditer(s):
        ch = match.group()
        depth += (ch == "(") - (ch == ")")
        if ch == "\\" or depth < 0 or (ch == "," and depth == 0):
            return s.translate(_ESCAPES)
    return s if depth == 0 else s.translate(_ESCAPES)


def _hom_sets(morphisms) -> dict[tuple[str, str], tuple[str, ...]]:
    hom: dict[tuple[str, str], list[str]] = {}
    for m, s, t in morphisms:
        hom.setdefault((s, t), []).append(m)
    return {k: tuple(v) for k, v in hom.items()}


def validate_category(raw: dict) -> FinCategory:
    """Validate a category document and return a FinCategory.

    The format is `shapes.CATEGORY`: {"objects": [...], "morphisms":
    [{"id","src","tgt"}...], "identities": {obj: mor}, "compose": ...}.
    "compose" is either the table `serialize` writes, one morphism
    position per composable pair, or a list of [f, g, fg] label triples,
    where the entries implied by the unit laws may be omitted.  A
    document of another shape is refused as a CategoryError naming the
    first field that does not fit.
    """
    return read_category(shapes.check(shapes.CATEGORY, raw))


def read_category(raw: dict, at: str = "") -> FinCategory:
    """The category of a document already checked against
    `shapes.CATEGORY`, found at JSON path `at` in a larger one.

    A "compose" whose first entry is no array (`shapes.is_table`) is a
    table: the check has found every entry an integer, and `_read_table`
    refuses one of the wrong length or with a position out of range, at
    the first entry that misfits, before it slices the table into rows.
    Otherwise it lists label triples, which the check only finds arrays,
    since the read loop unpacks and looks up each of them: when the read
    fails, the first entry that is not `shapes.COMPOSE`'s [f, g, fg] is
    refused by name, before any law the read found broken."""
    compose = raw["compose"]
    path = f"{at}.compose" if at else "compose"
    parts = (raw["objects"], [(m["id"], m["src"], m["tgt"]) for m in raw["morphisms"]],
             raw["identities"])
    if shapes.is_table(compose):
        return _validate(*parts, read_rows=partial(_read_table, compose, path))
    try:
        return _validate(*parts, compose)
    except (CategoryError, ValueError, TypeError):
        shapes.check(shapes.COMPOSE, compose, path)
        raise


def _validate(objects, morphisms, identities, entries=(), read_rows=None) -> FinCategory:
    """The category laws by exhaustive check on an integer index.

    Morphisms are numbered 0..M-1 in input order.  Every key of
    `identities` must be an object.  The composites come as a stream of
    (f, g, f∘g) label `entries` (`_read_labels`), or from `read_rows`,
    which maps the row widths, len(into(src f)) for each f, to the rows:
    of a table as `serialize` writes it (`_read_table`) or built in code
    (`_given_rows`).  Either way the category keeps rows each aligned
    with into(src f), so it lists its pairs in that table order and not in
    the order labels were given.  Each entry's endpoints are checked:
    t(g) = s(f), s(k) = s(g) and t(k) = t(f) for (f, g) -> k.  A pair with
    t(g) != s(f) has no place in a row; the label reader keeps such pairs
    aside, to be reported as a full scan would.  The unit-law fills pass
    the endpoint checks by construction.  Totality: every place of every
    row is filled, which a table and given rows are by their length, and
    label rows are when as many distinct pairs were placed as the rows
    have places.  Associativity: on a thin
    table it holds once totality and endpoints do, since (x∘a)∘y and
    x∘(a∘y) both lie in Hom(src y, tgt x), which has one member.
    Otherwise by Light's test: the morphisms a with (x∘a)∘y = x∘(a∘y) for
    all composable x, y are closed under composition, and the identities
    are among them; so the test runs only on a generating set, the
    category's `generators`.  The first error raised is of the class, and
    has the message, that a scan of all pairs and triples would raise
    first.  No table keyed by labels is built.
    """
    objects = tuple(objects)
    if len(set(objects)) != len(objects):
        raise CategoryError("duplicate object ids")
    morphisms = tuple(map(tuple, morphisms))
    ids = tuple(m for m, _, _ in morphisms)
    pos = {m: i for i, m in enumerate(ids)}
    if len(pos) != len(ids):
        raise CategoryError("duplicate morphism ids")
    opos = {x: i for i, x in enumerate(objects)}
    for m, s, t in morphisms:
        if s not in opos or t not in opos:
            raise EndpointMismatch(f"morphism {m!r} has unknown endpoint")
    src = {m: s for m, s, _ in morphisms}
    tgt = {m: t for m, _, t in morphisms}

    identity = dict(identities)
    for x in objects:
        e = identity.get(x)
        if e is None or e not in src:
            raise MissingIdentity(f"object {x!r} has no identity morphism")
        if src[e] != x or tgt[e] != x:
            raise MissingIdentity(f"identity of {x!r} must be an endomorphism of {x!r}")
    if len(identity) != len(objects):
        ghost = next(x for x in identity if x not in opos)
        raise CategoryError(f"identities: {ghost!r} is not an object")

    s_of = [opos[s] for _, s, _ in morphisms]
    t_of = [opos[t] for _, _, t in morphisms]
    out_of: list[list[int]] = [[] for _ in objects]
    in_to: list[list[int]] = [[] for _ in objects]
    inpos: list[int] = []
    for i in range(len(ids)):
        out_of[s_of[i]].append(i)
        ys = in_to[t_of[i]]
        inpos.append(len(ys))
        ys.append(i)
    ident = [pos[identity[x]] for x in objects]
    widths = [len(in_to[s]) for s in s_of]
    size = sum(widths)
    placed, foreign = size, {}             # a table and given rows fill every place
    if read_rows is not None:
        rows = read_rows(widths)
    else:
        rows, placed, foreign = _read_labels(entries, ids, pos, s_of, t_of, inpos, widths)
        # fill unit-law entries
        for i in range(len(ids)):
            e, e2 = ident[s_of[i]], ident[t_of[i]]
            row, p = rows[i], inpos[e]
            if row[p] is None:
                row[p] = i
                placed += 1
            row, p = rows[e2], inpos[i]
            if row[p] is None:
                row[p] = i
                placed += 1

    # totality: label rows are total when as many places were filled as the
    # rows have
    if foreign or placed != size or not _endpoints_fit(rows, s_of, t_of, in_to):
        _raise_first_gap(ids, s_of, t_of, in_to, inpos, rows, foreign)
    # unit laws
    for i, m in enumerate(ids):
        if rows[i][inpos[ident[s_of[i]]]] != i or rows[ident[t_of[i]]][inpos[i]] != i:
            raise MissingIdentity(f"unit law fails at {m!r}")
    cat = FinCategory(objects, morphisms, identity, tuple(rows), pos, s_of, t_of, ident, in_to,
                      out_of, inpos, src, tgt, _hom_sets(morphisms), ids)
    if not cat.thin:
        _light_test(ids, s_of, t_of, out_of, in_to, inpos, rows,
                    map(pos.__getitem__, cat.generators))
    return cat


def _read_labels(entries, ids, pos, s_of, t_of, inpos, widths):
    """(rows, placed, foreign) from a stream of (f, g, f∘g) label triples,
    in any order: rows aligned with into(src f), with None at each place no
    entry filled, the number of places filled, and {(i, j): k} for the
    pairs with t(g) != s(f), which have no place.  The first entry given
    for a pair is kept, and a repeat must agree with it.  A bad endpoint is
    left for the caller's check: an unknown or conflicting entry later in
    the stream is raised first, as a full scan would raise it."""
    rows = [[None] * w for w in widths]
    placed = 0
    foreign: dict[tuple[int, int], int] = {}
    for f, g, fg in entries:
        try:
            i, j, k = pos[f], pos[g], pos[fg]
        except (KeyError, TypeError):
            raise UndefinedComposite(
                f"composition entry ({f!r}, {g!r}, {fg!r}) names unknown morphisms") from None
        if t_of[j] == s_of[i]:
            row, p = rows[i], inpos[j]
            old = row[p]
            if old is None:
                row[p] = k
                placed += 1
                continue
        else:
            old = foreign.setdefault((i, j), k)
        if old != k:
            raise UndefinedComposite(f"conflicting entries for ({ids[i]!r}, {ids[j]!r})")
    return rows, placed, foreign


def _read_table(table, at, widths):
    """The rows of a table of integers at JSON path `at`, as `serialize`
    writes it: row f is the next len(into(src f)) entries.  A table of the
    wrong length, or with a position out of range, is refused at its
    first misfit by `shapes.positions`."""
    m, size = len(widths), sum(widths)
    if len(table) != size or table and not (0 <= min(table) and max(table) < m):
        shapes.check(shapes.positions(m, size), table, at)
    starts = accumulate(widths, initial=0)
    return [table[start:start + width] for start, width in zip(starts, widths)]


def _given_rows(rows, ids, widths):
    """Rows built in code, each a list of positions as long as into(src f);
    a row of another length or with a position out of range is refused."""
    rows, m = list(rows), len(ids)
    if len(rows) != m:
        raise CategoryError(f"{len(rows)} rows given for {m} morphisms")
    for f, row, width in zip(ids, rows, widths):
        if len(row) != width or row and not (0 <= min(row) and max(row) < m):
            raise CategoryError(f"row of {f!r}: {width} positions of morphisms expected")
    return rows


def _endpoints_fit(rows, s_of, t_of, in_to) -> bool:
    """Whether every composite of a full table runs from the source of its
    second factor to the target of its first, checked row by row: the
    factors compose by construction of the rows."""
    # the source of each morphism into x, in into(x) order
    sources = [list(map(s_of.__getitem__, ys)) for ys in in_to]
    src, tgt = s_of.__getitem__, t_of.__getitem__
    for row, s, t in zip(rows, s_of, t_of):
        if list(map(src, row)) != sources[s] or list(map(tgt, row)).count(t) != len(row):
            return False
    return True


def _raise_first_gap(ids, s_of, t_of, in_to, inpos, rows, foreign):
    """Raise the totality or endpoint error of the first bad (f, g), in
    morphism order, that a scan of all M² pairs would meet; `foreign`
    holds the entries given for pairs that do not compose."""
    strays: dict[int, set[int]] = {}
    for i, j in foreign:
        strays.setdefault(i, set()).add(j)
    for i, row in enumerate(rows):
        f = ids[i]
        for j in sorted(strays.get(i, set()).union(in_to[s_of[i]])):
            g = ids[j]
            if t_of[j] != s_of[i]:
                raise EndpointMismatch(f"({f!r}, {g!r}) composed but src({f!r}) != tgt({g!r})")
            k = row[inpos[j]]
            if k is None:
                raise UndefinedComposite(f"no composite for ({f!r}, {g!r})")
            if s_of[k] != s_of[j] or t_of[k] != t_of[i]:
                raise EndpointMismatch(f"composite {ids[k]!r} of ({f!r}, {g!r}) has wrong endpoints")
    raise AssertionError("totality check failed without a bad pair")


def _light_generators(s_of, t_of, inpos, rows, ident) -> list[int]:
    """Light's generators of a total table: a morphism joins them only if
    the composition closure of the identities and the generators before it
    misses it.  The closure grows semi-naively, each new member composed
    once with every member before it."""
    n_obj = len(ident)
    member = bytearray(len(rows))
    closure_out: list[list[int]] = [[] for _ in range(n_obj)]
    closure_in: list[list[int]] = [[] for _ in range(n_obj)]     # members into x, by inpos

    def close(start):
        for u in start:
            member[u] = 1
        stack = list(start)
        while stack:
            u = stack.pop()
            s, t, p = s_of[u], t_of[u], inpos[u]
            closure_out[s].append(u)
            closure_in[t].append(p)
            row = rows[u]
            new = [w for w in map(row.__getitem__, closure_in[s]) if not member[w]]
            new += [w for v in closure_out[t] if not member[w := rows[v][p]]]
            for w in new:
                if not member[w]:
                    member[w] = 1
                    stack.append(w)

    close(ident)
    generators = []
    for a in range(len(rows)):
        if not member[a]:
            generators.append(a)
            close([a])
    return generators


def _light_test(ids, s_of, t_of, out_of, in_to, inpos, rows, generators):
    """Associativity on a total table that satisfies the unit laws, checked
    at each of Light's generators a: (x∘a)∘y = x∘(a∘y) for all composable
    x, y.  The left side, over y in into(src a), is the whole row of x∘a."""
    for a in generators:
        p = inpos[a]
        a_ys = list(map(inpos.__getitem__, rows[a]))       # a∘y, placed in into(tgt a)
        for x in out_of[t_of[a]]:
            row_x = rows[x]
            lhs = rows[row_x[p]]                              # (x∘a)∘y
            rhs = list(map(row_x.__getitem__, a_ys))          # x∘(a∘y)
            if lhs != rhs:
                n = next(n for n, (l, r) in enumerate(zip(lhs, rhs)) if l != r)
                raise NonAssociative(ids[x], ids[a], ids[in_to[s_of[a]][n]],
                                     ids[lhs[n]], ids[rhs[n]])


def serialize(cat: FinCategory) -> dict:
    """JSON-ready description, with "compose" written as a table: the rows
    concatenated, so for f in morphism order and g over into(src f) in
    morphism order, the position of f∘g, unit-law pairs included."""
    return {
        "objects": list(cat.objects),
        "morphisms": [{"id": m, "src": s, "tgt": t} for m, s, t in cat.morphisms],
        "identities": dict(cat.identity),
        "compose": list(chain.from_iterable(cat.rows)),
    }


def build_category(objects, morphisms, identity, compose=None, rows=None) -> FinCategory:
    """Validate parts assembled in code (same checks as validate_category).

    `compose` is an iterable of (f, g, f∘g) triples; it is read once, so a
    large table can be streamed in.  Or `rows` gives the composites as
    positions: for each morphism f in order, a list of the positions of
    f∘g for g over the morphisms into src(f) in morphism order, unit-law
    pairs included.  Rows may be shared between morphisms; the category
    keeps them as given.  A call that gives both is refused (TypeError).
    """
    if rows is None:
        return _validate(objects, morphisms, identity, () if compose is None else compose)
    if compose is not None:
        raise TypeError("build_category takes composition triples or rows, not both")
    morphisms = tuple(map(tuple, morphisms))
    ids = [m for m, _, _ in morphisms]
    return _validate(objects, morphisms, identity, read_rows=partial(_given_rows, rows, ids))


def full_subcategory(c: FinCategory, objects) -> FinCategory:
    """The full subcategory on some objects of c, in the order of c: every
    morphism between those objects and their composites."""
    keep = set(objects)
    objs = tuple(x for x in c.objects if x in keep)
    morphisms = tuple(m for m in c.morphisms if m[1] in keep and m[2] in keep)
    compose = ((f, g, c.comp(f, g)) for f, s, _ in morphisms for y in objs for g in c.hom(y, s))
    return build_category(objs, morphisms, {x: c.identity[x] for x in objs}, compose)


def terminal_category() -> FinCategory:
    return build_category(["*"], [("1_*", "*", "*")], {"*": "1_*"}, ())


def one_object_group(elements, table) -> Groupoid:
    """Group as a groupoid on the one object "*"; table maps (a, b) -> a*b ('b first').

    MissingIdentity without a two-sided unit; otherwise the table is checked
    by `build_category` (totality, Light's associativity test) and
    `as_groupoid` (NotInvertible)."""
    unit = next((e for e in elements
                 if all(table.get((e, x)) == x and table.get((x, e)) == x for x in elements)), None)
    if unit is None:
        raise MissingIdentity("the group table has no two-sided unit")
    morphisms = [(e, "*", "*") for e in elements]
    compose = ((a, b, table[(a, b)]) for a in elements for b in elements if (a, b) in table)
    return as_groupoid(build_category(["*"], morphisms, {"*": unit}, compose))


def cyclic_group_table(n: int):
    """Elements and multiplication table of Z/n, elements named '0'..'n-1'."""
    elements = [str(i) for i in range(n)]
    table = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
    return elements, table


def product(c: FinCategory, d: FinCategory) -> FinCategory:
    return product_with_projections(c, d)[0]


def product_with_projections(c: FinCategory, d: FinCategory):
    """Product category plus the two projections (used by schemoid products).
    More than PRODUCT_BUDGET morphisms, M₁·M₂, are refused as
    CategoryTooLarge before any is named."""
    size = len(c.morphisms) * len(d.morphisms)
    if size > PRODUCT_BUDGET:
        raise CategoryTooLarge(f"the product would have {size} morphisms: over the budget of "
                               f"{PRODUCT_BUDGET}")
    pobj = {(a, b): pair_name(a, b) for a in c.objects for b in d.objects}
    name = [[pair_name(f, g) for g in d.morphism_ids] for f in c.morphism_ids]
    objects = list(pobj.values())
    morphisms = []
    proj1: dict[str, str] = {}
    proj2: dict[str, str] = {}
    for (f, fs, ft), names in zip(c.morphisms, name):
        for (g, gs, gt), m in zip(d.morphisms, names):
            morphisms.append((m, pobj[(fs, gs)], pobj[(ft, gt)]))
            proj1[m] = f
            proj2[m] = g
    identity = {x: name[c.index[c.identity[a]]][d.index[d.identity[b]]]
                for (a, b), x in pobj.items()}
    d_entries = list(d.entries())
    compose = ((name[f1][f2], name[g1][g2], name[h1][h2])
               for f1, (g1, h1) in c.entries() for f2, (g2, h2) in d_entries)
    cat = build_category(objects, morphisms, identity, compose)
    obj1 = {x: a for (a, b), x in pobj.items()}
    obj2 = {x: b for (a, b), x in pobj.items()}
    return cat, Functor(obj1, proj1), Functor(obj2, proj2)


def _tagged_sum(c: FinCategory, d: FinCategory):
    """Objects, morphisms, identities and composition of the coproduct C ⊔ D,
    with every id of C prefixed 'L.' and every id of D 'R.'."""
    objects, morphisms, identity, compose = [], [], {}, []
    for tag, e in (("L.", c), ("R.", d)):
        objects += [tag + x for x in e.objects]
        morphisms += [(tag + m, tag + s, tag + t) for m, s, t in e.morphisms]
        identity.update({tag + x: tag + e.identity[x] for x in e.objects})
        ids = e.morphism_ids
        compose += [(tag + ids[i], tag + ids[j], tag + ids[k]) for i, (j, k) in e.entries()]
    return objects, morphisms, identity, compose


def join(c: FinCategory, d: FinCategory) -> FinCategory:
    """Join C∗D: one extra morphism w[a,b]: a -> b per a in C, b in D.

    Ids are renamed with 'L.'/'R.' prefixes so the join is always defined.
    """
    objects, morphisms, identity, compose = _tagged_sum(c, d)
    w = {(a, b): connector_name(a, b) for a in c.objects for b in d.objects}
    morphisms += [(m, f"L.{a}", f"R.{b}") for (a, b), m in w.items()]
    for a in c.objects:
        for b in d.objects:
            # alpha ∘ w[a,s] = w[a,t] for alpha: s -> t in D
            for m, s, t in d.morphisms:
                if s == b:
                    compose.append((f"R.{m}", w[(a, b)], w[(a, t)]))
            # w[v,b] ∘ beta = w[u,b] for beta: u -> v in C
            for m, s, t in c.morphisms:
                if t == a:
                    compose.append((w[(a, b)], f"L.{m}", w[(s, b)]))
    return build_category(objects, morphisms, identity, compose)


def disjoint_union(c: FinCategory, d: FinCategory) -> FinCategory:
    """Coproduct with the same 'L.'/'R.' renaming as join."""
    return build_category(*_tagged_sum(c, d))


def opposite(c: FinCategory) -> FinCategory:
    morphisms = [(m, t, s) for m, s, t in c.morphisms]
    ids = c.morphism_ids
    return build_category(c.objects, morphisms, c.identity,
                          ((ids[j], ids[i], ids[k]) for i, (j, k) in c.entries()))


def as_groupoid(c: FinCategory) -> Groupoid:
    """Inverse table if every morphism is invertible, else NotInvertible;
    the inverse of f is the first g of Hom(tgt f, src f) with f∘g and g∘f
    identities."""
    inverse, lone = c._inverse
    if lone is not None:
        raise NotInvertible(f"morphism {lone!r} has no inverse")
    return Groupoid(c, dict(inverse))


def is_groupoid(c: FinCategory) -> bool:
    return c._inverse[1] is None


def validate_groupoid(raw: dict) -> Groupoid:
    """A groupoid document, `shapes.GROUPOID`: a category document with
    one more field, "inverse": {f: f^-1}."""
    cat = read_category(shapes.check(shapes.GROUPOID, raw))
    inverse = raw["inverse"]
    for f in cat.morphism_ids:
        g = inverse.get(f)
        if g is None:
            raise NotInvertible(f"no inverse listed for {f!r}")
        s, t = cat.src(f), cat.tgt(f)
        if (g not in cat.index or (cat.src(g), cat.tgt(g)) != (t, s)
                or cat.comp(f, g) != cat.identity[t] or cat.comp(g, f) != cat.identity[s]):
            raise NotInvertible(f"listed inverse of {f!r} is wrong")
        if inverse.get(g) != f:
            raise NotInvertible(f"inverse is not an involution at {f!r}")
    return Groupoid(cat, inverse)


def serialize_groupoid(g: Groupoid) -> dict:
    out = serialize(g.base)
    out["inverse"] = dict(g.inverse)
    return out


def validate_functor(fun: Functor, c: FinCategory, d: FinCategory) -> Functor:
    """Check functor laws of fun: C -> D (contravariant if flagged).

    Objects, identities and endpoints are checked one by one.  The
    composition law F(f∘g) = F(f)∘F(g), or F(g)∘F(f) if contravariant, is
    checked only where g is one of C's Light generators (`c.generators`),
    for every f composable with it.  That suffices when C and D are
    associative: the g at which the law holds for every f are then closed
    under composition, the identities are among them once identities and
    endpoints are preserved, and with the generators they make up all of
    C.  When D is thin the law is not checked at all: F(f∘g) and the
    composite it must equal run between the same objects of D once
    endpoints are preserved, and that hom-set has one member.  A broken
    law raises NotAFunctor with witness (f, g, F(f∘g), expected).
    """
    omap, mmap = fun.object_map, fun.morphism_map
    d_objects, d_index = set(d.objects), d.index
    for x in c.objects:
        if omap.get(x) not in d_objects:
            raise NotAFunctor(f"object {x!r} unmapped or mapped outside the target")
        if mmap.get(c.identity[x]) != d.identity[omap[x]]:
            raise NotAFunctor(f"identity of {x!r} not preserved")
    img: list[int] = []                      # img[i]: the position of F(ids[i]) in D
    for m, s, t in c.morphisms:
        image = mmap.get(m)
        if image not in d_index:
            raise NotAFunctor(f"morphism {m!r} unmapped or mapped outside the target")
        if fun.contravariant:
            if d.src(image) != omap[t] or d.tgt(image) != omap[s]:
                raise NotAFunctor(f"endpoints of {m!r} not reversed correctly")
        else:
            if d.src(image) != omap[s] or d.tgt(image) != omap[t]:
                raise NotAFunctor(f"endpoints of {m!r} not preserved")
        img.append(d_index[image])
    if d.thin:
        return fun
    c_rows, d_rows, c_ids, d_at = c.rows, d.rows, c.morphism_ids, d.inpos
    for g in c.generators:
        a = c.index[g]
        img_g, p = img[a], c.inpos[a]
        for i in c.out_of[c.tgt_of[a]]:
            if fun.contravariant:
                expected = d_rows[img_g][d_at[img[i]]]
            else:
                expected = d_rows[img[i]][d_at[img_g]]
            got = img[c_rows[i][p]]
            if got != expected:
                d_ids = d.morphism_ids
                raise NotAFunctor(f"composition not preserved at ({c_ids[i]!r}, {g!r})",
                                  witness=(c_ids[i], g, d_ids[got], d_ids[expected]))
    return fun


def identity_functor(c: FinCategory) -> Functor:
    return Functor({x: x for x in c.objects}, {m: m for m in c.morphism_ids})


def compose_functors(f2: Functor, f1: Functor) -> Functor:
    """f2 after f1; variance flags multiply."""
    return Functor(
        {x: f2.object_map[y] for x, y in f1.object_map.items()},
        {m: f2.morphism_map[n] for m, n in f1.morphism_map.items()},
        contravariant=f1.contravariant != f2.contravariant,
    )


# shapes declares the documents with the error classes above, so it is
# imported once they exist
from . import shapes  # noqa: E402
