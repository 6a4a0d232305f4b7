"""Association schemes and coherent configurations as standalone data.

A configuration is a partition of X×X given as a matrix of class indices
(row = source point of the pair, i.e. relation_of[x][y] is the class of
(x, y)).  Intersection numbers follow the classical convention
p^g_{ef} = #{y : (x,y) in e, (y,z) in f} for any (x,z) in g.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct, repeat

from .fincat import (
    CategoryError,
    Functor,
    SchemoidsError,
    build_category,
    one_object_group,
    pair_name,
)
from .shapes import SCHEME, check
from .schemoid import (
    QuasiSchemoid,
    StructureConstantTable,
    _intersection_tally,
    check_association,
    make_partition,
)

# point triples the intersection tally may visit (N = 128 at most); it also
# bounds a thickening's composable triples and an orbit walk's pair images
SCHEME_BUDGET = 1 << 21


class SchemeError(SchemoidsError):
    pass


class NotTransposeClosed(SchemeError):
    pass


class NonConstantIntersection(SchemeError):
    """p^g_{ef} differs between two pairs of class g; carries a witness
    (e, f, g, pair1, count1, pair2, count2)."""

    def __init__(self, e, f, g, pair1, count1, pair2, count2):
        super().__init__(f"p^{g}_{{{e},{f}}} differs between pairs of class {g!r}: "
                         f"{count1} at {pair1} but {count2} at {pair2}",
                         (e, f, g, pair1, count1, pair2, count2))


class DiagonalNotUnion(SchemeError):
    pass


class SizeLimit(SchemeError):
    pass


class InvalidGroupTable(SchemeError):
    pass


class NotAGroup(SchemeError):
    pass


class NotSchemeMorphism(SchemeError):
    pass


def _check_size(base: int, power: int = 1) -> None:
    """Refuse N = base^power > 128 points, whose tally's N³ point triples
    exceed SCHEME_BUDGET, as SizeLimit; a power past 8 forms no huge N."""
    if (base ** min(power, 8)) ** 3 > SCHEME_BUDGET:
        n = f"({base}^{power})" if power > 1 else base
        raise SizeLimit(f"{n} points: the tally of {n}^3 point triples exceeds "
                        f"the budget of {SCHEME_BUDGET}")


@dataclass(frozen=True, eq=False)
class CoherentConfiguration:
    points: tuple[str, ...]
    classes: tuple[str, ...]
    relation_of: tuple[tuple[int, ...], ...]   # class index per (x, y), by point position
    intersection: dict[tuple[str, str, str], int]  # (e, f, g) -> p^g_{ef}
    transpose: dict[str, str]                  # class -> transposed class

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def position(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.points)}

    def class_of_pair(self, x: str, y: str) -> str:
        return self.classes[self.relation_of[self.position[x]][self.position[y]]]

    def p(self, e: str, f: str, g: str) -> int:
        return self.intersection.get((e, f, g), 0)

    def __eq__(self, other):
        if not isinstance(other, CoherentConfiguration):
            return NotImplemented
        return (self.points == other.points and self.classes == other.classes
                and self.relation_of == other.relation_of)


@dataclass(frozen=True, eq=False)
class AssociationScheme(CoherentConfiguration):
    """A coherent configuration whose diagonal is a single class."""


def validate_scheme(size: int, relations, points=None, classes=None):
    """Verify the configuration axioms by exhaustive counting.

    The intersection numbers come from `schemoid._intersection_tally`,
    the one tally of point triples, which `check_concatenation` also runs
    on pair groupoids; a class g whose p^g_{ef} is not constant is
    NonConstantIntersection at the first such (e, f, g).

    More than SCHEME_BUDGET point triples (N³) are refused as SizeLimit
    before the relations are read.  Point names and class names must each
    be distinct; a name given twice is refused as SchemeError before the
    tally, since `intersection` is keyed by class name and `j_embed` names
    morphisms by pairs of points.  Returns an AssociationScheme when the
    diagonal is a single class, otherwise a CoherentConfiguration.
    """
    _check_size(size)
    if size < 1:
        raise SchemeError("empty point set")
    rel = tuple(map(tuple, relations))
    if len(rel) != size or any(len(row) != size for row in rel):
        raise SchemeError("relation matrix must be size x size")
    indices = sorted({x for row in rel for x in row})
    if indices != list(range(len(indices))):
        raise SchemeError("class indices must be 0..k-1 with every class nonempty")
    points = tuple(map(str, range(size)) if points is None else points)
    if len(points) != size:
        raise SchemeError("point name count mismatch")
    classes = tuple(f"R{i}" for i in indices) if classes is None else tuple(classes)
    if len(classes) != len(indices):
        raise SchemeError("class name count mismatch")
    for kind, names in (("point", points), ("class", classes)):
        if len(set(names)) != len(names):
            twice = next(x for x, count in Counter(names).items() if count > 1)
            raise SchemeError(f"duplicate {kind} name {twice!r}")

    # diagonal must be a union of classes
    diag = {rel[x][x] for x in range(size)}
    mixed = diag.intersection(k for x, row in enumerate(rel) for y, k in enumerate(row) if x != y)
    if mixed:
        raise DiagonalNotUnion(
            f"class {classes[min(mixed)]!r} meets the diagonal and an off-diagonal pair")

    # transpose closure
    images: dict[int, set[int]] = {k: set() for k in indices}
    for x, row in enumerate(rel):
        for y, k in enumerate(row):
            images[k].add(rel[y][x])
    transpose: dict[str, str] = {}
    for k in indices:
        if len(images[k]) != 1:
            raise NotTransposeClosed(classes[k])
        transpose[classes[k]] = classes[images[k].pop()]

    constants, failure = _intersection_tally(rel, len(classes))
    if failure is not None:
        (e, f, g), (x1, z1), c1, (x2, z2), c2 = failure
        raise NonConstantIntersection(
            classes[e], classes[f], classes[g],
            (points[x1], points[z1]), c1, (points[x2], points[z2]), c2)
    intersection = {(classes[e], classes[f], classes[g]): p for (e, f, g), p in constants.items()}
    cls = AssociationScheme if len(diag) == 1 else CoherentConfiguration
    return cls(points, classes, rel, intersection, transpose)


def serialize_scheme(s: CoherentConfiguration) -> dict:
    return {"size": s.size, "relations": [list(row) for row in s.relation_of],
            "points": list(s.points), "classes": list(s.classes)}


def scheme_from_json(raw: dict):
    """A scheme document, the format `shapes.SCHEME` declares: {"size",
    "relations", "points"?, "classes"?}."""
    check(SCHEME, raw)
    return validate_scheme(raw["size"], raw["relations"], raw.get("points"), raw.get("classes"))


def hamming(n: int, q: int) -> AssociationScheme:
    """Hamming scheme H(n, q): words of length n over q symbols, classes by
    distance.  More than 128 words are refused as SizeLimit before any word
    is built, so H(7, 2) and H(4, 3) are the largest for q = 2 and 3."""
    if n < 1 or q < 2:
        raise SchemeError("need n >= 1 and q >= 2")
    _check_size(q, n)
    words = ["".join(str(c) for c in w) for w in iproduct(range(q), repeat=n)]
    dist = lambda u, v: sum(1 for a, b in zip(u, v) if a != b)
    rel = [[dist(u, v) for v in words] for u in words]
    classes = [f"R{d}" for d in range(n + 1)]     # every distance 0..n occurs, since q >= 2
    return validate_scheme(len(words), rel, points=words, classes=classes)


def group_scheme(elements, table) -> AssociationScheme:
    """Scheme on a finite group with classes G_f = {(k, l) : k^-1 l = f}.
    More than 128 elements are SizeLimit; a table that `one_object_group`
    refuses is InvalidGroupTable."""
    _check_size(len(elements))
    try:
        group = one_object_group(elements, table)
    except CategoryError as err:
        raise InvalidGroupTable(str(err)) from err
    elements, inverse = group.base.morphism_ids, group.inverse
    index = {e: i for i, e in enumerate(elements)}
    rel = [[index[table[(inverse[k], l)]] for l in elements] for k in elements]
    classes = [f"G[{e}]" for e in elements]
    return validate_scheme(len(elements), rel, points=elements, classes=classes)


def orbit_configuration(perms: list[list[int]], size: int):
    """Coherent configuration of the pair orbits of the group perms generate.

    Each orbit is followed forward under perms, which in a finite group
    reaches the whole orbit, so every generating set of a group (no perms,
    the full element list) gives the same classes O0, O1, ....  More than
    128 points are SizeLimit, then an entry that is no permutation of
    0..size-1 is NotAGroup.  The walk takes the N² pairs' images under each
    distinct perm: past SCHEME_BUDGET it is SizeLimit before it starts.  A
    transitive group gives a scheme."""
    _check_size(size)
    for p in perms:
        if len(p) != size or sorted(p) != list(range(size)):
            raise NotAGroup(f"{p} is not a permutation of 0..{size - 1}")
    perms = list(dict.fromkeys(map(tuple, perms)))
    if size * size * len(perms) > SCHEME_BUDGET:
        raise SizeLimit(f"{size}^2 pairs under {len(perms)} distinct perms exceed the budget "
                        f"of {SCHEME_BUDGET}")

    orbit_of: dict[tuple[int, int], int] = {}
    orbits = 0
    for x in range(size):
        for y in range(size):
            if (x, y) in orbit_of:
                continue
            orbit_of[(x, y)] = orbits
            stack = [(x, y)]
            while stack:     # a pair is marked when pushed, so the stack holds at most N² pairs
                (u, v) = stack.pop()
                for p in perms:
                    if (p[u], p[v]) not in orbit_of:
                        orbit_of[(p[u], p[v])] = orbits
                        stack.append((p[u], p[v]))
            orbits += 1
    rel = [[orbit_of[(x, y)] for y in range(size)] for x in range(size)]
    classes = [f"O{k}" for k in range(orbits)]
    return validate_scheme(size, rel, classes=classes)


def scheme_morphism(f_points: dict, source: CoherentConfiguration,
                    target: CoherentConfiguration) -> dict[str, str]:
    """The class map of a point map that sends each class of source into one
    class of target, read by position in one pass over the N² pairs; else
    NotSchemeMorphism, with the witness (class, pair, image, other image)."""
    image = [target.position.get(f_points.get(x)) for x in source.points]
    if None in image:
        raise NotSchemeMorphism(f"point {source.points[image.index(None)]!r} unmapped or "
                                "mapped outside the target")
    to: dict[int, int] = {}
    for x, row in enumerate(source.relation_of):
        for y, k in enumerate(row):
            t = target.relation_of[image[x]][image[y]]
            if to.setdefault(k, t) != t:
                c, pair = source.classes[k], (source.points[x], source.points[y])
                raise NotSchemeMorphism(f"class {c!r} maps into {target.classes[to[k]]!r}, and at "
                                        f"{pair} into {target.classes[t]!r}",
                                        (c, pair, target.classes[to[k]], target.classes[t]))
    return {source.classes[k]: target.classes[t] for k, t in sorted(to.items())}


def j_embed(scheme: CoherentConfiguration) -> QuasiSchemoid:
    """Complete-graph schemoid of a configuration.

    Hom(y, x) = {(x, y)}, composition (z, x)∘(x, y) = (z, y), blocks are the
    classes and T(x, y) = (y, x).  The structure constants are the
    scheme's intersection numbers, taken as they are, with no recount: the
    factorizations of h = (x, z) are the (x, y)∘(y, z), one for each point
    y, in the blocks (r(x, y), r(y, z)).  So the count for (σ, τ) at h is
    #{y : r(x, y) = σ, r(y, z) = τ}, which `validate_scheme` tallied for
    every pair (x, z) and verified constant over each class.  It keeps the
    nonzero counts only, keyed (e, f, g) and sorted in class order, as the
    same tally returns them when `check_concatenation` runs it on the
    pair groupoid with blocks in class order.  The blocks are the classes
    one to one because `validate_scheme` refuses a class name given twice,
    and the morphism names are distinct because it refuses a point name
    given twice.  The category and the involution are still checked.
    """
    pts = scheme.points
    n = len(pts)
    name = [[pair_name(x, y) for y in pts] for x in pts]   # name[x][y]: y -> x
    morphisms = [(name[x][y], pts[y], pts[x]) for x in range(n) for y in range(n)]
    identity = {pts[x]: name[x][x] for x in range(n)}
    # name[x][y] is morphism x·n + y, and into(y) is the (y, w), w in point
    # order: the row of (x, y) holds (x, y)∘(y, w) = (x, w), at x·n + w,
    # one list shared by every y
    rows = [row for x in range(n) for row in repeat(list(range(x * n, x * n + n)), n)]
    cat = build_category(pts, morphisms, identity, rows=rows)
    blocks: dict[str, list[str]] = {c: [] for c in scheme.classes}
    for x in range(n):
        for y, k in enumerate(scheme.relation_of[x]):
            blocks[scheme.classes[k]].append(name[x][y])
    partition = make_partition(cat, {c: ms for c, ms in blocks.items() if ms})
    t = Functor({x: x for x in pts},
                {name[x][y]: name[y][x] for x in range(n) for y in range(n)},
                contravariant=True)
    involution = check_association(cat, partition, t)
    return QuasiSchemoid(cat, partition, StructureConstantTable(dict(scheme.intersection)),
                         involution)
