"""Morphism partitions over finite categories, their verification, and
the schemoid morphisms between them.

The central check counts, for each block triple (σ, τ, μ), the number of
factorizations h = f∘g with f in σ, g in τ of every h in μ; the partition
is admitted exactly when that count is constant along μ (morphisms with
zero factorizations participate in the constancy requirement).  On a pair
groupoid, one morphism in every hom-set as in j(S), the count is the
intersection tally of the block matrix, the same routine that gives a
scheme's intersection numbers to `schemes.validate_scheme`; on any other
category it runs over the composable pairs.

A schemoid morphism is a functor between the underlying categories that
sends each block of the source into one block of the target; it is the
arrow of the categories of schemoids, and `schemoid_morphism` is its one
validating constructor.  `schemoid_morphisms` enumerates them, choosing
images only for the source's Light generators; an isomorphism is the first
of them that is bijective on morphisms and on blocks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import add

from .fincat import (
    FinCategory,
    Functor,
    NotInvertible,
    SchemoidsError,
    as_groupoid,
    compose_functors,
    connector_name,
    identity_functor,
    is_groupoid,
    join,
    pair_name,
    product_with_projections,
    validate_functor,
)
from .shapes import PARTITION, check


class PartitionError(SchemoidsError):
    pass


class AxiomViolation(SchemoidsError):
    """Concatenation axiom fails; carries a witness (sigma, tau, mu, h1, c1, h2, c2)."""

    def __init__(self, sigma, tau, mu, h1, c1, h2, c2):
        super().__init__(
            f"blocks ({sigma!r}, {tau!r}) factor {h1!r} in {mu!r} {c1} times but {h2!r} {c2} times",
            (sigma, tau, mu, h1, c1, h2, c2))


class LoopConditionViolated(SchemoidsError):
    pass


class NotInvolution(SchemoidsError):
    pass


class BlockNotPreserved(SchemoidsError):
    pass


class NotBlockwise(SchemoidsError):
    pass


class NotComposable(SchemoidsError):
    pass


@dataclass(frozen=True, eq=False)
class MorphismPartition:
    blocks: dict[str, frozenset[str]]
    block_of: dict[str, str]

    def __eq__(self, other):
        if not isinstance(other, MorphismPartition):
            return NotImplemented
        return self.blocks == other.blocks

    def names(self) -> tuple[str, ...]:
        return tuple(self.blocks)

    def __len__(self):
        return len(self.blocks)


def make_partition(cat: FinCategory, blocks: dict) -> MorphismPartition:
    """Validate disjointness and exact cover of mor(C)."""
    block_of: dict[str, str] = {}
    clean: dict[str, frozenset[str]] = {}
    for name, members in blocks.items():
        members = frozenset(members)
        if not members:
            raise PartitionError(f"block {name!r} is empty")
        for m in members:
            if m in block_of:
                raise PartitionError(f"morphism {m!r} appears in two blocks")
            block_of[m] = name
        clean[name] = members
    missing = set(cat.morphism_ids) - set(block_of)
    if missing:
        raise PartitionError(f"morphisms not covered: {sorted(missing)}")
    extra = set(block_of) - set(cat.morphism_ids)
    if extra:
        raise PartitionError(f"unknown morphisms in partition: {sorted(extra)}")
    return MorphismPartition(clean, block_of)


def discrete_partition(cat: FinCategory) -> MorphismPartition:
    return make_partition(cat, {m: [m] for m in cat.morphism_ids})


def serialize_partition(p: MorphismPartition) -> dict:
    return {"blocks": {name: sorted(members) for name, members in p.blocks.items()}}


def partition_from_json(cat: FinCategory, raw: dict) -> MorphismPartition:
    """A partition document, `shapes.PARTITION`: {"blocks": {name:
    [morphism, ...]}}."""
    return make_partition(cat, check(PARTITION, raw, "partition")["blocks"])


@dataclass(frozen=True, eq=False)
class StructureConstantTable:
    entries: dict[tuple[str, str, str], int]

    def p(self, sigma: str, tau: str, mu: str) -> int:
        return self.entries.get((sigma, tau, mu), 0)

    def __eq__(self, other):
        if not isinstance(other, StructureConstantTable):
            return NotImplemented
        mine = {k: v for k, v in self.entries.items() if v}
        theirs = {k: v for k, v in other.entries.items() if v}
        return mine == theirs


@dataclass(frozen=True, eq=False)
class Involution:
    functor: Functor                  # contravariant, T^2 = id
    block_image: dict[str, str]       # sigma -> sigma*


@dataclass(frozen=True, eq=False)
class QuasiSchemoid:
    category: FinCategory
    partition: MorphismPartition
    constants: StructureConstantTable
    involution: Involution | None = None
    base_points: tuple[str, ...] | None = None

    def p(self, sigma, tau, mu):
        return self.constants.p(sigma, tau, mu)

    def block_names(self):
        return self.partition.names()

    def __repr__(self):
        return (f"QuasiSchemoid({len(self.category.objects)} objects, "
                f"{len(self.category.morphisms)} morphisms, {len(self.partition)} blocks)")


def check_concatenation(cat: FinCategory, partition: MorphismPartition) -> StructureConstantTable:
    """Count factorizations per block triple; AxiomViolation on non-constancy.

    A pair (σ, τ) with no factorization, or a block μ that none lands in,
    has the constant 0 and is skipped.  The constants are keyed in block
    order, and the witness is the first non-constant (σ, τ, μ) in block
    order, at the first member h1 of μ by label and the first member whose
    count differs from h1's.

    A pair groupoid, every hom-set holding exactly one morphism (j(S) and
    the s̃ of a one-object group), is counted by the intersection tally of
    its block matrix rel[t][s], the block of s -> t: the factorizations of
    h: r -> t are the (s -> t)∘(r -> s), one for each object s.  Any other
    category is counted over its composable pairs.
    """
    names = partition.names()
    number = {name: b for b, name in enumerate(names)}
    ids, bo = cat.morphism_ids, partition.block_of
    block = [number[bo[m]] for m in ids]
    width, n = len(names), len(ids)
    if cat.thin and n == len(cat.objects) ** 2:
        return _pair_groupoid_constants(cat, partition, names, block)
    # one tally over all composable pairs (f, g) -> h, keyed by the block
    # triple and h: ((block(f) * width + block(g)) * width + block(h)) * n + h
    f_part = [b * width * width * n for b in block]
    g_part = [b * width * n for b in block]
    h_part = [b * n + h for h, b in enumerate(block)]
    into = cat.into
    tally = Counter(chain.from_iterable([f + g_part[j] + h_part[k] for j, k in zip(into[s], row)]
                                        for f, s, row in zip(f_part, cat.src_of, cat.rows)))
    members = [[cat.index[m] for m in sorted(partition.blocks[mu])] for mu in names]
    get = tally.get
    entries: dict[tuple[str, str, str], int] = {}
    for triple in sorted({key // n for key in tally}):
        pair, mu = divmod(triple, width)
        sigma, tau = divmod(pair, width)
        base = triple * n
        h1, *rest = members[mu]
        c1 = get(base + h1, 0)
        for h in rest:
            c = get(base + h, 0)
            if c != c1:
                raise AxiomViolation(names[sigma], names[tau], names[mu], ids[h1], c1, ids[h], c)
        entries[(names[sigma], names[tau], names[mu])] = c1
    return StructureConstantTable(entries)


def _pair_groupoid_constants(cat, partition, names, block) -> StructureConstantTable:
    """`check_concatenation` on a pair groupoid, by the intersection tally
    of rel[t][s] = block(s -> t).  On failure the tally's first
    non-constant (e, f, g) is the first (σ, τ, μ) in block order; the
    members of μ are then counted by label, each in one pass over the
    objects, up to the first whose count differs from the first's."""
    size = len(cat.objects)
    rel = [[0] * size for _ in range(size)]
    for b, s, t in zip(block, cat.src_of, cat.tgt_of):
        rel[t][s] = b
    constants, failure = _intersection_tally(rel, len(names))
    if failure is None:
        return StructureConstantTable({(names[e], names[f], names[g]): p
                                       for (e, f, g), p in constants.items()})
    sigma, tau, mu = failure[0]

    def count(h):     # h: r -> t factors once through each object s
        i = cat.index[h]
        r = cat.src_of[i]
        return sum(a == sigma and row[r] == tau for a, row in zip(rel[cat.tgt_of[i]], rel))

    h1, *rest = sorted(partition.blocks[names[mu]])
    c1 = count(h1)
    h, c = next((h, c) for h, c in zip(rest, map(count, rest)) if c != c1)
    raise AxiomViolation(names[sigma], names[tau], names[mu], h1, c1, h, c)


def _intersection_tally(rel, k):
    """The intersection numbers of a k-class matrix rel, N x N with class
    indices 0..k-1, by one pass over the point triples (x, y, z).

    p^g_{ef} = #{y : rel[x][y] = e, rel[y][z] = f} for any (x, z) of class
    g.  Each pair (x, z) gets the signature sorted(e k + f over y), which
    must equal the signature of the first pair of its class in row-major
    order; a Counter is built only for each class's first pair and for
    the pairs that differ from it.  Returns (constants, failure): the
    nonzero {(e, f, g): p} sorted by (e, f, g) and None, or None and the
    lexicographically first (e, f, g) that is not constant with its
    witness ((e, f, g), first pair, its count, first pair in row-major
    order whose count differs, that count).
    """
    cols = list(zip(*rel))
    first: list[list[int] | None] = [None] * k    # g -> signature of its first pair
    at: dict[int, tuple[int, int]] = {}
    counts: dict[int, Counter] = {}   # g -> Counter of its first signature, on demand
    worst = None
    for x, row in enumerate(rel):
        scaled = [e * k for e in row]
        signatures = [sorted(map(add, scaled, col)) for col in cols]
        for z, (g, signature) in enumerate(zip(row, signatures)):
            ref = first[g]
            if signature == ref:
                continue
            if ref is None:
                first[g], at[g] = signature, (x, z)
                continue
            if g not in counts:
                counts[g] = Counter(ref)
            ref, tally = counts[g], Counter(signature)
            key = min(key for key in ref.keys() | tally.keys() if ref[key] != tally[key])
            e, f = divmod(key, k)
            if worst is None or (e, f, g) < worst[0]:
                worst = ((e, f, g), at[g], ref[key], (x, z), tally[key])
    if worst is not None:
        return None, worst
    tallies = list(map(Counter, first))
    return {(key // k, key % k, g): tallies[g][key]
            for key, g in sorted((key, g) for g, tally in enumerate(tallies) for key in tally)}, None


def verify_quasi_schemoid(cat: FinCategory, partition: MorphismPartition,
                          involution: Involution | None = None,
                          base_points=None) -> QuasiSchemoid:
    constants = check_concatenation(cat, partition)
    return QuasiSchemoid(cat, partition, constants, involution,
                         tuple(base_points) if base_points is not None else None)


def identity_blocks(cat: FinCategory, partition: MorphismPartition):
    """The blocks that meet the identities, and those of them that also
    hold a non-identity: two lists, both in block order."""
    idents = cat.identities()
    meeting, mixed = [], []
    for name, members in partition.blocks.items():
        if not members.isdisjoint(idents):
            meeting.append(name)
            if not members <= idents:
                mixed.append(name)
    return meeting, mixed


def is_unital(cat: FinCategory, partition: MorphismPartition):
    """True iff every block meeting the identities is made of identities.

    Returns (flag, first offending block name or None).
    """
    mixed = identity_blocks(cat, partition)[1]
    return (False, mixed[0]) if mixed else (True, None)


def check_association(cat: FinCategory, partition: MorphismPartition, t: Functor) -> Involution:
    """Verify the loop condition and the contravariant involution T.

    Conditions: every block meeting an endomorphism set lies inside the
    endomorphisms; T is a contravariant functor with T^2 = id carrying each
    block onto a block.
    """
    endos = frozenset(cat.endomorphisms())
    for name, members in partition.blocks.items():
        if members & endos and not members <= endos:
            raise LoopConditionViolated(name)
    if not t.contravariant:
        raise NotInvolution("T must be contravariant")
    validate_functor(t, cat, cat)
    for x in cat.objects:
        if t.object_map[t.object_map[x]] != x:
            raise NotInvolution(f"T^2 != id on object {x!r}")
    for m in cat.morphism_ids:
        if t.morphism_map[t.morphism_map[m]] != m:
            raise NotInvolution(f"T^2 != id on morphism {m!r}")
    block_image: dict[str, str] = {}
    bo = partition.block_of
    for name, members in partition.blocks.items():
        images = {bo[t.morphism_map[m]] for m in members}
        if len(images) != 1:
            raise BlockNotPreserved(name)
        image = images.pop()
        if len(partition.blocks[image]) != len(members):
            raise BlockNotPreserved(name)
        block_image[name] = image
    return Involution(t, block_image)


@dataclass(frozen=True)
class ThinnessReport:
    unital: bool
    groupoid_with_t_inverse: bool
    semi_thin: bool
    thin: bool
    base_points: tuple[str, ...] | None
    phi: dict[str, str] | None      # base point -> identity block
    s0: tuple[str, ...]
    witness: str | None
    mixed: tuple[str, ...]          # blocks of s0 that also hold a non-identity


def analyze_thinness(qs: QuasiSchemoid, base_points=None) -> ThinnessReport:
    """Semi-thin and thin analysis of a verified association schemoid.

    Thin means one base point per connected component with v -> (block of
    1_v) a bijection onto the identity blocks s0.  `_search_base_points`
    finds them, or checks given ones with each component's candidates cut
    down to the given points; given ones are reported in the given order.

    The witness is the first failure in this order: the first block, in
    block order, that mixes identities with other morphisms; the first
    block with two morphisms out of one object, at the first repeated
    source in morphism order; T not the inverse map, or no groupoid.
    """
    cat, partition = qs.category, qs.partition
    meeting, mixed = identity_blocks(cat, partition)
    unital = not mixed
    witness = None if unital else f"block {mixed[0]!r} mixes identities with other morphisms"

    per_source = True
    for name, members in partition.blocks.items():
        seen: set[str] = set()
        sources = map(cat.src, sorted(members, key=cat.index.__getitem__))
        x = next((x for x in sources if x in seen or seen.add(x)), None)   # first repeat
        if x is not None:
            per_source = False
            witness = witness or f"block {name!r} has two morphisms out of {x!r}"
            break

    groupoid_ok = False
    if qs.involution is not None:
        try:
            gpd = as_groupoid(cat)
            groupoid_ok = all(qs.involution.functor.morphism_map[f] == gpd.inverse[f]
                              for f in cat.morphism_ids)
            if not groupoid_ok:
                witness = witness or "T is not the inverse map"
        except NotInvertible:
            witness = witness or "underlying category is not a groupoid"

    semi_thin = unital and per_source and groupoid_ok
    s0 = tuple(meeting)
    found = phi = None
    if semi_thin and cat.thin and len(comps := cat.components()) == len(s0):
        ident_block = {x: partition.block_of[cat.identity[x]] for x in cat.objects}
        if base_points is None:
            found = _search_base_points(comps, ident_block, set(s0))
        elif len(base_points) == len(comps) and _search_base_points(
                [c.intersection(base_points) for c in comps], ident_block, set(s0)) is not None:
            # as many given points as components and some in each: one in each
            found = tuple(base_points)
        if found is not None:
            phi = {x: ident_block[x] for x in found}

    return ThinnessReport(unital, groupoid_ok, semi_thin, found is not None,
                          found, phi, s0, witness, tuple(mixed))


def _search_base_points(comps, ident_block, s0):
    """One object per component whose identity blocks exhaust s0, by
    backtracking over each component's objects in sorted order; None when
    there is none, or when a component has no candidate."""
    comps = [sorted(c) for c in comps]

    def extend(i, used, acc):
        if i == len(comps):
            return tuple(acc) if used == s0 else None
        for x in comps[i]:
            b = ident_block[x]
            if b in used:
                continue
            got = extend(i + 1, used | {b}, acc + [x])
            if got is not None:
                return got
        return None

    return extend(0, set(), [])


def is_basic(qs: QuasiSchemoid) -> bool:
    """Unital with a groupoid underneath."""
    return is_unital(qs.category, qs.partition)[0] and is_groupoid(qs.category)


# ---------------------------------------------------------------------------
# Schemoid morphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SchemoidMorphism:
    source: QuasiSchemoid
    target: QuasiSchemoid
    functor: Functor
    block_image: dict[str, str]       # source block -> the target block it lands in

    def __call__(self, m: str) -> str:
        return self.functor.morphism_map[m]

    @cached_property
    def fibers(self) -> dict[str, dict[tuple[str, str], int]]:
        """sigma -> {(x, g): #(phi^-1(g) ∩ x sigma)} over the eligible pairs,
        x a source object and g in the image block of sigma ending at
        phi(x): sigma in block order, then x in object order, then g in the
        target's morphism order.  Built on first read and kept, so the
        admissibility report, the multiplicities and the induced algebra
        map share one count; read it, never change it."""
        src, tgt = self.source, self.target
        tgt_cat, tgt_block = tgt.category, tgt.partition.block_of
        ending: dict[tuple[str, str], list[str]] = {}    # (object, block) -> g ending there
        for g in tgt_cat.morphism_ids:
            ending.setdefault((tgt_cat.tgt(g), tgt_block[g]), []).append(g)
        src_cat, omap = src.category, self.functor.object_map
        counts = {sigma: {(x, g): 0 for x in src_cat.objects
                          for g in ending.get((omap[x], self.block_image[sigma]), ())}
                  for sigma in src.block_names()}
        block_of, mmap = src.partition.block_of, self.functor.morphism_map
        for f in src_cat.morphism_ids:
            counts[block_of[f]][(src_cat.tgt(f), mmap[f])] += 1
        return counts


def schemoid_morphism(source: QuasiSchemoid, target: QuasiSchemoid,
                      functor: Functor) -> SchemoidMorphism:
    """Validate the functor laws and that each block lands inside one block."""
    validate_functor(functor, source.category, target.category)
    block_of = target.partition.block_of
    block_image = {}
    for name, members in source.partition.blocks.items():
        images = {block_of[functor.morphism_map[m]] for m in members}
        if len(images) != 1:
            raise NotBlockwise(f"block {name!r} maps into {len(images)} blocks")
        block_image[name] = images.pop()
    return SchemoidMorphism(source, target, functor, block_image)


def identity_morphism(qs: QuasiSchemoid) -> SchemoidMorphism:
    return schemoid_morphism(qs, qs, identity_functor(qs.category))


def compose_schemoid_morphisms(second: SchemoidMorphism, first: SchemoidMorphism) -> SchemoidMorphism:
    """second∘first; the target of first must be the source of second, the
    same category with the same partition."""
    middle, start = first.target, second.source
    if middle is not start and (middle.category != start.category
                                or middle.partition != start.partition):
        raise NotComposable("the first morphism's target is not the second's source")
    return schemoid_morphism(first.source, second.target,
                             compose_functors(second.functor, first.functor))


# ---------------------------------------------------------------------------
# Products and joins of quasi-schemoids
# ---------------------------------------------------------------------------

def schemoid_product(a: QuasiSchemoid, b: QuasiSchemoid) -> QuasiSchemoid:
    """Blockwise product; involutions combine componentwise when both exist."""
    return schemoid_product_with_projections(a, b)[0]


def schemoid_product_with_projections(a: QuasiSchemoid, b: QuasiSchemoid):
    """The product schemoid plus the two projection functors of its category."""
    cat, p1, p2 = product_with_projections(a.category, b.category)
    blocks: dict[str, list[str]] = {}
    for m in cat.morphism_ids:
        sa = a.partition.block_of[p1.morphism_map[m]]
        sb = b.partition.block_of[p2.morphism_map[m]]
        blocks.setdefault(pair_name(sa, sb), []).append(m)
    partition = make_partition(cat, blocks)
    involution = None
    if a.involution is not None and b.involution is not None:
        ta, tb = a.involution.functor, b.involution.functor
        omap = {}
        for x in a.category.objects:
            for y in b.category.objects:
                omap[pair_name(x, y)] = pair_name(ta.object_map[x], tb.object_map[y])
        mmap = {m: pair_name(ta.morphism_map[p1.morphism_map[m]], tb.morphism_map[p2.morphism_map[m]])
                for m in cat.morphism_ids}
        involution = check_association(cat, partition, Functor(omap, mmap, contravariant=True))
    return verify_quasi_schemoid(cat, partition, involution), p1, p2


def schemoid_join(a: QuasiSchemoid, b: QuasiSchemoid) -> QuasiSchemoid:
    """Join with partition S ∪ S' ∪ one singleton per connecting morphism."""
    cat = join(a.category, b.category)
    blocks: dict[str, list[str]] = {}
    for name, members in a.partition.blocks.items():
        blocks[f"L.{name}"] = [f"L.{m}" for m in members]
    for name, members in b.partition.blocks.items():
        blocks[f"R.{name}"] = [f"R.{m}" for m in members]
    for x in a.category.objects:
        for y in b.category.objects:
            w = connector_name(x, y)
            blocks[w] = [w]
    partition = make_partition(cat, blocks)
    return verify_quasi_schemoid(cat, partition)


# ---------------------------------------------------------------------------
# Morphism enumeration
# ---------------------------------------------------------------------------

def schemoid_morphisms(a: QuasiSchemoid, b: QuasiSchemoid):
    """Yield every schemoid morphism a -> b, each built by `schemoid_morphism`.

    Images are chosen only for a's Light generators (`FinCategory.generators`),
    which with the identities generate every morphism; a generator with more
    endpoints already mapped goes first.  An endpoint not yet
    mapped takes its image from the chosen morphism, and each choice is closed
    under composition with the images before it; a clash in a composite, an
    object image or a block image prunes the branch.  Objects that carry only
    an identity are mapped last.
    """
    return _morphisms(a, b, injective=False)


def _morphisms(a: QuasiSchemoid, b: QuasiSchemoid, injective: bool):
    """`schemoid_morphisms`, or with injective=True only the morphisms
    injective on morphisms: a choice whose image is already taken prunes."""
    ca, cb = a.category, b.category
    block_a, block_b = a.partition.block_of, b.partition.block_of
    ids, index = ca.morphism_ids, ca.index

    def put(omap, mmap, bmap, hit, f, h):
        """Map f to h and close under composition; False on a clash."""
        stack = [(f, h)]
        while stack:
            f, h = stack.pop()
            if f in mmap:
                if mmap[f] != h:
                    return False
                continue
            if h in hit or bmap.setdefault(block_a[f], block_b[h]) != block_b[h]:
                return False
            mmap[f] = h
            if injective:
                hit.add(h)
            for x, y in ((ca.src(f), cb.src(h)), (ca.tgt(f), cb.tgt(h))):
                if omap.setdefault(x, y) != y:
                    return False
                stack.append((ca.identity[x], cb.identity[y]))
            i = index[f]
            stack += [(ca.comp(f, g), cb.comp(h, mmap[g]))
                      for g in map(ids.__getitem__, ca.into[ca.src_of[i]]) if g in mmap]
            stack += [(ca.comp(g, f), cb.comp(mmap[g], h))
                      for g in map(ids.__getitem__, ca.out_of[ca.tgt_of[i]]) if g in mmap]
        return True

    # an identity is pending only when its object is not mapped, which after
    # the generators leaves the objects that carry only an identity
    choices = ca.generators + tuple(ca.identity[x] for x in ca.objects)

    def extend(omap, mmap, bmap, hit):
        pending = [g for g in choices if g not in mmap]
        f = max(pending, key=lambda g: (ca.src(g) in omap) + (ca.tgt(g) in omap), default=None)
        if f is None:
            yield schemoid_morphism(a, b, Functor(omap, mmap))
            return
        s, t = ca.src(f), ca.tgt(f)
        for h, hs, ht in cb.morphisms:
            if omap.get(s, hs) == hs and omap.get(t, ht) == ht:
                state = dict(omap), dict(mmap), dict(bmap), set(hit)
                if put(*state, f, h):
                    yield from extend(*state)

    yield from extend({}, {}, {}, set())


def schemoid_isomorphic(a: QuasiSchemoid, b: QuasiSchemoid) -> Functor | None:
    """Functor bijective on objects and morphisms carrying blocks onto blocks:
    the first morphism injective on morphisms, so bijective, and bijective on
    block images, or None when there is none."""
    ca, cb = a.category, b.category
    if len(ca.objects) != len(cb.objects) or len(ca.morphisms) != len(cb.morphisms):
        return None
    sizes = lambda qs: sorted(len(m) for m in qs.partition.blocks.values())
    if sizes(a) != sizes(b):
        return None
    for g in _morphisms(a, b, injective=True):
        if len(set(g.block_image.values())) == len(g.block_image):
            return g.functor
    return None
