"""Functors between groupoids and schemoids, with round-trip verification.

s_tilde sends a groupoid H to the based association schemoid on ob = mor(H)
whose blocks collect the pairs (k, l) with k^-1 l fixed; r_tilde rebuilds a
groupoid out of a semi-thin schemoid from its identity blocks and the
uniquely-factoring block composition; for thin schemoids with base points
the two constructions compose to the identity, witnessed morphism by
morphism by the explicit functor pair built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .fincat import (
    FinCategory,
    Functor,
    Groupoid,
    NotAFunctor,
    SchemoidsError,
    as_groupoid,
    build_category,
    pair_name,
    validate_functor,
)
from .schemes import SCHEME_BUDGET, SizeLimit
from .schemoid import (
    QuasiSchemoid,
    SchemoidMorphism,
    ThinnessReport,
    analyze_thinness,
    check_association,
    discrete_partition,
    make_partition,
    schemoid_morphism,
    verify_quasi_schemoid,
)


class BridgeError(SchemoidsError):
    pass


class NotSemiThin(BridgeError):
    pass


class NotThin(BridgeError):
    pass


class UniquenessViolation(BridgeError):
    pass


class NotBasedMorphism(NotAFunctor):
    """Base points not preserved; the recovery formula would not apply."""


def s_tilde(h: Groupoid) -> QuasiSchemoid:
    """Based association schemoid of a groupoid.

    Objects are the morphisms of H; Hom(g, h) = {(h, g)} when g and h share
    a target; the block of (k, l) is determined by k^-1 l; T flips pairs.
    Blocks from distinct components stay distinct: pairs from different
    components never share the k^-1 l value.  The category has Σ_t |H_t|³
    composable triples, H_t the morphisms with target t: past SCHEME_BUDGET
    it is refused as SizeLimit before any name is built.
    """
    cat_h = h.base
    mors = list(cat_h.morphism_ids)
    objects = mors
    morphisms = []
    rows = []
    by_target: dict[str, list[str]] = {}
    for m in mors:
        by_target.setdefault(cat_h.tgt(m), []).append(m)
    triples = sum(len(group) ** 3 for group in by_target.values())
    if triples > SCHEME_BUDGET:
        raise SizeLimit(f"{triples} composable triples of morphisms exceed the budget of {SCHEME_BUDGET}")
    name = {(k, l): pair_name(k, l) for group in by_target.values() for k in group for l in group}
    for group in by_target.values():
        for k in group:
            # (k, l) is morphism `start` + l's place in the group, and into(l)
            # is the (l, x), x in group order: the row of (k, l) holds
            # (k, l)∘(l, x) = (k, x), one list shared by every l
            start = len(morphisms)
            morphisms += [(name[(k, l)], l, k) for l in group]
            rows += repeat(list(range(start, len(morphisms))), len(group))
    identity = {m: name[(m, m)] for m in mors}
    cat = build_category(objects, morphisms, identity, rows=rows)

    blocks: dict[str, list[str]] = {}
    for (k, l), kl in name.items():
        f = cat_h.comp(h.inverse[k], l)
        blocks.setdefault(f"G[{f}]", []).append(kl)
    partition = make_partition(cat, blocks)
    t = Functor({m: m for m in mors}, {kl: name[(l, k)] for (k, l), kl in name.items()},
                contravariant=True)
    involution = check_association(cat, partition, t)
    base_points = tuple(cat_h.identity[x] for x in cat_h.objects)
    return verify_quasi_schemoid(cat, partition, involution, base_points)


def s_tilde_on_functor(f: Functor, k: Groupoid, h: Groupoid) -> SchemoidMorphism:
    """Image of a groupoid functor under s_tilde, verified blockwise."""
    validate_functor(f, k.base, h.base)
    sk = s_tilde(k)
    sh = s_tilde(h)
    omap = {m: f.morphism_map[m] for m in k.base.morphism_ids}
    mmap = {}
    for (pair, src, tgt) in sk.category.morphisms:
        mmap[pair] = pair_name(f.morphism_map[tgt], f.morphism_map[src])
    fun = Functor(omap, mmap)
    return schemoid_morphism(sk, sh, fun)


def k_discrete(cat: FinCategory) -> QuasiSchemoid:
    """Quasi-schemoid with the singleton partition; U(K(C)) = C."""
    return verify_quasi_schemoid(cat, discrete_partition(cat))


# ---------------------------------------------------------------------------
# Semi-thin analysis and the groupoid reconstruction
# ---------------------------------------------------------------------------

def _block_groupoid(qs: QuasiSchemoid, s0: tuple[str, ...]) -> Groupoid:
    """r_tilde of a semi-thin schemoid whose identity blocks are s0.

    The uniqueness facts behind the construction are recomputed here rather
    than assumed; a violation raises instead of producing a bad groupoid.
    """
    names = qs.block_names()
    source_block = {}
    target_block = {}
    for sigma in names:
        alphas = [a for a in s0 if qs.p(sigma, a, sigma) == 1]
        if len(alphas) != 1 or any(qs.p(sigma, a, sigma) != 0 for a in s0 if a != alphas[0]):
            raise UniquenessViolation(f"no unique identity block composing into {sigma!r} on the right")
        betas = [b for b in s0 if qs.p(b, sigma, sigma) == 1]
        if len(betas) != 1 or any(qs.p(b, sigma, sigma) != 0 for b in s0 if b != betas[0]):
            raise UniquenessViolation(f"no unique identity block composing into {sigma!r} on the left")
        source_block[sigma] = alphas[0]
        target_block[sigma] = betas[0]
    composition = []
    for sigma in names:
        for tau in names:
            # tau after sigma: target of sigma must be source of tau
            if target_block[sigma] != source_block[tau]:
                continue
            mus = [mu for mu in names if qs.p(tau, sigma, mu) == 1]
            others = [mu for mu in names if qs.p(tau, sigma, mu) not in (0, 1)]
            if len(mus) != 1 or others:
                raise UniquenessViolation(f"composite of blocks ({tau!r}, {sigma!r}) not unique")
            mu = mus[0]
            if source_block[mu] != source_block[sigma] or target_block[mu] != target_block[tau]:
                raise UniquenessViolation(f"composite block of ({tau!r}, {sigma!r}) has wrong endpoints")
            composition.append((tau, sigma, mu))
    morphisms = [(sigma, source_block[sigma], target_block[sigma]) for sigma in names]
    identity = {alpha: alpha for alpha in s0}
    cat = build_category(list(s0), morphisms, identity, composition)
    inverse = {sigma: qs.involution.block_image[sigma] for sigma in names}
    for sigma, star in inverse.items():
        if (cat.comp(sigma, star) != identity[target_block[sigma]]
                or cat.comp(star, sigma) != identity[source_block[sigma]]):
            raise UniquenessViolation(f"block involution fails to invert {sigma!r}")
    return Groupoid(cat, inverse)


def r_tilde(qs: QuasiSchemoid, report: ThinnessReport | None = None) -> Groupoid:
    """Groupoid with objects the identity blocks and morphisms the blocks.
    `report` is `analyze_thinness(qs, qs.base_points)`, made here when not
    given."""
    if report is None:
        report = analyze_thinness(qs, qs.base_points)
    if not report.semi_thin:
        raise NotSemiThin(report.witness or "schemoid is not semi-thin")
    return _block_groupoid(qs, report.s0)


def canonical_groupoid_witness(g: Groupoid, pair_schemoid: QuasiSchemoid,
                               report: ThinnessReport) -> Functor:
    """The functor x -> G[1_x], f -> G[f] onto r_tilde(pair_schemoid),
    verified to be an isomorphism of categories; `pair_schemoid` is
    s_tilde(G), and `report` its thinness report, as `r_tilde` reads it."""
    rt = r_tilde(pair_schemoid, report)
    omap = {x: f"G[{g.base.identity[x]}]" for x in g.base.objects}
    mmap = {f: f"G[{f}]" for f in g.base.morphism_ids}
    fun = Functor(omap, mmap)
    validate_functor(fun, g.base, rt.base)
    if sorted(omap.values()) != sorted(rt.base.objects):
        raise BridgeError("canonical witness not bijective on objects")
    if sorted(mmap.values()) != sorted(rt.base.morphism_ids):
        raise BridgeError("canonical witness not bijective on morphisms")
    return fun


# ---------------------------------------------------------------------------
# The thin round trip
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ThinRoundTrip:
    double: QuasiSchemoid        # s_tilde(r_tilde(qs))
    phi: Functor                 # qs -> double
    psi: Functor                 # double -> qs


def phi_psi_check(qs: QuasiSchemoid, report: ThinnessReport) -> ThinRoundTrip:
    """Explicit inverse pair between a based thin schemoid and its double.
    `report` is `analyze_thinness(qs, qs.base_points)`.

    Verifies functoriality, that both composites are identities on objects
    and morphisms, blockwise behaviour of both functors, and that phi sends
    the base points onto the identity blocks.

    Refusals, the first met in this order: NotSemiThin with the witness of
    `analyze_thinness`, NotThin when no base points fit, NotThin at the
    first block, in block order, without one member into its base point.
    A thin report has one base point per component and a groupoid that is
    thin, so one morphism from each object to a base point: a report that
    breaks this is a program error (ValueError), not a verdict.
    """
    if not report.semi_thin:
        raise NotSemiThin(report.witness or "schemoid is not semi-thin")
    if not report.thin:
        raise NotThin("no base-point set makes v -> block(1_v) bijective")
    v = report.base_points
    gpd = _block_groupoid(qs, report.s0)
    double = s_tilde(gpd)
    cat = qs.category

    # phi: x -> block of the unique morphism from x to a base point
    phi_obj = {}
    for x in cat.objects:
        (arrow,) = [f for w in v for f in cat.hom(x, w)]
        phi_obj[x] = qs.partition.block_of[arrow]
    phi_mor = {m: pair_name(phi_obj[cat.tgt(m)], phi_obj[cat.src(m)]) for m in cat.morphism_ids}
    phi = Functor(phi_obj, phi_mor)
    validate_functor(phi, cat, double.category)

    # psi: block sigma -> source of its unique member targeting the base point
    f_of = {}
    for sigma in qs.block_names():
        beta = gpd.base.tgt(sigma)
        vb = next(w for w in v if report.phi[w] == beta)
        members = [m for m in qs.partition.blocks[sigma] if cat.tgt(m) == vb]
        if len(members) != 1:
            raise NotThin(f"block {sigma!r} has {len(members)} members into its base point")
        f_of[sigma] = members[0]
    gpd_inv = as_groupoid(cat).inverse
    psi_obj = {sigma: cat.src(f_of[sigma]) for sigma in qs.block_names()}
    psi_mor = {}
    for (m, src, tgt) in double.category.morphisms:
        # m: sigma -> tau in the double is the pair (tau, sigma)
        sigma, tau = src, tgt
        psi_mor[m] = cat.comp(gpd_inv[f_of[tau]], f_of[sigma])
    psi = Functor(psi_obj, psi_mor)
    validate_functor(psi, double.category, cat)

    for x in cat.objects:
        if psi_obj[phi_obj[x]] != x:
            raise BridgeError(f"psi(phi({x!r})) != {x!r}")
    for m in cat.morphism_ids:
        if psi_mor[phi_mor[m]] != m:
            raise BridgeError(f"psi(phi({m!r})) != {m!r}")
    for sigma in double.category.objects:
        if phi_obj[psi_obj[sigma]] != sigma:
            raise BridgeError(f"phi(psi({sigma!r})) != {sigma!r}")
    for m in double.category.morphism_ids:
        if phi_mor[psi_mor[m]] != m:
            raise BridgeError(f"phi(psi({m!r})) != {m!r}")

    schemoid_morphism(qs, double, phi)
    schemoid_morphism(double, qs, psi)

    if sorted(phi_obj[w] for w in v) != sorted(report.s0):
        raise BridgeError("phi does not carry base points onto the identity blocks")
    return ThinRoundTrip(double, phi, psi)


# ---------------------------------------------------------------------------
# Faithfulness round trip
# ---------------------------------------------------------------------------

def faithfulness_roundtrip(g: SchemoidMorphism, k: Groupoid, h: Groupoid) -> Functor:
    """Recover the groupoid functor underneath a based morphism of s_tilde images.

    The object part of G acts on mor(K); base-point preservation means every
    identity of K is sent to an identity of H.  The recovered functor is
    F(x) = s(G(1_x)) and F(f) = G(1_{t(f)})^-1 ∘ G(f); s_tilde of it must
    reproduce G exactly.
    """
    ck, ch = k.base, h.base
    gmap = g.functor.object_map       # mor(K) -> mor(H)
    idents_h = ch.identities()
    for x in ck.objects:
        if gmap[ck.identity[x]] not in idents_h:
            raise NotBasedMorphism(f"base point {ck.identity[x]!r} maps to a non-identity")
    fobj = {x: ch.src(gmap[ck.identity[x]]) for x in ck.objects}
    fmor = {}
    for f in ck.morphism_ids:
        at_target = gmap[ck.identity[ck.tgt(f)]]
        fmor[f] = ch.comp(h.inverse[at_target], gmap[f])
    fun = Functor(fobj, fmor)
    validate_functor(fun, ck, ch)
    back = s_tilde_on_functor(fun, k, h)
    if back.functor.object_map != g.functor.object_map \
            or back.functor.morphism_map != g.functor.morphism_map:
        raise BridgeError("s_tilde of the recovered functor differs from the input")
    return fun
