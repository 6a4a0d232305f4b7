"""Admissible schemoid morphisms, fiber multiplicities and induced algebra maps.

A morphism phi is admissible when every morphism g of the image block of
sigma ending at an image object phi(x) is hit by some f in sigma ending at
x.  Under the gates below the fiber counts #(phi^-1(g) ∩ x sigma) are
constant per block; these multiplicities define the algebra map
s_pi -> n_pi s_phi(pi), whose homomorphism property is re-certified rather
than assumed.

One fiber count (`SchemoidMorphism.fibers`, counted on first read and
kept) serves both, and fixes the order of the failures (x, sigma, g)
under any hash seed: sigma in block order, then x in object order, then g
in the target's morphism order.

Gates for the multiplicities: the target must be basic, and the source
must either be a groupoid underneath or satisfy the unique-solution
condition: within fixed blocks, f∘g = h has at most one solution once two
of f, g, h are chosen.  The gates are reported (`gate_report`) and never
enforced: `multiplicities` checks constancy itself on every input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraMap, HomCheckFailed, check_algebra_hom, schemoid_algebra
from .fincat import SchemoidsError, is_groupoid
from .schemoid import QuasiSchemoid, SchemoidMorphism, identity_blocks, is_basic


class AdmissibilityError(SchemoidsError):
    pass


class NonConstantFiber(AdmissibilityError):
    pass


class HypothesisNotMet(AdmissibilityError):
    pass


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    failures: tuple            # (x, sigma, g) witnesses
    kernel: tuple[str, ...]    # blocks mapped into identity blocks of the target


def _unhit(counts) -> list[tuple[str, str, str]]:
    """The (x, sigma, g) whose fiber is empty, in the order of
    `SchemoidMorphism.fibers`."""
    return [(x, sigma, g) for sigma, fibers in counts.items()
            for (x, g), n in fibers.items() if not n]


def is_admissible(phi: SchemoidMorphism) -> AdmissibilityReport:
    """Surjectivity of the target-anchored fibers, with all failures collected
    in the order the module docstring states."""
    failures = _unhit(phi.fibers)
    tgt = phi.target
    meeting, mixed = identity_blocks(tgt.category, tgt.partition)
    only_identities = set(meeting).difference(mixed)
    kernel = tuple(sigma for sigma in phi.source.block_names()
                   if phi.block_image[sigma] in only_identities)
    return AdmissibilityReport(not failures, tuple(failures), kernel)


def gate_report(phi: SchemoidMorphism) -> dict[str, bool]:
    """Sufficient hypotheses for constant fibers, reported and never
    enforced: `multiplicities` asserts constancy itself, and non-basic
    targets with uniform fibers do occur, extension projections being the
    prime case."""
    ok_p, _ = condition_P(phi.source)
    return {
        "target_basic": is_basic(phi.target),
        "source_groupoid": is_groupoid(phi.source.category),
        "source_condition_P": ok_p,
    }


def multiplicities(phi: SchemoidMorphism) -> dict[str, int]:
    """Fiber counts n_sigma, verified constant over all eligible anchors.

    An empty fiber anywhere is HypothesisNotMet at the first failure of
    `is_admissible`; then the first block with two counts is
    NonConstantFiber, whose extremes are the first pair with the least
    count and the last with the greatest."""
    counts = phi.fibers
    failures = _unhit(counts)
    if failures:
        raise HypothesisNotMet(f"morphism is not admissible: {failures[0]}")
    out: dict[str, int] = {}
    for sigma, fibers in counts.items():
        values = set(fibers.values())
        if len(values) != 1:
            witnesses = sorted(fibers.items(), key=lambda kv: kv[1])
            raise NonConstantFiber(f"block {sigma!r}: counts range over {sorted(values)}; "
                                   f"extremes {witnesses[0]}, {witnesses[-1]}")
        out[sigma] = values.pop()
    return out


def verify_sum_identity(phi: SchemoidMorphism, mult: dict[str, int]):
    """sum over sigma with phi(sigma) = tau of p^sigma_{pi rho} n_sigma
    equals p^tau_{phi(pi) phi(rho)} n_pi n_rho, on every block triple.

    Returns (ok, table) with one row per (pi, rho, tau).
    """
    src = phi.source
    tgt = phi.target
    table = []
    ok = True
    for pi in src.block_names():
        for rho in src.block_names():
            for tau in tgt.block_names():
                lhs = sum(src.p(pi, rho, sigma) * mult[sigma]
                          for sigma in src.block_names() if phi.block_image[sigma] == tau)
                rhs = tgt.p(phi.block_image[pi], phi.block_image[rho], tau) * mult[pi] * mult[rho]
                table.append((pi, rho, tau, lhs, rhs))
                if lhs != rhs:
                    ok = False
    return ok, table


def induced_algebra_map(phi: SchemoidMorphism, ring) -> AlgebraMap:
    """The map s_pi -> n_pi s_phi(pi), with the hom property certified."""
    mult = multiplicities(phi)
    a = schemoid_algebra(phi.source, ring)
    b = schemoid_algebra(phi.target, ring)
    matrix = {}
    for pi in a.basis:
        coeff = ring.from_int(mult[pi])
        if coeff != ring.zero:
            matrix[(phi.block_image[pi], pi)] = coeff
    amap = AlgebraMap(a, b, matrix)
    ok, witness = check_algebra_hom(amap, a, b)
    if not ok:
        raise HomCheckFailed(f"induced map is not a homomorphism at {witness}")
    return amap


def condition_P(qs: QuasiSchemoid):
    """At most one in-block solution of f∘g = h for every choice of two of
    f, g, h.  Returns (True, None) or (False, witness), the witness at the
    first pair (f, g) in table order (`entries`), however the category was
    built, whose solution differs from one seen before it.  A thin category
    needs no scan: any two of f, g, h fix the endpoints of the third, and so
    the third itself."""
    cat = qs.category
    if cat.thin:
        return True, None
    ids, names, block_of = cat.morphism_ids, qs.partition.names(), qs.partition.block_of
    number = {name: b for b, name in enumerate(names)}
    block = [number[block_of[m]] for m in ids]
    width, n = len(names), len(ids)
    # the solutions seen so far, keyed by position: g by (f, h, block(g))
    # and f by (g, h, block(f))
    g_solutions: dict[int, int] = {}
    f_solutions: dict[int, int] = {}
    for i, (j, k) in cat.entries():
        other = g_solutions.setdefault((i * n + k) * width + block[j], j)
        if other != j:
            return False, ("two right factors", ids[i], ids[k], ids[other], ids[j])
        other = f_solutions.setdefault((j * n + k) * width + block[i], i)
        if other != i:
            return False, ("two left factors", ids[j], ids[k], ids[other], ids[i])
    return True, None


def image_block_closure(phi: SchemoidMorphism):
    """Blocks with a positive constant over image blocks are image blocks.

    Returns (True, None) or (False, witness (pi, rho, tau)), the first in
    the target's block order.
    """
    tgt = phi.target
    image = set(phi.block_image.values())
    ordered = [b for b in tgt.block_names() if b in image]
    for pi in ordered:
        for rho in ordered:
            for tau in tgt.block_names():
                if tgt.p(pi, rho, tau) > 0 and tau not in image:
                    return False, (pi, rho, tau)
    return True, None
