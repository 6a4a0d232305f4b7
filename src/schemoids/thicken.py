"""Categories from transitive hom-count matrices and scheme thickenings.

Given a matrix Z with z_ij counting Hom(i, j) (diagonal at least 2), a
category exists whose non-identity composites all land on a chosen frame
morphism phi_ik; every non-frame non-identity morphism is therefore
composition-irreducible.  Thickening an association scheme picks
Z = sum_l z_l R_l + I, partitions the frame by the scheme classes and the
residual copies by parallel class, and the result is a unital
quasi-schemoid; with equal thickness it carries an involution pairing
phi_ij^lambda with phi_ji^lambda.

Morphism ids follow the pattern 'phi_i_j_lambda' with lambda = 0 on the
frame, and 'id_i' for identities, so projections and induced maps stay
auditable in reports.  `_cell_name` builds every id; a label that holds '_'
or a backslash has each of them escaped with a backslash, so distinct
cells never share an id.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from .fincat import FinCategory, Functor, SchemoidsError, build_category, pair_name
from .schemes import SCHEME_BUDGET, CoherentConfiguration, SizeLimit, scheme_morphism
from .schemoid import (
    QuasiSchemoid,
    SchemoidMorphism,
    check_association,
    make_partition,
    schemoid_morphism,
    verify_quasi_schemoid,
)


class ThickenError(SchemoidsError):
    pass


class NotTransitive(ThickenError):
    pass


class DiagonalTooSmall(ThickenError):
    pass


class UnequalThickness(ThickenError):
    pass


@dataclass(frozen=True, eq=False)
class FramedCategory:
    category: FinCategory
    labels: tuple[str, ...]                    # object labels in matrix order
    counts: tuple[tuple[int, ...], ...]        # the hom-count matrix
    frame: dict[tuple[str, str], str]          # (i, j) -> frame morphism id
    extras: dict[tuple[str, str], tuple[str, ...]]


def _cell_name(i: str, j: str, lam: int | None) -> str:
    """Id of the morphism phi_i_j_lam, or of the identity id_i when lam is
    None (then j == i)."""
    if lam is None:
        return f"id_{_escape(i)}"
    return f"phi_{_escape(i)}_{_escape(j)}_{lam}"


def _escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace("_", "\\_")


def _cells(cat: FinCategory):
    """(i, j, lam) for every morphism of a category from category_from_matrix:
    lam None for the identity of i, 0 on the frame, then the extra copies;
    in the order category_from_matrix lists them."""
    for i in cat.objects:
        yield i, i, None
    for i in cat.objects:
        for j in cat.objects:
            for lam in range(len(cat.hom(i, j)) - (i == j)):
                yield i, j, lam


def check_transitive(z) -> None:
    """Positive z_ij and z_jk force z_ik positive: m³ index triples of the
    square matrix z."""
    m = len(z)
    for i in range(m):
        for j in range(m):
            if not z[i][j]:
                continue
            for k in range(m):
                if z[j][k] and not z[i][k]:
                    raise NotTransitive(f"z[{i}][{j}] and z[{j}][{k}] positive but z[{i}][{k}] = 0")


def category_from_matrix(z, labels=None) -> FramedCategory:
    """Category with |Hom(i, j)| = z_ij whose non-identity composites collapse
    onto the frame.  Its checks visit each composable triple of morphisms,
    and there are 1ᵀZ³1 of them: past SCHEME_BUDGET the matrix is refused
    as SizeLimit before any morphism is built, and before the m³ scan of
    `check_transitive` (about 256 z³ for the thickness z of H(2,2), which
    is admitted up to z = 19)."""
    z = tuple(map(tuple, z))
    m = len(z)
    if any(len(row) != m for row in z):
        raise ThickenError("matrix must be square")
    if any(x < 0 for row in z for x in row):
        raise ThickenError("entries must be nonnegative")
    paths = [1] * m         # after k rounds, paths[i] counts the paths of k morphisms out of i
    for _ in range(3):
        paths = [sum(map(mul, row, paths)) for row in z]
    triples = sum(paths)
    if triples > SCHEME_BUDGET:
        raise SizeLimit(f"{triples} composable triples of morphisms exceed the budget of {SCHEME_BUDGET}")
    check_transitive(z)
    for i in range(m):
        if z[i][i] < 2:
            raise DiagonalTooSmall(f"diagonal entry {i} is {z[i][i]}, need at least 2")
    if labels is None:
        labels = tuple(str(i) for i in range(m))
    else:
        labels = tuple(str(x) for x in labels)

    identity = {x: _cell_name(x, x, None) for x in labels}
    morphisms = [(e, x, x) for x, e in identity.items()]
    frame = {}
    extras: dict[tuple[str, str], list[str]] = {}
    by_endpoints: dict[tuple[str, str], list[str]] = {}   # the phi morphisms
    for i, x in enumerate(labels):
        for j, y in enumerate(labels):
            if not z[i][j]:
                continue
            phis = [_cell_name(x, y, lam) for lam in range(z[i][j] - (i == j))]
            morphisms.extend((mor, x, y) for mor in phis)
            frame[(x, y)] = phis[0]
            extras[(x, y)] = phis[1:]
            by_endpoints[(x, y)] = phis
    compose = []
    for (i, j), first_batch in by_endpoints.items():
        for (j2, k), second_batch in by_endpoints.items():
            if j2 != j:
                continue
            target = frame[(i, k)]
            for g in first_batch:
                for f in second_batch:
                    compose.append((f, g, target))
    cat = build_category(list(labels), morphisms, identity, compose)
    return FramedCategory(cat, labels, z, frame,
                          {k: tuple(v) for k, v in extras.items()})


def frame_irreducibility(framed: FramedCategory):
    """Every factorization of a non-frame, non-identity morphism uses an identity.

    Returns (True, None) or (False, witness).
    """
    cat = framed.category
    frame_set, ids = set(framed.frame.values()), cat.morphism_ids
    for f, g, h in ((ids[i], ids[j], ids[k]) for i, (j, k) in cat.entries()):
        if h in frame_set or cat.is_identity(h):
            continue
        if not (cat.is_identity(f) or cat.is_identity(g)):
            return False, (f, g, h)
    return True, None


def sigma_prime(framed: FramedCategory, residual: str = "lump") -> QuasiSchemoid:
    """Singleton frame blocks, one identity block, and the residual as one
    block ('lump') or as singletons ('singletons')."""
    cat = framed.category
    idents = set(cat.identity.values())
    frame_set = set(framed.frame.values())
    rest = [m for m in cat.morphism_ids if m not in idents and m not in frame_set]
    blocks: dict[str, list[str]] = {"1": sorted(idents)}
    for (i, j), mor in framed.frame.items():
        blocks[f"[{mor}]"] = [mor]
    if residual == "lump":
        if rest:
            blocks["Q"] = rest
    elif residual == "singletons":
        for m in rest:
            blocks[f"[{m}]"] = [m]
    partition = make_partition(cat, blocks)
    return verify_quasi_schemoid(cat, partition)


def _class_thickness(scheme: CoherentConfiguration, thickness) -> dict[str, int]:
    """Class -> thickness, from one int for every class or a list of one per class."""
    if isinstance(thickness, int):
        thickness = [thickness] * len(scheme.classes)
    if len(thickness) != len(scheme.classes):
        raise ThickenError("one thickness per class required")
    z = {c: int(t) for c, t in zip(scheme.classes, thickness)}
    if any(t < 1 for t in z.values()):
        raise ThickenError("thickness must be at least 1")
    return z


def _block_name(cls: str | None, residual: bool = False) -> str:
    """The identity block is "1" (cls None), a frame block the class name
    and a residual block the class name with "~" after it.  Each backslash
    and "~" of a class name gets a backslash in front and the class "1"
    reads "\\1", so distinct blocks get distinct names and other class
    names stay as they are."""
    if cls is None:
        return "1"
    name = "\\1" if cls == "1" else cls.replace("\\", "\\\\").replace("~", "\\~")
    return name + "~" if residual else name


def thicken_scheme(scheme: CoherentConfiguration, thickness) -> QuasiSchemoid:
    """The thickened schemoid of a scheme: frame blocks by class, residual
    copies collected per class, named by `_block_name`."""
    z_of_class = _class_thickness(scheme, thickness)
    n = scheme.size
    z = [[0] * n for _ in range(n)]
    for xi in range(n):
        for yi in range(n):
            cls = scheme.classes[scheme.relation_of[xi][yi]]
            z[xi][yi] = z_of_class[cls] + (1 if xi == yi else 0)
    framed = category_from_matrix(z, labels=scheme.points)
    cat = framed.category

    blocks: dict[str, list[str]] = {_block_name(None): sorted(cat.identity.values())}
    blocks.update({_block_name(c, r): [] for c in scheme.classes for r in (False, True)})
    for (i, j), mor in framed.frame.items():
        cls = scheme.class_of_pair(j, i)   # frame morphism i -> j sits over the pair (j, i)
        blocks[_block_name(cls)].append(mor)
        blocks[_block_name(cls, residual=True)].extend(framed.extras[(i, j)])
    blocks = {k: v for k, v in blocks.items() if v}
    return verify_quasi_schemoid(cat, make_partition(cat, blocks))


def residual_scaling_laws(sc: QuasiSchemoid, scheme: CoherentConfiguration, thickness):
    """The thickened constants against the base ones:

        p^s_{t u~}  = p^s_{t u} (z_u - 1)
        p^s_{u~ t}  = (z_u - 1) p^s_{u t}
        p^s_{u~ t~} = (z_u - 1) p^s_{u t} (z_t - 1)

    over all frame blocks; returns (ok, first bad tuple or None).
    """
    z = _class_thickness(scheme, thickness)
    names = set(sc.block_names())
    b = {c: _block_name(c) for c in scheme.classes}
    r = {c: _block_name(c, residual=True) for c in scheme.classes}
    for s, t, u in product(scheme.classes, repeat=3):
        if r[u] not in names:
            continue
        if sc.p(b[t], r[u], b[s]) != sc.p(b[t], b[u], b[s]) * (z[u] - 1):
            return False, ("right", s, t, u)
        left = (z[u] - 1) * sc.p(b[u], b[t], b[s])
        if sc.p(r[u], b[t], b[s]) != left:
            return False, ("left", s, t, u)
        if r[t] in names and sc.p(r[u], r[t], b[s]) != left * (z[t] - 1):
            return False, ("both", s, t, u)
    return True, None


def thicken_involution(sc: QuasiSchemoid, scheme: CoherentConfiguration, thickness) -> QuasiSchemoid:
    """Involution phi_ij^lam -> phi_ji^lam; needs equal thickness."""
    if len(set(_class_thickness(scheme, thickness).values())) != 1:
        raise UnequalThickness("involution needs all class thicknesses equal")
    cat = sc.category
    omap = {x: x for x in cat.objects}
    mmap = {_cell_name(i, j, lam): _cell_name(j, i, lam) for i, j, lam in _cells(cat)}
    t = Functor(omap, mmap, contravariant=True)
    involution = check_association(cat, sc.partition, t)
    return QuasiSchemoid(cat, sc.partition, sc.constants, involution)


def projection_phi(sc: QuasiSchemoid, scheme: CoherentConfiguration,
                   j_image: QuasiSchemoid) -> SchemoidMorphism:
    """Collapse phi_i_j_lambda onto the complete-graph morphism i -> j,
    identifying phi_ii with the identity."""
    cat = sc.category
    omap = {x: x for x in cat.objects}
    # phi_i_j_lam and id_i go to the morphism i -> j (i -> i) of the complete graph
    mmap = {_cell_name(i, j, lam): pair_name(j, i) for i, j, lam in _cells(cat)}
    fun = Functor(omap, mmap)
    return schemoid_morphism(sc, j_image, fun)


def sc_functor(f_points: dict, source, target):
    """Thickened image of a scheme morphism: phi_i_j_lam -> psi_fi_fj_lam.

    f_points maps source points to target points and must send every class
    into a single class (`schemes.scheme_morphism`, else NotSchemeMorphism).
    """
    f_points = {str(k): str(v) for k, v in f_points.items()}
    src_scheme, src_sc = source
    tgt_scheme, tgt_sc = target
    scheme_morphism(f_points, src_scheme, tgt_scheme)
    cat = src_sc.category
    omap = {x: f_points[x] for x in cat.objects}
    mmap = {_cell_name(i, j, lam): _cell_name(f_points[i], f_points[j], lam)
            for i, j, lam in _cells(cat)}
    fun = Functor(omap, mmap)
    return schemoid_morphism(src_sc, tgt_sc, fun)
