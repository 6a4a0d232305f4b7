"""Built-in example instances with recorded expectations.

Every entry regenerates and re-verifies its recorded flags and dimensions;
the selftest walks the whole table.  The one shared part, the product base
of the extension entries, is built once per process.  Entry names double
as CLI handles (`schemoids examples <name>`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

from .algebra import Rationals, schemoid_algebra
from .bridges import k_discrete, s_tilde
from .extensions import (
    ExtensionCategory,
    build_extension,
    cochain2_from_function,
    lift_involution,
    trivial_system,
    zero_cochain2,
)
from .fincat import (
    FinCategory,
    Functor,
    build_category,
    cyclic_group_table,
    join,
    one_object_group,
    terminal_category,
)
from .schemes import group_scheme, hamming, j_embed, orbit_configuration
from .schemoid import (
    QuasiSchemoid,
    analyze_thinness,
    check_association,
    discrete_partition,
    is_basic,
    is_unital,
    make_partition,
    schemoid_product,
    schemoid_product_with_projections,
    verify_quasi_schemoid,
)
from .thicken import thicken_involution, thicken_scheme


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    kind: str                      # schemoid | extension
    description: str
    build: Callable
    expected: dict = field(default_factory=dict)


def _arrow_category():
    return build_category(
        ["x", "y"],
        [("1_x", "x", "x"), ("1_y", "y", "y"), ("f", "x", "y")],
        {"x": "1_x", "y": "1_y"},
        (),
    )


def _group_bullet(n: int) -> QuasiSchemoid:
    gpd = one_object_group(*cyclic_group_table(n))
    partition = make_partition(gpd.base, {"G": list(gpd.base.morphism_ids)})
    t = Functor({"*": "*"}, dict(gpd.inverse), contravariant=True)
    involution = check_association(gpd.base, partition, t)
    return verify_quasi_schemoid(gpd.base, partition, involution)


def _group_discrete(n: int) -> QuasiSchemoid:
    gpd = one_object_group(*cyclic_group_table(n))
    partition = discrete_partition(gpd.base)
    t = Functor({"*": "*"}, dict(gpd.inverse), contravariant=True)
    involution = check_association(gpd.base, partition, t)
    return verify_quasi_schemoid(gpd.base, partition, involution)


def _ex2_8() -> QuasiSchemoid:
    cat = _arrow_category()
    partition = make_partition(cat, {"S1": ["1_x", "1_y"], "S2": ["f"]})
    t = Functor({"x": "y", "y": "x"}, {"1_x": "1_y", "1_y": "1_x", "f": "f"},
                contravariant=True)
    return verify_quasi_schemoid(cat, partition, check_association(cat, partition, t))


def _ex2_8_discrete() -> QuasiSchemoid:
    cat = _arrow_category()
    partition = discrete_partition(cat)
    t = Functor({"x": "y", "y": "x"}, {"1_x": "1_y", "1_y": "1_x", "f": "f"},
                contravariant=True)
    return verify_quasi_schemoid(cat, partition, check_association(cat, partition, t))


def _join_z2_z2() -> QuasiSchemoid:
    from .schemoid import schemoid_join
    g = _group_bullet(2)
    return schemoid_join(g, g)


def _paired_join_z2() -> QuasiSchemoid:
    """Two-object category with one group on each side, blocks pairing each
    element with its opposite copy."""
    g = one_object_group(*cyclic_group_table(2)).base
    from .fincat import opposite
    cat = join(g, opposite(g))
    lx, ry = cat.objects
    (w,) = cat.hom(lx, ry)
    partition = make_partition(cat, {"Se": ["L.0", "R.0"], "Sg": ["L.1", "R.1"], "Sf": [w]})
    t = Functor({lx: ry, ry: lx},
                {"L.0": "R.0", "R.0": "L.0", "L.1": "R.1", "R.1": "L.1", w: w},
                contravariant=True)
    return verify_quasi_schemoid(cat, partition, check_association(cat, partition, t))


WINDOW_RADII = range(1, 1001)       # zig-zag window radii; the window's size grows with it


def check_window(k: int) -> None:
    """ValueError unless k is a zig-zag window radius in WINDOW_RADII."""
    if k not in WINDOW_RADII:
        raise ValueError(f"window radius {k} is not in {WINDOW_RADII[0]}..{WINDOW_RADII[-1]}")


def _zigzag_window(k: int = 1) -> QuasiSchemoid:
    """Finite window of the infinite zig-zag: objects x_i, y_i for |i| <= k,
    arrows f_i: x_i -> y_i, g_i: x_i -> y_{i+1}, h_i: x_{i+1} -> y_i.  A
    radius outside WINDOW_RADII is refused before anything is built."""
    check_window(k)
    rng = range(-k, k + 1)
    objects = [f"x{i}" for i in rng] + [f"y{i}" for i in rng]
    morphisms = [(f"1_{o}", o, o) for o in objects]
    morphisms += [(f"f{i}", f"x{i}", f"y{i}") for i in rng]
    morphisms += [(f"g{i}", f"x{i}", f"y{i + 1}") for i in rng if i + 1 <= k]
    morphisms += [(f"h{i}", f"x{i + 1}", f"y{i}") for i in rng if i + 1 <= k]
    identity = {o: f"1_{o}" for o in objects}
    cat = build_category(objects, morphisms, identity, ())
    sigma = [m for m, _, _ in cat.morphisms if m[0] in "gh"]
    tau = [f"f{i}" for i in rng]
    partition = make_partition(cat, {"J0": [f"1_{o}" for o in objects],
                                     "S": sigma, "T": tau})
    omap = {f"x{i}": f"y{i}" for i in rng}
    omap.update({f"y{i}": f"x{i}" for i in rng})
    mmap = {f"1_x{i}": f"1_y{i}" for i in rng}
    mmap.update({f"1_y{i}": f"1_x{i}" for i in rng})
    mmap.update({f"f{i}": f"f{i}" for i in rng})
    for i in rng:
        if i + 1 <= k:
            mmap[f"g{i}"] = f"h{i}"
            mmap[f"h{i}"] = f"g{i}"
    t = Functor(omap, mmap, contravariant=True)
    return verify_quasi_schemoid(cat, partition, check_association(cat, partition, t))


def _two_fillers(k: int = 1) -> QuasiSchemoid:
    """k copies of the square x -> a_l, b_l -> y filled by one diagonal,
    glued along x, y and the diagonal."""
    objects = ["x", "y"] + [f"a{l}" for l in range(1, k + 1)] + [f"b{l}" for l in range(1, k + 1)]
    morphisms = [(f"1_{o}", o, o) for o in objects] + [("eps", "x", "y")]
    compose = []
    for l in range(1, k + 1):
        morphisms += [(f"al{l}", "x", f"a{l}"), (f"be{l}", f"a{l}", "y"),
                      (f"ga{l}", "x", f"b{l}"), (f"de{l}", f"b{l}", "y")]
        compose += [(f"be{l}", f"al{l}", "eps"), (f"de{l}", f"ga{l}", "eps")]
    identity = {o: f"1_{o}" for o in objects}
    cat = build_category(objects, morphisms, identity, compose)
    rng = range(1, k + 1)
    partition = make_partition(cat, {
        "S0": [f"1_{o}" for o in objects],
        "S1": [f"al{l}" for l in rng] + [f"ga{l}" for l in rng],
        "S2": [f"be{l}" for l in rng] + [f"de{l}" for l in rng],
        "S3": ["eps"],
    })
    omap = {"x": "y", "y": "x"}
    mmap = {"1_x": "1_y", "1_y": "1_x", "eps": "eps"}
    for l in rng:
        omap[f"a{l}"] = f"b{l}"
        omap[f"b{l}"] = f"a{l}"
        mmap[f"1_a{l}"] = f"1_b{l}"
        mmap[f"1_b{l}"] = f"1_a{l}"
        mmap[f"al{l}"] = f"de{l}"
        mmap[f"de{l}"] = f"al{l}"
        mmap[f"be{l}"] = f"ga{l}"
        mmap[f"ga{l}"] = f"be{l}"
    t = Functor(omap, mmap, contravariant=True)
    return verify_quasi_schemoid(cat, partition, check_association(cat, partition, t))


def _product_arrow_z2() -> QuasiSchemoid:
    return schemoid_product(_ex2_8(), _group_bullet(2))


def _pair_groupoid_family(k: int) -> QuasiSchemoid:
    """k disjoint copies of the connected two-object groupoid with singleton
    hom-sets; blocks collect matching arrows across copies."""
    cats = []
    for i in range(k):
        mors = [(f"xx{i}", f"x{i}", f"x{i}"), (f"yy{i}", f"y{i}", f"y{i}"),
                (f"f{i}", f"x{i}", f"y{i}"), (f"g{i}", f"y{i}", f"x{i}")]
        compose = [(m1, m2, next(m for m, s, t in mors if s == s2 and t == t1))
                   for m1, s1, t1 in mors for m2, s2, t2 in mors if s1 == t2]
        cats.append(build_category([f"x{i}", f"y{i}"], mors,
                                   {f"x{i}": f"xx{i}", f"y{i}": f"yy{i}"}, compose))
    objects = [o for c in cats for o in c.objects]
    morphisms = [m for c in cats for m in c.morphisms]
    identity = {}
    compose = []
    for c in cats:
        identity.update(c.identity)
        ids = c.morphism_ids
        compose += [(ids[i], ids[j], ids[k]) for i, (j, k) in c.entries()]
    cat = build_category(objects, morphisms, identity, compose)
    partition = make_partition(cat, {
        "s0x": [f"xx{i}" for i in range(k)],
        "s0y": [f"yy{i}" for i in range(k)],
        "t1": [f"f{i}" for i in range(k)],
        "t2": [f"g{i}" for i in range(k)],
    })
    tmap = {}
    for i in range(k):
        tmap.update({f"xx{i}": f"xx{i}", f"yy{i}": f"yy{i}",
                     f"f{i}": f"g{i}", f"g{i}": f"f{i}"})
    t = Functor({o: o for o in objects}, tmap, contravariant=True)
    return verify_quasi_schemoid(cat, partition, check_association(cat, partition, t))


def _klein_fusion() -> QuasiSchemoid:
    els = ["e", "a", "b", "c"]
    mul = {}
    for x in els:
        mul[("e", x)] = x
        mul[(x, "e")] = x
    mul.update({("a", "a"): "e", ("b", "b"): "e", ("c", "c"): "e",
                ("a", "b"): "c", ("b", "a"): "c",
                ("a", "c"): "b", ("c", "a"): "b",
                ("b", "c"): "a", ("c", "b"): "a"})
    gpd = one_object_group(els, mul)
    partition = make_partition(gpd.base, {"E": ["e"], "A": ["a", "b", "c"]})
    t = Functor({"*": "*"}, dict(gpd.inverse), contravariant=True)
    return verify_quasi_schemoid(gpd.base, partition,
                                 check_association(gpd.base, partition, t))


@cache
def _product_base() -> tuple[QuasiSchemoid, Functor, FinCategory]:
    """The product base j(H(2,2)) × Z/2, its projection onto the group
    factor and that factor's category, built on the first call and shared
    by every later one: values are never mutated."""
    group = _group_bullet(2)
    base, _, to_group = schemoid_product_with_projections(j_embed(hamming(2, 2)), group)
    return base, to_group, group.category


def product_base_schemoid() -> QuasiSchemoid:
    return _product_base()[0]


def group_cocycle_pullback(cat):
    """Value a*b on the Z/2 components a, b of a composable pair of the
    product base category, read through the product's second projection."""
    base, to_group, group = _product_base()
    if base.category != cat:
        raise ValueError("group_cocycle_pullback needs the product base category")
    return _pulled_back_product(to_group, group)


def _pulled_back_product(to_group: Functor, group: FinCategory):
    # a*b in Z/2 is 1 exactly when neither factor is the identity
    part = {m: int(not group.is_identity(g)) for m, g in to_group.morphism_map.items()}

    def fn(f, g):
        return (part[f] * part[g],)

    return fn


def extension_e(eta: int) -> ExtensionCategory:
    """The split (eta = 0) and twisted (eta = 1) fiber-Z/2 extensions of the
    complete-graph-times-group base."""
    return _extension(eta, *_product_base())


def _extension(eta: int, base: QuasiSchemoid, to_group: Functor,
               group: FinCategory) -> ExtensionCategory:
    cat = base.category
    system = trivial_system(cat, 2)
    if eta:
        delta = cochain2_from_function(system, _pulled_back_product(to_group, group))
    else:
        delta = zero_cochain2()
    return build_extension(cat, system, delta)


def extension_schemoid(eta: int) -> QuasiSchemoid:
    parts = _product_base()
    return lift_involution(parts[0], _extension(eta, *parts))


def _orbit_z4():
    return orbit_configuration([[1, 2, 3, 0]], 4)     # Z/4 from its generator


ENTRIES: dict[str, CorpusEntry] = {}


def _register(name, kind, description, build, **expected):
    ENTRIES[name] = CorpusEntry(name, kind, description, build, expected)


_register("terminal", "schemoid", "one object, one morphism, singleton partition",
          lambda: k_discrete(terminal_category()),
          objects=1, morphisms=1, blocks=1, unital=True, basic=True, algebra_dim=1)
_register("ex2_6_i_z3", "schemoid", "cyclic group of order 3 with singleton blocks",
          lambda: _group_discrete(3),
          objects=1, morphisms=3, blocks=3, unital=True, association=True, basic=True,
          algebra_dim=3, algebra_unital=True)
_register("ex2_6_ii_h22", "schemoid", "complete-graph schemoid of the 2-cube scheme",
          lambda: j_embed(hamming(2, 2)),
          objects=4, morphisms=16, blocks=3, unital=True, association=True, basic=True,
          algebra_dim=3, algebra_unital=True)
_register("ex2_6_iii_z2", "schemoid", "pair schemoid of the one-object groupoid Z/2",
          lambda: s_tilde(one_object_group(*cyclic_group_table(2))),
          objects=2, morphisms=4, blocks=2, unital=True, association=True, basic=True,
          semi_thin=True, thin=True, algebra_dim=2, algebra_unital=True)
_register("ex2_7_z2", "schemoid", "Z/2 as one object with the single-block partition",
          lambda: _group_bullet(2),
          objects=1, morphisms=2, blocks=1, unital=False, association=True, basic=False,
          algebra_dim=1, algebra_unital=False)
_register("ex2_7_z3", "schemoid", "Z/3 as one object with the single-block partition",
          lambda: _group_bullet(3),
          objects=1, morphisms=3, blocks=1, unital=False, association=True, basic=False,
          algebra_dim=1, algebra_unital=False)
_register("ex2_8", "schemoid", "arrow category, identities paired into one block",
          _ex2_8,
          objects=2, morphisms=3, blocks=2, unital=True, association=True, basic=False,
          algebra_dim=2, algebra_unital=True)
_register("ex2_8_discrete", "schemoid", "arrow category with singleton blocks",
          _ex2_8_discrete,
          objects=2, morphisms=3, blocks=3, unital=True, association=True, basic=False,
          algebra_dim=3, algebra_unital=True)
_register("ex2_9_join_z2", "schemoid", "join of two single-block Z/2 schemoids",
          _join_z2_z2,
          objects=2, morphisms=5, blocks=3, unital=False, basic=False,
          algebra_dim=3, algebra_unital=False)
_register("ex2_10_z2", "schemoid", "two-sided group category with paired element blocks",
          _paired_join_z2,
          objects=2, morphisms=5, blocks=3, unital=True, association=True, basic=False,
          algebra_dim=3, algebra_unital=True)
_register("ex2_11", "schemoid", "zig-zag window, diagonals paired by the reflection",
          _zigzag_window,
          unital=True, association=True, basic=False, algebra_unital=True)
_register("ex2_12_k1", "schemoid", "one filled square with two factorizations of the diagonal",
          _two_fillers,
          objects=4, morphisms=9, blocks=4, unital=True, association=True, basic=False,
          algebra_dim=4, algebra_unital=True)
_register("ex2_13_product", "schemoid", "product of the arrow schemoid with single-block Z/2",
          _product_arrow_z2,
          objects=2, morphisms=6, blocks=2, unital=False, association=True, basic=False,
          algebra_dim=2, algebra_unital=False)
_register("ex4_12_i1", "schemoid", "one pair groupoid with arrows collected by direction",
          lambda: _pair_groupoid_family(1),
          blocks=4, unital=True, association=True, semi_thin=True, thin=False,
          algebra_dim=4, algebra_unital=True)
_register("ex4_12_i2", "schemoid", "two pair groupoids with arrows collected by direction",
          lambda: _pair_groupoid_family(2),
          blocks=4, unital=True, association=True, semi_thin=True, thin=True,
          algebra_dim=4, algebra_unital=True)
_register("ex4_12_i3", "schemoid", "three pair groupoids with arrows collected by direction",
          lambda: _pair_groupoid_family(3),
          blocks=4, unital=True, association=True, semi_thin=True, thin=False,
          algebra_dim=4, algebra_unital=True)
_register("j_gs_z3", "schemoid", "complete-graph schemoid of the regular Z/3 scheme",
          lambda: j_embed(group_scheme(*cyclic_group_table(3))),
          objects=3, morphisms=9, blocks=3, unital=True, association=True, basic=True,
          algebra_dim=3, algebra_unital=True)
_register("j_orbit_z4", "schemoid", "complete-graph schemoid of the Z/4 translation orbits",
          lambda: j_embed(_orbit_z4()),
          objects=4, morphisms=16, blocks=4, unital=True, association=True, basic=True,
          algebra_dim=4, algebra_unital=True)
_register("klein_fusion", "schemoid", "Klein four group fused to unit-versus-rest",
          _klein_fusion,
          objects=1, morphisms=4, blocks=2, unital=True, association=True, basic=True,
          algebra_dim=2, algebra_unital=True)
_register("ex7_11", "schemoid", "thickened 2-cube scheme, one copy per class",
          lambda: thicken_involution(thicken_scheme(hamming(2, 2), 1), hamming(2, 2), 1),
          objects=4, morphisms=20, blocks=4, unital=True, association=True, basic=False,
          algebra_dim=4, algebra_unital=True)
_register("sc2_h22", "schemoid", "thickened 2-cube scheme, two copies per class",
          lambda: thicken_involution(thicken_scheme(hamming(2, 2), 2), hamming(2, 2), 2),
          objects=4, morphisms=36, blocks=7, unital=True, association=True, basic=False,
          algebra_dim=7, algebra_unital=True)
_register("sc3_gs_z2", "schemoid", "thickened 2-point regular scheme, three copies per class",
          lambda: thicken_scheme(group_scheme(*cyclic_group_table(2)), 3),
          objects=2, morphisms=14, blocks=5, unital=True, basic=False,
          algebra_dim=5, algebra_unital=True)
_register("e0_schemoid", "schemoid", "split fiber-Z/2 extension schemoid over the product base",
          lambda: extension_schemoid(0),
          objects=4, morphisms=64, blocks=3, unital=False, association=True, basic=False,
          algebra_dim=3, algebra_unital=False)
_register("e1_schemoid", "schemoid", "twisted fiber-Z/2 extension schemoid over the product base",
          lambda: extension_schemoid(1),
          objects=4, morphisms=64, blocks=3, unital=False, association=True, basic=False,
          algebra_dim=3, algebra_unital=False)
_register("ex5_10_e0", "extension", "split fiber-Z/2 extension of the product base",
          lambda: extension_e(0), split=True)
_register("ex5_10_e1", "extension", "twisted fiber-Z/2 extension of the product base",
          lambda: extension_e(1), split=False)


def build(name: str, **kwargs):
    entry = ENTRIES.get(name)
    if entry is None:
        raise KeyError(f"unknown example {name!r}; known: {', '.join(sorted(ENTRIES))}")
    if name == "ex2_11" and "window" in kwargs:
        return _zigzag_window(int(kwargs["window"]))
    return entry.build()


def verify_entry(entry: CorpusEntry) -> list[str]:
    """Regenerate and compare against the recorded expectations.

    Returns a list of mismatch descriptions (empty = pass).
    """
    problems = []
    obj = entry.build()
    expected = entry.expected
    if entry.kind == "extension":
        from .extensions import is_split
        got = is_split(obj) is not None
        if got != expected.get("split"):
            problems.append(f"split: expected {expected.get('split')}, got {got}")
        return problems

    qs = obj
    algebra = cache(lambda: schemoid_algebra(qs, Rationals()))   # shared by two checks
    checks = {
        "objects": lambda: len(qs.category.objects),
        "morphisms": lambda: len(qs.category.morphisms),
        "blocks": lambda: len(qs.partition),
        "unital": lambda: is_unital(qs.category, qs.partition)[0],
        "basic": lambda: is_basic(qs),
        "association": lambda: qs.involution is not None,
        "algebra_dim": lambda: algebra().dimension,
        "algebra_unital": lambda: algebra().unital,
    }
    report = None
    if "semi_thin" in expected or "thin" in expected:
        report = analyze_thinness(qs, qs.base_points)
        checks["semi_thin"] = lambda: report.semi_thin
        checks["thin"] = lambda: report.thin
    for key, want in expected.items():
        got = checks[key]()
        if got != want:
            problems.append(f"{key}: expected {want}, got {got}")
    return problems


def selftest() -> dict[str, list[str]]:
    """Verify every entry; returns {name: problems} for failures only."""
    failures = {}
    for name, entry in ENTRIES.items():
        problems = verify_entry(entry)
        if problems:
            failures[name] = problems
    return failures
