import os
import subprocess
import sys

import pytest

import schemoids
from schemoids.admissible import (
    HypothesisNotMet,
    condition_P,
    image_block_closure,
    induced_algebra_map,
    is_admissible,
    multiplicities,
    verify_sum_identity,
)
from schemoids.algebra import PrimeField, Rationals, identity_algebra_map, schemoid_algebra
from schemoids.bridges import s_tilde_on_functor
from schemoids.extensions import build_extension, trivial_system, zero_cochain2, cochain2_from_function
from schemoids.fincat import Functor, build_category, cyclic_group_table, one_object_group, pair_name
from schemoids.schemes import hamming, j_embed
from schemoids.schemoid import (
    compose_schemoid_morphisms,
    identity_morphism,
    make_partition,
    schemoid_morphism,
    verify_quasi_schemoid,
)

from test_schemoid import group_bullet
from test_extensions import product_base, z2_cocycle_on_product

Q = Rationals()


def extension_projection(delta_fn=None):
    """The projection morphism of the Z/2 extension over j(H(2,2)) x (Z/2)."""
    from schemoids.extensions import lift_involution
    base = product_base()
    cat = base.category
    sys_ = trivial_system(cat, 2)
    delta = zero_cochain2() if delta_fn is None else cochain2_from_function(sys_, delta_fn)
    ext = build_extension(cat, sys_, delta)
    lifted = lift_involution(base, ext)
    phi = schemoid_morphism(lifted, base, ext.projection)
    return phi, lifted, base, ext


def test_identity_admissible():
    for qs in (j_embed(hamming(2, 2)), group_bullet(2)):
        phi = identity_morphism(qs)
        report = is_admissible(phi)
        assert report.admissible


def test_identity_multiplicities_and_map():
    qs = j_embed(hamming(2, 2))
    phi = identity_morphism(qs)
    mult = multiplicities(phi)
    assert all(v == 1 for v in mult.values())
    amap = induced_algebra_map(phi, Q)
    ident = identity_algebra_map(schemoid_algebra(qs, Q))
    assert amap.matrix == ident.matrix
    ok, _ = verify_sum_identity(phi, mult)
    assert ok


def test_report_multiplicities_and_map_share_one_fiber_count():
    """The fibers are counted on first read and kept on the morphism, so
    the report, the multiplicities and the algebra map read one count."""
    phi = extension_projection()[0]
    assert "fibers" not in vars(phi)
    assert is_admissible(phi).admissible
    counts = vars(phi)["fibers"]
    assert set(multiplicities(phi).values()) == {2}
    induced_algebra_map(phi, Q)
    assert phi.fibers is counts


def test_point_inclusion_is_admissible_by_the_definition():
    """Including one vertex into j of a 2-point scheme: the class-1 block is
    not the image of any source block, so the anchored condition quantifies
    over the diagonal block only and the inclusion passes."""
    from schemoids.schemes import validate_scheme
    target = j_embed(validate_scheme(2, [[0, 1], [1, 0]]))
    source = j_embed(validate_scheme(1, [[0]]))
    fun = Functor({"0": "0"}, {"(0,0)": "(0,0)"})
    phi = schemoid_morphism(source, target, fun)
    report = is_admissible(phi)
    assert report.admissible
    assert multiplicities(phi) == {"R0": 1}


def test_unhit_image_block_member_is_a_failure():
    """Mapping the point into a one-object group with the single-block
    partition: the non-identity group element sits in the image block with
    the right target but has no preimage."""
    from schemoids.fincat import terminal_category
    from schemoids.schemoid import discrete_partition
    source = verify_quasi_schemoid(terminal_category(), discrete_partition(terminal_category()))
    target = group_bullet(2)
    fun = Functor({"*": "*"}, {"1_*": "0"})
    phi = schemoid_morphism(source, target, fun)
    report = is_admissible(phi)
    assert not report.admissible
    assert report.failures == (("*", "1_*", "1"),)


def test_extension_projection_admissible_with_n2():
    phi, lifted, base, ext = extension_projection()
    report = is_admissible(phi)
    assert report.admissible
    mult = multiplicities(phi)
    assert set(mult.values()) == {2}
    ok, table = verify_sum_identity(phi, mult)
    assert ok
    # over Q: scaled-basis iso; over F2: the zero map
    amap = induced_algebra_map(phi, Q)
    assert any(amap.matrix.values())
    amap2 = induced_algebra_map(phi, PrimeField(2))
    assert not any(amap2.matrix.values())


def test_nontrivial_extension_projection_admissible():
    phi, lifted, base, ext = extension_projection(None)
    phi1, lifted1, base1, ext1 = extension_projection(
        z2_cocycle_on_product(product_base().category))
    mult = multiplicities(phi1)
    assert set(mult.values()) == {2}
    ok, _ = verify_sum_identity(phi1, mult)
    assert ok


def test_s_tilde_functors_admissible_and_compose():
    z8 = one_object_group(*cyclic_group_table(8))
    z4 = one_object_group(*cyclic_group_table(4))
    z2 = one_object_group(*cyclic_group_table(2))
    red84 = Functor({"*": "*"}, {str(i): str(i % 4) for i in range(8)})
    red42 = Functor({"*": "*"}, {str(i): str(i % 2) for i in range(4)})
    m1 = s_tilde_on_functor(red84, z8, z4)
    m2 = s_tilde_on_functor(red42, z4, z2)
    assert is_admissible(m1).admissible
    assert is_admissible(m2).admissible
    comp = compose_schemoid_morphisms(m2, m1)
    assert is_admissible(comp).admissible


def test_image_block_closure():
    phi, lifted, base, ext = extension_projection()
    assert image_block_closure(phi) == (True, None)
    qs = j_embed(hamming(2, 2))
    assert image_block_closure(identity_morphism(qs)) == (True, None)


def test_condition_P_on_j_images():
    for qs in (j_embed(hamming(2, 2)), group_bullet(3)):
        ok, _ = condition_P(qs)
        assert ok


def test_condition_P_violation_fixture():
    """Found by scanning thickened schemoids: three parallel residual copies
    give two right factors for the same frame composite (regression fixture)."""
    from schemoids.schemes import validate_scheme
    from schemoids.thicken import thicken_scheme
    point = validate_scheme(1, [[0]])
    sc3 = thicken_scheme(point, 3)
    ok, witness = condition_P(sc3)
    assert not ok
    assert witness[0] in ("two right factors", "two left factors")
    # and z = 1, 2 stay within the unique-solution regime
    for z in (1, 2):
        ok, _ = condition_P(thicken_scheme(point, z))
        assert ok


def test_multiplicities_gate():
    """Non-admissible inputs are rejected; the gates are reported, and a
    non-basic target with constant fibers still gets its multiplicities."""
    from schemoids.fincat import terminal_category
    from schemoids.schemoid import discrete_partition
    source = verify_quasi_schemoid(terminal_category(), discrete_partition(terminal_category()))
    target = group_bullet(2)
    phi = schemoid_morphism(source, target, Functor({"*": "*"}, {"1_*": "0"}))
    with pytest.raises(HypothesisNotMet):
        multiplicities(phi)
    proj, lifted, base, ext = extension_projection()
    from schemoids.admissible import gate_report
    gates = gate_report(proj)
    assert gates["source_groupoid"] and not gates["target_basic"]
    assert set(multiplicities(proj).values()) == {2}


def test_nonconstant_fiber_detected():
    """Admissible morphism with a uniquely-factoring source but non-basic
    target whose anchored fiber counts differ: the defensive check trips."""
    from schemoids.admissible import NonConstantFiber
    from schemoids.fincat import build_category
    from schemoids.schemoid import make_partition
    src_cat = build_category(
        ["x", "y", "u", "v"],
        [("1_x", "x", "x"), ("1_y", "y", "y"), ("a", "x", "y"), ("b", "x", "y"),
         ("1_u", "u", "u"), ("1_v", "v", "v"), ("c", "u", "v")],
        {"x": "1_x", "y": "1_y", "u": "1_u", "v": "1_v"},
        (),
    )
    source = verify_quasi_schemoid(src_cat, make_partition(src_cat, {
        "I": ["1_x", "1_y", "1_u", "1_v"], "S": ["a", "b", "c"]}))
    tgt_cat = build_category(
        ["p", "q"],
        [("1_p", "p", "p"), ("1_q", "q", "q"), ("f", "p", "q")],
        {"p": "1_p", "q": "1_q"},
        (),
    )
    target = verify_quasi_schemoid(tgt_cat, make_partition(tgt_cat, {
        "I": ["1_p", "1_q"], "F": ["f"]}))
    fun = Functor({"x": "p", "y": "q", "u": "p", "v": "q"},
                  {"1_x": "1_p", "1_y": "1_q", "1_u": "1_p", "1_v": "1_q",
                   "a": "f", "b": "f", "c": "f"})
    phi = schemoid_morphism(source, target, fun)
    assert is_admissible(phi).admissible
    with pytest.raises(NonConstantFiber):
        multiplicities(phi)


def test_functoriality_of_induced_maps():
    """K(psi∘phi) = K(psi) K(phi) on a composable pair."""
    from schemoids.algebra import compose_algebra_maps
    z8 = one_object_group(*cyclic_group_table(8))
    z4 = one_object_group(*cyclic_group_table(4))
    z2 = one_object_group(*cyclic_group_table(2))
    red84 = Functor({"*": "*"}, {str(i): str(i % 4) for i in range(8)})
    red42 = Functor({"*": "*"}, {str(i): str(i % 2) for i in range(4)})
    m1 = s_tilde_on_functor(red84, z8, z4)
    m2 = s_tilde_on_functor(red42, z4, z2)
    comp = compose_schemoid_morphisms(m2, m1)
    k1 = induced_algebra_map(m1, Q)
    k2 = induced_algebra_map(m2, Q)
    kc = induced_algebra_map(comp, Q)
    assert compose_algebra_maps(k2, k1).matrix == kc.matrix


def hamming_point_map():
    """j(H(1,2)) -> j(H(3,2)) on the points 0 -> 000, 1 -> 001: each point
    misses two of the three R1 morphisms into its image."""
    points = {"0": "000", "1": "001"}
    fun = Functor(dict(points), {pair_name(x, y): pair_name(points[x], points[y])
                                 for x in points for y in points})
    return schemoid_morphism(j_embed(hamming(1, 2)), j_embed(hamming(3, 2)), fun)


def uneven_fibers():
    """Admissible, with three parallel arrows f, g, h: p -> q in one block:
    y meets each once, v meets f and g twice and h once."""
    def category(objects, arrows):
        identity = {x: f"1_{x}" for x in objects}
        return build_category(objects, [(e, x, x) for x, e in identity.items()] + arrows,
                              identity, ())

    images = {"a": "f", "b": "g", "c": "h", "d": "f", "e": "f", "k": "g", "l": "g", "m": "h"}
    src = category(["x", "y", "u", "v"], [(m, "x", "y") for m in "abc"]
                   + [(m, "u", "v") for m in "deklm"])
    tgt = category(["p", "q"], [(g, "p", "q") for g in "fgh"])
    source = verify_quasi_schemoid(src, make_partition(src, {
        "I": ["1_x", "1_y", "1_u", "1_v"], "S": list(images)}))
    target = verify_quasi_schemoid(tgt, make_partition(tgt, {"I": ["1_p", "1_q"], "F": list("fgh")}))
    fun = Functor({"x": "p", "y": "q", "u": "p", "v": "q"},
                  {"1_x": "1_p", "1_y": "1_q", "1_u": "1_p", "1_v": "1_q", **images})
    return schemoid_morphism(source, target, fun)


def _witnesses():
    """The failures of `hamming_point_map` and the refusal of each fixture
    by `multiplicities`, one line each."""
    lines = [repr(is_admissible(hamming_point_map()).failures)]
    for phi in (hamming_point_map(), uneven_fibers()):
        try:
            multiplicities(phi)
        except Exception as err:
            lines.append(f"{type(err).__name__}: {err}")
    return lines


def test_witness_order_is_independent_of_the_hash_seed():
    """Failures come with g in the target's morphism order, so two hash
    seeds print the same witnesses, and these are the ones in-process."""
    want = [
        "(('0', 'R1', '(000,010)'), ('0', 'R1', '(000,100)'), "
        "('1', 'R1', '(001,011)'), ('1', 'R1', '(001,101)'))",
        "HypothesisNotMet: morphism is not admissible: ('0', 'R1', '(000,010)')",
        "NonConstantFiber: block 'S': counts range over [1, 2]; "
        "extremes (('y', 'f'), 1), (('v', 'g'), 2)",
    ]
    assert is_admissible(uneven_fibers()).admissible
    assert _witnesses() == want
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.dirname(os.path.dirname(schemoids.__file__)), here])
    script = "from test_admissible import _witnesses; print(*_witnesses(), sep='\\n')"
    outs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, timeout=60,
                           env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}).stdout
            for seed in ("1", "2")]
    assert outs[0] == outs[1] == "\n".join(want) + "\n"
