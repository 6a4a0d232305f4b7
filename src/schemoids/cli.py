"""Command-line front end.

Subcommands read and write the JSON interchange formats so that workflows
pipe together, e.g.

    schemoids gen hamming 2 2 | schemoids embed-scheme - | schemoids constants -

A category is written with its composition as a table of integers, one
per composable pair: for f in morphism order and g over the morphisms into
src(f) in morphism order, the position of f∘g in "morphisms" (see
`fincat.serialize`).  Every command that reads a category also takes a
hand-written list of [f, g, fg] label triples in its place, where the
pairs the unit laws fill in may be left out; the JSON type of the first
entry tells the two forms apart.

Exit status: 0 on an answer, a negative one included (`admissible`
reporting a morphism that is not admissible, `split` finding no section);
1 on a refused input or a closed stdout; 2 on a usage error; 3 on the
program's own error, with its traceback on stderr and nothing on stdout.
A refusal prints {"error": class, "message": text} on stdout, plus
"witness" (JSON lists naming where a law fails) when the error carries
one.  It is a `SchemoidsError`, a document of the wrong shape among them
(`shapes.py` declares every format), or a failed read in `load`, named by
the class behind it: `JSONDecodeError`, `FileNotFoundError`, ...  Anything
else raised exits 3, while decoding a well-formed document too, an
`AssertionError` from a failed internal certificate among them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback

from . import corpus
from .algebra import ring_from_name, schemoid_algebra, terwilliger
from .admissible import (
    condition_P,
    gate_report,
    induced_algebra_map,
    is_admissible,
    multiplicities,
    verify_sum_identity,
)
from .bridges import canonical_groupoid_witness, phi_psi_check, r_tilde, s_tilde
from .extensions import (
    build_extension,
    bw_cohomology,
    cocycle_from_json,
    cocycle_to_json,
    equivalence,
    induced_system,
    is_split,
    read_cocycle,
    trivial_system,
    validate_natural_system,
)
from .fincat import (
    FinCategory,
    Functor,
    SchemoidsError,
    is_groupoid,
    read_category,
    serialize,
    serialize_groupoid,
    validate_category,
    validate_groupoid,
)
from .schemes import (
    group_scheme,
    hamming,
    j_embed,
    orbit_configuration,
    scheme_from_json,
    serialize_scheme,
)
from .schemoid import (
    analyze_thinness,
    check_association,
    is_unital,
    make_partition,
    schemoid_morphism,
    serialize_partition,
    verify_quasi_schemoid,
)
from .shapes import (
    BUNDLE,
    EXTENSION,
    FUNCTOR,
    GROUP_TABLE,
    HOM_COUNTS,
    PERMS,
    SYSTEM,
    check,
    is_bundle,
    square,
)
from .thicken import category_from_matrix, sigma_prime, thicken_involution, thicken_scheme

SCHEMA = "schemoids/1"


class InputRefused(SchemoidsError):
    """An input that could not be read or is no JSON, or an unknown example;
    reported under the class of the error behind it (its `__cause__`)."""


def load(path: str):
    """The JSON document at path, "-" for stdin.  Only the read is refused
    here; decoding the document is left to the caller."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as err:    # JSONDecodeError is a ValueError
        raise InputRefused(str(err)) from err


def emit(payload, pretty=False):
    print(json.dumps({"schema": SCHEMA, **payload}, indent=2 if pretty else None, sort_keys=True))


def serialize_functor(fun: Functor) -> dict:
    out = {"objects": dict(fun.object_map), "morphisms": dict(fun.morphism_map)}
    if fun.contravariant:
        out["contravariant"] = True
    return out


def functor_from_json(raw: dict) -> Functor:
    """A functor document, `shapes.FUNCTOR`."""
    return _functor(check(FUNCTOR, raw, "functor"))


def _functor(raw: dict) -> Functor:
    """The functor of a document that fits `shapes.FUNCTOR`."""
    return Functor(dict(raw["objects"]), dict(raw["morphisms"]), raw.get("contravariant", False))


def bundle_to_json(qs) -> dict:
    out = {"kind": "bundle", "category": serialize(qs.category),
           "partition": serialize_partition(qs.partition)}
    if qs.involution is not None:
        out["involution"] = serialize_functor(qs.involution.functor)
    if qs.base_points is not None:
        out["base_points"] = list(qs.base_points)
    return out


def group_scheme_from_json(raw: dict):
    """A group table document, `shapes.GROUP_TABLE`."""
    elements = check(GROUP_TABLE, raw)["elements"]
    table = check(square(len(elements)), raw.get("table"), "table")
    return group_scheme(elements, {(a, b): table[i][j]
                                   for i, a in enumerate(elements) for j, b in enumerate(elements)})


def bundle_from_json(raw: dict):
    """A bundle document, `shapes.BUNDLE`: {"category", "partition",
    "involution"?, "base_points"?}."""
    cat = read_category(check(BUNDLE, raw)["category"], "category")
    partition = make_partition(cat, raw["partition"]["blocks"])
    involution = None
    if "involution" in raw:
        involution = check_association(cat, partition, _functor(raw["involution"]))
    return verify_quasi_schemoid(cat, partition, involution, tuple(raw.get("base_points", ())) or None)


def system_from_json(cat, raw: dict):
    """A natural system on cat from a system document, `shapes.SYSTEM`:
    trivial, induced or (by default) explicit."""
    return _system(cat, check(SYSTEM, raw, "system"))


def _system(cat, raw: dict):
    """The natural system on cat of a document that fits `shapes.SYSTEM`."""
    kind, modulus = raw.get("kind", "explicit"), raw.get("modulus")
    if kind == "trivial":
        return trivial_system(cat, modulus, raw.get("rank", 1))
    if kind == "induced":
        return induced_system(cat, modulus, raw["object_ranks"], raw["maps"])
    push, pull = ({(a, f): mat for a, f, mat in raw[field]} for field in ("push", "pull"))
    return validate_natural_system(cat, modulus, raw["ranks"], push, pull)


def system_to_json(system) -> dict:
    ids = system.category.morphism_ids
    push, pull = (sorted([ids[i], ids[j], [list(r) for r in mat]]
                         for i, row in enumerate(maps) for j, mat in row.items())
                  for maps in (system.push, system.pull))
    return {"kind": "explicit", "modulus": system.modulus, "ranks": dict(zip(ids, system.rank)),
            "push": push, "pull": pull}


def extension_from_json(raw: dict):
    """An extension document, `shapes.EXTENSION`: {"base", "system",
    "cocycle", ...}, rebuilt by `build_extension`."""
    cat = read_category(check(EXTENSION, raw)["base"], "base")
    system = _system(cat, raw["system"])
    return build_extension(cat, system, read_cocycle(system, raw["cocycle"]))


def extension_to_json(ext) -> dict:
    return {"kind": "extension", "base": serialize(ext.base),
            "system": system_to_json(ext.system),
            "cocycle": cocycle_to_json(ext.cocycle),
            "total": serialize(ext.total),
            "projection": serialize_functor(ext.projection)}


def constants_to_json(qs) -> dict:
    table: dict[str, dict[str, int]] = {}
    for (s, t, m), v in sorted(qs.constants.entries.items()):
        if v:
            table.setdefault(f"{s},{t}", {})[m] = v
    return {"blocks": {b: sorted(ms) for b, ms in qs.partition.blocks.items()}, "p": table}


def algebra_to_json(alg) -> dict:
    # the integer rows print as their ring elements: reduced mod p over
    # F_p, and an integer Fraction prints as the integer over Q
    product = {f"{s},{t}": {m: str(v) for m, v in sorted(row.items())}
               for (s, t), row in sorted(alg.rows.items())}
    unit = None
    if alg.unital:
        unit = [[b, str(c)] for b, c in sorted(alg.unit.items())]
    return {"ring": alg.ring.name(), "basis": list(alg.basis), "product": product,
            "unit": unit}


def analysis_report(qs) -> dict:
    """The `analyze` report.  With an involution, unitality is read from
    the thinness report, which scans the identity blocks once for both."""
    cat = qs.category
    report = None
    if qs.involution is None:
        unital, offender = is_unital(cat, qs.partition)
    else:
        report = analyze_thinness(qs, qs.base_points)
        unital, offender = report.unital, next(iter(report.mixed), None)
    out = {
        "kind": "analysis",
        "objects": len(cat.objects),
        "morphisms": len(cat.morphisms),
        "blocks": {b: len(ms) for b, ms in qs.partition.blocks.items()},
        "axiom": True,
        "unital": unital,
        "association": qs.involution is not None,
        "basic": unital and is_groupoid(cat),    # is_basic, from the unital flag above
    }
    if offender:
        out["offending_block"] = offender
    if report is not None:
        out["block_involution"] = dict(qs.involution.block_image)
        out["semi_thin"] = report.semi_thin
        out["thin"] = report.thin
        if report.base_points:
            out["base_points"] = list(report.base_points)
        if report.witness:
            out["witness"] = report.witness
        out["identity_blocks"] = list(report.s0)
    ok_p, _ = condition_P(qs)
    out["unique_factorization"] = ok_p
    return out


def thickness(text: str) -> list[int]:
    return [int(z) for z in text.split(",")]


def window(text: str) -> int:
    """A zig-zag window radius, in `corpus.WINDOW_RADII`."""
    radius = int(text)
    try:
        corpus.check_window(radius)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return radius


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser; one per process, shared by every caller,
    so it must not be changed."""
    parser = argparse.ArgumentParser(prog="schemoids",
                                     description="exact computations with partitioned finite categories")
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a category or bundle JSON")
    p.add_argument("input")

    p = sub.add_parser("analyze", help="full schemoid analysis of a bundle")
    p.add_argument("input")

    p = sub.add_parser("constants", help="structure-constant table of a bundle")
    p.add_argument("input")

    p = sub.add_parser("algebra", help="block-sum algebra of a bundle")
    p.add_argument("input")
    p.add_argument("--ring", default="Q")

    p = sub.add_parser("terwilliger", help="algebra generated with the dual idempotents")
    p.add_argument("input")
    p.add_argument("--object", required=True)
    p.add_argument("--ring", default="Q")

    p = sub.add_parser("embed-scheme", help="complete-graph schemoid of a scheme")
    p.add_argument("input")

    p = sub.add_parser("from-groupoid", help="pair schemoid of a groupoid")
    p.add_argument("input")

    p = sub.add_parser("to-groupoid", help="reconstruct the groupoid of a semi-thin bundle")
    p.add_argument("input")

    p = sub.add_parser("roundtrip-check", help="verify both reconstruction round trips")
    p.add_argument("input")

    p = sub.add_parser("admissible", help="admissibility report for a schemoid morphism")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("functor")
    p.add_argument("--ring", default="Q")

    p = sub.add_parser("cohomology", help="cohomology of the factorization complex")
    p.add_argument("category")
    p.add_argument("system")
    p.add_argument("--degree", type=int, default=2, choices=(1, 2))

    p = sub.add_parser("extend", help="build the extension of a cocycle")
    p.add_argument("category")
    p.add_argument("system")
    p.add_argument("cocycle")

    p = sub.add_parser("split", help="section of an extension, when one exists")
    p.add_argument("input")

    p = sub.add_parser("equivalent", help="equivalence of two extensions, with its functor")
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser("thicken", help="thickened schemoid of a scheme or matrix")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("input", nargs="?")
    g.add_argument("--matrix", help="hom-count matrix JSON instead of a scheme")
    p.add_argument("--z", default="1", type=thickness, help="comma-separated per-class thickness")
    p.add_argument("--residual", default="lump", choices=("lump", "singletons"))

    p = sub.add_parser("gen", help="generate a scheme")
    gsub = p.add_subparsers(dest="generator", required=True)
    g = gsub.add_parser("hamming")
    g.add_argument("n", type=int)
    g.add_argument("q", type=int)
    g = gsub.add_parser("group-scheme")
    g.add_argument("table")
    g = gsub.add_parser("orbits", help="pair orbits of the group that a perms document "
                                        "generates: any generating set, at most 128 points")
    g.add_argument("perms")

    p = sub.add_parser("examples", help="emit a built-in example")
    g = p.add_mutually_exclusive_group()
    g.add_argument("name", nargs="?")
    g.add_argument("--list", action="store_true")
    p.add_argument("--window", type=window, help="window radius for the zig-zag family, "
                   f"{corpus.WINDOW_RADII[0]}..{corpus.WINDOW_RADII[-1]}")

    sub.add_parser("selftest", help="re-verify every built-in example")
    return parser


def run(argv=None) -> int:
    # the parser is built once per process, on the first call; parse_args
    # keeps no state in it between calls
    args = build_parser().parse_args(argv)
    pretty = args.pretty
    try:
        return _dispatch(args, pretty)
    except BrokenPipeError:
        # the reader closed stdout (`| head`); devnull takes the last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SchemoidsError as err:
        shown = err.__cause__ if isinstance(err, InputRefused) else err
        out = {"error": type(shown).__name__, "message": str(err)}
        if err.witness is not None:
            out["witness"] = err.witness
        emit(out, pretty)
        return 1
    except Exception:   # a bug, not a verdict on the input
        traceback.print_exc()
        return 3


def _dispatch(args, pretty) -> int:
    cmd = args.command
    if cmd == "validate":
        raw = load(args.input)
        obj = bundle_from_json(raw) if is_bundle(raw) else validate_category(raw)
        cat = obj if isinstance(obj, FinCategory) else obj.category
        out = {"valid": True, "objects": len(cat.objects), "morphisms": len(cat.morphisms)}
        if cat is not obj:
            out["blocks"] = len(obj.partition)
        emit(out, pretty)
        return 0

    if cmd == "analyze":
        qs = bundle_from_json(load(args.input))
        emit(analysis_report(qs), pretty)
        return 0

    if cmd == "constants":
        qs = bundle_from_json(load(args.input))
        emit(constants_to_json(qs), pretty)
        return 0

    if cmd == "algebra":
        qs = bundle_from_json(load(args.input))
        alg = schemoid_algebra(qs, ring_from_name(args.ring))
        emit(algebra_to_json(alg), pretty)
        return 0

    if cmd == "terwilliger":
        qs = bundle_from_json(load(args.input))
        closure = terwilliger(qs, args.object, ring_from_name(args.ring))
        emit({"object": args.object, "dimension": closure.dimension,
              "ambient_dimension": len(qs.category.morphisms)}, pretty)
        return 0

    if cmd == "embed-scheme":
        scheme = scheme_from_json(load(args.input))
        emit(bundle_to_json(j_embed(scheme)), pretty)
        return 0

    if cmd == "from-groupoid":
        gpd = validate_groupoid(load(args.input))
        emit(bundle_to_json(s_tilde(gpd)), pretty)
        return 0

    if cmd == "to-groupoid":
        qs = bundle_from_json(load(args.input))
        gpd = r_tilde(qs)
        emit({"kind": "groupoid", **serialize_groupoid(gpd)}, pretty)
        return 0

    if cmd == "roundtrip-check":
        gpd = validate_groupoid(load(args.input))
        qs = s_tilde(gpd)
        report = analyze_thinness(qs, qs.base_points)      # one analysis for both trips
        witness = canonical_groupoid_witness(gpd, qs, report)
        phi_psi_check(qs, report)
        emit({"roundtrip": "ok", "witness": serialize_functor(witness)}, pretty)
        return 0

    if cmd == "admissible":
        source = bundle_from_json(load(args.source))
        target = bundle_from_json(load(args.target))
        fun = functor_from_json(load(args.functor))
        phi = schemoid_morphism(source, target, fun)
        report = is_admissible(phi)
        out = {"admissible": report.admissible,
               "failures": [list(w) for w in report.failures[:10]],
               "kernel_blocks": list(report.kernel),
               "gates": gate_report(phi)}
        if report.admissible:
            try:
                mult = multiplicities(phi)
                out["multiplicities"] = mult
                ok, _ = verify_sum_identity(phi, mult)
                out["sum_identity"] = ok
                ring = ring_from_name(args.ring)
                amap = induced_algebra_map(phi, ring)
                out["algebra_map"] = {f"{t}<-{s}": str(v) for (t, s), v in sorted(amap.matrix.items())}
            except SchemoidsError as err:
                out["multiplicities_error"] = str(err)
        emit(out, pretty)
        return 0

    if cmd == "cohomology":
        cat = validate_category(load(args.category))
        system = system_from_json(cat, load(args.system))
        h = bw_cohomology(cat, system, args.degree)
        emit({"degree": args.degree, "invariants": list(h.invariants),
              "free_rank": h.free_rank, "group": h.describe()}, pretty)
        return 0

    if cmd == "extend":
        cat = validate_category(load(args.category))
        system = system_from_json(cat, load(args.system))
        delta = cocycle_from_json(system, load(args.cocycle))
        ext = build_extension(cat, system, delta)
        emit(extension_to_json(ext), pretty)
        return 0

    if cmd == "split":
        ext = extension_from_json(load(args.input))
        section = is_split(ext)
        if section is None:
            emit({"split": False, "section": None}, pretty)
        else:
            emit({"split": True, "section": serialize_functor(section)}, pretty)
        return 0

    if cmd == "equivalent":
        e1 = extension_from_json(load(args.first))
        e2 = extension_from_json(load(args.second))
        phi = equivalence(e1, e2)
        emit({"equivalent": False} if phi is None else
             {"equivalent": True, "functor": serialize_functor(phi)}, pretty)
        return 0

    if cmd == "thicken":
        if args.matrix is not None:
            framed = category_from_matrix(check(HOM_COUNTS, load(args.matrix), "matrix"))
            qs = sigma_prime(framed, args.residual)
            emit(bundle_to_json(qs), pretty)
            return 0
        scheme = scheme_from_json(load(args.input))
        z = args.z[0] if len(args.z) == 1 else args.z
        qs = thicken_scheme(scheme, z)
        if len(set(args.z)) == 1:
            qs = thicken_involution(qs, scheme, z)
        emit(bundle_to_json(qs), pretty)
        return 0

    if cmd == "gen":
        if args.generator == "hamming":
            scheme = hamming(args.n, args.q)
        elif args.generator == "group-scheme":
            scheme = group_scheme_from_json(load(args.table))
        else:
            raw = check(PERMS, load(args.perms))
            scheme = orbit_configuration(raw["perms"], raw["size"])
        emit({"kind": "scheme", **serialize_scheme(scheme)}, pretty)
        return 0

    if cmd == "examples":
        if args.window is not None and args.name != "ex2_11":
            build_parser().error("--window applies only to ex2_11")
        if not args.name:
            emit({"examples": {name: e.description for name, e in sorted(corpus.ENTRIES.items())}},
                 pretty)
            return 0
        entry = corpus.ENTRIES.get(args.name)
        if entry is None:
            raise InputRefused(f"unknown example {args.name!r}") from KeyError(args.name)
        obj = corpus.build(args.name, **({} if args.window is None else {"window": args.window}))
        if entry.kind == "extension":
            out = extension_to_json(obj)
            out["system"] = {"kind": "trivial", "modulus": 2, "rank": 1}
            out.pop("total")
            out.pop("projection")
            emit(out, pretty)
        else:
            emit(bundle_to_json(obj), pretty)
        return 0

    if cmd == "selftest":
        failures = corpus.selftest()
        for name in sorted(corpus.ENTRIES):
            status = "FAIL" if name in failures else "ok"
            print(f"{status:4s} {name}", file=sys.stderr)
        emit({"entries": len(corpus.ENTRIES), "failures": failures}, pretty)
        return 1 if failures else 0

    raise AssertionError(f"unhandled command {cmd!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
