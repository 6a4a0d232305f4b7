"""The four benchmark workloads: fixed job lists built from a seed.

Each workload function receives the freshly imported package (`lib`), a seeded
`random.Random` and a work directory inside the checkout, and returns the
list of jobs in the order of one pass.  The seed picks the tamper position
of every refusal job (and, in the runner, the job order of every pass); the
program only ever sees the generated inputs.

Every workload's pass takes two to four seconds on a 2-vCPU machine, so a
run makes several passes and reports medians: inputs whose single job takes
many seconds (H(5,2) and H(3,3) through the pipeline, the discrete algebra of
j(H(2,2)) over Q, H^2 of the product base over Z/4) are left out.

A job's `run` returns a raw answer; `canon` turns it into the canonical
answer (verdict, error class, invariants, dimensions, constants) that is
hashed against the frozen reference.  Canonicalisation runs after the pass,
outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Callable


@dataclass
class Job:
    id: str
    run: Callable[[], object]              # may raise; the runner records the class
    canon: Callable[[object], object]
    refusal: str | None = None     # error class the job must be refused with


def canonical(x, in_list=False):
    """JSON-ready form in which a pure ordering change is not a new answer.

    A list that is not itself inside a list is a multiset and gets sorted; a
    list inside a list is a record (a composition triple, a coefficient pair)
    and keeps its order.
    """
    if isinstance(x, dict):
        return {str(k): canonical(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        items = [canonical(v, in_list=True) for v in x]
        return items if in_list else sorted(items, key=_sort_key)
    if isinstance(x, Fraction):
        return str(x)
    if x is None or isinstance(x, (bool, int, str)):
        return x
    raise TypeError(f"no canonical form for {type(x).__name__}")


def _sort_key(v) -> str:
    return json.dumps(v, sort_keys=True)


def as_is(raw):
    """Canonical form of an answer that the job already returns compact."""
    return raw


# ---------------------------------------------------------------------------
# In-process CLI
# ---------------------------------------------------------------------------

class Cli:
    """Runs `schemoids.cli.run` in-process with text on stdin.

    Counts the bytes handed in (stdin plus the input files named on the
    command line) and the bytes printed.
    """

    def __init__(self, lib):
        self.lib = lib
        self.file_sizes: dict[str, int] = {}
        self.bytes_in = 0
        self.bytes_out = 0

    def __call__(self, argv, stdin: str = ""):
        self.bytes_in += len(stdin) + sum(self.file_sizes.get(a, 0) for a in argv)
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = self.lib.cli.run(list(argv))
                except SystemExit as exc:      # argparse usage errors
                    code = exc.code
        finally:
            sys.stdin = saved
        text = out.getvalue()
        self.bytes_out += len(text)
        return code, text


class WorkDir:
    """Input files for CLI commands that take more than one input."""

    def __init__(self, path: str, cli: Cli):
        self.path = path
        self.cli = cli
        os.makedirs(path, exist_ok=True)

    def write(self, name: str, payload) -> str:
        text = payload if isinstance(payload, str) else json.dumps(payload)
        path = os.path.join(self.path, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.cli.file_sizes[path] = len(text)
        return path


def _parse(text: str):
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"unparsed": lines[-1][:80]}


def summarize_output(out):
    """The verdict part of one CLI output: errors keep only their class,
    schemes and bundles are reduced to their counts, and the free-text
    witness of a failed thinness check is dropped (which offending block the
    program names first depends on set iteration order)."""
    if not isinstance(out, dict):
        return out
    if "error" in out:
        return {"error": out["error"]}
    if "witness" in out and isinstance(out["witness"], str):
        out = {k: v for k, v in out.items() if k != "witness"}
    kind = out.get("kind")
    if kind == "scheme":
        return {"size": out["size"], "classes": out["classes"]}
    if kind == "bundle":
        cat = out["category"]
        return {"objects": len(cat["objects"]), "morphisms": len(cat["morphisms"]),
                "pairs": len(cat["compose"]),
                "blocks": {b: len(ms) for b, ms in out["partition"]["blocks"].items()},
                "involution": "involution" in out}
    if kind == "extension":
        return {"base_morphisms": len(out["base"]["morphisms"]),
                "total_morphisms": len(out["total"]["morphisms"]) if "total" in out else None,
                "cocycle_entries": len(out["cocycle"]["entries"])}
    if kind == "groupoid":
        return {"objects": len(out["objects"]), "morphisms": len(out["morphisms"])}
    return out


def steps_answer(steps: dict) -> dict:
    return {name: {"exit": code, "out": summarize_output(_parse(text))}
            for name, (code, text) in steps.items()}


def cli_job(job_id, cli, argv, stdin="", refusal=None) -> Job:
    return Job(job_id, lambda: {"cli": cli(argv, stdin)}, steps_answer, refusal)


# ---------------------------------------------------------------------------
# embed: gen -> embed-scheme -> analyze -> constants
# ---------------------------------------------------------------------------

HAMMING_EMBED = ((2, 2), (3, 2), (4, 2), (2, 3))
CYCLIC_EMBED = tuple(range(2, 14)) + (16,)
# Small non-cyclic groups, the dihedral ones non-abelian: cheap pipelines that
# put the tail percentile above the median job.
PRODUCT_EMBED = ((2, 2), (2, 4), (3, 3), (2, 2, 2))
DIHEDRAL_EMBED = (3, 4)
LOOP_ORDER = 8


def embed_pipeline(cli, gen_argv, gen_stdin=""):
    def run():
        code, scheme = cli(gen_argv, gen_stdin)
        steps = {"gen": (code, scheme)}
        if code == 0:
            code, bundle = cli(["embed-scheme", "-"], scheme)
            steps["embed-scheme"] = (code, bundle)
            if code == 0:
                steps["analyze"] = cli(["analyze", "-"], bundle)
                steps["constants"] = cli(["constants", "-"], bundle)
        return steps
    return run


def group_table(elements, mul) -> dict:
    """`gen group-scheme` input for the group on `elements` with product `mul`."""
    name = {e: ".".join(map(str, e)) if isinstance(e, tuple) else str(e) for e in elements}
    return {"elements": [name[e] for e in elements],
            "table": [[name[mul(a, b)] for b in elements] for a in elements]}


def cyclic_table(n: int) -> dict:
    return group_table(range(n), lambda a, b: (a + b) % n)


def product_table(orders) -> dict:
    """Z/n1 x Z/n2 x ..."""
    return group_table(list(iproduct(*(range(n) for n in orders))),
                       lambda a, b: tuple((x + y) % n for x, y, n in zip(a, b, orders)))


def dihedral_table(n: int) -> dict:
    """The dihedral group of order 2n: (r, s) is rotation r followed by s reflections."""
    return group_table(list(iproduct(range(n), range(2))),
                       lambda a, b: ((a[0] + (-1) ** a[1] * b[0]) % n, (a[1] + b[1]) % 2))


def loop_category(a: int, c: int, n: int = LOOP_ORDER) -> dict:
    """One-object category whose composition is Z/n with one intercalate
    swapped: rows a, a+n/2 and columns c, c+n/2 exchange their values.  The
    result is still a loop (Latin square with identity 0) but not a group."""
    h = n // 2
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    for row in (a, a + h):
        table[row][c], table[row][c + h] = table[row][c + h], table[row][c]
    return {"objects": ["*"],
            "morphisms": [{"id": str(i), "src": "*", "tgt": "*"} for i in range(n)],
            "identities": {"*": "0"},
            "compose": [[str(i), str(j), str(table[i][j])] for i in range(n) for j in range(n)]}


def loop_choices(n: int = LOOP_ORDER):
    return [(a, c) for a in range(1, n // 2) for c in range(1, n // 2)]


def moved_morphism_bundle(bundle: dict, morphism: str, target: str) -> dict:
    """The bundle without its involution, `morphism` moved into block `target`."""
    blocks = {b: [m for m in ms if m != morphism] for b, ms in bundle["partition"]["blocks"].items()}
    blocks[target].append(morphism)
    return {"kind": "bundle", "category": bundle["category"], "partition": {"blocks": blocks}}


def move_choices(bundle: dict):
    """(morphism, target block) pairs that move a non-identity morphism
    between two non-diagonal blocks."""
    identities = set(bundle["category"]["identities"].values())
    blocks = bundle["partition"]["blocks"]
    diagonal = {b for b, ms in blocks.items() if set(ms) <= identities}
    out = []
    for b in sorted(blocks):
        if b in diagonal:
            continue
        for m in sorted(blocks[b]):
            out.extend((m, t) for t in sorted(blocks) if t not in diagonal and t != b)
    return out


def hamming_relations(n: int, q: int):
    words = ["".join(str(c) for c in w) for w in iproduct(range(q), repeat=n)]
    return words, [[sum(a != b for a, b in zip(u, v)) for v in words] for u in words]


def broken_scheme(x: int, y: int, cls: int) -> dict:
    """H(3,2) with the pair {x, y} put into class `cls`: still symmetric with
    the diagonal intact, but the intersection numbers are no longer constant."""
    words, rel = hamming_relations(3, 2)
    rel[x][y] = rel[y][x] = cls
    return {"kind": "scheme", "size": len(words), "relations": rel, "points": words,
            "classes": [f"R{d}" for d in range(4)]}


def broken_scheme_choices():
    words, rel = hamming_relations(3, 2)
    return [(x, y, c) for x in range(len(words)) for y in range(x + 1, len(words))
            for c in range(1, 4) if c != rel[x][y]]


def build_embed(lib, rng, work: WorkDir) -> list[Job]:
    cli = work.cli
    a, c = rng.choice(loop_choices())
    h42 = lib.cli.bundle_to_json(lib.schemes.j_embed(lib.schemes.hamming(4, 2)))
    morphism, target = rng.choice(move_choices(h42))
    x, y, cls = rng.choice(broken_scheme_choices())

    jobs = [Job(f"hamming-{n}-{q}", embed_pipeline(cli, ["gen", "hamming", str(n), str(q)]),
                steps_answer) for n, q in HAMMING_EMBED]
    jobs += [Job(f"cyclic-{n}", embed_pipeline(cli, ["gen", "group-scheme", "-"],
                                               json.dumps(cyclic_table(n))), steps_answer)
             for n in CYCLIC_EMBED]
    tables = {"x".join(f"Z{n}" for n in orders): product_table(orders) for orders in PRODUCT_EMBED}
    tables.update({f"D{n}": dihedral_table(n) for n in DIHEDRAL_EMBED})
    jobs += [Job(f"group-{name}", embed_pipeline(cli, ["gen", "group-scheme", "-"],
                                                 json.dumps(table)), steps_answer)
             for name, table in tables.items()]
    jobs += [
        cli_job("refuse-loop", cli, ["validate", "-"], json.dumps(loop_category(a, c)),
                "NonAssociative"),
        cli_job("refuse-moved-morphism", cli, ["analyze", "-"],
                json.dumps(moved_morphism_bundle(h42, morphism, target)), "AxiomViolation"),
        cli_job("refuse-not-scheme", cli, ["embed-scheme", "-"],
                json.dumps(broken_scheme(x, y, cls)), "NonConstantIntersection"),
    ]
    return jobs


# ---------------------------------------------------------------------------
# algebra: block-sum and Terwilliger algebras on prebuilt schemoids
# ---------------------------------------------------------------------------

def algebra_answer(alg) -> dict:
    return {"ring": alg.ring.name(), "dimension": alg.dimension, "unital": alg.unital,
            "unit": sorted(alg.unit.items()) if alg.unit is not None else None,
            "tensor_unit": sorted(alg.tensor_unit.items()) if alg.tensor_unit is not None else None,
            "tensor": [[s, t, m, v] for (s, t, m), v in alg.tensor.items()]}


def closure_answer(closure) -> dict:
    return {"dimension": closure.dimension, "ambient": len(closure.order)}


def map_answer(result) -> dict:
    amap, (ok, witness) = result
    return {"matrix": [[t, s, v] for (t, s), v in amap.matrix.items()],
            "source": amap.source.dimension, "target": amap.target.dimension,
            "hom": ok, "witness": list(witness) if witness else None}


def build_algebra(lib, rng, work: WorkDir) -> list[Job]:
    S, A = lib.schemes, lib.algebra
    Q, F2, F3 = A.Rationals(), A.PrimeField(2), A.PrimeField(3)
    rings = {"Q": Q, "F2": F2, "F3": F3}
    h22 = S.hamming(2, 2)
    j = {n: S.j_embed(S.hamming(n, 2)) for n in range(2, 5)}
    j23 = S.j_embed(S.hamming(2, 3))
    jz3 = S.j_embed(S.group_scheme(*lib.fincat.cyclic_group_table(3))).category
    discrete = lib.schemoid.verify_quasi_schemoid(jz3, lib.schemoid.discrete_partition(jz3))
    thick = {z: lib.thicken.thicken_scheme(h22, z) for z in range(1, 5)}
    phis = {z: lib.thicken.projection_phi(thick[z], h22, j[2]) for z in range(1, 5)}

    def induced(phi):
        def run():
            amap = lib.admissible.induced_algebra_map(phi, Q)
            return amap, A.check_algebra_hom(amap, amap.source, amap.target)
        return run

    jobs = [Job(f"discrete-jZ3-{r}", lambda r=r: A.schemoid_algebra(discrete, rings[r]),
                algebra_answer) for r in ("Q", "F2", "F3")]
    jobs += [Job(f"classes-j{n}2-{r}", lambda n=n, r=r: A.schemoid_algebra(j[n], rings[r]),
                 algebra_answer) for n in range(2, 5) for r in ("Q", "F2")]
    jobs += [Job(f"thick-h22-z{z}-Q", lambda z=z: A.schemoid_algebra(thick[z], Q),
                 algebra_answer) for z in range(1, 5)]
    for name, qs in (("j32", j[3]), ("j23", j23)):
        for r in ("Q", "F2", "F3"):
            jobs.append(Job(f"terwilliger-{name}-{r}",
                            lambda qs=qs, r=r: A.terwilliger(qs, qs.category.objects[0], rings[r]),
                            closure_answer))
    jobs += [Job(f"projection-h22-z{z}", induced(phis[z]), map_answer) for z in range(1, 5)]
    return jobs


# ---------------------------------------------------------------------------
# cohomology: Baues-Wirsching H^1, H^2 and the corpus extensions
# ---------------------------------------------------------------------------

SMALL_BASES = ("jZ3", "jZ4", "ex2_12_k1")
SMALL_MODULI = (None, 2, 3, 4, 6)
LARGE_PLAN = (("jZ5", 2), ("jZ5", 3), ("product", 2), ("jH32", 2))


def cohomology_bases(lib) -> dict:
    S, F = lib.schemes, lib.fincat
    bases = {f"jZ{n}": S.j_embed(S.group_scheme(*F.cyclic_group_table(n))).category
             for n in (3, 4, 5)}
    bases["ex2_12_k1"] = lib.corpus.build("ex2_12_k1").category
    bases["product"] = lib.corpus.product_base_schemoid().category
    bases["jH32"] = S.j_embed(S.hamming(3, 2)).category
    return bases


def group_answer(h) -> dict:
    return {"invariants": list(h.invariants), "free_rank": h.free_rank}


def cohomology_job(lib, base, cat, modulus) -> Job:
    E = lib.extensions

    def run():
        system = E.trivial_system(cat, modulus)
        cx = E.bw_differentials(cat, system)
        return {"dim": {f"C{i}": d for i, d in enumerate(cx.dim)},
                "H1": group_answer(E.bw_cohomology(cat, system, 1, cx)),
                "H2": group_answer(E.bw_cohomology(cat, system, 2, cx))}

    label = "Q" if modulus is None else f"Z{modulus}"
    return Job(f"cohomology-{base}-{label}", run, as_is)


def extension_answer(ext) -> dict:
    return {"total_morphisms": len(ext.total.morphisms),
            "compose": [[f, g, h] for (f, g), h in ext.total.compose.items()]}


def schemoid_answer(qs) -> dict:
    return {"morphisms": len(qs.category.morphisms),
            "blocks": {b: len(ms) for b, ms in qs.partition.blocks.items()},
            "constants": [[s, t, m, v] for (s, t, m), v in qs.constants.entries.items() if v],
            "involution": dict(qs.involution.block_image) if qs.involution else None}


def non_identity_pairs(cat):
    idents = set(cat.identity.values())
    return sorted((f, g) for (f, g) in cat.compose if f not in idents and g not in idents)


def build_cohomology(lib, rng, work: WorkDir) -> list[Job]:
    E, C = lib.extensions, lib.corpus
    bases = cohomology_bases(lib)
    product_qs = C.product_base_schemoid()
    cat = product_qs.category
    system = E.trivial_system(cat, 2)
    cocycles = {0: E.zero_cochain2(),
                1: E.cochain2_from_function(system, C.group_cocycle_pullback(cat))}
    exts = {eta: C.extension_e(eta) for eta in (0, 1)}
    bad_pair = rng.choice(non_identity_pairs(cat))
    not_cocycle = E.Cochain2({bad_pair: (1,)})

    jobs = [cohomology_job(lib, b, bases[b], m) for b in SMALL_BASES for m in SMALL_MODULI]
    jobs += [cohomology_job(lib, b, bases[b], m) for b, m in LARGE_PLAN]
    for eta in (0, 1):
        jobs += [
            Job(f"build-e{eta}", lambda eta=eta: E.build_extension(cat, system, cocycles[eta]),
                extension_answer),
            Job(f"lift-e{eta}", lambda eta=eta: E.lift_involution(product_qs, exts[eta]),
                schemoid_answer),
            Job(f"split-e{eta}", lambda eta=eta: {"split": E.is_split(exts[eta]) is not None},
                as_is),
        ]
    jobs += [
        Job("equivalent-e0-e0", lambda: {"equivalent": E.extensions_equivalent(exts[0], exts[0])},
            as_is),
        Job("equivalent-e0-e1", lambda: {"equivalent": E.extensions_equivalent(exts[0], exts[1])},
            as_is),
        Job("refuse-not-cocycle", lambda: E.build_extension(cat, system, not_cocycle),
            extension_answer, "NotACocycle"),
    ]
    return jobs


# ---------------------------------------------------------------------------
# corpus: many small inputs through the library and the CLI
# ---------------------------------------------------------------------------

GROUPOIDS = (2, 3, 4, 5)
# The three largest entries (36 to 64 morphisms) are verified but get no CLI
# round trip: together they would take a third of the pass.
NO_ROUNDTRIP = ("e0_schemoid", "e1_schemoid", "sc2_h22")


def roundtrip(cli, name):
    def run():
        code, bundle = cli(["examples", name])
        steps = {"examples": (code, bundle)}
        for step in ("validate", "analyze", "constants", "algebra"):
            if code != 0:
                break
            steps[step] = cli([step, "-"], bundle)
        return steps
    return run


def groupoid_pipeline(cli, text):
    def run():
        code, bundle = cli(["from-groupoid", "-"], text)
        steps = {"from-groupoid": (code, bundle)}
        if code == 0:
            steps["to-groupoid"] = cli(["to-groupoid", "-"], bundle)
        return steps
    return run


def build_corpus(lib, rng, work: WorkDir) -> list[Job]:
    C, E, F, S = lib.corpus, lib.extensions, lib.fincat, lib.schemes
    cli = work.cli
    entries = sorted(C.ENTRIES)
    roundtrip_entries = [n for n in entries
                         if C.ENTRIES[n].kind == "schemoid" and n not in NO_ROUNDTRIP]
    groupoids = {n: json.dumps(F.serialize_groupoid(F.one_object_group(*F.cyclic_group_table(n))))
                 for n in GROUPOIDS}
    h22 = S.hamming(2, 2)
    h22_text = json.dumps({"kind": "scheme", **S.serialize_scheme(h22)})
    z3_text = json.dumps({"kind": "scheme", **S.serialize_scheme(
        S.group_scheme(*F.cyclic_group_table(3)))})
    j22 = S.j_embed(h22)
    target = work.write("j22.json", lib.cli.bundle_to_json(j22))
    sc1 = lib.thicken.thicken_scheme(h22, 1)
    phi1 = lib.thicken.projection_phi(sc1, h22, j22)
    admissible_files = (work.write("sc1.json", lib.cli.bundle_to_json(sc1)), target,
                        work.write("phi1.json", lib.cli.serialize_functor(phi1.functor)))
    ext_files = {}
    for eta in (0, 1):
        ext = C.extension_e(eta)
        system = {"kind": "trivial", "modulus": 2, "rank": 1}
        payload = {"kind": "extension", "base": F.serialize(ext.base), "system": system,
                   "cocycle": E.cocycle_to_json(ext.cocycle)}
        ext_files[eta] = {"base": work.write(f"base{eta}.json", payload["base"]),
                          "system": work.write(f"system{eta}.json", system),
                          "cocycle": work.write(f"cocycle{eta}.json", payload["cocycle"]),
                          "extension": work.write(f"extension{eta}.json", payload)}
    broken = work.write("broken.json", '{"objects": ["x"], "morphisms": [')

    jobs = [Job(f"verify-{n}", lambda n=n: C.verify_entry(C.ENTRIES[n]), as_is)
            for n in entries]
    jobs += [Job(f"roundtrip-{n}", roundtrip(cli, n), steps_answer) for n in roundtrip_entries]
    jobs += [Job(f"groupoid-Z{n}", groupoid_pipeline(cli, groupoids[n]), steps_answer)
             for n in GROUPOIDS]
    jobs += [cli_job(f"roundtrip-check-Z{n}", cli, ["roundtrip-check", "-"], groupoids[n])
             for n in GROUPOIDS]
    jobs += [
        cli_job("thicken-h22-z1", cli, ["thicken", "-", "--z", "1"], h22_text),
        cli_job("thicken-h22-z2", cli, ["thicken", "-", "--z", "2"], h22_text),
        cli_job("thicken-h22-z1,2,3", cli, ["thicken", "-", "--z", "1,2,3"], h22_text),
        cli_job("thicken-gsz3-z2", cli, ["thicken", "-", "--z", "2"], z3_text),
    ]
    jobs.append(cli_job("admissible-sc1", cli, ["admissible", *admissible_files]))
    for eta in (0, 1):
        f = ext_files[eta]
        jobs += [
            cli_job(f"cohomology-e{eta}-H1", cli,
                    ["cohomology", f["base"], f["system"], "--degree", "1"]),
            cli_job(f"cohomology-e{eta}-H2", cli, ["cohomology", f["base"], f["system"]]),
            cli_job(f"extend-e{eta}", cli, ["extend", f["base"], f["system"], f["cocycle"]]),
            cli_job(f"split-e{eta}", cli, ["split", f["extension"]]),
        ]
    jobs += [
        cli_job("equivalent-e0-e1", cli,
                ["equivalent", ext_files[0]["extension"], ext_files[1]["extension"]]),
    ]
    j22_text = json.dumps(lib.cli.bundle_to_json(j22))
    jobs += [
        cli_job("refuse-malformed-analyze", cli, ["analyze", "-"], "{not json",
                "JSONDecodeError"),
        cli_job("refuse-malformed-groupoid", cli, ["from-groupoid", "-"], '{"objects": [',
                "JSONDecodeError"),
        cli_job("refuse-malformed-file", cli, ["cohomology", broken, ext_files[0]["system"]],
                refusal="JSONDecodeError"),
        cli_job("refuse-unknown-example", cli, ["examples", "no_such_example"], refusal="KeyError"),
        cli_job("refuse-unknown-object", cli, ["terwilliger", "-", "--object", "no_such_object"],
                j22_text, "NotTerminal"),
        cli_job("refuse-usage", cli, ["gen", "hamming", "two", "2"], refusal="usage"),
    ]
    return jobs


WORKLOADS = {
    "embed": build_embed,
    "algebra": build_algebra,
    "cohomology": build_cohomology,
    "corpus": build_corpus,
}
