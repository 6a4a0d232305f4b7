"""Regenerate ``bench/reference.json`` after cross-checking every answer.

    python3 bench/freeze.py            # check and write
    python3 bench/freeze.py --check    # check only

Each workload is run once per seed in SEEDS; the canonical answers must not
depend on the seed (it moves only tamper positions and job order).  Before
the hashes are written, the answers are checked against sources that do not
share the code paths under test:

- every refusal job is refused with its named error class, every other job
  succeeds, and every tamper position the seed can pick is refused the same
  way;
- the brute-force oracles in ``tests/oracles.py``: intersection numbers from
  the raw relation matrices, the Terwilliger dimension from explicit matrix
  products, group cohomology from the bar complex;
- ``sympy``'s Smith normal form, through the universal coefficient theorem,
  for every composite-modulus H^1 and H^2;
- the hand-written corpus expectations;
- the closed forms for H(n, q): n + 1 classes, dim T = C(n+3, 3) for q = 2
  (Terwilliger 1992; Go 2002) and C(n+4, 4) for q = 3.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from fractions import Fraction
from math import comb

import run as bench
from workloads import (
    GROUPOIDS, WORKLOADS, broken_scheme, broken_scheme_choices, cohomology_bases, hamming_relations,
    loop_category, loop_choices, move_choices, moved_morphism_bundle, non_identity_pairs,
)

sys.path.insert(0, str(bench.ROOT / "tests"))
import oracles                                         # noqa: E402

SEEDS = (0, 1, 2)


def refusal_class(raw):
    """The error class a job was refused with, or None if it was not refused."""
    if isinstance(raw, bench.Raised):
        return raw.name
    if isinstance(raw, dict) and raw and all(isinstance(v, tuple) for v in raw.values()):
        code, text = list(raw.values())[-1]        # CLI steps: the last one decides
        if code == 2:
            return "usage"
        if code != 0:
            return json.loads(text.strip().splitlines()[-1]).get("error")
    return None


def fail(msg):
    raise SystemExit(f"freeze: {msg}")


def expect(cond, msg):
    if not cond:
        fail(msg)


# ---------------------------------------------------------------------------
# cross-checks
# ---------------------------------------------------------------------------

def parsed(raw, step):
    return json.loads(raw[step][1].strip().splitlines()[-1])


def check_embed(lib, jobs, raws):
    for job in jobs:
        if job.refusal:
            continue
        raw = raws[job.id]
        scheme = parsed(raw, "gen")
        rel, classes = scheme["relations"], scheme["classes"]
        oracle = {(classes[e], classes[f], classes[g]): v
                  for (e, f, g), v in oracles.intersection_numbers_bruteforce(rel).items()}
        consts = parsed(raw, "constants")["p"]
        got = {(*key.split(","), m): v for key, row in consts.items() for m, v in row.items()}
        expect(got == oracle, f"{job.id}: constants differ from brute-force intersection numbers")
        if job.id.startswith("hamming"):
            n = int(job.id.split("-")[1])
            expect(len(classes) == n + 1, f"{job.id}: {len(classes)} classes, expected {n + 1}")
        report = parsed(raw, "analyze")
        expect(report["axiom"] and report["unital"] and report["association"] and report["basic"],
               f"{job.id}: complete-graph schemoid of a scheme must be a basic association schemoid")
    # every tamper position the seed can pick is refused the same way
    for a, c in loop_choices():
        try:
            lib.fincat.validate_category(loop_category(a, c))
            fail(f"loop tamper {(a, c)} was accepted")
        except lib.fincat.NonAssociative:
            pass
    h42 = lib.cli.bundle_to_json(lib.schemes.j_embed(lib.schemes.hamming(4, 2)))
    cat = lib.fincat.validate_category(h42["category"])
    for morphism, target in move_choices(h42):
        bundle = moved_morphism_bundle(h42, morphism, target)
        partition = lib.schemoid.partition_from_json(cat, bundle["partition"])
        try:
            lib.schemoid.verify_quasi_schemoid(cat, partition)
            fail(f"moved morphism {morphism} -> {target} was accepted")
        except lib.schemoid.AxiomViolation:
            pass
    for x, y, cls in broken_scheme_choices():
        try:
            lib.schemes.scheme_from_json(broken_scheme(x, y, cls))
            fail(f"broken scheme {(x, y, cls)} was accepted")
        except lib.schemes.NonConstantIntersection:
            pass


def adjacency(rel, d):
    return [[1 if x == d else 0 for x in row] for row in rel]


def terwilliger_oracle(n, q):
    _, rel = hamming_relations(n, q)
    gens = [adjacency(rel, d) for d in range(n + 1)]
    size = len(rel)
    gens += [[[1 if i == j and rel[0][i] == d else 0 for j in range(size)] for i in range(size)]
             for d in range(n + 1)]
    return oracles.matrix_algebra_closure_dim(gens)


def check_algebra(answers):
    closed = {"j32": (3, 2), "j23": (2, 3)}
    for job_id, ans in answers.items():
        if job_id.startswith("terwilliger"):
            _, name, ring = job_id.split("-")
            n, q = closed[name]
            want = comb(n + 3, 3) if q == 2 else comb(n + 4, 4)
            expect(ans["dimension"] == want, f"{job_id}: dim {ans['dimension']}, closed form {want}")
            if ring == "Q" and q ** n <= 9:      # the oracle re-eliminates per product
                oracle = terwilliger_oracle(n, q)
                expect(ans["dimension"] == oracle, f"{job_id}: oracle closure dim {oracle}")
        elif job_id.startswith("classes"):
            n = int(job_id.split("-")[1][1])
            expect(ans["dimension"] == n + 1 and ans["unital"], f"{job_id}: not n+1 dim unital")
            _, rel = hamming_relations(n, 2)
            oracle = {(f"R{e}", f"R{f}", f"R{g}"): v
                      for (e, f, g), v in oracles.intersection_numbers_bruteforce(rel).items()}
            modulus = 2 if ans["ring"] == "F2" else None
            want = {k: (v % modulus if modulus else v) for k, v in oracle.items()}
            got = {(s, t, m): int(Fraction(v)) for s, t, m, v in ans["tensor"]}
            expect(got == {k: v for k, v in want.items() if v}, f"{job_id}: tensor != oracle")
        elif job_id.startswith("discrete"):
            # discrete partition of the complete graph on 3 points: the 3x3 matrix units
            expect(ans["dimension"] == 9 and ans["unital"], f"{job_id}: not M_3")
            expect(len(ans["tensor"]) == 27 and {t[3] for t in ans["tensor"]} in ({"1"}, {1}),
                   f"{job_id}: matrix-unit constants wrong")
        elif job_id.startswith("thick"):
            z = int(job_id.split("-")[2][1])
            expect(ans["dimension"] == (4 if z == 1 else 7), f"{job_id}: block count")
        elif job_id.startswith("projection"):
            expect(ans["hom"] and ans["target"] == 3, f"{job_id}: not a homomorphism onto H(2,2)")


def elementary_divisors(invariants):
    out = []
    for d in invariants:
        d = int(d)
        p = 2
        while d > 1:
            k = 1
            while d % p == 0:
                d //= p
                k *= p
            if k > 1:
                out.append(k)
            p += 1
    return sorted(out)


def snf_nonzero(matrix):
    """Nonzero Smith invariants of an integer matrix (sympy), rows deduplicated:
    the row lattice, hence the invariants, does not change."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form
    rows = sorted({tuple(r) for r in matrix if any(r)})
    if not rows:
        return []
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    return [abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i] != 0]


def uct_group(d_prev, d_n, dim_n, m):
    """H^n(C; Z/m) = H^n(C) (x) Z/m + Tor(H^{n+1}(C), Z/m) from integer Smith forms."""
    s_prev, s_n = snf_nonzero(d_prev), snf_nonzero(d_n)
    free = dim_n - len(s_n) - len(s_prev)
    factors = [m] * free + [math.gcd(d, m) for d in s_prev] + [math.gcd(d, m) for d in s_n]
    return elementary_divisors([f for f in factors if f > 1])


def check_cohomology(lib, answers, bases):
    E = lib.extensions
    z2 = (["0", "1"], {(a, b): str((int(a) + int(b)) % 2) for a in "01" for b in "01"})
    for job_id, ans in answers.items():
        if not job_id.startswith("cohomology-"):
            continue
        _, base, label = job_id.split("-")
        m = None if label == "Q" else int(label[1:])
        if base == "product":
            for deg in (1, 2):
                want = sorted(oracles.bar_complex_group_cohomology(*z2, m, deg))
                got = elementary_divisors(ans[f"H{deg}"]["invariants"])
                expect(got == elementary_divisors(want), f"{job_id}: H{deg} != bar complex {want}")
        else:
            # complete graphs and the commuting square are contractible
            for deg in (1, 2):
                expect(ans[f"H{deg}"] == {"invariants": [], "free_rank": 0}, f"{job_id}: H{deg} != 0")
        if m is not None and not lib.linalg.is_prime(m) and base != "product":
            cat = bases[base]
            cx = E.bw_differentials(cat, E.trivial_system(cat, m))
            for deg, d_prev, d_n in ((1, cx.d0, cx.d1), (2, cx.d1, cx.d2)):
                want = uct_group(d_prev, d_n, cx.dim[deg], m)
                got = elementary_divisors(ans[f"H{deg}"]["invariants"])
                expect(got == want, f"{job_id}: H{deg} {got} != Smith/UCT {want}")
    expect(answers["split-e0"] == {"split": True} and answers["split-e1"] == {"split": False},
           "corpus: e0 splits and e1 does not")
    expect(answers["equivalent-e0-e0"] == {"equivalent": True}
           and answers["equivalent-e0-e1"] == {"equivalent": False}, "equivalence of e0, e1")
    for eta in (0, 1):
        lift = answers[f"lift-e{eta}"]
        expect(lift["morphisms"] == 64 and len(lift["blocks"]) == 3, f"lift-e{eta}: corpus shape")
        expect(answers[f"build-e{eta}"]["total_morphisms"] == 64, f"build-e{eta}: 64 morphisms")
    cat = bases["product"]
    system = E.trivial_system(cat, 2)
    for pair in non_identity_pairs(cat):
        try:
            E.build_extension(cat, system, E.Cochain2({pair: (1,)}))
            fail(f"non-cocycle at {pair} was accepted")
        except E.NotACocycle:
            pass


def check_corpus(lib, answers):
    C = lib.corpus
    for job_id, ans in answers.items():
        if job_id.startswith("verify-"):
            expect(ans == [], f"{job_id}: corpus expectations fail: {ans}")
        elif job_id.startswith("roundtrip-") and not job_id.startswith("roundtrip-check"):
            entry = C.ENTRIES[job_id[len("roundtrip-"):]]
            report = ans["analyze"]["out"]
            algebra = ans["algebra"]["out"]
            got = {"objects": report["objects"], "morphisms": report["morphisms"],
                   "blocks": len(report["blocks"]), "unital": report["unital"],
                   "basic": report["basic"], "association": report["association"],
                   "semi_thin": report.get("semi_thin"), "thin": report.get("thin"),
                   "algebra_dim": len(algebra["basis"]),
                   "algebra_unital": algebra["unit"] is not None}
            for key, want in entry.expected.items():
                expect(got[key] == want, f"{job_id}: {key} = {got[key]}, corpus says {want}")
    z2 = (["0", "1"], {(a, b): str((int(a) + int(b)) % 2) for a in "01" for b in "01"})
    for eta in (0, 1):
        for deg in (1, 2):
            got = answers[f"cohomology-e{eta}-H{deg}"]["cli"]["out"]["invariants"]
            want = oracles.bar_complex_group_cohomology(*z2, 2, deg)
            expect(sorted(got) == sorted(want), f"cohomology-e{eta}-H{deg}: != bar complex")
        expect(answers[f"split-e{eta}"]["cli"]["out"]["split"] == (eta == 0), f"split-e{eta}")
    expect(answers["equivalent-e0-e1"]["cli"]["out"]["equivalent"] is False, "e0 ~ e1")
    for n in GROUPOIDS:
        ans = answers[f"groupoid-Z{n}"]
        expect(ans["from-groupoid"]["out"]["morphisms"] == n * n
               and ans["to-groupoid"]["out"] == {"objects": 1, "morphisms": n},
               f"groupoid-Z{n}: pair schemoid of Z/{n} does not give back Z/{n}")


# ---------------------------------------------------------------------------

def freeze(workload, seeds):
    hashes = None
    workdir = bench.ROOT / ".bench_out" / "freeze"
    try:
        for seed in seeds:
            lib, modules, cli, jobs = bench.set_up(workload, seed, str(workdir))
            times, raws = bench.run_pass(jobs)
            answers = {job.id: bench.canonical_answer(job, raws[job.id]) for job in jobs}
            for job in jobs:
                got = refusal_class(raws[job.id])
                expect(got == job.refusal,
                       f"{workload}/{job.id} (seed {seed}): refused with {got}, expected "
                       f"{job.refusal}: {answers[job.id]}")
            seed_hashes = {job_id: bench.answer_hash(a) for job_id, a in sorted(answers.items())}
            if hashes is None:
                hashes = seed_hashes
                if workload == "embed":
                    check_embed(lib, jobs, raws)
                elif workload == "algebra":
                    check_algebra(answers)
                elif workload == "cohomology":
                    check_cohomology(lib, answers, cohomology_bases(lib))
                else:
                    check_corpus(lib, answers)
            diff = sorted(k for k in hashes if hashes[k] != seed_hashes.get(k))
            expect(not diff and seed_hashes.keys() == hashes.keys(),
                   f"{workload}: answers depend on the seed at {diff}")
            slowest = sorted(times.items(), key=lambda kv: -kv[1])[:3]
            print(f"{workload} seed {seed}: {len(jobs)} jobs ok; slowest "
                  + ", ".join(f"{k} {v:.2f}s" for k, v in slowest), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return hashes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare, do not write")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    path = bench.HERE / "reference.json"
    current = json.loads(path.read_text()) if path.exists() else {"jobs": {}}
    jobs = dict(current["jobs"])
    for workload in args.workload or sorted(WORKLOADS):
        jobs[workload] = freeze(workload, SEEDS)
        if args.check and jobs[workload] != current["jobs"].get(workload):
            fail(f"{workload}: answers differ from {path.name}")
    if not args.check:
        current = {"format": 1, "jobs": {k: jobs[k] for k in sorted(jobs)}}
        path.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
