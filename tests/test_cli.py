import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

from schemoids import cli
from schemoids.fincat import cyclic_group_table, one_object_group, serialize_groupoid


def run_json(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(out)


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def test_gen_hamming(capsys):
    code, out = run_json(capsys, "gen", "hamming", "2", "2")
    assert code == 0
    assert out["size"] == 4 and len(out["classes"]) == 3


def test_gen_group_scheme(capsys, tmp_path):
    table = write(tmp_path, "z3.json", {
        "elements": ["0", "1", "2"],
        "table": [["0", "1", "2"], ["1", "2", "0"], ["2", "0", "1"]],
    })
    code, out = run_json(capsys, "gen", "group-scheme", table)
    assert code == 0 and out["size"] == 3


def test_gen_orbits(capsys, tmp_path):
    perms = write(tmp_path, "z4.json", {
        "size": 4, "perms": [[(i + k) % 4 for i in range(4)] for k in range(4)]})
    code, out = run_json(capsys, "gen", "orbits", perms)
    assert code == 0 and len(out["classes"]) == 4


@pytest.mark.parametrize("perms", [[], [[0]]])
def test_gen_orbits_refuses_a_large_size_before_allocating(capsys, tmp_path, perms):
    """A size past the scheme budget is refused as SizeLimit before any
    size-long list is built, whatever the perms: a size of 3 million costs
    no 24 MB."""
    import tracemalloc
    doc = write(tmp_path, "perms.json", {"perms": perms, "size": 3_000_000})
    tracemalloc.start()
    try:
        code, out = run_json(capsys, "gen", "orbits", doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out["error"] == "SizeLimit"
    assert peak < 1 << 20, f"peak {peak} bytes"


def test_gen_orbits_refuses_many_generators_before_the_walk(capsys, tmp_path):
    """1000 distinct perms of 128 points are refused as SizeLimit, where the
    walk took 4.6 s."""
    rng = random.Random(0)
    doc = write(tmp_path, "perms.json", {"perms": [rng.sample(range(128), 128) for _ in range(1000)],
                                         "size": 128})
    start = time.perf_counter()
    code, out = run_json(capsys, "gen", "orbits", doc)
    assert code == 1 and out["error"] == "SizeLimit"
    assert time.perf_counter() - start < 1


def test_gen_orbits_refuses_a_perm_of_the_wrong_length(capsys, tmp_path):
    doc = write(tmp_path, "perms.json", {"perms": [[1, 0, 2], [0, 1]], "size": 3})
    code, out = run_json(capsys, "gen", "orbits", doc)
    assert code == 1 and out["error"] == "NotAGroup"


def test_pipe_embed_analyze(capsys, tmp_path):
    code, scheme = run_json(capsys, "gen", "hamming", "2", "2")
    sf = write(tmp_path, "scheme.json", scheme)
    code, bundle = run_json(capsys, "embed-scheme", sf)
    assert code == 0
    bf = write(tmp_path, "bundle.json", bundle)
    code, report = run_json(capsys, "analyze", bf)
    assert code == 0
    assert report["unital"] and report["association"] and report["basic"]
    code, consts = run_json(capsys, "constants", bf)
    assert consts["p"]["R1,R1"] == {"R0": 2, "R2": 2}
    code, alg = run_json(capsys, "algebra", bf, "--ring", "Q")
    assert alg["basis"] == ["R0", "R1", "R2"]
    assert alg["unit"] == [["R0", "1"]]
    code, alg2 = run_json(capsys, "algebra", bf, "--ring", "F2")
    assert code == 0
    code, ter = run_json(capsys, "terwilliger", bf, "--object", "00")
    assert code == 0 and ter["dimension"] >= 3


def test_terwilliger_refuses_unknown_and_nonterminal_objects(capsys, tmp_path):
    """A name that is no object is refused as unknown; a nonterminal object
    with the witness (x, e, |Hom(x, e)|).  Both are NotTerminal, exit 1."""
    code, bundle = run_json(capsys, "examples", "ex2_8")
    assert code == 0
    bf = write(tmp_path, "ex2_8.json", bundle)
    code, out = run_json(capsys, "terwilliger", bf, "--object", "nope")
    assert code == 1
    assert out["error"] == "NotTerminal" and out["message"] == "unknown object 'nope'"
    assert "witness" not in out
    code, out = run_json(capsys, "terwilliger", bf, "--object", "x")
    assert code == 1 and out["error"] == "NotTerminal"
    assert out["witness"] == ["y", "x", 0]
    code, out = run_json(capsys, "terwilliger", bf, "--object", "y")
    assert code == 0 and out["dimension"] == 3


def test_validate_category(capsys, tmp_path):
    raw = write(tmp_path, "cat.json", {
        "objects": ["x"], "morphisms": [{"id": "1_x", "src": "x", "tgt": "x"}],
        "identities": {"x": "1_x"}, "compose": []})
    code, out = run_json(capsys, "validate", raw)
    assert code == 0 and out["valid"]


def test_validate_bad_category(capsys, tmp_path):
    raw = write(tmp_path, "bad.json", {
        "objects": ["x"], "morphisms": [], "identities": {}, "compose": []})
    code, out = run_json(capsys, "validate", raw)
    assert code == 1 and "error" in out


def test_groupoid_roundtrip(capsys, tmp_path):
    gpd = one_object_group(*cyclic_group_table(3))
    gf = write(tmp_path, "z3.json", serialize_groupoid(gpd))
    code, bundle = run_json(capsys, "from-groupoid", gf)
    assert code == 0
    bf = write(tmp_path, "bundle.json", bundle)
    code, back = run_json(capsys, "to-groupoid", bf)
    assert code == 0
    assert len(back["morphisms"]) == 3
    code, rep = run_json(capsys, "roundtrip-check", gf)
    assert code == 0 and rep["roundtrip"] == "ok"


def test_roundtrip_check_analyzes_thinness_once(capsys, tmp_path, monkeypatch):
    """Both round trips of `roundtrip-check` read one thinness report of
    s̃(G): the identity blocks, which every analysis scans first, are
    scanned once, and the answer is the one each trip gives alone."""
    from schemoids import bridges, schemoid
    gf = write(tmp_path, "z4.json", serialize_groupoid(one_object_group(*cyclic_group_table(4))))
    scans = []
    real = schemoid.identity_blocks

    def counted(cat, partition):
        scans.append(cat)
        return real(cat, partition)

    monkeypatch.setattr(schemoid, "identity_blocks", counted)
    code, rep = run_json(capsys, "roundtrip-check", gf)
    assert code == 0 and rep["roundtrip"] == "ok" and len(scans) == 1
    gpd = one_object_group(*cyclic_group_table(4))
    qs = bridges.s_tilde(gpd)
    alone = bridges.canonical_groupoid_witness(gpd, qs, schemoid.analyze_thinness(qs, qs.base_points))
    assert rep["witness"]["morphisms"] == alone.morphism_map
    bridges.phi_psi_check(qs, schemoid.analyze_thinness(qs, qs.base_points))
    assert len(scans) == 3


def test_cohomology_and_extension_flow(capsys, tmp_path):
    gpd = one_object_group(*cyclic_group_table(2))
    from schemoids.fincat import serialize
    cf = write(tmp_path, "z2cat.json", serialize(gpd.base))
    sf = write(tmp_path, "sys.json", {"kind": "trivial", "modulus": 2, "rank": 1})
    code, h2 = run_json(capsys, "cohomology", cf, sf, "--degree", "2")
    assert code == 0 and h2["invariants"] == [2]
    cocf = write(tmp_path, "coc.json", {"entries": [["1", "1", [1]]]})
    code, ext = run_json(capsys, "extend", cf, sf, cocf)
    assert code == 0 and len(ext["total"]["morphisms"]) == 4
    ef = write(tmp_path, "ext.json", ext)
    code, sp = run_json(capsys, "split", ef)
    assert code == 0 and sp["split"] is False
    zf = write(tmp_path, "zero.json", {"entries": []})
    code, ext0 = run_json(capsys, "extend", cf, sf, zf)
    e0f = write(tmp_path, "ext0.json", ext0)
    code, sp0 = run_json(capsys, "split", e0f)
    assert sp0["split"] is True
    code, eq = run_json(capsys, "equivalent", ef, e0f)
    assert code == 0 and eq["equivalent"] is False


def test_equivalent_prints_its_functor_on_a_yes(capsys, tmp_path):
    """ex5_10_e1 against itself is equivalent by a functor on all 64
    morphisms of its total, over the base; e0 against e1 prints the bare
    "no" and nothing more."""
    files = {}
    for eta in (0, 1):
        code, doc = run_json(capsys, "examples", f"ex5_10_e{eta}")
        files[eta] = write(tmp_path, f"e{eta}.json", doc)
    code, yes = run_json(capsys, "equivalent", files[1], files[1])
    assert code == 0 and yes["equivalent"] is True
    morphisms = yes["functor"]["morphisms"]
    assert len(morphisms) == 64
    assert all(e.rsplit("|", 1)[0] == image.rsplit("|", 1)[0] for e, image in morphisms.items())
    code, no = run_json(capsys, "equivalent", files[0], files[1])
    assert code == 0 and no == {"equivalent": False, "schema": "schemoids/1"}


def test_split_refuses_cocycle_entry_of_wrong_length(capsys, tmp_path):
    """Over Z/2 with the trivial rank-1 system, D of 1∘1 has rank 1, so a
    two-coordinate entry is refused as input before any extension is built."""
    from schemoids.fincat import serialize
    cat = serialize(one_object_group(*cyclic_group_table(2)).base)
    ef = write(tmp_path, "ext.json", {
        "kind": "extension", "base": cat,
        "system": {"kind": "trivial", "modulus": 2, "rank": 1},
        "cocycle": {"entries": [["1", "1", [1, 1]]]}})
    code, out = run_json(capsys, "split", ef)
    assert code == 1 and out["error"] == "ExtensionError"


def test_closed_stdout_ends_quietly(capsys, tmp_path):
    """A reader that stops early, as `| head -c 16` does: the bundle of
    j(H(5,2)) is about 270 kB, more than a pipe holds (64 kB on Linux), so
    the CLI is still writing when the pipe closes, and it ends with nothing
    on stderr."""
    code, scheme = run_json(capsys, "gen", "hamming", "5", "2")
    sf = write(tmp_path, "scheme.json", scheme)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    with subprocess.Popen([sys.executable, "-m", "schemoids", "embed-scheme", sf], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(16)) == 16
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def test_analyze_output_does_not_depend_on_hash_seed(capsys, tmp_path):
    """`analyze` of the j(H(2,2)) bundle prints the same bytes under two hash
    seeds; its thinness witness names the first repeated source in
    morphism order, not in set order."""
    code, scheme = run_json(capsys, "gen", "hamming", "2", "2")
    code, bundle = run_json(capsys, "embed-scheme", write(tmp_path, "scheme.json", scheme))
    bf = write(tmp_path, "bundle.json", bundle)
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__)),
               "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, "-m", "schemoids", "analyze", bf], env=env,
                              capture_output=True, timeout=60)
        assert done.returncode == 0
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert b"two morphisms out of" in outputs[0]


@pytest.mark.parametrize("modulus", [0, 1, -4, True, 2.5, "4"])
def test_cohomology_rejects_invalid_modulus(capsys, tmp_path, modulus):
    gpd = one_object_group(*cyclic_group_table(2))
    from schemoids.fincat import serialize
    cf = write(tmp_path, "z2cat.json", serialize(gpd.base))
    sf = write(tmp_path, "sys.json", {"kind": "trivial", "modulus": modulus, "rank": 1})
    code, out = run_json(capsys, "cohomology", cf, sf)
    assert code == 1 and out["error"] == "InvalidModulus"


@pytest.mark.parametrize("system, missing", [
    ({"kind": "induced", "modulus": 2, "object_ranks": {"*": 1}, "maps": {"0": [[1]]}},
     "module map for '1'"),
    ({"kind": "induced", "modulus": 2, "object_ranks": {}, "maps": {"0": [[1]], "1": [[1]]}},
     "object rank for '*'"),
])
def test_cohomology_refuses_induced_system_with_a_gap(capsys, tmp_path, system, missing):
    """An induced system with no map for a morphism, or no rank for an
    object, is refused as a natural-system violation naming what is
    missing, not reported as an internal KeyError."""
    gpd = one_object_group(*cyclic_group_table(2))
    from schemoids.fincat import serialize
    cf = write(tmp_path, "z2cat.json", serialize(gpd.base))
    code, out = run_json(capsys, "cohomology", cf, write(tmp_path, "sys.json", system))
    assert code == 1 and out["error"] == "FunctorialityViolated"
    assert missing in out["message"]


def admissible_inputs(capsys, tmp_path):
    """Files for `admissible`: the e1 extension schemoid, the product base it
    lies over, and the projection between them."""
    code, e1 = run_json(capsys, "examples", "e1_schemoid")
    src = write(tmp_path, "src.json", e1)
    code, base = run_json(capsys, "examples", "ex5_10_e1")
    # target bundle: the product base schemoid
    from schemoids.cli import bundle_to_json
    from schemoids.corpus import product_base_schemoid
    tgt = write(tmp_path, "tgt.json", {"schema": "x", **bundle_to_json(product_base_schemoid())})
    fun = {"objects": {}, "morphisms": {}}
    with open(src, encoding="utf-8") as fh:
        src_bundle = json.load(fh)
    for m in src_bundle["category"]["morphisms"]:
        fun["morphisms"][m["id"]] = m["id"].rsplit("|", 1)[0]
    for o in src_bundle["category"]["objects"]:
        fun["objects"][o] = o
    ff = write(tmp_path, "fun.json", fun)
    return src, tgt, ff


def test_admissible_cli(capsys, tmp_path):
    code, rep = run_json(capsys, "admissible", *admissible_inputs(capsys, tmp_path))
    assert code == 0
    assert rep["admissible"] and set(rep["multiplicities"].values()) == {2}
    assert rep["sum_identity"] is True


def test_admissible_cli_reports_only_domain_errors(capsys, tmp_path, monkeypatch):
    """A domain error in the multiplicity step is reported beside the
    verdict; an internal error is not dressed up as one."""
    from schemoids.admissible import NonConstantFiber

    files = admissible_inputs(capsys, tmp_path)

    def fails_with(err):
        def multiplicities(phi):
            raise err
        return multiplicities

    monkeypatch.setattr(cli, "multiplicities", fails_with(NonConstantFiber("uneven")))
    code, rep = run_json(capsys, "admissible", *files)
    assert code == 0 and rep["multiplicities_error"] == "uneven"
    monkeypatch.setattr(cli, "multiplicities", fails_with(RuntimeError("internal")))
    code, out, err = outputs(capsys, ["admissible", *files])
    assert code == 3 and out == ""
    assert "Traceback" in err and "RuntimeError: internal" in err


def test_admissible_cli_answers_not_admissible_with_exit_0(capsys, tmp_path):
    """A morphism that is not admissible is an answer, not a refusal: the
    point mapped into Z/2 with one block misses the element 1."""
    from schemoids.fincat import terminal_category
    from schemoids.schemoid import discrete_partition, make_partition, verify_quasi_schemoid
    point = terminal_category()
    z2 = one_object_group(*cyclic_group_table(2)).base
    files = (write(tmp_path, "point.json",
                   cli.bundle_to_json(verify_quasi_schemoid(point, discrete_partition(point)))),
             write(tmp_path, "z2.json",
                   cli.bundle_to_json(verify_quasi_schemoid(z2, make_partition(z2, {"G": ["0", "1"]})))),
             write(tmp_path, "phi.json", {"objects": {"*": "*"}, "morphisms": {"1_*": "0"}}))
    code, rep = run_json(capsys, "admissible", *files)
    assert code == 0 and "error" not in rep
    assert rep["admissible"] is False and rep["failures"] == [["*", "1_*", "1"]]
    assert "multiplicities" not in rep


def test_failed_internal_certificates_exit_3(capsys, tmp_path, monkeypatch):
    """A certificate the program checks on its own output (d1∘d0 = 0, the
    axiom on a lifted partition, the count of d2's rows, the functor a split
    or equivalence answer carries, the sum of identities as the tensor unit)
    is an internal error when it fails: exit 3 with a traceback and nothing
    on stdout, not a refusal of the input."""
    from schemoids import algebra, extensions
    from schemoids.fincat import serialize
    from schemoids.schemes import hamming, j_embed
    from schemoids.schemoid import AxiomViolation
    cf = write(tmp_path, "z2.json", serialize(one_object_group(*cyclic_group_table(2)).base))
    sf = write(tmp_path, "sys.json", {"kind": "trivial", "modulus": 2})
    # a section or equivalence with one fiber position flipped is no functor
    transported = extensions._transported

    def flipped(e2, e1):
        image = transported(e2, e1)
        image[-1] = 1 - image[-1]
        return image

    monkeypatch.setattr(extensions, "_transported", flipped)
    code, doc = run_json(capsys, "examples", "ex5_10_e0")
    ef = write(tmp_path, "e0.json", doc)
    for argv in (["split", ef], ["equivalent", ef, ef]):
        code, out, err = outputs(capsys, argv)
        assert code == 3 and out == ""
        assert "AssertionError: the witness is no functor" in err
    monkeypatch.setattr(extensions, "_transported", transported)

    # every row of d0 is the first coordinate, so d1∘d0 has a 1 at every pair
    monkeypatch.setattr(extensions.BWComplex, "_d0_at", lambda self, f: [{0: 1}])
    code, out, err = outputs(capsys, ["cohomology", cf, sf, "--degree", "1"])
    assert code == 3 and out == ""
    assert "Traceback" in err and "AssertionError: d1∘d0 is not zero" in err

    def broken_axiom(cat, partition):
        raise AxiomViolation("s", "t", "m", "h1", 1, "h2", 2)

    monkeypatch.setattr(extensions, "check_concatenation", broken_axiom)
    code, out, err = outputs(capsys, ["examples", "e0_schemoid"])
    assert code == 3 and out == ""
    assert "AssertionError: the lifted partition fails the axiom" in err

    # Z/2 has 8 composable triples, and no triple gives a row of d2
    monkeypatch.setattr(extensions.BWComplex, "_d2_at", lambda self, f, g, h: [])
    code, out, err = outputs(capsys, ["cohomology", cf, sf, "--degree", "2"])
    assert code == 3 and out == ""
    assert "AssertionError: the triples span 0 coordinates, not dim C^3 = 8" in err

    # the sum of identities of j(H(2,2)) lies in the block-sum span; a
    # non-unit in its place fails the substitution
    bf = write(tmp_path, "h22.json", cli.bundle_to_json(j_embed(hamming(2, 2))))
    monkeypatch.setattr(algebra, "_identity_sum_coords", lambda qs, basis, ring: {"R1": ring.one})
    code, out, err = outputs(capsys, ["algebra", bf, "--ring", "Q"])
    assert code == 3 and out == ""
    assert "AssertionError: unit cross-check failed" in err


@pytest.mark.parametrize("system, field", [
    ([["trivial"]], "system: a JSON object expected, not list"),
    ("trivial", "system: a JSON object expected, not str"),
    ({"kind": "twisted", "modulus": 2}, "system.kind: 'twisted' is not"),
    ({"kind": "induced", "modulus": 2}, "system.object_ranks: an object of non-negative"),
    ({"kind": "induced", "modulus": 2, "object_ranks": {"*": 1}, "maps": {"0": 5, "1": [[1]]}},
     "system.maps: an object of arrays of arrays of integers"),
    ({"kind": "trivial", "modulus": 2, "rank": "x"}, "system.rank: a non-negative integer expected"),
])
def test_malformed_system_is_refused_by_name(capsys, tmp_path, system, field):
    """A system document that is not an object, names an unknown kind, or
    gives an induced or trivial system fields of the wrong type is refused
    with the field it gets wrong, not as AttributeError, KeyError, TypeError
    or ValueError."""
    from schemoids.fincat import serialize
    cf = write(tmp_path, "z2.json", serialize(one_object_group(*cyclic_group_table(2)).base))
    code, out = run_json(capsys, "cohomology", cf, write(tmp_path, "sys.json", system))
    assert code == 1 and out["error"] == "MalformedDocument"
    assert out["message"].startswith(field)


@pytest.mark.parametrize("functor, field", [
    ({"objects": [], "morphisms": 3}, "functor.objects: a JSON object expected, not list"),
    ({"objects": {}, "morphisms": 3}, "functor.morphisms: a JSON object expected, not int"),
    ([], "functor: a JSON object expected, not list"),
], ids=["list-objects", "int-morphisms", "not-an-object"])
def test_malformed_functor_is_refused_by_name(capsys, tmp_path, functor, field):
    """`admissible` with a functor document of the wrong shape is refused
    with the field it gets wrong, not as AttributeError."""
    code, bundle = run_json(capsys, "examples", "ex2_8")
    bf = write(tmp_path, "bundle.json", bundle)
    code, out = run_json(capsys, "admissible", bf, bf, write(tmp_path, "functor.json", functor))
    assert code == 1 and out["error"] == "MalformedDocument"
    assert out["message"].startswith(field)


def test_extension_over_the_budget_is_refused(capsys, tmp_path):
    """`extend` with the trivial rank-12 system over Z/6 on Z/2 exits 1 as
    ExtensionTooLarge, naming the total's morphisms and composites."""
    from schemoids.fincat import serialize
    cf = write(tmp_path, "z2.json", serialize(one_object_group(*cyclic_group_table(2)).base))
    sf = write(tmp_path, "sys.json", {"kind": "trivial", "modulus": 6, "rank": 12})
    code, out = run_json(capsys, "extend", cf, sf, write(tmp_path, "zero.json", {"entries": []}))
    assert code == 1 and out["error"] == "ExtensionTooLarge"
    assert f"{2 * 6 ** 12} morphisms and {4 * 6 ** 24} composites" in out["message"]


@pytest.mark.parametrize("field, value, message", [
    ("cocycle", {"entries": 5}, "cocycle.entries: a JSON array expected, not int"),
    ("cocycle", {"entries": [["a"]]}, "cocycle.entries[0]: [f, g, vector] expected"),
    ("system", None, "system: missing from the extension document"),
    ("push", 5, "system.push: a JSON array expected, not int"),
], ids=["entries-int", "short-entry", "no-system", "push-int"])
def test_extension_document_of_wrong_shape_is_refused_by_name(capsys, tmp_path, field, value,
                                                             message):
    """`split` of the ex5_10_e0 document with one field broken is refused
    with the field it gets wrong, not as TypeError, ValueError or KeyError;
    `push` is broken in the document's system written out explicitly."""
    code, doc = run_json(capsys, "examples", "ex5_10_e0")
    if field == "push":
        doc["system"] = cli.system_to_json(cli.extension_from_json(doc).system)
        doc["system"]["push"] = value
    elif value is None:
        del doc[field]
    else:
        doc[field] = value
    code, out = run_json(capsys, "split", write(tmp_path, "ext.json", doc))
    assert code == 1 and out["error"] == "MalformedDocument"
    assert out["message"].startswith(message)


@pytest.mark.parametrize("table, field", [
    ({"elements": ["0", "1"], "table": [["0", "1"]]}, "table: 2 rows of 2 entries"),
    ({"elements": ["0", "1"], "table": [["0", "1"], ["1"]]}, "table: 2 rows of 2 entries"),
    ({"elements": ["0"], "table": ["0"]}, "table: 1 rows of 1 entries"),
    ({"elements": ["0"]}, "table: 1 rows of 1 entries"),
    ({"elements": 3, "table": []}, "elements: a JSON array expected, not int"),
    ([["0"]], "group table: a JSON object expected, not list"),
], ids=["one-row", "short-row", "flat-rows", "no-table", "int-elements", "not-an-object"])
def test_group_table_of_wrong_shape_is_refused_by_name(capsys, tmp_path, table, field):
    """A group table whose rows do not match its elements is refused with
    the field it gets wrong, not as IndexError or TypeError."""
    code, out = run_json(capsys, "gen", "group-scheme", write(tmp_path, "table.json", table))
    assert code == 1 and out["error"] == "MalformedDocument"
    assert out["message"].startswith(field)


@pytest.mark.parametrize("scheme, field", [
    ({"relations": []}, "size: an integer expected, not NoneType"),
    ({"size": 2, "relations": 7}, "relations: an array of arrays of integers expected"),
    ({"size": 2, "relations": [[0, 1], [1, "0"]]}, "relations: an array of arrays of integers"),
    ({"size": 2, "relations": [[0, 1], [1, 0]], "points": 5}, "points: a JSON array expected"),
    ([2], "scheme: a JSON object expected, not list"),
], ids=["no-size", "int-relations", "string-entry", "int-points", "not-an-object"])
def test_scheme_document_of_wrong_shape_is_refused_by_name(capsys, tmp_path, scheme, field):
    """`embed-scheme` on a scheme document with a field missing or of the
    wrong type is refused with the field it gets wrong, not as KeyError or
    TypeError."""
    code, out = run_json(capsys, "embed-scheme", write(tmp_path, "scheme.json", scheme))
    assert code == 1 and out["error"] == "MalformedDocument"
    assert out["message"].startswith(field)


def test_scheme_over_the_budget_is_refused_before_the_tally(capsys, tmp_path):
    """A scheme on more than 128 points (N^3 > 2^21) is refused as
    SizeLimit before its relations are read; H(7,2), N = 128, is admitted,
    by `embed-scheme` and by `gen hamming` alike, and H(8,2) by neither."""
    from schemoids.schemes import SCHEME_BUDGET, SizeLimit, validate_scheme
    assert 128 ** 3 == SCHEME_BUDGET
    code, out = run_json(capsys, "embed-scheme",
                         write(tmp_path, "scheme.json", {"size": 129, "relations": []}))
    assert code == 1 and out["error"] == "SizeLimit"
    assert "129^3 point triples" in out["message"]
    with pytest.raises(SizeLimit):
        validate_scheme(129, [[0] * 129] * 129)
    code, out = run_json(capsys, "gen", "hamming", "7", "2")
    assert code == 0 and out["size"] == 128
    code, out = run_json(capsys, "gen", "hamming", "8", "2")
    assert code == 1 and out["error"] == "SizeLimit"


@pytest.mark.parametrize("change, field", [
    (lambda d: d.pop("partition"), "partition: missing from the bundle"),
    (lambda d: d.pop("category"), "category: missing from the bundle"),
    (lambda d: d.update(partition={"blocks": 5}), "partition.blocks: an object of arrays"),
    (lambda d: d.update(partition=[]), "partition: a JSON object expected, not list"),
    (lambda d: d["partition"]["blocks"].update(R0="x"), "partition.blocks: an object of arrays"),
    (lambda d: d.update(base_points=5), "base_points: a JSON array expected, not int"),
], ids=["no-partition", "no-category", "int-blocks", "list-partition", "string-block",
        "int-base-points"])
def test_bundle_of_wrong_shape_is_refused_by_name(capsys, tmp_path, change, field):
    """`analyze` on the j(H(1,2)) bundle with one field missing or of the
    wrong type is refused with the field it gets wrong, not as KeyError,
    AttributeError or TypeError."""
    from schemoids.schemes import hamming, j_embed
    bundle = cli.bundle_to_json(j_embed(hamming(1, 2)))
    change(bundle)
    code, out = run_json(capsys, "analyze", write(tmp_path, "bundle.json", bundle))
    assert code == 1 and out["error"] == "MalformedDocument"
    assert out["message"].startswith(field)


def test_category_field_of_wrong_type_is_refused_by_name(capsys, tmp_path):
    raw = {"objects": ["x"], "morphisms": 5, "identities": {"x": "1"}, "compose": []}
    for doc, message in ((raw, "morphisms: a JSON array expected, not int"),
                         ([raw], "category: a JSON object expected, not list")):
        code, out = run_json(capsys, "validate", write(tmp_path, "category.json", doc))
        assert code == 1 and out["error"] == "CategoryError" and out["message"] == message


def test_compose_entry_that_is_no_triple_is_refused_by_name(capsys, tmp_path):
    raw = {"objects": ["x"], "morphisms": [{"id": "1", "src": "x", "tgt": "x"}],
           "identities": {"x": "1"}}
    for compose, message in (([["1", "1"]], "compose[0]: a JSON array [f, g, fg] expected, "
                                             "not 2 entries"),
                             ([["1", "1", "1"], 5],
                              "compose[1]: a JSON array [f, g, fg] expected, not int")):
        doc = {**raw, "compose": compose}
        code, out = run_json(capsys, "validate", write(tmp_path, "category.json", doc))
        assert code == 1 and out["error"] == "CategoryError" and out["message"] == message


def test_bundle_scans_read_the_rows_not_the_labelled_view():
    """Decoding, analysing and tabulating a j(H(3,2)) bundle, and comparing
    two categories, never build the label-keyed `compose` view."""
    from schemoids.fincat import validate_category
    from schemoids.schemes import hamming, j_embed
    bundle = cli.bundle_to_json(j_embed(hamming(3, 2)))
    qs = cli.bundle_from_json(bundle)
    report = cli.analysis_report(qs)
    assert report["unique_factorization"] and report["basic"]
    assert cli.constants_to_json(qs)["p"]
    other = validate_category(bundle["category"])
    assert other == qs.category and other is not qs.category
    assert "compose" not in qs.category.__dict__ and "compose" not in other.__dict__


def test_thicken_cli(capsys, tmp_path):
    code, scheme = run_json(capsys, "gen", "hamming", "2", "2")
    sf = write(tmp_path, "scheme.json", scheme)
    code, bundle = run_json(capsys, "thicken", sf, "--z", "1")
    assert code == 0
    assert len(bundle["category"]["morphisms"]) == 20
    assert "involution" in bundle
    code, bundle2 = run_json(capsys, "thicken", sf, "--z", "1,2,1")
    assert code == 0 and "involution" not in bundle2
    mf = write(tmp_path, "mat.json", [[2, 1], [1, 2]])
    code, bundle3 = run_json(capsys, "thicken", "--matrix", mf, "--residual", "lump")
    assert code == 0 and len(bundle3["category"]["morphisms"]) == 6


def test_examples_listing_and_window(capsys):
    code, listing = run_json(capsys, "examples", "--list")
    assert code == 0 and "ex2_8" in listing["examples"]
    assert len(listing["examples"]) >= 10
    code, bundle = run_json(capsys, "examples", "ex2_11", "--window", "2")
    assert code == 0
    assert len(bundle["category"]["objects"]) == 10
    code, bundle = run_json(capsys, "examples", "ex2_11", "--window", "1000")
    assert code == 0 and len(bundle["category"]["objects"]) == 4002


def test_window_out_of_range_is_refused_by_the_library():
    """The library refuses a radius outside 1..1000 before building, as a
    bad argument, not as a verdict on a built schemoid; the CLI's type
    reads the same bound."""
    from schemoids import corpus
    for k in (0, 1001):
        with pytest.raises(ValueError, match=f"window radius {k} is not in 1..1000"):
            corpus.build("ex2_11", window=k)
    assert cli.window("1000") == 1000


def test_selftest(capsys):
    code, out = run_json(capsys, "selftest")
    assert code == 0 and out["failures"] == {}


def outputs(capsys, argv):
    """Exit code, stdout and stderr of one call, usage errors included."""
    try:
        code = cli.run(list(argv))
    except SystemExit as err:
        code = err.code
    out, err = capsys.readouterr()
    return code, out, err


def test_reused_parser_keeps_no_state(capsys, tmp_path, monkeypatch):
    """The parser is built once per process, and a call made after another
    one gives the output it gives with a parser of its own: options, their
    defaults and a usage error do not carry over."""
    assert cli.build_parser() is cli.build_parser()
    code, scheme = run_json(capsys, "gen", "hamming", "2", "2")
    code, bundle = run_json(capsys, "embed-scheme", write(tmp_path, "scheme.json", scheme))
    bf = write(tmp_path, "bundle.json", bundle)
    from schemoids.fincat import serialize
    cf = write(tmp_path, "z2cat.json", serialize(one_object_group(*cyclic_group_table(2)).base))
    sf = write(tmp_path, "sys.json", {"kind": "trivial", "modulus": 2, "rank": 1})
    pairs = [
        (["algebra", bf, "--ring", "F2"], ["algebra", bf]),
        (["cohomology", cf, sf, "--degree", "1"], ["cohomology", cf, sf]),
        (["--pretty", "examples", "ex2_8"], ["examples", "ex2_8"]),
        (["examples", "ex2_11", "--window", "2"], ["examples", "ex2_11"]),
        (["algebra", bf, "--no-such-flag"], ["algebra", bf]),
    ]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        alone = {tuple(argv): outputs(capsys, argv) for pair in pairs for argv in pair}
    assert alone[tuple(pairs[-1][0])][0] == 2
    for first, second in pairs:
        assert alone[tuple(first)] != alone[tuple(second)]
        assert outputs(capsys, first) == alone[tuple(first)]
        assert outputs(capsys, second) == alone[tuple(second)]


def test_refusals_print_their_witness(capsys, tmp_path):
    """A refusal that names where a law fails prints that witness, as JSON
    lists, beside its class and message: `validate` of a non-associative
    table, `analyze` of a bundle with one morphism moved to another block."""
    from schemoids.fincat import NonAssociative, validate_category
    from schemoids.schemoid import AxiomViolation

    loop = {"objects": ["*"], "morphisms": [{"id": m, "src": "*", "tgt": "*"} for m in "1ab"],
            "identities": {"*": "1"},
            "compose": [["1", m, m] for m in "1ab"] + [[m, "1", m] for m in "ab"]
            + [["a", "a", "b"], ["a", "b", "a"], ["b", "a", "a"], ["b", "b", "a"]]}
    code, scheme = run_json(capsys, "gen", "hamming", "2", "2")
    code, bundle = run_json(capsys, "embed-scheme", write(tmp_path, "scheme.json", scheme))
    blocks = bundle["partition"]["blocks"]
    blocks["R2"].append(blocks["R1"].pop())
    del bundle["involution"]
    for cmd, raw, decode, cls in (("validate", loop, validate_category, NonAssociative),
                                  ("analyze", bundle, cli.bundle_from_json, AxiomViolation)):
        with pytest.raises(cls) as err:
            decode(raw)
        code, out = run_json(capsys, cmd, write(tmp_path, f"{cmd}.json", raw))
        assert code == 1 and out["error"] == cls.__name__ and out["message"] == str(err.value)
        assert out["witness"] == json.loads(json.dumps(err.value.witness))


def test_unreadable_inputs_are_refused_by_their_class(capsys, tmp_path):
    """Whatever `load` raises refuses the input, named by the class raised."""
    cases = [(["analyze", "-"], "{not json", "JSONDecodeError"),
             (["analyze", str(tmp_path / "missing.json")], "", "FileNotFoundError"),
             (["embed-scheme", "-"], "[]", "MalformedDocument"),
             (["gen", "orbits", "-"], '{"perms": []}', "MalformedDocument"),
             (["gen", "group-scheme", "-"], '{"elements": 3}', "MalformedDocument"),
             (["examples", "no_such_example"], "", "KeyError")]
    for argv, stdin, name in cases:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sys, "stdin", io.StringIO(stdin))
            code, out = run_json(capsys, *argv)
        assert code == 1 and out["error"] == name and "witness" not in out, argv


@pytest.mark.parametrize("argv, doc, name, message", [
    (["gen", "orbits"], {"perms": 5, "size": 2}, "MalformedDocument", "perms: "),
    (["gen", "orbits"], {"perms": [[0, "1"]], "size": 2}, "MalformedDocument", "perms: "),
    (["gen", "orbits"], {"perms": [[0, 1]], "size": "x"}, "MalformedDocument", "size: "),
    (["gen", "orbits"], {"perms": []}, "MalformedDocument", "size: "),
    (["gen", "orbits"], [], "MalformedDocument", "group: "),
    (["validate"], 5, "CategoryError", "category: a JSON object expected, not int"),
    (["validate"], [], "CategoryError", "category: a JSON object expected, not list"),
])
def test_documents_of_the_wrong_shape_are_refused_by_name(capsys, tmp_path, argv, doc, name, message):
    """A permutation group whose perms or size has the wrong type, or a
    document to validate that is no JSON object, is refused by name."""
    code, out = run_json(capsys, *argv, write(tmp_path, "doc.json", doc))
    assert code == 1 and out["error"] == name and out["message"].startswith(message)


def motivation_probe(tmp_path, probe):
    """argv and stdin of one probe of a document whose shape was read
    wrongly before shapes.py: crashed as KeyError, AttributeError or
    TypeError, or was coerced and answered with exit 0."""
    from schemoids.bridges import s_tilde
    from schemoids.extensions import trivial_system
    from schemoids.fincat import serialize
    z2 = one_object_group(*cyclic_group_table(2))
    category = serialize(z2.base)
    bundle = cli.bundle_to_json(s_tilde(z2))
    if probe in ("no-inverse", "int-inverse"):
        doc = category if probe == "no-inverse" else {**category, "inverse": 5}
        return ["from-groupoid", "-"], json.dumps(doc)
    if probe in ("int-matrix", "float-matrix"):
        return ["thicken", "--matrix", "-"], "5" if probe == "int-matrix" else "[[2.5]]"
    if probe == "string-contravariant":
        bundle["involution"]["contravariant"] = "no"
        return ["analyze", "-"], json.dumps(bundle)
    system = cli.system_to_json(trivial_system(z2.base, 2))
    system["ranks"]["1"] = "1"
    return ["cohomology", write(tmp_path, "z2.json", category), "-"], json.dumps(system)


@pytest.mark.parametrize("probe, message", [
    ("no-inverse", "inverse: a JSON object expected, not NoneType"),
    ("int-inverse", "inverse: a JSON object expected, not int"),
    ("int-matrix", "matrix: an array of arrays of integers expected, not int"),
    ("float-matrix", "matrix: an array of arrays of integers expected; "
                     "matrix[0][0]: an integer expected, not float"),
    ("string-contravariant", "involution.contravariant: a boolean expected, not str"),
    ("string-rank", "system.ranks.1: a non-negative integer expected, not str"),
], ids=["no-inverse", "int-inverse", "int-matrix", "float-matrix", "string-contravariant",
        "string-rank"])
def test_documents_read_wrongly_before_are_refused_by_name(capsys, tmp_path, probe, message):
    """A groupoid with no inverse or an integer for it, a hom-count matrix
    that is an integer or holds 2.5, a bundle whose involution says
    "contravariant": "no", and an explicit system with the rank "1" are
    each refused as MalformedDocument naming the field."""
    argv, stdin = motivation_probe(tmp_path, probe)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stdin", io.StringIO(stdin))
        code, out = run_json(capsys, *argv)
    assert code == 1 and out["error"] == "MalformedDocument" and out["message"] == message


def test_a_decoders_own_error_exits_3(capsys, tmp_path, monkeypatch):
    """A TypeError raised while decoding a well-formed document is the
    program's own error, not a refused input."""
    from schemoids.bridges import s_tilde

    def broken(*args):
        raise TypeError("a bug")
    bf = write(tmp_path, "bundle.json",
               cli.bundle_to_json(s_tilde(one_object_group(*cyclic_group_table(2)))))
    monkeypatch.setattr(cli, "verify_quasi_schemoid", broken)
    code, out, err = outputs(capsys, ["analyze", bf])
    assert code == 3 and out == "" and "TypeError: a bug" in err


def z2_bundle(identities):
    """Z/2 on one object x (a∘a = 1), one block {1, a}."""
    return {"category": {"objects": ["x"],
                         "morphisms": [{"id": m, "src": "x", "tgt": "x"} for m in "1a"],
                         "identities": identities, "compose": [["a", "a", "1"]]},
            "partition": {"blocks": {"B": ["1", "a"]}}}


def test_identity_key_that_is_no_object_is_refused_by_analyze(capsys, tmp_path):
    """With the key "ghost" kept, `analyze` counted a among the identities
    and reported the one-block Z/2 unital and basic."""
    code, out = run_json(capsys, "analyze", write(tmp_path, "z2.json", z2_bundle({"x": "1"})))
    assert code == 0 and out["unital"] is False and out["basic"] is False
    code, out = run_json(capsys, "analyze",
                         write(tmp_path, "ghost.json", z2_bundle({"x": "1", "ghost": "a"})))
    assert code == 1 and out["error"] == "CategoryError"
    assert out["message"] == "identities: 'ghost' is not an object"


def test_scheme_with_a_duplicate_class_name_is_refused_by_embed_scheme(capsys, tmp_path):
    scheme = {"size": 4, "relations": [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]],
              "classes": ["D", "R", "R"]}
    code, out = run_json(capsys, "embed-scheme", write(tmp_path, "scheme.json", scheme))
    assert code == 1 and out["error"] == "SchemeError"
    assert out["message"] == "duplicate class name 'R'"


@pytest.mark.parametrize("argv", [
    ["thicken"],
    ["thicken", "@scheme", "--matrix", "@matrix"],
    ["thicken", "@scheme", "--z", "abc"],
    ["examples", "ex2_8", "--window", "2"],
    ["examples", "--window", "2"],
    ["examples", "ex2_11", "--window", "0"],
    ["examples", "ex2_11", "--window", "-1"],
    ["examples", "ex2_11", "--window", "1001"],
    ["examples", "ex2_11", "--window", "100000"],
    ["examples", "ex2_8", "--list"],
])
def test_argument_misuse_is_a_usage_error(capsys, tmp_path, argv):
    files = {"@scheme": write(tmp_path, "scheme.json", {"kind": "scheme", "size": 1}),
             "@matrix": write(tmp_path, "matrix.json", [[2]])}
    code, out, err = outputs(capsys, [files.get(a, a) for a in argv])
    assert code == 2 and out == "" and "usage:" in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        cli.run(["no-such-command"])
    assert err.value.code == 2


def test_json_flag_removed():
    with pytest.raises(SystemExit) as err:
        cli.run(["--json", "examples", "--list"])
    assert err.value.code == 2


def test_seed_flag_removed():
    with pytest.raises(SystemExit) as err:
        cli.run(["--seed", "3", "examples", "--list"])
    assert err.value.code == 2
