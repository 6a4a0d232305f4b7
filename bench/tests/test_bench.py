"""Tests of the benchmark itself; none of them looks at a timing.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench                                           # noqa: E402
from tracer import Span, Tracer, per_layer_names, self_times   # noqa: E402
from workloads import Cli, Job, canonical, steps_answer      # noqa: E402

# Jobs that take more than about a quarter of a second at the seed commit;
# the reproduction test below skips them to stay quick.
SLOW = ("hamming-4-2", "cyclic-16", "cyclic-13", "discrete-jZ3-Q", "cohomology-jZ4",
        "cohomology-jH32", "verify-sc2_h22", "equivalent-e0-e1")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- output schema -----------------------------------------------------------

@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_schema(trace, section):
    out = run_bench("--workload", "corpus", "--seed", "3", "--seconds", "1",
                    "--trace", str(trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec()[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_declared_metrics_match_the_code():
    s = spec()
    assert [m["name"] for m in s["per_layer"]] == per_layer_names()
    assert {m["name"] for m in s["end_to_end"]} == set(bench.END_TO_END)
    assert {w["name"] for w in s["workloads"]} == {"embed", "algebra", "cohomology", "corpus"}


def test_refuses_without_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own files,
    the run fails without printing a result."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# -- frozen reference --------------------------------------------------------

@pytest.mark.parametrize("workload", ["embed", "algebra", "cohomology", "corpus"])
def test_reference_hashes_reproduce(workload, tmp_path):
    _, _, _, jobs = bench.set_up(workload, 11, str(tmp_path))
    jobs = [job for job in jobs if not job.id.startswith(SLOW)]
    _, answers = bench.run_pass(jobs)
    assert bench.check(jobs, answers, bench.load_reference(workload)) == []


# -- failure accounting ------------------------------------------------------

def reference_for(job, answer):
    return {job.id: bench.answer_hash(canonical(job.canon(answer)))}


def test_wrong_answer_is_a_failure():
    job = Job("j", lambda: {"dimension": 35}, lambda raw: raw)
    _, answers = bench.run_pass([job])
    assert bench.check([job], answers, reference_for(job, {"dimension": 35})) == []
    assert bench.check([job], answers, reference_for(job, {"dimension": 34})) == ["j"]


def test_relative_times_cover_every_job():
    jobs = [Job(name, lambda: {"dimension": 1}, lambda raw: raw) for name in ("a", "b", "c")]
    rel = {}
    times, _ = bench.run_pass(jobs, rel=rel)
    assert rel.keys() == times.keys() and all(v > 0 for v in rel.values())


def test_unexpected_exception_is_a_failure():
    def crash():
        raise TypeError("internal bug")
    refused = Job("r", crash, lambda raw: raw, refusal="NotACocycle")
    _, answers = bench.run_pass([refused])
    reference = {"r": bench.answer_hash({"raised": "NotACocycle"})}
    assert bench.check([refused], answers, reference) == ["r"]


def test_internal_error_reported_as_exit_1_is_a_failure():
    """cli.run turns any exception into exit 1; only the error class tells a
    refusal from a bug."""
    def fake_run(argv):
        print(json.dumps({"error": "TypeError", "message": "boom"}))
        return 1
    cli = Cli(types.SimpleNamespace(cli=types.SimpleNamespace(run=fake_run)))
    job = Job("moved", lambda: {"cli": cli(["analyze", "-"], "{}")}, steps_answer,
              "AxiomViolation")
    _, answers = bench.run_pass([job])
    expected = {"cli": {"exit": 1, "out": {"error": "AxiomViolation"}}}
    assert bench.check([job], answers, {"moved": bench.answer_hash(canonical(expected))}) == ["moved"]


def test_ordering_change_is_not_a_new_answer():
    a = {"blocks": {"R1": ["x", "y"]}, "compose": [["f", "g", "h"], ["g", "f", "k"]]}
    b = {"compose": [["g", "f", "k"], ["f", "g", "h"]], "blocks": {"R1": ["y", "x"]}}
    assert bench.answer_hash(canonical(a)) == bench.answer_hash(canonical(b))
    swapped = {"blocks": {"R1": ["x", "y"]}, "compose": [["g", "f", "h"], ["f", "g", "k"]]}
    assert bench.answer_hash(canonical(a)) != bench.answer_hash(canonical(swapped))


# -- tracer --------------------------------------------------------------------

def test_self_time_on_synthetic_tree():
    spans = [
        Span("cli.run", "cli", 0.0, 10.0, -1, "j"),
        Span("fincat.validate_category", "fincat", 1.0, 4.0, 0, "j"),
        Span("schemoid.verify_quasi_schemoid", "schemoid", 5.0, 8.0, 0, "j", refused=True),
        Span("fincat.build_category", "fincat", 2.0, 3.0, 1, "j"),
        Span("linalg.rank_mod_p", "linalg", 6.0, 7.5, 2, "j"),
        Span("linalg.rank_mod_p", "linalg", 7.0, 9.0, 2, "j"),   # overlaps, clipped at 8
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 1.0, 1.5, 2.0])
    tracer = Tracer(lib=None)
    tracer.spans.extend(spans)
    m = tracer.metrics({})
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["fincat.self_s"] == pytest.approx(3.0) and m["fincat.calls"] == 2
    assert m["schemoid.refused"] == 1 and m["linalg.rank_s"] == pytest.approx(3.5)
    assert all(m[f"{layer}.calls"] == 0 for layer in ("bridges", "thicken", "corpus"))


def test_tracer_wraps_imported_names_and_restores(tmp_path):
    lib, modules = bench.import_package()
    original = lib.schemes.build_category
    tracer = Tracer(lib)
    tracer.install(modules)
    try:
        assert lib.schemes.build_category is not original          # from .fincat import ...
        assert lib.schemes.build_category is lib.fincat.build_category
        lib.schemes.j_embed(lib.schemes.hamming(2, 2))
        with pytest.raises(lib.schemes.SchemeError):
            lib.schemes.hamming(0, 2)
    finally:
        tracer.uninstall()
    assert lib.schemes.build_category is original
    names = [s.name for s in tracer.spans]
    assert "schemes.j_embed" in names and "fincat.build_category" in names
    assert "schemes.pair_morphism" not in names
    parent = {s.name: tracer.spans[s.parent].name for s in tracer.spans if s.parent >= 0}
    assert parent["fincat.build_category"] == "schemes.j_embed"
    m = tracer.metrics({})
    assert m["schemes.refused"] == 1
    assert m["fincat.morphisms"] == 16 and m["fincat.pairs"] == 64 and m["fincat.triples"] == 256
    assert m["schemes.points"] == 8                               # hamming(2,2) and j_embed
    assert set(per_layer_names()) - set(m) == {"trace.overhead_frac"}
