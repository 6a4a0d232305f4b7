"""Benchmark of the schemoids checker: one workload per run, closed loop, one client.

    python3 bench/run.py --workload embed --seed 1 --seconds 25 --trace 0

A single process and a single thread run the workload's job list; each job
starts when the previous one has finished.  Set-up (import of the package
from ``src/`` and building the inputs) is repeated SETUP_REPS times and its
median reported as ``setup_s``, in seconds at the reference routine's
nominal speed (see below).  Passes over the job list then repeat while
the next one is expected to end within ``--seconds``: the first pass warms
up and is not timed, and at least one timed pass follows.  The seed picks
the job order of every pass.  Job times are reported relative to the fixed
routine in ``reference_work.py``, timed around every job, so that they do
not follow the shared host's speed; a job's time to a verdict is its median
over the timed passes.  Every job's canonical answer, in every pass, is
hashed and compared with ``bench/reference.json``.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
one untraced pass is followed by one pass with the outside-in tracer
installed, and the per-layer metrics are reported.  The last line of
standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
TAIL_BEYOND = 10        # samples required beyond the reported tail percentile

sys.path.insert(0, str(HERE))

from reference_work import SLICE_NOMINAL_S, slice_s   # noqa: E402
from tracer import LAYERS, PACKAGE, Tracer, unit   # noqa: E402
from workloads import WORKLOADS, Cli, WorkDir, canonical   # noqa: E402

END_TO_END = {"setup_s": "s", "pass_ref": "ref", "job_p50_ref": "ref", "job_tail_ref": "ref",
              "peak_rss_mb": "MB"}


class Raised:
    """A job that raised instead of returning; its class is its answer."""

    def __init__(self, err: BaseException):
        self.name = type(err).__name__
        self.traceback = traceback.format_exc()


def import_package():
    """Import the package afresh from the checkout's ``src``."""
    init = ROOT / "src" / PACKAGE / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: {init} not found; run from a checkout of the repository")
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported {pkg.__file__}, expected {init}")
    lib = types.SimpleNamespace(**{layer: importlib.import_module(f"{PACKAGE}.{layer}")
                                   for layer in LAYERS})
    modules = [m for n, m in sorted(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    return lib, modules


def set_up(workload: str, seed: int, workdir: str):
    """Import the package and build the workload's jobs in pass order."""
    lib, modules = import_package()
    rng = random.Random(seed)
    cli = Cli(lib)
    jobs = WORKLOADS[workload](lib, rng, WorkDir(workdir, cli))
    rng.shuffle(jobs)
    return lib, modules, cli, jobs


def run_pass(jobs, tracer=None, rel=None):
    """One pass over the job list: each job's run time and raw answer.

    Each run starts from an empty young generation, as a fresh CLI process
    would, so that its garbage-collection cost does not depend on which jobs
    the seed placed before it.  Run times exclude that reset.

    If `rel` is a dict, the reference routine is timed before the first job
    and after every job, and `rel` receives each job's time divided by the
    mean of the reference slices just before and just after it.
    """
    clock = time.perf_counter
    times, answers = {}, {}
    before = slice_s() if rel is not None else None
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        gc.collect()
        t0 = clock()
        try:
            raw = job.run()
        except Exception as err:   # a crash or a refusal is an answer to compare
            raw = Raised(err)
        times[job.id] = clock() - t0
        answers[job.id] = raw
        if tracer is not None:
            tracer.flush()
        if rel is not None:
            after = slice_s()
            rel[job.id] = times[job.id] / ((before + after) / 2)
            before = after
    return times, answers


def canonical_answer(job, raw):
    if isinstance(raw, Raised):
        return {"raised": raw.name}
    return canonical(job.canon(raw))


def answer_hash(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def check(jobs, answers, reference: dict) -> list[str]:
    """Ids of the jobs whose canonical answer differs from the reference."""
    failed = []
    for job in jobs:
        raw = answers[job.id]
        try:
            got = answer_hash(canonical_answer(job, raw))
        except Exception:        # an answer of the wrong shape is a wrong answer
            got = None
        if got != reference.get(job.id):
            failed.append(job.id)
            detail = raw.traceback if isinstance(raw, Raised) else f"hash {got}"
            print(f"bench: job {job.id} answered wrongly: {detail}", file=sys.stderr)
    return failed


def tail(values: list[float]):
    """Value at the highest percentile with TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond)."""
    ordered = sorted(values)
    i = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def load_reference(workload: str) -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["jobs"][workload]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    try:
        setups, before = [], slice_s()       # (seconds, relative to the reference) per set-up
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            lib, modules, cli, jobs = set_up(args.workload, args.seed, str(workdir))
            raw = time.perf_counter() - t0
            after = slice_s()
            setups.append((raw, raw / ((before + after) / 2)))
            before = after
        gc.collect()
        gc.freeze()      # the inputs stay alive all run; keep them out of every collection
        reference = load_reference(args.workload)
        missing = sorted(set(reference) - {job.id for job in jobs})
        if args.trace:
            result = traced_run(args, lib, modules, cli, jobs, reference, out_dir)
        else:
            result = timed_run(args, jobs, reference, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for job_id in missing:
        print(f"bench: reference job {job_id} was not run", file=sys.stderr)
    result["correct"] = result["failed"] == 0 and not missing
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def timed_run(args, jobs, reference, setups) -> dict:
    order = random.Random(args.seed)
    per_job = {job.id: [] for job in jobs}      # time / reference slice, per timed pass
    raw_job = {job.id: [] for job in jobs}      # seconds, per timed pass
    passes, failed = -1, 0                      # the first pass warms up
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rel = {}
        times, answers = run_pass(jobs, rel=rel)
        wall = time.perf_counter() - t0
        failed += len(check(jobs, answers, reference))
        passes += 1
        if passes:
            for job_id in per_job:
                per_job[job_id].append(rel[job_id])
                raw_job[job_id].append(times[job_id])
        if passes and time.perf_counter() - start + wall > args.seconds:
            break
        order.shuffle(jobs)
    job_rel = [statistics.median(v) for v in per_job.values()]
    job_s = [statistics.median(v) for v in raw_job.values()]
    tail_rel, tail_pct, beyond = tail(job_rel)
    attempted = len(jobs) * (passes + 1)
    metrics = {
        "setup_s": statistics.median(r for _, r in setups) * SLICE_NOMINAL_S,
        "pass_ref": sum(job_rel),
        "job_p50_ref": statistics.median(job_rel),
        "job_tail_ref": tail_rel,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    seconds = {"setup_s": statistics.median(raw for raw, _ in setups), "pass_ref": sum(job_s), "job_p50_ref": statistics.median(job_s),
               "job_tail_ref": tail(job_s)[0]}
    print(f"workload {args.workload}  seed {args.seed}  timed passes {passes}  jobs {len(jobs)}  "
          f"python {sys.version.split()[0]}  nproc {os.cpu_count()}")
    for name, value in metrics.items():
        note = ""
        if name in seconds:
            note = f"  ({seconds[name]:.4f} s measured)"
        if name == "job_tail_ref":
            note += f"  (p{tail_pct:.1f} of {len(jobs)} jobs, {beyond} beyond)"
        print(f"  {name:12s} {value:12.6f} {END_TO_END[name]}{note}")
    print(f"  {'failed_frac':12s} {failed / attempted:12.6f}    ({failed} of {attempted} jobs)")
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}


def traced_run(args, lib, modules, cli, jobs, reference, out_dir) -> dict:
    plain, traced = {}, {}
    times, answers = run_pass(jobs, rel=plain)
    plain_s = sum(times.values())
    failed = len(check(jobs, answers, reference))
    tracer = Tracer(lib)
    cli.bytes_in = cli.bytes_out = 0
    tracer.install(modules)
    try:
        times, answers = run_pass(jobs, tracer, rel=traced)
    finally:
        tracer.uninstall()
    traced_s = sum(times.values())
    failed += len(check(jobs, answers, reference))
    values = tracer.metrics({"cli.bytes_in": cli.bytes_in, "cli.bytes_out": cli.bytes_out,
                             "trace.overhead_frac": sum(traced.values()) / sum(plain.values()) - 1})
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    print(f"workload {args.workload}  seed {args.seed}  traced pass {traced_s:.3f} s  "
          f"untraced pass {plain_s:.3f} s  spans {len(tracer.spans)} -> {spans_path}")
    for layer in LAYERS:
        print(f"  {layer:11s} self {values[layer + '.self_s']:9.4f} s  "
              f"calls {values[layer + '.calls']:7d}  refused {values[layer + '.refused']:4d}")
    metrics = {name: {"value": value, "unit": unit(name)} for name, value in values.items()}
    return {"attempted": 2 * len(jobs), "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
