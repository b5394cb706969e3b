#!/usr/bin/env python3
"""dimsurgery benchmark: run one workload in-process through `dimsurgery.cli.main`.

    python3 perfbench/run.py --workload raise --seed 1 --seconds 25 --trace 0

Run from the repository root (the package is imported from `src/`).

Set-up: `setup_repeats` fresh interpreters each import `dimsurgery` and
generate the workload's input files with `dimsurgery gen`; `setup_s` is the
median of their wall times.  Measurement: the workload's job list is repeated
until `--seconds` have passed, each repetition starting with every
`functools.lru_cache` of the package emptied (as a fresh CLI process starts).
Every job's output is checked (see checks.py) and hashed; repetitions of one
seed must hash identically.

`--trace 0` prints the end-to-end metrics: wall_s and cpu_s (the sum over
the job list of each job's upper quartile over repetitions, see job_time),
setup_s and peak_rss_mb (ru_maxrss of this process).  `--trace 1` alternates
untraced and traced repetitions and prints the per-layer metrics of layers.py
(medians over traced repetitions) plus trace.overhead_s.  The last stdout line is the JSON
result; a fuller record (environment, per-job hashes and checks, per-span
totals, raw spans) goes to `<out-dir>/<workload>-trace<0|1>.json`.
"""

from __future__ import annotations

import os

# single-threaded BLAS/OpenMP: the load is this one process; set before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import check_job, output_hashes  # noqa: E402
from layers import per_layer_metrics  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402
from workloads import SCALES, WORKLOADS, build_workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE_TIMEOUT_S = 120
CODEBOOK_CACHE = "dimsurgery.surgery.quantizer_codebook"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=SCALES, default="full",
                   help="tiny shrinks every input; for the span-coverage test")
    p.add_argument("--out-dir", default=str(ROOT / ".perfbench_out"),
                   help="where the full run record is written")
    p.add_argument("--setup-only", metavar="WORKDIR", default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_cli():
    sys.path.insert(0, str(SRC))
    import dimsurgery.cli as cli
    return cli


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_probe(args) -> int:
    """Child-process set-up: import the package and generate the inputs."""
    cli = _import_cli()
    workload = build_workload(args.workload, args.seed, args.scale, args.setup_only)
    for spec in workload.inputs:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(spec.gen_argv(args.setup_only))
        if rc != 0:
            print(f"gen {spec.name} exited {rc}", file=sys.stderr)
            return 1
    return 0


def timed_setup(args, workdir: Path) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale,
           "--setup-only", str(workdir)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=PROBE_TIMEOUT_S, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def find_caches() -> dict:
    """Every lru_cache bound at module level anywhere in the package."""
    caches = {}
    for mod in package_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                caches.setdefault(id(value), (f"{value.__module__}.{value.__qualname__}",
                                              value))
    return dict(caches.values())


def run_job(cli, job):
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(job.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crashing job is a failed job, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), error


def run_rep(cli, workload, caches: dict, reference: dict, tracer=None) -> dict:
    """One cold-cache pass over the job list; checks run after the timing."""
    for cache in caches.values():
        cache.cache_clear()
    if any(cache.cache_info().currsize for cache in caches.values()):
        raise RuntimeError("package caches did not clear")
    gc.collect()
    raw = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for job in workload.jobs:
        before = {name: c.cache_info() for name, c in caches.items()}
        if tracer is not None:
            tracer.start_job(job.name)
        job_wall, job_cpu = time.perf_counter(), time.process_time()
        outcome = run_job(cli, job)
        job_wall = time.perf_counter() - job_wall
        job_cpu = time.process_time() - job_cpu
        if tracer is not None:
            tracer.stop_job()
        after = {name: c.cache_info() for name, c in caches.items()}
        raw.append((job, outcome, job_wall, job_cpu, before, after))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    jobs = []
    for job, (rc, stdout, stderr, error), job_wall, job_cpu, before, after in raw:
        problems, details = check_job(job, rc, stdout, error)
        hashes = output_hashes(job, stdout)
        if reference.setdefault(job.name, hashes) != hashes:
            problems.append("outputs differ from the first repetition of this seed")
        cache_use = {name: {"hits": after[name].hits - before[name].hits,
                            "misses": after[name].misses - before[name].misses}
                     for name in caches}
        jobs.append({"name": job.name, "argv": list(job.argv), "wall_s": job_wall,
                     "cpu_s": job_cpu, "rc": rc, "ok": not problems, "problems": problems,
                     "stderr": stderr[-2000:], "hashes": hashes,
                     "caches": cache_use, **details})
    return {"wall_s": wall, "cpu_s": cpu, "jobs": jobs}


def _rep_totals(workload, rep: dict) -> dict:
    searching = [j for j, spec in zip(rep["jobs"], workload.jobs)
                 if spec.kind == "surgery" and spec.strategy != "lower"]
    codebook = [j["caches"].get(CODEBOOK_CACHE, {"hits": 0, "misses": 0})
                for j in rep["jobs"]]
    return {"target_hits": sum(j.get("target_hits", 0) for j in searching),
            "target_rows": sum(j.get("chunks", 0) for j in searching),
            "codebook_hits": sum(c["hits"] for c in codebook),
            "codebook_misses": sum(c["misses"] for c in codebook)}


def measure(cli, workload, seconds: float, trace: bool):
    caches = find_caches()
    reference: dict = {}
    untraced, traced, layer_values, span_totals, raw_spans = [], [], [], [], []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    while True:
        untraced.append(run_rep(cli, workload, caches, reference))
        if trace:
            tracer.reset()
            tracer.install()
            try:
                rep = run_rep(cli, workload, caches, reference, tracer)
            finally:
                tracer.uninstall()
            traced.append(rep)
            spans = tracer.summary()
            span_totals.append(spans)
            layer_values.append(per_layer_metrics(spans, _rep_totals(workload, rep)))
            raw_spans.append(tracer.spans)
        if time.perf_counter() - start >= seconds:
            break
    return untraced, traced, layer_values, span_totals, raw_spans


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "git_commit": _git_commit(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "seed": workload.seed, "scale": workload.scale,
            "input_bits": workload.input_sizes()}


def upper_quartile(values) -> float:
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def job_time(reps: list, key: str) -> float:
    """Sum over the job list of each job's upper quartile over repetitions.

    On a shared host a job's time has a floor set by the dominant load and
    drops during faster phases; the upper quartile tracks that floor and reads
    steadier from run to run than the median of the same samples.
    """
    return sum(upper_quartile(rep["jobs"][i][key] for rep in reps)
               for i in range(len(reps[0]["jobs"])))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only is not None:
        return setup_probe(args)
    if not (SRC / "dimsurgery" / "__init__.py").is_file():
        print(f"perfbench: no dimsurgery sources under {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = build_workload(args.workload, args.seed, args.scale, str(workdir))
        setup_times = [timed_setup(args, workdir) for _ in range(workload.setup_repeats)]
        cli = _import_cli()
        untraced, traced, layer_values, span_totals, raw_spans = measure(
            cli, workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = untraced + traced
    attempted = sum(len(rep["jobs"]) for rep in reps)
    failed = sum(not job["ok"] for rep in reps for job in rep["jobs"])
    wall = job_time(untraced, "wall_s")
    if args.trace:
        overhead = job_time(traced, "wall_s") - wall
        metrics = {name: _metric(statistics.median(v[name][0] for v in layer_values), unit)
                   for name, (_value, unit, _better) in layer_values[0].items()}
        metrics["trace.overhead_s"] = _metric(overhead, "s")
    else:
        metrics = {
            "wall_s": _metric(wall, "s"),
            "cpu_s": _metric(job_time(untraced, "cpu_s"), "s"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(workload),
              "fail_ratio": failed / attempted, "setup_s": setup_times,
              "untraced": untraced, "traced": traced, "spans_by_rep": span_totals,
              "result": result}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(out_dir / f"{args.workload}-spans.jsonl", "w") as fh:
            for rep_index, spans in enumerate(raw_spans):
                for span in spans:
                    fh.write(json.dumps([rep_index, *span]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
