"""Span-coverage test for the benchmark: every workload at tiny scale, traced.

    python3 -m pytest perfbench -q

Checks that each span records calls on the workloads that should use it, that
the bypass predictions hold, that the quantizer cache starts cold, and that
the emitted metric names match BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("raise", "lower", "verify")
CODEBOOK_CACHE = "dimsurgery.surgery.quantizer_codebook"

# span -> workloads on which it must record at least one call
EXPECTED_SPANS = {
    "estimators.bernoulli": {"raise"},
    "estimators.block": {"raise"},
    "estimators.compressor": {"raise"},
    "surgery.raise_chunk": {"raise"},
    "surgery.apply_plan": {"raise", "lower"},
    "surgery.plan_raise": {"raise"},
    "surgery.plan_randomize": {"raise"},
    "surgery.plan_weak_srandom": {"raise"},
    "surgery.plan_lower": {"lower"},
    "dimension.sequence_dim": {"raise"},
    "dimension.sequence_distance": {"raise"},
    "bitseq.from_file": {"raise"},
    "bitseq.to_file": {"raise"},
    "surgery.quantizer_codebook": {"lower"},
    "hamming.greedy_cover": {"verify"},
    "hamming.coverage_table": {"verify"},
    "surgery.lower_chunk": {"lower"},
    "entropy.entropy_inv": {"verify"},
    "entropy.raise_profile": {"verify"},
    "entropy.buffer_schedule": {"verify"},
    "entropy.uplift_gap": {"verify"},
    "entropy.verify_concavity_lemma": {"verify"},
    "entropy.verify_convexity_lemma": {"verify"},
    "hamming.verify_harper": {"verify"},
    "hamming.harper_far_count": {"verify"},
    "hamming.best_subcode": {"verify"},
    "duplication.duplication_encode": {"verify"},
    "duplication.duplication_decode": {"verify"},
    "hamming.colex_unrank": {"verify"},
    "cli.main": {"raise", "lower", "verify"},
}

# every per-layer metric the benchmark promises to emit
PER_LAYER_METRICS = (
    [f"estimators.{e}.{m}" for e in ("bernoulli", "block", "compressor")
     for m in ("calls", "self_s", "ns_per_bit")]
    + ["estimators.calls_per_chunk", "surgery.raise_chunk.calls",
       "surgery.raise_chunk.self_s", "surgery.raise_chunk.evals_per_call",
       "surgery.target_hit_ratio", "surgery.apply_plan.self_s",
       "surgery.apply_plan.ns_per_bit"]
    + [f"surgery.plan_{p}.self_s" for p in ("raise", "randomize", "weak_srandom", "lower")]
    + ["dimension.sequence_dim.calls", "dimension.sequence_dim.self_s",
       "dimension.sequence_distance.self_s"]
    + [f"bitseq.{f}.{m}" for f in ("from_file", "to_file") for m in ("self_s", "ns_per_bit")]
    + [f"surgery.quantizer_codebook.{m}" for m in ("calls", "self_s", "cache_hit_ratio")]
    + [f"hamming.greedy_cover.{m}" for m in ("calls", "self_s", "words_per_s")]
    + ["hamming.coverage_table.self_s"]
    + [f"surgery.lower_chunk.{m}" for m in ("calls", "self_s", "ns_per_block")]
    + [f"entropy.{f}.{m}" for f in ("entropy_inv", "raise_profile") for m in ("calls", "self_s")]
    + [f"entropy.{f}.self_s" for f in ("buffer_schedule", "uplift_gap",
                                       "verify_concavity_lemma", "verify_convexity_lemma")]
    + [f"hamming.{f}.self_s" for f in ("verify_harper", "harper_far_count", "best_subcode")]
    + [f"duplication.{f}.self_s" for f in ("duplication_encode", "duplication_decode")]
    + ["hamming.colex_unrank.calls", "hamming.colex_unrank.self_s",
       "cli.main.self_s", "trace.overhead_s"]
)
END_TO_END_METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


def _bypassed(workload: str, span: str) -> bool:
    """Spans a workload must never record."""
    if workload == "raise":
        return span.startswith("hamming.") or span == "surgery.quantizer_codebook"
    if workload == "lower":
        return span == "surgery.raise_chunk"
    return False


def _run(workload: str, trace: int, out_dir: Path, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--scale", "tiny",
           "--out-dir", str(out_dir)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    runs = {}
    for workload in WORKLOADS:
        proc = _run(workload, 1, out)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((out / f"{workload}-trace1.json").read_text())
        runs[workload] = (result, record)
    return runs


def test_every_job_passes_its_checks(traced):
    for workload, (result, record) in traced.items():
        problems = [(job["name"], job["problems"])
                    for rep in record["untraced"] + record["traced"]
                    for job in rep["jobs"] if not job["ok"]]
        assert result["correct"] and result["failed"] == 0, (workload, problems)
        assert result["attempted"] == sum(
            len(rep["jobs"]) for rep in record["untraced"] + record["traced"])


def test_spans_cover_their_workloads(traced):
    for span, workloads in EXPECTED_SPANS.items():
        for workload in workloads:
            spans = traced[workload][1]["spans_by_rep"][0]
            assert spans.get(span, {}).get("calls", 0) > 0, (span, workload)


def test_bypass_predictions_hold(traced):
    for workload, (_result, record) in traced.items():
        for spans in record["spans_by_rep"]:
            hit = [span for span in spans if _bypassed(workload, span)]
            assert not hit, (workload, hit)


def test_quantizer_cache_cold_then_warm(traced):
    first, second = traced["lower"][1]["traced"][0]["jobs"]
    assert first["caches"][CODEBOOK_CACHE]["hits"] == 0
    assert first["caches"][CODEBOOK_CACHE]["misses"] > 0
    assert second["caches"][CODEBOOK_CACHE]["misses"] == 0
    assert second["caches"][CODEBOOK_CACHE]["hits"] > 0


def test_per_layer_metrics_match_benchmark_json(traced, benchmark_json):
    declared = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert sorted(declared) == sorted(PER_LAYER_METRICS)
    for workload, (result, _record) in traced.items():
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == declared, workload


def test_end_to_end_metrics_match_benchmark_json(tmp_path, benchmark_json):
    proc = _run("verify", 0, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    assert sorted(declared) == sorted(END_TO_END_METRICS)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("raise", 0, tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
