"""Per-layer metrics derived from one traced repetition of a workload.

Input is `Tracer.summary()` (per span name: calls, self_ns, counters,
calls by parent span) plus totals taken from the job outputs.  Every metric
is emitted on every workload; a layer the workload does not use reads 0.
"""

from __future__ import annotations

ESTIMATORS = ("estimators.bernoulli", "estimators.block", "estimators.compressor")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls(spans: dict, name: str) -> int:
    return spans.get(name, {}).get("calls", 0)


def _self_s(spans: dict, name: str) -> float:
    return spans.get(name, {}).get("self_ns", 0) / 1e9


def _counter(spans: dict, name: str, key: str) -> int:
    return spans.get(name, {}).get(key, 0)


def _ns_per(spans: dict, name: str, key: str) -> float:
    return _ratio(spans.get(name, {}).get("self_ns", 0), _counter(spans, name, key))


def per_layer_metrics(spans: dict, totals: dict) -> dict:
    """Return {metric name: (value, unit, better)}.

    `totals` holds `target_hits`/`target_rows` (CSV rows of searching surgery
    jobs) and `codebook_hits`/`codebook_misses` (quantizer_codebook cache).
    """
    out: dict = {}

    def put(name, value, unit, better="lower"):
        out[name] = (float(value), unit, better)

    for name in ESTIMATORS:
        put(f"{name}.calls", _calls(spans, name), "count")
        put(f"{name}.self_s", _self_s(spans, name), "s")
        put(f"{name}.ns_per_bit", _ns_per(spans, name, "bits"), "ns/bit")
    est_calls = sum(_calls(spans, name) for name in ESTIMATORS)
    chunks = _counter(spans, "surgery.apply_plan", "chunks")
    put("estimators.calls_per_chunk", _ratio(est_calls, chunks), "count")

    search_evals = sum(spans.get(name, {}).get("by_parent", {}).get("surgery.raise_chunk", 0)
                       for name in ESTIMATORS)
    put("surgery.raise_chunk.calls", _calls(spans, "surgery.raise_chunk"), "count")
    put("surgery.raise_chunk.self_s", _self_s(spans, "surgery.raise_chunk"), "s")
    put("surgery.raise_chunk.evals_per_call",
        _ratio(search_evals, _calls(spans, "surgery.raise_chunk")), "count")
    put("surgery.target_hit_ratio",
        _ratio(totals["target_hits"], totals["target_rows"]), "ratio", "higher")

    put("surgery.apply_plan.self_s", _self_s(spans, "surgery.apply_plan"), "s")
    put("surgery.apply_plan.ns_per_bit", _ns_per(spans, "surgery.apply_plan", "bits"),
        "ns/bit")
    for plan in ("plan_raise", "plan_randomize", "plan_weak_srandom", "plan_lower"):
        put(f"surgery.{plan}.self_s", _self_s(spans, f"surgery.{plan}"), "s")

    put("dimension.sequence_dim.calls", _calls(spans, "dimension.sequence_dim"), "count")
    put("dimension.sequence_dim.self_s", _self_s(spans, "dimension.sequence_dim"), "s")
    put("dimension.sequence_distance.self_s",
        _self_s(spans, "dimension.sequence_distance"), "s")

    for name in ("bitseq.from_file", "bitseq.to_file"):
        put(f"{name}.self_s", _self_s(spans, name), "s")
        put(f"{name}.ns_per_bit", _ns_per(spans, name, "bits"), "ns/bit")

    put("surgery.quantizer_codebook.calls",
        _calls(spans, "surgery.quantizer_codebook"), "count")
    put("surgery.quantizer_codebook.self_s",
        _self_s(spans, "surgery.quantizer_codebook"), "s")
    put("surgery.quantizer_codebook.cache_hit_ratio",
        _ratio(totals["codebook_hits"], totals["codebook_hits"] + totals["codebook_misses"]),
        "ratio", "higher")

    put("hamming.greedy_cover.calls", _calls(spans, "hamming.greedy_cover"), "count")
    put("hamming.greedy_cover.self_s", _self_s(spans, "hamming.greedy_cover"), "s")
    put("hamming.greedy_cover.words_per_s",
        _ratio(_counter(spans, "hamming.greedy_cover", "words"),
               _self_s(spans, "hamming.greedy_cover")), "1/s", "higher")
    put("hamming.coverage_table.self_s", _self_s(spans, "hamming.coverage_table"), "s")

    put("surgery.lower_chunk.calls", _calls(spans, "surgery.lower_chunk"), "count")
    put("surgery.lower_chunk.self_s", _self_s(spans, "surgery.lower_chunk"), "s")
    put("surgery.lower_chunk.ns_per_block",
        _ratio(spans.get("surgery.lower_chunk", {}).get("self_ns", 0),
               _calls(spans, "surgery.lower_chunk")), "ns/block")

    for name in ("entropy.entropy_inv", "entropy.raise_profile"):
        put(f"{name}.calls", _calls(spans, name), "count")
        put(f"{name}.self_s", _self_s(spans, name), "s")
    for name in ("entropy.buffer_schedule", "entropy.uplift_gap",
                 "entropy.verify_concavity_lemma", "entropy.verify_convexity_lemma",
                 "hamming.verify_harper", "hamming.harper_far_count",
                 "hamming.best_subcode", "duplication.duplication_encode",
                 "duplication.duplication_decode"):
        put(f"{name}.self_s", _self_s(spans, name), "s")
    put("hamming.colex_unrank.calls", _calls(spans, "hamming.colex_unrank"), "count")
    put("hamming.colex_unrank.self_s", _self_s(spans, "hamming.colex_unrank"), "s")

    put("cli.main.self_s", _self_s(spans, "cli.main"), "s")
    return out
