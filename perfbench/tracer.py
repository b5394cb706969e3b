"""In-memory span tracer that wraps the public functions of `dimsurgery`.

The package binds names with `from .x import f`, so `cli` holds its own
`apply_plan` and `surgery` holds its own `sequence_dim`.  Wrapping only the
defining module would record nothing, so `install` replaces the original
object under every name, in every loaded `dimsurgery` module, that is bound
to it.  Methods (estimators, `BitSequence.to_file`/`from_file`) are wrapped on
their class.

Spans nest on a stack: a span's self time is its duration minus the
durations of its direct child spans.  Everything runs in one thread.  Spans
stay in memory as tuples (job, id, parent, name, start_ns, end_ns, self_ns)
and are written out once, by the caller, at the end of a run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class TracePoint:
    """A traced callable: span name, defining module, attribute path, and an
    optional counter `(args, kwargs, result) -> {counter: amount}`."""

    name: str
    module: str
    attr: str
    count: Callable | None = None


def _estimator_bits(args, kwargs, result):
    return {"bits": len(args[1])}             # chunk only; context excluded


def _from_file_bits(args, kwargs, result):
    return {"bits": len(result)}


def _to_file_bits(args, kwargs, result):
    return {"bits": len(args[0])}


def _apply_plan_work(args, kwargs, result):
    return {"bits": len(args[0]), "chunks": len(args[1].entries)}


def _cover_words(args, kwargs, result):
    return {"words": 1 << int(args[0])}


TRACE_POINTS = (
    TracePoint("bitseq.from_file", "bitseq", "BitSequence.from_file", _from_file_bits),
    TracePoint("bitseq.to_file", "bitseq", "BitSequence.to_file", _to_file_bits),
    TracePoint("estimators.bernoulli", "estimators", "BernoulliOracle.estimate",
               _estimator_bits),
    TracePoint("estimators.block", "estimators", "BlockEntropy.estimate", _estimator_bits),
    TracePoint("estimators.compressor", "estimators", "Compressor.estimate",
               _estimator_bits),
    TracePoint("dimension.sequence_dim", "dimension", "sequence_dim"),
    TracePoint("dimension.sequence_distance", "dimension", "sequence_distance"),
    TracePoint("surgery.plan_raise", "surgery", "plan_raise"),
    TracePoint("surgery.plan_randomize", "surgery", "plan_randomize"),
    TracePoint("surgery.plan_weak_srandom", "surgery", "plan_weak_srandom"),
    TracePoint("surgery.plan_lower", "surgery", "plan_lower"),
    TracePoint("surgery.apply_plan", "surgery", "apply_plan", _apply_plan_work),
    TracePoint("surgery.raise_chunk", "surgery", "raise_chunk"),
    TracePoint("surgery.lower_chunk", "surgery", "lower_chunk"),
    TracePoint("surgery.quantizer_codebook", "surgery", "quantizer_codebook"),
    TracePoint("hamming.greedy_cover", "hamming", "greedy_cover", _cover_words),
    TracePoint("hamming.coverage_table", "hamming", "coverage_table"),
    TracePoint("hamming.best_subcode", "hamming", "best_subcode"),
    TracePoint("hamming.verify_harper", "hamming", "verify_harper"),
    TracePoint("hamming.harper_far_count", "hamming", "harper_far_count"),
    TracePoint("hamming.colex_unrank", "hamming", "colex_unrank"),
    TracePoint("entropy.entropy_inv", "entropy", "entropy_inv"),
    TracePoint("entropy.raise_profile", "entropy", "raise_profile"),
    TracePoint("entropy.uplift_gap", "entropy", "uplift_gap"),
    TracePoint("entropy.buffer_schedule", "entropy", "buffer_schedule"),
    TracePoint("entropy.verify_convexity_lemma", "entropy", "verify_convexity_lemma"),
    TracePoint("entropy.verify_concavity_lemma", "entropy", "verify_concavity_lemma"),
    TracePoint("duplication.duplication_encode", "duplication", "duplication_encode"),
    TracePoint("duplication.duplication_decode", "duplication", "duplication_decode"),
    TracePoint("cli.main", "cli", "main"),
)


PACKAGE = "dimsurgery"


def package_modules() -> list:
    """Every loaded module of the package, the package itself included."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Wraps `TRACE_POINTS` while installed; records spans while a job is set."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict = defaultdict(lambda: defaultdict(int))
        self._stack: list[list] = []
        self._job: str | None = None
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def start_job(self, job: str) -> None:
        self._job = job

    def stop_job(self) -> None:
        self._job = None
        self._stack.clear()

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(int))

    def _wrap(self, point: TracePoint, fn):
        tracer = self
        name = point.name
        count = point.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = tracer._job
            if job is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0]                  # id, child nanoseconds
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                tracer.spans.append((job, span_id, parent[0] if parent else None,
                                     name, start, end, dur - frame[1]))
            if count is not None:
                bucket = tracer.counters[name]
                for key, amount in count(args, kwargs, result).items():
                    bucket[key] += amount
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        modules = package_modules()
        for point in TRACE_POINTS:
            mod = sys.modules[f"{PACKAGE}.{point.module}"]
            if "." in point.attr:
                cls_name, meth = point.attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(point, raw.__func__))
                else:
                    new = self._wrap(point, raw)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            original = getattr(mod, point.attr)
            wrapper = self._wrap(point, original)
            bound = 0
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)
                        self._undo.append((other, key, original))
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"trace point {point.name} is bound nowhere")

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- aggregation -----------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self seconds, counters, and how many calls
        each direct parent span made to it (`by_parent`)."""
        names = {span[1]: span[3] for span in self.spans}
        out: dict = {}
        for _job, _sid, parent, name, _start, _end, self_ns in self.spans:
            entry = out.setdefault(name, {"calls": 0, "self_ns": 0, "by_parent": {}})
            entry["calls"] += 1
            entry["self_ns"] += self_ns
            pname = names.get(parent, "")
            entry["by_parent"][pname] = entry["by_parent"].get(pname, 0) + 1
        for name, bucket in self.counters.items():
            out.setdefault(name, {"calls": 0, "self_ns": 0, "by_parent": {}})
            out[name].update(bucket)
        return out
