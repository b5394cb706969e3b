"""Workload definitions: generated inputs and the CLI job list of each workload.

Every workload is a list of `dimsurgery` CLI invocations (argv lists for
`dimsurgery.cli.main`).  Inputs are `.bits` files produced by the CLI's own
`gen` command from seeds derived from the workload seed; the program sees
only those files and flags.

    raise   Bernoulli(H^-1(1/2)) input, the paper's dimension-1/2 source:
            raise / randomize / weak at 1e7 bits with the bernoulli
            estimator, then raise at 1e6 bits with block:8 and zlib.
    lower   two distinct 1e6-bit coin inputs lowered to s = 0.5 one after
            the other; the first job builds the block quantizers, the second
            reuses them.
    verify  the seven targets of scripts/verify_all.py, seeded.

The `tiny` scale keeps every job but shrinks inputs and target sizes so the
whole list runs in seconds; it exists for the span-coverage test.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("raise", "lower", "verify")
SCALES = ("full", "tiny")


def binary_entropy_inverse(y: float) -> float:
    """H^-1(y) on [0, 1/2] by bisection; independent of the program under test."""
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        h = -(mid * math.log2(mid) + (1.0 - mid) * math.log2(1.0 - mid))
        if h < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


P_HALF = binary_entropy_inverse(0.5)


@dataclass(frozen=True)
class InputSpec:
    """One generated input file: `dimsurgery gen` arguments minus --out/--seed."""

    name: str
    gen_args: tuple
    n_bits: int
    seed: int

    def gen_argv(self, workdir: str) -> list[str]:
        return ["gen", *self.gen_args, "--n", str(self.n_bits),
                "--seed", str(self.seed), "--out", self.path(workdir)]

    def path(self, workdir: str) -> str:
        return os.path.join(workdir, f"{self.name}.bits")


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what its output checks need to know."""

    name: str
    argv: tuple
    kind: str                           # "surgery" or "verify"
    strategy: str | None = None
    input_path: str | None = None
    csv_path: str | None = None
    y_path: str | None = None
    outputs: tuple = field(default=())  # files hashed after the job


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    scale: str
    inputs: tuple
    jobs: tuple
    setup_repeats: int

    def input_sizes(self) -> dict:
        return {spec.name: spec.n_bits for spec in self.inputs}


def _derived_seeds(seed: int, count: int) -> list[int]:
    """Distinct 31-bit input seeds derived from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint32)
    return [int(v) >> 1 for v in state]


def _surgery_job(name: str, workdir: str, spec: InputSpec, strategy: str,
                 extra: list[str], seed: int, save_y: bool = False) -> Job:
    csv_path = os.path.join(workdir, f"{name}.csv")
    argv = ["surgery", "--in", spec.path(workdir), "--strategy", strategy,
            *extra, "--seed", str(seed), "--out", csv_path]
    outputs = [csv_path]
    y_path = None
    if save_y:
        y_path = os.path.join(workdir, f"{name}_y.bits")
        argv += ["--save-y", y_path]
        outputs += [y_path, f"{y_path}.len"]
    return Job(name=name, argv=tuple(argv), kind="surgery", strategy=strategy,
               input_path=spec.path(workdir), csv_path=csv_path, y_path=y_path,
               outputs=tuple(outputs))


def _raise_workload(seed: int, scale: str, workdir: str):
    big_n, mid_n = (10_000_000, 1_000_000) if scale == "full" else (200_000, 50_000)
    s_big, s_mid = _derived_seeds(seed, 2)
    bern = ("--kind", "bernoulli", "--p", repr(P_HALF))
    big = InputSpec("bernoulli_big", bern, big_n, s_big)
    mid = InputSpec("bernoulli_mid", bern, mid_n, s_mid)
    raise_args = ["--s", "0.5", "--t", "0.8"]
    jobs = [
        _surgery_job("raise_bernoulli", workdir, big, "raise",
                     raise_args + ["--estimator", "bernoulli"], seed, save_y=True),
        _surgery_job("randomize_bernoulli", workdir, big, "randomize",
                     ["--estimator", "bernoulli"], seed),
        _surgery_job("weak_bernoulli", workdir, big, "weak",
                     ["--estimator", "bernoulli"], seed),
        _surgery_job("raise_block8", workdir, mid, "raise",
                     raise_args + ["--estimator", "block:8"], seed),
        _surgery_job("raise_zlib", workdir, mid, "raise",
                     raise_args + ["--estimator", "compressor:zlib"], seed),
    ]
    return (big, mid), jobs


def _lower_workload(seed: int, scale: str, workdir: str):
    n = 1_000_000 if scale == "full" else 20_000
    s_a, s_b = _derived_seeds(seed, 2)
    first = InputSpec("coin_a", ("--kind", "coin"), n, s_a)
    second = InputSpec("coin_b", ("--kind", "coin"), n, s_b)
    jobs = [
        _surgery_job(f"lower_{spec.name}", workdir, spec, "lower",
                     ["--s", "0.5"], seed)
        for spec in (first, second)
    ]
    return (first, second), jobs


# scripts/verify_all.py targets; "seeded" ones also take the workload seed
_VERIFY_FULL = [
    (["verify", "harper", "--n", "8", "--trials", "2000"], True),
    (["verify", "corollary", "--n", "14", "--trials", "10"], True),
    (["verify", "cover", "--n", "14"], False),
    (["verify", "convexity"], False),
    (["verify", "concavity", "--grid", "0.002"], False),
    (["verify", "buffer", "--horizon", "10000", "--c", "10"], False),
    (["verify", "duplication", "--n", "10000", "--trials", "100"], True),
]

_VERIFY_TINY = [
    (["verify", "harper", "--n", "6", "--trials", "100"], True),
    (["verify", "corollary", "--n", "10", "--trials", "2"], True),
    (["verify", "cover", "--n", "8"], False),
    (["verify", "convexity"], False),
    (["verify", "concavity", "--grid", "0.01"], False),
    (["verify", "buffer", "--horizon", "1000", "--c", "10"], False),
    (["verify", "duplication", "--n", "1000", "--trials", "5"], True),
]


def _verify_workload(seed: int, scale: str, workdir: str):
    targets = _VERIFY_FULL if scale == "full" else _VERIFY_TINY
    jobs = []
    for argv, seeded in targets:
        full = argv + (["--seed", str(seed)] if seeded else [])
        jobs.append(Job(name=f"verify_{argv[1]}", argv=tuple(full), kind="verify"))
    return (), jobs


_WORKLOAD_DEFS = {
    "raise": _raise_workload,
    "lower": _lower_workload,
    "verify": _verify_workload,
}


def build_workload(name: str, seed: int, scale: str, workdir: str) -> Workload:
    if name not in _WORKLOAD_DEFS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    inputs, jobs = _WORKLOAD_DEFS[name](seed, scale, workdir)
    return Workload(name=name, seed=seed, scale=scale, inputs=tuple(inputs),
                    jobs=tuple(jobs), setup_repeats=5 if scale == "full" else 1)
