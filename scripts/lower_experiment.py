#!/usr/bin/env python3
"""Measured distance and rate of the lower strategy vs the bound H^-1(1 - s).

For each target s, lower coin-flip input to dimension s with the linear block
quantizers, once at the default block length and once at each L in
{20, 32, 40}; a block length whose code would exceed the 2^22-syndrome cap
prints as skipped.  Distance and rate (index bits per sequence bit) are means
over the seeds; radius/L is the hard per-block budget of the length-L code,
and H^-1(1 - s) the plan's bound.

Usage: python scripts/lower_experiment.py [n_bits] [n_seeds]
"""

import sys

import numpy as np

from dimsurgery.bitseq import gen_coin
from dimsurgery.dimension import chunk_count
from dimsurgery.estimators import BernoulliOracle
from dimsurgery.surgery import apply_plan, default_block_len, plan_lower, quantizer_codebook


def main() -> int:
    n_bits = int(float(sys.argv[1])) if len(sys.argv) > 1 else 10_000_000
    n_seeds = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    est = BernoulliOracle()
    count = chunk_count(n_bits)
    inputs = [gen_coin(n_bits, seed=seed) for seed in range(n_seeds)]
    print(f"{'s':>5} {'L':>8} {'distance':>9} {'rate':>9} {'radius/L':>9} {'H^-1(1-s)':>9}")
    for s in (0.1, 0.3, 0.5, 0.7, 0.9):
        default = default_block_len(s)
        rows = {}                                   # block length -> printed columns
        for label, L in [(f"{default}*", default), ("20", 20), ("32", 32), ("40", 40)]:
            if L not in rows:
                try:
                    plan = plan_lower(count, s, block_len=L)
                except ValueError as exc:
                    rows[L] = f"skipped: {exc}"
                else:
                    reports = [apply_plan(x, plan, est)[1] for x in inputs]
                    dist = float(np.mean([r.distance for r in reports]))
                    rate = float(np.mean([r.codebook_rate for r in reports]))
                    radius = quantizer_codebook(L, s).radius / L
                    rows[L] = f"{dist:9.4f} {rate:9.4f} {radius:9.4f} {plan.bound:9.4f}"
            print(f"{s:5.2f} {label:>8} {rows[L]}")
    print("* the default block length, default_block_len(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
