#!/usr/bin/env python3
"""Measured distance vs the bound curves for the three raise strategies.

For each source dimension s, generate Bernoulli(H^-1(s)) input and push it to
dimension 1 (randomize) and to intermediate targets t; print one row per run
comparing the measured tail distance to its bound.

Usage: python scripts/raise_experiment.py [n_bits] [n_seeds]
"""

import sys

import numpy as np

from dimsurgery.bitseq import gen_bernoulli
from dimsurgery.dimension import chunk_dims
from dimsurgery.entropy import entropy_inv
from dimsurgery.estimators import BernoulliOracle
from dimsurgery.surgery import apply_plan, plan_raise


def main() -> int:
    n_bits = int(sys.argv[1]) if len(sys.argv) > 1 else 500_000
    n_seeds = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    est = BernoulliOracle()
    print(f"{'s':>5} {'t':>5} {'strategy':>12} {'dim_after':>9} "
          f"{'distance':>9} {'bound':>9} {'slack':>9}")
    for s in (0.25, 0.5, 0.75):
        p = float(entropy_inv(s))
        targets = [t for t in (0.6, 0.8, 1.0) if t > s]
        for t in targets:
            bound = (0.5 - p) if t == 1.0 else float(entropy_inv(t) - entropy_inv(s))
            dists, dims = [], []
            for seed in range(n_seeds):
                x = gen_bernoulli(p, n_bits, seed=seed)
                s_seq = chunk_dims(x, est)
                plan = plan_raise(s_seq, s, t)      # plan_randomize at t = 1
                _, rep = apply_plan(x, plan, est, seed=seed)
                dists.append(rep.distance)
                dims.append(rep.dim_after)
            d, dim = float(np.mean(dists)), float(np.mean(dims))
            print(f"{s:5.2f} {t:5.2f} {plan.strategy:>12} {dim:9.4f} "
                  f"{d:9.4f} {bound:9.4f} {bound - d:9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
