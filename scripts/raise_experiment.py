#!/usr/bin/env python3
"""Measured distance vs the bound of the water-filling raise plan.

For each source dimension s, generate Bernoulli(H^-1(s)) input and push it to
intermediate targets t and to dimension 1 (randomize); print one row per
(s, t), averaged over seeds, comparing the measured tail distance to the
CLI's bound max(0, H^-1(t) - H^-1(dim_before)).

Usage: python scripts/raise_experiment.py [n_bits] [n_seeds]
"""

import sys

import numpy as np

from dimsurgery.bitseq import gen_bernoulli
from dimsurgery.dimension import chunk_dims, dim_series
from dimsurgery.entropy import entropy_inv
from dimsurgery.estimators import BernoulliOracle
from dimsurgery.surgery import apply_plan, plan_raise


def main() -> int:
    n_bits = int(sys.argv[1]) if len(sys.argv) > 1 else 500_000
    n_seeds = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    est = BernoulliOracle()
    print(f"{'s':>5} {'t':>5} {'dim_after':>9} "
          f"{'distance':>9} {'bound':>9} {'slack':>9}")
    for s in (0.25, 0.5, 0.75):
        p = float(entropy_inv(s))
        targets = [t for t in (0.6, 0.8, 1.0) if t > s]
        for t in targets:
            dists, dims, bounds = [], [], []
            for seed in range(n_seeds):
                x = gen_bernoulli(p, n_bits, seed=seed)
                s_seq = chunk_dims(x, est)
                plan = plan_raise(s_seq, t)         # plan_randomize at t = 1
                _, rep = apply_plan(x, plan, est, seed=seed)
                dim_before = dim_series(s_seq).tail_min
                bounds.append(max(0.0, float(entropy_inv(t) - entropy_inv(dim_before))))
                dists.append(rep.distance)
                dims.append(rep.dim_after)
            d, dim, bound = float(np.mean(dists)), float(np.mean(dims)), float(np.mean(bounds))
            print(f"{s:5.2f} {t:5.2f} {dim:9.4f} "
                  f"{d:9.4f} {bound:9.4f} {bound - d:9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
