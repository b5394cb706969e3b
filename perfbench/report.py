#!/usr/bin/env python3
"""Run every workload once and print its metrics as a table.

    python3 perfbench/report.py --seed 1            # end-to-end metrics
    python3 perfbench/report.py --seed 1 --trace 1  # per-layer metrics

Each workload runs in a fresh `run.py` process.  Besides the metrics of
BENCHMARK.json, every workload row reports `fail_ratio` (failed jobs over
attempted jobs) with the attempted count.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    worst = 0
    for workload in (w["name"] for w in bench["workloads"]):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            worst = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:8s} {name:48s} {metric['value']:>16.6g} {metric['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{workload:8s} {'fail_ratio':48s} {ratio:>16.6g} "
              f"ratio (attempted {result['attempted']})")
        if not result["correct"]:
            worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
