"""Command-line front end: generate sequences, emit bound curves, verify the
finitely-checkable lemmas, and run surgery experiments to CSV.

    dimsurgery gen      --kind coin --n 1000000 --seed 1 --out x.bits
    dimsurgery curves   --grid 0.05 --out curves.csv
    dimsurgery verify   harper --n 8 --trials 10000
    dimsurgery surgery  --in x.bits --strategy raise --t 0.8 --out run.csv

Exit codes: 0 ok, 1 verification failure, 2 usage error (or a config key
that names no flag, an input the strategy cannot plan for, or a verify run
that checks nothing), 3 I/O error (a malformed bit or config file too).
Every command is deterministic given (config, seed); CSV uses '.' decimals.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import math
import sys
from contextlib import nullcontext
from itertools import islice

import numpy as np

from . import bitseq
from .bitseq import BitSequence
from .dimension import chunk_boundary, sequence_dim
from .entropy import (
    ScheduleError,
    bound_curves,
    buffer_margin,
    buffer_schedule,
    entropy,
    entropy_inv,
    verify_concavity_lemma,
    verify_convexity_lemma,
)
from .estimators import parse_estimator
from .hamming import (
    MAX_EXHAUSTIVE_N,
    MAX_HARPER_N,
    best_subcode,
    delsarte_piret_bound,
    greedy_cover,
    harper_far_count,
    sphere_words,
    verify_harper,
)
from .duplication import duplication_decode, duplication_encode
from .surgery import (
    PlanInvariantError,
    apply_plan,
    plan_lower,
    plan_raise,
    plan_randomize,
    plan_weak_srandom,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

# The finest --grid each command takes and the longest --horizon: the README
# gives the time a run at each cap takes, and finer grids cost more.
MIN_GRID = {"curves": 5e-4, "convexity": 1e-6, "concavity": 2.5e-4}
MAX_HORIZON = 1_000_000
MAX_COROLLARY_N = 14      # verify corollary: each trial scans all 2^n words


def _fmt(x: float) -> str:
    return f"{x:.6f}"


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    gen = bitseq.GENERATORS[args.kind]
    flags = {"n_bits": args.n, "seed": args.seed, "p": args.p, "stride": args.stride}
    seq = gen(**{name: flags[name] for name in inspect.signature(gen).parameters})
    seq.to_file(args.out)
    print(f"wrote {args.n} bits to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def _check_grid(grid: float, command: str) -> None:
    if grid < MIN_GRID[command]:
        raise ValueError(f"--grid must be >= {MIN_GRID[command]}, got {grid}")


def cmd_curves(args) -> int:
    _check_grid(args.grid, "curves")
    steps = round(1.0 / args.grid)
    grid = [min(1.0, i * args.grid) for i in range(steps + 1)]
    if grid[-1] != 1.0:
        grid.append(1.0)
    pairs = ((a, b) for a in grid for b in grid if b >= a)
    with open(args.out, "w", encoding="ascii") if args.out else nullcontext(sys.stdout) as fh:
        fh.write("s,t,naive,raise,lower\n")
        # fixed-size blocks bound memory; one s-row per bound_curves call
        # would pay entropy_inv's per-call cost 1/grid times
        while block := list(islice(pairs, 2048)):
            s, t = np.array(block).T
            bc = bound_curves(s, t)
            fh.writelines(",".join(map(_fmt, row)) + "\n"
                          for row in zip(s, t, bc.naive, bc.raise_, bc.lower))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_harper(args, check) -> None:
    if args.n > MAX_HARPER_N:
        raise ValueError(f"--n must be <= {MAX_HARPER_N}, got {args.n}")
    for n in range(1, args.n + 1):
        rep = verify_harper(n, trials=args.trials, seed=args.seed + n)
        check(rep.ok, f"harper n={n} checked={rep.checked} "
              f"tightest_gap={rep.tightest_gap} sizes={rep.tightest_sizes}")


def _verify_corollary(args, check) -> None:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    if args.n > MAX_COROLLARY_N:
        raise ValueError(f"--n must be <= {MAX_COROLLARY_N}, got {args.n}")
    rng = np.random.default_rng(args.seed)
    for n in (10, 12, args.n):
        for eps in (0.1, 0.2):
            q = float(entropy(0.5 - eps / 2.0))
            size = min(1 << n, math.ceil(2.0 ** (n * q)))
            bound = 2.0 ** (n * q + 2)
            # Harper: no set of |A| words leaves more words far than the sphere
            sphere_far = harper_far_count(n, sphere_words(n, size), eps)
            worst = max(harper_far_count(n, rng.choice(1 << n, size=size, replace=False), eps)
                        for _ in range(args.trials))
            check(worst <= sphere_far <= bound, f"corollary n={n} eps={eps} |A|={size} "
                  f"worst_far={worst} sphere_far={sphere_far} bound={bound:.1f}")


def _verify_cover(args, check) -> None:
    if args.n > MAX_EXHAUSTIVE_N:
        raise ValueError(f"--n must be <= {MAX_EXHAUSTIVE_N}, got {args.n}")
    for n in range(4, args.n + 1):
        for ratio in (0.1, 0.2, 0.3, 0.4):
            r = max(1, int(ratio * n + 0.5))
            book = greedy_cover(n, r)
            bound = delsarte_piret_bound(n, r)
            check(len(book.words) < bound and book.coverage_fraction == 1.0,
                  f"cover n={n} r={r} |C|={len(book.words)} bound={bound:.1f}")
            if n == args.n and r == max(1, int(0.2 * n + 0.5)):
                m = max(1, len(book.words) // 8)
                sub = best_subcode(book, m)
                frac = sub.coverage_fraction
                floor = m / len(book.words)
                note = "ok" if frac >= floor else "below-existential-floor"
                check(None, f"subcode n={n} r={r} m={m} coverage={frac:.4f} "
                      f"m/|C|={floor:.4f} {note}")


def _verify_convexity(args, check) -> None:
    _check_grid(args.grid, "convexity")
    deltas = ([args.delta] if args.delta is not None
              else [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45])
    for delta in deltas:
        rep = verify_convexity_lemma(delta, grid_step=args.grid)
        detail = (f"unresolved: w shows no sign change at --grid {args.grid}"
                  if rep.sign_pattern_ok is None else
                  f"inflection={rep.inflection} worst={rep.worst_violation:.3g}")
        check(rep.sign_pattern_ok, f"convexity delta={delta} {detail}")


def _verify_concavity(args, check) -> None:
    _check_grid(args.grid, "concavity")
    rep = verify_concavity_lemma(grid_step=args.grid)
    check(rep.sign_pattern_ok, f"concavity worst={rep.worst_violation:.3g}")


def _buffer_families(horizon: int):
    i = np.arange(horizon)
    yield "constant", np.full(horizon, 0.5)
    yield "alternating", np.where(i % 2 == 1, 0.2, 0.8)
    yield "drifting", 0.3 + 0.3 * i / horizon


def _verify_buffer(args, check) -> None:
    if args.horizon > MAX_HORIZON:
        raise ValueError(f"--horizon must be <= {MAX_HORIZON}, got {args.horizon}")
    for name, s_seq in _buffer_families(args.horizon):
        sched = buffer_schedule(args.c, s_seq)
        margin = buffer_margin(sched.targets, args.c, sched.floor, sched.b)
        check(bool(np.all(margin > 0)), f"buffer family={name} "
              f"s={sched.floor:.4f} b={sched.b:.1f} min_margin={float(margin.min()):.3g}")


def _verify_duplication(args, check) -> None:
    if args.n < 2:
        raise ValueError(f"--n must be >= 2, got {args.n}")
    rng = np.random.default_rng(args.seed)
    n = args.n - (args.n % 2)
    radius = float(entropy_inv(0.5))
    bound = n + radius * n + n / 4.0 + 2.0 * math.log2(n) + 16.0
    failed = False
    worst = 0
    for _ in range(args.trials):
        y = bitseq.gen_join_dup(n, int(rng.integers(1 << 30)))
        x = BitSequence(y.bits.copy())
        flips = rng.choice(n, size=int(radius * n), replace=False)
        x.bits[flips] ^= 1
        wire = duplication_encode(x, y)
        try:
            ok = duplication_decode(wire, n) == y
        except ValueError:                  # a wire the parser rejects
            ok = False
        if not ok:
            failed = True
            check(False, f"duplication round-trip n={n}")
            continue
        worst = max(worst, wire.size)
        if wire.size > bound:
            failed = True
            check(False, f"duplication length {wire.size} > {bound:.1f}")
    if not failed:
        check(True, f"duplication n={n} trials={args.trials} "
              f"worst_len={worst} bound={bound:.1f}")


_VERIFY_TARGETS = {
    "harper": _verify_harper,
    "corollary": _verify_corollary,
    "cover": _verify_cover,
    "convexity": _verify_convexity,
    "concavity": _verify_concavity,
    "buffer": _verify_buffer,
    "duplication": _verify_duplication,
}


def cmd_verify(args) -> int:
    rows: list[tuple[str, str]] = []

    def check(ok: bool | None, detail: str) -> None:
        """Print one result line: PASS or FAIL by ok, INFO when ok is None."""
        head = "INFO" if ok is None else "PASS" if ok else "FAIL"
        rows.append((head, detail))
        print(head, detail)

    _VERIFY_TARGETS[args.target](args, check)
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([("result", "detail"), *rows])
    if not any(head in ("PASS", "FAIL") for head, _ in rows):
        print(f"dimsurgery: verify {args.target} checked nothing", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_VERIFY_FAIL if any(head == "FAIL" for head, _ in rows) else EXIT_OK


# ---------------------------------------------------------------------------
# surgery
# ---------------------------------------------------------------------------

def cmd_surgery(args) -> int:
    x = BitSequence.from_file(args.infile)
    if len(x) < chunk_boundary(3):
        raise ValueError(f"{args.infile} holds {len(x)} bits; two chunks need "
                         f"{chunk_boundary(3)}")
    before = sequence_dim(x, args.estimator)    # the one pass over the input
    s_seq, dim_before = before.chunk_values, before.tail_min
    plan = {"randomize": lambda: plan_randomize(s_seq),   # planned from the measured s_j
            "raise": lambda: plan_raise(s_seq, args.t),
            "weak": lambda: plan_weak_srandom(s_seq, c=args.c),
            "lower": lambda: plan_lower(len(s_seq), args.s)}[args.strategy]()

    many = len(args.seed) > 1                   # then one CSV and one y file per seed
    for seed in args.seed:
        y, report = apply_plan(x, plan, args.estimator, seed)
        lines = ["j,s_j,delta_planned,delta_achieved,t_planned,t_achieved"]
        lines += [",".join([str(e.j), *map(_fmt, (s_j, e.delta_j, d_j, e.t_j, t_j))])
                  for s_j, e, d_j, t_j in zip(s_seq, plan.entries, report.delta_achieved,
                                              report.t_achieved)]
        lines += ["", "dim_before,dim_after,distance,bound,slack", ",".join([
            _fmt(dim_before), _fmt(report.dim_after), _fmt(report.distance),
            _fmt(plan.bound), _fmt(plan.bound - report.distance)])]
        out_path = f"{args.out}.seed{seed}.csv" if many else args.out
        with open(out_path, "w", encoding="ascii") if args.out else nullcontext(sys.stdout) as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"seed={seed} dim_before={_fmt(dim_before)} "
              f"dim_after={_fmt(report.dim_after)} distance={_fmt(report.distance)} "
              f"bound={_fmt(plan.bound)}")
        if report.distance > plan.bound + args.tolerance:
            print(f"WARN measured distance exceeds the bound by more than "
                  f"--tolerance {args.tolerance}")
        if args.save_y:
            y.to_file(f"{args.save_y}.seed{seed}.bits" if many else args.save_y)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment; `_` in a key stands for `-`."""
    out = {}
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("_", "-")] = value.strip()
    return out


def _checked(kind, accept, rule: str):
    """An argparse type: a `kind` (float or int) for which accept(value)
    holds, else a usage error that states `rule`.  NaN fails every
    comparison, so no rule here accepts it."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {text}")
        return value
    return parse


_unit_float = _checked(float, lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_nonneg_float = _checked(float, lambda v: 0.0 <= v < math.inf, "be finite and >= 0")
_positive_float = _checked(float, lambda v: 0.0 < v < math.inf, "be finite and > 0")
_nonneg_int = _checked(int, lambda v: v >= 0, "be >= 0")
_positive_int = _checked(int, lambda v: v >= 1, "be >= 1")


def _estimator(text: str):
    """An argparse type: parse_estimator(text), looked up at each call."""
    try:
        return parse_estimator(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed_list(text: str) -> tuple[int, ...]:
    """An argparse type: a comma list of distinct integers >= 0."""
    try:
        seeds = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed list: {text!r}") from None
    if min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(f"must be distinct integers >= 0, got {text}")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimsurgery",
        description="bound curves, lemma verification, and bit-sequence dimension surgery")
    parser.add_argument("--config", help="key=value defaults file (flags override)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a test sequence")
    p.add_argument("--kind", required=True, choices=list(bitseq.GENERATORS))
    p.add_argument("--n", type=_nonneg_int, default=1_000_000)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--p", type=_unit_float, default=0.5)
    p.add_argument("--stride", type=_positive_int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("curves", help="emit the bound-curve CSV over a grid")
    p.add_argument("--grid", type=_positive_float, default=0.05)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("verify", help="run a verification target")
    p.add_argument("target", choices=sorted(_VERIFY_TARGETS))
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--delta", type=_checked(float, lambda v: 0.0 < v < 0.5, "lie in (0, 1/2)"))
    p.add_argument("--grid", type=_positive_float, default=1e-3)
    p.add_argument("--c", type=_nonneg_float, default=10.0)
    p.add_argument("--horizon", type=_checked(int, lambda v: v >= 2, "be >= 2"),
                   default=10_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("surgery", help="plan and apply a surgery, emit CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--strategy", required=True,
                   choices=["randomize", "weak", "raise", "lower"])
    p.add_argument("--s", type=_unit_float, default=0.5, help="lower's target dimension")
    p.add_argument("--t", type=_unit_float, default=1.0, help="raise's target dimension")
    p.add_argument("--c", type=_nonneg_float, default=10.0)
    p.add_argument("--estimator", type=_estimator, default="bernoulli")
    p.add_argument("--seed", type=_seed_list, default=(0,),
                   help="one seed or a comma list; several write one CSV per seed")
    p.add_argument("--out", default=None)
    p.add_argument("--save-y", dest="save_y", default=None,
                   help="also write the modified sequence here")
    p.add_argument("--tolerance", type=_nonneg_float, default=0.05)
    p.set_defaults(func=cmd_surgery)
    return parser


def _command_index(argv: list) -> int:
    """Position of the command in an argv that parsed: before it stand only
    --config options, as `--config PATH`, `--config=PATH` or abbreviated."""
    at = 0
    while argv[at].startswith("-"):
        at += 1 if "=" in argv[at] else 2
    return at


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        try:
            cfg = load_config(args.config)
        except (OSError, ValueError) as exc:   # UnicodeDecodeError is a ValueError
            print(f"dimsurgery: config {args.config}: {exc}", file=sys.stderr)
            return EXIT_IO
        # key=value becomes --key=value right after the command: argparse
        # converts and checks it as the flag, and flags given in argv win.
        # One file may serve several commands, so only a key that names no
        # flag of any command is an error.
        commands = next(a.choices for a in parser._actions if a.dest == "command")
        unknown = [key for key in cfg if not any(
            f"--{key}" in cmd._option_string_actions for cmd in commands.values())]
        if unknown:
            print(f"dimsurgery: config {args.config}: key {unknown[0]!r} names no flag",
                  file=sys.stderr)
            return EXIT_USAGE
        flags = commands[args.command]._option_string_actions
        at = _command_index(argv) + 1
        argv[at:at] = [f"--{key}={value}" for key, value in cfg.items() if f"--{key}" in flags]
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, bitseq.BitFileError) as exc:
        print(f"dimsurgery: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ScheduleError, PlanInvariantError) as exc:
        print(f"dimsurgery: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
