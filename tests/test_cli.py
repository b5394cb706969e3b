"""End-to-end CLI tests: commands, exit codes, CSV determinism."""

import argparse
import csv
import hashlib
import importlib
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimsurgery.bitseq import BitSequence
from dimsurgery.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, _seed_list, main
from dimsurgery.dimension import (
    chunk_boundary,
    chunk_count,
    chunk_dims,
    planned_distance,
    sequence_dim,
    sequence_distance,
    weighted_series,
)
from dimsurgery.entropy import buffer_margin, buffer_schedule, entropy_inv, raise_profile
from dimsurgery.estimators import BernoulliOracle, Compressor, parse_estimator


def run(*argv) -> int:
    return main(list(argv))


class TestGen:
    def test_coin(self, tmp_path):
        out = tmp_path / "x.bits"
        assert run("gen", "--kind", "coin", "--n", "5000", "--seed", "3",
                   "--out", str(out)) == EXIT_OK
        seq = BitSequence.from_file(out)
        assert len(seq) == 5000

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.bits", tmp_path / "b.bits"
        for out in (a, b):
            run("gen", "--kind", "bernoulli", "--p", "0.3", "--n", "4000",
                "--seed", "7", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_join_dup_structure(self, tmp_path):
        out = tmp_path / "j.bits"
        run("gen", "--kind", "join_dup", "--n", "2000", "--seed", "1",
            "--out", str(out))
        seq = BitSequence.from_file(out)
        assert np.array_equal(seq.bits[0::2], seq.bits[1::2])

    def test_zero_padded_quarter_distance(self, tmp_path):
        # distance between the padded sequence and its source is exactly the
        # density of erased ones, ~1/4
        n = 200_000
        src = tmp_path / "src.bits"
        pad = tmp_path / "pad.bits"
        run("gen", "--kind", "coin", "--n", str(n), "--seed", "5", "--out", str(src))
        run("gen", "--kind", "zero_padded", "--stride", "2", "--n", str(n),
            "--seed", "5", "--out", str(pad))
        x = BitSequence.from_file(src)
        y = BitSequence.from_file(pad)
        d = sequence_distance(x, y)
        assert abs(d.tail_max - 0.25) <= 0.01
        dim = sequence_dim(y, Compressor("lzma"))
        assert abs(dim.tail_min - 0.5) <= 0.06


class TestCurves:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run("curves", "--grid", "0.25", "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "s,t,naive,raise,lower"
        rows = {tuple(ln.split(",")[:2]): ln.split(",") for ln in lines[1:]}
        # raise bound at (0.5, 1.0) is 1/2 - H^-1(1/2) ~ 0.390
        row = rows[("0.500000", "1.000000")]
        assert abs(float(row[3]) - 0.390) <= 0.005
        diag = rows[("0.500000", "0.500000")]
        assert float(diag[2]) == 0.0 and float(diag[3]) == 0.0

    def test_monotone_raise_column(self, tmp_path):
        out = tmp_path / "curves.csv"
        run("curves", "--grid", "0.1", "--out", str(out))
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        by_s = {}
        for row in rows:
            by_s.setdefault(row[0], []).append((float(row[1]), float(row[3])))
        for s, pairs in by_s.items():
            vals = [v for _, v in sorted(pairs)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("command", [["curves"], ["verify", "convexity"],
                                         ["verify", "concavity"]],
                             ids=["curves", "convexity", "concavity"])
    @pytest.mark.parametrize("value", ["0", "-0.1", "nan", "inf"])
    def test_bad_grid_is_usage_error(self, capsys, command, value):
        with pytest.raises(SystemExit) as exc:
            run(*command, f"--grid={value}")
        assert exc.value.code == EXIT_USAGE
        assert (f"argument --grid: must be finite and > 0, got {value}"
                in capsys.readouterr().err)

    def test_rows_stream_to_the_file(self, tmp_path):
        # 31 626 rows at this step; only a block of them is held in memory
        out = tmp_path / "curves.csv"
        tracemalloc.start()
        try:
            assert run("curves", "--grid", "0.004", "--out", str(out)) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak
        assert len(out.read_text().splitlines()) == 1 + 251 * 252 // 2

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("curves", "--grid", "0.2", "--out", str(a))
        run("curves", "--grid", "0.2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_harper_small(self, capsys):
        assert run("verify", "harper", "--n", "6", "--trials", "200") == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_convexity(self, capsys):
        assert run("verify", "convexity", "--delta", "0.1") == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS convexity" in out

    @pytest.mark.parametrize("delta", ["0", "-0.0"])
    def test_convexity_delta_zero_is_usage_error(self, capsys, delta):
        # a zero --delta is a value to check, not a request for the defaults
        self._delta_is_refused(capsys, delta)

    @pytest.mark.parametrize("delta", ["0.5", "0.7", "-1", "nan"])
    def test_convexity_delta_outside_open_half_is_usage_error(self, capsys, delta):
        self._delta_is_refused(capsys, delta)

    @staticmethod
    def _delta_is_refused(capsys, delta):
        # the parser names the flag; no lemma is checked
        with pytest.raises(SystemExit) as exc:
            run("verify", "convexity", "--delta", delta)
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --delta: must lie in (0, 1/2), got {delta}" in err

    def test_concavity(self):
        assert run("verify", "concavity", "--grid", "0.005") == EXIT_OK

    def test_buffer(self):
        assert run("verify", "buffer", "--horizon", "2000", "--c", "10") == EXIT_OK

    def test_duplication(self):
        assert run("verify", "duplication", "--n", "2000", "--trials", "20") == EXIT_OK

    def test_cover(self):
        assert run("verify", "cover", "--n", "10") == EXIT_OK

    def test_corollary(self):
        assert run("verify", "corollary", "--n", "12", "--trials", "5") == EXIT_OK

    def test_report_csv(self, tmp_path):
        out = tmp_path / "report.csv"
        run("verify", "convexity", "--delta", "0.2", "--out", str(out))
        text = out.read_text()
        assert text.startswith("result,detail\n")
        assert "PASS," in text

    @pytest.mark.parametrize("argv", [
        ["harper", "--n", "0"],
        ["cover", "--n", "3"],
    ], ids=["harper-n0", "cover-n3"])
    def test_vacuous_run_is_usage_error(self, capsys, argv):
        assert run("verify", *argv) == EXIT_USAGE
        assert "PASS" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["corollary", "--n", "3", "--trials", "0"],
        ["duplication", "--n", "4", "--trials", "0"],
    ], ids=["corollary-trials0", "duplication-trials0"])
    def test_trials_below_one_is_parser_error(self, monkeypatch, capsys, tmp_path, argv):
        # the parser names the flag; no target runs and no --out file is written
        import dimsurgery.cli as cli

        def never(args, check):
            raise AssertionError("a verify target ran before the --trials check")

        for target in cli._VERIFY_TARGETS:
            monkeypatch.setitem(cli._VERIFY_TARGETS, target, never)
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            run("verify", *argv, "--out", str(out))
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --trials: must be >= 1, got 0" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["harper", "--n", "3", "--trials", "50"],
                                      ["cover", "--n", "6"]], ids=["harper", "cover"])
    def test_report_csv_rows_have_two_fields(self, tmp_path, capsys, argv):
        # harper details hold "sizes=(1, 1)" and cover prints an INFO row
        out = tmp_path / "report.csv"
        assert run("verify", *argv, "--out", str(out)) == EXIT_OK
        with open(out, newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["result", "detail"]
        assert [len(row) for row in rows] == [2] * len(rows)
        assert [" ".join(row) for row in rows[1:]] == capsys.readouterr().out.splitlines()

    def test_failure_sets_exit_code(self, monkeypatch):
        import dimsurgery.cli as cli

        def broken(args, check):
            check(False, "injected")

        monkeypatch.setitem(cli._VERIFY_TARGETS, "concavity", broken)
        assert run("verify", "concavity") == EXIT_VERIFY_FAIL

    def test_cover_shortfall_is_a_fail_row(self, monkeypatch, capsys):
        # a cover that misses words reaches the target's own check: FAIL
        # rows and exit 1, not a traceback from inside greedy_cover
        from dimsurgery import hamming
        engine = hamming.greedy_max_coverage

        def short(n, r, picks=None, candidates=None):
            words = engine(n, r, picks, candidates)
            return words[:-1] if picks is None else words

        monkeypatch.setattr(hamming, "greedy_max_coverage", short)
        assert run("verify", "cover", "--n", "6") == EXIT_VERIFY_FAIL
        captured = capsys.readouterr()
        assert "FAIL cover n=6" in captured.out and captured.err == ""

    def test_buffer_shortfall_is_a_fail_row(self, monkeypatch, capsys):
        # a doubled uplift gap halves the slack too early; the target's own
        # margin check reports it (a gap past 2 would never halve at all)
        entropy_module = importlib.import_module("dimsurgery.entropy")
        gap = entropy_module.uplift_gap
        monkeypatch.setattr(entropy_module, "uplift_gap", lambda eps: 2.0 * gap(eps))
        assert run("verify", "buffer", "--horizon", "2000", "--c", "10") == EXIT_VERIFY_FAIL
        captured = capsys.readouterr()
        assert "FAIL buffer family=constant" in captured.out and captured.err == ""

    @pytest.mark.parametrize("corrupt", [lambda wire: wire[:-1], lambda wire: wire ^ 1],
                             ids=["truncated", "complemented"])
    def test_bad_wire_is_a_fail_row(self, monkeypatch, capsys, corrupt):
        # verify duplication checks the serialized bits: a wire that the
        # parser rejects, or that decodes to another Y, is a FAIL row and
        # exit 1, not a usage error raised out of duplication_decode
        import dimsurgery.cli as cli
        encode = cli.duplication_encode
        monkeypatch.setattr(cli, "duplication_encode", lambda x, y: corrupt(encode(x, y)))
        assert run("verify", "duplication", "--n", "200", "--trials", "2") == EXIT_VERIFY_FAIL
        captured = capsys.readouterr()
        assert captured.out == "FAIL duplication round-trip n=200\n" * 2
        assert captured.err == ""

    @pytest.mark.parametrize("argv, worker, message", [
        (["verify", "cover", "--n", "23"], "greedy_cover", "--n must be <= 22, got 23"),
        (["verify", "harper", "--n", "15"], "verify_harper", "--n must be <= 14, got 15"),
        (["curves", "--grid", "0.00049"], "bound_curves",
         "--grid must be >= 0.0005, got 0.00049"),
        (["verify", "convexity", "--grid", "9.9e-7"], "verify_convexity_lemma",
         "--grid must be >= 1e-06, got 9.9e-07"),
        (["verify", "concavity", "--grid", "0.00024"], "verify_concavity_lemma",
         "--grid must be >= 0.00025, got 0.00024"),
        (["verify", "buffer", "--horizon", "1000001"], "buffer_schedule",
         "--horizon must be <= 1000000, got 1000001"),
        (["verify", "corollary", "--n", "15", "--trials", "1"], "harper_far_count",
         "--n must be <= 14, got 15"),
    ], ids=["cover-n23", "harper-n15", "curves-grid", "convexity-grid", "concavity-grid",
            "buffer-horizon", "corollary-n15"])
    def test_cap_is_checked_before_any_work(self, monkeypatch, capsys, tmp_path, argv,
                                            worker, message):
        # each value lies just past its cap; none of them may start the work
        # or write the --out file
        import dimsurgery.cli as cli

        def never(*args, **kwargs):
            raise AssertionError(f"{worker} ran before the cap check")

        monkeypatch.setattr(cli, worker, never)
        out = tmp_path / "out.csv"
        assert run(*argv, "--out", str(out)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dimsurgery: {message}\n"
        assert not out.exists()

    def test_convexity_grid_too_coarse_checks_nothing(self, capsys):
        # at this step (0, 1/2 - delta) holds at most one sample for every
        # delta: no row can see w change sign, and none is a FAIL
        assert run("verify", "convexity", "--grid", "0.3") == EXIT_USAGE
        out, err = capsys.readouterr()
        rows = out.splitlines()
        assert len(rows) == 9
        assert all(row.startswith("INFO convexity delta=") for row in rows)
        assert all(row.endswith("unresolved: w shows no sign change at --grid 0.3")
                   for row in rows)
        assert err == "dimsurgery: verify convexity checked nothing\n"

    @pytest.mark.parametrize("grid", ["0.01", "0.02", "0.05", "0.1"])
    def test_convexity_coarse_grid_leaves_delta_unresolved(self, capsys, grid):
        # delta = 0.45 leaves (0, 0.05): too few samples to see the change;
        # the deltas the grid resolves still pass, so the run exits 0
        assert run("verify", "convexity", "--grid", grid) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert rows[-1] == (f"INFO convexity delta=0.45 unresolved: "
                            f"w shows no sign change at --grid {grid}")
        assert rows[0].startswith("PASS convexity delta=0.05 ")
        assert not any(row.startswith("FAIL") for row in rows)

    @pytest.mark.parametrize("n", ["1", "0", "-4"])
    def test_duplication_n_below_two_is_usage_error(self, capsys, n):
        assert run("verify", "duplication", "--n", n, "--trials", "1") == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dimsurgery: --n must be >= 2, got {n}\n"

    @pytest.mark.parametrize("horizon", ["1", "0", "-5"])
    def test_buffer_horizon_below_two_is_usage_error(self, monkeypatch, capsys, horizon):
        # the parser names the flag; no schedule is built
        import dimsurgery.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("buffer_schedule ran before the --horizon check")

        monkeypatch.setattr(cli, "buffer_schedule", never)
        with pytest.raises(SystemExit) as exc:
            run("verify", "buffer", "--horizon", horizon)
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --horizon: must be >= 2, got {horizon}" in captured.err

    def test_harper_planted_violation_is_a_fail_row(self, monkeypatch, capsys):
        # a sphere distance one bit low: the batched check reports each n as
        # a FAIL row at gap -1 and exits 1
        from dimsurgery import hamming
        exact = hamming.sphere_distance_bits
        monkeypatch.setattr(hamming, "sphere_distance_bits",
                            lambda n, sa, sb: exact(n, sa, sb) - 1)
        assert run("verify", "harper", "--n", "3", "--trials", "20") == EXIT_VERIFY_FAIL
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert [row.split()[:3] for row in rows] == [["FAIL", "harper", f"n={n}"]
                                                     for n in (1, 2, 3)]
        assert all("tightest_gap=-1 " in row for row in rows) and captured.err == ""

    def test_corollary_planted_violation_is_a_fail_row(self, monkeypatch, capsys):
        # every trial draws the canonical sphere, and S_hat is planted as the
        # lowest words in (weight, value) order: a colex partial layer, which
        # leaves fewer words far.  Each row where it does fails, and n = 10,
        # eps = 0.2, where both leave 11, passes
        import dimsurgery.cli as cli
        from dimsurgery import hamming

        class SphereDraws:
            def __init__(self, seed):
                pass

            def choice(self, space, size, replace):
                return hamming.sphere_words(space.bit_length() - 1, size)

        monkeypatch.setattr(cli, "sphere_words", lambda n, size: np.argsort(
            hamming.popcount_table(n), kind="stable")[:size])
        monkeypatch.setattr(cli.np.random, "default_rng", SphereDraws)
        assert run("verify", "corollary", "--n", "12", "--trials", "1") == EXIT_VERIFY_FAIL
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[:4] for row in rows] == [
            [verdict, "corollary", f"n={n}", f"eps={eps}"] for verdict, n, eps in [
                ("FAIL", 10, 0.1), ("PASS", 10, 0.2), ("FAIL", 12, 0.1), ("FAIL", 12, 0.2),
                ("FAIL", 12, 0.1), ("FAIL", 12, 0.2)]]
        assert "worst_far=7 sphere_far=4 " in rows[0]

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_corollary_n_below_one_is_usage_error(self, capsys, n):
        # checked before the n = 10 and n = 12 rows, which need no --n
        assert run("verify", "corollary", "--n", n, "--trials", "1") == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dimsurgery: --n must be >= 1, got {n}\n"


class TestSurgery:
    def _gen(self, tmp_path, kind="bernoulli", p=0.11, n=80_000, seed=4):
        path = tmp_path / "x.bits"
        run("gen", "--kind", kind, "--p", str(p), "--n", str(n),
            "--seed", str(seed), "--out", str(path))
        return path

    def test_randomize_summary(self, tmp_path):
        src = self._gen(tmp_path)
        out = tmp_path / "run.csv"
        assert run("surgery", "--in", str(src), "--strategy", "randomize",
                   "--estimator", "bernoulli", "--seed", "1",
                   "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "j,s_j,delta_planned,delta_achieved,t_planned,t_achieved"
        blank = lines.index("")
        assert lines[blank + 1] == "dim_before,dim_after,distance,bound,slack"
        summary = lines[blank + 2].split(",")
        dim_after, distance, bound = float(summary[1]), float(summary[2]), float(summary[3])
        assert dim_after >= 0.97
        assert abs(distance - bound) <= 0.05

    @pytest.mark.parametrize("n", [0, 4])
    def test_input_below_two_chunks_is_usage_error(self, tmp_path, capsys, n):
        # chunks 1 and 2 hold 1 + 4 bits; the message names the file
        src = self._gen(tmp_path, n=n)
        capsys.readouterr()
        assert run("surgery", "--in", str(src), "--strategy", "randomize") == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dimsurgery: {src} holds {n} bits; two chunks need 5\n"

    def test_two_chunk_input_runs(self, tmp_path, capsys):
        src = self._gen(tmp_path, n=5)
        assert run("surgery", "--in", str(src), "--strategy", "randomize") == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_raise_below_dim_before_changes_nothing(self, tmp_path, capsys):
        # the plan reads the measured dimension, 0.866 here: a target at or
        # below it has bound 0, and the search leaves every chunk alone
        src = self._gen(tmp_path, p=0.3, n=4000, seed=1)
        capsys.readouterr()
        for t in ("0.5", "0.8"):
            y = tmp_path / f"y{t}.bits"
            assert run("surgery", "--in", str(src), "--strategy", "raise", "--t", t,
                       "--save-y", str(y)) == EXIT_OK
            out = capsys.readouterr().out
            assert out.startswith("j,") and "WARN" not in out
            assert out.splitlines()[-1] == (
                "seed=0 dim_before=0.866092 dim_after=0.866092 distance=0.000000 "
                "bound=0.000000")
            assert BitSequence.from_file(y) == BitSequence.from_file(src)

    @pytest.mark.parametrize("strategy", ["randomize", "raise", "weak", "lower"])
    def test_printed_bound_is_the_plans(self, tmp_path, capsys, monkeypatch, strategy):
        # cmd_surgery derives no bound: the stdout line and the summary row
        # print the bound of the plan it applied
        import dimsurgery.cli as cli

        plans = []
        real_apply = cli.apply_plan

        def spy_apply(x, plan, *rest):
            plans.append(plan)
            return real_apply(x, plan, *rest)

        monkeypatch.setattr(cli, "apply_plan", spy_apply)
        src = self._gen(tmp_path, n=20_000)
        out = tmp_path / "run.csv"
        capsys.readouterr()
        assert run("surgery", "--in", str(src), "--strategy", strategy, "--t", "0.8",
                   "--s", "0.3", "--c", "5", "--out", str(out)) == EXIT_OK
        (plan,) = plans
        bound = f"{plan.bound:.6f}"
        (line,) = [row for row in capsys.readouterr().out.splitlines()
                   if row.startswith("seed=")]
        assert line.split()[-1] == f"bound={bound}"
        lines = out.read_text().splitlines()
        assert lines[lines.index("") + 2].split(",")[3] == bound

    def test_deterministic_csv(self, tmp_path):
        src = self._gen(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run("surgery", "--in", str(src), "--strategy", "randomize",
                "--seed", "9", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_raise_summary(self, tmp_path):
        src = self._gen(tmp_path, p=0.11, n=120_000)
        out = tmp_path / "raise.csv"
        assert run("surgery", "--in", str(src), "--strategy", "raise",
                   "--t", "0.8", "--seed", "2", "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        summary = lines[lines.index("") + 2].split(",")
        dim_after, distance, bound = float(summary[1]), float(summary[2]), float(summary[3])
        assert dim_after >= 0.8 - 0.03
        assert abs(distance - bound) <= 0.05

    def test_weak_strategy(self, tmp_path):
        src = self._gen(tmp_path, p=0.11, n=120_000)
        out = tmp_path / "weak.csv"
        assert run("surgery", "--in", str(src), "--strategy", "weak",
                   "--c", "5", "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("j,")

    def test_weak_plans_against_dim_before(self, tmp_path, monkeypatch):
        # 650 bits hold 12 chunks.  The run reports dim_before over the tail
        # boundaries 10..13; the slack schedule and plan_weak_srandom's
        # buffer-margin check must read that same floor
        import dimsurgery.surgery as surgery
        src = self._gen(tmp_path, p=0.11, n=650, seed=1)
        seen = []

        def margin(t_seq, c, s, b):
            seen.append((s, b))
            return buffer_margin(t_seq, c, s, b)

        monkeypatch.setattr(surgery, "buffer_margin", margin)
        out = tmp_path / "weak.csv"
        assert run("surgery", "--in", str(src), "--strategy", "weak", "--c", "5",
                   "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        dim_before = lines[lines.index("") + 2].split(",")[0]
        [(s, b)] = seen
        assert f"{s:.6f}" == dim_before
        s_seq = chunk_dims(BitSequence.from_file(src), BernoulliOracle())
        sched = buffer_schedule(5.0, s_seq)
        assert (sched.floor, sched.b) == (s, b)
        # b is one more than the largest shortfall it absorbs, so at the
        # schedule's own floor the tightest margin of M(s_j, eps_j) is 1
        tight = buffer_margin(raise_profile(s_seq, sched.eps), 5.0, s, b).min()
        assert tight == pytest.approx(1.0, abs=1e-9)
        # the input tells the windows apart: the boundaries 6..12 read lower
        assert float(weighted_series(s_seq)[4:11].min()) < s - 0.1

    def test_weak_bound_reads_the_distance_tail(self, tmp_path):
        # bound is the planned distance over the boundaries that the measured
        # distance reads (the one tail window), not a later tail
        src = self._gen(tmp_path, n=60_000)
        out = tmp_path / "weak.csv"
        assert run("surgery", "--in", str(src), "--strategy", "weak", "--c", "1",
                   "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        blank = lines.index("")
        deltas = [float(line.split(",")[2]) for line in lines[1:blank]]
        bound = float(lines[blank + 2].split(",")[3])
        want = planned_distance(deltas)
        assert bound == pytest.approx(want, abs=1e-5)

    def test_lower_summary(self, tmp_path):
        # lower to s=0.5 on coin input: distance <= Hinv(1/2) + 0.03 ~ 0.14
        src = self._gen(tmp_path, kind="coin", n=150_000, seed=6)
        out = tmp_path / "lower.csv"
        assert run("surgery", "--in", str(src), "--strategy", "lower",
                   "--s", "0.5", "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        summary = lines[lines.index("") + 2].split(",")
        distance, bound = float(summary[2]), float(summary[3])
        assert distance <= 0.14
        assert bound == pytest.approx(0.110028, abs=1e-4)

    def test_lower_to_one_is_the_identity(self, tmp_path):
        # at s = 1 every block code is the whole space: y = x, distance 0
        src = self._gen(tmp_path, kind="coin", n=20_000, seed=2)
        out, y = tmp_path / "lower.csv", tmp_path / "y.bits"
        assert run("surgery", "--in", str(src), "--strategy", "lower", "--s", "1.0",
                   "--out", str(out), "--save-y", str(y)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert float(lines[lines.index("") + 2].split(",")[2]) == 0.0
        assert BitSequence.from_file(y) == BitSequence.from_file(src)

    def test_seed_fanout(self, tmp_path):
        # each seed's CSV is the one a single-seed run writes
        src = self._gen(tmp_path)
        out = tmp_path / "multi.csv"
        assert run("surgery", "--in", str(src), "--strategy", "randomize",
                   "--seed", "1,2", "--out", str(out)) == EXIT_OK
        assert not out.exists()
        for seed in ("1", "2"):
            single = tmp_path / f"single{seed}.csv"
            assert run("surgery", "--in", str(src), "--strategy", "randomize",
                       "--seed", seed, "--out", str(single)) == EXIT_OK
            assert (tmp_path / f"multi.csv.seed{seed}.csv").read_bytes() == single.read_bytes()

    def test_seed_fanout_saves_one_y_per_seed(self, tmp_path):
        # each seed's y file is the one a single-seed run writes
        src = self._gen(tmp_path, n=20_000)
        assert run("surgery", "--in", str(src), "--strategy", "randomize",
                   "--seed", "1,2", "--out", str(tmp_path / "r.csv"),
                   "--save-y", str(tmp_path / "y.bits")) == EXIT_OK
        assert not (tmp_path / "y.bits").exists()
        for seed in ("1", "2"):
            single = tmp_path / f"single{seed}.bits"
            assert run("surgery", "--in", str(src), "--strategy", "randomize",
                       "--seed", seed, "--save-y", str(single)) == EXIT_OK
            fanned = BitSequence.from_file(tmp_path / f"y.bits.seed{seed}.bits")
            assert fanned == BitSequence.from_file(single)
        assert BitSequence.from_file(tmp_path / "y.bits.seed1.bits") != fanned

    def test_seeds_share_one_measurement_and_plan(self, tmp_path, monkeypatch):
        # a plan holds no seed: the input is read, each of its chunks
        # estimated once and the plan built once; then one apply_plan per
        # seed, each with that same plan
        import dimsurgery.cli as cli

        src = self._gen(tmp_path, n=20_000)
        calls = {"read": 0, "plan": 0, "outside_apply": 0}
        plans, inside = [], []

        class SpyEstimator:
            def __init__(self, inner):
                self.inner = inner

            def estimate(self, chunk, context=None):
                calls["outside_apply"] += not inside
                return self.inner.estimate(chunk, context)

        def counted(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        def spy_apply(x, plan, *rest):
            plans.append(plan)
            inside.append(True)
            try:
                return real_apply(x, plan, *rest)
            finally:
                inside.pop()

        real_apply = cli.apply_plan
        monkeypatch.setattr(cli, "parse_estimator",
                            lambda text: SpyEstimator(parse_estimator(text)))
        monkeypatch.setattr(cli.BitSequence, "from_file",
                            counted("read", cli.BitSequence.from_file))
        monkeypatch.setattr(cli, "plan_raise", counted("plan", cli.plan_raise))
        monkeypatch.setattr(cli, "apply_plan", spy_apply)
        assert run("surgery", "--in", str(src), "--strategy", "raise", "--s", "0.5",
                   "--t", "0.8", "--seed", "1,2,3", "--out", str(tmp_path / "r.csv")) == EXIT_OK
        assert calls == {"read": 1, "plan": 1, "outside_apply": chunk_count(20_000)}
        assert len(plans) == 3 and all(plan is plans[0] for plan in plans)

    @pytest.mark.parametrize("argv", [["--seed", "1,,2"], ["--seed", "-1"], ["--seed", "1,1"],
                                      ["--seed", "x"], ["--seeds", "1,2"]],
                             ids=["empty", "negative", "repeated", "word", "seeds"])
    @pytest.mark.parametrize("strategy", ["raise", "lower"])
    def test_bad_seed_is_usage_error(self, tmp_path, capsys, strategy, argv):
        # rejected by the parser, before the (missing) input is read
        with pytest.raises(SystemExit) as exc:
            run("surgery", "--in", str(tmp_path / "none.bits"), "--strategy", strategy,
                *argv)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert ("unrecognized arguments: --seeds" if argv[0] == "--seeds"
                else "argument --seed:") in err

    @pytest.mark.parametrize("strategy", ["randomize", "weak", "raise", "lower"])
    @pytest.mark.parametrize("flag, value", [("s", "1.5"), ("s", "-0.2"), ("t", "1.01"),
                                             ("t", "nan")])
    def test_out_of_range_s_t_is_usage_error(self, tmp_path, capsys, strategy, flag, value):
        # rejected by the parser, before the (missing) input is read
        with pytest.raises(SystemExit) as exc:
            run("surgery", "--in", str(tmp_path / "none.bits"), "--strategy", strategy,
                f"--{flag}={value}")
        assert exc.value.code == EXIT_USAGE
        assert f"argument --{flag}: must lie in [0, 1], got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["surgery", "--strategy", "weak"],
                                         ["verify", "buffer"]])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_c_is_usage_error(self, tmp_path, capsys, command, value):
        # rejected by the parser, before the (missing) input is read or any
        # schedule is built
        extra = ["--in", str(tmp_path / "none.bits")] if command[0] == "surgery" else []
        with pytest.raises(SystemExit) as exc:
            run(*command, *extra, f"--c={value}")
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument --c: must be finite and >= 0, got {value}" in err
        assert "internal" not in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize("value", ["-0.01", "nan", "inf"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, capsys, value):
        # a NaN tolerance would silence the WARN line, a negative one always print it
        with pytest.raises(SystemExit) as exc:
            run("surgery", "--in", str(tmp_path / "none.bits"), "--strategy", "raise",
                f"--tolerance={value}")
        assert exc.value.code == EXIT_USAGE
        assert (f"argument --tolerance: must be finite and >= 0, got {value}"
                in capsys.readouterr().err)

    def test_tolerance_sets_the_warning(self, tmp_path, capsys):
        # block:8 reads this Bernoulli(H^-1(1/2)) input at 0.828: distance
        # 0.138868 against bound 0.108101
        src = self._gen(tmp_path, p=float(entropy_inv(0.5)), n=100_000, seed=1)
        argv = ["surgery", "--in", str(src), "--strategy", "raise", "--t", "0.95",
                "--estimator", "block:8", "--out", str(tmp_path / "r.csv")]
        for tolerance, warns in [("0.02", True), ("0.05", False)]:
            assert run(*argv, "--tolerance", tolerance) == EXIT_OK
            assert ("WARN" in capsys.readouterr().out) == warns

    @pytest.mark.parametrize("t, bound", [("0.7", 0.082241), ("0.9", 0.208962)])
    def test_raise_on_alternating_profile_stays_under_its_bound(
            self, tmp_path, profile_input, t, bound):
        # chunks alternate between dimensions 0.8 and 0.2 (dim_before 0.491):
        # water-filling lands on t and changes fewer bits than g(t) - g(0.491)
        src, out = tmp_path / "x.bits", tmp_path / "r.csv"
        profile_input("alternating", 1_000_000, 0).to_file(src)
        assert run("surgery", "--in", str(src), "--strategy", "raise", "--t", t,
                   "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        summary = [float(v) for v in lines[lines.index("") + 2].split(",")]
        dim_after, distance = summary[1], summary[2]
        assert summary[3] == bound
        assert distance < bound
        assert float(t) <= dim_after <= float(t) + 0.02

    @pytest.mark.parametrize("strategy", ["randomize", "weak", "raise", "lower"])
    def test_input_is_estimated_once(self, tmp_path, monkeypatch, strategy):
        # the CLI's one pass estimates each complete input chunk against its
        # input prefix x[:n_j], in order; apply_plan then makes no estimate
        # before its first chunk step.  That pass gives the s_j column and
        # dim_before, equal to a fresh sequence_dim pass
        import dimsurgery.cli as cli
        import dimsurgery.surgery as surgery

        src = self._gen(tmp_path, n=20_000)
        x = BitSequence.from_file(src).bits
        spec = "compressor:zlib"                 # remembers the last context it saw
        calls, marks = [], {}

        class SpyEstimator:
            def __init__(self, inner):
                self.inner = inner

            def estimate(self, chunk, context=None):
                calls.append((np.asarray(chunk).tobytes(), np.asarray(context).tobytes()))
                return self.inner.estimate(chunk, context)

        def mark_first(name, fn):
            def wrapped(*args, **kwargs):
                marks.setdefault(name, len(calls))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cli, "parse_estimator",
                            lambda text: SpyEstimator(parse_estimator(text)))
        monkeypatch.setattr(cli, "apply_plan", mark_first("apply", cli.apply_plan))
        for step in ("raise_chunk", "lower_chunk"):
            monkeypatch.setattr(surgery, step, mark_first("step", getattr(surgery, step)))
        out = tmp_path / "run.csv"
        assert run("surgery", "--in", str(src), "--strategy", strategy, "--s", "0.5",
                   "--t", "0.8", "--c", "5", "--estimator", spec,
                   "--out", str(out)) == EXIT_OK

        count = chunk_count(x.size)
        bounds = [chunk_boundary(j) for j in range(1, count + 2)]
        assert calls[:marks["apply"]] == [(x[lo:hi].tobytes(), x[:lo].tobytes())
                                          for lo, hi in zip(bounds, bounds[1:])]
        assert marks["step"] == marks["apply"]
        before = sequence_dim(x, parse_estimator(spec))
        lines = out.read_text().splitlines()
        blank = lines.index("")
        assert [line.split(",")[1] for line in lines[1:blank]] == [
            f"{v:.6f}" for v in before.chunk_values]
        assert lines[blank + 2].split(",")[0] == f"{before.tail_min:.6f}"

    def test_missing_input_is_io_error(self, tmp_path):
        assert run("surgery", "--in", str(tmp_path / "nope.bits"),
                   "--strategy", "randomize") == EXIT_IO


class TestMalformedBitFile:
    """Every malformed bit file exits EXIT_IO with one stderr line."""

    def _surgery_on(self, tmp_path, capsys, payload: bytes, sidecar: str) -> int:
        path = tmp_path / "bad.bits"
        path.write_bytes(payload)
        (tmp_path / "bad.bits.len").write_text(sidecar)
        code = run("surgery", "--in", str(path), "--strategy", "randomize")
        err = capsys.readouterr().err
        assert err.startswith("dimsurgery: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return code

    def test_non_integer_length(self, tmp_path, capsys):
        assert self._surgery_on(tmp_path, capsys, bytes(4), "len=abc\n") == EXIT_IO

    def test_missing_len_prefix(self, tmp_path, capsys):
        assert self._surgery_on(tmp_path, capsys, bytes(4), "32\n") == EXIT_IO

    def test_file_too_short(self, tmp_path, capsys):
        assert self._surgery_on(tmp_path, capsys, bytes(3), "len=32\n") == EXIT_IO

    def test_trailing_bytes(self, tmp_path, capsys):
        assert self._surgery_on(tmp_path, capsys, bytes(5), "len=32\n") == EXIT_IO


class TestConfigAndCodes:
    def test_usage_error_exit(self):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--kind", "marswalk", "--out", "x")
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv, flag", [
        (["gen", "--kind", "coin", "--n", "-5"], "--n"),
        (["gen", "--kind", "coin", "--seed", "-1"], "--seed"),
        (["verify", "harper", "--n", "3", "--seed", "-9"], "--seed"),
        (["verify", "duplication", "--seed", "-1"], "--seed"),
    ], ids=["gen-n", "gen-seed", "verify-harper-seed", "verify-duplication-seed"])
    def test_negative_int_names_its_flag(self, tmp_path, capsys, argv, flag):
        # the parser rejects it before any work, not numpy from inside a generator
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", str(out))
        assert exc.value.code == EXIT_USAGE
        named = [line for line in capsys.readouterr().err.splitlines()
                 if f"argument {flag}:" in line]
        assert named == [named[0]] and named[0].endswith(f"must be >= 0, got {argv[-1]}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag, rule", [
        (["gen", "--kind", "coin", "--p", "7"], "--p", "lie in [0, 1]"),
        (["gen", "--kind", "coin", "--stride", "-4"], "--stride", "be >= 1"),
        (["gen", "--kind", "bernoulli", "--p", "2"], "--p", "lie in [0, 1]"),
        (["gen", "--kind", "zero_padded", "--stride", "0"], "--stride", "be >= 1"),
    ], ids=["coin-p", "coin-stride", "bernoulli-p", "zero_padded-stride"])
    def test_gen_flag_out_of_range_names_it(self, tmp_path, capsys, argv, flag, rule):
        # checked by the parser even for a kind that does not read the flag
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", str(out))
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        named = [line for line in err if f"argument {flag}:" in line]
        assert named == [named[0]] and named[0].endswith(f"must {rule}, got {argv[-1]}")
        assert not out.exists()

    def test_config_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=1234\nseed=5\n# comment\n")
        out = tmp_path / "x.bits"
        assert run("--config", str(cfg), "gen", "--kind", "coin",
                   "--out", str(out)) == EXIT_OK
        assert len(BitSequence.from_file(out)) == 1234

    @pytest.mark.parametrize("spelling", [["--config={}"], ["--conf", "{}"]],
                             ids=["equals", "abbreviated"])
    def test_config_any_spelling(self, tmp_path, spelling):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=1234\n")
        out = tmp_path / "x.bits"
        assert run(*[token.format(cfg) for token in spelling], "gen", "--kind", "coin",
                   "--out", str(out)) == EXIT_OK
        assert len(BitSequence.from_file(out)) == 1234

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=1234\n")
        out = tmp_path / "x.bits"
        run("--config", str(cfg), "gen", "--kind", "coin", "--n", "99",
            "--out", str(out))
        assert len(BitSequence.from_file(out)) == 99

    @pytest.mark.parametrize("text, key", [("sed=3\n", "sed"), ("n=5\nseeds=1,2\n", "seeds"),
                                           ("searcher=greedy\n", "searcher")],
                             ids=["typo", "deleted-flag", "deleted-searcher"])
    def test_config_key_of_no_command_is_usage_error(self, tmp_path, capsys, text, key):
        # reported before any work: no output file, one stderr line
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        out = tmp_path / "x.bits"
        assert run("--config", str(cfg), "gen", "--kind", "coin", "--out", str(out)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"dimsurgery: config {cfg}: key {key!r} names no flag\n"

    def test_config_key_of_another_command_passes(self, tmp_path, capsys):
        # n= is a flag of gen and verify, not of curves: one file serves all
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=5\n")
        assert run("--config", str(cfg), "curves", "--grid", "0.5") == EXIT_OK
        assert capsys.readouterr().out.startswith("s,t,naive,raise,lower\n")

    def test_missing_config_is_io_error(self, tmp_path):
        assert run("--config", str(tmp_path / "none.cfg"), "curves") == EXIT_IO

    @staticmethod
    def _one_error_line(capsys) -> None:
        err = capsys.readouterr().err
        assert err.startswith("dimsurgery: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("payload", [b"n=5\nbogus\n", "n=5\nkind=caf\u00e9\n".encode()],
                             ids=["no-equals", "non-ascii"])
    def test_malformed_config_is_io_error(self, tmp_path, capsys, payload):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(payload)
        assert run("--config", str(cfg), "curves") == EXIT_IO
        self._one_error_line(capsys)

    @pytest.mark.parametrize("argv, text", [
        (["gen", "--kind", "coin"], "n=abc\n"),
        (["curves"], "grid=x\n"),
        (["gen", "--kind", "coin"], "n=\n"),
    ], ids=["gen-n-abc", "curves-grid-x", "gen-n-empty"])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, argv, text):
        # the value goes through the flag's own type, as --n abc would
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            run("--config", str(cfg), *argv, "--out", str(tmp_path / "out"))
        assert exc.value.code == EXIT_USAGE
        assert "error: argument --" in capsys.readouterr().err

    @pytest.mark.parametrize("searcher", ["steepest", "random_fill", "greedy"])
    def test_deleted_searcher_is_usage_error(self, tmp_path, searcher):
        # raise_chunk has one search: no value of the flag is accepted
        with pytest.raises(SystemExit) as exc:
            run("surgery", "--in", str(tmp_path / "x.bits"), "--strategy", "raise",
                "--searcher", searcher)
        assert exc.value.code == EXIT_USAGE

    def test_unplannable_raise_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # a plan whose own arithmetic invariant fails is a usage error; the
        # water-filling plan has met its budget on every input tried, so the
        # planner is made to fail here
        import dimsurgery.cli as cli

        def over_budget(s_seq, t):
            raise cli.PlanInvariantError("planned aggregate distance over budget")

        monkeypatch.setattr(cli, "plan_raise", over_budget)
        src = tmp_path / "x.bits"
        run("gen", "--kind", "coin", "--n", "2000", "--seed", "1", "--out", str(src))
        capsys.readouterr()
        assert run("surgery", "--in", str(src), "--strategy", "raise",
                   "--t", "0.8") == EXIT_USAGE
        self._one_error_line(capsys)

    def test_unknown_compressor_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "x.bits"
        run("gen", "--kind", "coin", "--n", "2000", "--seed", "1", "--out", str(src))
        capsys.readouterr()
        assert _exit_code(["surgery", "--in", str(src), "--strategy", "randomize",
                           "--estimator", "compressor:foo"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "argument --estimator: unknown estimator 'compressor:foo'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec", ["block:abc", "block:0", "block:25", "block",
                                      "compressor:gzip", "bogus"])
    def test_bad_estimator_is_refused_before_the_input_is_read(self, tmp_path, capsys,
                                                               monkeypatch, spec):
        # --estimator is a parser type: a malformed spec exits 2 and names the
        # flag and the accepted forms, even when --in names no file
        import dimsurgery.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("the input was read before --estimator was checked")

        monkeypatch.setattr(cli.BitSequence, "from_file", never)
        assert _exit_code(["surgery", "--in", str(tmp_path / "none.bits"),
                           "--strategy", "raise", "--estimator", spec]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"argument --estimator: unknown estimator {spec!r}; expected bernoulli, "
                f"block:K with K in [1, 24] or compressor:NAME with NAME in "
                f"['bz2', 'lzma', 'zlib']") in captured.err


def _exit_code(argv) -> int:
    """main's return value, or the code of argparse's usage exit; any other
    exception escapes and fails the calling test."""
    try:
        return main(argv)
    except SystemExit as exc:
        assert exc.code == EXIT_USAGE
        return EXIT_USAGE


@st.composite
def _bit_files(draw):
    """(sidecar bytes, payload bytes) of up to 400 bits; the sidecar is the
    header that matches the payload, any `len=` header, or arbitrary bytes."""
    payload = draw(st.binary(max_size=50))
    exact = f"len={max(0, 8 * len(payload) - draw(st.integers(0, 7)))}\n".encode()
    sidecar = draw(st.one_of(st.just(exact),
                             st.integers(0, 10_000).map(lambda n: f"len={n}\n".encode()),
                             st.binary(max_size=24)))
    return sidecar, payload


# (command argv, config key, the flag's type); each command is cheap, should
# a value get through
_CONFIG_FLAGS = [
    (["gen", "--kind", "coin"], "n", int),
    (["gen", "--kind", "coin"], "stride", int),
    (["gen", "--kind", "bernoulli"], "p", float),
    (["curves"], "grid", float),
    (["verify", "concavity", "--grid", "0.25"], "trials", int),
    (["verify", "concavity", "--grid", "0.25"], "delta", float),
    (["verify", "concavity", "--grid", "0.25"], "horizon", int),
    (["surgery", "--strategy", "raise"], "seed", _seed_list),
    (["surgery", "--strategy", "raise"], "t", float),
    (["surgery", "--strategy", "raise"], "estimator", parse_estimator),
]


def _valid(kind, value: str) -> bool:
    try:
        kind(value)
    except (ValueError, argparse.ArgumentTypeError):
        return False
    return True


class TestExitCodeProperties:
    """Arbitrary malformed input ends in a documented exit code: 0, 2 or 3
    from main, or argparse's SystemExit(2); never a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(files=_bit_files(),
           strategy=st.sampled_from(["randomize", "weak", "raise", "lower"]),
           estimator=st.sampled_from(["bernoulli", "compressor:zlib"]))
    # zlib rates both chunks of these 8 zero bits at 1 (its header overhead),
    # so weak has no headroom below dimension 1
    @example(files=(b"len=8\n", b"\x00"), strategy="weak", estimator="compressor:zlib")
    # 6 bits hold 2 chunks: plan_raise runs its budget check on the smallest tail
    @example(files=(b"len=6\n", b"\x00"), strategy="raise", estimator="bernoulli")
    def test_surgery_on_any_bit_file(self, files, strategy, estimator):
        sidecar, payload = files
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "x.bits")
            with open(path, "wb") as fh:
                fh.write(payload)
            with open(path + ".len", "wb") as fh:
                fh.write(sidecar)
            # --t below 1, or raise would plan for randomize's t = 1
            code = _exit_code(["surgery", "--in", path, "--strategy", strategy, "--t", "0.8",
                               "--estimator", estimator, "--out", os.path.join(tmp, "r.csv")])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO)

    @settings(max_examples=60, deadline=None)
    @given(flag=st.sampled_from(_CONFIG_FLAGS),
           value=st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                       blacklist_characters="#"), max_size=8))
    def test_config_value_of_wrong_type(self, flag, value):
        argv, key, kind = flag
        value = value.strip()
        if _valid(kind, value):
            value += "x"                        # no int, float or seed list ends in x
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "bad.cfg")
            with open(cfg, "w", encoding="ascii") as fh:
                fh.write(f"{key}={value}\n")
            extra = ["--in", os.path.join(tmp, "none.bits")] if argv[0] == "surgery" else []
            code = _exit_code(["--config", cfg, *argv, *extra,
                               "--out", os.path.join(tmp, "out")])
        assert code == EXIT_USAGE


class TestOutputPins:
    """sha256 of CLI output bytes: any change in a printed digit of these
    outputs fails here, so a refactor of the entropy calculus or the planners
    that keeps them byte-identical is a test, not a hand check."""

    PINS = {
        "curves_0.05":
            "a7b788610a7ce024f9835d4f6d3f8904e6013bf498cf10ee90cd2e19a5fbc8db",
        "curves_0.01":
            "843fa9ff41d1c85264a9aeb28cb100c64bd6946927693c933c5d57fa4f5275f0",
        "verify_buffer":
            "d273915f8e7d8b5270fd6462786079e94a9e904a8dedc128d1e3a5e5a75a60b9",
        "verify_buffer_1e5":
            "d4f83eb8b1c60a64a3af51b8f9706fc07f5df842ba7635dad8eefc8fedd7a26a",
        "randomize":
            "ab7abdc18446abfd5965747631674e1b119ff2c0671b6a3726387549dcc29aa4",
        "randomize_y":
            "f8743fd53f25f5f472445fd8e61d8beee4a287bc10f98f291f98386b617d6ac2",
        "weak":
            "71333e44886c716c69dbb638d5c4100af8d4266b054f2692ff964c39168b07d9",
        "weak_y":     # at 60000 bits and c = 5 every weak budget and target is 1
            "f8743fd53f25f5f472445fd8e61d8beee4a287bc10f98f291f98386b617d6ac2",
        "weak_tail":  # at c = 0.1 the budgets halve from chunk 6 on
            "5ce67efb2442e740428d154af7db6d27993ef1e76889f32088be54a93b1aa36c",
        "weak_tail_y":
            "45c6df0462e32dd1c8cbd2a7324c011eccedf72c0ad03a523a320bd3f272dcba",
        "raise_p0.013":
            "8d5b1e38ad7172efd001c95c683b72ffa51d898a0245cd2033ad5fad5c06eba8",
        "raise_p0.013_y":
            "1d4a51a6cb9aaf08cfa9d035944bb0b318163fa49c3adde28db3136e9b8d8fb5",
        "raise_p0.11":
            "b7b27d41aa7138aa61c464a2b80751c3586afde8f937747ba71afc95fbe0c131",
        "raise_p0.11_y":
            "1f042842d9acc9e16c36533872541a917543d203561342620f1010de22da914e",
        "raise_zlib":
            "3dfb41f5a40a9aa07eb2346f5298ab1a7ce6f0c71dc4668870b641a25e398644",
        "raise_zlib_y":
            "fd597e5368d6d7332d0d378dc8f631f271f3d957520121b2879b412fa588dabb",
        "raise_lzma":
            "a9c353b11ea19b9aa14e33938ecdd654cb1a8701bd77fc561003e203e8b54e09",
        "raise_bz2":
            "32a5df68c1b4fd3ef2311f19c1f34e5d2031bbf7ff3d4e6b950982ea634a2677",
        "raise_block8":
            "ebbc83698a6fdccd3410a1836874e4f471926250c34893ca67ccef400f58a36c",
        "raise_block8_y":
            "6b73685205174a9d60e8f6480c1973b54200ac25efb6496f9a92dbf174a5c956",
        "raise_alternating":
            "a1435d2ed50efd28d4475feed223dde01f9a988f6289d6dd314341cf9378089c",
        "raise_alternating_y":
            "8bcd49550794fc5c112aa979b58cd32a862d98a5e997c57c1bb83276e397a88e",
        "lower":
            "c6f6e17a96a219030309532ff9162328a25775115893ab2e9f6bbecdf1108eb1",
        "lower_y":    # the --save-y payload
            "aad84c02cccc6b60202193b2733234cba22b2e2d20f04b04c5305ff7a5800fbf",
    }

    # (strategy, bernoulli p of the input, extra flags); raise reads no --s,
    # so its runs pass only --t.  The flags follow `--estimator bernoulli`,
    # so an --estimator among them wins: zlib reads the constructed prefix,
    # which bernoulli ignores.
    SURGERY = {
        "randomize": ("randomize", "0.11", []),
        "weak": ("weak", "0.11", ["--c", "5"]),
        "weak_tail": ("weak", "0.11", ["--c", "0.1"]),
        "raise_p0.013": ("raise", "0.013", ["--t", "0.3"]),
        "raise_p0.11": ("raise", "0.11", ["--t", "0.8"]),
        "raise_zlib": ("raise", "0.11", ["--t", "0.8", "--estimator", "compressor:zlib"]),
        "raise_lzma": ("raise", "0.11", ["--t", "0.8", "--estimator", "compressor:lzma"]),
        "raise_bz2": ("raise", "0.11", ["--t", "0.8", "--estimator", "compressor:bz2"]),
        "raise_block8": ("raise", "0.11", ["--t", "0.8", "--estimator", "block:8"]),
        "lower": ("lower", "0.5", ["--s", "0.5"]),
    }

    def _check(self, name: str, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        assert digest == self.PINS[name], f"{name}: {digest}"

    @pytest.mark.parametrize("grid", ["0.05", "0.01"])
    def test_curves(self, tmp_path, grid):
        out = tmp_path / "curves.csv"
        assert run("curves", "--grid", grid, "--out", str(out)) == EXIT_OK
        self._check(f"curves_{grid}", out.read_bytes())

    def test_verify_buffer(self, capsys):
        assert run("verify", "buffer", "--horizon", "2000") == EXIT_OK
        self._check("verify_buffer", capsys.readouterr().out.encode())

    def test_verify_buffer_at_1e5(self, capsys):
        # the schedule's targets and floor feed the margin and the printed
        # s= and b=; at this horizon every family halves eps many times
        assert run("verify", "buffer", "--horizon", "100000") == EXIT_OK
        self._check("verify_buffer_1e5", capsys.readouterr().out.encode())

    def test_weak_tail_differs_from_randomize(self):
        # the weak_tail run pins a weak search of its own: with budgets below
        # 1 it flips other bits than randomize on the same input and seed
        assert self.PINS["weak_tail_y"] != self.PINS["randomize_y"]

    @pytest.mark.parametrize("name", sorted(SURGERY))
    def test_surgery_csv(self, tmp_path, name):
        strategy, p, flags = self.SURGERY[name]
        src = tmp_path / "x.bits"
        run("gen", "--kind", "bernoulli", "--p", p, "--n", "60000", "--seed", "4",
            "--out", str(src))
        out, y = tmp_path / "run.csv", tmp_path / "y.bits"
        assert run("surgery", "--in", str(src), "--strategy", strategy,
                   "--estimator", "bernoulli", *flags, "--seed", "1",
                   "--out", str(out), "--save-y", str(y)) == EXIT_OK
        self._check(name, out.read_bytes())
        if f"{name}_y" in self.PINS:
            self._check(f"{name}_y", y.read_bytes())

    def test_raise_on_alternating_profile(self, tmp_path, profile_input):
        # a non-stationary input: chunk dimensions alternate 0.8, 0.2, ...
        src, out, y = tmp_path / "x.bits", tmp_path / "run.csv", tmp_path / "y.bits"
        profile_input("alternating", 60_000, 4).to_file(src)
        assert run("surgery", "--in", str(src), "--strategy", "raise", "--t", "0.7",
                   "--seed", "1", "--out", str(out), "--save-y", str(y)) == EXIT_OK
        self._check("raise_alternating", out.read_bytes())
        self._check("raise_alternating_y", y.read_bytes())
