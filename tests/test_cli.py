"""CLI contract: CSV schema, exit codes, determinism."""

import hashlib
import math
import random

import numpy as np
import pytest

import hardyconst.hardy
import hardyconst.verify
from hardyconst import StepFunction, VerificationReport
from hardyconst.cli import CSV_HEADER, _build_parser, main
from hardyconst.domain import _linspace
from hardyconst.errors import ConvergenceError

ANCHOR_ARGS = ["--p", "2", "--q", "1.5", "--s1", "0.75", "--s2", "0.9185586535436918"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_anchor_row(self, capsys):
        code, out, err = run(capsys, ["solve", *ANCHOR_ARGS])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert len(fields) == 11
        row = dict(zip(CSV_HEADER.split(","), fields))
        assert row["status"] == "ok"
        assert float(row["t"]) == pytest.approx(1.5, abs=1e-9)
        assert float(row["dt_ds1"]) == pytest.approx(-1.0, abs=1e-9)
        assert float(row["gamma"]) == pytest.approx(-1.5, abs=1e-9)
        assert float(row["delta"]) == pytest.approx(2.25, abs=1e-9)
        assert abs(float(row["residual"])) <= 1e-10

    def test_outside_domain_exit_code(self, capsys):
        code, out, err = run(capsys, ["solve", "--p", "2", "--q", "1.5", "--s1", "0.81", "--s2", "0.5"])
        assert code == 2
        assert err.startswith("error: outside-domain:")
        assert out == ""

    def test_limit_point(self, capsys):
        code, out, _ = run(capsys, ["solve", "--p", "2", "--q", "1.5", "--s1", "1e-8", "--s2", "0.5"])
        assert code == 0
        t = float(out.strip().splitlines()[1].split(",")[4])
        assert abs(t - 2.0) <= 1e-3

    def test_bad_exponents_exit_code(self, capsys):
        code, _, err = run(capsys, ["solve", "--p", "1.5", "--q", "2", "--s1", "0.5", "--s2", "0.8"])
        assert code == 2
        assert err.startswith("error: domain-error:")


class TestScan:
    def test_rows_and_monotonicity(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, _, _ = run(capsys, [
            "scan", "--p", "2", "--q", "1.5", "--s2", "0.92",
            "--s1-min", "0.1", "--s1-max", "0.8", "--n", "8",
            "--out", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 9
        ts = [float(r.split(",")[4]) for r in lines[1:] if r.split(",")[-1] == "ok"]
        assert len(ts) == 8
        assert all(b < a for a, b in zip(ts, ts[1:]))

    def test_row_ending_on_the_no_root_frontier(self, capsys):
        # s1-max lies within rounding of g(1) = 0, where tau at a root would
        # round to 1 and gamma's bracket factor is singular: the last row is
        # no-root, not an error
        code, out, err = run(capsys, [
            "scan", "--p", "3", "--q", "2", "--s2", "0.9",
            "--s1-min", "0.5", "--s1-max", "0.7827607782008289", "--n", "3",
        ])
        assert (code, err) == (0, "")
        rows = out.strip().splitlines()[1:]
        assert [r.split(",")[-1] for r in rows] == ["ok", "ok", "no-root"]

    def test_no_root_rows_where_p_conj_is_at_the_floor(self, capsys):
        # p/(p-1) = 1 + 1e-14 leaves no t above the floor 1 + 1e-12
        code, out, err = run(capsys, [
            "scan", "--p", "1e14", "--q", "2e13", "--s2", "0.5",
            "--s1-min", "1e-300", "--s1-max", "1e-200", "--n", "2",
        ])
        assert (code, err) == (0, "")
        rows = out.strip().splitlines()[1:]
        assert [r.split(",")[-1] for r in rows] == ["no-root", "no-root"]

    def test_infeasible_tau_rows_on_an_extreme_pair(self, capsys):
        # has_root admits both points, but tau(t) rounds above 1 there
        code, out, err = run(capsys, [
            "scan", "--p", "18683881648.77494", "--q", "28501.89607527246",
            "--s2", "0.9999999999999962", "--s1-min", "0.9997549884389365",
            "--s1-max", "0.99976", "--n", "2",
        ])
        assert (code, err) == (0, "")
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        assert [r[4:] for r in rows] == [["nan"] * 6 + ["infeasible-tau"]] * 2

    def test_status_rows_for_infeasible_points(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        # s1 beyond the lower boundary of s2=0.5 is outside the region
        code, _, _ = run(capsys, [
            "scan", "--p", "2", "--q", "1.5", "--s2", "0.5",
            "--s1-min", "0.1", "--s1-max", "0.9", "--n", "5",
            "--out", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 6  # rectangular: every grid point gets a row
        statuses = [r.split(",")[-1] for r in lines[1:]]
        assert "outside-domain" in statuses
        bad = next(r for r in lines[1:] if r.split(",")[-1] != "ok")
        assert math.isnan(float(bad.split(",")[4]))

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "scan", "--p", "2", "--q", "1.5", "--s2", "0.85", "0.92",
            "--s1-min", "0.05", "--s1-max", "0.7", "--n", "6",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, [*args, "--out", str(a)])[0] == 0
        assert run(capsys, [*args, "--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("p, q, s2s, s1_min", [
        ("3", "2", ["0.6", "0.9"], "1e-300"),
        ("5", "1.2", ["0.95", "0.97"], "1e-12"),
    ], ids=["3-2", "5-1.2"])
    def test_ok_rows_equal_solve_rows(self, capsys, p, q, s2s, s1_min):
        code, out, _ = run(capsys, [
            "scan", "--p", p, "--q", q, "--s2", *s2s,
            "--s1-min", s1_min, "--s1-max", "0.35", "--n", "9",
        ])
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 18
        for row in rows:
            assert row.endswith(",ok")
            s1, s2 = row.split(",")[2:4]
            code, out, _ = run(capsys, ["solve", "--p", p, "--q", q, "--s1", s1, "--s2", s2])
            assert code == 0
            assert out == f"{CSV_HEADER}\n{row}\n"

    def test_minimal_grid(self, capsys):
        code, out, _ = run(capsys, [
            "scan", "--p", "2", "--q", "1.5", "--s2", "0.9",
            "--s1-min", "0.2", "--s1-max", "0.4", "--n", "2",
        ])
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    @pytest.mark.parametrize("s1_min, s1_max, n, message", [
        ("0.4", "0.2", "5", "need 0 < s1-min < s1-max < 1, got 0.4, 0.2"),
        ("0", "0.2", "5", "need 0 < s1-min < s1-max < 1, got 0.0, 0.2"),
        ("0.2", "1.0", "5", "need 0 < s1-min < s1-max < 1, got 0.2, 1.0"),
        ("0.2", "0.4", "1", "need a grid of at least 2 points, got n=1"),
    ], ids=["min-above-max", "min-zero", "max-one", "one-point"])
    def test_bad_grid_exit_code(self, capsys, s1_min, s1_max, n, message):
        code, out, err = run(capsys, [
            "scan", "--p", "2", "--q", "1.5", "--s2", "0.9",
            "--s1-min", s1_min, "--s1-max", s1_max, "--n", n,
        ])
        assert code == 2
        assert err == f"error: domain-error: {message}\n"
        assert out == ""

    def test_grid_too_large_for_memory(self, capsys, monkeypatch):
        # the grid's one allocation raises MemoryError for a grid that does
        # not fit; none is made here
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("hardyconst.cli._linspace", no_memory)
        code, out, err = run(capsys, [
            "scan", "--p", "2", "--q", "1.5", "--s2", "0.9",
            "--s1-min", "1e-3", "--s1-max", "0.5", "--n", "100000000000",
        ])
        assert code == 2
        assert err == (
            "error: domain-error: an s1 grid of --n 100000000000 points does not fit in memory\n"
        )
        assert out == ""

    @pytest.mark.parametrize("n", [str(2**61), str(10**20)], ids=["2^61", "1e20"])
    def test_grid_past_the_address_space(self, capsys, n):
        # the real allocation: a list this long is refused before any memory
        # is asked for, or its length is no index, so the request fails at
        # once with the same message
        code, out, err = run(capsys, [
            "scan", "--p", "2", "--q", "1.5", "--s2", "0.9",
            "--s1-min", "1e-3", "--s1-max", "0.5", "--n", n,
        ])
        assert code == 2
        assert err == f"error: domain-error: an s1 grid of --n {n} points does not fit in memory\n"
        assert out == ""

    def test_grid_is_linspace_bit_for_bit(self):
        # scan's grid builds no array; it must still be np.linspace's floats,
        # on the scan's own range and on ends whose step underflows to 0
        rng = random.Random(20251019)
        cases = [(5e-324, 1e-323, n) for n in (2, 3, 4, 7, 50)]
        for _ in range(4000):
            kind = rng.randrange(3)
            n = rng.choice((2, 3, rng.randrange(2, 40), rng.randrange(2, 400)))
            if kind == 0:  # scan's range, 0 < s1-min < s1-max < 1
                lo, hi = sorted((rng.random(), rng.random()))
            elif kind == 1:  # any magnitude, narrow to wide
                lo = 10.0 ** rng.uniform(-320.0, 0.0)
                hi = lo * (1.0 + 10.0 ** rng.uniform(-16.0, 2.0))
            else:  # a few subnormal ulps apart
                lo = rng.randrange(0, 40) * 5e-324
                hi = lo + rng.randrange(1, 20) * 5e-324
            cases.append((lo, hi, n))
        assert sum((hi - lo) / (n - 1) == 0.0 for lo, hi, n in cases) > 100
        cases += [(lo, hi, n) for lo, hi in ((0.2, 0.4), (5e-324, 1e-323)) for n in (0, 1)]
        for lo, hi, n in cases:
            want = [x.hex() for x in np.linspace(lo, hi, n).tolist()]
            assert [x.hex() for x in _linspace(lo, hi, n)] == want, (lo, hi, n)

    def test_empty_s2_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--p", "2", "--q", "1.5", "--s2",
                  "--s1-min", "0.2", "--s1-max", "0.4", "--n", "2"])
        assert exc.value.code == 2

    def test_unwritable_path_exit_code(self, capsys):
        code, _, err = run(capsys, [
            "scan", "--p", "2", "--q", "1.5", "--s2", "0.9",
            "--s1-min", "0.2", "--s1-max", "0.4", "--n", "2",
            "--out", "/nonexistent-dir/scan.csv",
        ])
        assert code == 3
        assert err.startswith("error: io-error:")

    def test_17_digit_serialization(self, capsys):
        code, out, _ = run(capsys, ["solve", *ANCHOR_ARGS])
        row = out.strip().splitlines()[1].split(",")
        # s2 echoes the input with 17 significant digits, round-trip exact
        assert row[3] == "0.91855865354369182"
        assert float(row[3]) == 0.9185586535436918


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--p", "2", "--q", "1.5", "--grid", "12"])
        assert code == 0
        assert "suites passed" in out
        assert "[FAIL]" not in out

    @pytest.mark.parametrize(
        "p,q",
        [("2.5", "1.3"), ("5", "1.2"), ("4.023077022296251", "1.8959193885654708")],
        ids=["stiff-p2.5q1.3", "stiff-p5q1.2", "fd-noise-p4.02"],
    )
    def test_hard_pairs_pass(self, capsys, p, q):
        # the limit ladder must stay inside the region for stiff pairs, and
        # solver noise must not spoil the finite-difference check
        code, out, _ = run(capsys, ["verify", "--p", p, "--q", q, "--grid", "10"])
        assert code == 0
        assert "7/7 suites passed" in out

    def test_pairs_across_the_exponent_spread_pass(self, capsys):
        # q from near 1 to near p, where the threshold H_q(p/(p-1)) falls
        # below every limit_suite row
        failed = []
        for p in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0):
            for f in (0.1, 0.3, 0.5, 0.7, 0.9, 0.97):
                q = 1.0 + f * (p - 1.0)
                argv = ["verify", "--p", repr(p), "--q", repr(q), "--grid", "10"]
                code, out, _ = run(capsys, argv)
                if code:
                    failed.append((p, q, [line for line in out.splitlines() if "[FAIL]" in line]))
        assert failed == []

    def test_skip_counts_pinned(self, capsys):
        # only no-root grid points and s1 rows without two solvable points
        # are skipped; the ten s2 = 0.15 points whose root lies less than an
        # ulp below p' are solvable (tests/test_oracle.py).  The derivative
        # suite checks 16 nodes and one integral on each of its 3 rows
        code, out, _ = run(capsys, ["verify", "--p", "5", "--q", "1.2", "--grid", "10"])
        assert code == 0
        lines = out.splitlines()
        assert "[PASS] sign suite (gamma<0, delta>0, lambda>0): 297 checks, 1 skipped" in lines
        assert "[PASS] derivative identity, integrated along s1: 51 checks" in lines

    def test_grid_too_small_rejected(self, capsys):
        code, _, err = run(capsys, ["verify", "--p", "2", "--q", "1.5", "--grid", "5"])
        assert code == 2
        assert "error:" in err

    def test_grid_too_large_for_memory(self, capsys, monkeypatch):
        # the grid's one allocation raises MemoryError for a grid that does
        # not fit; none is made here
        linspace = hardyconst.verify._linspace

        def no_memory(lo, hi, n):
            if n > 10**6:
                raise MemoryError
            return linspace(lo, hi, n)

        monkeypatch.setattr(hardyconst.verify, "_linspace", no_memory)
        code, out, err = run(
            capsys, ["verify", "--p", "2", "--q", "1.5", "--grid", "1000000000000"]
        )
        assert code == 2
        assert err == (
            "error: domain-error: a verify grid of 1000000000000 points does not fit in memory\n"
        )
        assert out == ""

    @pytest.mark.parametrize(
        "n", [str(2**61), str(10**20), str(2**63 - 1)], ids=["2^61", "1e20", "2^63-1"]
    )
    def test_grid_past_the_address_space(self, capsys, n):
        # the real allocation, as scan's: refused before any memory is asked
        # for, or the length is no index
        code, out, err = run(capsys, ["verify", "--p", "2", "--q", "1.5", "--grid", n])
        assert code == 2
        assert err == f"error: domain-error: a verify grid of {n} points does not fit in memory\n"
        assert out == ""

    def test_grid_row_whose_s1_underflows(self, capsys):
        # the sign suite's first row, s2 = 0.15, has s1_top = 0.15^999999,
        # which underflows to 0
        code, out, err = run(capsys, ["verify", "--p", "1e6", "--q", "2"])
        assert code == 2
        assert err == (
            "error: domain-error: sign suite (gamma<0, delta>0, lambda>0): the s1 row "
            "at s2=0.15 for p=1000000.0, q=2.0 starts at 0.02 * s2^((p-1)/(q-1)), "
            "which underflows to 0\n"
        )
        assert out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_bad_tol_rejected(self, capsys, tol):
        code, out, err = run(capsys, ["verify", "--p", "2", "--q", "1.5", "--tol", tol])
        assert code == 2
        assert err == f"error: domain-error: tol must be finite and positive, got {float(tol)}\n"
        assert out == ""


#: four pieces whose moments and solve are finite, but whose quadrature's
#: 16-node sums overflow on the first piece; and a constant, which maps to
#: the corner (1, 1)
OVERFLOWING = StepFunction(1.0, (0.0, 0.25, 0.5, 0.75, 1.0), (1.3e154, 1e153, 2e153, 3e153))
CONSTANT = StepFunction(1.0, (0.0, 0.25, 0.5, 0.75, 1.0), (2.0, 2.0, 2.0, 2.0))
DRAW_FAILS = ConvergenceError("step-function sampling failed to find an interior sample")
OVERFLOW_ERR = "error: domain-error: int ((1/t) int_0^t h)^p overflows a float\n"
#: (p, q), {sample: error raised or step function drawn}, stdout lines, their
#: sha256, and stderr, for hardy --samples 8 --steps 4 (one quadrature chunk)
#: with those samples replaced, as a sample-by-sample loop printed them
PARTIAL = [
    (("3", "2"), {5: DRAW_FAILS}, 5,
     "c18e025febe21c181d992b11dad4cd8d4e6d5ad3bcb7db274486a8ecfc6e2383",
     "error: internal: step-function sampling failed to find an interior sample\n"),
    (("2", "1.5"), {2: OVERFLOWING, 5: DRAW_FAILS}, 2,
     "b73172a852640e6f667b940d267315bcc07150fc5e2a23fc22e1535666542baa", OVERFLOW_ERR),
    (("2", "1.5"), {3: CONSTANT, 5: DRAW_FAILS}, 3,
     "003d6834bb877e0f2c9a2d66b30afd35fcb170d70cba1e7d46622d3bba886f0f",
     "error: boundary-case: induced point (1.0, 1.0) is on-lower-boundary for p=2.0, "
     "q=1.5; the trivial bound lhs <= t^p z (any t >= 1) applies\n"),
    (("2", "1.5"), {6: OVERFLOWING}, 6,
     "3a13e16c4a52cba84c05b7e7d71a94088784028ab15f75fd9d3d8844898cbb7b", OVERFLOW_ERR),
]
PARTIAL_IDS = ["draw-fails", "overflow-then-draw-fails", "solve-fails", "overflow"]


class TestHardyCmd:
    def test_batch_passes(self, capsys):
        code, out, _ = run(capsys, [
            "hardy", "--p", "2", "--q", "1.5", "--samples", "10", "--steps", "4", "--seed", "7",
        ])
        assert code == 0
        summary = out.strip().splitlines()[-1]
        assert "violations=0" in summary
        assert float(summary.split("max_ratio=")[1]) <= 1.0

    def test_single_sample(self, capsys):
        code, out, _ = run(capsys, [
            "hardy", "--p", "2", "--q", "1.5", "--samples", "1", "--steps", "2", "--seed", "1",
        ])
        assert code == 0
        assert out.strip().splitlines()[0].startswith("sample 0:")

    def test_deterministic_summary(self, capsys):
        args = ["hardy", "--p", "3", "--q", "2", "--samples", "5", "--steps", "3", "--seed", "11"]
        _, out1, _ = run(capsys, args)
        _, out2, _ = run(capsys, args)
        assert out1 == out2

    def test_bad_usage(self, capsys):
        code, _, err = run(capsys, ["hardy", "--p", "2", "--q", "1.5", "--samples", "0"])
        assert code == 2
        assert "error:" in err

    def test_one_step_rejected(self, capsys):
        code, out, err = run(capsys, ["hardy", "--p", "2", "--q", "1.5", "--steps", "1"])
        assert code == 2
        assert err == "error: domain-error: need at least 2 steps, got 1\n"
        assert out == ""

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run(capsys, ["hardy", "--p", "2", "--q", "1.5", "--seed", "-1"])
        assert code == 2
        assert err == "error: domain-error: seed must be nonnegative, got -1\n"
        assert out == ""

    def test_more_steps_than_fit_rejected(self, capsys):
        # no 5000 pieces can each be 1e-3 * kappa long: a domain error at
        # once, not an internal error after 1000 draws
        code, out, err = run(capsys, [
            "hardy", "--p", "3", "--q", "2", "--steps", "5000", "--samples", "1",
        ])
        assert code == 2
        assert err == (
            "error: domain-error: need at most 1000 pieces of at least 1e-3 * kappa, got k=5000\n"
        )
        assert out == ""

    def test_steps_whose_draws_all_miss_the_length_rule_rejected(self, capsys):
        # a draw keeps 100 pieces each 1e-3 * kappa long with probability
        # 3e-5, so all 1000 draws miss: a domain error naming k, not an
        # internal error
        code, out, err = run(capsys, [
            "hardy", "--p", "2", "--q", "1.5", "--samples", "3", "--steps", "100",
        ])
        assert code == 2
        assert err == (
            "error: domain-error: none of 1000 draws of k=100 pieces kept each 1e-3 * kappa long\n"
        )
        assert out == ""

    def test_a_violation_is_counted_and_exits_1(self, capsys, monkeypatch):
        report = VerificationReport(
            lhs=2.0, rhs=1.0, ratio=2.0, t=1.5, s1=0.5, s2=0.9, passed=False,
            quadrature_error_estimate=0.0,
        )
        monkeypatch.setattr(hardyconst.hardy, "_verified_samples", lambda e, k, draws: [report])
        code, out, err = run(capsys, ["hardy", "--p", "2", "--q", "1.5", "--samples", "1"])
        assert (code, err) == (1, "")
        assert out == (
            "sample 0: ratio=2 VIOLATION\n"
            "samples=1 violations=1 solver_failures=0 max_ratio=2\n"
        )

    @pytest.mark.parametrize("pair, failures, lines, digest, err", PARTIAL, ids=PARTIAL_IDS)
    def test_partial_output(self, capsys, monkeypatch, pair, failures, lines, digest, err):
        # a failing sample prints the lines of the samples before it, then
        # its error; a quadrature overflow at an earlier sample comes first
        draw, solved = hardyconst.hardy._draw, hardyconst.hardy._solved

        def failing_draw(seed, k, kappa, e):
            failure = failures.get(seed - 7)
            if isinstance(failure, Exception):
                raise failure
            return solved(failure, e) if failure else draw(seed, k, kappa, e)

        monkeypatch.setattr(hardyconst.hardy, "_draw", failing_draw)
        code, out, got_err = run(capsys, [
            "hardy", "--p", pair[0], "--q", pair[1], "--samples", "8", "--steps", "4",
        ])
        assert (code, got_err) == (2, err)
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest


#: each subcommand with the arguments it needs besides the exponent pair
COMMANDS = {
    "solve": ["--s1", "0.75", "--s2", "0.9185586535436918"],
    "scan": ["--s2", "0.92", "--s1-min", "0.1", "--s1-max", "0.8", "--n", "3"],
    "verify": [],
    "hardy": [],
}


class TestParser:
    @pytest.mark.parametrize("missing", ["--p", "--q"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_command_requires_the_pair(self, capsys, command, missing):
        given = [x for name, value in (("--p", "2"), ("--q", "1.5")) if name != missing
                 for x in (name, value)]
        with pytest.raises(SystemExit) as exc:
            main([command, *given, *COMMANDS[command]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: the following arguments are required: {missing}\n")

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_command_help_lists_the_pair(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "  --p P\n" in out and "  --q Q\n" in out

    def test_built_once_and_reused(self, capsys, tmp_path):
        scan = ["scan", "--p", "2", "--q", "1.5", "--s2", "0.92",
                "--s1-min", "0.1", "--s1-max", "0.8", "--n", "3"]
        assert run(capsys, [*scan, "--out", str(tmp_path / "scan.csv")])[0] == 0
        # a later request sees the parser's defaults, not the earlier --out
        code, out, _ = run(capsys, scan)
        assert code == 0
        assert out == (tmp_path / "scan.csv").read_text()
        assert run(capsys, ["solve", *ANCHOR_ARGS])[0] == 0
        assert _build_parser.cache_info().misses == 1
        assert _build_parser() is _build_parser()
