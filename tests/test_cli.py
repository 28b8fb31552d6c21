"""CLI contract: CSV schema, exit codes, determinism."""

import math

import pytest

from hardyconst.cli import CSV_HEADER, _build_parser, main

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

    def test_minimal_grid(self, capsys):
        code, out, _ = run(capsys, [
            "scan", "--p", "2", "--q", "1.5", "--s2", "0.9",
            "--s1-min", "0.2", "--s1-max", "0.4", "--n", "2",
        ])
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_bad_grid_exit_code(self, capsys):
        code, _, err = run(capsys, [
            "scan", "--p", "2", "--q", "1.5", "--s2", "0.9",
            "--s1-min", "0.4", "--s1-max", "0.2", "--n", "5",
        ])
        assert code == 2
        assert "error:" in err

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

    def test_skip_counts_pinned(self, capsys):
        # only no-root grid points and unsolvable stencils are skipped; the
        # ten s2 = 0.15 points whose root lies less than an ulp below p' are
        # solvable (tests/test_oracle.py)
        code, out, _ = run(capsys, ["verify", "--p", "5", "--q", "1.2", "--grid", "10"])
        assert code == 0
        lines = out.splitlines()
        assert "[PASS] sign suite (gamma<0, delta>0, lambda>0): 297 checks, 1 skipped" in lines
        assert "[PASS] derivative identity vs finite differences: 16 checks, 4 skipped" in lines

    def test_grid_too_small_rejected(self, capsys):
        code, _, err = run(capsys, ["verify", "--p", "2", "--q", "1.5", "--grid", "5"])
        assert code == 2
        assert "error:" in err


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


class TestParser:
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
