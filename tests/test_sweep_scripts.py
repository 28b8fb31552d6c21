"""The scripts pytest does not collect, ``solve_sweep.py``,
``verify_sweep.py``, ``omega_ulps.py`` and ``line_split.py``, run on tiny
inputs: a rename of a
name one of them imports or reads then fails here instead of in the
script."""

import re
import sys

import line_split
import numpy as np
import omega_ulps
import solve_sweep
import verify_sweep

from hardyconst import Exponents
from hardyconst.verify import run_all_suites


def test_omega_ulps_on_a_few_targets(monkeypatch, capsys):
    assert omega_ulps.ulp_errors(2.0, np.array([0.0, 0.3, 0.9, 0.999])).max() <= 2.0
    monkeypatch.setattr(omega_ulps, "R_SWEEP", (1.5, 20.0))
    monkeypatch.setattr(sys, "argv", ["omega_ulps.py", "--points", "3", "--flat", "2"])
    omega_ulps.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "band r max p99.9 mean beyond_2ulp"
    assert [line.split()[-5] for line in lines[1:]] == ["1.5", "20", "1.5", "20"]


def test_solve_sweep_on_a_few_points(monkeypatch, capsys):
    e = Exponents(2.0, 1.5)
    lo, hi = solve_sweep.NEAR_ONE
    assert all(lo <= 1.0 - pt.s2 <= hi for pt in solve_sweep._near_one_points(e, 4, 0))
    monkeypatch.setattr(solve_sweep, "SWEEP_PAIRS", [(2.0, 1.5), (20.0, 19.0)])
    for name in ("N_POINTS", "N_NEAR_ONE", "N_OMEGA_UNIFORM", "N_OMEGA_NEAR_ONE"):
        monkeypatch.setattr(solve_sweep, name, 5)
    solve_sweep.main()
    lines = capsys.readouterr().out.splitlines()
    counts = re.fullmatch(r"verdicts: ok (\d+) outside (\d+) no_root (\d+)", lines[0])
    assert sum(map(int, counts.groups())) == 20
    assert re.fullmatch(r"sha256: [0-9a-f]{64}", lines[1])
    assert lines[2] == "solve_lanes mismatches: 0"
    assert re.fullmatch(r"omega sha256: [0-9a-f]{64} _omega_lanes mismatches: 0", lines[3])


def test_verify_sweep_on_a_few_pairs(monkeypatch, capsys):
    e = verify_sweep.spread(1, verify_sweep.SEED)[0]
    suites = run_all_suites(e, verify_sweep.GRID, verify_sweep.TOL)
    assert [run(e).name for run in verify_sweep.SUITES.values()] == [res.name for res in suites]
    # the ninth pair of the spread is the first whose s1 rows underflow
    monkeypatch.setattr(verify_sweep, "N_PAIRS", 9)
    verify_sweep.main()
    lines = capsys.readouterr().out.splitlines()
    names = [*verify_sweep.SUITES, "run_all_suites"]
    assert [line.split(":")[0] for line in lines[: len(names)]] == names
    for line in lines[: len(names)]:
        counts = re.fullmatch(r"\w+: pass (\d+) fail (\d+) no_check (\d+) named_error (\d+)", line)
        assert sum(map(int, counts.groups())) == 9
    # the integrated derivative check fails on no pair of the spread
    assert re.match(r"fd_suite: pass \d+ fail 0 ", lines[names.index("fd_suite")])
    assert [line for line in lines if " raises " in line] == [
        f"{name} raises domain-error on 1 pairs, first (539.7871716887756, 1.582425304488714)"
        for name in ("sign_suite", "fd_suite")
    ]


def test_line_split_on_a_small_package(tmp_path, capsys):
    (tmp_path / "a.py").write_text(
        '"""Module\ndocstring."""\n\n# a comment\ndef f():\n    """Doc."""\n    return 1\n'
    )
    (tmp_path / "b.py").write_text("x = 1\n\n")
    line_split.main(tmp_path)
    assert capsys.readouterr().out.splitlines() == [
        "wc -l: 9",
        "code 3 docstring 3 comment 1 blank 2",
    ]
