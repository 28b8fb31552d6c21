"""Golden CLI outputs: the sha256 of stdout and the exit code of fixed requests.

A digest that moves means some computed float moved: find out which, and
why, before re-pinning it.  The scan, hardy and (5, 1.2) verify digests were
last re-pinned when solvability came to be decided in u and the u bracket's
top became u_top: every status stayed, t moved by at most a few ulp, and on
(5, 1.2) ten sign-suite points whose root lies less than an ulp below
p/(p-1) became solvable (tests/test_oracle.py checks them).
"""

import hashlib

import pytest

from hardyconst.cli import main

#: the benchmark's scan pairs: one 24-point row at s2 = 0.7, from 1e-3 to
#: 0.999 of the lower-curve abscissa
SCAN = {
    (2.0, 1.5): "8f62715591272b226e4cb4bace0c40e08e16155043fc520117881fcf5fe40527",
    (3.0, 2.0): "5c36324448a23b995046676353cc4628b56e0404602f0d9c2215495ef030780d",
    (2.5, 1.3): "81c5db8a295a3512e1579e22b2c07fc6ce0838131dce5d525c8c0ba9b2a9034d",
    (5.0, 1.2): "e986e6bb33767f7440ccc27098ea231f02e251582714d43ce7193c54019ae226",
}
#: verify --grid 10 on the benchmark's verify pairs, then on the stiff scan
#: pairs, which bring the exponents 1.2 and 2.5 into inverse_suite
VERIFY = {
    (2.0, 1.5): "642e1822cb144b25b4b2cf341f753a303d8d7c6e6e1a2bd3c873ae28bd8d8ac8",
    (3.0, 2.0): "eb0bf518bb344b17cd2338e051accad6b3187963e3bed3ee3ac4138b31a95942",
    (2.5, 1.5): "1abc371e8457435b04304197fa5b78008be0e79a4f10bb9932b5d79e8775ca81",
    (2.5, 1.3): "1abc371e8457435b04304197fa5b78008be0e79a4f10bb9932b5d79e8775ca81",
    (5.0, 1.2): "d952fae7e852e0cd930f729cd346e2629b5c0e205be14a4bf3e87b60ad6b8a8b",
}
#: hardy --samples 4 (default seed) with 2 and 32 steps on the scan pairs
HARDY = {
    (2.0, 1.5, 2): "709f77d9bcd705877e55e3644b9b1a715294075fe587043c58ae30595d131a53",
    (2.0, 1.5, 32): "4414f9b2cd27fe0016d61dcfc929efdcb01362ef5e7bdc361bd5afc1eb9c4971",
    (3.0, 2.0, 2): "3394a8cbc59d73a0f23715a37f4bf4b6d17ea23863c156c751fd27f926ea7beb",
    (3.0, 2.0, 32): "ecd582fe7d70e9019a04930a723c6f03d31508e3fc06279262b81a71b6e216b7",
    (2.5, 1.3, 2): "09e8aec530dc0cf59914caef868d8c073d9f7bec2859dcdde1120b7c9abe5f8c",
    (2.5, 1.3, 32): "f767cbca284cf88fe6ccd592f1db1a7401716de40b102d3447ebb2b0fb426ccd",
    (5.0, 1.2, 2): "6265844e827815b4daa89a4f718338585d40e5314bc4cc1f09ddb19b0c9a01f2",
    (5.0, 1.2, 32): "39503c1495211fe9ad80b9aa303470155bf2ec83a5c98a61d4d3f3e0474ec5df",
}


def _digest(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, hashlib.sha256(captured.out.encode()).hexdigest()


@pytest.mark.parametrize("pair", list(SCAN), ids=str)
def test_scan_row(capsys, pair):
    p, q = pair
    s2 = 0.7
    top = s2 ** ((p - 1.0) / (q - 1.0))
    argv = [
        "scan", "--p", repr(p), "--q", repr(q), "--s2", repr(s2),
        "--s1-min", repr(1e-3 * top), "--s1-max", repr(0.999 * top), "--n", "24",
    ]
    assert _digest(capsys, argv) == (0, SCAN[pair])


@pytest.mark.parametrize("pair", list(VERIFY), ids=str)
def test_verify(capsys, pair):
    p, q = pair
    argv = ["verify", "--p", repr(p), "--q", repr(q), "--grid", "10"]
    assert _digest(capsys, argv) == (0, VERIFY[pair])


@pytest.mark.parametrize("case", list(HARDY), ids=str)
def test_hardy(capsys, case):
    p, q, steps = case
    argv = ["hardy", "--p", repr(p), "--q", repr(q), "--samples", "4", "--steps", str(steps)]
    assert _digest(capsys, argv) == (0, HARDY[case])
