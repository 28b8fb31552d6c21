"""Golden CLI outputs: the sha256 of stdout and the exit code of fixed requests.

A digest that moves means some computed float moved: find out which, and
why, before re-pinning it.  The hardy and (5, 1.2) verify digests were last
re-pinned when solvability came to be decided in u and the u bracket's top
became u_top: every status stayed, t moved by at most a few ulp, and on
(5, 1.2) ten sign-suite points whose root lies less than an ulp below
p/(p-1) became solvable (tests/test_oracle.py checks them).  The scan digests
were re-pinned when gamma and delta came to take the bracket factor B from
the solve's own u instead of the certificate's omega_q(tau): 15 to 23 of the
24 rows per pair moved, by at most 7.2e-14 relative, in the gamma, delta and
dt_ds1 columns only, and tests/test_oracle.py checks those three against the
mpmath oracle.  The hardy digests over several quadrature chunks were pinned
on the sample-by-sample loop that the chunked pass replaced.  The command's
lines must also be those of the public pair ``verify_hardy(sample_step(...))``.
"""

import hashlib

import pytest

from hardyconst import Exponents, sample_step, verify_hardy
from hardyconst.cli import _SAMPLE_KAPPAS, main
from hardyconst.hardy import _CHUNK_SEGMENTS

#: the benchmark's scan pairs: one 24-point row at s2 = 0.7, from 1e-3 to
#: 0.999 of the lower-curve abscissa
SCAN = {
    (2.0, 1.5): "8e29a7485abe723a65287d362fc3fdbe7f2e2273fdfdffa4fc25d146803d4721",
    (3.0, 2.0): "3ad7393f2bf84d8d6dad4768c9e7d94f7a7b7b476f976721f562e0d000490b4e",
    (2.5, 1.3): "d187bd5eec218a61f10a6379a951166b7212e77f49d48789b6e29b9b1e196a72",
    (5.0, 1.2): "e9b135efea4d8c4ec0576ef849ac8fc43d9d57928228c8fcfd4034700355f0a7",
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
#: verify at the CLI default --grid 30, where sign_suite solves 900 points
#: per pair, pinned on the point-by-point loop that the lane solve replaced
VERIFY_GRID_30 = {
    (2.0, 1.5): "28b0fe3f7e11468257b45ea2a202cbd42f345f9ea0c9277003cf6d0b6ee44662",
    (3.0, 2.0): "33833694695e019f16a849dec06ce68512bd32aedcd3767e3f7af7ee0220f7ef",
    (2.5, 1.5): "afad1c75a5bc94b550417e08953de33a3f101cf8634ddf08d550cc7c27261c26",
    (5.0, 1.2): "538b18e068e0e06a159ffb5571088842c96225ebd07d26861451f3479bcd2e82",
}
#: scan over two s2 rows of (3, 2) whose statuses include ok, no-root (s1 =
#: 0.8 at s2 = 0.9, above the g(1) = 0 frontier) and outside-domain
MIXED_SCAN = (
    ["--p", "3", "--q", "2", "--s2", "0.5", "0.9", "--s1-min", "0.05", "--s1-max", "0.85",
     "--n", "17"],
    "32b8b76fee8348ded95edb90d673866ccd93a4701c236342cef99de44262ce99",
)
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

#: hardy on (3, 2) over at least three quadrature chunks: (steps, samples)
HARDY_CHUNKED = {
    (2, 1100): "38053450174b66b8a8027ba3b08959212db4734c13a1f1dd18c5a4e8651625ad",
    (33, 70): "8ece3b0284ed05712a9881354fa8b77fde04e6111aeacb877e71d770b425a44a",
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


def test_scan_rows_of_every_status(capsys):
    argv, digest = MIXED_SCAN
    assert _digest(capsys, ["scan", *argv]) == (0, digest)


@pytest.mark.parametrize("pair", list(VERIFY), ids=str)
def test_verify(capsys, pair):
    p, q = pair
    argv = ["verify", "--p", repr(p), "--q", repr(q), "--grid", "10"]
    assert _digest(capsys, argv) == (0, VERIFY[pair])


@pytest.mark.parametrize("pair", list(VERIFY_GRID_30), ids=str)
def test_verify_at_the_default_grid(capsys, pair):
    p, q = pair
    argv = ["verify", "--p", repr(p), "--q", repr(q)]
    assert _digest(capsys, argv) == (0, VERIFY_GRID_30[pair])


@pytest.mark.parametrize("case", list(HARDY), ids=str)
def test_hardy(capsys, case):
    p, q, steps = case
    argv = ["hardy", "--p", repr(p), "--q", repr(q), "--samples", "4", "--steps", str(steps)]
    assert _digest(capsys, argv) == (0, HARDY[case])


@pytest.mark.parametrize("case", list(HARDY), ids=str)
def test_public_pair_matches_the_hardy_command(capsys, case):
    # verify_hardy(sample_step(...)) computes its moments and solve afresh;
    # its ratio and verdict must be the command's, bit for bit
    p, q, steps = case
    argv = ["hardy", "--p", repr(p), "--q", repr(q), "--samples", "4", "--steps", str(steps)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]
    e = Exponents(p, q)
    for i, line in enumerate(lines):
        h = sample_step(7 + i, steps, _SAMPLE_KAPPAS[i % len(_SAMPLE_KAPPAS)], e)
        rep = verify_hardy(h, e)
        verdict = "ok" if rep.passed else "VIOLATION"
        assert line == f"sample {i}: ratio={rep.lhs / rep.rhs:.17g} {verdict}"
    assert len(lines) == 4


@pytest.mark.parametrize("case", list(HARDY_CHUNKED), ids=str)
def test_hardy_over_several_chunks(capsys, case):
    steps, samples = case
    assert samples > 2 * (_CHUNK_SEGMENTS // steps)
    argv = ["hardy", "--p", "3", "--q", "2", "--samples", str(samples), "--steps", str(steps)]
    assert _digest(capsys, argv) == (0, HARDY_CHUNKED[case])
