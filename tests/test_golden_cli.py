"""Golden CLI outputs: the sha256 of stdout and the exit code of fixed requests.

SCAN and MIXED_SCAN pin scan rows, every CSV column of every status; VERIFY
and VERIFY_GRID_30 pin every suite's summary line and the exit code; HARDY
and HARDY_CHUNKED pin each sample's ratio and verdict, within one
quadrature chunk and over several.  The hardy command's lines must also be
those of the public pair ``verify_hardy(sample_step(...))``.

A digest that moves means some computed float or line moved: find out
which, and why.  A digest is re-pinned only with its cause, the columns or
lines that moved and the largest move named in CHANGES.md, which keeps the
history of every re-pin.
"""

import hashlib

import pytest

from hardyconst import Exponents, sample_step, verify_hardy
from hardyconst.cli import _SAMPLE_KAPPAS, main
from hardyconst.hardy import _CHUNK_SEGMENTS

#: the benchmark's scan pairs: one 24-point row at s2 = 0.7, from 1e-3 to
#: 0.999 of the lower-curve abscissa
SCAN = {
    (2.0, 1.5): "29182dfa12e70c78d31bca83b275f59341d8c47d33554151d072c672acc633f0",
    (3.0, 2.0): "4aed19ce57eca9572eacce417ae114d3fd12b933683ba4b3831720876d996f02",
    (2.5, 1.3): "94493daa36f524f20839e5868351461a6d993714f27979bc5e3bed36c0471efc",
    (5.0, 1.2): "7917bcaa6953b083b2a550e00f17a6b7858b20dcacb346d356b5523a4d126f6d",
}
#: verify --grid 10 on the benchmark's verify pairs, then on the stiff scan
#: pairs, which bring the exponents 1.2 and 2.5 into inverse_suite
VERIFY = {
    (2.0, 1.5): "23c31d476de00c41f6f15dd2f30492e9e3be76a444ddce4b9fda0f63c41996e2",
    (3.0, 2.0): "d21587e5be98341d42474ff8a9653a9688be54029dba462856f5e5f86cff8541",
    (2.5, 1.5): "dd6ddb00d7497ef4918a31beaf33c33682da75a125d7ecd9f13eb87d6430883a",
    (2.5, 1.3): "dd6ddb00d7497ef4918a31beaf33c33682da75a125d7ecd9f13eb87d6430883a",
    (5.0, 1.2): "dd6ddb00d7497ef4918a31beaf33c33682da75a125d7ecd9f13eb87d6430883a",
}
#: verify at the CLI default --grid 30, where sign_suite solves 900 points
#: per pair in lanes
VERIFY_GRID_30 = {
    (2.0, 1.5): "c99caa7423d55c58225fda52d9215b115b05aef7ab2586331fbd74116d10146d",
    (3.0, 2.0): "b0633b3a4e5cedd3147429e8aab0da2bbe38f1701ba97a2c09897dd1df1dbb13",
    (2.5, 1.5): "36f6d70dd5451f8b2cbcc0a0ced0e6d25e910fef98ad024a4830f03d189c9b4b",
    (5.0, 1.2): "f1de759ee09772c916142409ca2d270451f880d35f929f823eded0285e2ed4d3",
}
#: scan over two s2 rows of (3, 2) whose statuses include ok, no-root (s1 =
#: 0.8 at s2 = 0.9, above the g(1) = 0 frontier) and outside-domain
MIXED_SCAN = (
    ["--p", "3", "--q", "2", "--s2", "0.5", "0.9", "--s1-min", "0.05", "--s1-max", "0.85",
     "--n", "17"],
    "3fa8142e8b059405cbb632629bcfedff1903bddc748d053f786bf241565b0b92",
)
#: hardy --samples 4 (default seed) with 2 and 32 steps on the scan pairs
HARDY = {
    (2.0, 1.5, 2): "fbebb26dc1127ed22d596384037cfdb39bef490557340357c27d1621beb3b04e",
    (2.0, 1.5, 32): "4414f9b2cd27fe0016d61dcfc929efdcb01362ef5e7bdc361bd5afc1eb9c4971",
    (3.0, 2.0, 2): "3394a8cbc59d73a0f23715a37f4bf4b6d17ea23863c156c751fd27f926ea7beb",
    (3.0, 2.0, 32): "3ae5dad9b1b37f2865bd57eefe8f47254825e0ea635e16839a22d8f2b5e7f014",
    (2.5, 1.3, 2): "474c10a5afa45191af5e7319fe6a3925bf6fc22dcce0cf49d7ffb0f281c9864e",
    (2.5, 1.3, 32): "813df99d451a328179b27d7531a0b16352f80dd6712f96cf3dccbd49525c6cd7",
    (5.0, 1.2, 2): "29c39de6ab170872710d2f61dcaf2abe3a324e0ee4d6757fd803a3111f09e8f9",
    (5.0, 1.2, 32): "9d3eea02e5a9fb675f4f4ca720cf050ccb38b3daa7248963c390d50cf05f7d15",
}

#: hardy on (3, 2) over at least three quadrature chunks: (steps, samples)
HARDY_CHUNKED = {
    (2, 1100): "b5eb70404b85187dca588a258fd69ab897a1e7cb2d90eb6c8aaa274e313d7a3c",
    (33, 70): "afb86c0cd20fba4db8e53ea6c61fd45c28a9b3879a9da5add944da38f0c22aea",
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
