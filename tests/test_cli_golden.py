"""Byte-for-byte stdout and exit code of representative CLI invocations.

The expected stdout of each case lives in tests/golden/cli/<case>.out.
Any change to what the CLI prints shows up here as a failing case; an
intended output change must rewrite the golden file in the same commit.
"""

from pathlib import Path

import pytest

from lrpoly.cli import run

GOLDEN = Path(__file__).parent / "golden" / "cli"

# case name -> (argv, exit code)
CASES = {
    "lr-all": (["lr", "2,1", "2,1", "3,2,1", "--method", "all"], 0),
    "lr-all-one-row": (["lr", "2", "1", "3", "--method", "all"], 0),
    "lr-all-empty": (["lr", "", "", "", "--method", "all"], 0),
    "lr-all-k4": (["lr", "2,1,1", "2,1", "3,2,1,1", "--method", "all"], 0),
    # k=5: c = 16 from all four methods
    "lr-all-k5": (
        ["lr", "4,3,2,1", "4,3,2,1", "6,5,4,3,2", "--method", "all"], 0
    ),
    "lr-system": (["lr", "3,1", "2,2", "4,3,1", "--method", "system"], 0),
    "lr-sum-mismatch": (["lr", "1", "1", "3"], 0),
    "stretch": (["stretch", "2,1", "2,1", "3,2,1"], 0),
    "stretch-one-row": (["stretch", "2", "1", "3"], 0),
    # k=4: degree bound D = 9, so 10 samples and a cubic
    "stretch-k4": (["stretch", "3,2,1", "3,2,1", "5,4,2,1"], 0),
    # k=4 cubic whose last recount (N=13) is c = 1,015
    "stretch-k4-c1015": (["stretch", "4,2,1", "4,3,2", "6,5,3,2"], 0),
    "stretch-sum-mismatch": (["stretch", "1", "1", "3"], 2),
    "kostant-3": (["kostant", "3", "2,0,-2"], 0),
    "chambers-1": (["chambers", "1"], 0),  # the 0-row null-space path
    "chambers-2": (["chambers", "2"], 0),
    "chambers-3": (["chambers", "3"], 0),
    "matrix-3": (["matrix", "3"], 0),
    "generic-degenerate": (["generic", "4,1,0", "3,1,0", "5,3,1"], 0),
    "generic-signature": (["generic", "9,3,1", "8,4,1", "14,8,4"], 0),
    "generic-one-row": (["generic", "1", "1", "2"], 0),
    "generic-sum-mismatch": (["generic", "2,1", "1", "5"], 2),
    # k=4: 24 x 24 pairs against the 14 walls of the chamber complex
    "generic-k4": (
        ["generic", "30,15,11,7", "33,16,15,3", "68,25,24,13"], 0
    ),
    "ktt": (["ktt", "2,1", "2,1", "3,2,1"], 0),
    "ktt-one-row-steinberg": (
        ["ktt", "2", "1", "3", "--method", "steinberg"], 0
    ),
    "ktt-sum-mismatch": (["ktt", "1", "1", "3"], 2),
    "ktt-zero-coefficient": (["ktt", "2", "2", "2,1,1"], 2),
    "verify-k3": (["verify-k3", "--samples", "2", "--seed", "9"], 0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_is_golden(case, capsys):
    argv, expected_code = CASES[case]
    code = run(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
