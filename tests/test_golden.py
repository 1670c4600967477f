"""CLI output pinned to reports recorded before the code behind each of
them was rewritten: byte for byte, except the two eigenvalue extremes of
``hessian-su2``, which are pinned to a relative tolerance."""

import json
import math
from pathlib import Path

import pytest

from liehofer.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# verify_all_box10_sweeps.json, the two box sweeps at the box cap on every
# system (several seconds), is compared byte for byte by the CI workflow
# instead: `verify --box 10 --systems all --checks
# index-equality,norm-inequality` under python -O.

CASES = {
    "hofer_F4.json": ["hofer", "--system", "F4", "--xi", "2,-1,3,1", "--eta=-1,2,0,3"],
    "verify_A1_A2_B2_box2.json": ["verify", "--box", "2", "--systems", "A1,A2,B2"],
    # every check, the rank <= 2 norm grid and the Hofer memo on all systems
    "verify_all_box4.json": ["verify", "--box", "4", "--systems", "all"],
    "omega_series_F4_cutoff20.json": ["omega-series", "--system", "F4", "--cutoff", "20"],
    "index_F4.json": ["index", "--system", "F4", "--xi", "1,2,1,1"],
    "seidel_cp1_xi2.json": ["seidel-cp1", "--xi", "2"],
    "weights_F4.json": ["weights", "--system", "F4", "--xi", "1,-2,0,3"],
    "hofer_G2_eta.json": ["hofer", "--system", "G2", "--xi", "2,-1", "--eta=-3,1"],
    # every coordinate at the bound, in the Hofer memo record and the norm memo
    "hofer_F4_corner.json": [
        "hofer", "--system", "F4", "--xi", "100000,100000,100000,100000",
        "--eta=-100000,100000,-100000,100000",
    ],
    "omega_series_D4_cutoff40.json": ["omega-series", "--system", "D4", "--cutoff", "40"],
    "omega_series_A4_cutoff40.json": ["omega-series", "--system", "A4", "--cutoff", "40"],
}

HESSIAN_CASES = {
    "hessian_su2_m2_n128.json": ["hessian-su2", "--m", "2", "--n", "128"],
    "hessian_su2_lplus_m1_n64.json": ["hessian-su2", "--functional", "lplus", "--m", "1", "--n", "64"],
    "hessian_su2_m16384_n65536.json": ["hessian-su2", "--m", "16384", "--n", "65536"],
    "hessian_su2_lplus_m16384_n65536.json": [
        "hessian-su2", "--functional", "lplus", "--m", "16384", "--n", "65536",
    ],
}

# The extremes come from a closed-form spectrum in floating point, so a
# rewrite of the spectrum path may move their last digits by rounding;
# the counts and every other field must not move at all.
EIGENVALUE_REL_TOL = 1e-6
EIGENVALUE_KEYS = ("min_eigenvalue", "max_eigenvalue")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical_to_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(HESSIAN_CASES))
def test_hessian_output_matches_golden(name, capsys):
    assert main(HESSIAN_CASES[name]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / name).read_text())
    for key in EIGENVALUE_KEYS:
        assert math.isclose(got.pop(key), want.pop(key), rel_tol=EIGENVALUE_REL_TOL), key
    assert got == want
