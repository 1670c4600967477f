"""CLI output pinned byte for byte to reports recorded before the code
behind each of them was rewritten."""

from pathlib import Path

import pytest

from liehofer.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "hofer_F4.json": ["hofer", "--system", "F4", "--xi", "2,-1,3,1", "--eta=-1,2,0,3"],
    "verify_A1_A2_B2_box2.json": ["verify", "--box", "2", "--systems", "A1,A2,B2"],
    "omega_series_F4_cutoff20.json": ["omega-series", "--system", "F4", "--cutoff", "20"],
    "index_F4.json": ["index", "--system", "F4", "--xi", "1,2,1,1"],
    "seidel_cp1_xi2.json": ["seidel-cp1", "--xi", "2"],
    "weights_F4.json": ["weights", "--system", "F4", "--xi", "1,-2,0,3"],
    "hofer_G2_eta.json": ["hofer", "--system", "G2", "--xi", "2,-1", "--eta=-3,1"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical_to_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
