"""CLI output pinned byte for byte to reports recorded before the integer
core and the closed-form orbit maximum replaced Weyl-orbit enumeration."""

from pathlib import Path

import pytest

from liehofer.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "hofer_F4.json": ["hofer", "--system", "F4", "--xi", "2,-1,3,1", "--eta=-1,2,0,3"],
    "verify_A1_A2_B2_box2.json": ["verify", "--box", "2", "--systems", "A1,A2,B2"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical_to_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
