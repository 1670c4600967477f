import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liehofer.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_index_example(capsys):
    code, payload = run(capsys, "index", "--system", "A1", "--xi", "2")
    assert code == 0
    assert payload["virtual_index"] == 2
    assert payload["riemannian_index"] == 2
    assert payload["agree"] is True
    assert payload["units"]["virtual_index"] == "dimensionless"


def test_weights_subcommand(capsys):
    code, payload = run(capsys, "weights", "--system", "A2", "--xi", "1,1")
    assert code == 0
    assert payload["weights"] == [-2, -1, -1]


def test_hofer_subcommand(capsys):
    code, payload = run(capsys, "hofer", "--system", "A1", "--xi", "2")
    assert code == 0
    assert payload["length_squared"] == "2/1"
    assert payload["units"]["length"] == "lattice-units"


def test_omega_series_example(capsys):
    code, payload = run(capsys, "omega-series", "--system", "A2", "--cutoff", "8")
    assert code == 0
    assert payload["coefficients"] == [1, 0, 1, 0, 2, 0, 2, 0, 3]
    assert payload["match"] is True


def test_seidel_subcommand(capsys):
    code, payload = run(capsys, "seidel-cp1", "--xi", "2")
    assert code == 0
    assert payload["nonzero"] and payload["invertible"]
    assert payload["leading_basis"] == "pt"


def test_hessian_subcommand(capsys):
    code, payload = run(capsys, "hessian-su2", "--m", "1", "--n", "48")
    assert code == 0
    assert payload["negative_count"] == 2
    assert payload["zero_count"] == 2


def test_determinism(capsys):
    main(["hofer", "--system", "G2", "--xi", "2,1", "--eta", "1,-1"])
    first = capsys.readouterr().out
    main(["hofer", "--system", "G2", "--xi", "2,1", "--eta", "1,-1"])
    second = capsys.readouterr().out
    assert first == second


def test_usage_error_unknown_system(capsys):
    code = main(["index", "--system", "E8", "--xi", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_usage_error_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["index", "--bogus", "1"])
    assert exc.value.code == 2


def test_usage_error_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["index", "--system", "A1", "--xi", "2", "--out", str(target)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(stdout)


def test_verify_fast_subset(capsys):
    code, payload = run(
        capsys,
        "verify", "--box", "2", "--systems", "A1,A2,B2",
        "--checks", "index-equality,norm-inequality,omega-series,seidel",
    )
    assert code == 0
    assert payload["all_pass"] is True
    for result in payload["checks"].values():
        assert result["pass"] is True
        assert result["counterexample"] is None


def test_verify_echoes_canonical_system_labels(capsys):
    code, payload = run(capsys, "verify", "--systems", "a1,b02", "--checks", "hessian")
    assert code == 0
    assert payload["systems"] == ["A1", "B2"]


def test_verify_rejects_unknown_check(capsys):
    code = main(["verify", "--checks", "nonsense"])
    assert code == 2


@pytest.mark.parametrize("box", ["-1", "x"])
def test_verify_rejects_bad_box_with_one_line(capsys, box):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--box", box, "--systems", "A1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--box" in captured.err


def test_verify_empty_sweep_fails(capsys):
    code, payload = run(
        capsys, "verify", "--box", "0", "--systems", "A1", "--checks", "index-equality",
    )
    assert code == 1
    assert payload["all_pass"] is False
    assert payload["checks"]["index-equality"]["pass"] is False
    assert payload["checks"]["index-equality"]["counterexample"]["checked"] == 0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["hessian-su2", "--m", "16", "--n", "32"], "4m"),
        (["hessian-su2", "--m", "1", "--n", "100000"], "maximum"),
        # the zero-band flag is gone: refused like --h
        (["hessian-su2", "--m", "1", "--tol", "-1"], "--tol"),
        (["hessian-su2", "--m", "1", "--tol", "nan"], "--tol"),
        (["hessian-su2", "--m", "1", "--tol", "1.5"], "--tol"),
        # the finite-difference step flag is gone: refused, not read as --help
        (["hessian-su2", "--m", "1", "--h", "nan"], "--h"),
        (["hessian-su2", "--m", "1", "--h", "inf"], "--h"),
        (["seidel-cp1", "--xi", "2", "--area", "nan"], "--area"),
        (["seidel-cp1", "--xi", "2", "--area", "-1"], "--area"),
        (["index", "--system", "A1", "--xi", "1,2"], "coordinates"),
        (["seidel-cp1", "--xi", "0"], "zero coweight"),
        (["omega-series", "--system", "A2", "--cutoff", "100000"], "cutoff"),
        (["omega-series", "--system", "A2", "--cutoff", "7"], "cutoff"),
        (["hofer", "--system", "A2", "--xi", "1,2", "--out", "/nonexistent/x.json"],
         "/nonexistent/x.json"),
        (["verify", "--box", "100000"], "box"),
        (["index", "--system", "A10", "--xi", "1"], "supported table"),
        (["index", "--system", "F4", "--xi", "100001,0,0,0"], "--xi"),
        (["hofer", "--system", "A2", "--xi", "1,1", "--eta", "1,-100001"], "--eta"),
        (["seidel-cp1", "--xi", "1" + "0" * 400], "--xi"),
        (["hofer", "--system", "A2", "--xi", "1,1", "--eta="], "--eta"),
        (["verify", "--checks="], "--checks"),
        (["index", "--system", "A2", "--xi", "1.5,1"], "--xi"),
        (["index", "--system", "A2", "--xi="], "--xi"),
        (["index", "--system", "A2", "--xi", "1_0,1"], "--xi"),
        (["index", "--system", "A1", "--xi", "1" + "0" * 4399], "--xi coordinates must lie in"),
        (["hofer", "--system", "A2", "--xi", "1,1", "--eta", "1," + "9" * 4400],
         "--eta coordinates must lie in"),
        (["verify", "--box", "9" * 4400], "--box"),
        (["omega-series", "--system", "A2", "--cutoff", "9" * 4400], "--cutoff"),
        (["hessian-su2", "--m", "9" * 4400], "--m"),
        (["hessian-su2", "--m", "1", "--n", "9" * 4400], "--n"),
        (["seidel-cp1", "--xi", "2", "--sign", "9" * 4400], "--sign"),
        (["verify", "--box", "1_0"], "--box"),
        (["hessian-su2", "--m", "1", "--n", "6_4"], "--n"),
        (["index", "--system", "A\u0662", "--xi", "1"], "malformed system label"),
        (["verify", "--box", "x" * 4400], "--box"),
        (["index", "--system", "A1", "--xi", "x" * 4400], "--xi"),
        (["hessian-su2", "--m", "1", "--tol", "x" * 4400], "--tol"),
        (["index", "--system", "x" * 4400, "--xi", "1"], "malformed system label"),
        (["index", "--system", "A" + "1" * 4400, "--xi", "1"], "supported table"),
        (["hessian-su2", "--m", "1", "--functional", "x" * 4400], "--functional"),
        (["verify", "--checks", "x" * 4400], "--checks"),
        (["verify", "--systems", "A1,A1"], "--systems names A1 twice"),
        (["verify", "--systems", "A1,a1"], "--systems names A1 twice"),
        (["hessian-su2", "--m", "0"], "winding m=0"),
        (["hessian-su2", "--functional", "lplus", "--m", "-1"], "winding m=-1"),
        (["index", "--system", "A1", "--xi", "2", "y" * 4400], "unrecognized arguments"),
        (["verify", "--systems", "A1", "--checks", "hessian,hessian"],
         "--checks names hessian twice"),
        # the box bound holds whichever checks are named
        (["verify", "--box", "11", "--systems", "A1", "--checks", "hessian"], "box must lie"),
        # a wrong coordinate count names its flag
        (["hofer", "--system", "A2", "--xi", "1,1", "--eta", "1"], "--eta"),
        (["seidel-cp1", "--xi", "1,2"], "--xi"),
        # an odd cutoff out of range names the bound, not the parity
        (["omega-series", "--system", "A2", "--cutoff", "201"],
         "cutoff must lie in 0..200, got 201"),
    ],
)
def test_bad_numeric_input_exits_2_with_one_line(capsys, argv, flag):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and flag in captured.err
    assert len(captured.err) < 200


def test_coordinate_bound_is_inclusive(capsys):
    code, payload = run(capsys, "index", "--system", "A1", "--xi", "-100000")
    assert code == 0 and payload["xi"] == [-100000]
    code, payload = run(capsys, "seidel-cp1", "--xi", "100000")
    assert code == 0 and payload["xi"] == [100000]
    # leading zeros do not count toward the digit limit of int()
    code, payload = run(capsys, "index", "--system", "A1", "--xi", "-" + "0" * 4400 + "100000")
    assert code == 0 and payload["xi"] == [-100000]
    code, payload = run(
        capsys, "verify", "--box", "0" * 4400 + "1", "--systems", "A1",
        "--checks", "index-equality",
    )
    assert code == 0 and payload["coordinate_box"] == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hessian-su2", "--m", "1", "--functional", "curvature"],
         "liehofer hessian-su2: error: argument --functional: invalid choice: "
         "'curvature' (choose from 'energy', 'lplus')\n"),
        (["verify", "--checks", "foo,hessian,bar"], "error: unknown --checks: 'foo', 'bar'\n"),
        (["seidel-cp1", "--xi", "2", "--sign", "5"],
         "liehofer seidel-cp1: error: argument --sign: invalid choice: 5 (choose from 1, -1)\n"),
        (["verify", "--systems", "B2, b2"], "error: --systems names B2 twice: 'B2, b2'\n"),
        (["hessian-su2", "--m", "1", "--tol", "1e-6"],
         "liehofer: error: unrecognized arguments: --tol 1e-6\n"),
    ],
)
def test_short_bad_text_is_echoed_whole(capsys, argv, message):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err == message


def test_closed_stdout_exits_1_without_traceback():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "liehofer.cli", "hessian-su2", "--m", "2", "--n", "128"],
        # default buffering: the report stays buffered until a flush
        env=dict(
            {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, PYTHONPATH=src
        ),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # before the child has imported anything, let alone written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""
