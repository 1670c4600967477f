import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from liehofer.cli import MAX_COORD, main
from liehofer.su2_loops import MAX_N
from liehofer.verify import CHECKS
from test_golden import CASES, HESSIAN_CASES


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
    # every golden report, so that each command's report reaches the file
    for name, argv in {**CASES, **HESSIAN_CASES}.items():
        target = tmp_path / name
        code = main([*argv, "--out", str(target)])
        stdout = capsys.readouterr().out
        assert code == 0, argv
        assert target.read_bytes() == stdout.encode(), argv


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


# Inputs of the generated argvs: good and bad labels (the rank of a good one
# is its digit), coordinates at and past MAX_COORD, non-ASCII digits, and
# cutoffs, resolutions, areas and signs on both sides of their bounds.  No
# box is 4 or more and no valid cutoff is above 40, so every run is short.
_LABELS = ("A1", "A2", "A3", "B2", "C3", "D4", "G2", "F4", "a2", "b02")
_BAD_LABELS = ("E6", "A0", "A10", "Z2", "", "A", "A\u0662", "\uff212", "B" + "9" * 30)
_COORDS = (
    "0", "1", "-1", "2", "-3", "007", "+4", str(MAX_COORD), str(-MAX_COORD),
    str(MAX_COORD + 1), str(-MAX_COORD - 1), "9" * 25, "\u0661", "\u0663\u0662",
    "1.5", "x", "",
)
_CUTOFFS = ("0", "2", "7", "12", "20", "40", "-2", "201", "x", "\u0661\u0662", "+8", "008")
_RESOLUTIONS = ("31", "32", "33", "64", "256", str(MAX_N), str(MAX_N + 1), "\u0666\u0664", "x")
_WINDINGS = ("0", "1", "2", "3", "-1", "x")
_AREAS = ("1", "0.5", "2.25", "1e-300", "0", "-1", "nan", "inf", "x", "\u0661")
_SIGNS = ("1", "-1", "0", "2", "x")
_BOXES = ("0", "1", "2", "3", "-1", "11", "x", "\u0662")


def _xi(rng, rank):
    count = rank if rng.random() < 0.85 else max(1, rank + rng.choice((-1, 1)))
    good = ("0", "1", "-1", "2", "-3")
    return ",".join(
        rng.choice(good) if rng.random() < 0.8 else rng.choice(_COORDS) for _ in range(count)
    )


def _system(rng):
    if rng.random() < 0.8:
        label = rng.choice(_LABELS)
        return label, int(label[1:])
    return rng.choice(_BAD_LABELS), rng.randint(1, 4)


def _optional(rng, argv, flag, choices):
    if rng.random() < 0.8:
        argv += [flag, rng.choice(choices)]
    return argv


def _random_argv(rng, command):
    if command in ("index", "weights", "hofer"):
        label, rank = _system(rng)
        argv = [command, "--system", label, f"--xi={_xi(rng, rank)}"]
        if command == "hofer" and rng.random() < 0.7:
            argv.append(f"--eta={_xi(rng, rank)}")
        return argv
    if command == "omega-series":
        return _optional(rng, ["omega-series", "--system", _system(rng)[0]], "--cutoff", _CUTOFFS)
    if command == "hessian-su2":
        if rng.random() < 0.3:
            # the winding bound: 4m = n, and 4m = n + 1
            m = rng.choice((8, 16, MAX_N // 4))
            m, n = str(m), str(4 * m - rng.choice((0, 1)))
        else:
            m, n = rng.choice(_WINDINGS), rng.choice(_RESOLUTIONS)
        argv = ["hessian-su2", "--m", m, "--n", n]
        return _optional(rng, argv, "--functional", ("energy", "lplus", "lplus", "curvature"))
    if command == "seidel-cp1":
        argv = ["seidel-cp1", f"--xi={_xi(rng, 1)}"]
        return _optional(rng, _optional(rng, argv, "--area", _AREAS), "--sign", _SIGNS)
    labels = [_system(rng)[0] for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.1:
        labels.append(labels[0].lower())  # a system named twice
    argv = ["verify", "--box", rng.choice(_BOXES), "--systems", ",".join(labels)]
    if rng.random() < 0.7:
        checks = rng.sample(sorted(CHECKS), rng.randint(1, 3))
        if rng.random() < 0.2:
            checks.append(rng.choice(("foo", checks[0])))  # unknown, or named twice
        argv += ["--checks", ",".join(checks)]
    return argv


def test_generated_argvs_keep_the_exit_contract(capsys):
    # exit 0, 1 or 2; on 2 an empty stdout and one stderr line; on 0 JSON
    rng = random.Random(20260)
    commands = ("index", "weights", "hofer", "omega-series", "hessian-su2", "seidel-cp1", "verify")
    seen = set()
    for i in range(300):
        argv = _random_argv(rng, commands[i % len(commands)])
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 2:
            assert captured.out == "", argv
            assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), argv
        elif code == 0:
            json.loads(captured.out)
        seen.add((argv[0], code))
    # every command both ran and was refused, and some check failed
    assert {(c, k) for c in commands for k in (0, 2)} <= seen
    assert any(k == 1 for _, k in seen)
