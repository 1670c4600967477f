import json

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
