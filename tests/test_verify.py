import pytest

from liehofer.verify import check_index_equality, check_norm_inequality


@pytest.mark.parametrize("check", [check_index_equality, check_norm_inequality])
@pytest.mark.parametrize("labels", [["A1"], ["A2", "B3"]])
def test_empty_sweep_is_vacuous_not_a_pass(check, labels):
    passed, detail, counterexample = check(labels, 0)
    assert passed is False
    assert "vacuous" in detail
    assert counterexample == {"systems": labels, "box": 0, "checked": 0}


@pytest.mark.parametrize("check", [check_index_equality, check_norm_inequality])
def test_nonempty_sweep_passes(check):
    passed, detail, counterexample = check(["A1", "B3"], 1)
    assert passed is True and counterexample is None
    assert not detail.startswith("0 ")
