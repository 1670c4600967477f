import itertools
import math

import pytest

from liehofer import hofer
from liehofer.root_system import from_label, pairing
from liehofer.verify import (
    ALL_SYSTEMS,
    MAX_BOX,
    box_coweights,
    check_index_equality,
    check_norm_inequality,
    check_omega_series,
    check_seidel,
)


@pytest.mark.parametrize("check", [check_index_equality, check_norm_inequality])
@pytest.mark.parametrize("labels", [["A1"], ["A2", "B3"]])
def test_empty_sweep_is_vacuous_not_a_pass(check, labels):
    passed, detail, counterexample = check(labels, 0)
    assert passed is False
    assert "vacuous" in detail
    assert counterexample == {"systems": labels, "box": 0, "checked": 0}


def test_series_check_over_no_systems_is_vacuous_not_a_pass():
    passed, detail, counterexample = check_omega_series([])
    assert passed is False
    assert "vacuous" in detail
    assert counterexample["checked"] == 0


def test_seidel_check_compares_with_an_independent_length(monkeypatch):
    assert check_seidel()[0] is True
    positive_norm = hofer.positive_norm

    def one_ulp_off(eta, xi):
        m, report = positive_norm(eta, xi)
        return m, hofer.NormReport(
            report.value_squared, math.nextafter(report.value_float, math.inf)
        )

    monkeypatch.setattr(hofer, "positive_norm", one_ulp_off)
    passed, detail, counterexample = check_seidel()
    assert passed is False and detail == "exponent mismatch"
    assert counterexample["hofer_length"] != counterexample["exponent"]


@pytest.mark.parametrize("check", [check_index_equality, check_norm_inequality])
def test_nonempty_sweep_passes(check):
    passed, detail, counterexample = check(["A1", "B3"], 1)
    assert passed is True and counterexample is None
    assert not detail.startswith("0 ")


@pytest.mark.parametrize("check", [check_index_equality, check_norm_inequality])
def test_box_cap(check):
    for box in (-1, MAX_BOX + 1):
        with pytest.raises(ValueError):
            check(["A1"], box)
    passed, _, _ = check(["A1"], MAX_BOX)
    assert passed is True


def _filtered_box(system, box, regular_only, nonzero_only):
    """The per-coweight filter: every box point, tested one at a time."""
    out = []
    for coords in itertools.product(range(-box, box + 1), repeat=system.rank):
        xi = system.coweight(coords)
        if nonzero_only and xi.is_zero:
            continue
        if regular_only and not all(pairing(a, xi) != 0 for a in system.positive_roots):
            continue
        out.append(xi.coords)
    return out


def test_box_coweights_match_per_coweight_filter():
    for label in ALL_SYSTEMS:
        system = from_label(label)
        for box in range(4 if system.rank > 3 else 5):
            for regular_only, nonzero_only in itertools.product((False, True), repeat=2):
                got = [
                    xi.coords
                    for xi in box_coweights(system, box, regular_only, nonzero_only)
                ]
                assert got == _filtered_box(system, box, regular_only, nonzero_only), (
                    label, box, regular_only, nonzero_only,
                )
                assert all(type(c) is int for coords in got for c in coords)
