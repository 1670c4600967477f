import dataclasses
import itertools
import math
import sys

import pytest

from liehofer import hofer, su2_loops, verify
from liehofer.root_system import from_label, pairing
from liehofer.verify import (
    ALL_SYSTEMS,
    MAX_BOX,
    box_coweights,
    check_hessian,
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


# A2 at box 1 holds 72 (eta, xi) pairs, so k = 80 falls on B3's seeded
# draws: both branches of the norm sweep are reached.
@pytest.mark.parametrize("k", [1, 4, 80])
def test_norm_sweep_stops_at_the_first_counterexample(monkeypatch, k):
    seen = []

    def fails_on_kth(eta, xi):
        seen.append((eta, xi))
        return len(seen) != k

    monkeypatch.setattr(verify.hofer, "check_norm_inequality", fails_on_kth)
    passed, detail, counterexample = check_norm_inequality(["A2", "B3"], 1)
    assert passed is False and len(seen) == k
    assert detail.startswith(f"{k - 1} ")
    eta, xi = seen[-1]
    assert counterexample == {
        "system": xi.system.label, "eta": list(eta.coords), "xi": list(xi.coords),
    }


# A2 at box 2 holds 12 regular coweights, so k = 20 falls on B3.
@pytest.mark.parametrize("k", [1, 4, 20])
def test_index_sweep_stops_at_the_first_counterexample(monkeypatch, k):
    seen = []
    index_equality_report = verify.index_equality_report

    def disagrees_on_kth(gamma):
        seen.append(gamma.xi)
        report = index_equality_report(gamma)
        if len(seen) != k:
            return report
        return dataclasses.replace(
            report, riemannian_index=report.riemannian_index + 1, agree=False,
        )

    monkeypatch.setattr(verify, "index_equality_report", disagrees_on_kth)
    passed, detail, counterexample = check_index_equality(["A2", "B3"], 2)
    assert passed is False and len(seen) == k
    assert detail.startswith(f"{k - 1} ")
    xi = seen[-1]
    assert set(counterexample) == {
        "system", "xi", "virtual_index", "riemannian_index", "bott_index",
    }
    assert counterexample["system"] == xi.system.label
    assert counterexample["xi"] == list(xi.coords)
    assert counterexample["riemannian_index"] == counterexample["virtual_index"] + 1


@pytest.mark.parametrize("lane, message, keys", [
    ("energy", "energy spectrum off", {"negative_count", "zero_count"}),
    ("lplus", "lplus second derivatives off",
     {"negative_count", "zero_count", "positive_count"}),
])
def test_hessian_check_names_the_lane_that_fails(monkeypatch, lane, message, keys):
    assert check_hessian()[0] is True
    hessian_spectrum = su2_loops.hessian_spectrum

    def one_zero_mode_too_many(functional, m, n):
        report = hessian_spectrum(functional, m, n)
        if functional != lane:
            return report
        return dataclasses.replace(report, zero_count=report.zero_count + 1)

    monkeypatch.setattr(su2_loops, "hessian_spectrum", one_zero_mode_too_many)
    passed, detail, counterexample = check_hessian()
    assert passed is False and detail == message
    assert set(counterexample) == {"m", "n"} | keys
    assert counterexample["zero_count"] == (3 if lane == "energy" else 1)


@pytest.mark.parametrize("check", [check_index_equality, check_norm_inequality])
def test_box_cap(check):
    for box in (-1, MAX_BOX + 1):
        with pytest.raises(ValueError):
            check(["A1"], box)
    passed, _, _ = check(["A1"], MAX_BOX)
    assert passed is True


def _filtered_box(system, box, regular_only):
    """The per-coweight filter: every box point, tested one at a time."""
    out = []
    for coords in itertools.product(range(-box, box + 1), repeat=system.rank):
        xi = system.coweight(coords)
        if regular_only and not all(pairing(a, xi) != 0 for a in system.positive_roots):
            continue
        out.append(xi.coords)
    return out


def test_box_coweights_match_per_coweight_filter():
    for label in ALL_SYSTEMS:
        system = from_label(label)
        for box in range(5):
            for regular_only in (False, True):
                # at rank 4 the oracle reaches box 4, the index sweep's own
                # box, with the index sweep's own flag only
                if system.rank > 3 and box == 4 and not regular_only:
                    continue
                got = [xi.coords for xi in box_coweights(system, box, regular_only)]
                assert got == _filtered_box(system, box, regular_only), (
                    label, box, regular_only,
                )
                assert all(type(c) is int for coords in got for c in coords)


def test_regular_count_of_the_slowest_sweep_at_the_box_cap():
    # recorded from the numpy block filter that the line stream replaced
    coweights = box_coweights(from_label("F4"), MAX_BOX, regular_only=True)
    assert sum(1 for _ in coweights) == 97870


def test_box_sweep_needs_no_numpy(monkeypatch):
    assert not any(getattr(value, "__name__", None) == "numpy" for value in vars(verify).values())
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert len(list(box_coweights(from_label("B3"), 2, regular_only=True))) == 24
    assert len(list(box_coweights(from_label("A2"), 2))) == 25
    passed, detail, _ = check_index_equality(ALL_SYSTEMS, 2)
    assert passed is True and detail == "428 regular coweights agree"
    # the seeded norm draw is the one use of numpy, so the block is real
    with pytest.raises(ImportError):
        check_norm_inequality(["B3"], 1)
