import ast
import dataclasses
import inspect
import itertools
import math
import os
import subprocess
import sys

import pytest

from liehofer import hofer, quantum_cp1, su2_loops, verify
from liehofer.circle_index import CircleSubgroup, riemannian_index_conjugate, weights_at_max
from liehofer.loop_morse import bott_index
from liehofer.root_system import dominant_representative, from_label, pairing
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


def test_seidel_check_fails_when_the_form_and_the_orbit_maximum_disagree(monkeypatch):
    # the two sides share one memo entry only when M = x: with the record
    # of A1 [2] holding x off by one and its Gram row right, the length
    # keys the norm memo on the false x and L+ on the true dot product M
    invariants = hofer._invariants
    a1 = from_label("A1")

    def x_off_by_one(system, coords):
        dom, g_dom, x = invariants(system, coords)
        return (dom, g_dom, x + 1) if (system, coords) == (a1, (2,)) else (dom, g_dom, x)

    monkeypatch.setattr(hofer, "_invariants", x_off_by_one)
    passed, detail, counterexample = check_seidel()
    assert passed is False and detail == "exponent mismatch"
    assert counterexample["hofer_length"] != counterexample["exponent"]


# The package functions that both sides of check_seidel enter: the record
# of xi (its dominant reduction and Gram form) and the norm memo.  A change
# that makes the two sides share more must edit this set.
SEIDEL_SHARED = {"_invariants", "dominant_reduction", "gram_form", "_norm"}


def _package_code_names(system):
    """The names of every function in the package's source and of the
    system's generated kernels, whose co_filename is "<string>".  Dunder
    methods are left out: a dataclass's generated ``__init__`` (a
    ``NormReport`` built on each side) has a "<string>" file too and the
    name of a hand-written one."""
    names = {name for name, value in vars(system).items() if inspect.isfunction(value)}
    for name, module in list(sys.modules.items()):
        if name.startswith("liehofer."):
            tree = ast.parse(inspect.getsource(module))
            names.update(node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef))
    return {name for name in names if not name.startswith("__")}


def _entered(call, names):
    """The names in ``names`` of the functions that ``call`` enters, each
    side from cold memos."""
    hofer._invariants.cache_clear()
    hofer._norm.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in names:
            entered.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return entered


def test_seidel_sides_share_only_the_record_and_the_norm_memo():
    xi = from_label("A1").coweight([2])
    names = _package_code_names(xi.system)
    assert {"gram_form", "dominant_reduction", "hofer_length_circle", "psi_leading"} <= names
    length_side = _entered(
        lambda: quantum_cp1.psi_leading(hofer.hofer_length_circle(xi).value_float, +1), names
    )
    l_plus_side = _entered(lambda: hofer.positive_norm(xi, xi), names)
    assert "psi_leading" in length_side and "_orbit_maximum_numerator" in l_plus_side
    assert length_side & l_plus_side == SEIDEL_SHARED


@pytest.mark.parametrize("label", ALL_SYSTEMS)
def test_index_equality_sides_share_only_the_row_kernel(label):
    # the three sums that check_index_equality compares: the weights (and
    # so the virtual index) read the orbit key, the count reads a row of its
    # own from the one row kernel, and the Bott index reads no row at all
    system = from_label(label)
    xi = system.coweight([(-1) ** i * (i + 1) for i in range(system.rank)])
    gamma = CircleSubgroup(xi)
    names = _package_code_names(system)
    key_side = _entered(lambda: weights_at_max(gamma), names)
    count_side = _entered(lambda: riemannian_index_conjugate(gamma), names)
    bott_side = _entered(lambda: bott_index(dominant_representative(xi)), names)
    assert {"_orbit_key", "_weights", "abs_pairing_row"} <= key_side
    assert {"riemannian_index_conjugate", "abs_pairing_row"} <= count_side
    assert {"bott_index", "bott_form", "dominant_reduction"} <= bott_side
    assert key_side & count_side == {"abs_pairing_row"}
    assert not bott_side & (key_side | count_side)


def test_verify_imports_no_numpy():
    # numpy enters with the norm sweep's seeded draw and check_hessian's
    # su2_loops, each imported when it runs
    code = "import sys, liehofer.verify; sys.exit('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(verify.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


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
