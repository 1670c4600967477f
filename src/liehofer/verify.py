"""Cross-module verification sweeps used by the CLI and the acceptance
suite.

Each check returns (passed, detail, counterexample); a failed check always
carries a concrete counterexample datum.  A sweep that checked nothing is
vacuous and fails, with the empty sweep as its counterexample.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import hofer, loop_morse, quantum_cp1, su2_loops
from .circle_index import CircleSubgroup, index_equality_report
from .errors import EnergyBoundViolation
from .loop_morse import bott_index
from .root_system import build_root_system, dominant_representative, from_label

ALL_SYSTEMS = (
    "A1", "A2", "A3", "A4",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D4", "G2", "F4",
)


def box_coweights(system, box, regular_only=False, nonzero_only=True):
    """All integer coweights with coordinates in [-box, box]."""
    for coords in itertools.product(range(-box, box + 1), repeat=system.rank):
        xi = system.coweight(coords)
        if nonzero_only and xi.is_zero:
            continue
        if regular_only and not CircleSubgroup(xi).regular:
            continue
        yield xi


def check_index_equality(labels, box):
    """Virtual index == conjugate-point index == Bott index of the
    dominant representative, exactly, for every regular coweight."""
    checked = 0
    for label in labels:
        system = from_label(label)
        for xi in box_coweights(system, box, regular_only=True):
            report = index_equality_report(CircleSubgroup(xi))
            dom = dominant_representative(xi)
            if not (report.agree and report.virtual_index == bott_index(dom)):
                return False, f"{checked} coweights checked", {
                    "system": label,
                    "xi": list(xi.coords),
                    "virtual_index": report.virtual_index,
                    "riemannian_index": report.riemannian_index,
                    "bott_index": bott_index(dom),
                }
            checked += 1
    if not checked:
        return False, "0 regular coweights checked: the sweep is vacuous", {
            "systems": list(labels), "box": box, "checked": 0,
        }
    return True, f"{checked} regular coweights agree", None


def check_norm_inequality(labels, box, samples=10_000, seed=7):
    """m^2 <= <xi,xi><eta,eta>, exhaustively at rank <= 2 and on seeded
    random pairs at rank 3-4."""
    rng = np.random.default_rng(seed)
    checked = 0
    for label in labels:
        system = from_label(label)
        if system.rank <= 2:
            pairs = itertools.product(
                box_coweights(system, box, nonzero_only=False),
                box_coweights(system, box),
            )
        else:
            def draw(system=system):
                for _ in range(samples // max(1, sum(from_label(l).rank > 2 for l in labels))):
                    eta = system.coweight(rng.integers(-box, box + 1, system.rank))
                    xi = system.coweight(rng.integers(-box, box + 1, system.rank))
                    if not xi.is_zero:
                        yield eta, xi
            pairs = draw()
        for eta, xi in pairs:
            if not hofer.check_norm_inequality(eta, xi):
                return False, f"{checked} pairs checked", {
                    "system": label,
                    "eta": list(eta.coords),
                    "xi": list(xi.coords),
                }
            checked += 1
    if not checked:
        return False, "0 (eta, xi) pairs checked: the sweep is vacuous", {
            "systems": list(labels), "box": box, "checked": 0,
        }
    return True, f"{checked} (eta, xi) pairs satisfy the inequality", None


def check_omega_series(labels, cutoffs=None):
    """Stratum assembly equals the transgression oracle, exactly."""
    for label in labels:
        system = from_label(label)
        cutoff = (cutoffs or {}).get(label, 12)
        try:
            loop_morse.omega_g_series(system, cutoff, check=True)
        except ArithmeticError as exc:
            return False, str(exc), {"system": label, "cutoff": cutoff}
    return True, f"series match to cutoff for {len(list(labels))} systems", None


def check_hessian(n=48, tol=1e-6):
    """Spectral counts at the once-around SU(2) geodesic."""
    report = su2_loops.hessian_spectrum("energy", 1, n, tol=tol)
    if (report.negative_count, report.zero_count) != (2, 2):
        return False, "energy spectrum off", {
            "m": 1, "n": n,
            "negative_count": report.negative_count,
            "zero_count": report.zero_count,
        }
    lp = su2_loops.hessian_spectrum("lplus", 1, n, tol=tol)
    if lp.negative_count < 2:
        return False, "lplus second differences off", {
            "m": 1, "n": n, "negative_count": lp.negative_count,
        }
    return True, f"energy counts (2, 2) and lplus >= 2 negatives at n={n}", None


def check_seidel(area=1.0):
    """Leading-term exponent matches the Hofer length of [2] on A1, and
    the strict energy bound rejects offending corrections."""
    a1 = build_root_system("A", 1)
    length = hofer.hofer_length_circle(a1.coweight([2]))
    report = quantum_cp1.psi_leading(length.value_float, +1, area=area)
    if not (report.nonzero and report.invertible):
        return False, "leading class not invertible", {"xi": [2]}
    if abs(report.exponent - length.value_float) > 1e-12:
        return False, "exponent mismatch", {
            "exponent": report.exponent,
            "hofer_length": length.value_float,
        }
    try:
        quantum_cp1.psi_leading(
            length.value_float, +1,
            corrections=[(1, quantum_cp1.FUND, length.value_float)],
            area=area,
        )
    except EnergyBoundViolation:
        return True, "leading exponent matches and the energy bound holds", None
    return False, "energy bound not enforced", {"correction_exponent": length.value_float}


CHECKS = {
    "index-equality": lambda labels, box: check_index_equality(labels, box),
    "norm-inequality": lambda labels, box: check_norm_inequality(labels, box, samples=2000),
    "omega-series": lambda labels, box: check_omega_series(labels),
    "hessian": lambda labels, box: check_hessian(),
    "seidel": lambda labels, box: check_seidel(),
}


def run_checks(labels, box, names=None):
    """Run the named checks (all by default) and collect the results."""
    names = list(names) if names else list(CHECKS)
    results = {}
    for name in names:
        passed, detail, counterexample = CHECKS[name](labels, box)
        results[name] = {
            "pass": passed,
            "detail": detail,
            "counterexample": counterexample,
        }
    return results
