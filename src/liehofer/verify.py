"""Cross-module verification sweeps used by the CLI and the acceptance
suite.

Each check returns (passed, detail, counterexample); a failed check always
carries a concrete counterexample datum.  The index and norm sweeps share
one tally, ``_sweep``: it counts the cases that hold, stops at the first
counterexample with the detail "N regular coweights checked" or
"N (eta, xi) pairs checked", and fails a sweep that checked nothing as
vacuous, with the empty sweep as its counterexample; a series check given
no systems is vacuous too.  ``run_checks`` refuses a box outside
0..MAX_BOX before it runs any check, whichever checks are named; the two
sweeps also check it, for callers that run them directly.

``box_coweights`` streams the box one line along the last coordinate at a
time, in Python ints, with one call of the generated kernel
``line_zeros`` per line for the regular filter; the tests hold that
filter to the per-root ``pairing`` oracle, one point at a time.  numpy
is imported only where it is read, when the check runs: by the seeded
norm draw of ``check_norm_inequality``, and with ``su2_loops`` by
``check_hessian``.  Importing this module loads no numpy.
"""

from __future__ import annotations

import itertools

from . import hofer, loop_morse, quantum_cp1
from .circle_index import CircleSubgroup, index_equality_report
from .errors import EnergyBoundViolation
from .loop_morse import bott_index
from .root_system import (
    EXPONENTS, Coweight, build_root_system, dominant_representative, from_label,
)

ALL_SYSTEMS = tuple(f"{family}{rank}" for family, rank in EXPONENTS)

# Largest coordinate bound of the two box sweeps.  The box holds
# (2 box + 1)^rank coweights; at the cap the slowest system takes about 1.4 s
# (`verify --box 10 --systems F4 --checks index-equality`; C4 and A4 take
# about 1.3 s each), the index sweep over every system about 5.1 s
# (`--systems all`), and the norm sweep over every system about 1.1 s
# (`verify --box 10 --systems all --checks norm-inequality`); medians of 5
# to 8 CLI runs, import included, on a 2-vCPU VM (`nproc` 2), Python
# 3.11.7, numpy 2.4.6, whose speed drifts by about 25% between runs.
# Enumerating F4's 97,870 regular box coweights takes about 0.1 s of that.
MAX_BOX = 10


def _check_box(box):
    if not 0 <= box <= MAX_BOX:
        raise ValueError(f"box must lie in 0..{MAX_BOX}, got {box}")


def box_coweights(system, box, regular_only=False):
    """All integer coweights with coordinates in [-box, box], the zero
    point included, in ``itertools.product`` order, streamed one line
    along the last coordinate at a time.

    Under ``regular_only`` only the points where no positive root pairs to
    zero are kept.  A simple root pairs to its own coordinate, so only the
    heads (c_0 .. c_{r-2}) with no zero coordinate start a line, and c = 0
    never lies on one.  One call of the system's generated ``line_zeros``
    per line gives the c at which some root pairs to zero on
    head + (c,), or None when every point of the line is singular; the
    line's other points are yielded.  So the work of a line lands on its
    first point, and no point waits for a block of points."""
    rank, side = system.rank, range(-box, box + 1)
    if not regular_only:
        for coords in itertools.product(side, repeat=rank):
            yield Coweight(system, coords)
        return
    line = [c for c in side if c]
    for head in itertools.product(line, repeat=rank - 1):
        zeros = system.line_zeros(head)
        if zeros is not None:
            for c in line:
                if c not in zeros:
                    yield Coweight(system, head + (c,))


def _sweep(labels, box, failures, noun, verdict):
    """The tally of both box sweeps.  ``failures`` yields None for each case
    that holds and a counterexample dict for one that does not; the first
    counterexample ends the sweep.  A sweep that checked nothing fails, with
    the empty sweep as its counterexample."""
    _check_box(box)
    checked = 0
    for counterexample in failures:
        if counterexample is not None:
            return False, f"{checked} {noun} checked", counterexample
        checked += 1
    if not checked:
        return False, f"0 {noun} checked: the sweep is vacuous", {
            "systems": list(labels), "box": box, "checked": 0,
        }
    return True, f"{checked} {noun} {verdict}", None


def check_index_equality(labels, box):
    """Virtual index == conjugate-point index == Bott index of the
    dominant representative, exactly, for every regular coweight."""
    def failures():
        for label in labels:
            for xi in box_coweights(from_label(label), box, regular_only=True):
                report = index_equality_report(CircleSubgroup(xi))
                bott = bott_index(dominant_representative(xi))
                yield None if report.agree and report.virtual_index == bott else {
                    "system": label,
                    "xi": list(xi.coords),
                    "virtual_index": report.virtual_index,
                    "riemannian_index": report.riemannian_index,
                    "bott_index": bott,
                }
    return _sweep(labels, box, failures(), "regular coweights", "agree")


def check_norm_inequality(labels, box):
    """m^2 <= <xi,xi><eta,eta>, exhaustively at rank <= 2 and on
    2000 seeded random pairs shared by the systems of rank >= 3."""
    def failures():
        systems = [from_label(label) for label in labels]
        draws = 2000 // max(1, sum(system.rank > 2 for system in systems))
        # the pair count in the detail depends on this numpy stream; numpy
        # is imported here, so that no other sweep loads it
        import numpy as np

        rng = np.random.default_rng(7)
        for system in systems:
            if system.rank <= 2:
                pairs = itertools.product(box_coweights(system, box), repeat=2)
            else:
                def draw(system=system):
                    return system.coweight(rng.integers(-box, box + 1, system.rank))
                pairs = ((draw(), draw()) for _ in range(draws))
            for eta, xi in pairs:
                if not xi.is_zero:  # the sweep's one zero filter: a zero xi has a point orbit
                    yield None if hofer.check_norm_inequality(eta, xi) else {
                        "system": system.label,
                        "eta": list(eta.coords),
                        "xi": list(xi.coords),
                    }
    return _sweep(labels, box, failures(), "(eta, xi) pairs", "satisfy the inequality")


def check_omega_series(labels):
    """Stratum assembly equals the transgression oracle, exactly, to
    degree 12."""
    cutoff = 12
    if not labels:
        return False, "0 systems checked: the check is vacuous", {
            "systems": [], "cutoff": cutoff, "checked": 0,
        }
    for label in labels:
        system = from_label(label)
        try:
            loop_morse.omega_g_series(system, cutoff, check=True)
        except ArithmeticError as exc:
            return False, str(exc), {"system": label, "cutoff": cutoff}
    return True, f"series match to cutoff for {len(labels)} systems", None


def check_hessian():
    """Spectral counts at the once-around SU(2) geodesic, n = 48 points."""
    from . import su2_loops  # it loads numpy, so it is imported when the check runs

    n = 48
    fields = ("negative_count", "zero_count", "positive_count")
    for functional, expected, message in (
        ("energy", (2, 2), "energy spectrum off"),
        ("lplus", (2, 0, 0), "lplus second derivatives off"),
    ):
        report = su2_loops.hessian_spectrum(functional, 1, n)
        counts = {field: getattr(report, field) for field in fields[:len(expected)]}
        if tuple(counts.values()) != expected:
            return False, message, {"m": 1, "n": n, **counts}
    return True, f"energy counts (2, 2) and lplus counts (2, 0, 0) at n={n}", None


def check_seidel():
    """Leading-term exponent matches the Hofer length of [2] on A1, and
    the strict energy bound rejects offending corrections (unit area).

    The exponent is compared with L+ of [2] on its own orbit, taken through
    the orbit maximum rather than the length handed to ``psi_leading``.
    Both sides read one record of [2] and one norm memo: the length keys
    the memo on x, the form that ``gram_form`` returns, and L+ keys it on
    M, the dot product of the orbit maximum.  So the two sides meet in one
    memo entry exactly when M = x, and that equality is the claim checked:
    two closed forms of <xi, xi> over one record."""
    xi = build_root_system("A", 1).coweight([2])
    length = hofer.hofer_length_circle(xi)
    report = quantum_cp1.psi_leading(length.value_float, +1)
    if not (report.nonzero and report.invertible):
        return False, "leading class not invertible", {"xi": [2]}
    l_plus = hofer.positive_norm(xi, xi)[1].value_float
    if report.exponent != l_plus:
        return False, "exponent mismatch", {
            "exponent": report.exponent,
            "hofer_length": l_plus,
        }
    try:
        quantum_cp1.psi_leading(
            length.value_float, +1,
            corrections=[(1, quantum_cp1.FUND, length.value_float)],
        )
    except EnergyBoundViolation:
        return True, "leading exponent matches and the energy bound holds", None
    return False, "energy bound not enforced", {"correction_exponent": length.value_float}


CHECKS = {
    "index-equality": check_index_equality,
    "norm-inequality": check_norm_inequality,
    "omega-series": lambda labels, box: check_omega_series(labels),
    "hessian": lambda labels, box: check_hessian(),
    "seidel": lambda labels, box: check_seidel(),
}


def run_checks(labels, box, names=None):
    """Run the named checks (all by default) and collect the results."""
    _check_box(box)
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
