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
rank-2 coweights at box 10).  The record has four fields: the dominant
coordinates dom, their Gram row G dom, the numerator x of <x, x>, and the
finished length report.  The orbit maximum is then one integer dot product
of length ``rank``, dom(eta) . G dom(xi) (the Gram matrix is symmetric),
and the Hofer length of a circle is the memoized report itself.  All
lengths are reported in lattice units (long roots at squared length 2,
loops parametrized in turns), stored as exact squares with the correctly
rounded square root of the int / int quotient.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DegenerateOrbit
from .root_system import dominant_coords, inner_numerator
from .root_system import inner, orbit_array  # noqa: F401  (re-exports: perfbench/tracing.py wraps them here)


@dataclass(frozen=True)
class NormReport:
    """Exact squared norm plus its floating-point square root."""

    value_squared: Fraction
    value_float: float


@lru_cache(maxsize=1024)
def _invariants(system, coords):
    """Memo record (dom, g_dom, x, length) of the coweight with coordinate
    tuple ``coords``: its dominant coordinates, their Gram row (the
    numerators of <omega_j^vee, dom>), the numerator x of <x, x> taken on
    ``coords`` as given, and the finished length report of sqrt(<x, x>).
    The float is the square root of the correctly rounded int / int
    quotient, the same double as ``math.sqrt(float(Fraction(x, den)))``."""
    dom = dominant_coords(system, coords)
    g_dom = tuple(sum(map(operator.mul, row, dom)) for row in system.gram_num)
    x = inner_numerator(system, coords, coords)
    den = system.gram_den
    return dom, g_dom, x, NormReport(Fraction(x, den), math.sqrt(x / den))


def _orbit_maximum_numerator(eta, xi):
    """(system, M, X, E): the orbit maximum is M / gram_den, where M is the
    integer numerator of <dom(xi), dom(eta)>, one dot product of dom(eta)
    with the Gram row of dom(xi), and X and E are the numerators of
    <xi, xi> and <eta, eta>."""
    if xi.is_zero:
        raise DegenerateOrbit("orbit of the zero coweight is a point")
    system = xi.system
    if eta.system is not system:
        raise DegenerateOrbit("coweights belong to different root systems")
    _, g_xi, x, _ = _invariants(system, xi.coords)
    dom_eta, _, e, _ = _invariants(system, eta.coords)
    return system, sum(map(operator.mul, dom_eta, g_xi)), x, e


def orbit_maximum(eta, xi):
    """max over w in the Weyl orbit of xi of <w, eta>, exact rational.

    Closed form <dom(xi), dom(eta)>: the Weyl group acts by isometries and
    the maximum lies in the closed dominant chamber.
    """
    system, m, _, _ = _orbit_maximum_numerator(eta, xi)
    return Fraction(m, system.gram_den)


def positive_norm(eta, xi):
    """Positive Hofer norm of eta on the orbit of xi.

    Returns (m, report): the raw orbit maximum m >= 0 and the squared
    positive norm m^2 / <xi, xi>.  With m = M / gram_den and <xi, xi> =
    X / gram_den in integer numerators, the square is M^2 / (gram_den X),
    built as one Fraction, and its float is the square root of the
    correctly rounded int / int quotient.
    """
    system, m, x, _ = _orbit_maximum_numerator(eta, xi)
    den = system.gram_den
    sq, d = m * m, den * x
    return Fraction(m, den), NormReport(Fraction(sq, d), math.sqrt(sq / d))


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
    ||xi||, returned as the exact square <xi, xi>: the memoized report."""
    if xi.is_zero:
        raise DegenerateOrbit("orbit of the zero coweight is a point")
    return _invariants(xi.system, xi.coords)[3]
