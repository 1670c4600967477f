"""Hofer geometry of circle actions on coadjoint orbits.

Positive Hofer norms maximize the generating Hamiltonian over the
coadjoint orbit of the base coweight; linearity of the Hamiltonian and
convexity of the orbit projection reduce this to the Weyl orbit.  The Weyl
group acts by isometries and the maximum of <w xi, eta> sits in the closed
dominant chamber, so it is computed in closed form as <dom(xi), dom(eta)>
(Bourbaki, Lie VI; Humphreys, Reflection Groups 1.12), with no orbit
enumeration.  Every quantity is an integer numerator over the system's one
denominator ``gram_den`` until it is returned.  A coweight's dominant
coordinates and its squared-norm numerator <x, x> are computed once, in one
memo of the 1024 most recent coordinate tuples (enough for the largest
exhaustive ``verify`` grid, 441 rank-2 coweights at box 10); the orbit
maximum is then one integer inner product of two memoized tuples.  All
lengths are reported in lattice units (long roots at squared length 2, loops
parametrized in turns), stored as exact squares.
"""

from __future__ import annotations

import math
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

    @staticmethod
    def from_squared(sq):
        if type(sq) is not Fraction:
            sq = Fraction(sq)
        return NormReport(sq, math.sqrt(float(sq)))


@lru_cache(maxsize=1024)
def _invariants(system, coords):
    """(dominant coordinates, numerator of <x, x>) of the coweight with
    coordinate tuple ``coords``; the norm is taken on ``coords`` as given."""
    return dominant_coords(system, coords), inner_numerator(system, coords, coords)


def _orbit_maximum_numerator(eta, xi):
    """(system, M, X, E): the orbit maximum is M / gram_den, where M is the
    integer numerator of <dom(xi), dom(eta)>, and X and E are the
    numerators of <xi, xi> and <eta, eta>."""
    if xi.is_zero:
        raise DegenerateOrbit("orbit of the zero coweight is a point")
    system = xi.system
    if eta.system is not system:
        raise DegenerateOrbit("coweights belong to different root systems")
    dom_xi, x = _invariants(system, xi.coords)
    dom_eta, e = _invariants(system, eta.coords)
    return system, inner_numerator(system, dom_xi, dom_eta), x, e


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
    built as one Fraction.
    """
    system, m, x, _ = _orbit_maximum_numerator(eta, xi)
    den = system.gram_den
    return Fraction(m, den), NormReport.from_squared(Fraction(m * m, den * x))


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
    ||xi||, returned as the exact square <xi, xi>."""
    if xi.is_zero:
        raise DegenerateOrbit("orbit of the zero coweight is a point")
    system = xi.system
    return NormReport.from_squared(Fraction(_invariants(system, xi.coords)[1], system.gram_den))
