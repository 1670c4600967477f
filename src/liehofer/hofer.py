"""Hofer geometry of circle actions on coadjoint orbits.

Positive Hofer norms maximize the generating Hamiltonian over the
coadjoint orbit of the base coweight; linearity of the Hamiltonian and
convexity of the orbit projection reduce this to the Weyl orbit.  The Weyl
group acts by isometries and the maximum of <w xi, eta> sits in the closed
dominant chamber, so it is computed in closed form as <dom(xi), dom(eta)>
(Bourbaki, Lie VI; Humphreys, Reflection Groups 1.12), with no orbit
enumeration.  All lengths are reported in lattice units (long roots at
squared length 2, loops parametrized in turns), stored as exact squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateOrbit, EmptyFamily
from .root_system import dominant_representative, inner
from .root_system import orbit_array  # noqa: F401  (re-export: perfbench/tracing.py wraps it here)


@dataclass(frozen=True)
class NormReport:
    """Exact squared norm plus its floating-point square root."""

    value_squared: Fraction
    value_float: float

    @staticmethod
    def from_squared(sq):
        sq = Fraction(sq)
        return NormReport(sq, math.sqrt(float(sq)))


def orbit_maximum(eta, xi):
    """max over w in the Weyl orbit of xi of <w, eta>, exact rational.

    Closed form <dom(xi), dom(eta)>: the Weyl group acts by isometries and
    the maximum lies in the closed dominant chamber.
    """
    if xi.is_zero:
        raise DegenerateOrbit("orbit of the zero coweight is a point")
    if eta.system is not xi.system:
        raise DegenerateOrbit("coweights belong to different root systems")
    return inner(dominant_representative(xi), dominant_representative(eta))


def positive_norm(eta, xi):
    """Positive Hofer norm of eta on the orbit of xi.

    Returns (m, report): the raw orbit maximum m >= 0 and the squared
    positive norm m^2 / <xi, xi>.
    """
    m = orbit_maximum(eta, xi)
    return m, NormReport.from_squared(m * m / inner(xi, xi))


def check_norm_inequality(eta, xi):
    """Exact test m^2 <= <xi,xi><eta,eta> of the positive-vs-Riemannian
    norm inequality; always true for a correct build (Cauchy-Schwarz), so
    a False return flags an implementation bug."""
    m = orbit_maximum(eta, xi)
    return m * m <= inner(xi, xi) * inner(eta, eta)


def hofer_length_circle(xi):
    """Positive Hofer length of the circle action generated by xi: equals
    ||xi||, returned as the exact square <xi, xi>."""
    if xi.is_zero:
        raise DegenerateOrbit("orbit of the zero coweight is a point")
    return NormReport.from_squared(inner(xi, xi))


def max_length_measure(lengths):
    """Max-length measure of a family: the maximum of the member lengths."""
    lengths = list(lengths)
    if not lengths:
        raise EmptyFamily("max-length measure of an empty family")
    return max(lengths)


def _sphere_grid(n_polar=64, n_azimuth=64):
    """Symmetric product quadrature on the unit 2-sphere.

    Gauss-Legendre nodes in the polar cosine and a uniform azimuthal grid;
    weights sum to the sphere area 4 pi.
    """
    z, wz = np.polynomial.legendre.leggauss(n_polar)
    phi = 2 * np.pi * (np.arange(n_azimuth) + 0.5) / n_azimuth
    s = np.sqrt(1.0 - z ** 2)
    x = np.outer(s, np.cos(phi)).ravel()
    y = np.outer(s, np.sin(phi)).ravel()
    zz = np.repeat(z, n_azimuth)
    w = np.repeat(wz, n_azimuth) * (2 * np.pi / n_azimuth)
    return np.column_stack([x, y, zz]), w


def normalization_integral_s2(eta, n_polar=64, n_azimuth=64):
    """Numerical integral of H_eta(x) = <x, eta> over the unit sphere.

    Invariance under the coadjoint action forces the value to vanish; the
    symmetric grid reproduces this to machine precision.
    """
    eta = np.asarray(eta, dtype=float)
    if not np.any(eta):
        raise DegenerateOrbit("eta must be nonzero")
    points, w = _sphere_grid(n_polar, n_azimuth)
    return float(w @ (points @ eta))


def sphere_moment_max(eta, n_polar=64, n_azimuth=64):
    """Maximum of H_eta over the quadrature grid (approximates |eta|)."""
    eta = np.asarray(eta, dtype=float)
    points, _ = _sphere_grid(n_polar, n_azimuth)
    return float((points @ eta).max())
