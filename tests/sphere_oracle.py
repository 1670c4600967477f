"""Test oracles on the unit 2-sphere, the coadjoint orbit of SU(2).

A symmetric product quadrature checks that the normalized Hamiltonian of a
circle action integrates to zero and that its maximum is the height |eta|,
and the max-length measure of a family is the maximum of the member
lengths.  Only the tests use them; the library computes Hofer norms in
closed form.
"""

import numpy as np

from liehofer.errors import DegenerateOrbit


def max_length_measure(lengths):
    """Max-length measure of a family: the maximum of the member lengths."""
    lengths = list(lengths)
    if not lengths:
        raise ValueError("max-length measure of an empty family")
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
