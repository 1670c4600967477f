"""Desk-scale numerics on SU(2): discretized energy and positive Hofer
length of based loops of unit quaternions, and Hessian spectra at the
circle subgroups.

Both Hessians at a circle subgroup are assembled from one step term: the
geodesic is homogeneous and the quaternion dot product is left-invariant,
so every step contributes the same 6x6 block, which ``_step_blocks``
gives in closed form, and each matrix is block-tridiagonal with constant
blocks.  The fixed unitary basis e_x, (0, 1, -/+i)/sqrt 2 (the axial
mode and the transverse pair) diagonalizes those blocks exactly, so mode
(k, j) has eigenvalue a_k + 2|mu_k| cos(pi j / n), j = 1..n-1.  Each
transverse row falls with j and has the sign of the integer n - j - 2m,
and the axial row is positive and falls with j.  So the counts are
integers and the two extremes sit at known modes: ``hessian_spectrum``
evaluates a fixed handful of scalar expressions with ``math``, in O(1)
time and memory, and builds no array, runs no loop over the modes and
classifies nothing.  The tests keep the table of all 3 (n - 1) mode
eigenvalues as its oracle, and check that table against a dense
eigensolve of ``energy_hessian``.

No CLI command runs anything here but ``hessian_spectrum``.  The
quaternion code (``DiscreteLoop``, ``geodesic_loop``, ``discrete_energy``,
``discrete_lplus``, ``apply_tangent``) and the dense ``energy_hessian``,
with the ``_step_blocks`` it is built from, are the tests' oracles; they
stay in the package only because the benchmark names them (it wraps each
to time it).

Distances are in lattice units: the once-around geodesic (winding m = 1,
coweight [2] of A1) has length sqrt(2) and energy 2, so the per-step
distance is sqrt(2) times the quaternion angle in turns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)
_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def _qmul(a, b):
    """Hamilton product of quaternion arrays (..., 4)."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def _qexp(w):
    """Exponential of pure-imaginary quaternions, w shape (..., 3)."""
    theta = np.linalg.norm(w, axis=-1, keepdims=True)
    out = np.empty(w.shape[:-1] + (4,))
    out[..., :1] = np.cos(theta)
    small = theta < 1e-300
    scale = np.where(small, 1.0, np.sin(theta) / np.where(small, 1.0, theta))
    out[..., 1:] = w * scale
    return out


@dataclass
class DiscreteLoop:
    """Based N-point loop of unit quaternions, q_0 = q_N = identity."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        norms = np.linalg.norm(self.points, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("loop points must be unit quaternions")
        if not (
            np.allclose(self.points[0], _IDENTITY, atol=1e-12)
            and np.allclose(self.points[-1], _IDENTITY, atol=1e-12)
        ):
            raise ValueError("loop must be based at the identity")

    @property
    def n(self):
        return len(self.points) - 1


def geodesic_loop(m, n, axis=(1.0, 0.0, 0.0)):
    """The circle subgroup of winding m sampled at n+1 equispaced times.

    Corresponds to the A1 coweight [2m] in lattice units.
    """
    if m < 1:
        raise ValueError("winding number m must be >= 1")
    if n < 16:
        raise ValueError("need at least 16 sample points")
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    theta = np.arange(n + 1) / n
    w = 2 * np.pi * m * np.outer(theta, axis)
    points = _qexp(w)
    points[0] = _IDENTITY
    points[-1] = _IDENTITY
    return DiscreteLoop(points)


def _distances(dots):
    """Lattice-unit geodesic distances from quaternion dot products."""
    return _SQRT2 * np.arccos(np.clip(dots, -1.0, 1.0)) / (2 * np.pi)


def _step_distances(loop):
    """Lattice-unit geodesic distances between consecutive points."""
    return _distances(np.sum(loop.points[:-1] * loop.points[1:], axis=1))


def discrete_energy(loop):
    """Discrete Riemannian energy N * sum d_i^2 (lattice units)."""
    d = _step_distances(loop)
    return float(loop.n * np.sum(d * d))


def discrete_lplus(loop):
    """Discrete positive Hofer length sum d_i.

    For SU(2)-valued loops the fiberwise maximum of the normalized
    Hamiltonian equals the velocity norm, so L+ is the Riemannian length.
    """
    return float(np.sum(_step_distances(loop)))


def apply_tangent(loop, x):
    """Push the interior points along exponential normal coordinates:
    q_j -> q_j exp(w_j), with x the flattened (n-1, 3) tangent field."""
    w = np.asarray(x, dtype=float).reshape(loop.n - 1, 3)
    points = loop.points.copy()
    points[1:-1] = _qmul(points[1:-1], _qexp(w))
    return DiscreteLoop(points)


@dataclass
class SpectralReport:
    """Eigenvalue classification of a discretized Hessian."""

    functional: str
    m: int
    n: int
    negative_count: int
    zero_count: int
    positive_count: int
    min_eigenvalue: float
    max_eigenvalue: float


# Largest loop resolution: the input domain that the tests cover, up to its
# corner 4m = n = MAX_N.  The spectrum costs the same at every n and needs no
# memory in n; the bound keeps huge n a usage error (exit 2 on the CLI).
MAX_N = 65536

# Largest resolution of the dense oracle ``energy_hessian``: its matrix is
# 3 (n - 1) on a side, 75 MB at n = 1024.
_DENSE_MAX_N = 1024


def _check_resolution(m, n):
    if m < 1:
        raise ValueError(f"winding m={m} must be >= 1")
    if n > MAX_N:
        raise ValueError(f"resolution n={n} exceeds the maximum {MAX_N}")
    if 4 * m > n:
        raise ValueError(f"winding m={m} needs n >= 4m = {4 * m} points, got n={n}")


def _step_blocks(m, n, functional):
    """Diagonal block S = A + D and upper off-diagonal block B of the
    Hessian of the discrete energy or L+ at the winding-m geodesic, from
    the exact Hessian [[A, B], [B^T, D]] of one step term.

    Step j goes from q_j to q_{j+1} = q_j g with one fixed g, and the dot
    product is left-invariant, so in the coordinates (w_a, w_b) of
    ``apply_tangent`` at its two ends the step term is a function of
    theta = arccos r, r = Re(exp(-w_a) g exp(w_b)).  With pure w,
    Re(w q) = -w . Im q, so at 0, with t = 2 pi m / n, r = cos t,
    u = Im g = (sin t, 0, 0), s = sin t and K w = u x w:
    grad r = (u, -u), Hess r = -r [[I, -I], [-I, I]] + [[0, K], [K^T, 0]]
    and Hess theta = -Hess r / s - r grad r grad r^T / s^3.  The energy
    step term n d^2 = (n / 2 pi^2) theta^2 has the block
    (n / 2 pi^2)(2 t Hess theta + 2 grad r grad r^T / s^2); the L+ step
    term d = (sqrt 2 / 2 pi) theta has (sqrt 2 / 2 pi) Hess theta.
    """
    t = 2 * np.pi * m / n
    r, s = np.cos(t), np.sin(t)
    u = np.array([s, 0.0, 0.0])
    k = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -s], [0.0, s, 0.0]])
    eye, zero = np.eye(3), np.zeros((3, 3))
    grad = np.concatenate([u, -u])
    hess_r = -r * np.block([[eye, -eye], [-eye, eye]]) + np.block([[zero, k], [k.T, zero]])
    hess_theta = -hess_r / s - r * np.outer(grad, grad) / s**3
    if functional == "energy":
        hess = n / (2 * np.pi**2) * (2 * t * hess_theta + 2 * np.outer(grad, grad) / s**2)
    else:
        hess = _SQRT2 / (2 * np.pi) * hess_theta
    return hess[:3, :3] + hess[3:, 3:], hess[:3, 3:]


def energy_hessian(m, n):
    """Dense Hessian of the discrete energy at the winding-m geodesic, in
    the body-frame coordinates of ``apply_tangent``.

    Every diagonal block is S and every off-diagonal block B above, B^T
    below (``_step_blocks``); the end steps supply one half of S each at
    the first and last interior points.  Assembly is O(n), the matrix
    O(n^2): it is the dense oracle of the tests' mode table, and
    ``hessian_spectrum`` never builds it.

    Raises ValueError when m < 1, n > 1024 or 4m > n: beyond the last the
    step angle is too coarse for the eigenvalue counts to resolve the
    index.
    """
    _check_resolution(m, n)
    if n > _DENSE_MAX_N:
        raise ValueError(f"dense resolution n={n} exceeds the maximum {_DENSE_MAX_N}")
    s, b = _step_blocks(m, n, "energy")
    k = n - 1
    hess = np.zeros((k, 3, k, 3))
    points = np.arange(k)
    hess[points, :, points, :] = s
    hess[points[:-1], :, points[1:], :] = b
    hess[points[1:], :, points[:-1], :] = b.T
    return hess.reshape(3 * k, 3 * k)


def hessian_spectrum(functional, m, n):
    """Eigenvalue counts and extremes of the chosen functional's Hessian at
    the winding-m geodesic, in closed form: O(1) in n, no array.

    With t = 2 pi m / n, c = n / 2 pi^2 and the transverse factor
    T(j) = 2 sin(pi (n - j + 2m) / 2n) sin(pi (n - j - 2m) / 2n) / sin t,
    which is (cos t + cos(pi j / n)) / sin t taken as a product of sines,
    mode (k, j) of the energy Hessian has eigenvalue 8c sin^2(pi (n - j) / 2n)
    on the axial mode and 4c t T(j) on each transverse one.  T falls with
    j, is exactly 0.0 at j = n - 2m and otherwise has the sign of the
    integer n - j - 2m; the axial row is positive and falls with j.

    'energy': counts (4m - 2, 2, 3(n - 1) - 4m), with no zero band: the
    two zero modes at j = n - 2m are the adjoint-orbit 2-sphere.  The
    minimum is 4c t T(n - 1).  The maximum is the axial entry at j = 1,
    8c sin^2(pi (n - 1) / 2n): it beats the transverse entry at j = 1 for
    every 0 < t <= pi / 2, because that comparison reduces to
    t <= 2 tan(t / 2).

    'lplus': the L+ blocks are diagonal in the same basis, so every energy
    mode is an L+ eigenvector too, with eigenvalue (sqrt 2 / pi) T(j) on
    the transverse modes.  The lane takes the L+ eigenvalues of the
    negative energy modes, the transverse ones with j > n - 2m: counts
    (4m - 2, 0, 0), minimum (sqrt 2 / pi) T(n - 1) and maximum
    (sqrt 2 / pi) T(n - 2m + 1).  Negativity off the energy-unstable
    subspace is exactly what the conjecture leaves open, so it is not
    asserted here.

    Each extreme is evaluated with the same expression, in the same order,
    as the entry of the tests' mode table it stands for.  Raises
    ValueError unless 32 <= n <= MAX_N, 1 <= m and 4m <= n, or for an
    unknown functional.
    """
    if n < 32:
        raise ValueError("need n >= 32 for spectral work")
    if functional not in ("energy", "lplus"):
        raise ValueError(
            f"unknown functional {functional!r} (expected 'energy' or 'lplus')"
        )
    _check_resolution(m, n)
    t = 2 * math.pi * m / n

    def transverse(j):
        return (
            2.0 * math.sin(math.pi * (n - j + 2 * m) / (2 * n))
            * math.sin(math.pi * (n - j - 2 * m) / (2 * n)) / math.sin(t)
        )

    negative = 4 * m - 2
    if functional == "energy":
        c = n / (2 * math.pi**2)
        axial = math.sin(math.pi * (n - 1) / (2 * n))
        counts = (negative, 2, 3 * (n - 1) - 4 * m)
        low, high = 4 * c * t * transverse(n - 1), 8 * c * (axial * axial)
    else:
        counts = (negative, 0, 0)
        low = _SQRT2 / math.pi * transverse(n - 1)
        high = _SQRT2 / math.pi * transverse(n - 2 * m + 1)
    return SpectralReport(functional, m, n, *counts, low, high)
