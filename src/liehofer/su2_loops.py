"""Desk-scale numerics on SU(2): discretized energy and positive Hofer
length of based loops of unit quaternions, and Hessian spectra at the
circle subgroups.

The energy Hessian at a circle subgroup is assembled from one step term:
the geodesic is homogeneous and the quaternion dot product is
left-invariant, so every step contributes the same 6x6 second-difference
block and the matrix is block-tridiagonal with constant blocks.  Its
diagonal block S and off-diagonal block B commute and B is normal, so the
energy spectrum has a closed form (``energy_spectrum``): one 3x3 joint
eigenbasis gives S v_k = a_k v_k and B v_k = mu_k v_k, and the eigenvalues
are a_k + 2|mu_k| cos(pi j / n), j = 1..n-1.  The same basis gives the
eigenvectors in closed form (``_unstable_directions``), and the L+ lane
takes the exact second derivative of L+ along each energy-negative one
(``_lplus_second_derivative``).  Both lanes are O(m n) and neither
assembles the Hessian; the dense ``energy_hessian`` is the tests' oracle.

Distances are in lattice units: the once-around geodesic (winding m = 1,
coweight [2] of A1) has length sqrt(2) and energy 2, so the per-step
distance is sqrt(2) times the quaternion angle in turns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

_SQRT2 = np.sqrt(2.0)
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


def constant_loop(n):
    """The constant loop at the identity (energy and length zero)."""
    return DiscreteLoop(np.tile(_IDENTITY, (n + 1, 1)))


def random_loop(n, rng, amplitude=1.0):
    """Random based loop: the constant loop pushed by independent
    tangent vectors of the given amplitude at the interior points."""
    w = rng.uniform(-amplitude, amplitude, size=(n - 1, 3))
    points = np.tile(_IDENTITY, (n + 1, 1))
    points[1:-1] = _qexp(w)
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
    tolerance: float
    step: float


# Largest loop resolution.  Both lanes run in O(m n) memory, so the one
# cap is the relative zero band tol * max|eigenvalue|: the low eigenvalues
# shrink like 1/n while the largest grows like n, so past n = 1024 the
# band starts to swallow unstable modes (at tol 1e-6, h 1e-4: m = 3,
# n = 2048 counts 3 zero modes where 2 are due).
MAX_N = 1024

# Generic weights of the Hermitian pencil whose eigenvectors form the
# joint eigenbasis of S and B (see ``_joint_spectrum``).
_PENCIL_T1, _PENCIL_T2 = 0.7548776662, 0.5698402910

# Off-diagonal residual, relative to the block scale, above which the
# pencil basis is not taken as a joint eigenbasis of S and B.
_JOINT_RESIDUAL = 1e-10


def _check_resolution(m, n):
    if n > MAX_N:
        raise ValueError(f"resolution n={n} exceeds the maximum {MAX_N}")
    if 4 * m > n:
        raise ValueError(f"winding m={m} needs n >= 4m = {4 * m} points, got n={n}")


def _step_blocks(m, n, h):
    """Diagonal block S = A + D and upper off-diagonal block B of the
    energy Hessian, from the step block [[A, B], [B^T, D]]."""
    step = _step_hessian(geodesic_loop(m, n).points[1], n, h)
    return step[:3, :3] + step[3:, 3:], step[:3, 3:]


def energy_hessian(m, n, h=1e-4):
    """Second-difference Hessian of the discrete energy at the winding-m
    geodesic, in the body-frame coordinates of ``apply_tangent``.

    Step j of the geodesic goes from q_j to q_{j+1} = q_j g with one fixed
    g, and the dot product is left-invariant, so the step term in the
    coordinates (w_j, w_{j+1}) is f(w_a, w_b) = n d(exp w_a, g exp w_b)^2
    for every j.  Its 6x6 Hessian [[A, B], [B^T, D]] (72 evaluations of f
    with step h) gives every diagonal block A + D and every off-diagonal
    block B or B^T; the end steps supply one half each at the first and
    last interior points.  Assembly is O(n), the matrix O(n^2): it is the
    tests' dense oracle for ``energy_spectrum`` and ``_unstable_directions``,
    and no lane of ``hessian_spectrum`` builds it.

    Raises ValueError when n > MAX_N or 4m > n: beyond the latter the step
    angle is too coarse for the eigenvalue counts to resolve the index,
    beyond the former the relative zero band of ``hessian_spectrum``
    breaks down (see ``MAX_N``).
    """
    _check_resolution(m, n)
    s, b = _step_blocks(m, n, h)
    k = n - 1
    hess = np.zeros((k, 3, k, 3))
    points = np.arange(k)
    hess[points, :, points, :] = s
    hess[points[:-1], :, points[1:], :] = b
    hess[points[1:], :, points[:-1], :] = b.T
    return hess.reshape(3 * k, 3 * k)


def energy_spectrum(m, n, h=1e-4):
    """Sorted eigenvalues of ``energy_hessian(m, n, h)`` in O(n) time and
    memory, without building the matrix.

    The Hessian is block-tridiagonal Toeplitz with diagonal block S and
    off-diagonal blocks B above, B^T below.  With S v_k = a_k v_k and
    B v_k = mu_k v_k in a joint eigenbasis (B is normal, so also
    B^T v_k = conj(mu_k) v_k), the Hessian splits into three scalar
    Dirichlet tridiagonal matrices with diagonal a_k and off-diagonal
    mu_k, whose eigenvalues are a_k + 2|mu_k| cos(pi j / n), j = 1..n-1.

    Raises ValueError when n > MAX_N or 4m > n, and NumericalFailure when
    no joint eigenbasis of S and B is found.
    """
    _check_resolution(m, n)
    a, mu, _ = _joint_spectrum(*_step_blocks(m, n, h))
    return np.sort(_mode_eigenvalues(a, mu, n).ravel())


def _mode_eigenvalues(a, mu, n):
    """Eigenvalue a_k + 2|mu_k| cos(pi j / n) of mode (k, j) at [k, j - 1]."""
    cosines = np.cos(np.pi * np.arange(1, n) / n)
    return a[:, None] + 2.0 * np.abs(mu)[:, None] * cosines


def _joint_spectrum(s, b):
    """Eigenvalues a_k of the symmetric s and mu_k of the normal b, and the
    unitary joint eigenbasis (column k is v_k), taken from the eigenvectors
    of the Hermitian pencil s + t1 (b + b^T) + i t2 (b - b^T) with fixed
    generic t1, t2 (``eig(b)`` alone fails where b repeats an eigenvalue
    that s splits).

    Raises NumericalFailure unless that basis diagonalizes both s and b
    to ``_JOINT_RESIDUAL`` of the block scale, which fails when s and b
    do not commute or b is not normal.
    """
    pencil = s + _PENCIL_T1 * (b + b.T) + 1j * _PENCIL_T2 * (b - b.T)
    try:
        _, basis = np.linalg.eigh(pencil)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed for the step blocks: {exc}") from exc
    s_k = basis.conj().T @ s @ basis
    b_k = basis.conj().T @ b @ basis
    off = ~np.eye(3, dtype=bool)
    residual = max(np.max(np.abs(s_k[off])), np.max(np.abs(b_k[off])))
    scale = max(np.max(np.abs(s)), np.max(np.abs(b)))
    # written so that a NaN anywhere fails the check
    if not residual <= _JOINT_RESIDUAL * scale:
        raise NumericalFailure(
            f"step blocks have no joint eigenbasis: off-diagonal residual "
            f"{residual:.3g} at block scale {scale:.3g}"
        )
    return np.diagonal(s_k).real, np.diagonal(b_k), basis


def _unstable_directions(s, b, n, tol):
    """Real orthonormal eigenvectors, each of shape (n - 1, 3), spanning the
    eigenspaces of the block-tridiagonal Hessian (diagonal block s,
    off-diagonal b above, b^T below) whose eigenvalues lie below the zero
    band -tol * max|eigenvalue|.

    Mode (k, j) has the complex eigenvector x_l = e^{-i arg(mu_k) l}
    sin(pi j l / n) v_k, l = 1..n-1 (see ``energy_spectrum``).  The Hessian
    is real, so Re x and Im x lie in the same eigenspace.  For non-real
    mu_k the conjugate joint eigenvector conj(v_k) carries conj(mu_k) and
    v_k . v_k = 0, so Re x and Im x are orthogonal and span x and its
    conjugate: the mode with Im mu_k > 0 gives both, its partner none.  For
    real mu_k (to ``_JOINT_RESIDUAL`` of |mu_k|) the profile is real, and
    v_k is turned to a real vector by the phase of its largest entry.
    """
    a, mu, basis = _joint_spectrum(s, b)
    values = _mode_eigenvalues(a, mu, n)
    band = tol * float(np.max(np.abs(values)))
    real = np.abs(mu.imag) <= _JOINT_RESIDUAL * np.abs(mu)
    points = np.arange(1, n)
    for k, j in zip(*np.nonzero(values < -band)):
        if mu[k].imag < 0 and not real[k]:
            continue
        v = basis[:, k]
        if real[k]:
            top = v[np.argmax(np.abs(v))]
            v = v * (np.conj(top) / np.abs(top))
        profile = np.exp(-1j * np.angle(mu[k]) * points) * np.sin(np.pi * (j + 1) * points / n)
        x = profile[:, None] * v
        for part in (x.real,) if real[k] else (x.real, x.imag):
            yield part / np.sqrt(np.sum(part * part))


def _lplus_second_derivative(g, w):
    """Exact d^2/dt^2 at t = 0 of the discrete L+ of the homogeneous loop
    with step g, its interior points pushed to q_l exp(t w_l) as in
    ``apply_tangent``; w has shape (n - 1, 3).

    Step i contributes (sqrt 2 / 2 pi) theta_i with theta_i = arccos r_i,
    r_i = Re g_i(t) and g_i(t) = exp(-t w_i) g exp(t w_{i+1}), w_0 = w_n = 0.
    With pure w, Re(w q) = -w . Im q, so at t = 0 r = Re g,
    r' = Re(g w_{i+1} - w_i g) = Im g . (w_i - w_{i+1}) and
    r'' = Re(w_i^2 g - 2 w_i g w_{i+1} + g w_{i+1}^2)
        = -Re g |w_i - w_{i+1}|^2 + 2 (w_i x Im g) . w_{i+1},
    and theta'' = -r''/s - r r'^2 / s^3 with s = |Im g| = sin theta.
    Sums are numpy's own, not BLAS, so the value is the same for every
    BLAS thread count.
    """
    w = np.concatenate([np.zeros((1, 3)), w, np.zeros((1, 3))])
    wa, wb = w[:-1], w[1:]
    r, im = g[0], g[1:]
    s = np.sqrt(np.sum(im * im))
    diff = wa - wb
    r1 = np.sum(diff * im, axis=1)
    r2 = -r * np.sum(diff * diff, axis=1) + 2.0 * np.sum(np.cross(wa, im) * wb, axis=1)
    theta2 = -r2 / s - r * r1 * r1 / s**3
    return float(_SQRT2 * np.sum(theta2) / (2 * np.pi))


def _step_hessian(g, n, h):
    """Central second differences of f(w_a, w_b) = n d(exp w_a, g exp w_b)^2
    at 0, all probes evaluated in one vectorized call."""
    e = h * np.eye(6)
    i, j = np.triu_indices(6, k=1)
    pair, anti = e[i] + e[j], e[i] - e[j]
    probes = np.concatenate([e, -e, pair, anti, -anti, -pair, np.zeros((1, 6))])
    dots = np.sum(_qexp(probes[:, :3]) * _qmul(g, _qexp(probes[:, 3:])), axis=1)
    f = n * _distances(dots) ** 2
    plus, minus, fpp, fpm, fmp, fmm, f0 = np.split(f, [6, 12, 27, 42, 57, 72])
    hess = np.diag((plus - 2.0 * f0 + minus) / (h * h))
    hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return hess


def _classify(values, tol):
    scale = float(np.max(np.abs(values))) if len(values) else 0.0
    band = tol * scale
    neg = int(np.sum(values < -band))
    zero = int(np.sum(np.abs(values) <= band))
    return neg, zero, len(values) - neg - zero


def hessian_spectrum(functional, m, n, h=1e-4, tol=1e-6):
    """Eigenvalue counts of the chosen functional at the winding-m geodesic.

    'energy': the closed-form spectrum of the block-tridiagonal energy
    Hessian (``energy_spectrum``, O(n), no matrix is built); the zero band
    tol * max|eigenvalue| absorbs the two critical-stratum directions (the
    adjoint-orbit 2-sphere).  The band is relative, and the low
    eigenvalues scale like 1/n against a largest one like n, which is why
    n stops at MAX_N.

    'lplus': exact second derivatives of the full-loop L+
    (``_lplus_second_derivative``) along a real orthonormal basis of the
    energy-unstable eigenspaces only (``_unstable_directions``), O(m n);
    negativity off that subspace is exactly what the conjecture leaves
    open, so it is not asserted here.  The step h enters only through the
    energy blocks that give the directions.

    Raises ValueError unless 32 <= n <= MAX_N, 4m <= n, h lies in
    [1e-5, 1e-2] and tol lies in (0, 1).
    """
    if n < 32:
        raise ValueError("need n >= 32 for spectral work")
    if not 1e-5 <= h <= 1e-2:
        raise ValueError("step h must lie in [1e-5, 1e-2]")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")
    if functional not in ("energy", "lplus"):
        raise ValueError(
            f"unknown functional {functional!r} (expected 'energy' or 'lplus')"
        )
    if functional == "energy":
        evals = energy_spectrum(m, n, h)
        neg, zero, pos = _classify(evals, tol)
        return SpectralReport(
            functional, m, n, neg, zero, pos,
            float(evals[0]), float(evals[-1]), tol, h,
        )

    # lplus: exact second derivatives along the energy-negative directions
    _check_resolution(m, n)
    s, b = _step_blocks(m, n, h)
    g = geodesic_loop(m, n).points[1]
    second = np.array(
        [_lplus_second_derivative(g, w) for w in _unstable_directions(s, b, n, tol)]
    )
    neg, zero, pos = _classify(second, tol)
    return SpectralReport(
        functional, m, n, neg, zero, pos,
        float(second.min()) if len(second) else 0.0,
        float(second.max()) if len(second) else 0.0,
        tol, h,
    )
