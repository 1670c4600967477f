"""Test oracles for the SU(2) Hessian spectra.

The library reads the L+ second derivatives along the energy-unstable
modes off its closed-form table of mode eigenvalues.  This oracle takes
the long way: real orthonormal eigenvectors of the energy Hessian, built
mode by mode from a numeric joint eigenbasis of its own, and the
exact second derivative of the whole-loop L+ along each of them, summed
step by step.  ``energy_spectrum`` sorts the library's energy table, for
comparison with a dense eigensolve.  ``constant_loop`` and ``random_loop``
are the test loops of the discrete functionals.  Only the tests use them.
"""

import numpy as np

from liehofer.su2_loops import DiscreteLoop, _check_resolution, _mode_eigenvalues, _qexp

# Generic weights of the Hermitian combination whose eigenvectors form the
# joint eigenbasis; the relative size below which an imaginary part counts
# as zero; and the zero band of a mode, relative to the size |a_k| + 2|mu_k|
# of the terms its eigenvalues are summed from.
_WEIGHTS = (0.6180339887, 0.3819660113)
_REAL = 1e-10
_BAND = 1e-12
_IDENTITY = (1.0, 0.0, 0.0, 0.0)


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


def energy_spectrum(m, n):
    """Sorted eigenvalues of ``energy_hessian(m, n)`` from the closed-form
    table, without building the matrix.

    Raises ValueError when m < 1, n > MAX_N or 4m > n.
    """
    _check_resolution(m, n)
    return np.sort(_mode_eigenvalues(m, n, "energy").ravel())


def unstable_directions(s, b, n):
    """Real orthonormal eigenvectors, each of shape (n - 1, 3), spanning the
    eigenspaces of the block-tridiagonal Hessian (diagonal block s,
    off-diagonal b above, b^T below) whose eigenvalues are negative.

    With s v_k = a_k v_k and b v_k = mu_k v_k, mode (k, j) has eigenvalue
    a_k + 2|mu_k| cos(pi j / n) and the complex eigenvector
    x_l = e^{-i arg(mu_k) l} sin(pi j l / n) v_k, l = 1..n-1.  The Hessian
    is real, so Re x and Im x lie in the same eigenspace.  For non-real
    mu_k the conjugate joint eigenvector conj(v_k) carries conj(mu_k) and
    v_k . v_k = 0, so Re x and Im x are orthogonal and span x and its
    conjugate: the mode with Im mu_k > 0 gives both, its partner none.  For
    real mu_k the profile is real, and v_k is turned to a real vector by
    the phase of its largest entry.

    Each mode is classified against its own zero band,
    -1e-12 (|a_k| + 2|mu_k|): a bound on the rounding of its eigenvalues
    that does not grow with the other modes, so the shallow unstable modes
    of large n (2 of them at m = 1, n = 10,000) stay below it.
    """
    t1, t2 = _WEIGHTS
    _, basis = np.linalg.eigh(s + t1 * (b + b.T) + 1j * t2 * (b - b.T))
    a = np.diagonal(basis.conj().T @ s @ basis).real
    mu = np.diagonal(basis.conj().T @ b @ basis)
    values = a[:, None] + 2.0 * np.abs(mu)[:, None] * np.cos(np.pi * np.arange(1, n) / n)
    band = _BAND * (np.abs(a) + 2.0 * np.abs(mu))
    real = np.abs(mu.imag) <= _REAL * np.abs(mu)
    points = np.arange(1, n)
    for k, j in zip(*np.nonzero(values < -band[:, None])):
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


def lplus_second_derivative(g, w):
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
    """
    w = np.concatenate([np.zeros((1, 3)), w, np.zeros((1, 3))])
    wa, wb = w[:-1], w[1:]
    r, im = g[0], g[1:]
    s = np.sqrt(np.sum(im * im))
    diff = wa - wb
    r1 = np.sum(diff * im, axis=1)
    r2 = -r * np.sum(diff * diff, axis=1) + 2.0 * np.sum(np.cross(wa, im) * wb, axis=1)
    theta2 = -r2 / s - r * r1 * r1 / s**3
    return float(np.sqrt(2.0) * np.sum(theta2) / (2 * np.pi))
