"""Test oracles for the SU(2) Hessian spectra.

The library evaluates the counts and the two extreme eigenvalues of each
spectrum in closed form, at modes it knows in advance.  ``mode_eigenvalues``
is the long way round: the table of all 3 (n - 1) mode eigenvalues, whose
signs ``classify`` counts and whose extremes ``table_spectrum`` takes,
entry by entry, as the lane did before it had a closed form.  The tests
check that table against a dense eigensolve of ``energy_hessian``.
``energy_spectrum`` sorts the energy table for that comparison.

The L+ oracle takes a longer way still: real orthonormal eigenvectors of
the energy Hessian, built mode by mode from a numeric joint eigenbasis of
its own, and the exact second derivative of the whole-loop L+ along each
of them, summed step by step.  ``constant_loop`` and ``random_loop`` are
the test loops of the discrete functionals.  Only the tests use them.
"""

import numpy as np

from liehofer.su2_loops import DiscreteLoop, _check_resolution, _qexp

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
    return np.sort(mode_eigenvalues(m, n, "energy").ravel())


def mode_eigenvalues(m, n, functional):
    """Hessian eigenvalues of the energy or L+ at the winding-m geodesic:
    mode (k, j) at [k, j - 1], rows k axial, transverse, transverse.

    The Hessian is block-tridiagonal Toeplitz with diagonal block S and
    off-diagonal blocks B above, B^T below (``_step_blocks``).  Both are
    diagonal in the fixed unitary basis e_x (axial) and
    v = (0, 1, -/+i)/sqrt 2 (transverse): in the notation of
    ``_step_blocks``, u x e_x = 0 and u x v = +/-i s v, while u . v = 0.
    With S v_k = a_k v_k and B v_k = mu_k v_k the Hessian splits into
    scalar Dirichlet tridiagonal matrices with diagonal a_k and
    off-diagonal mu_k, whose eigenvalues are a_k + 2|mu_k| cos_j,
    cos_j = cos(pi j / n), j = 1..n-1.  On the axial mode Hess theta
    vanishes and grad r grad r^T / s^2 has a = 2, mu = -1; on the
    transverse pair that term vanishes and Hess theta has a = 2r / s,
    |mu| = 1 / s.  So, with t = 2 pi m / n and c = n / 2 pi^2, the energy
    rows are 4c (1 + cos_j) and (4c t / sin t)(cos t + cos_j), twice, and
    the L+ rows 0 and (sqrt 2 / (pi sin t))(cos t + cos_j), twice.

    Both sums of cosines are taken as products of sines, with no
    cancellation where they are small:
    1 + cos_j = 2 sin^2(pi (n - j) / 2n) and
    cos t + cos_j = 2 sin(pi (n - j + 2m) / 2n) sin(pi (n - j - 2m) / 2n).
    For 4m <= n every sine but the last is positive, so the axial rows are
    positive, and each transverse entry is exactly 0.0 at j = n - 2m and
    otherwise has the sign of the integer n - j - 2m.
    """
    t = 2 * np.pi * m / n
    nj = n - np.arange(1, n)  # n - j
    transverse = (
        2.0 * np.sin(np.pi * (nj + 2 * m) / (2 * n))
        * np.sin(np.pi * (nj - 2 * m) / (2 * n)) / np.sin(t)
    )
    if functional == "energy":
        c = n / (2 * np.pi**2)
        axial = 8 * c * np.sin(np.pi * nj / (2 * n)) ** 2
        transverse = 4 * c * t * transverse
    else:
        axial, transverse = np.zeros(n - 1), np.sqrt(2.0) / np.pi * transverse
    return np.stack([axial, transverse, transverse])


def classify(values):
    """Counts of the negative, zero and positive entries, by their signs."""
    neg = int(np.count_nonzero(values < 0))
    zero = int(np.count_nonzero(values == 0))
    return neg, zero, values.size - neg - zero


def table_spectrum(functional, m, n):
    """Counts and extremes of the mode table: the whole energy table, or
    the L+ table on the negative energy modes, the transverse ones with
    n - j - 2m < 0, which is the slice [1:, n - 2m:].

    Returns (negative, zero, positive), min, max.
    """
    values = mode_eigenvalues(m, n, functional)
    if functional == "lplus":
        values = values[1:, n - 2 * m:]
    return classify(values), float(values.min()), float(values.max())


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
