import math

import numpy as np
import pytest

import liehofer.su2_loops as su2_loops
from liehofer.su2_loops import (
    MAX_N,
    DiscreteLoop,
    apply_tangent,
    discrete_energy,
    discrete_lplus,
    energy_hessian,
    geodesic_loop,
    hessian_spectrum,
    _distances,
    _qexp,
    _qmul,
    _step_blocks,
)
from su2_oracle import (
    constant_loop,
    energy_spectrum,
    lplus_second_derivative,
    mode_eigenvalues,
    random_loop,
    table_spectrum,
    unstable_directions,
)


def _within_2_ulp(got, want):
    """The closed form evaluates the extremes with math.sin and the table
    with numpy's sin, which may use SIMD code on some CPUs."""
    return abs(got - want) <= 2 * math.ulp(want)


def _case_id(functional, *rest):
    """pytest id of a case: the energy functional is the default and goes
    unnamed."""
    parts = [str(v) for v in rest]
    return "-".join(parts if functional == "energy" else [functional, *parts])


def test_geodesic_loop_shape_and_basing():
    loop = geodesic_loop(1, 64)
    assert loop.n == 64
    assert np.allclose(loop.points[0], [1, 0, 0, 0])
    assert np.allclose(loop.points[-1], [1, 0, 0, 0])
    assert np.max(np.abs(np.linalg.norm(loop.points, axis=1) - 1)) < 1e-12


def test_geodesic_loop_preconditions():
    with pytest.raises(ValueError):
        geodesic_loop(0, 64)
    with pytest.raises(ValueError):
        geodesic_loop(1, 8)


def test_loop_validation():
    points = np.tile([1.0, 0, 0, 0], (17, 1))
    points[3] = [2.0, 0, 0, 0]
    with pytest.raises(ValueError):
        DiscreteLoop(points)
    points = np.tile([0.0, 1.0, 0, 0], (17, 1))
    with pytest.raises(ValueError):
        DiscreteLoop(points)  # not based


def test_energy_values():
    assert discrete_energy(constant_loop(64)) == 0.0
    assert abs(discrete_energy(geodesic_loop(1, 64)) - 2.0) < 2e-3
    assert abs(discrete_energy(geodesic_loop(2, 64)) - 8.0) < 1e-2


def test_energy_resolution_consistency():
    e16 = discrete_energy(geodesic_loop(1, 16))
    e64 = discrete_energy(geodesic_loop(1, 64))
    assert abs(e16 - e64) < 1.0 / 16 ** 2


def test_lplus_values():
    assert discrete_lplus(constant_loop(64)) == 0.0
    assert abs(discrete_lplus(geodesic_loop(1, 64)) - math.sqrt(2)) < 1e-3
    assert abs(discrete_lplus(geodesic_loop(3, 64)) - 3 * math.sqrt(2)) < 1e-2


def test_cauchy_schwarz_on_random_loops():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        loop = random_loop(64, rng, amplitude=rng.uniform(0.05, 2.0))
        lp = discrete_lplus(loop)
        en = discrete_energy(loop)
        assert lp * lp <= en * (1 + 1e-10) + 1e-12


def test_apply_tangent_identity():
    base = geodesic_loop(1, 32)
    same = apply_tangent(base, np.zeros(3 * 31))
    assert np.allclose(same.points, base.points)


def test_energy_spectrum_m1():
    report = hessian_spectrum("energy", 1, 64)
    assert report.negative_count == 2
    assert report.zero_count == 2
    assert report.min_eigenvalue < 0


def test_energy_spectrum_m2():
    report = hessian_spectrum("energy", 2, 64)
    assert report.negative_count == 6
    assert report.zero_count == 2


def test_lplus_second_differences_m1():
    for n in (64, 256, 1024):
        report = hessian_spectrum("lplus", 1, n)
        counts = (report.negative_count, report.zero_count, report.positive_count)
        assert counts == (2, 0, 0), n
        # the circle symmetry rotates the 2-dim unstable eigenspace into itself
        assert math.isclose(report.min_eigenvalue, report.max_eigenvalue, rel_tol=1e-12), n


def test_spectrum_preconditions():
    with pytest.raises(ValueError):
        hessian_spectrum("energy", 1, 16)
    with pytest.raises(ValueError):
        hessian_spectrum("curvature", 1, 64)
    with pytest.raises(ValueError, match="4m"):
        hessian_spectrum("energy", 16, 32)
    with pytest.raises(ValueError, match="4m"):
        hessian_spectrum("energy", 9, 32)
    hessian_spectrum("energy", 8, 32)  # 4m == n is still resolved
    with pytest.raises(ValueError, match="maximum"):
        hessian_spectrum("energy", 1, MAX_N + 1)
    with pytest.raises(ValueError, match="maximum"):
        energy_hessian(1, 100000)
    # the dense oracle stops far below the lanes' MAX_N
    with pytest.raises(ValueError, match="maximum 1024"):
        energy_hessian(1, 1025)
    with pytest.raises(ValueError, match="maximum"):
        energy_spectrum(1, 100000)
    with pytest.raises(ValueError, match="4m"):
        energy_spectrum(9, 32)
    # m < 1 is no circle subgroup: sin t = 0 at m = 0, and L+ flips sign below
    for functional in ("energy", "lplus"):
        with pytest.raises(ValueError, match="winding"):
            hessian_spectrum(functional, 0, 64)
    with pytest.raises(ValueError, match="winding"):
        energy_spectrum(0, 64)
    with pytest.raises(ValueError, match="winding"):
        energy_hessian(0, 64)


def test_spectrum_takes_integer_m_and_n_only():
    # unchecked, m = 1.5 gives fractional counts and n = 64.0 is echoed as a float
    for m, n in ((1.5, 64), (2, 64.0), (2.0, 64), ("2", 64), (2, "64"), (None, 64)):
        for functional in ("energy", "lplus"):
            with pytest.raises(ValueError, match="integers"):
                hessian_spectrum(functional, m, n)
    report = hessian_spectrum("lplus", np.int64(2), np.int32(64))
    assert report == hessian_spectrum("lplus", 2, 64)
    assert type(report.m) is int and type(report.n) is int


def test_loop_and_dense_hessian_take_integer_m_and_n_only():
    # unchecked, geodesic_loop(1.5, 64) overwrote its last point (the
    # quaternion -1) with the identity, and energy_hessian(1.5, 64) was 189 x 189
    for bad in (1.5, "2", None):
        for m, n in ((bad, 64), (1, bad)):
            for build in (geodesic_loop, energy_hessian):
                with pytest.raises(ValueError, match="integers"):
                    build(m, n)
    assert np.array_equal(geodesic_loop(np.int64(2), np.int32(64)).points, geodesic_loop(2, 64).points)
    assert np.array_equal(energy_hessian(np.int64(1), 64), energy_hessian(1, 64))


def test_counts_invariant_under_axis_change():
    # gauge symmetry: rotating the geodesic axis conjugates the loop and
    # leaves the eigenvalue counts unchanged
    for axis in ((0.0, 1.0, 0.0), (1.0, 1.0, 1.0)):
        base = geodesic_loop(1, 48, axis=axis)
        assert abs(discrete_energy(base) - 2.0) < 2e-3
        evals = np.linalg.eigvalsh(_fd_hessian(discrete_energy, 1, 48, 1e-4, axis=axis))
        band = 1e-6 * np.abs(evals).max()
        assert int(np.sum(evals < -band)) == 2
        assert int(np.sum(np.abs(evals) <= band)) == 2


def test_counts_invariant_under_conjugation():
    # conjugating every loop point by a fixed group element preserves
    # distances, hence energy and length
    rng = np.random.default_rng(5)
    g = _qexp(rng.normal(size=(1, 3)))[0]
    ginv = g * np.array([1.0, -1, -1, -1])
    loop = random_loop(48, rng)
    conj = _qmul(_qmul(np.broadcast_to(g, loop.points.shape), loop.points),
                 np.broadcast_to(ginv, loop.points.shape))
    conj /= np.linalg.norm(conj, axis=1, keepdims=True)
    conj_loop = DiscreteLoop(conj)
    assert abs(discrete_energy(conj_loop) - discrete_energy(loop)) < 1e-9
    assert abs(discrete_lplus(conj_loop) - discrete_lplus(loop)) < 1e-9


def _fd_hessian(func, m, n, h, axis=(1.0, 0.0, 0.0)):
    """Independent oracle: dense second differences of the whole-loop
    functional at the geodesic about axis, one coordinate pair at a time
    (blocks of points more than one apart vanish identically and are
    skipped)."""
    base = geodesic_loop(m, n, axis=axis)
    dim = 3 * (n - 1)
    f0 = func(base)

    def f(x):
        return func(apply_tangent(base, x))

    hess = np.zeros((dim, dim))
    e = np.eye(dim)
    for i in range(dim):
        hess[i, i] = (f(h * e[i]) - 2.0 * f0 + f(-h * e[i])) / (h * h)
        pt_i = i // 3
        for j in range(i + 1, dim):
            if j // 3 - pt_i > 1:
                break
            v = (
                f(h * (e[i] + e[j]))
                - f(h * (e[i] - e[j]))
                - f(h * (-e[i] + e[j]))
                + f(-h * (e[i] + e[j]))
            ) / (4.0 * h * h)
            hess[i, j] = hess[j, i] = v
    return 0.5 * (hess + hess.T)


@pytest.mark.parametrize(
    "functional, m, n",
    [
        pytest.param(functional, m, n, id=_case_id(functional, m, n))
        for functional in ("energy", "lplus")
        for n in (48, 64)
        for m in (1, 2)
    ],
)
def test_energy_hessian_matches_full_loop_oracle(functional, m, n):
    # the exact step blocks, assembled block-tridiagonally, against whole-loop
    # central differences of the functional
    block = _dense_block_tridiagonal(*_step_blocks(m, n, functional), n)
    if functional == "energy":
        assert np.array_equal(energy_hessian(m, n), block)
    # the energy step term theta^2 is smooth through theta = 0, but the L+
    # term theta has fourth derivatives of order 1/theta^3 at the small step
    # angle, so its central differences want the smaller step
    func, h = (discrete_energy, 1e-4) if functional == "energy" else (discrete_lplus, 5e-5)
    oracle = _fd_hessian(func, m, n, h)
    assert block.shape == oracle.shape == (3 * (n - 1), 3 * (n - 1))
    assert np.max(np.abs(block - oracle)) < 1e-5
    evals = np.linalg.eigvalsh(block)
    oracle_evals = np.linalg.eigvalsh(oracle)
    scale = np.max(np.abs(oracle_evals))
    assert np.max(np.abs(evals - oracle_evals)) < 1e-6 * scale


def test_energy_hessian_is_symmetric():
    hess = energy_hessian(3, 64)
    assert np.array_equal(hess, hess.T)


def _fd_step_blocks(m, n, h):
    """Blocks S = A + D and B of the central second differences, at step
    h, of one energy step term f(w_a, w_b) = n d(exp w_a, g exp w_b)^2 at
    the winding-m geodesic: differences of the distance itself, which
    share no code with ``_step_blocks``."""
    g = geodesic_loop(m, n).points[1]
    e = h * np.eye(6)
    i, j = np.triu_indices(6, k=1)
    pair, anti = e[i] + e[j], e[i] - e[j]
    probes = np.concatenate([e, -e, pair, anti, -anti, -pair, np.zeros((1, 6))])
    dots = np.sum(_qexp(probes[:, :3]) * _qmul(g, _qexp(probes[:, 3:])), axis=1)
    f = n * _distances(dots) ** 2
    plus, minus, fpp, fpm, fmp, fmm, f0 = np.split(f, [6, 12, 27, 42, 57, 72])
    hess = np.diag((plus - 2.0 * f0 + minus) / (h * h))
    hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return hess[:3, :3] + hess[3:, 3:], hess[:3, 3:]


@pytest.mark.parametrize("n", [64, 128, 257])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_exact_energy_spectrum_matches_dense_eigensolve(m, n):
    closed = energy_spectrum(m, n)
    dense = np.linalg.eigvalsh(energy_hessian(m, n))
    assert closed.shape == dense.shape == (3 * (n - 1),)
    assert np.max(np.abs(closed - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("h", [1e-5, 1e-4, 1e-2])
@pytest.mark.parametrize("n", [64, 128, 257])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_energy_spectrum_matches_dense_eigensolve(m, n, h):
    # the closed form against the dense eigensolve of the step-h difference
    # blocks of the distance: the difference error is O(h^2) and the
    # rounding error O(eps / h^2), a gap of at most 6.1e-7 (h = 1e-5),
    # 8.4e-9 (1e-4) and 4.9e-7 (1e-2) of the scale
    dense = np.linalg.eigvalsh(_dense_block_tridiagonal(*_fd_step_blocks(m, n, h), n))
    closed = energy_spectrum(m, n)
    assert closed.shape == dense.shape == (3 * (n - 1),)
    assert np.max(np.abs(closed - dense)) <= 2e-6 * np.max(np.abs(dense))


# The fixed joint eigenbasis of the step blocks: the axial mode e_x and the
# transverse pair (0, 1, -i)/sqrt 2, (0, 1, i)/sqrt 2.
_MODE_BASIS = np.array(
    [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, -1j, 1j]]
) / np.array([1.0, np.sqrt(2.0), np.sqrt(2.0)])


@pytest.mark.parametrize("n", [32, 64, 257, 1024])
def test_fixed_basis_diagonalizes_step_blocks(n):
    # in the basis, each block pair (S, B) is diagonal, and mode k's
    # Dirichlet tridiagonal spectrum a_k + 2|mu_k| cos(pi j / n) is row k
    # of the closed-form table
    cosines = np.cos(np.pi * np.arange(1, n) / n)
    off = ~np.eye(3, dtype=bool)
    for m in range(1, n // 4 + 1):
        for functional in ("energy", "lplus"):
            s, b = _step_blocks(m, n, functional)
            s_k = _MODE_BASIS.conj().T @ s @ _MODE_BASIS
            b_k = _MODE_BASIS.conj().T @ b @ _MODE_BASIS
            scale = max(np.max(np.abs(s)), np.max(np.abs(b)))
            residual = max(np.max(np.abs(s_k[off])), np.max(np.abs(b_k[off])))
            assert residual <= 1e-15 * scale, (functional, m, n)
            rows = (
                np.diagonal(s_k).real[:, None]
                + 2.0 * np.abs(np.diagonal(b_k))[:, None] * cosines
            )
            table = mode_eigenvalues(m, n, functional)
            assert table.shape == (3, n - 1)
            assert np.max(np.abs(rows - table)) <= 2e-15 * np.max(np.abs(table)), (
                functional, m, n,
            )


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_low_spectrum_tends_to_the_continuum_limit(m):
    # with v = 2m the root pairing, n * lambda tends to j^2 - v^2 (twice,
    # transverse) and j^2 (axial) for the energy, and to (j^2 - v^2) /
    # (sqrt 2 v) on the transverse modes for L+.  The first correction is
    # relative, -pi^2 (j^2 - v^2) / 12 n^2 on the transverse modes and
    # -pi^2 j^2 / 12 n^2 on the axial ones, so on the modes kept (energy
    # limits up to v^2, the negative L+ ones) it is at most
    # pi^2 v^2 / 12 n^2 of the limit; 1% covers the next order.  At n = MAX_N
    # that is below 5e-8 of the limit, so n * lambda_min = 1 - v^2 holds to
    # 5 digits and more
    v = 2 * m
    for n in (1024, MAX_N):
        first = 1.01 * np.pi**2 * v**2 / (12 * n**2)
        j = np.arange(1, 2 * v)
        limit = np.sort(np.concatenate([j**2 - v**2, j**2 - v**2, j**2]))
        limit = limit[limit <= v**2]
        low = n * energy_spectrum(m, n)[: len(limit)]
        assert np.max(np.abs(low - limit)) <= first * v**2, (m, n)
        j = np.arange(1, v)
        limit = np.sort(np.concatenate([j**2 - v**2, j**2 - v**2])) / (math.sqrt(2) * v)
        low = n * np.sort(mode_eigenvalues(m, n, "lplus").ravel())[: len(limit)]
        assert np.max(np.abs(low - limit)) <= first * v / math.sqrt(2), (m, n)
        report = hessian_spectrum("lplus", m, n)
        assert report.negative_count == len(limit), (m, n)
        assert abs(n * report.min_eigenvalue - limit[0]) <= first * v / math.sqrt(2), (m, n)
        assert abs(n * report.max_eigenvalue - limit[-1]) <= first * v / math.sqrt(2), (m, n)


@pytest.mark.parametrize("n", [32, 1024, MAX_N])
def test_energy_zero_modes_are_exactly_zero(n):
    # the transverse pair at j = n - 2m, the directions of the adjoint-orbit
    # 2-sphere, and no other entry
    for m in sorted({1, 3, n // 4}):
        table = mode_eigenvalues(m, n, "energy")
        assert table[1, n - 2 * m - 1] == table[2, n - 2 * m - 1] == 0.0, (m, n)
        assert np.count_nonzero(table == 0.0) == 2, (m, n)


def test_transverse_rows_match_longdouble_sum():
    # the table forms cos t + cos_j as a product of sines; the oracle sums
    # the two cosines in extended precision, where the cancellation costs
    # about 5e-16 of the smallest sums at this resolution
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("needs an extended-precision long double")
    m, n = 1, 1024
    ld = np.longdouble
    pi = np.arccos(ld(-1))
    t = 2 * pi * m / n
    factor = np.cos(t) + np.cos(pi * np.arange(1, n, dtype=ld) / n)
    c = n / (2 * pi**2)
    rows = {
        "energy": 4 * c * t / np.sin(t) * factor,
        "lplus": np.sqrt(ld(2)) / (pi * np.sin(t)) * factor,
    }
    keep = np.arange(1, n) != n - 2 * m
    for functional, want in rows.items():
        got = mode_eigenvalues(m, n, functional)[1]
        error = np.abs(got[keep] - want[keep]) / np.abs(want[keep])
        assert float(np.max(error)) <= 1e-15, functional


@pytest.mark.parametrize(
    "functional, n",
    [
        pytest.param(functional, n, id=_case_id(functional, n))
        for functional in ("energy", "lplus")
        for n in (32, 33, 64, 128, 256, 512, 1024, 2048, 4099, MAX_N)
    ],
)
def test_energy_counts_sweep(functional, n):
    # every winding up to n = 1024, and a few up to 4m = n beyond; the
    # closed form against the mode table, entry by entry
    windings = range(1, n // 4 + 1) if n <= 1024 else sorted({1, 2, 3, 8, n // 4})
    for m in windings:
        report = hessian_spectrum(functional, m, n)
        negative = 2 * (2 * m - 1)
        counts = (report.negative_count, report.zero_count, report.positive_count)
        if functional == "energy":
            assert counts == (negative, 2, 3 * (n - 1) - negative - 2), (m, n)
        else:
            # L+ is taken only along the energy-unstable modes
            assert counts == (negative, 0, 0), (m, n)
        table_counts, low, high = table_spectrum(functional, m, n)
        assert counts == table_counts, (m, n)
        assert _within_2_ulp(report.min_eigenvalue, low), (m, n)
        assert _within_2_ulp(report.max_eigenvalue, high), (m, n)


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"the lane read numpy.{name}")


@pytest.mark.parametrize("functional", ["energy", "lplus"])
def test_lane_reads_no_numpy(functional, monkeypatch):
    # a dense Hessian, an eigensolver and a mode table all need numpy
    monkeypatch.setattr(su2_loops, "np", _NoNumpy())
    for m, n in ((1, 32), (3, 256), (16384, 65536)):
        report = hessian_spectrum(functional, m, n)
        counts = (report.negative_count, report.zero_count, report.positive_count)
        negative = 4 * m - 2
        if functional == "energy":
            assert counts == (negative, 2, 3 * (n - 1) - 4 * m), (m, n)
        else:
            assert counts == (negative, 0, 0), (m, n)


def _dense_block_tridiagonal(s, b, n):
    k = n - 1
    return np.kron(np.eye(k), s) + np.kron(np.eye(k, k=1), b) + np.kron(np.eye(k, k=-1), b.T)


def _check_eigenbasis(directions, hess, count):
    """The directions are orthonormal eigenvectors of hess below its zero
    band, as many as hess has eigenvalues there."""
    d = np.array([w.ravel() for w in directions])
    evals = np.linalg.eigvalsh(hess)
    scale = np.max(np.abs(evals))
    assert len(d) == count == int(np.sum(evals < -1e-6 * scale))
    assert np.max(np.abs(d @ d.T - np.eye(len(d)))) < 1e-12
    rayleigh = np.sum((d @ hess) * d, axis=1)
    assert np.max(np.abs(d @ hess - rayleigh[:, None] * d)) <= 1e-10 * scale
    assert np.all(rayleigh < -1e-6 * scale)


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_unstable_directions_are_dense_eigenvectors(m, n):
    directions = list(unstable_directions(*_step_blocks(m, n, "energy"), n))
    assert all(w.shape == (n - 1, 3) for w in directions)
    _check_eigenbasis(directions, energy_hessian(m, n), 2 * (2 * m - 1))


def test_unstable_directions_with_real_and_complex_modes():
    # commuting blocks in a random frame: one mode with real mu < 0 and a
    # conjugate pair, both partly below zero
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    s = q @ np.diag([-0.5, 0.2, 0.2]) @ q.T
    b = q @ np.array([[-0.3, 0.0, 0.0], [0.0, 0.5, -0.4], [0.0, 0.4, 0.5]]) @ q.T
    n = 40
    hess = _dense_block_tridiagonal(s, b, n)
    evals = np.linalg.eigvalsh(hess)
    count = int(np.sum(evals < -1e-6 * np.max(np.abs(evals))))
    _check_eigenbasis(list(unstable_directions(s, b, n)), hess, count)


def _lplus_longdouble(m, n, w, t):
    """Discrete L+ of the winding-m geodesic about the first axis with its
    interior points pushed to q_l exp(t w_l), in extended precision."""
    ld = np.longdouble
    pi = np.arccos(ld(-1))
    angle = 2 * pi * m * np.arange(n + 1, dtype=ld) / n
    q = np.zeros((n + 1, 4), dtype=ld)
    q[:, 0], q[:, 1] = np.cos(angle), np.sin(angle)
    q[0] = q[-1] = (1, 0, 0, 0)
    tw = ld(t) * np.asarray(w, dtype=ld)
    theta = np.sqrt(np.sum(tw * tw, axis=1))
    safe = np.where(theta > 0, theta, 1)
    e = np.concatenate([np.cos(theta)[:, None], tw * (np.sin(safe) / safe)[:, None]], axis=1)
    a, b = q[1:-1], e
    q[1:-1] = np.stack(
        [
            a[:, 0] * b[:, 0] - a[:, 1] * b[:, 1] - a[:, 2] * b[:, 2] - a[:, 3] * b[:, 3],
            a[:, 0] * b[:, 1] + a[:, 1] * b[:, 0] + a[:, 2] * b[:, 3] - a[:, 3] * b[:, 2],
            a[:, 0] * b[:, 2] - a[:, 1] * b[:, 3] + a[:, 2] * b[:, 0] + a[:, 3] * b[:, 1],
            a[:, 0] * b[:, 3] + a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1] + a[:, 3] * b[:, 0],
        ],
        axis=1,
    )
    dots = np.clip(np.sum(q[:-1] * q[1:], axis=1), -1, 1)
    return np.sqrt(ld(2)) * np.sum(np.arccos(dots)) / (2 * pi)


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_lplus_second_derivative_matches_longdouble_difference(m, n):
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("needs an extended-precision long double")
    g = geodesic_loop(m, n).points[1]
    h = np.longdouble(1e-3)
    for w in unstable_directions(*_step_blocks(m, n, "energy"), n):
        exact = lplus_second_derivative(g, w)
        fd = (
            _lplus_longdouble(m, n, w, h)
            - 2 * _lplus_longdouble(m, n, w, 0)
            + _lplus_longdouble(m, n, w, -h)
        ) / (h * h)
        assert math.isclose(exact, float(fd), rel_tol=1e-7), (exact, float(fd))


@pytest.mark.parametrize("n", [64, 256, 1024, 10_000, MAX_N])
def test_lplus_lane_matches_probe_along_unstable_directions(n):
    # the lane reads the L+ eigenvalues of the energy-unstable modes off the
    # closed-form table; the probe sums the L+ second derivative step by step
    # along dense-checked eigenvectors.  Past n = 1024 the probe stays at
    # small windings: 4m = n would ask for about n directions of 3(n - 1)
    # doubles each.
    for m in sorted({1, 2, 3, 8, n // 4}) if n <= 1024 else (1, 2, 3, 8):
        g = geodesic_loop(m, n).points[1]
        directions = unstable_directions(*_step_blocks(m, n, "energy"), n)
        probe = [lplus_second_derivative(g, w) for w in directions]
        report = hessian_spectrum("lplus", m, n)
        assert report.negative_count == len(probe) == 2 * (2 * m - 1), (m, n)
        assert math.isclose(report.min_eigenvalue, min(probe), rel_tol=1e-10), (m, n)
        assert math.isclose(report.max_eigenvalue, max(probe), rel_tol=1e-10), (m, n)


@pytest.mark.parametrize("n", [32, 33, 100, 1024, 4099, MAX_N])
def test_lplus_lane_slice_is_the_energy_sign_mask(n):
    # the lane takes the L+ extremes at the transverse modes with
    # n - j - 2m < 0; take them instead from the L+ table masked with the
    # signs of the energy table
    for m in sorted({1, 2, 3, n // 8, n // 4 - 1, n // 4}):
        energy = mode_eigenvalues(m, n, "energy")
        masked = mode_eigenvalues(m, n, "lplus")[energy < 0]
        report = hessian_spectrum("lplus", m, n)
        counts = (report.negative_count, report.zero_count, report.positive_count)
        expected = tuple(int(np.count_nonzero(c)) for c in (masked < 0, masked == 0, masked > 0))
        assert counts == expected, (m, n)
        assert _within_2_ulp(report.min_eigenvalue, float(masked.min())), (m, n)
        assert _within_2_ulp(report.max_eigenvalue, float(masked.max())), (m, n)

