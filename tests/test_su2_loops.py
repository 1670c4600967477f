import math

import numpy as np
import pytest

import liehofer.su2_loops as su2_loops
from liehofer.errors import NumericalFailure
from liehofer.su2_loops import (
    MAX_N,
    DiscreteLoop,
    apply_tangent,
    constant_loop,
    discrete_energy,
    discrete_lplus,
    energy_hessian,
    energy_spectrum,
    geodesic_loop,
    hessian_spectrum,
    random_loop,
    _joint_spectrum,
    _qexp,
    _qmul,
)


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
    report = hessian_spectrum("lplus", 1, 64)
    assert report.negative_count >= 2


def test_spectrum_preconditions():
    with pytest.raises(ValueError):
        hessian_spectrum("energy", 1, 16)
    with pytest.raises(ValueError):
        hessian_spectrum("energy", 1, 64, h=1.0)
    with pytest.raises(ValueError):
        hessian_spectrum("curvature", 1, 64)
    with pytest.raises(ValueError):
        hessian_spectrum("energy", 1, 64, h=math.nan)
    with pytest.raises(ValueError, match="4m"):
        hessian_spectrum("energy", 16, 32)
    with pytest.raises(ValueError, match="4m"):
        hessian_spectrum("energy", 9, 32)
    hessian_spectrum("energy", 8, 32)  # 4m == n is still resolved
    with pytest.raises(ValueError, match="maximum"):
        hessian_spectrum("energy", 1, MAX_N + 1)
    with pytest.raises(ValueError, match="maximum"):
        energy_hessian(1, 100000)
    with pytest.raises(ValueError, match="maximum"):
        energy_spectrum(1, 100000)
    with pytest.raises(ValueError, match="4m"):
        energy_spectrum(9, 32)
    for tol in (-1.0, 0.0, 1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            hessian_spectrum("energy", 1, 32, tol=tol)


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


@pytest.mark.parametrize("n", [48, 64])
@pytest.mark.parametrize("m", [1, 2])
def test_energy_hessian_matches_full_loop_oracle(m, n):
    block = energy_hessian(m, n)
    oracle = _fd_hessian(discrete_energy, m, n, 1e-4)
    assert block.shape == oracle.shape == (3 * (n - 1), 3 * (n - 1))
    assert np.max(np.abs(block - oracle)) < 1e-5
    evals = np.linalg.eigvalsh(block)
    oracle_evals = np.linalg.eigvalsh(oracle)
    scale = np.max(np.abs(oracle_evals))
    assert np.max(np.abs(evals - oracle_evals)) < 1e-6 * scale


def test_energy_hessian_is_symmetric():
    hess = energy_hessian(3, 64)
    assert np.array_equal(hess, hess.T)


@pytest.mark.parametrize("h", [1e-5, 1e-4, 1e-2])
@pytest.mark.parametrize("n", [64, 128, 257])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_energy_spectrum_matches_dense_eigensolve(m, n, h):
    closed = energy_spectrum(m, n, h)
    dense = np.linalg.eigvalsh(energy_hessian(m, n, h))
    assert closed.shape == dense.shape == (3 * (n - 1),)
    assert np.max(np.abs(closed - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_joint_spectrum_rejects_non_commuting_blocks():
    rng = np.random.default_rng(11)
    s = rng.normal(size=(3, 3))
    s = s + s.T
    b = rng.normal(size=(3, 3))
    with pytest.raises(NumericalFailure, match="joint eigenbasis"):
        _joint_spectrum(s, b)
    with pytest.raises(NumericalFailure):
        _joint_spectrum(np.full((3, 3), np.nan), np.eye(3))


def test_energy_lane_builds_no_dense_hessian(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("energy lane built the dense Hessian")

    monkeypatch.setattr(su2_loops, "energy_hessian", dense)
    report = hessian_spectrum("energy", 2, 128)
    assert (report.negative_count, report.zero_count) == (6, 2)


@pytest.mark.parametrize("n", [32, 64, 128, 256, 512, 1024])
def test_energy_counts_sweep(n):
    for m in range(1, n // 4 + 1):
        report = hessian_spectrum("energy", m, n)
        negative = 2 * (2 * m - 1)
        counts = (report.negative_count, report.zero_count, report.positive_count)
        assert counts == (negative, 2, 3 * (n - 1) - negative - 2), (m, n)

