"""Acceptance suite: one test per criterion, each printing a PASS line
with its timing (run with `pytest tests/test_acceptance.py -s` to see
them inline)."""

import itertools
import json
import math
import time

import numpy as np

from liehofer import verify
from liehofer.circle_index import CircleSubgroup, index_equality_report
from liehofer.cli import main
from liehofer.errors import EnergyBoundViolation
from liehofer.hofer import (
    check_norm_inequality,
    hofer_length_circle,
    orbit_maximum,
    positive_norm,
)
from liehofer.loop_morse import bott_index, omega_g_series, transgression_series
from liehofer.quantum_cp1 import PT, psi_leading
from liehofer.root_system import dominant_representative, from_label, inner
from liehofer.su2_loops import (
    discrete_energy,
    discrete_lplus,
    hessian_spectrum,
)
from sphere_oracle import normalization_integral_s2
from su2_oracle import random_loop
from weyl_oracle import weyl_orbit

ALL_LABELS = verify.ALL_SYSTEMS


def _report(name, elapsed):
    print(f"PASS: {name} ({elapsed:.2f}s)")


def test_criterion_1_s2_example(capsys):
    # warm caches so the timed call measures the computation itself
    a1 = from_label("A1")
    index_equality_report(CircleSubgroup(a1.coweight([2])))
    start = time.perf_counter()
    report = index_equality_report(CircleSubgroup(a1.coweight([2])))
    elapsed = time.perf_counter() - start
    assert report.virtual_index == 2
    assert report.riemannian_index == 2
    assert report.agree
    assert elapsed < 1e-3
    code = main(["index", "--system", "A1", "--xi", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["virtual_index"] == 2 and payload["riemannian_index"] == 2
    assert payload["agree"] is True
    with capsys.disabled():
        _report("criterion 1 (S^2 example, index 2 = 2)", elapsed)


def test_criterion_2_index_equality_sweep(capsys):
    start = time.perf_counter()
    checked = 0
    for label in ALL_LABELS:
        system = from_label(label)
        for coords in itertools.product(range(-4, 5), repeat=system.rank):
            gamma = CircleSubgroup(system.coweight(coords))
            if gamma.xi.is_zero or not gamma.regular:
                continue
            report = index_equality_report(gamma)
            dom = dominant_representative(gamma.xi)
            assert report.agree, (label, coords)
            assert report.virtual_index == bott_index(dom), (label, coords)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        _report(f"criterion 2 (index equality, {checked} regular coweights)", elapsed)


def test_criterion_3_perfect_series(capsys):
    start = time.perf_counter()
    a1 = omega_g_series(from_label("A1"), 20, check=True)
    assert a1.coeffs == tuple(1 if d % 2 == 0 else 0 for d in range(21))
    a2 = omega_g_series(from_label("A2"), 16, check=True)
    assert a2.coeffs == transgression_series(from_label("A2"), 16).coeffs
    assert a2.coeffs[:10] == (1, 0, 1, 0, 2, 0, 2, 0, 3, 0)
    c2 = omega_g_series(from_label("C2"), 12, check=True)
    assert c2.coeffs == transgression_series(from_label("C2"), 12).coeffs
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    with capsys.disabled():
        _report("criterion 3 (perfect Morse-Bott series A1/A2/C2)", elapsed)


def test_criterion_4_norm_inequality(capsys):
    start = time.perf_counter()
    checked = 0
    # exhaustive at rank <= 2
    for label in ("A1", "A2", "B2", "C2", "G2"):
        system = from_label(label)
        grid = list(itertools.product(range(-4, 5), repeat=system.rank))
        for eta_c in grid:
            for xi_c in grid:
                xi = system.coweight(xi_c)
                if xi.is_zero:
                    continue
                assert check_norm_inequality(system.coweight(eta_c), xi)
                checked += 1
    # 10^4 seeded random pairs across the rank 3-4 systems
    rng = np.random.default_rng(421)
    high = [l for l in ALL_LABELS if from_label(l).rank >= 3]
    per = 10_000 // len(high)
    for label in high:
        system = from_label(label)
        done = 0
        while done < per:
            eta = system.coweight(rng.integers(-4, 5, system.rank))
            xi = system.coweight(rng.integers(-4, 5, system.rank))
            if xi.is_zero:
                continue
            assert check_norm_inequality(eta, xi)
            done += 1
        checked += done
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        _report(f"criterion 4 (norm inequality, {checked} pairs)", elapsed)


def test_criterion_5_hofer_length(capsys):
    start = time.perf_counter()
    for label in ALL_LABELS:
        system = from_label(label)
        box = 4 if system.rank <= 2 else 2
        for coords in itertools.product(range(-box, box + 1), repeat=system.rank):
            xi = system.coweight(coords)
            if xi.is_zero:
                continue
            sq = hofer_length_circle(xi).value_squared
            assert sq == inner(xi, xi)
            # equality case of the norm inequality at eta = xi
            m, _ = positive_norm(xi, xi)
            assert m * m == inner(xi, xi) * inner(xi, xi)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report("criterion 5 (Hofer length equals ||xi||, equality at eta=xi)", elapsed)


def test_criterion_6_hessian_counts(capsys):
    start = time.perf_counter()
    e1 = hessian_spectrum("energy", 1, 64)
    assert (e1.negative_count, e1.zero_count) == (2, 2)
    e2 = hessian_spectrum("energy", 2, 64)
    assert e2.negative_count == 6
    # L+ is negative along every energy-unstable direction
    for n in (64, 256, 1024):
        for m in (1, 2, 3, 8):
            lp = hessian_spectrum("lplus", m, n)
            counts = (lp.negative_count, lp.zero_count, lp.positive_count)
            assert counts == (2 * (2 * m - 1), 0, 0), (m, n)
    # stability under doubling the resolution
    e1b = hessian_spectrum("energy", 1, 128)
    assert (e1b.negative_count, e1b.zero_count) == (2, 2)
    e2b = hessian_spectrum("energy", 2, 128)
    assert e2b.negative_count == 6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        _report("criterion 6 (SU(2) Hessian counts, stable N=64 -> 128)", elapsed)


def test_criterion_7_cauchy_schwarz(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    violations = 0
    for _ in range(1000):
        loop = random_loop(64, rng, amplitude=rng.uniform(0.05, 2.5))
        lp = discrete_lplus(loop)
        en = discrete_energy(loop)
        if lp * lp > en * (1 + 1e-10):
            violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report("criterion 7 (Cauchy-Schwarz on 1000 random loops)", elapsed)


def test_criterion_8_quantum_leading(capsys):
    start = time.perf_counter()
    code = main(["seidel-cp1", "--xi", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["nonzero"] is True and payload["invertible"] is True
    assert payload["leading_basis"] == PT
    length = hofer_length_circle(from_label("A1").coweight([2]))
    # CLI floats are fixed at 12 significant digits
    assert payload["leading_exponent"] == float(f"{length.value_float:.12g}")
    report = psi_leading(length.value_float, +1)
    assert abs(report.exponent - length.value_float) < 1e-12
    try:
        psi_leading(length.value_float, +1, corrections=[(1, "fund", length.value_float)])
        raised = False
    except EnergyBoundViolation:
        raised = True
    assert raised
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report("criterion 8 (quantum leading term, energy bound enforced)", elapsed)


def test_criterion_9_normalization(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    for _ in range(100):
        eta = rng.normal(size=3)
        while not np.any(eta):
            eta = rng.normal(size=3)
        assert abs(normalization_integral_s2(eta)) < 1e-9 * np.linalg.norm(eta)
    # orbit-sum-zero, exhaustively at rank <= 2 and sampled at rank 3-4
    for label in ALL_LABELS:
        system = from_label(label)
        if system.rank <= 2:
            sweep = itertools.product(range(-4, 5), repeat=system.rank)
        else:
            sweep = (tuple(int(x) for x in rng.integers(-4, 5, system.rank))
                     for _ in range(200))
        for coords in sweep:
            xi = system.coweight(coords)
            total = [0] * system.rank
            for w in weyl_orbit(xi):
                total = [a + b for a, b in zip(total, w.coords)]
            assert all(x == 0 for x in total), (label, coords)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report("criterion 9 (normalization integral and orbit-sum-zero)", elapsed)
