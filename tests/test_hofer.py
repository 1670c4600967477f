import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from liehofer.errors import DegenerateOrbit, EmptyFamily
from liehofer.hofer import (
    check_norm_inequality,
    hofer_length_circle,
    max_length_measure,
    normalization_integral_s2,
    orbit_maximum,
    positive_norm,
    sphere_moment_max,
)
from liehofer.root_system import from_label, inner, weyl_orbit
from liehofer.su2_loops import apply_tangent, discrete_lplus, energy_hessian, geodesic_loop


def test_positive_norm_at_generator():
    a1 = from_label("A1")
    xi = a1.coweight([2])
    m, report = positive_norm(xi, xi)
    assert m == 2
    assert report.value_squared == 2


def test_positive_norm_reflected_eta():
    a1 = from_label("A1")
    m, report = positive_norm(a1.coweight([-2]), a1.coweight([2]))
    assert m == 2
    assert report.value_squared == 2


def test_positive_norm_zero_eta():
    a2 = from_label("A2")
    m, report = positive_norm(a2.coweight([0, 0]), a2.coweight([1, 1]))
    assert m == 0
    assert report.value_squared == 0


def test_positive_norm_degenerate_orbit():
    a2 = from_label("A2")
    with pytest.raises(DegenerateOrbit):
        positive_norm(a2.coweight([1, 0]), a2.coweight([0, 0]))


@pytest.mark.parametrize("labels", [("A2", "B2"), ("B2", "A2"), ("A1", "A2"), ("A2", "A1")])
def test_mismatched_systems_rejected(labels):
    # same rank and different rank: neither may pair coordinates across systems
    eta_system, xi_system = (from_label(label) for label in labels)
    eta = eta_system.coweight(range(1, eta_system.rank + 1))
    xi = xi_system.coweight(range(2, xi_system.rank + 2))
    for fn in (orbit_maximum, positive_norm, check_norm_inequality):
        with pytest.raises(DegenerateOrbit):
            fn(eta, xi)


def test_orbit_maximum_nonnegative():
    # orbit-sum-zero forces the orbit maximum of a linear function >= 0
    for label in ("A2", "B2", "G2", "B3"):
        system = from_label(label)
        xi = system.coweight(range(1, system.rank + 1))
        for coords in itertools.product((-2, -1, 0, 1, 2), repeat=system.rank):
            assert orbit_maximum(system.coweight(coords), xi) >= 0


def test_orbit_maximum_matches_brute_force():
    # oracle: maximize <w, eta> by direct enumeration with exact inners
    b2 = from_label("B2")
    xi = b2.coweight([2, 1])
    for coords in itertools.product((-2, 0, 1, 3), repeat=2):
        eta = b2.coweight(coords)
        brute = max(inner(w, eta) for w in weyl_orbit(xi))
        assert orbit_maximum(eta, xi) == brute


def test_norm_inequality_examples():
    a1 = from_label("A1")
    xi = a1.coweight([2])
    assert check_norm_inequality(xi, xi)
    m, _ = positive_norm(xi, xi)
    assert m * m == inner(xi, xi) * inner(xi, xi)  # equality case
    a2 = from_label("A2")
    assert check_norm_inequality(a2.coweight([1, 0]), a2.coweight([1, 1]))
    assert check_norm_inequality(a2.coweight([0, 0]), a2.coweight([1, 1]))


def test_norm_inequality_exhaustive_rank2():
    for label in ("A2", "B2", "C2", "G2"):
        system = from_label(label)
        xis = [system.coweight(c) for c in itertools.product(range(-3, 4), repeat=2)]
        for eta in xis:
            for xi in xis:
                if xi.is_zero:
                    continue
                assert check_norm_inequality(eta, xi)


def test_positive_norm_weyl_invariant_in_eta():
    g2 = from_label("G2")
    xi = g2.coweight([1, 1])
    eta = g2.coweight([2, -1])
    m0 = orbit_maximum(eta, xi)
    for w in weyl_orbit(eta):
        assert orbit_maximum(w, xi) == m0


def test_hofer_length_examples():
    a1 = from_label("A1")
    assert hofer_length_circle(a1.coweight([2])).value_squared == 2
    assert hofer_length_circle(a1.coweight([4])).value_squared == 8
    a2 = from_label("A2")
    assert hofer_length_circle(a2.coweight([1, 1])).value_squared == 2


def test_hofer_length_quadratic_scaling():
    b3 = from_label("B3")
    xi = b3.coweight([1, 2, 1])
    base = hofer_length_circle(xi).value_squared
    for m in range(2, 5):
        scaled = b3.coweight([m * c for c in xi.coords])
        assert hofer_length_circle(scaled).value_squared == m * m * base


def test_hofer_length_zero_rejected():
    with pytest.raises(DegenerateOrbit):
        hofer_length_circle(from_label("A1").coweight([0]))


def test_norm_report_float_consistency():
    report = hofer_length_circle(from_label("G2").coweight([2, 1]))
    assert abs(report.value_float ** 2 - float(report.value_squared)) < 1e-12 * float(
        report.value_squared
    )


def test_max_length_measure():
    assert max_length_measure([math.sqrt(2)]) == math.sqrt(2)
    assert max_length_measure([0.3, 1.41421, 0.9]) == 1.41421
    with pytest.raises(EmptyFamily):
        max_length_measure([])


def test_max_length_measure_on_unstable_family():
    # sample L+ along the energy-unstable directions at the m=1 geodesic:
    # the maximum over the family sits at the geodesic itself
    n = 48
    base = geodesic_loop(1, n)
    evals, evecs = np.linalg.eigh(energy_hessian(1, n))
    directions = evecs[:, evals < -1e-6 * np.abs(evals).max()]
    lengths = [discrete_lplus(base)]
    for v in directions.T:
        for t in (-0.2, -0.1, 0.1, 0.2):
            lengths.append(discrete_lplus(apply_tangent(base, t * v)))
    assert max_length_measure(lengths) == lengths[0]


def test_normalization_integral():
    for eta in ((0, 0, 1), (1, 1, 1), (0, 0, 2), (0.3, -1.2, 0.5)):
        size = float(np.linalg.norm(eta))
        assert abs(normalization_integral_s2(eta)) < 1e-9 * size


def test_normalization_integral_zero_eta_rejected():
    with pytest.raises(DegenerateOrbit):
        normalization_integral_s2((0, 0, 0))


def test_sphere_moment_max_is_height():
    assert abs(sphere_moment_max((0, 0, 2)) - 2.0) < 5e-3


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                   "C2", "C3", "C4", "D4", "G2", "F4"])
def test_positive_norm_scaling_laws(label):
    # eta -> k eta scales m by k (and the squared norm by k^2);
    # xi -> k xi scales m by k and leaves the norm unchanged
    system = from_label(label)
    rng = random.Random(f"norm-scaling-{label}")
    for _ in range(20):
        eta = system.coweight([rng.randint(-4, 4) for _ in range(system.rank)])
        xi = system.coweight([rng.randint(-4, 4) for _ in range(system.rank)])
        if xi.is_zero:
            continue
        m, report = positive_norm(eta, xi)
        k = rng.randint(2, 5)
        m_eta, report_eta = positive_norm(system.coweight([k * c for c in eta.coords]), xi)
        assert m_eta == k * m
        assert report_eta.value_squared == k * k * report.value_squared
        m_xi, report_xi = positive_norm(eta, system.coweight([k * c for c in xi.coords]))
        assert m_xi == k * m
        assert report_xi.value_squared == report.value_squared
