import math
from fractions import Fraction

import numpy as np
import pytest

from liehofer.errors import EnergyBoundViolation
from liehofer.hofer import hofer_length_circle
from liehofer.quantum_cp1 import (
    FUND,
    PT,
    QuantumElement,
    is_invertible,
    psi_leading,
    quantum_product,
    unit,
    zero,
)
from liehofer.root_system import from_label


def element(*terms):
    return QuantumElement.from_terms(terms)


def random_element(rng):
    n = rng.integers(1, 4)
    return element(
        *[
            (Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))),
             PT if rng.random() < 0.5 else FUND,
             float(rng.uniform(-2, 2)))
            for _ in range(n)
        ]
    )


def test_unit_axiom():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = random_element(rng)
        assert quantum_product(unit(), x, 1.0) == x
        assert quantum_product(x, unit(), 1.0) == x


def test_pt_pt_table():
    pt = element((1, PT, 0.0))
    prod = quantum_product(pt, pt, 0.7)
    assert prod.terms == ((Fraction(1), FUND, 0.7),)


def test_commutativity_and_associativity():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a, b, c = (random_element(rng) for _ in range(3))
        assert quantum_product(a, b, 1.0) == quantum_product(b, a, 1.0)
        left = quantum_product(quantum_product(a, b, 1.0), c, 1.0)
        right = quantum_product(a, quantum_product(b, c, 1.0), 1.0)
        assert left == right


def test_distributivity():
    rng = np.random.default_rng(13)
    for _ in range(50):
        x, y, z = (random_element(rng) for _ in range(3))
        y_plus_z = QuantumElement.from_terms(y.terms + z.terms)
        xy_plus_xz = QuantumElement.from_terms(
            quantum_product(x, y, 0.7).terms + quantum_product(x, z, 0.7).terms
        )
        assert quantum_product(x, y_plus_z, 0.7) == xy_plus_xz


def test_zero_coefficients_dropped_and_terms_merged():
    x = element((1, PT, 0.5), (-1, PT, 0.5), (2, FUND, 0.0), (3, FUND, 0.0))
    assert x.terms == ((Fraction(5), FUND, 0.0),)


def test_area_must_be_positive():
    with pytest.raises(ValueError):
        quantum_product(unit(), unit(), 0.0)


def test_nearby_levels_stay_distinct():
    x = element((1, PT, 1.0), (-1, PT, 1.0 + 4e-10))
    assert not x.is_zero
    assert is_invertible(x)
    y = element((1, PT, 1.0000000004999), (1, PT, 1.0000000005001))
    assert [t[2] for t in y.terms] == [1.0000000005001, 1.0000000004999]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_are_value_errors(value):
    with pytest.raises(ValueError):
        quantum_product(unit(), unit(), value)
    with pytest.raises(ValueError):
        psi_leading(value, +1)
    with pytest.raises(ValueError):
        psi_leading(1.0, +1, area=value)
    with pytest.raises(ValueError):
        psi_leading(1.0, +1, corrections=[(1, FUND, value)])



@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_from_terms_rejects_non_finite_exponent(value):
    with pytest.raises(ValueError, match="every energy exponent must be finite"):
        QuantumElement.from_terms([(1, PT, value)])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_is_invertible_rejects_non_finite_area(value):
    x = element((1, PT, 1.0), (1, FUND, 0.5))
    for arg in (x, zero()):
        with pytest.raises(ValueError, match="the line area must be finite and positive"):
            is_invertible(arg, area=value)


def test_invertibility():
    assert is_invertible(unit())
    assert not is_invertible(zero())
    pt = element((1, PT, math.sqrt(2)))
    assert is_invertible(pt, area=1.0)
    # the conjugate over the norm: (T^s p)^-1 = T^(-s-A) p
    inv = element((1, PT, -Fraction(math.sqrt(2)) - 1))
    assert quantum_product(pt, inv, 1.0) == unit()


def test_unit_whose_point_term_carries_the_top_energy():
    # p hides an energy of A/2, so the point term at -0.4 outweighs FUND at 0:
    # the norm is 1 - T^0.2, nonzero
    assert is_invertible(element((1, FUND, 0.0), (-1, PT, -0.4)), area=1.0)


def test_zero_divisor_is_not_invertible():
    x = element((1, PT, 0.0), (-1, FUND, 0.5))  # p - T^(A/2)
    assert quantum_product(x, element((1, PT, 0.0), (1, FUND, 0.5)), 1.0).is_zero
    assert not is_invertible(x, area=1.0)


def _evaluations(x, area):
    """x at p = +T^(A/2) and at p = -T^(A/2), the two factors of the split
    Lambda[p]/(p^2 - T^A) = Lambda x Lambda, each as {exponent: coefficient}
    with zero coefficients dropped."""
    half = Fraction(area) / 2
    out = []
    for sign in (1, -1):
        values = {}
        for coeff, basis, exponent in x.terms:
            if basis == PT:
                coeff, exponent = sign * coeff, exponent + half
            values[exponent] = values.get(exponent, 0) + coeff
        out.append({e: c for e, c in values.items() if c != 0})
    return out


def _unit_oracle(x, area):
    """x is a unit iff neither evaluation vanishes in the Novikov field."""
    return all(_evaluations(x, area))


def _grid_element(rng):
    # exponents on a quarter grid, so levels collide with the area halves
    return element(
        *[
            (int(rng.choice([-2, -1, 1, 2])), PT if rng.random() < 0.5 else FUND,
             int(rng.integers(-6, 7)) / 4)
            for _ in range(rng.integers(1, 5))
        ]
    )


@pytest.mark.parametrize("area", [0.5, 1.0, 1.5])
def test_is_invertible_matches_evaluation_oracle(area):
    rng = np.random.default_rng(17)
    for _ in range(200):
        x = _grid_element(rng)
        assert is_invertible(x, area=area) == _unit_oracle(x, area), x
    zero_divisors = 0
    for _ in range(40):
        y = _grid_element(rng)
        for sign in (1, -1):
            z = quantum_product(y, element((1, PT, 0.0), (sign, FUND, area / 2)), area)
            zero_divisors += not z.is_zero
            assert not is_invertible(z, area=area) and not _unit_oracle(z, area), z
    assert zero_divisors >= 40


def test_invertible_with_corrections():
    x = element((1, PT, 1.0), (Fraction(1, 2), FUND, 0.3), (-2, PT, -0.4))
    assert is_invertible(x, area=1.0)


def test_psi_leading_clean():
    report = psi_leading(math.sqrt(2), +1)
    assert report.sign == 1
    assert report.nonzero and report.invertible
    assert report.corrections == ()
    el = QuantumElement.from_terms([(report.sign, PT, report.exponent)] + list(report.corrections))
    assert el.terms[0][1] == PT
    assert el.terms[0][2] == math.sqrt(2)


def test_psi_leading_accepts_low_corrections():
    report = psi_leading(math.sqrt(2), +1, corrections=[(1, FUND, 0.1)])
    assert len(report.corrections) == 1
    assert report.nonzero and report.invertible


def test_psi_leading_accepts_corrections_just_below():
    report = psi_leading(1.0, +1, corrections=[(1, FUND, 1.0 - 5e-10)])
    assert report.nonzero and report.invertible


def test_psi_leading_rejects_high_corrections():
    with pytest.raises(EnergyBoundViolation):
        psi_leading(math.sqrt(2), +1, corrections=[(1, FUND, math.sqrt(2))])
    with pytest.raises(EnergyBoundViolation):
        psi_leading(1.0, -1, corrections=[(1, PT, 1.5)])


def test_psi_leading_sign_validation():
    # True, 1.0 and -1.0 compare equal to +-1 but are not the int sign
    for sign in (2, 0, True, False, 1.0, -1.0, "1", None):
        with pytest.raises(ValueError):
            psi_leading(1.0, sign)
    assert type(psi_leading(1.0, -1).sign) is int


def test_psi_exponent_matches_hofer_length():
    xi = from_label("A1").coweight([2])
    length = hofer_length_circle(xi)
    report = psi_leading(length.value_float, +1)
    assert report.exponent == length.value_float
