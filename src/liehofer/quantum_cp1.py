"""Minimal small quantum homology of CP^1 with a formal energy variable,
and the leading-term structure of the loop invariant.

The ring has two basis classes, the point PT and the fundamental class
FUND, and an energy exponent per term.  The product table is module
data (the unique line through two points): FUND is the unit and
PT * PT = FUND with the exponent raised by the line area.  Only the
exponent bookkeeping matters for the leading-term logic, so no complex
phases are materialized.  Exponents and areas are exact Fractions of the
floats passed in, so sums never round and no tolerance decides when two
energy levels coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EnergyBoundViolation, NumericalFailure

PT = "pt"
FUND = "fund"


@dataclass(frozen=True)
class QuantumElement:
    """Finite sum of terms (coefficient, basis class, energy exponent)."""

    terms: tuple  # of (Fraction, basis, Fraction exponent): levels merge only if equal

    @staticmethod
    def from_terms(terms):
        merged = {}
        for coeff, basis, exponent in terms:
            if basis not in (PT, FUND):
                raise ValueError(f"unknown basis class {basis!r}")
            if not math.isfinite(exponent):
                raise ValueError("every energy exponent must be finite")
            k = (basis, Fraction(exponent))
            merged[k] = merged.get(k, 0) + Fraction(coeff)
        clean = [(c, basis, e) for (basis, e), c in merged.items() if c != 0]
        return QuantumElement(tuple(sorted(clean, key=lambda t: (-t[2], t[1]))))

    @property
    def is_zero(self):
        return not self.terms

    def max_exponent(self):
        return max(t[2] for t in self.terms)

    def leading_terms(self):
        top = self.max_exponent()
        return [t for t in self.terms if t[2] == top]


def unit():
    return QuantumElement.from_terms([(1, FUND, 0)])


def zero():
    return QuantumElement(())


def _line_area(area):
    """The line area as an exact Fraction; it must be finite and positive."""
    if not (math.isfinite(area) and area > 0):
        raise ValueError("the line area must be finite and positive")
    return Fraction(area)


def quantum_product(a, b, area):
    """Bilinear extension of the CP^1 table at the given line area."""
    area = _line_area(area)
    out = []
    for ca, basis_a, ea in a.terms:
        for cb, basis_b, eb in b.terms:
            if basis_a == FUND:
                out.append((ca * cb, basis_b, ea + eb))
            elif basis_b == FUND:
                out.append((ca * cb, basis_a, ea + eb))
            else:  # PT * PT: the unique line through two points
                out.append((ca * cb, FUND, ea + eb + area))
    return QuantumElement.from_terms(out)


def leading_inverse(x, area):
    """Inverse of the unique maximal-exponent term of x."""
    area = _line_area(area)
    lead = x.leading_terms()
    if len(lead) != 1:
        raise ValueError("element has no unique maximal-exponent term")
    coeff, basis, exponent = lead[0]
    if basis == FUND:
        return QuantumElement.from_terms([(1 / coeff, FUND, -exponent)])
    return QuantumElement.from_terms([(1 / coeff, PT, -exponent - area)])


def is_invertible(x, area=1.0):
    """True iff x is nonzero.

    For elements with a unique maximal-exponent term the inverse in the
    formal completion is additionally constructed by Newton iteration and
    verified through three correction orders.
    """
    area = _line_area(area)
    if x.is_zero:
        return False
    if len(x.leading_terms()) == 1:
        y = leading_inverse(x, area)
        for _ in range(3):
            xy = quantum_product(x, y, area)
            two_minus_xy = [(2, FUND, 0)] + [(-c, b, e) for c, b, e in xy.terms]
            y = quantum_product(y, QuantumElement.from_terms(two_minus_xy), area)
        residual = QuantumElement.from_terms(quantum_product(x, y, area).terms + ((-1, FUND, 0),))
        if not (residual.is_zero or residual.max_exponent() < 0):
            raise NumericalFailure(
                f"Newton inverse leaves a residual at exponent {residual.max_exponent()}"
            )
    return True


@dataclass(frozen=True)
class PsiLeadingReport:
    """Leading-term structure of the loop class: sign * PT at the positive
    Hofer length, plus strictly lower-energy corrections."""

    sign: int
    exponent: float
    corrections: tuple
    area: float
    nonzero: bool
    invertible: bool

    def as_element(self):
        return _psi_element(self.sign, self.exponent, self.corrections)


def _psi_element(sign, exponent, corrections):
    return QuantumElement.from_terms([(sign, PT, exponent)] + list(corrections))


def psi_leading(l_plus, orientation_sign, corrections=(), area=1.0):
    """Assemble the leading-term report for a loop of positive Hofer
    length l_plus.

    Every correction term must sit strictly below the leading energy
    exponent; a violation raises EnergyBoundViolation (the maximal-energy
    class is the unique leading term).
    """
    if orientation_sign not in (1, -1):
        raise ValueError("orientation sign must be +1 or -1")
    l_plus, area = float(l_plus), float(area)
    corrections = tuple((Fraction(c), b, float(e)) for c, b, e in corrections)
    if not all(map(math.isfinite, [l_plus, area] + [e for _, _, e in corrections])):
        raise ValueError("the Hofer length, the line area and every exponent must be finite")
    for coeff, basis, exponent in corrections:
        if exponent >= l_plus:
            raise EnergyBoundViolation(
                f"correction ({coeff}, {basis}, {exponent}) reaches the "
                f"leading exponent {l_plus}"
            )
    element = _psi_element(orientation_sign, l_plus, corrections)
    return PsiLeadingReport(
        sign=orientation_sign,
        exponent=l_plus,
        corrections=corrections,
        area=area,
        nonzero=not element.is_zero,
        invertible=is_invertible(element, area=area),
    )
