"""Minimal small quantum homology of CP^1 with a formal energy variable,
and the leading-term structure of the loop invariant.

The ring has two basis classes, the point PT and the fundamental class
FUND, and an energy exponent per term.  The product table is module
data (the unique line through two points): FUND is the unit and
PT * PT = FUND with the exponent raised by the line area.  Only the
exponent bookkeeping matters for the leading-term logic, so no complex
phases are materialized.  Exponents and areas are exact Fractions of the
floats passed in, so sums never round and no tolerance decides when two
energy levels coincide.  An element a + b*PT (a its FUND part, b its PT
part) is a unit exactly when its norm a^2 - b^2 * T^area is nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EnergyBoundViolation

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


def unit():
    return QuantumElement.from_terms([(1, FUND, 0)])


def zero():
    return QuantumElement(())


def quantum_product(a, b, area):
    """Bilinear extension of the CP^1 table at the given line area, which
    must be finite and positive."""
    if not (math.isfinite(area) and area > 0):
        raise ValueError("the line area must be finite and positive")
    area = Fraction(area)
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


def is_invertible(x, area=1.0):
    """True iff x is a unit of the ring, completed downward in energy.

    Write x = a + b*PT, with a the FUND terms and b the PT terms.  Its
    product with the conjugate a - b*PT is the norm a^2 - b^2 * T^area, a
    pure FUND element.  A nonzero norm is invertible in the Novikov field,
    and then x^-1 = (a - b*PT) / norm.  A zero norm means x is 0 or a zero
    divisor (its conjugate kills it), so it is not a unit.
    """
    conjugate = QuantumElement(tuple((-c if b == PT else c, b, e) for c, b, e in x.terms))
    return not quantum_product(x, conjugate, area).is_zero


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
    element = QuantumElement.from_terms([(orientation_sign, PT, l_plus)] + list(corrections))
    return PsiLeadingReport(
        sign=orientation_sign,
        exponent=l_plus,
        corrections=corrections,
        area=area,
        nonzero=not element.is_zero,
        invertible=is_invertible(element, area=area),
    )
