"""Minimal small quantum homology of CP^1 with a formal energy variable,
and the leading-term structure of the loop invariant.

The ring has two basis classes, the point PT and the fundamental class
FUND, and a real energy exponent per term.  The product table is module
data (the unique line through two points): FUND is the unit and
PT * PT = FUND with the exponent raised by the line area.  Only the
exponent bookkeeping matters for the leading-term logic, so no complex
phases are materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EnergyBoundViolation, NumericalFailure

PT = "pt"
FUND = "fund"

# exponents within this tolerance are the same formal energy level
_EXP_DECIMALS = 9


def _key(basis, exponent):
    return (basis, round(float(exponent), _EXP_DECIMALS))


@dataclass(frozen=True)
class QuantumElement:
    """Finite sum of terms (coefficient, basis class, energy exponent)."""

    terms: tuple  # of (Fraction, basis, float exponent)

    @staticmethod
    def from_terms(terms):
        merged = {}
        for coeff, basis, exponent in terms:
            if basis not in (PT, FUND):
                raise ValueError(f"unknown basis class {basis!r}")
            k = _key(basis, exponent)
            if k in merged:
                merged[k] = (merged[k][0] + Fraction(coeff), basis, merged[k][2])
            else:
                # store the snapped exponent so equality is structural
                merged[k] = (Fraction(coeff), basis, k[1])
        clean = tuple(
            sorted(
                (t for t in merged.values() if t[0] != 0),
                key=lambda t: (-t[2], t[1]),
            )
        )
        return QuantumElement(clean)

    @property
    def is_zero(self):
        return not self.terms

    def max_exponent(self):
        return max(t[2] for t in self.terms)

    def leading_terms(self):
        top = self.max_exponent()
        return [t for t in self.terms if _key("", t[2])[1] == _key("", top)[1]]


def unit():
    return QuantumElement.from_terms([(1, FUND, 0.0)])


def zero():
    return QuantumElement(())


def quantum_product(a, b, area):
    """Bilinear extension of the CP^1 table at the given line area."""
    if area <= 0:
        raise ValueError("the line area must be positive")
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
    lead = x.leading_terms()
    if len(lead) != 1:
        raise ValueError("element has no unique maximal-exponent term")
    coeff, basis, exponent = lead[0]
    if basis == FUND:
        return QuantumElement.from_terms([(1 / coeff, FUND, -exponent)])
    return QuantumElement.from_terms([(1 / coeff, PT, -exponent - area)])


def is_invertible(x, area=1.0, orders=3):
    """True iff x is nonzero.

    For elements with a unique maximal-exponent term the inverse in the
    formal completion is additionally constructed by Newton iteration and
    verified through the requested number of correction orders.
    """
    if x.is_zero:
        return False
    if len(x.leading_terms()) == 1:
        y = leading_inverse(x, area)
        two = QuantumElement.from_terms([(2, FUND, 0.0)])
        for _ in range(orders):
            xy = quantum_product(x, y, area)
            y = quantum_product(
                y,
                QuantumElement.from_terms(list(two.terms) + [(-c, b, e) for c, b, e in xy.terms]),
                area,
            )
        residual = QuantumElement.from_terms(
            list(quantum_product(x, y, area).terms) + [(-1, FUND, 0.0)]
        )
        if not (residual.is_zero or residual.max_exponent() < 10 ** (-_EXP_DECIMALS)):
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
    nonzero: bool = True
    invertible: bool = field(default=True)

    def as_element(self):
        return QuantumElement.from_terms(
            [(self.sign, PT, self.exponent)] + list(self.corrections)
        )


def psi_leading(l_plus, orientation_sign, corrections=(), area=1.0):
    """Assemble the leading-term report for a loop of positive Hofer
    length l_plus.

    Every correction term must sit strictly below the leading energy
    exponent; a violation raises EnergyBoundViolation (the maximal-energy
    class is the unique leading term).
    """
    if orientation_sign not in (1, -1):
        raise ValueError("orientation sign must be +1 or -1")
    l_plus = float(l_plus)
    corrections = tuple((Fraction(c), b, float(e)) for c, b, e in corrections)
    for coeff, basis, exponent in corrections:
        if exponent >= l_plus - 10 ** (-_EXP_DECIMALS):
            raise EnergyBoundViolation(
                f"correction ({coeff}, {basis}, {exponent}) reaches the "
                f"leading exponent {l_plus}"
            )
    report = PsiLeadingReport(
        sign=orientation_sign,
        exponent=l_plus,
        corrections=corrections,
        area=float(area),
    )
    element = report.as_element()
    return PsiLeadingReport(
        sign=orientation_sign,
        exponent=l_plus,
        corrections=corrections,
        area=float(area),
        nonzero=not element.is_zero,
        invertible=is_invertible(element, area=float(area)),
    )
