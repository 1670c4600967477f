"""Morse-Bott bookkeeping for the energy functional on the based loop
group of the simply connected form.

Critical strata are the dominant integral coweights; loops of the simply
connected group correspond to the coroot sublattice, and only those strata
enter the Poincare series of the loop group.  The series is checked
against the independent transgression oracle prod_i 1/(1 - t^(2 m_i))
built from the classical exponents m_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DimensionError, NotDominant
from .root_system import Coweight, pairing, weyl_poincare

# classical exponents per family
_EXPONENTS = {
    "A": lambda n: tuple(range(1, n + 1)),
    "B": lambda n: tuple(range(1, 2 * n, 2)),
    "C": lambda n: tuple(range(1, 2 * n, 2)),
    "D": lambda n: (1, 3, 3, 5),  # rank 4 only
    "G": lambda n: (1, 5),
    "F": lambda n: (1, 5, 7, 11),
}


def exponents(system):
    return _EXPONENTS[system.family](system.rank)


# -- small exact polynomial helpers (coefficient tuples, index = degree) --

def poly_mul(a, b, cutoff=None):
    deg = len(a) + len(b) - 2
    if cutoff is not None:
        deg = min(deg, cutoff)
    out = [0] * (deg + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > deg:
            continue
        for j, bj in enumerate(b):
            if i + j > deg:
                break
            out[i + j] += ai * bj
    return tuple(out)


def poly_divexact(num, den):
    """Exact polynomial division; raises ArithmeticError on a remainder."""
    num = list(num)
    dd = len(den) - 1
    while den[dd] == 0:
        dd -= 1
    lead = den[dd]
    q = [0] * (len(num) - dd)
    for k in range(len(num) - dd - 1, -1, -1):
        c, r = divmod(num[k + dd], lead)
        if r:
            raise ArithmeticError("polynomial division is not exact")
        q[k] = c
        for j in range(dd + 1):
            num[k + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("polynomial division leaves a remainder")
    return tuple(q)


def geometric_series(period, cutoff):
    """Truncated expansion of 1/(1 - t^period)."""
    out = [0] * (cutoff + 1)
    for d in range(0, cutoff + 1, period):
        out[d] = 1
    return tuple(out)


@dataclass(frozen=True)
class TruncatedSeries:
    """Nonnegative-integer power series truncated at an even cutoff."""

    cutoff: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.cutoff + 1:
            raise DimensionError(
                f"{len(self.coeffs)} coefficients for cutoff {self.cutoff}"
            )

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs


@dataclass(frozen=True)
class CriticalStratum:
    """One critical manifold of the energy functional: a dominant coweight
    with its Bott index and the Poincare polynomial of its adjoint orbit."""

    xi: Coweight
    bott_index: int
    stratum_poly: tuple
    in_coroot_lattice: bool

    @property
    def unstable_dim(self):
        return self.bott_index


def bott_index(xi):
    """Bott (Morse) index of the stratum of a dominant coweight:
    sum of 2(pairing - 1) over positive roots with positive pairing."""
    if not xi.is_dominant:
        raise NotDominant(f"{xi} has a negative coordinate")
    total = 0
    for alpha in xi.system.positive_roots:
        p = pairing(alpha, xi)
        if p > 0:
            total += 2 * (p - 1)
    return total


def stratum_poincare(xi):
    """Poincare polynomial of the adjoint orbit through xi, as the exact
    quotient W(t) / W_xi(t) over the stabilizer parabolic."""
    if not xi.is_dominant:
        raise NotDominant(f"{xi} has a negative coordinate")
    walls = frozenset(i for i, c in enumerate(xi.coords) if c == 0)
    full = weyl_poincare(xi.system)
    sub = weyl_poincare(xi.system, walls)
    return poly_divexact(full, sub)


def in_coroot_lattice(xi):
    """True iff xi lies in the coroot lattice (i.e. comes from a loop in
    the simply connected group).  The coroot alpha_j^vee has coordinates
    (cartan[i][j])_i, so the test is C^-1 xi integral, i.e.
    adj(C) xi = 0 mod det(C)."""
    system = xi.system
    det = system.cartan_det
    return all(
        sum(a * c for a, c in zip(row, xi.coords)) % det == 0
        for row in system.cartan_adj
    )


def enumerate_critical_strata(system, cutoff):
    """All dominant integral coweights with Bott index <= cutoff.

    Complete by the per-coordinate bound 2(c_i - 1) <= cutoff obtained
    from the simple root alpha_i alone.
    """
    if cutoff < 0 or cutoff % 2:
        raise ValueError("cutoff must be a nonnegative even integer")
    bound = cutoff // 2 + 1
    strata = []
    for coords in itertools.product(range(bound + 1), repeat=system.rank):
        xi = system.coweight(coords)
        idx = bott_index(xi)
        if idx <= cutoff:
            strata.append(
                CriticalStratum(xi, idx, stratum_poincare(xi), in_coroot_lattice(xi))
            )
    strata.sort(key=lambda s: (s.bott_index, s.xi.coords))
    return strata


def transgression_series(system, cutoff):
    """Independent oracle: Poincare series of the based loop group from
    the classical exponents, prod_i 1/(1 - t^(2 m_i))."""
    coeffs = (1,) + (0,) * cutoff
    for m in exponents(system):
        coeffs = poly_mul(coeffs, geometric_series(2 * m, cutoff), cutoff)
    coeffs = tuple(coeffs) + (0,) * (cutoff - len(coeffs) + 1)
    return TruncatedSeries(cutoff, coeffs[: cutoff + 1])


def omega_g_series(system, cutoff, check=True):
    """Poincare series of the based loop group assembled stratum by
    stratum: sum over coroot-lattice strata of t^index * stratum_poly.

    With check=True (default) the result is compared against the
    transgression oracle; a mismatch raises ArithmeticError.
    """
    coeffs = [0] * (cutoff + 1)
    for s in enumerate_critical_strata(system, cutoff):
        if not s.in_coroot_lattice:
            continue
        for d, c in enumerate(s.stratum_poly):
            if s.bott_index + d <= cutoff:
                coeffs[s.bott_index + d] += c
    series = TruncatedSeries(cutoff, tuple(coeffs))
    if check and series.coeffs != transgression_series(system, cutoff).coeffs:
        raise ArithmeticError(
            f"stratum assembly for {system.label} disagrees with the "
            f"transgression oracle up to degree {cutoff}"
        )
    return series
