"""Morse-Bott bookkeeping for the energy functional on the based loop
group of the simply connected form.

Critical strata are the dominant integral coweights; loops of the simply
connected group correspond to the coroot sublattice, and only those strata
enter the Poincare series of the loop group.  The series is checked
against the independent transgression oracle prod_i 1/(1 - t^(2 m_i))
built from the classical exponents m_i.

The Bott index is nondecreasing in every coordinate of a dominant
coweight, so the strata below a cutoff are found by a depth-first walk
that stops each coordinate at the cutoff instead of scanning a box.
Stratum polynomials are quotients of Weyl Poincare polynomials, which
``weyl_poincare`` builds in closed form from the root heights and
memoizes per system and parabolic.  The two sides of the check share no
Lie data: the oracle takes its exponents from the literature table
``root_system.EXPONENTS``, which no stratum computation reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, NotDominant
from .root_system import EXPONENTS, Coweight, pairings, weyl_poincare
from .root_system import pairing  # noqa: F401  (re-export: perfbench/tracing.py wraps it here)

# Largest series degree accepted.  The slowest system at this cutoff, A4,
# takes about 1 s through the CLI (`omega-series --system A4 --cutoff 200`,
# 2-vCPU VM, Python 3.11.7); the number of strata grows like cutoff^rank.
MAX_CUTOFF = 200


def exponents(system):
    """Classical exponents of the system, from the literature table
    ``EXPONENTS``; they feed the transgression oracle only."""
    return EXPONENTS[(system.family, system.rank)]


# -- exact polynomial division (coefficient tuples, index = degree) --

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


@dataclass(frozen=True)
class CriticalStratum:
    """One critical manifold of the energy functional: a dominant coweight
    with its Bott index and the Poincare polynomial of its adjoint orbit."""

    xi: Coweight
    bott_index: int
    stratum_poly: tuple
    in_coroot_lattice: bool


def bott_index(xi):
    """Bott (Morse) index of the stratum of a dominant coweight:
    sum of 2(p - 1) over the positive entries p of its own pairing row
    ``pairings(xi)``, built from the dominant coweight itself, as
    2 (sum p - #p)."""
    if not xi.is_dominant:
        raise NotDominant(f"{xi} has a negative coordinate")
    positive = [p for p in pairings(xi) if p > 0]
    return 2 * (sum(positive) - len(positive))


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


def _check_cutoff(cutoff, even=False):
    if even and cutoff % 2:
        raise ValueError("cutoff must be a nonnegative even integer")
    if not 0 <= cutoff <= MAX_CUTOFF:
        raise ValueError(f"cutoff must lie in 0..{MAX_CUTOFF}, got {cutoff}")


def enumerate_critical_strata(system, cutoff):
    """All dominant integral coweights with Bott index <= cutoff.

    Complete by monotonicity: every positive root pairs with a dominant
    coweight to a nonnegative combination of its coordinates, and
    2 max(p - 1, 0) is nondecreasing in p, so raising one coordinate never
    lowers the Bott index.  A depth-first walk over coordinate prefixes,
    the remaining coordinates held at zero, therefore stops raising a
    coordinate as soon as the index exceeds the cutoff.  Each coordinate
    is also capped at cutoff/2 + 1, the bound from its simple root alone.
    """
    _check_cutoff(cutoff, even=True)
    bound = cutoff // 2 + 1
    rank = system.rank
    coords = [0] * rank
    strata = []

    def walk(k, idx):
        # coords[k:] are zero and the Bott index of coords is idx <= cutoff
        if k == rank:
            xi = system.coweight(coords)
            strata.append(
                CriticalStratum(xi, idx, stratum_poincare(xi), in_coroot_lattice(xi))
            )
            return
        walk(k + 1, idx)
        for c in range(1, bound + 1):
            coords[k] = c
            raised = bott_index(system.coweight(coords))
            if raised > cutoff:
                break
            walk(k + 1, raised)
        coords[k] = 0

    walk(0, 0)  # the zero coweight, index 0
    strata.sort(key=lambda s: (s.bott_index, s.xi.coords))
    return strata


def transgression_series(system, cutoff):
    """Independent oracle: Poincare series of the based loop group from
    the classical exponents, prod_i 1/(1 - t^(2 m_i)).  Each factor is one
    in-place recurrence: multiplying by 1/(1 - t^p) adds c[d - p] to c[d]
    in increasing degree d."""
    _check_cutoff(cutoff)
    coeffs = [1] + [0] * cutoff
    for m in exponents(system):
        for d in range(2 * m, cutoff + 1):
            coeffs[d] += coeffs[d - 2 * m]
    return TruncatedSeries(cutoff, tuple(coeffs))


def omega_g_series(system, cutoff, check=True):
    """Poincare series of the based loop group assembled stratum by
    stratum: sum over coroot-lattice strata of t^index * stratum_poly.

    With check=True (default) the result is compared against the
    transgression oracle; a mismatch raises ArithmeticError.
    """
    _check_cutoff(cutoff, even=True)  # before the coefficient list is allocated
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
