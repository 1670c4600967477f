"""Morse-Bott bookkeeping for the energy functional on the based loop
group of the simply connected form.

Critical strata are the dominant integral coweights; loops of the simply
connected group correspond to the coroot sublattice, and only those strata
enter the Poincare series of the loop group.  The series is checked
against the independent transgression oracle prod_i 1/(1 - t^(2 m_i))
built from the classical exponents m_i.

The Bott index is nondecreasing in every coordinate of a dominant
coweight, so the strata below a cutoff are found by a depth-first walk
that stops each coordinate at the cutoff instead of scanning a box.  The
walk builds each candidate coweight once, directly from the coordinates
it made (they need no input check), for its Bott index, and hands it
down to the stratum it becomes; it also refuses a bad cutoff for the
series, before the series allocates its coefficients.
The series builds a stratum polynomial only for the strata it sums, the
coroot-lattice ones.  A stratum polynomial W(t) / W_xi(t) is one closed
form, Macdonald's product over the heights of the roots that the
stratum's pairing row finds positive, memoized on those heights
(``root_system._root_poincare``); no polynomial is divided.  The two sides
of the check share no code and no Lie data: the oracle takes its
exponents from the literature table ``root_system.EXPONENTS``, which no
stratum computation reads, and keeps its own recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotDominant
from .root_system import EXPONENTS, Coweight, _root_poincare, pairings
# re-exports, unread here: perfbench/tracing.py wraps both names in this module
from .root_system import pairing, weyl_poincare  # noqa: F401

# Largest series degree accepted.  The slowest system at this cutoff, A4,
# takes about 0.30 s through the CLI (`omega-series --system A4 --cutoff
# 200`, median of 11 runs on a 2-vCPU VM, `nproc` 2, Python 3.11.7, numpy
# 2.4.6).  About 0.09 s of that is the series, most of it the strata walk,
# and the rest is starting Python and importing numpy; the number of
# strata grows like cutoff^rank.
MAX_CUTOFF = 200


@dataclass(frozen=True)
class TruncatedSeries:
    """Nonnegative-integer power series truncated at a cutoff: its
    coefficients in degrees 0..cutoff, so the cutoff is len(coeffs) - 1."""

    coeffs: tuple


@dataclass(frozen=True)
class CriticalStratum:
    """One critical manifold of the energy functional: a dominant coweight
    with its Bott index, and whether it lies in the coroot lattice.  The
    Poincare polynomial of its adjoint orbit is ``stratum_poincare(xi)``,
    built only where a caller reads it."""

    xi: Coweight
    bott_index: int
    in_coroot_lattice: bool


def bott_index(xi):
    """Bott (Morse) index of the stratum of a dominant coweight:
    sum of 2(p - 1) over the positive entries p of its own pairing row
    ``pairings(xi)``, built from the dominant coweight itself.  A dominant
    row has no negative entry, so this is the closed form
    2 (sum p - #p + #{p = 0}).  ``tests/test_circle_index.py`` checks it
    against the per-root sum over the per-root ``pairing``."""
    if not xi.is_dominant:
        raise NotDominant(f"{xi} has a negative coordinate")
    row = pairings(xi)
    return 2 * (sum(row) - len(row) + row.count(0))


def stratum_poincare(xi):
    """Poincare polynomial W(t) / W_xi(t) of the adjoint orbit through xi:
    Macdonald's product over the heights of the positive roots outside
    the stabilizer parabolic, which are the roots that xi's own pairing
    row ``pairings(xi)`` finds positive."""
    if not xi.is_dominant:
        raise NotDominant(f"{xi} has a negative coordinate")
    heights = (sum(r) for r, p in zip(xi.system.positive_roots, pairings(xi)) if p > 0)
    return _root_poincare(tuple(sorted(heights)))


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
    # the range first, so that an odd cutoff out of range names the bound
    if not 0 <= cutoff <= MAX_CUTOFF:
        raise ValueError(f"cutoff must lie in 0..{MAX_CUTOFF}, got {cutoff}")
    if even and cutoff % 2:
        raise ValueError("cutoff must be a nonnegative even integer")


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

    def walk(k, xi, idx):
        # xi has the coordinates coords, coords[k:] are zero, and its Bott
        # index is idx <= cutoff
        if k == rank:
            strata.append(CriticalStratum(xi, idx, in_coroot_lattice(xi)))
            return
        walk(k + 1, xi, idx)
        for c in range(1, bound + 1):
            coords[k] = c
            raised = Coweight(system, tuple(coords))
            index = bott_index(raised)
            if index > cutoff:
                break
            walk(k + 1, raised, index)
        coords[k] = 0

    walk(0, Coweight(system, tuple(coords)), 0)  # the zero coweight, index 0
    strata.sort(key=lambda s: (s.bott_index, s.xi.coords))
    return strata


def transgression_series(system, cutoff):
    """Independent oracle: Poincare series of the based loop group from
    the classical exponents, prod_i 1/(1 - t^(2 m_i)).  Each factor is one
    in-place recurrence: multiplying by 1/(1 - t^p) adds c[d - p] to c[d]
    in increasing degree d."""
    _check_cutoff(cutoff)
    coeffs = [1] + [0] * cutoff
    for m in EXPONENTS[(system.family, system.rank)]:
        for d in range(2 * m, cutoff + 1):
            coeffs[d] += coeffs[d - 2 * m]
    return TruncatedSeries(tuple(coeffs))


def omega_g_series(system, cutoff, check=True):
    """Poincare series of the based loop group assembled stratum by
    stratum: sum over coroot-lattice strata of t^index * stratum_poincare.
    A stratum polynomial is built only for the strata the sum reads, the
    ones in the coroot lattice.

    With check=True (default) the result is compared against the
    transgression oracle; a mismatch raises ArithmeticError.
    """
    # the walk refuses a bad cutoff before the coefficient list is allocated
    strata = enumerate_critical_strata(system, cutoff)
    coeffs = [0] * (cutoff + 1)
    for s in strata:
        if s.in_coroot_lattice:
            top = stratum_poincare(s.xi)[:cutoff + 1 - s.bott_index]
            for d, c in enumerate(top, s.bott_index):
                coeffs[d] += c
    series = TruncatedSeries(tuple(coeffs))
    if check and series.coeffs != transgression_series(system, cutoff).coeffs:
        raise ArithmeticError(
            f"stratum assembly for {system.label} disagrees with the "
            f"transgression oracle up to degree {cutoff}"
        )
    return series
