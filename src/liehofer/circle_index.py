"""Weights of a circle subgroup at the moment-map maximum, its virtual
index, and an independent conjugate-point oracle for the Riemannian index.

Loops are parametrized over [0, 1] (turns), so all frequencies are the
integer root pairings; each computation builds its own pairing row
``pairings(xi)`` and shares it with no other.  With the sign conventions
used throughout the package the weights at the maximum are negative; a
weight that is not raises InvalidWeights, and is never silently fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateSubgroup, InvalidWeights
from .root_system import Coweight, pairings
from .root_system import pairing  # noqa: F401  (re-export: perfbench/tracing.py wraps it here)


@dataclass(frozen=True)
class CircleSubgroup:
    """Circle subgroup of G encoded by a nonzero coweight."""

    xi: Coweight

    @property
    def system(self):
        return self.xi.system

    @property
    def regular(self):
        """True iff the pairing row of xi has no zero (centralizer is the
        torus).  The box sweeps filter with an integer mask instead."""
        return 0 not in pairings(self.xi)


@dataclass(frozen=True)
class WeightMultiset:
    """Negative weights k_i of the linearized action at the moment-map
    maximum, one entry per complex dimension, sorted."""

    weights: tuple

    def __post_init__(self):
        bad = [k for k in self.weights if k > -1]
        if bad:
            raise InvalidWeights(f"nonnegative weights present: {bad}")

    def __len__(self):
        return len(self.weights)


@dataclass(frozen=True)
class IndexReport:
    xi: Coweight
    weights: WeightMultiset
    virtual_index: int
    riemannian_index: int
    agree: bool


def weights_at_max(gamma):
    """Weight multiset of the gamma-action on the tangent space at the
    maximum of its generating Hamiltonian.

    One weight per root with negative pairing; roots pairing to zero are
    tangent to the centralizer and contribute nothing.
    """
    if gamma.xi.is_zero:
        raise DegenerateSubgroup("zero coweight generates no circle subgroup")
    # of the pair {alpha, -alpha} exactly one pairs negatively
    weights = [-abs(p) for p in pairings(gamma.xi) if p]
    return WeightMultiset(tuple(sorted(weights)))


def virtual_index(w):
    """Sum of 2(|k_i| - 1) over the weight multiset; zero iff all weights
    are -1."""
    return sum(2 * (-k - 1) for k in w.weights)


def riemannian_index_conjugate(gamma):
    """Riemannian index of the geodesic circle by conjugate-point counting.

    Independent oracle: for each positive root with |pairing| = v > 0 the
    interior conjugate times are {t in (0,1) : v t is a positive integer},
    each counted with multiplicity 2 (the real root-space pair).
    """
    if gamma.xi.is_zero:
        raise DegenerateSubgroup("zero coweight generates no circle subgroup")
    total = 0
    for v in map(abs, pairings(gamma.xi)):
        for j in range(1, v):  # conjugate times j/v, 0 < j < v
            total += 2
    return total


def index_equality_report(gamma):
    """Both index computations plus their agreement flag.

    For regular gamma the two must coincide exactly.
    """
    w = weights_at_max(gamma)
    iv = virtual_index(w)
    ir = riemannian_index_conjugate(gamma)
    return IndexReport(
        xi=gamma.xi,
        weights=w,
        virtual_index=iv,
        riemannian_index=ir,
        agree=iv == ir,
    )
