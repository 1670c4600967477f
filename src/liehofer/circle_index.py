"""Weights of a circle subgroup at the moment-map maximum, its virtual
index, and its Riemannian index by counting conjugate points, each in one
pass over the pairing row.  The tests keep the one-by-one enumeration of
the conjugate times as the oracle of the count.

Loops are parametrized over [0, 1] (turns), so all frequencies are the
integer root pairings; each computation builds its own pairing row
``pairings(xi)`` and shares it with no other.  With the sign conventions
used throughout the package the weights at the maximum are negative; a
weight that is not raises InvalidWeights, and is never silently fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import neg

from .errors import DegenerateSubgroup, InvalidWeights
from .root_system import Coweight, pairings
from .root_system import pairing  # noqa: F401  (re-export: perfbench/tracing.py wraps it here)


@dataclass(frozen=True)
class CircleSubgroup:
    """Circle subgroup of G encoded by a nonzero coweight."""

    xi: Coweight

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
        if max(self.weights, default=-1) > -1:
            bad = [k for k in self.weights if k > -1]
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
    weights = sorted(map(neg, map(abs, filter(None, pairings(gamma.xi)))))
    return WeightMultiset(tuple(weights))


def virtual_index(w):
    """Sum of 2(|k_i| - 1) over the weight multiset, as -2 (sum k_i + #k_i);
    zero iff all weights are -1."""
    k = w.weights
    return -2 * (sum(k) + len(k))


def riemannian_index_conjugate(gamma):
    """Riemannian index of the geodesic circle by conjugate-point counting.

    For each positive root with |pairing| = v > 0 the interior conjugate
    times are {j/v : 0 < j < v}, each counted with multiplicity 2 (the real
    root-space pair).  Each root's times are counted in one step, as
    ``len(range(1, v))``; the tests list them one by one as the oracle.
    """
    if gamma.xi.is_zero:
        raise DegenerateSubgroup("zero coweight generates no circle subgroup")
    return 2 * sum(map(len, map(range, repeat(1), map(abs, pairings(gamma.xi)))))


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
