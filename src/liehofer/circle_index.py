"""Weights of a circle subgroup at the moment-map maximum, its virtual
index, and its Riemannian index by counting conjugate points.

Loops are parametrized over [0, 1] (turns), so all frequencies are the
integer root pairings; each computation builds its own pairing row
``pairings(xi)`` and shares it with no other.  Both computations are
closed forms over that row, evaluated by C-level builtins: the weights are
-|v| over the nonzero entries v, and a root with |v| > 0 has |v| - 1
interior conjugate times, so the conjugate-point count is
2 (sum |v| - #v + #{v = 0}).  Their oracles live in the tests:
``tests/conjugate_oracle.py`` lists the conjugate times one by one as
Fractions, and ``tests/test_circle_index.py`` sums the per-root
generator forms over the per-root ``pairing``.

With the sign conventions used throughout the package the weights at the
maximum are negative; a weight that is not raises InvalidWeights, and is
never silently fixed.
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
    def regular(self):
        """True iff the pairing row of xi has no zero (centralizer is the
        torus).  The index sweep filters a whole line of its box at once
        with the system's ``line_zeros`` instead."""
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
    """Both indices of a circle subgroup, its weights at the maximum, and
    whether the two indices agree."""

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
    return WeightMultiset(tuple(sorted([-abs(v) for v in pairings(gamma.xi) if v])))


def virtual_index(w):
    """Sum of 2(|k_i| - 1) over the weight multiset, as -2 (sum k_i + #k_i);
    zero iff all weights are -1."""
    k = w.weights
    return -2 * (sum(k) + len(k))


def riemannian_index_conjugate(gamma):
    """Riemannian index of the geodesic circle by conjugate-point counting.

    For each positive root with |pairing| = v > 0 the interior conjugate
    times are {j/v : 0 < j < v}, each counted with multiplicity 2 (the real
    root-space pair).  There are v - 1 of them, and none for v = 0, so the
    count over the row is the closed form 2 (sum |v| - #v + #{v = 0}).
    ``tests/conjugate_oracle.py`` lists the times one by one as the oracle.
    """
    if gamma.xi.is_zero:
        raise DegenerateSubgroup("zero coweight generates no circle subgroup")
    row = pairings(gamma.xi)
    return 2 * (sum(map(abs, row)) - len(row) + row.count(0))


def index_equality_report(gamma):
    """Both index computations plus their agreement flag.

    For regular gamma the two must coincide exactly.
    """
    w = weights_at_max(gamma)
    iv = virtual_index(w)
    ir = riemannian_index_conjugate(gamma)
    return IndexReport(weights=w, virtual_index=iv, riemannian_index=ir, agree=iv == ir)
