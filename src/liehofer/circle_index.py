"""Weights of a circle subgroup at the moment-map maximum, its virtual
index, and its Riemannian index by counting conjugate points.

Loops are parametrized over [0, 1] (turns), so all frequencies are the
integer root pairings.  Neither computation reads a sign: each builds its
own absolute pairing row, the |alpha(xi)| over the positive roots from the
system's generated ``abs_pairing_row``, and shares it with no other.  Both
are closed forms over that row, evaluated by C-level builtins: the weights
are -v over the nonzero entries v, and a root with v > 0 has v - 1
interior conjugate times, so the conjugate-point count is
2 (sum v - #v + #{v = 0}).  Their oracles live in the tests:
``tests/conjugate_oracle.py`` lists the conjugate times one by one as
Fractions, and ``tests/test_circle_index.py`` sums the per-root
generator forms over the signed per-root ``pairing``.

The weights read the row through its orbit key, the row sorted largest
first.  The Weyl group permutes the roots up to sign, so every point of a
Weyl orbit has one key, and the weights (-v for each nonzero v of the key)
and the virtual index are functions of it.  ``index_equality_report``
therefore memoizes its report on (key, conjugate-point count), for the 256
most recent pairs: the most keys the box-4 sweep of one rank-4 system
needs.  In the box-4 sweep of every system, 8,690 of the 9,900 regular
points get a report built for an earlier point of their orbit.  The key
carries no system, since the report depends on none.  The memo joins no
two computations: the count is still taken for every point from the
point's own row, so a point whose count disagreed with its key's weights
would get a report of its own.  The Bott index the sweep compares with
reads no row at all: ``loop_morse.bott_index`` takes it from the face of
the dominant chamber that holds dom xi, by the system's ``bott_form``.

Both computations refuse the zero coweight from the row they have
already built, not from the coordinates: the simple roots pair to the
coordinates, so xi is zero exactly when the orbit key's first (largest)
entry is 0, and exactly when every entry of the row is 0.

With the sign conventions used throughout the package the weights at the
maximum are negative; a weight that is not raises InvalidWeights, and is
never silently fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DegenerateSubgroup, InvalidWeights
from .root_system import Coweight, abs_pairings
from .root_system import pairing  # noqa: F401  (re-export: perfbench/tracing.py wraps it here)


@dataclass(slots=True, unsafe_hash=True)
class CircleSubgroup:
    """Circle subgroup of G encoded by a nonzero coweight.  A slots record
    like ``Coweight``, and for the same reason: one is built per sweep
    point, and no memo holds one."""

    xi: Coweight

    @property
    def regular(self):
        """True iff the absolute pairing row of xi has no zero (centralizer
        is the torus).  The index sweep filters a whole line of its box at
        once with the system's ``line_zeros`` instead."""
        return 0 not in abs_pairings(self.xi)


@dataclass(frozen=True, slots=True)
class WeightMultiset:
    """Negative weights k_i of the linearized action at the moment-map
    maximum, one entry per complex dimension, sorted.  Frozen, since the
    report memo shares it between callers, and slotted, with no
    per-instance dict."""

    weights: tuple

    def __post_init__(self):
        if max(self.weights, default=-1) > -1:
            bad = [k for k in self.weights if k > -1]
            raise InvalidWeights(f"nonnegative weights present: {bad}")

    def __len__(self):
        return len(self.weights)


@dataclass(frozen=True, slots=True)
class IndexReport:
    """Both indices of a circle subgroup, its weights at the maximum, and
    whether the two indices agree.  A memo value like ``WeightMultiset``:
    frozen and slotted."""

    weights: WeightMultiset
    virtual_index: int
    riemannian_index: int
    agree: bool


def _orbit_key(gamma):
    """The Weyl-invariant key of gamma: its own absolute pairing row, the
    |alpha(xi)| over the positive roots, sorted in place largest first.
    The Weyl group permutes the roots up to sign, so every point of the
    orbit of xi has this key.  The simple roots pair to the coordinates, so
    xi is zero exactly when the key's largest entry is."""
    xi = gamma.xi
    key = xi.system.abs_pairing_row(xi.coords)
    key.sort(reverse=True)
    if not key[0]:
        raise DegenerateSubgroup("zero coweight generates no circle subgroup")
    return tuple(key)


def _weights(key):
    """The weight multiset of an orbit key: -v for each nonzero v, sorted
    because the key is sorted largest first."""
    # of the pair {alpha, -alpha} exactly one pairs negatively
    return WeightMultiset(tuple([-v for v in key if v]))


def weights_at_max(gamma):
    """Weight multiset of the gamma-action on the tangent space at the
    maximum of its generating Hamiltonian.

    One weight per root with negative pairing; roots pairing to zero are
    tangent to the centralizer and contribute nothing.
    """
    return _weights(_orbit_key(gamma))


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
    count over gamma's own absolute pairing row is the closed form
    2 (sum v - #v + #{v = 0}).  ``tests/conjugate_oracle.py`` lists the
    times one by one as the oracle.
    """
    xi = gamma.xi
    row = xi.system.abs_pairing_row(xi.coords)
    n, zeros = len(row), row.count(0)
    if zeros == n:  # xi is zero: the simple roots pair to 0
        raise DegenerateSubgroup("zero coweight generates no circle subgroup")
    return 2 * (sum(row) - n + zeros)


@lru_cache(maxsize=256)
def _report(key, riemannian):
    """The report of every circle subgroup with orbit key ``key`` and
    conjugate-point count ``riemannian``: each of its fields is a function
    of these two alone.  It is immutable, so callers with the same pair may
    share it.  Memoized for ``index_equality_report``: ``verify --box 4
    --systems all`` hits the memo 8,690 times and misses it 1,210 times,
    the index sweep at box 10 on every system hits it 304,333 times and
    misses it 270,195 times, and ``index`` misses it once."""
    w = _weights(key)
    iv = virtual_index(w)
    return IndexReport(weights=w, virtual_index=iv, riemannian_index=riemannian, agree=iv == riemannian)


def index_equality_report(gamma):
    """Both index computations plus their agreement flag.

    For regular gamma the two must coincide exactly.  The weights and the
    virtual index are functions of gamma's orbit key, so the report comes
    from the memo ``_report`` on (orbit key, conjugate-point count), which
    holds the 256 most recent pairs: the most keys the box-4 sweep of one
    rank-4 system needs; 1,024 entries took more memory and raised the
    box-4 sweep's hits only from 8,690 to 8,717.  The three sums stay independent: the key and
    the count are each taken for every gamma from a pairing row of its
    own, so a point whose count disagrees with its key's weights gets a
    report of its own, and the sweep's Bott index reads no row, only the
    face of the dominant chamber that holds dom xi.
    """
    return _report(_orbit_key(gamma), riemannian_index_conjugate(gamma))
