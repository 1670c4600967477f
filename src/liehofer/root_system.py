"""Exact root-system combinatorics for semisimple families of rank <= 4.

Roots are stored as integer vectors in the simple-root basis; coweights as
integer vectors in the fundamental-coweight basis, so that the simple root
alpha_i pairs to the i-th coordinate.  All scalars are exact (ints and
Fractions); the inner product is normalized so long roots have squared
length 2.  Simple roots follow the Bourbaki numbering.

Linear algebra is integer: each system inverts its Cartan matrix once, as
an adjugate over the determinant, and keeps the coweight Gram matrix as an
integer matrix over one denominator.  Weyl orbits are enumerated only for
the orbit-sum check and as a test oracle; no norm computation uses them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, DimensionError, UnsupportedSystem

# (family, rank) -> number of positive roots
_POSITIVE_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
    ("B", 2): 4, ("B", 3): 9, ("B", 4): 16,
    ("C", 2): 4, ("C", 3): 9, ("C", 4): 16,
    ("D", 4): 12,
    ("G", 2): 6,
    ("F", 4): 24,
}

SUPPORTED = tuple(sorted(_POSITIVE_COUNTS))


def _weyl_order(family, rank):
    if family == "A":
        return math.factorial(rank + 1)
    if family in ("B", "C"):
        return 2 ** rank * math.factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    if family == "G":
        return 12
    return 1152  # F4


def _cartan_matrix(family, rank):
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    if family in ("A", "B", "C"):
        for i in range(rank - 1):
            c[i][i + 1] = c[i + 1][i] = -1
        if family == "B":
            c[rank - 2][rank - 1] = -2
        elif family == "C":
            c[rank - 1][rank - 2] = -2
    elif family == "D":
        # alpha_2 is the trivalent node for D4
        for i, j in ((0, 1), (1, 2), (1, 3)):
            c[i][j] = c[j][i] = -1
    elif family == "G":
        c[0][1], c[1][0] = -1, -3
    elif family == "F":
        c = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    return tuple(tuple(row) for row in c)


def _symmetrizer(cartan):
    """Minimal positive integers d with d_i c_ij = d_j c_ji."""
    rank = len(cartan)
    d = [None] * rank
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(rank):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                todo.append(j)
    # supported diagrams are connected, so all entries are set
    lcm = math.lcm(*(x.denominator for x in d))
    ints = [int(x * lcm) for x in d]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def _root_gram(cartan, symmetrizer):
    """Gram matrix of the simple roots, long roots at squared length 2."""
    rank = len(cartan)
    dmin = min(symmetrizer)
    # half squared lengths: e_i proportional to 1/d_i, max normalized to 1
    e = [Fraction(dmin, d) for d in symmetrizer]
    return tuple(
        tuple(cartan[i][j] * e[j] for j in range(rank)) for i in range(rank)
    )


def _adjugate(mat):
    """Integer adjugate and determinant (adj, det) of a square integer
    matrix, by fraction-free Gauss-Jordan elimination (Bareiss): every
    division is exact, so no Fraction is ever built."""
    n = len(mat)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next(r for r in range(k, n) if a[r][k] != 0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p = a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = p
    # now a = [d*I | d*A^-1] with d = sign * det A, so adj A = sign * right block
    det = sign * prev
    adj = tuple(tuple(sign * x for x in row[n:]) for row in a)
    return adj, det


def _reflect_root(cartan, coords, i):
    """Simple reflection s_i on a root in simple-root coordinates."""
    rank = len(coords)
    pair = sum(coords[j] * cartan[j][i] for j in range(rank))
    out = list(coords)
    out[i] -= pair
    return tuple(out)


def _all_roots(cartan):
    rank = len(cartan)
    seen = set()
    frontier = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    seen.update(frontier)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(rank):
                r = _reflect_root(cartan, beta, i)
                if r not in seen:
                    seen.add(r)
                    new.append(r)
        frontier = new
    return seen


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Root datum of a semisimple family: exact Cartan data and gram matrices.

    ``gram`` is the matrix of inner products of fundamental coweights (as
    Fractions), ``root_gram`` the matrix of inner products of simple roots.
    ``cartan_adj`` and ``cartan_det`` give the inverse Cartan matrix as
    adj(C) / det(C); ``gram_num`` / ``gram_den`` is ``gram`` as an integer
    matrix over one denominator, the form every inner product uses.  Hofer
    norms need no Weyl orbit: the orbit maximum is the inner product of the
    dominant representatives.

    Systems are canonical (``build_root_system`` is cached), so equality
    and hashing are by identity.
    """

    family: str
    rank: int
    cartan: tuple
    symmetrizer: tuple
    positive_roots: tuple
    gram: tuple
    root_gram: tuple
    cartan_adj: tuple
    cartan_det: int
    gram_num: tuple
    gram_den: int

    @property
    def label(self):
        return f"{self.family}{self.rank}"

    @property
    def weyl_order(self):
        return _weyl_order(self.family, self.rank)

    def coweight(self, coords):
        return Coweight(self, tuple(int(c) for c in coords))

    def zero(self):
        return self.coweight((0,) * self.rank)

    def __repr__(self):
        return f"RootSystem({self.label})"


@dataclass(frozen=True)
class Coweight:
    """Integer vector in the fundamental-coweight basis; encodes a circle
    subgroup theta -> exp(2 pi theta xi)."""

    system: RootSystem
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.system.rank:
            raise DimensionError(
                f"expected {self.system.rank} coordinates, got {len(self.coords)}"
            )

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    @property
    def is_dominant(self):
        return all(c >= 0 for c in self.coords)

    def __neg__(self):
        return Coweight(self.system, tuple(-c for c in self.coords))

    def __repr__(self):
        return f"Coweight({self.system.label}, {list(self.coords)})"


@lru_cache(maxsize=None)
def build_root_system(family, rank):
    """Canonical root system for the given family label and rank.

    Raises UnsupportedSystem outside the table A1-A4, B2-B4, C2-C4, D4,
    G2, F4.
    """
    key = (family, int(rank))
    if key not in _POSITIVE_COUNTS:
        raise UnsupportedSystem(f"no root system {family}{rank} in the supported table")
    cartan = _cartan_matrix(family, rank)
    symm = _symmetrizer(cartan)
    roots = _all_roots(cartan)
    positive = tuple(sorted(r for r in roots if all(c >= 0 for c in r)))
    if len(positive) != _POSITIVE_COUNTS[key]:
        raise ConsistencyError(
            f"{family}{rank}: {len(positive)} positive roots generated, "
            f"{_POSITIVE_COUNTS[key]} expected"
        )
    adj, det = _adjugate(cartan)
    # gram = diag(d_i / d_min) C^-1 = (d_i adj_ij) / (d_min det)
    gram_num = tuple(tuple(d * x for x in row) for d, row in zip(symm, adj))
    gram_den = min(symm) * det
    gram = tuple(tuple(Fraction(x, gram_den) for x in row) for row in gram_num)
    return RootSystem(
        family, rank, cartan, symm, positive, gram, _root_gram(cartan, symm),
        adj, det, gram_num, gram_den,
    )


def from_label(label):
    """Parse a label like "B3" into a root system."""
    if len(label) != 2 or not label[1].isdigit():
        raise UnsupportedSystem(f"malformed system label {label!r}")
    return build_root_system(label[0].upper(), int(label[1]))


def pairing(root, xi):
    """Integer pairing of a root (simple-root basis) with a coweight."""
    if len(root) != xi.system.rank:
        raise DimensionError(
            f"root has {len(root)} coordinates, system rank is {xi.system.rank}"
        )
    return sum(int(n) * c for n, c in zip(root, xi.coords))


def inner(xi1, xi2):
    """Exact Ad-invariant inner product of two coweights (long roots at
    squared length 2)."""
    system = xi1.system
    if system is not xi2.system:
        raise DimensionError("coweights belong to different root systems")
    y = xi2.coords
    total = 0
    for x, row in zip(xi1.coords, system.gram_num):
        if x:
            total += x * sum(map(operator.mul, row, y))
    return Fraction(total, system.gram_den)


def reflect_coweight(system, coords, i):
    """Simple reflection s_i on coweight coordinates."""
    c = list(coords)
    ci = coords[i]
    for j in range(system.rank):
        c[j] -= ci * system.cartan[j][i]
    return tuple(c)


@lru_cache(maxsize=4096)
def _orbit_coords(system, coords):
    """Weyl orbit of coweight coordinates as a sorted tuple of tuples.

    Breadth-first closure under the simple reflections, vectorized per
    level; all arithmetic stays in int64 (coordinates remain small).
    """
    cartan = np.array(system.cartan, dtype=np.int64)
    frontier = np.array([coords], dtype=np.int64)
    seen = {tuple(coords)}
    while frontier.size:
        images = [
            frontier - np.outer(frontier[:, i], cartan[:, i])
            for i in range(system.rank)
        ]
        fresh = []
        for row in np.concatenate(images).tolist():
            t = tuple(row)
            if t not in seen:
                seen.add(t)
                fresh.append(t)
        frontier = np.array(fresh, dtype=np.int64) if fresh else np.empty((0,))
    return tuple(sorted(seen))


def weyl_orbit(xi):
    """Full Weyl orbit of a coweight as a frozenset of coweights."""
    return frozenset(
        Coweight(xi.system, c) for c in _orbit_coords(xi.system, xi.coords)
    )


def orbit_array(xi):
    """Weyl orbit as an int64 array of coordinate rows."""
    return np.array(_orbit_coords(xi.system, xi.coords), dtype=np.int64)


def dominant_representative(xi):
    """The unique dominant coweight in the Weyl orbit of xi: apply the
    simple reflection of the first negative coordinate until none is left."""
    c = list(xi.coords)
    cartan = xi.system.cartan
    while True:
        for i, ci in enumerate(c):
            if ci < 0:
                break
        else:
            return Coweight(xi.system, tuple(c))
        for j, row in enumerate(cartan):
            c[j] -= ci * row[i]


def weyl_poincare(system, walls=None):
    """Poincare polynomial sum_w t^(2 l(w)) of the parabolic subgroup
    generated by the listed simple reflections (all of them by default).

    Returned as a tuple of coefficients; breadth-first enumeration of the
    subgroup acting on a regular vector, with BFS depth as length.
    """
    gens = sorted(set(range(system.rank) if walls is None else walls))
    start = (1,) * system.rank
    seen = {start}
    frontier = [start]
    lengths = [1]  # count of elements per length, index = length
    while frontier:
        new = []
        for c in frontier:
            for i in gens:
                r = reflect_coweight(system, c, i)
                if r not in seen:
                    seen.add(r)
                    new.append(r)
        if new:
            lengths.append(len(new))
        frontier = new
    coeffs = [0] * (2 * (len(lengths) - 1) + 1)
    for ell, count in enumerate(lengths):
        coeffs[2 * ell] = count
    return tuple(coeffs)
