"""Exact root-system combinatorics for semisimple families of rank <= 4.

Roots are stored as integer vectors in the simple-root basis; coweights as
integer vectors in the fundamental-coweight basis, so that the simple root
alpha_i pairs to the i-th coordinate.  Simple roots follow the Bourbaki
numbering, and the inner product is normalized so long roots have squared
length 2.

Every system comes from one Cartan rule (a chain or the D fork, plus the
one multiple bond of a non-simply-laced diagram), and all of its data are
integers.  Each system inverts its Cartan matrix once, as an adjugate over
the determinant, and keeps the coweight Gram matrix as an integer matrix
``gram_num`` over one denominator ``gram_den``.  It also keeps two sparse
tables, built once with the system.  The positive roots are grown in one
upward pass from the simple roots along alpha-strings (Humphreys, Lie
Algebras 9.4), and ``root_steps`` records the step that made each root
beta: a simple alpha_i with beta - alpha_i a positive root or zero, so
<beta, xi> = <beta - alpha_i, xi> + xi_i, and ``pairings`` builds a whole
pairing row with one addition per root.  ``cartan_columns`` lists the
nonzero entries of each Cartan column, the Dynkin neighbours a simple
reflection touches.

Three kernels work on coordinates: ``pairings`` gives the pairing row of a
coweight, ``inner_numerator`` the integer numerator of an inner product
over ``gram_den``, and ``dominant_coords`` reduces coordinates to the
dominant chamber.  The per-root ``pairing`` is the test oracle of the
first.  ``inner`` and ``dominant_representative`` wrap the other two;
``inner`` builds the only Fraction in this module.  The Hofer norms call
the kernels directly, building a Fraction only for the value they return.

The module needs only the standard library.  No runtime path enumerates a
Weyl orbit: the tests' oracle (``tests/weyl_oracle.py``) does, with its
own simple reflections.  ``_orbit_coords`` and ``orbit_array``, a numpy
orbit BFS, stay only because the benchmark names them (it reads the cache
statistics of the first and wraps the second); each imports numpy when
called.

The one hand table of Lie data is ``EXPONENTS``, the Bourbaki exponents of
each supported system.  Weyl groups are never enumerated: the exponents of
a parabolic subsystem come from its root heights, and its Poincare
polynomial and order follow in closed form.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConsistencyError, DimensionError, UnsupportedSystem, clipped_repr

# Exponents m_i of every supported system (Bourbaki, Lie IV-VI, Planches),
# in the order the sweeps visit the systems.  The one hand table of Lie
# data: it says which systems exist, checks the generated roots through
# |positive roots| = sum m_i, and feeds the transgression oracle in
# ``loop_morse``.  Weyl Poincare polynomials never read it; they take their
# exponents from the root heights.
EXPONENTS = {
    ("A", 1): (1,), ("A", 2): (1, 2), ("A", 3): (1, 2, 3), ("A", 4): (1, 2, 3, 4),
    ("B", 2): (1, 3), ("B", 3): (1, 3, 5), ("B", 4): (1, 3, 5, 7),
    ("C", 2): (1, 3), ("C", 3): (1, 3, 5), ("C", 4): (1, 3, 5, 7),
    ("D", 4): (1, 3, 3, 5),
    ("G", 2): (1, 5),
    ("F", 4): (1, 5, 7, 11),
}


def _cartan_matrix(family, rank):
    """Cartan matrix c_ij = 2(alpha_i, alpha_j)/(alpha_j, alpha_j) read off
    the Dynkin diagram: single bonds along a chain (for D the last node
    hangs off the third-to-last, the fork), then the one multiple bond of a
    non-simply-laced diagram, given as (i, j, c_ij)."""
    c = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for k in range(rank - 1):
        i = k - 1 if family == "D" and k == rank - 2 else k
        c[i][k + 1] = c[k + 1][i] = -1
    bond = {
        "B": (rank - 2, rank - 1, -2), "C": (rank - 1, rank - 2, -2),
        "F": (1, 2, -2), "G": (1, 0, -3),
    }.get(family)
    if bond:
        i, j, cij = bond
        c[i][j] = cij
    return tuple(map(tuple, c))


def _symmetrizer(cartan):
    """Minimal positive integers d with d_i c_ij = d_j c_ji, by a walk over
    the (connected) diagram in integers: before d_j = d_i c_ij / c_ji is
    set, every d found so far is scaled by -c_ji, so the division is exact."""
    d = [1] + [0] * (len(cartan) - 1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j, cij in enumerate(cartan[i]):
            if cij and not d[j]:
                d = [-cartan[j][i] * x for x in d]
                d[j] = d[i] * cij // cartan[j][i]
                todo.append(j)
    g = math.gcd(*d)
    return tuple(x // g for x in d)


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


def _positive_roots(cartan):
    """Positive roots in sorted order, with the step that made each one.

    Grown upward from the simple roots: if <beta, alpha_i^vee> = -q < 0, the
    alpha_i-string through beta runs unbroken up to s_i beta = beta + q alpha_i
    (Humphreys, Lie Algebras 9.4).  Every root is reached: a root gamma that
    is not simple has some gamma - alpha_i positive (10.2), so its
    alpha_i-string starts at a lower positive root.

    ``steps[k] = (p, i)`` says root k = (the root in slot p) + alpha_i, where
    slot k > 0 holds root k - 1 and slot 0 the zero root.  A parent is
    lexicographically smaller than its child, so it comes first and one
    pass over the steps builds a pairing row.
    """
    rank = len(cartan)
    zero = (0,) * rank
    step = {zero[:i] + (1,) + zero[i + 1:]: (zero, i) for i in range(rank)}
    todo = list(step)
    for beta in todo:  # the list grows as roots are found
        for i in range(rank):
            up = beta
            for _ in range(-sum(b * row[i] for b, row in zip(beta, cartan))):
                parent, up = up, up[:i] + (up[i] + 1,) + up[i + 1:]
                if up not in step:
                    step[up] = (parent, i)
                    todo.append(up)
    roots = tuple(sorted(step))
    slot = {root: k for k, root in enumerate(roots, 1)}
    slot[zero] = 0
    return roots, tuple((slot[step[root][0]], step[root][1]) for root in roots)


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Root datum of a semisimple family: exact integer Cartan data and the
    coweight Gram matrix.

    ``cartan_adj`` and ``cartan_det`` give the inverse Cartan matrix as
    adj(C) / det(C).  ``gram_num`` / ``gram_den`` is the matrix of inner
    products of the fundamental coweights, an integer matrix over one
    denominator: the one Gram form, which every inner product uses.
    ``root_steps`` holds one (parent slot, simple index) pair per positive
    root, and ``cartan_columns[i]`` the pairs
    (j, c_ji) with c_ji nonzero.  Hofer norms need no Weyl orbit: the orbit
    maximum is the inner product of the dominant representatives.

    Systems are canonical (``build_root_system`` is cached), so equality
    and hashing are by identity.
    """

    family: str
    rank: int
    cartan: tuple
    positive_roots: tuple
    cartan_adj: tuple
    cartan_det: int
    gram_num: tuple
    gram_den: int
    root_steps: tuple
    cartan_columns: tuple

    @property
    def label(self):
        return f"{self.family}{self.rank}"

    def coweight(self, coords):
        return Coweight(self, tuple(map(int, coords)))

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
        return not any(self.coords)

    @property
    def is_dominant(self):
        return min(self.coords) >= 0

    def __repr__(self):
        return f"Coweight({self.system.label}, {list(self.coords)})"


@lru_cache(maxsize=None)
def build_root_system(family, rank):
    """Canonical root system for the given family label and rank.

    Raises UnsupportedSystem outside ``EXPONENTS``: A1-A4, B2-B4, C2-C4,
    D4, G2, F4.
    """
    key = (family, int(rank))
    if key not in EXPONENTS:
        raise UnsupportedSystem(f"no root system {family}{rank} in the supported table")
    cartan = _cartan_matrix(family, rank)
    symm = _symmetrizer(cartan)
    positive, steps = _positive_roots(cartan)
    expected = sum(EXPONENTS[key])
    if len(positive) != expected:
        raise ConsistencyError(
            f"{family}{rank}: {len(positive)} positive roots generated, "
            f"{expected} expected"
        )
    adj, det = _adjugate(cartan)
    # coweight Gram = diag(d_i / d_min) C^-1 = (d_i adj_ij) / (d_min det)
    gram_num = tuple(tuple(d * x for x in row) for d, row in zip(symm, adj))
    gram_den = min(symm) * det
    columns = tuple(
        tuple((j, row[i]) for j, row in enumerate(cartan) if row[i]) for i in range(rank)
    )
    return RootSystem(
        family, rank, cartan, positive, adj, det, gram_num, gram_den,
        steps, columns,
    )


def from_label(label):
    """Parse a label like "B3" into a root system."""
    rank = label[1:]
    if not (rank.isascii() and rank.isdecimal()):
        raise UnsupportedSystem(f"malformed system label {clipped_repr(label)}")
    # no supported rank has 3 digits, and int() refuses more than 4300
    if len(rank.lstrip("0")) > 2:
        raise UnsupportedSystem(f"no root system {clipped_repr(label)} in the supported table")
    return build_root_system(label[0].upper(), int(rank))


def pairing(root, xi):
    """Integer pairing of a root (simple-root basis) with a coweight."""
    if len(root) != xi.system.rank:
        raise DimensionError(
            f"root has {len(root)} coordinates, system rank is {xi.system.rank}"
        )
    return sum(map(operator.mul, root, xi.coords))


def pairings(xi):
    """Pairing row of a coweight: its Python-int pairings with the positive
    roots, in their order, one addition per root along ``root_steps``.
    Slot 0 of the working row is the pairing of the zero root."""
    coords = xi.coords
    row = [0]
    for p, i in xi.system.root_steps:
        row.append(row[p] + coords[i])
    del row[0]
    return row


def inner_numerator(system, x, y):
    """Integer numerator of the inner product of the coweights with
    coordinate tuples x and y, over the system's denominator ``gram_den``.

    The caller has checked that both belong to ``system``, so both have
    ``system.rank`` coordinates.
    """
    total = 0
    for a, row in zip(x, system.gram_num):
        if a:
            total += a * sum(map(operator.mul, row, y))
    return total


def inner(xi1, xi2):
    """Exact Ad-invariant inner product of two coweights (long roots at
    squared length 2): the integer numerator ``inner_numerator`` over
    ``gram_den``, as a Fraction."""
    system = xi1.system
    if system is not xi2.system:
        raise DimensionError("coweights belong to different root systems")
    return Fraction(inner_numerator(system, xi1.coords, xi2.coords), system.gram_den)


@lru_cache(maxsize=4096)
def _orbit_coords(system, coords):
    """Weyl orbit of coweight coordinates as a sorted tuple of tuples.

    Breadth-first closure under the simple reflections, vectorized per
    level; all arithmetic stays in int64 (coordinates remain small).
    """
    import numpy as np

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


def orbit_array(xi):
    """Weyl orbit as an int64 array of coordinate rows."""
    import numpy as np

    return np.array(_orbit_coords(xi.system, xi.coords), dtype=np.int64)


def dominant_coords(system, coords):
    """Coordinates of the unique dominant coweight in the Weyl orbit of
    ``coords``: apply the simple reflection of the first negative coordinate
    until none is left, in one flat index scan that restarts at 0 after each
    reflection.  A reflection s_i changes only coordinate i and its Dynkin
    neighbours, the entries of ``cartan_columns[i]``."""
    c = list(coords)
    columns = system.cartan_columns
    rank = len(c)
    i = 0
    while i < rank:
        ci = c[i]
        if ci < 0:
            for j, cji in columns[i]:
                c[j] -= ci * cji
            i = 0
        else:
            i += 1
    return tuple(c)


def dominant_representative(xi):
    """The unique dominant coweight in the Weyl orbit of xi."""
    return Coweight(xi.system, dominant_coords(xi.system, xi.coords))


def height_exponents(system, walls):
    """Exponents of the parabolic subsystem spanned by the listed simple
    roots, read off its root heights: the number of exponents equal to m is
    the number of its positive roots of height m minus the number of height
    m + 1 (Kostant 1959)."""
    outside = [i for i in range(system.rank) if i not in walls]
    heights = Counter(
        sum(root) for root in system.positive_roots
        if not any(root[i] for i in outside)
    )
    return tuple(
        m for m in sorted(heights) for _ in range(heights[m] - heights[m + 1])
    )


def weyl_poincare(system, walls=None):
    """Poincare polynomial sum_w t^(2 l(w)) of the parabolic subgroup
    generated by the listed simple reflections (all of them by default).

    Returned as a tuple of coefficients, in closed form: the product of
    1 + t^2 + ... + t^(2m) over the exponents m that ``height_exponents``
    reads off the root heights (Humphreys, Reflection Groups and Coxeter
    Groups 3.15).  The result is memoized per system and set of walls
    (``walls`` may be any iterable of simple-root indices).
    """
    gens = range(system.rank) if walls is None else walls
    return _weyl_poincare(system, frozenset(gens))


@lru_cache(maxsize=None)
def _weyl_poincare(system, gens):
    coeffs = [1]
    for m in height_exponents(system, gens):
        out = [0] * (len(coeffs) + 2 * m)
        for i, c in enumerate(coeffs):
            for k in range(i, i + 2 * m + 1, 2):
                out[k] += c
        coeffs = out
    return tuple(coeffs)
