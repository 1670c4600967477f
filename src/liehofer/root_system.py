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

Four generated kernels work on coordinates.  Through the first two,
``pairings`` gives the pairing row of a coweight, and ``dominant_coords``
reduces coordinates to the dominant chamber.  Both run on every item of
every sweep, where a loop over the sparse tables spent most of its time
unpacking and indexing them.  So ``build_root_system`` writes each
system's two tables out as straight-line Python and compiles it once,
with one ``exec`` (as ``dataclasses`` does for ``__init__``), into
``pairing_row`` and ``dominant_reduction``, which ``pairings`` and
``dominant_coords`` call: the same additions and reflections in the same
order, so no runtime code reads the tables themselves.  The same ``exec`` also compiles
``line_zeros``, with which ``verify.box_coweights`` finds the singular
points of a whole line of its box at once.  Both row kernels write their
additions with one scheme, ``_row_scheme``; ``line_zeros`` runs it with
the last coordinate folded to 0 and reads each root's coefficient of the
last simple root from the root itself.  A fourth kernel, ``gram_form``,
writes out the Gram matrix: it returns the Gram row G c of a coordinate
tuple c and the form c . G c, with the entries of ``gram_num`` as
literals; the Hofer memo builds each record with it.  The source holds
only local names and integers from the Cartan data, never a label or an
input.  The per-root ``pairing`` remains the test oracle of the pairing
row and of ``line_zeros``, the BFS orbit of ``tests/weyl_oracle.py`` that
of the reduction, and the Bourbaki Gram matrix of
``tests/bourbaki_oracle.py`` that of ``gram_form``.  ``inner``, the exact
inner product over ``gram_den``, keeps its own product over ``gram_num``
and builds the only Fraction in this module; ``dominant_representative``
wraps the reduction.  The Hofer norms call the kernels, building a
Fraction only for the value they return.

The module needs only the standard library.  No runtime path enumerates a
Weyl orbit: the tests' oracle (``tests/weyl_oracle.py``) does, with its
own simple reflections.  ``_orbit_coords`` and ``orbit_array``, a numpy
orbit BFS, stay only because the benchmark names them (it reads the cache
statistics of the first and wraps the second); each imports numpy when
called.

The one hand table of Lie data is ``EXPONENTS``, the Bourbaki exponents of
each supported system.  Weyl groups are never enumerated, and no Poincare
polynomial reads the exponents: ``_root_poincare`` builds Macdonald's
product prod [ht a + 1]_{t^2} / [ht a]_{t^2} over a set of positive roots.
Over the roots of a parabolic subsystem Phi_J it is W_J(t)
(``weyl_poincare``), and over the roots outside it W(t) / W_J(t), the
Poincare polynomial of an adjoint orbit (``loop_morse.stratum_poincare``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ConsistencyError, DimensionError, InputError, UnsupportedSystem, clipped_repr,
)

# Exponents m_i of every supported system (Bourbaki, Lie IV-VI, Planches),
# in the order the sweeps visit the systems.  The one hand table of Lie
# data: it says which systems exist, checks the generated roots through
# |positive roots| = sum m_i, and feeds the transgression oracle in
# ``loop_morse``.  Weyl Poincare polynomials never read it; they are
# products over the root heights.
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
    division is exact, so no Fraction is ever built.

    No pivot is searched for.  The k-th pivot is the k-th leading
    principal minor, and every leading principal minor of a finite-type
    Cartan matrix is positive (each is the Cartan matrix of a finite-type
    subdiagram), so no row is ever swapped and det is the last pivot."""
    n = len(mat)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    prev = 1
    for k in range(n):
        p = a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = p
    # now a = [d*I | d*A^-1] with d = det A, so adj A is the right block
    return tuple(tuple(row[n:]) for row in a), prev


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


def _row_scheme(steps, folded=None):
    """The additions of a generated pairing row: root k = (the root in slot
    p) + c_i along ``steps``, one line ``r<k> = <parent> + c<i>`` per root
    that needs one, and the name of the local (or coordinate) holding each
    root's pairing, in root order.  A simple root is its own coordinate.
    With ``folded`` = i, coordinate i is held at 0: a step along alpha_i
    adds nothing, so its root keeps its parent's name, and a root whose
    pairing is 0 there is named ``0``."""
    name, adds = ["0"], []  # name[k]: the local holding the pairing of slot k
    for k, (p, i) in enumerate(steps, 1):
        if i == folded:
            name.append(name[p])
        elif name[p] == "0":
            name.append(f"c{i}")
        else:
            name.append(f"r{k}")
            adds.append(f"    r{k} = {name[p]} + c{i}\n")
    return name[1:], adds


def _kernels(roots, steps, columns, gram_num):
    """The four generated coordinate kernels of a system, ``pairing_row``,
    ``dominant_reduction``, ``line_zeros`` and ``gram_form``, as
    straight-line Python compiled by one ``exec``.

    The source holds only local names (``c<i>``, ``r<k>``, ``g<i>``) and
    the integer literals of ``columns``, ``steps``, ``roots`` and
    ``gram_num``; it looks up no global and no attribute.  Both row
    kernels write their additions with one scheme, ``_row_scheme``:
    ``pairing_row`` binds the coordinates to locals, computes one local
    per root, ``r<k> = r<p> + c<i>`` along ``steps`` (a simple root is its
    own coordinate), and returns them as one list.  ``dominant_reduction`` tests ``c<i> < 0`` in index order and
    applies the first such s_i with its Cartan entries as literals,
    restarting at index 0 after each reflection, until no coordinate is
    negative.

    ``line_zeros`` takes the first rank - 1 coordinates h of the line
    h + (c,).  On it a root pairs to p + b c, with p its pairing at
    h + (0,), computed by the same scheme with the last coordinate folded
    to 0, and b its coefficient of the last simple root, read from the
    root itself.  It returns None when a root with b = 0 has p = 0, so
    that every point of the line is singular, and otherwise the set of the
    c at which some root pairs to zero: 0, the last simple root's zero,
    and -p / b for each root whose b divides p.

    ``gram_form`` binds the coordinates to locals, computes the Gram row
    ``g<i>`` = sum_j gram_num[i][j] c<j> with the entries as literals, and
    returns the tuple of the g<i> and the form sum_i c<i> g<i>.
    """
    rank = len(columns)
    coords = ", ".join(f"c{i}" for i in range(rank))
    names, adds = _row_scheme(steps)
    row = [f"def pairing_row(c):\n    {coords}, = c\n", *adds]
    row.append(f"    return [{', '.join(names)}]\n")
    reduce = [f"def dominant_reduction(c):\n    {coords}, = c\n    while True:\n"]
    for i, column in enumerate(columns):
        reduce.append(f"        {'elif' if i else 'if'} c{i} < 0:\n")
        # s_i: c_j -= c_ji c_i; the neighbours first, then c_ii = 2 flips c_i
        for j, cji in column:
            if j != i:
                factor = "" if cji == -1 else f"{-cji} * "
                reduce.append(f"            c{j} += {factor}c{i}\n")
        reduce.append(f"            c{i} = -c{i}\n")
    reduce.append(f"        else:\n            return ({coords},)\n")
    last = rank - 1
    heads = ", ".join(f"c{i}" for i in range(last))
    at_zero, adds = _row_scheme(steps, folded=last)
    zeros = [f"def line_zeros(c):\n    [{heads}] = c\n", *adds]
    terms = [(name, root[last]) for name, root in zip(at_zero, roots)]  # p + b c
    flat = [name for name, b in terms if b == 0]
    if flat:
        zeros.append(f"    if not ({' and '.join(flat)}):\n        return None\n")
    # -p // b is exact where b divides p; elsewhere 0 stands in, already a zero
    found = ["0"] + [
        f"-{name}" if b == 1 else f"-{name} // {b} if not {name} % {b} else 0"
        for name, b in terms if b and name != "0"
    ]
    zeros.append(f"    return {{{', '.join(found)}}}\n")
    gram = [f"def gram_form(c):\n    {coords}, = c\n"]
    for i, gram_row in enumerate(gram_num):
        terms = (f"c{j}" if g == 1 else f"{g} * c{j}" for j, g in enumerate(gram_row))
        gram.append(f"    g{i} = {' + '.join(terms)}\n")
    g_row = ", ".join(f"g{i}" for i in range(rank))
    form = " + ".join(f"c{i} * g{i}" for i in range(rank))
    gram.append(f"    return ({g_row},), {form}\n")
    namespace = {"__name__": __name__}
    exec("".join(row + reduce + zeros + gram), namespace)
    names = ("pairing_row", "dominant_reduction", "line_zeros", "gram_form")
    return tuple(namespace[name] for name in names)


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
    (j, c_ji) with c_ji nonzero.  The four generated kernels are functions
    of a coordinate sequence (see ``_kernels``): ``pairing_row``,
    ``dominant_reduction`` and ``line_zeros`` are those two tables
    compiled, and ``gram_form`` is ``gram_num`` compiled.  Hofer norms need
    no Weyl orbit: the orbit maximum is the inner product of the dominant
    representatives.

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
    pairing_row: object
    dominant_reduction: object
    line_zeros: object
    gram_form: object

    @property
    def label(self):
        return f"{self.family}{self.rank}"

    def coweight(self, coords):
        """The coweight of this system with the given coordinates: the one
        checked constructor of ``Coweight``.  Each coordinate must be an
        integer (``operator.index``: numpy integers pass and become Python
        ints); a float or a string raises InputError, never truncated to an
        integer.  Then their count must be the rank, or DimensionError."""
        coords = tuple(coords)
        try:
            coords = tuple(map(operator.index, coords))
        except TypeError:
            for c in coords:
                if not hasattr(type(c), "__index__"):
                    raise InputError(
                        f"coweight coordinates must be integers, got {clipped_repr(c)}"
                    ) from None
            raise
        if len(coords) != self.rank:
            raise DimensionError(f"expected {self.rank} coordinates, got {len(coords)}")
        return Coweight(self, coords)

    def __repr__(self):
        return f"RootSystem({self.label})"


@dataclass(slots=True, unsafe_hash=True)
class Coweight:
    """Integer vector in the fundamental-coweight basis; encodes a circle
    subgroup theta -> exp(2 pi theta xi).

    The constructor checks nothing.  ``RootSystem.coweight`` is the one
    checked constructor: it takes input coordinates and checks that they
    are integers and that there are rank of them.  The library builds a
    ``Coweight`` directly only from coordinates it has already checked or
    built with the right length itself (a box point, a dominant
    reduction, a candidate of the strata walk), so a sweep item pays for
    no check.

    A slots record with value equality and a value hash, not a frozen
    one: a sweep builds one or two per point, and the frozen ``__init__``
    sets each field through ``object.__setattr__``, which made the record
    about three times as dear to build.  No memo keys on or holds a
    ``Coweight`` (the memos key on coordinate tuples), and no code
    assigns to its fields; the records that memos share between callers
    (``IndexReport``, ``WeightMultiset``, ``NormReport``) stay frozen."""

    system: RootSystem
    coords: tuple

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
    D4, G2, F4.  Memoized for ``from_label``, which every command reads:
    ``verify --box 4 --systems all`` hits the memo 40 times and misses it
    13 times, once per system; a one-system command misses it once.
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
        steps, columns, *_kernels(positive, steps, columns, gram_num),
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
    roots, in their order, one addition per root along ``root_steps``, by
    the system's generated ``pairing_row``."""
    return xi.system.pairing_row(xi.coords)


def inner(xi1, xi2):
    """Exact Ad-invariant inner product of two coweights (long roots at
    squared length 2): the integer xi1 . G xi2 with G = ``gram_num``, over
    ``gram_den``, as a Fraction."""
    system = xi1.system
    if system is not xi2.system:
        raise DimensionError("coweights belong to different root systems")
    g_y = (sum(map(operator.mul, row, xi2.coords)) for row in system.gram_num)
    return Fraction(sum(map(operator.mul, xi1.coords, g_y)), system.gram_den)


@lru_cache(maxsize=4096)
def _orbit_coords(system, coords):
    """Weyl orbit of coweight coordinates as a sorted tuple of tuples.

    Breadth-first closure under the simple reflections, vectorized per
    level; all arithmetic stays in int64 (coordinates remain small).  No
    command reaches the memo (0 hits and 0 misses on every argv of the
    goldens); it stays because ``perfbench/worker.py`` reads its
    ``cache_info()``.
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
    until none is left, restarting at index 0 after each reflection, by the
    system's generated ``dominant_reduction``.  A reflection s_i changes
    only coordinate i and its Dynkin neighbours, the entries of
    ``cartan_columns[i]``."""
    return system.dominant_reduction(coords)


def dominant_representative(xi):
    """The unique dominant coweight in the Weyl orbit of xi."""
    return Coweight(xi.system, dominant_coords(xi.system, xi.coords))


def weyl_poincare(system, walls=None):
    """Poincare polynomial sum_w t^(2 l(w)) of the parabolic subgroup
    generated by the listed simple reflections (all of them by default;
    ``walls`` may be any iterable of simple-root indices).

    Returned as a tuple of coefficients: Macdonald's product
    ``_root_poincare`` over the heights of the positive roots of the
    parabolic subsystem, those supported on the walls alone."""
    walls = frozenset(range(system.rank) if walls is None else walls)
    heights = (sum(r) for r in system.positive_roots if all(i in walls for i, c in enumerate(r) if c))
    return _root_poincare(tuple(sorted(heights)))


@lru_cache(maxsize=None)
def _root_poincare(heights):
    """Macdonald's product prod [h + 1]_{t^2} / [h]_{t^2} over a sorted
    tuple of root heights h, as a tuple of 2 len(heights) + 1 coefficients
    (Macdonald 1972, "The Poincare series of a Coxeter group").

    Over the positive roots outside a parabolic subsystem Phi_J it is the
    Poincare polynomial W(t) / W_J(t) of W / W_J, and over all of them
    that of W.  Each root takes two in-place passes over the truncated
    power series: times 1 - t^(2h + 2), from the top degree down, then over
    1 - t^(2h), from the bottom degree up.  Where the product is a
    polynomial its degree is 2 len(heights), so the truncation loses
    nothing.  Elsewhere the result is the truncation of a power series,
    which is caught by Poincare duality: the Poincare polynomial of G/P is
    palindromic, and a result that is not raises ArithmeticError.

    Memoized for ``loop_morse.stratum_poincare``, which ``omega-series``
    calls per stratum: on A4 at cutoff 200 the memo is hit 2,990 times and
    missed 7 times, on F4 at cutoff 200 hit 80 times and missed 8."""
    top = 2 * len(heights)
    coeffs = [1] + [0] * top
    for h in heights:
        step = 2 * h + 2
        for d in range(top, step - 1, -1):
            coeffs[d] -= coeffs[d - step]
        step = 2 * h
        for d in range(step, top + 1):
            coeffs[d] += coeffs[d - step]
    if coeffs != coeffs[::-1]:
        raise ArithmeticError(f"root heights {heights} give no palindromic polynomial")
    return tuple(coeffs)
