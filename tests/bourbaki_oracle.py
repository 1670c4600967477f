"""Root data of every supported system from the Bourbaki simple roots
(Bourbaki, *Lie* IV-VI, Planches I-IX), written in an orthonormal basis.

From the simple roots alone come the Cartan matrix
c_ij = 2(a_i, a_j)/(a_j, a_j) (Humphreys, *Introduction to Lie Algebras*
11.4), the simple-root Gram matrix with long roots at squared length 2,
and the coweight Gram matrix, its inverse by Fraction Gauss-Jordan.
Nothing here reads a ``RootSystem`` or calls the package, so these
oracles share no code with the Cartan rule, the symmetrizer or the
integer adjugate they check.
"""

from fractions import Fraction


def _unit(i, dim, scale=1):
    return tuple(scale if k == i else 0 for k in range(dim))


def _chain(i, dim):
    """e_i - e_(i+1)."""
    return tuple(a - b for a, b in zip(_unit(i, dim), _unit(i + 1, dim)))


def simple_roots(label):
    """Bourbaki simple roots of the system, in Bourbaki order."""
    family, n = label[0], int(label[1:])
    if family == "G":
        return ((1, -1, 0), (-2, 1, 1))
    if family == "F":
        h = Fraction(1, 2)
        return ((0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (h, -h, -h, -h))
    if family == "A":
        return tuple(_chain(i, n + 1) for i in range(n))
    last = {
        "B": _unit(n - 1, n),
        "C": _unit(n - 1, n, 2),
        "D": tuple(a + b for a, b in zip(_unit(n - 2, n), _unit(n - 1, n))),
    }[family]
    return tuple(_chain(i, n) for i in range(n - 1)) + (last,)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def cartan_matrix(label):
    """c_ij = 2(a_i, a_j)/(a_j, a_j) over the Bourbaki simple roots."""
    roots = simple_roots(label)
    return tuple(
        tuple(2 * Fraction(_dot(a, b)) / _dot(b, b) for b in roots) for a in roots
    )


def root_gram(label):
    """Gram matrix of the simple roots, long roots at squared length 2."""
    roots = simple_roots(label)
    long_sq = max(_dot(a, a) for a in roots)
    return tuple(
        tuple(2 * Fraction(_dot(a, b)) / long_sq for b in roots) for a in roots
    )


def coweight_gram(label):
    """Gram matrix of the fundamental coweights: the basis dual to the
    simple roots, so the inverse of ``root_gram``."""
    return invert(root_gram(label))


def invert(mat):
    """Exact inverse of a square matrix by Fraction Gauss-Jordan."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)
