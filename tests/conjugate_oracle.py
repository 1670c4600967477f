"""Conjugate-point oracle for ``riemannian_index_conjugate``.

The geodesic circle of a coweight xi runs over t in [0, 1].  Along a
positive root alpha with pairing v = <alpha, xi>, the interior conjugate
times are the t in (0, 1) with |v| t an integer.  ``conjugate_times`` lists
them one by one, as Fractions, root by root; the Riemannian index counts
each with multiplicity 2 (the real root-space pair).  Each pairing comes
from the per-root ``pairing``, never from the generated pairing row
``abs_pairing_row`` that the runtime count reads.
"""

from fractions import Fraction

from liehofer.root_system import pairing


def conjugate_times(xi):
    """Interior conjugate times of the circle of xi: one list of Fractions
    per positive root, in root order."""
    out = []
    for root in xi.system.positive_roots:
        v = abs(pairing(root, xi))
        out.append([Fraction(j, v) for j in range(1, v)])
    return out


def riemannian_index_oracle(xi):
    """Twice the number of interior conjugate times, visited one by one."""
    return 2 * sum(1 for times in conjugate_times(xi) for _ in times)
