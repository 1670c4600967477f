"""Breadth-first Weyl-group oracle for the closed-form ``weyl_poincare``.

It enumerates the parabolic subgroup acting on a regular coweight and
counts elements by BFS depth, which is their length.  It reads no
exponents and no root heights, so it shares nothing with the closed form
it checks.
"""

from liehofer.root_system import reflect_coweight


def bfs_weyl_poincare(system, walls):
    """Coefficients of sum_w t^(2 l(w)) over the subgroup generated by the
    simple reflections in ``walls``."""
    start = (1,) * system.rank
    seen = {start}
    frontier = [start]
    lengths = [1]  # count of elements per length, index = length
    while frontier:
        new = []
        for c in frontier:
            for i in sorted(walls):
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
