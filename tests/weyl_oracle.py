"""Breadth-first Weyl-group oracles, built on the dense ``reflect_coweight``.

``bfs_weyl_poincare`` checks the closed-form ``weyl_poincare``: it
enumerates the parabolic subgroup acting on a regular coweight and counts
elements by BFS depth, which is their length.  It reads no exponents and no
root heights, so it shares nothing with the closed form it checks.
``bfs_orbit`` checks the generated ``dominant_reduction``: it enumerates a
whole Weyl orbit and reads neither the sparse Cartan columns nor the
reduction order.
``weyl_orbit`` wraps it for the brute-force orbit maxima and orbit sizes.
``schoolbook_product`` multiplies two such polynomials, so that the tests
compare whole polynomials rather than their values at t = 1.
The reflection reads only the Cartan matrix, so no oracle here shares the
package's reflection code.
"""


def reflect_coweight(system, coords, i):
    """Simple reflection s_i on coweight coordinates."""
    c = list(coords)
    ci = coords[i]
    for j in range(system.rank):
        c[j] -= ci * system.cartan[j][i]
    return tuple(c)


def _levels(system, start, walls):
    """Breadth-first levels of the orbit of ``start`` under the simple
    reflections in ``walls``.  From a regular start, level l holds the
    images of the group elements of length l."""
    seen = {start}
    frontier = [start]
    while frontier:
        yield frontier
        new = []
        for c in frontier:
            for i in walls:
                r = reflect_coweight(system, c, i)
                if r not in seen:
                    seen.add(r)
                    new.append(r)
        frontier = new


def bfs_weyl_poincare(system, walls):
    """Coefficients of sum_w t^(2 l(w)) over the subgroup generated by the
    simple reflections in ``walls``."""
    start = (1,) * system.rank
    lengths = [len(level) for level in _levels(system, start, sorted(walls))]
    coeffs = [0] * (2 * (len(lengths) - 1) + 1)
    for ell, count in enumerate(lengths):
        coeffs[2 * ell] = count
    return tuple(coeffs)


def bfs_orbit(system, coords):
    """Weyl orbit of coweight coordinates, as a set of tuples."""
    levels = _levels(system, tuple(coords), range(system.rank))
    return {c for level in levels for c in level}


def weyl_orbit(xi):
    """Weyl orbit of a coweight, as a frozenset of coweights."""
    return frozenset(map(xi.system.coweight, bfs_orbit(xi.system, xi.coords)))


def schoolbook_product(p, q):
    """Product of two coefficient tuples (index = degree), term by term."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)
