import builtins
import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from liehofer.circle_index import CircleSubgroup
from liehofer.cli import MAX_COORD
from liehofer.errors import DimensionError, InputError, UnsupportedSystem
from liehofer.hofer import _invariants, _norm, check_norm_inequality, hofer_length_circle
from liehofer.loop_morse import omega_g_series
from liehofer.root_system import (
    EXPONENTS,
    build_root_system,
    dominant_coords,
    dominant_representative,
    from_label,
    inner,
    pairing,
    pairings,
    weyl_poincare,
)
from liehofer.verify import ALL_SYSTEMS, box_coweights, check_index_equality

from bourbaki_oracle import cartan_matrix, coweight_gram
from weyl_oracle import (
    bfs_orbit, bfs_weyl_poincare, reflect_coweight, schoolbook_product, weyl_orbit,
)

ALL_LABELS = ALL_SYSTEMS

POSITIVE_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10,
    "B2": 4, "B3": 9, "B4": 16,
    "C2": 4, "C3": 9, "C4": 16,
    "D4": 12, "G2": 6, "F4": 24,
}


@pytest.mark.parametrize("label", ALL_LABELS)
def test_positive_root_counts(label):
    system = from_label(label)
    assert len(system.positive_roots) == POSITIVE_COUNTS[label]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_cartan_shape(label):
    system = from_label(label)
    for i, row in enumerate(system.cartan):
        assert row[i] == 2
        assert all(x <= 0 for j, x in enumerate(row) if j != i)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_cartan_matches_bourbaki_simple_roots(label):
    # c_ij = 2(alpha_i, alpha_j)/(alpha_j, alpha_j) in the Bourbaki numbering
    assert from_label(label).cartan == cartan_matrix(label)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_reflection_closure(label):
    # s_i maps every positive root other than alpha_i to a positive root
    system = from_label(label)
    simple = {tuple(int(i == j) for j in range(system.rank)): i for i in range(system.rank)}
    positive = set(system.positive_roots)
    for beta in system.positive_roots:
        for i in range(system.rank):
            if simple.get(beta) == i:
                continue
            pair = sum(beta[j] * system.cartan[j][i] for j in range(system.rank))
            image = list(beta)
            image[i] -= pair
            assert tuple(image) in positive


@pytest.mark.parametrize("label", ALL_LABELS)
def test_gram_positive_definite_exact(label):
    # exact leading principal minors of the coweight gram matrix, whose
    # integer numerator is gram_num over the positive gram_den
    system = from_label(label)
    assert system.gram_den > 0
    g = [list(row) for row in system.gram_num]
    for k in range(1, system.rank + 1):
        sub = [row[:k] for row in g[:k]]
        assert _det(sub) > 0
    for i in range(system.rank):
        for j in range(system.rank):
            assert g[i][j] == g[j][i]


def _det(mat):
    n = len(mat)
    if n == 1:
        return Fraction(mat[0][0])
    return sum(
        (-1) ** j * Fraction(mat[0][j]) * _det([row[:j] + row[j + 1:] for row in mat[1:]])
        for j in range(n)
    )


def test_unsupported_systems():
    with pytest.raises(UnsupportedSystem):
        build_root_system("E", 6)
    with pytest.raises(UnsupportedSystem):
        build_root_system("A", 5)
    with pytest.raises(UnsupportedSystem):
        build_root_system("B", 1)
    with pytest.raises(UnsupportedSystem):
        from_label("Z9")


def test_pairing_examples():
    a1 = from_label("A1")
    assert pairing((1,), a1.coweight([2])) == 2
    a2 = from_label("A2")
    assert pairing((1, 1), a2.coweight([1, 1])) == 2
    assert pairing((1, 1), a2.coweight([0, 0])) == 0


def test_coweight_takes_integer_coordinates_only():
    a2 = from_label("A2")
    xi = a2.coweight(np.array([3, -1], dtype=np.int64))
    assert xi.coords == (3, -1) and all(type(c) is int for c in xi.coords)
    assert a2.coweight(range(2)).coords == (0, 1)
    # no coordinate is truncated: [0.5, 0.4] would become the zero coweight;
    # the integer check comes before the count, so [0.5, 1, 2] fails it
    for coords in ([1.7, -0.2], [0.5, 0.4], [1, 2.0], [np.float64(1), 0], ["1", 0],
                   [1, Fraction(2)], [0.5, 1, 2], (c for c in (1, 2.5))):
        with pytest.raises(InputError) as info:
            a2.coweight(coords)
        assert str(info.value).startswith("coweight coordinates must be integers, got ")
    with pytest.raises(InputError) as info:
        a2.coweight([0, "x" * 5000])
    clipped = "'" + "x" * 59 + "... (5000 characters)"
    assert str(info.value) == f"coweight coordinates must be integers, got {clipped}"


def test_coweight_count_message():
    a2 = from_label("A2")
    for coords in ([1, 2, 3], [1]):
        with pytest.raises(DimensionError) as info:
            a2.coweight(coords)
        assert str(info.value) == f"expected 2 coordinates, got {len(coords)}"


def test_pairing_dimension_mismatch():
    a2 = from_label("A2")
    with pytest.raises(DimensionError):
        pairing((1,), a2.coweight([1, 1]))


def test_pairing_integrality_over_all_roots():
    for label in ALL_LABELS:
        system = from_label(label)
        xi = system.coweight(range(1, system.rank + 1))
        for alpha in system.positive_roots:
            assert isinstance(pairing(alpha, xi), int)


def test_inner_examples():
    a1 = from_label("A1")
    assert inner(a1.coweight([2]), a1.coweight([2])) == 2
    assert inner(a1.coweight([0]), a1.coweight([3])) == 0
    a2 = from_label("A2")
    assert inner(a2.coweight([1, 0]), a2.coweight([0, 1])) == Fraction(1, 3)


def test_inner_against_euclidean_a2():
    # independent Euclidean realization: simple roots of squared length 2
    # at 120 degrees
    alpha1 = np.array([math.sqrt(2), 0.0])
    alpha2 = math.sqrt(2) * np.array([-0.5, math.sqrt(3) / 2])
    basis = np.array([alpha1, alpha2])
    # fundamental coweights solve <alpha_i, w_j> = delta_ij
    fund = np.linalg.inv(basis @ basis.T) @ basis
    a2 = from_label("A2")
    for ci in ((1, 0), (0, 1), (1, 1), (2, -1)):
        for cj in ((1, 0), (0, 1), (1, 1), (2, -1)):
            vi = ci[0] * fund[0] + ci[1] * fund[1]
            vj = cj[0] * fund[0] + cj[1] * fund[1]
            exact = inner(a2.coweight(ci), a2.coweight(cj))
            assert abs(float(exact) - vi @ vj) < 1e-12


def test_inner_cross_system_rejected():
    with pytest.raises(DimensionError):
        inner(from_label("A2").coweight([1, 0]), from_label("B2").coweight([1, 0]))


def test_weyl_orbit_examples():
    a1 = from_label("A1")
    orbit = weyl_orbit(a1.coweight([2]))
    assert {w.coords for w in orbit} == {(2,), (-2,)}
    a2 = from_label("A2")
    assert len(weyl_orbit(a2.coweight([1, 1]))) == 6
    assert len(weyl_orbit(a2.coweight([1, 0]))) == 3


@pytest.mark.parametrize("label", ALL_LABELS)
def test_orbit_size_divides_group_order(label):
    system = from_label(label)
    for coords in [(1,) * system.rank, (1, 0) + (0,) * (system.rank - 2) if system.rank >= 2 else (2,)]:
        xi = system.coweight(coords)
        if xi.is_zero:
            continue
        n = len(weyl_orbit(xi))
        assert sum(weyl_poincare(system)) % n == 0


@pytest.mark.parametrize("label", ALL_LABELS)
def test_orbit_sum_zero(label):
    system = from_label(label)
    xi = system.coweight(range(1, system.rank + 1))
    total = [0] * system.rank
    for w in weyl_orbit(xi):
        total = [a + b for a, b in zip(total, w.coords)]
    assert all(x == 0 for x in total)


def test_dominant_representative():
    a2 = from_label("A2")
    for coords in [(-1, -1), (2, -3), (0, -2), (1, 1)]:
        dom = dominant_representative(a2.coweight(coords))
        assert dom.is_dominant
        assert dom in weyl_orbit(a2.coweight(coords))


def test_reflection_is_involution():
    b2 = from_label("B2")
    coords = (3, -2)
    for i in range(2):
        once = reflect_coweight(b2, coords, i)
        assert reflect_coweight(b2, once, i) == coords


def test_weyl_poincare_examples():
    a2 = from_label("A2")
    assert weyl_poincare(a2) == (1, 0, 2, 0, 2, 0, 1)
    assert weyl_poincare(a2, frozenset()) == (1,)
    a1 = from_label("A1")
    assert weyl_poincare(a1) == (1, 0, 1)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_weyl_poincare_structure(label):
    system = from_label(label)
    poly = weyl_poincare(system)
    assert poly[0] == 1
    assert sum(poly) == sum(bfs_weyl_poincare(system, range(system.rank)))
    assert poly == poly[::-1]  # palindromic
    assert all(poly[d] == 0 for d in range(1, len(poly), 2))
    # parabolic generated by the first simple reflection has order 2
    if system.rank >= 1:
        assert sum(weyl_poincare(system, frozenset([0]))) == 2


def _exponent_product(exponents):
    """prod [m + 1]_{t^2} = prod (1 + t^2 + ... + t^(2m)) over the exponents."""
    poly = (1,)
    for m in exponents:
        poly = schoolbook_product(poly, (1,) + (0, 1) * m)
    return poly


@pytest.mark.parametrize("label", ALL_LABELS)
def test_height_exponents_match_literature_table(label):
    # Macdonald's product over the root heights is prod [m + 1]_{t^2} over
    # the exponents that the heights determine (Kostant), so it equals the
    # product over the literature table exactly when the two agree
    system = from_label(label)
    assert weyl_poincare(system) == _exponent_product(EXPONENTS[(system.family, system.rank)])
    assert weyl_poincare(system, ()) == (1,)


def test_literature_exponent_check_tells_a_swap_that_keeps_the_sum():
    # the root count check at build time sees only the sum, 24 on F4
    f4 = from_label("F4")
    assert sum((1, 5, 8, 10)) == sum(EXPONENTS[("F", 4)])
    assert weyl_poincare(f4) != _exponent_product((1, 5, 8, 10))


def _seeded_coweights(system, rng, count=40, box=5):
    return [
        system.coweight([rng.randint(-box, box) for _ in range(system.rank)])
        for _ in range(count)
    ]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_inner_is_invariant_under_simple_reflections(label):
    system = from_label(label)
    rng = random.Random(f"inner-reflection-{label}")
    points = _seeded_coweights(system, rng)
    for x, y in zip(points, points[1:]):
        for i in range(system.rank):
            sx = system.coweight(reflect_coweight(system, x.coords, i))
            sy = system.coweight(reflect_coweight(system, y.coords, i))
            assert inner(sx, sy) == inner(x, y)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_dominant_coords_properties(label):
    system = from_label(label)
    rng = random.Random(f"dominant-coords-{label}")
    for xi in _seeded_coweights(system, rng, box=3):
        dom = dominant_coords(system, xi.coords)
        assert all(c >= 0 for c in dom)
        assert dominant_coords(system, dom) == dom
        assert system.coweight(dom) in weyl_orbit(xi)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_dominant_coords_is_the_orbit_dominant_point(label):
    system = from_label(label)
    rng = random.Random(f"dominant-orbit-{label}")
    points = [p.coords for p in _seeded_coweights(system, rng, box=3)]
    points += itertools.product(range(-1, 2), repeat=system.rank)
    for coords in points:
        dominant = [c for c in bfs_orbit(system, coords) if min(c) >= 0]
        assert dominant == [dominant_coords(system, coords)]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_dominant_coords_at_the_antidominant_corner(label):
    # w0 = -sigma for a diagram automorphism sigma, so the antidominant corner
    # -MAX_COORD (1, ..., 1) reduces to the dominant one in l(w0) reflections
    system = from_label(label)
    corner = (MAX_COORD,) * system.rank
    assert dominant_coords(system, tuple(-c for c in corner)) == corner


@pytest.mark.parametrize("label", ALL_LABELS)
def test_pairings_row_matches_per_root_pairing(label):
    # every box-3 coweight, the +-MAX_COORD corners and 40 seeded box-5
    # coweights, against the per-root pairing and an int64 matrix product
    system = from_label(label)
    rng = random.Random(f"pairings-{label}")
    points = [xi.coords for xi in _seeded_coweights(system, rng, box=5)]
    points += itertools.product(range(-3, 4), repeat=system.rank)
    points += itertools.product((-MAX_COORD, MAX_COORD), repeat=system.rank)
    products = np.array(points, dtype=np.int64) @ np.array(system.positive_roots).T
    for coords, product in zip(points, products.tolist()):
        xi = system.coweight(coords)
        row = pairings(xi)
        assert row == [pairing(alpha, xi) for alpha in system.positive_roots]
        assert row == product
        assert all(type(p) is int for p in row)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_generated_kernels_on_every_box3_coweight(label):
    # every nonzero box-3 coweight and the +-MAX_COORD corners, against the
    # per-root pairing, the dense reflections and the Bourbaki Gram matrix
    # of the oracles
    system = from_label(label)
    kernels = (system.pairing_row, system.dominant_reduction, system.line_zeros,
               system.gram_form)
    for kernel in kernels:
        # the generated text holds local names and integer literals only
        code = kernel.__code__
        assert code.co_names == ()
        assert {type(k) for k in code.co_consts} <= {int, bool, type(None)}
        assert all(re.fullmatch(r"c\d*|r\d+|g\d+", v) for v in code.co_varnames)
    gram = [[x * system.gram_den for x in row] for row in coweight_gram(label)]
    points = [xi.coords for xi in box_coweights(system, 3)]
    points += itertools.product((-MAX_COORD, MAX_COORD), repeat=system.rank)
    for coords in points:
        xi = system.coweight(coords)
        assert pairings(xi) == [pairing(alpha, xi) for alpha in system.positive_roots]
        g_row = tuple(sum(g * c for g, c in zip(row, coords)) for row in gram)
        assert system.gram_form(coords) == (g_row, sum(c * g for c, g in zip(coords, g_row)))
        dom = dominant_coords(system, coords)
        assert type(dom) is tuple and min(dom) >= 0
        assert dominant_coords(system, dom) == dom
        for i in range(system.rank):
            assert dominant_coords(system, reflect_coweight(system, coords, i)) == dom
    # every line through the box, zero coordinates in its head included
    for head in itertools.product(range(-3, 4), repeat=system.rank - 1):
        zeros = system.line_zeros(head)
        assert zeros is None or 0 in zeros
        for c in set(range(-3, 4)) | (zeros or set()):
            xi = system.coweight(head + (c,))
            singular = any(pairing(alpha, xi) == 0 for alpha in system.positive_roots)
            assert singular == (zeros is None or c in zeros), (head, c)


def test_hot_path_compiles_nothing(monkeypatch):
    # the kernels are compiled once, when a system is built; a sweep, a
    # series and the Hofer norms over built systems never reach exec or
    # compile
    for label in ALL_LABELS:
        from_label(label)

    def refuse(*args, **kwargs):
        raise AssertionError("compiled on the hot path")

    # undone before a failure leaves the block: pytest compiles to report it
    with monkeypatch.context() as patched:
        patched.setattr(builtins, "exec", refuse)
        patched.setattr(builtins, "compile", refuse)
        assert check_index_equality(ALL_LABELS, 2)[0]
        omega_g_series(from_label("F4"), 20)  # raises if it disagrees with the oracle
        _invariants.cache_clear()  # cold: every record is built by gram_form
        _norm.cache_clear()
        for label in ALL_LABELS:
            system = from_label(label)
            xi = system.coweight(range(1, system.rank + 1))
            assert hofer_length_circle(xi).value_squared == inner(xi, xi)
            assert check_norm_inequality(system.coweight([-1] * system.rank), xi)
        assert from_label("f4").pairing_row is from_label("F4").pairing_row


@pytest.mark.parametrize("label", ALL_LABELS)
def test_root_steps_walk_the_root_poset(label):
    system = from_label(label)
    rank, roots = system.rank, system.positive_roots
    # slots and the pairing row follow the sorted order of the roots
    assert roots == tuple(sorted(roots))
    assert len(system.root_steps) == len(roots)
    for k, (p, i) in enumerate(system.root_steps):
        # slot p holds root p - 1, so the parent comes before root k
        e_i = np.eye(rank, dtype=int)[i]
        parent = roots[p - 1] if p else np.zeros(rank, dtype=int)
        assert p <= k and tuple(parent + e_i) == roots[k]
    simple = {tuple(row) for row in np.eye(rank, dtype=int).tolist()}
    assert {r for r, (p, _) in zip(roots, system.root_steps) if p == 0} == simple


@pytest.mark.parametrize("label", ALL_LABELS)
def test_regular_agrees_with_box_mask(label):
    system = from_label(label)
    regular = {xi.coords for xi in box_coweights(system, 2, regular_only=True)}
    for xi in box_coweights(system, 2):
        assert CircleSubgroup(xi).regular == (xi.coords in regular)
