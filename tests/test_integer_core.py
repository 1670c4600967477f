"""Independent oracles for the integer core: the coweight Gram matrix, the
coroot-lattice test and the closed-form orbit maximum.

The oracle is a Fraction Gauss-Jordan inverse; it shares no code with the
integer adjugate the package uses.  Orbit maxima are checked against brute
force over the enumerated Weyl orbit with the oracle Gram, not ``inner``.
"""

import itertools
import random
from fractions import Fraction

import pytest

from liehofer import verify
from liehofer.hofer import (
    check_norm_inequality,
    hofer_length_circle,
    orbit_maximum,
    positive_norm,
)
from liehofer.loop_morse import in_coroot_lattice
from liehofer.root_system import (
    _orbit_coords,
    build_root_system,
    from_label,
    inner,
    weyl_orbit,
)

ALL_LABELS = verify.ALL_SYSTEMS


def _invert(mat):
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


def _oracle_inner(gram, x, y):
    return sum(xi * gij * yj for xi, row in zip(x, gram) for gij, yj in zip(row, y))


def _seeded_pairs(system, count, box=3):
    rng = random.Random(f"orbit-maximum-{system.label}")
    pairs = []
    while len(pairs) < count:
        eta = tuple(rng.randint(-box, box) for _ in range(system.rank))
        xi = tuple(rng.randint(-box, box) for _ in range(system.rank))
        if any(xi):
            pairs.append((system.coweight(eta), system.coweight(xi)))
    return pairs


@pytest.mark.parametrize("label", ALL_LABELS)
def test_gram_is_inverse_of_root_gram(label):
    system = from_label(label)
    assert system.gram == _invert(system.root_gram)
    assert all(
        Fraction(n, system.gram_den) == g
        for nrow, grow in zip(system.gram_num, system.gram)
        for n, g in zip(nrow, grow)
    )


@pytest.mark.parametrize("label", ALL_LABELS)
def test_cartan_adjugate_over_determinant_is_the_inverse(label):
    system = from_label(label)
    inverse = _invert(system.cartan)
    assert system.cartan_det > 0
    assert all(
        Fraction(a, system.cartan_det) == x
        for arow, xrow in zip(system.cartan_adj, inverse)
        for a, x in zip(arow, xrow)
    )


@pytest.mark.parametrize("label", ALL_LABELS)
def test_in_coroot_lattice_matches_gauss_jordan_solve(label):
    # xi = C n for the coroot coordinates n, so xi is a coroot-lattice point
    # iff the solve n = C^-1 xi is integral
    system = from_label(label)
    inverse = _invert(system.cartan)
    for coords in itertools.product(range(-3, 4), repeat=system.rank):
        n = [sum(a * c for a, c in zip(row, coords)) for row in inverse]
        expected = all(x.denominator == 1 for x in n)
        assert in_coroot_lattice(system.coweight(coords)) == expected, coords


@pytest.mark.parametrize("label", ALL_LABELS)
def test_inner_matches_oracle_gram(label):
    system = from_label(label)
    gram = _invert(system.root_gram)
    for eta, xi in _seeded_pairs(system, 50):
        assert inner(eta, xi) == _oracle_inner(gram, eta.coords, xi.coords)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_orbit_maximum_matches_brute_force_over_the_orbit(label):
    system = from_label(label)
    gram = _invert(system.root_gram)
    for eta, xi in _seeded_pairs(system, 12):
        brute = max(_oracle_inner(gram, w.coords, eta.coords) for w in weyl_orbit(xi))
        assert orbit_maximum(eta, xi) == brute, (eta, xi)


def test_norm_path_enumerates_no_weyl_orbit():
    _orbit_coords.cache_clear()
    for label in ALL_LABELS:
        system = from_label(label)
        for eta, xi in _seeded_pairs(system, 5):
            positive_norm(eta, xi)
            check_norm_inequality(eta, xi)
            hofer_length_circle(xi)
    verify.check_norm_inequality(["A2", "F4"], 2, samples=20)
    info = _orbit_coords.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_root_systems_are_canonical_and_compare_by_identity():
    b3 = build_root_system("B", 3)
    assert from_label("B3") is b3
    assert b3 != from_label("C3")
    assert b3.coweight([1, 0, 2]) == from_label("B3").coweight([1, 0, 2])
