"""Independent oracles for the integer core: the coweight Gram matrix, the
coroot-lattice test and the closed-form orbit maximum.

The Gram oracle comes from the Bourbaki simple roots (``bourbaki_oracle``)
through a Fraction Gauss-Jordan inverse, so it shares no code with the
Cartan rule, the symmetrizer or the integer adjugate the package uses.
Orbit maxima are checked against brute force over the enumerated Weyl
orbit with the oracle Gram, not ``inner``.
"""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
)

from bourbaki_oracle import coweight_gram, invert
from weyl_oracle import weyl_orbit

ALL_LABELS = verify.ALL_SYSTEMS


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
    # gram_num / gram_den is the inverse of the Bourbaki simple-root Gram
    system = from_label(label)
    assert system.gram_den > 0
    assert tuple(
        tuple(Fraction(n, system.gram_den) for n in row) for row in system.gram_num
    ) == coweight_gram(label)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_cartan_adjugate_over_determinant_is_the_inverse(label):
    system = from_label(label)
    inverse = invert(system.cartan)
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
    inverse = invert(system.cartan)
    for coords in itertools.product(range(-3, 4), repeat=system.rank):
        n = [sum(a * c for a, c in zip(row, coords)) for row in inverse]
        expected = all(x.denominator == 1 for x in n)
        assert in_coroot_lattice(system.coweight(coords)) == expected, coords


@pytest.mark.parametrize("label", ALL_LABELS)
def test_inner_matches_oracle_gram(label):
    system = from_label(label)
    gram = coweight_gram(label)
    for eta, xi in _seeded_pairs(system, 50):
        assert inner(eta, xi) == _oracle_inner(gram, eta.coords, xi.coords)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_orbit_maximum_matches_brute_force_over_the_orbit(label):
    system = from_label(label)
    gram = coweight_gram(label)
    for eta, xi in _seeded_pairs(system, 12):
        brute = max(_oracle_inner(gram, w.coords, eta.coords) for w in weyl_orbit(xi))
        assert orbit_maximum(eta, xi) == brute, (eta, xi)


def _wide_pairs(system):
    """The seeded pairs, pairs with coordinates up to +-8, and eta = 0."""
    rng = random.Random(f"wide-pairs-{system.label}")
    pairs = _seeded_pairs(system, 12)
    while len(pairs) < 24:
        eta = tuple(rng.randint(-8, 8) for _ in range(system.rank))
        xi = tuple(rng.randint(-8, 8) for _ in range(system.rank))
        if any(xi):
            pairs.append((system.coweight(eta), system.coweight(xi)))
    zero = system.coweight((0,) * system.rank)
    pairs += [(zero, xi) for _, xi in pairs[:3]]
    return pairs


@pytest.mark.parametrize("label", ALL_LABELS)
def test_norms_match_brute_force_over_the_orbit(label):
    system = from_label(label)
    gram = coweight_gram(label)
    for eta, xi in _wide_pairs(system):
        brute = max(_oracle_inner(gram, w.coords, eta.coords) for w in weyl_orbit(xi))
        xixi = _oracle_inner(gram, xi.coords, xi.coords)
        etaeta = _oracle_inner(gram, eta.coords, eta.coords)
        m, report = positive_norm(eta, xi)
        assert type(m) is Fraction and m == brute, (eta, xi)
        assert type(report.value_squared) is Fraction
        assert report.value_squared == brute * brute / xixi, (eta, xi)
        assert report.value_float == math.sqrt(brute * brute / xixi), (eta, xi)
        assert type(orbit_maximum(eta, xi)) is Fraction
        holds = check_norm_inequality(eta, xi)
        assert type(holds) is bool and holds == (brute * brute <= xixi * etaeta)


def test_norm_path_enumerates_no_weyl_orbit():
    _orbit_coords.cache_clear()
    for label in ALL_LABELS:
        system = from_label(label)
        for eta, xi in _seeded_pairs(system, 5):
            positive_norm(eta, xi)
            check_norm_inequality(eta, xi)
            hofer_length_circle(xi)
    verify.check_norm_inequality(["A2", "F4"], 2)
    info = _orbit_coords.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_exact_core_imports_no_numpy():
    # the exact modules need only the standard library
    script = (
        "import sys\n"
        "import liehofer.root_system, liehofer.circle_index, liehofer.hofer\n"
        "import liehofer.loop_morse, liehofer.quantum_cp1\n"
        "sys.exit('numpy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr or "numpy was imported"


def test_root_systems_are_canonical_and_compare_by_identity():
    b3 = build_root_system("B", 3)
    assert from_label("B3") is b3
    assert b3 != from_label("C3")
    assert b3.coweight([1, 0, 2]) == from_label("B3").coweight([1, 0, 2])
    # a coweight compares and hashes by value: its system and coordinates
    xi, again = b3.coweight([1, 0, 2]), b3.coweight((1, 0, 2))
    assert xi is not again and hash(xi) == hash(again)
    assert from_label("A2").coweight([1, 1]) != from_label("G2").coweight([1, 1])
