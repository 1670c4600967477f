import itertools
import random

import pytest

import liehofer.loop_morse as loop_morse
import liehofer.root_system as root_system
from conjugate_oracle import riemannian_index_oracle
from liehofer.circle_index import CircleSubgroup
from liehofer.errors import NotDominant
from liehofer.loop_morse import (
    MAX_CUTOFF,
    CriticalStratum,
    bott_index,
    enumerate_critical_strata,
    in_coroot_lattice,
    omega_g_series,
    stratum_poincare,
    transgression_series,
)
from liehofer.root_system import EXPONENTS, from_label, weyl_poincare
from liehofer.verify import ALL_SYSTEMS
from weyl_oracle import bfs_weyl_poincare, schoolbook_product, weyl_orbit

ALL_LABELS = ALL_SYSTEMS


def test_root_poincare_refuses_a_truncated_power_series():
    # (1 - t^6) / (1 - t^4) is no polynomial, and its truncation to degree
    # 2 is (1, 0, 0); with [2]_{t^2} / [1]_{t^2} in front, (1, 0, 1, 0, 0).
    # Neither is palindromic, so neither is the Poincare polynomial of a G/P
    for heights in ((2,), (1, 3)):
        with pytest.raises(ArithmeticError):
            root_system._root_poincare(heights)


def test_bott_index_examples():
    a1 = from_label("A1")
    assert bott_index(a1.coweight([2])) == 2
    assert bott_index(a1.coweight([0])) == 0
    a2 = from_label("A2")
    assert bott_index(a2.coweight([2, 0])) == 4


def test_bott_index_requires_dominant():
    with pytest.raises(NotDominant):
        bott_index(from_label("A2").coweight([1, -1]))


def test_bott_index_matches_conjugate_point_oracle():
    for label in ("A2", "B2", "G2", "B3"):
        system = from_label(label)
        for coords in itertools.product(range(4), repeat=system.rank):
            xi = system.coweight(coords)
            if xi.is_zero or not CircleSubgroup(xi).regular:
                continue
            assert bott_index(xi) == riemannian_index_oracle(xi)


def test_stratum_poincare_examples():
    a1 = from_label("A1")
    assert stratum_poincare(a1.coweight([2])) == (1, 0, 1)  # S^2
    a2 = from_label("A2")
    assert stratum_poincare(a2.coweight([1, 1])) == (1, 0, 2, 0, 2, 0, 1)  # full flag
    assert stratum_poincare(a2.coweight([1, 0])) == (1, 0, 1, 0, 1)  # CP^2


@pytest.mark.parametrize("label", ALL_LABELS)
def test_stratum_poincare_times_stabilizer_is_the_weyl_group(label):
    # the whole polynomial, not its value at t = 1: P(O_xi) W_xi(t) = W(t),
    # with both Weyl polynomials counted by BFS depth
    system = from_label(label)
    full = bfs_weyl_poincare(system, range(system.rank))
    for coords in itertools.product((0, 1), repeat=system.rank):
        walls = [i for i, c in enumerate(coords) if not c]
        stabilizer = bfs_weyl_poincare(system, walls)
        orbit = stratum_poincare(system.coweight(coords))
        assert schoolbook_product(orbit, stabilizer) == full


def test_stratum_poincare_at_one_is_orbit_size():
    for label in ("A2", "B2", "C3", "G2"):
        system = from_label(label)
        for coords in itertools.product(range(3), repeat=system.rank):
            xi = system.coweight(coords)
            assert sum(stratum_poincare(xi)) == len(weyl_orbit(xi))


def test_enumerate_strata_a1():
    a1 = from_label("A1")
    strata = enumerate_critical_strata(a1, 6)
    by_coords = {s.xi.coords: s.bott_index for s in strata}
    assert by_coords == {(0,): 0, (1,): 0, (2,): 2, (3,): 4, (4,): 6}


def test_enumerate_strata_a2_low_degree():
    a2 = from_label("A2")
    coords = {s.xi.coords for s in enumerate_critical_strata(a2, 2)}
    assert {(0, 0), (1, 0), (0, 1), (1, 1)} <= coords
    assert all(bott_index(a2.coweight(c)) <= 2 for c in coords)


def test_enumerate_strata_degree_zero_contains_origin():
    for label in ("A1", "B2", "G2"):
        system = from_label(label)
        coords = {s.xi.coords for s in enumerate_critical_strata(system, 0)}
        assert (0,) * system.rank in coords


def test_zero_stratum_is_constant_loop():
    b2 = from_label("B2")
    zero = next(
        s for s in enumerate_critical_strata(b2, 4) if s.xi.is_zero
    )
    assert zero.bott_index == 0
    assert stratum_poincare(zero.xi) == (1,)
    assert zero.in_coroot_lattice


def test_coroot_lattice_membership():
    a1 = from_label("A1")
    assert in_coroot_lattice(a1.coweight([2]))
    assert not in_coroot_lattice(a1.coweight([1]))
    a2 = from_label("A2")
    assert in_coroot_lattice(a2.coweight([1, 1]))
    assert not in_coroot_lattice(a2.coweight([1, 0]))
    g2 = from_label("G2")
    assert in_coroot_lattice(g2.coweight([1, 0]))  # G2 has trivial center


def test_omega_series_a1():
    a1 = from_label("A1")
    series = omega_g_series(a1, 10)
    assert series.coeffs == (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)


def test_omega_series_a2():
    a2 = from_label("A2")
    series = omega_g_series(a2, 8)
    assert series.coeffs == (1, 0, 1, 0, 2, 0, 2, 0, 3)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_omega_series_matches_oracle(label):
    system = from_label(label)
    cutoff = 12 if system.rank <= 3 else 10
    series = omega_g_series(system, cutoff, check=True)
    oracle = transgression_series(system, cutoff)
    assert series.coeffs == oracle.coeffs
    assert series.coeffs[0] == 1
    assert all(c >= 0 for c in series.coeffs)
    assert all(series.coeffs[d] == 0 for d in range(1, cutoff + 1, 2))


def test_exponents_table():
    assert EXPONENTS[("A", 3)] == (1, 2, 3)
    assert EXPONENTS[("B", 4)] == (1, 3, 5, 7)
    assert EXPONENTS[("D", 4)] == (1, 3, 3, 5)
    assert EXPONENTS[("G", 2)] == (1, 5)
    assert EXPONENTS[("F", 4)] == (1, 5, 7, 11)


def _box_strata(system, cutoff):
    """Oracle for the pruned walk: scan the whole box of coordinates up to
    the per-coordinate bound cutoff/2 + 1 and keep what is below the cutoff."""
    bound = cutoff // 2 + 1
    strata = []
    for coords in itertools.product(range(bound + 1), repeat=system.rank):
        xi = system.coweight(coords)
        idx = bott_index(xi)
        if idx <= cutoff:
            strata.append(CriticalStratum(xi, idx, in_coroot_lattice(xi)))
    strata.sort(key=lambda s: (s.bott_index, s.xi.coords))
    return strata


@pytest.mark.parametrize("cutoff", [0, 2, 8, 20])
@pytest.mark.parametrize("label", ALL_LABELS)
def test_walk_matches_box_scan(label, cutoff):
    system = from_label(label)
    walked, boxed = enumerate_critical_strata(system, cutoff), _box_strata(system, cutoff)
    assert walked == boxed  # coords, index, lattice flag and order


def test_bott_index_is_nondecreasing_in_each_coordinate():
    rng = random.Random(20081017)
    for _ in range(600):
        system = from_label(rng.choice(ALL_LABELS))
        coords = [rng.randrange(7) for _ in range(system.rank)]
        i = rng.randrange(system.rank)
        raised = list(coords)
        raised[i] += rng.randrange(1, 4)
        assert bott_index(system.coweight(coords)) <= bott_index(system.coweight(raised))


def test_walk_evaluates_few_candidates(monkeypatch):
    calls = []
    real = loop_morse.bott_index

    def counting(xi):
        calls.append(xi)
        return real(xi)

    monkeypatch.setattr(loop_morse, "bott_index", counting)
    for label in ALL_LABELS:
        enumerate_critical_strata(from_label(label), 20)
    assert 0 < len(calls) < 1000


def test_walk_builds_each_coweight_once(monkeypatch):
    # one coweight per Bott evaluation, plus the zero start; a walk that
    # builds the coordinates again at each leaf makes 390 at A4, cutoff 40.
    # Every build is counted, checked through RootSystem.coweight or direct
    coweights, botts = [], []
    real_init, real_bott = root_system.Coweight.__init__, loop_morse.bott_index

    def counting_init(self, system, coords):
        coweights.append(coords)
        real_init(self, system, coords)

    def counting_bott(xi):
        botts.append(xi)
        return real_bott(xi)

    monkeypatch.setattr(root_system.Coweight, "__init__", counting_init)
    monkeypatch.setattr(loop_morse, "bott_index", counting_bott)
    enumerate_critical_strata(from_label("A4"), 40)
    assert len(coweights) == len(botts) + 1 == 237


def test_stratum_is_a_slots_record_equal_and_hashed_by_value():
    # the walk builds one stratum per leaf (14,985 on A4 at cutoff 200): a
    # slots record, with the value equality, hash and repr of the frozen
    # record it replaced
    a2 = from_label("A2")
    stratum = enumerate_critical_strata(a2, 4)[-1]
    twin = CriticalStratum(a2.coweight(stratum.xi.coords), stratum.bott_index,
                           stratum.in_coroot_lattice)
    assert not hasattr(stratum, "__dict__")
    assert stratum is not twin and stratum == twin
    assert hash(stratum) == hash(twin) == hash(
        (stratum.xi, stratum.bott_index, stratum.in_coroot_lattice))
    assert stratum != CriticalStratum(twin.xi, twin.bott_index + 2, twin.in_coroot_lattice)
    assert repr(stratum) == (
        f"CriticalStratum(xi={stratum.xi!r}, bott_index={stratum.bott_index}, "
        f"in_coroot_lattice={stratum.in_coroot_lattice})"
    )


def test_series_builds_one_polynomial_per_coroot_stratum(monkeypatch):
    # the strata outside the coroot lattice enter no sum, so no polynomial
    # is built for them: 30 of the 154 strata at A4, cutoff 40
    system = from_label("A4")
    summed = [s.xi for s in enumerate_critical_strata(system, 40) if s.in_coroot_lattice]
    built = []
    real = loop_morse.stratum_poincare

    def counting(xi):
        built.append(xi)
        return real(xi)

    monkeypatch.setattr(loop_morse, "stratum_poincare", counting)
    omega_g_series(system, 40)
    assert built == summed and len(built) == 30


def test_cutoff_cap():
    system = from_label("A2")
    assert enumerate_critical_strata(system, MAX_CUTOFF)
    for fn in (enumerate_critical_strata, transgression_series, omega_g_series):
        # 10**30 must be rejected before a coefficient list of that length
        # is allocated (which would raise OverflowError or exhaust memory)
        for cutoff in (MAX_CUTOFF + 2, -2, 10**30):
            with pytest.raises(ValueError):
                fn(system, cutoff)
    for fn in (enumerate_critical_strata, omega_g_series):
        with pytest.raises(ValueError):
            fn(system, 7)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_memoized_weyl_poincare_matches_fresh_bfs(label):
    system = from_label(label)
    root_system._root_poincare.cache_clear()
    assert weyl_poincare(system) == bfs_weyl_poincare(system, range(system.rank))
    for size in range(system.rank + 1):
        for walls in itertools.combinations(range(system.rank), size):
            expected = bfs_weyl_poincare(system, walls)
            for given in (list(walls), set(walls), frozenset(walls)):
                assert weyl_poincare(system, given) == expected
    # the memo keys on root heights: a wall set given three ways, or two
    # wall sets with the same heights, build one polynomial
    info = root_system._root_poincare.cache_info()
    assert info.hits + info.misses == 1 + 3 * 2 ** system.rank
    assert info.misses <= 2 ** system.rank
    weyl_poincare(system, [0])
    assert root_system._root_poincare.cache_info().hits == info.hits + 1


def test_stratum_side_reads_no_literature_exponents(monkeypatch):
    # (1, 3, 9, 11) has the same sum as F4's (1, 5, 7, 11), so the root
    # count check at build time cannot tell them apart; only the oracle can
    f4 = from_label("F4")
    before = omega_g_series(f4, 20, check=False)
    monkeypatch.setitem(EXPONENTS, ("F", 4), (1, 3, 9, 11))
    root_system._root_poincare.cache_clear()
    assert omega_g_series(f4, 20, check=False) == before
    # the stratum side built its polynomials again, with the table patched
    assert root_system._root_poincare.cache_info().misses == 3
    with pytest.raises(ArithmeticError):
        omega_g_series(f4, 20, check=True)
