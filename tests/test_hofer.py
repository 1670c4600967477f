import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import liehofer.hofer as hofer
from liehofer.errors import DegenerateOrbit, DimensionError
from liehofer.hofer import (
    NormReport,
    _invariants,
    _length,
    _norm,
    check_norm_inequality,
    hofer_length_circle,
    orbit_maximum,
    positive_norm,
)
from liehofer.root_system import from_label, inner
from liehofer.su2_loops import apply_tangent, discrete_lplus, energy_hessian, geodesic_loop
from liehofer.verify import ALL_SYSTEMS
from bourbaki_oracle import cartan_matrix, coweight_gram
from sphere_oracle import max_length_measure, normalization_integral_s2, sphere_moment_max
from weyl_oracle import reflect_coweight, weyl_orbit


def test_positive_norm_at_generator():
    a1 = from_label("A1")
    xi = a1.coweight([2])
    m, report = positive_norm(xi, xi)
    assert m == 2
    assert report.value_squared == 2


def test_positive_norm_reflected_eta():
    a1 = from_label("A1")
    m, report = positive_norm(a1.coweight([-2]), a1.coweight([2]))
    assert m == 2
    assert report.value_squared == 2


def test_positive_norm_zero_eta():
    a2 = from_label("A2")
    m, report = positive_norm(a2.coweight([0, 0]), a2.coweight([1, 1]))
    assert m == 0
    assert report.value_squared == 0


def test_positive_norm_degenerate_orbit():
    a2 = from_label("A2")
    with pytest.raises(DegenerateOrbit):
        positive_norm(a2.coweight([1, 0]), a2.coweight([0, 0]))


@pytest.mark.parametrize("labels", [("A2", "B2"), ("B2", "A2"), ("A1", "A2"), ("A2", "A1")])
def test_mismatched_systems_rejected(labels):
    # same rank and different rank: neither may pair coordinates across systems
    eta_system, xi_system = (from_label(label) for label in labels)
    eta = eta_system.coweight(range(1, eta_system.rank + 1))
    xi = xi_system.coweight(range(2, xi_system.rank + 2))
    for fn in (orbit_maximum, positive_norm, check_norm_inequality):
        with pytest.raises(DimensionError, match="^coweights belong to different root systems$"):
            fn(eta, xi)


def test_orbit_maximum_nonnegative():
    # orbit-sum-zero forces the orbit maximum of a linear function >= 0
    for label in ("A2", "B2", "G2", "B3"):
        system = from_label(label)
        xi = system.coweight(range(1, system.rank + 1))
        for coords in itertools.product((-2, -1, 0, 1, 2), repeat=system.rank):
            assert orbit_maximum(system.coweight(coords), xi) >= 0


def test_orbit_maximum_matches_brute_force():
    # oracle: maximize <w, eta> by direct enumeration with exact inners
    b2 = from_label("B2")
    xi = b2.coweight([2, 1])
    for coords in itertools.product((-2, 0, 1, 3), repeat=2):
        eta = b2.coweight(coords)
        brute = max(inner(w, eta) for w in weyl_orbit(xi))
        assert orbit_maximum(eta, xi) == brute


def test_norm_inequality_examples():
    a1 = from_label("A1")
    xi = a1.coweight([2])
    assert check_norm_inequality(xi, xi)
    m, _ = positive_norm(xi, xi)
    assert m * m == inner(xi, xi) * inner(xi, xi)  # equality case
    a2 = from_label("A2")
    assert check_norm_inequality(a2.coweight([1, 0]), a2.coweight([1, 1]))
    assert check_norm_inequality(a2.coweight([0, 0]), a2.coweight([1, 1]))


def test_norm_inequality_exhaustive_rank2():
    for label in ("A2", "B2", "C2", "G2"):
        system = from_label(label)
        xis = [system.coweight(c) for c in itertools.product(range(-3, 4), repeat=2)]
        for eta in xis:
            for xi in xis:
                if xi.is_zero:
                    continue
                assert check_norm_inequality(eta, xi)


def test_positive_norm_weyl_invariant_in_eta():
    g2 = from_label("G2")
    xi = g2.coweight([1, 1])
    eta = g2.coweight([2, -1])
    m0 = orbit_maximum(eta, xi)
    for w in weyl_orbit(eta):
        assert orbit_maximum(w, xi) == m0


def test_hofer_length_examples():
    a1 = from_label("A1")
    assert hofer_length_circle(a1.coweight([2])).value_squared == 2
    assert hofer_length_circle(a1.coweight([4])).value_squared == 8
    a2 = from_label("A2")
    assert hofer_length_circle(a2.coweight([1, 1])).value_squared == 2


def test_hofer_length_quadratic_scaling():
    b3 = from_label("B3")
    xi = b3.coweight([1, 2, 1])
    base = hofer_length_circle(xi).value_squared
    for m in range(2, 5):
        scaled = b3.coweight([m * c for c in xi.coords])
        assert hofer_length_circle(scaled).value_squared == m * m * base


def test_hofer_length_zero_rejected():
    with pytest.raises(DegenerateOrbit):
        hofer_length_circle(from_label("A1").coweight([0]))


ZERO_ORBIT = "orbit of the zero coweight is a point"


def _zero_xi_calls(system):
    """The four Hofer entry points, each called with the zero coweight of
    ``system`` as xi."""
    zero = system.coweight([0] * system.rank)
    eta = system.coweight(range(1, system.rank + 1))
    return (
        lambda: orbit_maximum(eta, zero),
        lambda: positive_norm(eta, zero),
        lambda: check_norm_inequality(eta, zero),
        lambda: hofer_length_circle(zero),
    )


@pytest.mark.parametrize("label", ALL_SYSTEMS)
def test_zero_xi_rejected_cold_and_memoized(label):
    # the zero test reads the memo record of xi: it must hold on a cold memo
    # and again once the zero record is there, when the call is a memo hit;
    # the zero coweight never enters the length memo or the norm memo
    calls = _zero_xi_calls(from_label(label))
    _length.cache_clear()
    _norm.cache_clear()
    for call in calls:
        _invariants.cache_clear()
        with pytest.raises(DegenerateOrbit, match=f"^{ZERO_ORBIT}$"):
            call()
    assert _invariants.cache_info().currsize == 1
    for call in calls:
        hits = _invariants.cache_info().hits
        with pytest.raises(DegenerateOrbit, match=f"^{ZERO_ORBIT}$"):
            call()
        assert _invariants.cache_info().hits == hits + 1
    assert _length.cache_info().currsize == 0
    assert _norm.cache_info().misses == 0  # not even looked up


@pytest.mark.parametrize("label", ALL_SYSTEMS)
def test_length_reports_are_built_only_where_read(label, monkeypatch):
    # on a cold memo the norms build no length report of their own: the
    # orbit maximum and the inequality none, the positive norm its one
    # result and none for a second pair with the same numerators (m, x),
    # and the Hofer length one per distinct xi, none on a repeat
    built = []

    def counted(*args):
        built.append(args)
        return NormReport(*args)

    monkeypatch.setattr(hofer, "NormReport", counted)
    system = from_label(label)
    eta = system.coweight([(-1) ** i * (i + 2) for i in range(system.rank)])
    # s_0 eta has other coordinates than eta (its first is nonzero), and the
    # same dominant point, so the same m against every xi
    twin = system.coweight(reflect_coweight(system, eta.coords, 0))
    assert twin.coords != eta.coords
    distinct = dict.fromkeys([*_probes(system.rank), (-2,) * system.rank])
    xis = [system.coweight(p) for p in distinct]

    def cold():
        _invariants.cache_clear()
        _length.cache_clear()
        _norm.cache_clear()
        built.clear()

    for xi in xis:
        for fn in (orbit_maximum, check_norm_inequality):
            cold()
            fn(eta, xi)
            assert built == [], fn
        cold()
        _, report = positive_norm(eta, xi)
        assert built == [(report.value_squared, report.value_float)]
        assert positive_norm(twin, xi)[1] is report
        assert len(built) == 1
    cold()
    reports = [hofer_length_circle(xi) for xi in xis]
    assert len(built) == len(xis)
    assert [hofer_length_circle(xi) for xi in xis] == reports
    assert len(built) == len(xis)


@pytest.mark.parametrize("label", ALL_SYSTEMS)
def test_zero_eta_gives_zero_maximum(label):
    system = from_label(label)
    zero = system.coweight([0] * system.rank)
    xi = system.coweight(range(1, system.rank + 1))
    for _ in range(2):  # cold, then from the memo
        assert orbit_maximum(zero, xi) == 0
        m, report = positive_norm(zero, xi)
        assert m == 0 and report.value_squared == 0 and report.value_float == 0.0
        assert check_norm_inequality(zero, xi) is True


@pytest.mark.parametrize("labels", [("A2", "B2"), ("B2", "A2"), ("A1", "F4"), ("F4", "A1")])
def test_zero_xi_of_another_system_is_a_zero_orbit(labels):
    # the zero test still comes before the different-system test
    eta_system, xi_system = (from_label(label) for label in labels)
    eta = eta_system.coweight(range(1, eta_system.rank + 1))
    zero = xi_system.coweight([0] * xi_system.rank)
    for fn in (orbit_maximum, positive_norm, check_norm_inequality):
        for _ in range(2):
            with pytest.raises(DegenerateOrbit, match=f"^{ZERO_ORBIT}$"):
                fn(eta, zero)


def test_norm_report_float_consistency():
    report = hofer_length_circle(from_label("G2").coweight([2, 1]))
    assert abs(report.value_float ** 2 - float(report.value_squared)) < 1e-12 * float(
        report.value_squared
    )


def test_max_length_measure():
    assert max_length_measure([math.sqrt(2)]) == math.sqrt(2)
    assert max_length_measure([0.3, 1.41421, 0.9]) == 1.41421
    with pytest.raises(ValueError, match="empty family"):
        max_length_measure([])


def test_max_length_measure_on_unstable_family():
    # sample L+ along the energy-unstable directions at the m=1 geodesic:
    # the maximum over the family sits at the geodesic itself
    n = 48
    base = geodesic_loop(1, n)
    evals, evecs = np.linalg.eigh(energy_hessian(1, n))
    directions = evecs[:, evals < -1e-6 * np.abs(evals).max()]
    lengths = [discrete_lplus(base)]
    for v in directions.T:
        for t in (-0.2, -0.1, 0.1, 0.2):
            lengths.append(discrete_lplus(apply_tangent(base, t * v)))
    assert max_length_measure(lengths) == lengths[0]


def test_normalization_integral():
    for eta in ((0, 0, 1), (1, 1, 1), (0, 0, 2), (0.3, -1.2, 0.5)):
        size = float(np.linalg.norm(eta))
        assert abs(normalization_integral_s2(eta)) < 1e-9 * size


def test_normalization_integral_zero_eta_rejected():
    with pytest.raises(DegenerateOrbit):
        normalization_integral_s2((0, 0, 0))


def test_sphere_moment_max_is_height():
    assert abs(sphere_moment_max((0, 0, 2)) - 2.0) < 5e-3


@pytest.mark.parametrize("label", ALL_SYSTEMS)
def test_positive_norm_scaling_laws(label):
    # eta -> k eta scales m by k (and the squared norm by k^2);
    # xi -> k xi scales m by k and leaves the norm unchanged
    system = from_label(label)
    rng = random.Random(f"norm-scaling-{label}")
    for _ in range(20):
        eta = system.coweight([rng.randint(-4, 4) for _ in range(system.rank)])
        xi = system.coweight([rng.randint(-4, 4) for _ in range(system.rank)])
        if xi.is_zero:
            continue
        m, report = positive_norm(eta, xi)
        k = rng.randint(2, 5)
        m_eta, report_eta = positive_norm(system.coweight([k * c for c in eta.coords]), xi)
        assert m_eta == k * m
        assert report_eta.value_squared == k * k * report.value_squared
        m_xi, report_xi = positive_norm(eta, system.coweight([k * c for c in xi.coords]))
        assert m_xi == k * m
        assert report_xi.value_squared == report.value_squared


SRC = str(Path(__file__).resolve().parent.parent / "src")
# |W| from the Bourbaki plates: (n+1)! for A_n, 2^n n! for B_n and C_n
WEYL_ORDERS = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "B3": 48, "B4": 384,
               "C2": 8, "C3": 48, "C4": 384, "D4": 192, "G2": 12, "F4": 1152}


@cache
def _bourbaki_weyl(label):
    """(W, G, den) from the Bourbaki oracle alone: every Weyl group element
    as an integer matrix on coweight coordinates, closed under the simple
    reflections s_j: c_i -> c_i - c_ij c_j, and the coweight Gram matrix as
    the integer matrix G over den."""
    cartan = [[int(x) for x in row] for row in cartan_matrix(label)]
    rank = len(cartan)
    gens = []
    for j in range(rank):
        s_j = np.eye(rank, dtype=np.int64)
        for i in range(rank):
            s_j[i, j] -= cartan[i][j]
        gens.append(s_j)
    identity = np.eye(rank, dtype=np.int64)
    seen = {identity.tobytes(): identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for w in frontier:
            for s_j in gens:
                v = s_j @ w
                if v.tobytes() not in seen:
                    seen[v.tobytes()] = v
                    fresh.append(v)
        frontier = fresh
    gram = coweight_gram(label)
    den = math.lcm(*(x.denominator for row in gram for x in row))
    gram_num = np.array([[int(x * den) for x in row] for row in gram], dtype=np.int64)
    return np.stack(list(seen.values())), gram_num, den


def _oracle_pair(label, eta_c, xi_c):
    """(m, <xi, xi>, <eta, eta>): m maximizes <w xi, eta> over every Weyl
    group element w, all from the Bourbaki oracle."""
    group, gram, den = _bourbaki_weyl(label)
    eta, xi = np.array(eta_c, dtype=np.int64), np.array(xi_c, dtype=np.int64)
    m = int((group @ xi @ gram @ eta).max())
    return Fraction(m, den), Fraction(int(xi @ gram @ xi), den), Fraction(int(eta @ gram @ eta), den)


def _check_against_oracle(label, eta_c, xi_c):
    system = from_label(label)
    eta, xi = system.coweight(eta_c), system.coweight(xi_c)
    m, xixi, etaeta = _oracle_pair(label, eta_c, xi_c)
    assert orbit_maximum(eta, xi) == m, (label, eta_c, xi_c)
    m_norm, report = positive_norm(eta, xi)
    assert m_norm == m
    assert report.value_squared == m * m / xixi
    assert check_norm_inequality(eta, xi) is (m * m <= xixi * etaeta)
    assert hofer_length_circle(xi).value_squared == xixi


def _probes(rank):
    # regular, a fundamental coweight, and one with mixed signs
    return [(1,) * rank, (1,) + (0,) * (rank - 1), tuple((-1) ** i * (i + 1) for i in range(rank))]


@pytest.mark.parametrize("label", ALL_SYSTEMS)
def test_norms_match_bourbaki_oracle_on_box_2(label):
    # every box-2 coweight, as eta and as xi, against three fixed partners
    group, _, _ = _bourbaki_weyl(label)
    assert len(group) == WEYL_ORDERS[label]
    rank = from_label(label).rank
    for coords in itertools.product(range(-2, 3), repeat=rank):
        for probe in _probes(rank):
            _check_against_oracle(label, coords, probe)
            if any(coords):
                _check_against_oracle(label, probe, coords)


def test_memo_keys_on_the_system():
    # B2/C2 and A2/G2 share coordinates; interleaved calls must each get
    # their own system's values, never the other system's memo entry
    _invariants.cache_clear()
    grid = list(itertools.product(range(-2, 3), repeat=2))
    for coords in grid:
        for pair in (("B2", "C2"), ("A2", "G2")):
            for label in pair:
                if any(coords):
                    _check_against_oracle(label, (2, -1), coords)
                _check_against_oracle(label, coords, (1, 1))


def _norm_values(label, eta_c, xi_c):
    system = from_label(label)
    eta, xi = system.coweight(eta_c), system.coweight(xi_c)
    m, report = positive_norm(eta, xi)
    return [str(orbit_maximum(eta, xi)), str(m), str(report.value_squared),
            check_norm_inequality(eta, xi), str(hofer_length_circle(xi).value_squared)]


def test_memo_eviction_keeps_results():
    _invariants.cache_clear()
    maxsize = _invariants.cache_info().maxsize
    f4 = [c for c in itertools.product(range(-3, 4), repeat=4) if any(c)]
    assert len(f4) > maxsize
    first = [_norm_values("F4", c, c) for c in f4[:50]]
    for c in f4:
        _norm_values("F4", c, c)
    info = _invariants.cache_info()
    assert info.currsize == maxsize
    again = [_norm_values("F4", c, c) for c in f4[:50]]
    assert _invariants.cache_info().misses == info.misses + 50  # the first ones were evicted
    assert again == first
    for c in f4[:50]:
        _check_against_oracle("F4", c, c)


def test_memo_builds_one_record_per_coweight():
    # every coweight of two grids, as eta and as xi: each distinct
    # (system, coordinates) key is built once, and the oracle checks that
    # follow only read records that are already there
    _invariants.cache_clear()
    grids = {"B3": list(itertools.product(range(-2, 3), repeat=3)),
             "G2": list(itertools.product(range(-3, 4), repeat=2))}
    distinct = sum(map(len, grids.values()))
    assert distinct < _invariants.cache_info().maxsize
    for label, grid in grids.items():
        system = from_label(label)
        for xi_c in grid:
            if not any(xi_c):
                continue
            xi = system.coweight(xi_c)
            hofer_length_circle(xi)
            for eta_c in grid:
                eta = system.coweight(eta_c)
                positive_norm(eta, xi)
                check_norm_inequality(eta, xi)
    assert _invariants.cache_info().misses == distinct
    for label, grid in grids.items():
        for xi_c in grid[1::7]:
            if any(xi_c):
                for eta_c in grid[::5]:
                    _check_against_oracle(label, eta_c, xi_c)
    assert _invariants.cache_info().misses == distinct


def _expected_norm(eta, xi):
    """positive_norm's result from orbit_maximum and inner, neither of
    which reads the norm memo."""
    m = orbit_maximum(eta, xi)
    square = m * m / inner(xi, xi)
    return m, NormReport(square, math.sqrt(float(square)))


def test_norm_memo_keys_on_the_system():
    # pairs on A2 (gram_den 3) and B2 (gram_den 2) with the same numerators
    # (m, x) are two keys: interleaved, each gets its own system's report
    systems = [from_label(label) for label in ("A2", "B2")]
    assert [s.gram_den for s in systems] == [3, 2]
    grid = [c for c in itertools.product(range(-2, 3), repeat=2) if any(c)]
    by_key = []
    for system in systems:
        pairs = {}
        for xi_c, eta_c in itertools.product(grid, repeat=2):
            eta, xi = system.coweight(eta_c), system.coweight(xi_c)
            _, m, x, _ = hofer._orbit_maximum_numerator(eta, xi)
            if m:
                pairs.setdefault((m, x), (eta, xi))
        by_key.append(pairs)
    shared = sorted(by_key[0].keys() & by_key[1].keys())
    assert len(shared) >= 5
    _norm.cache_clear()
    for key in shared:
        results = []
        for pairs in by_key:
            eta, xi = pairs[key]
            results.append(positive_norm(eta, xi))
            assert results[-1] == _expected_norm(eta, xi), (key, eta, xi)
        assert results[0] != results[1], key
    assert _norm.cache_info().misses == 2 * len(shared)


def test_norm_memo_eviction_keeps_results():
    # more distinct (system, m, x) keys than the memo holds: the first keys
    # are evicted, built again on their next call, and equal to before
    f4 = from_label("F4")
    grid = [f4.coweight(c) for c in itertools.product(range(-2, 3), repeat=4) if any(c)]
    pairs = {}
    for xi in grid[::25]:
        for eta in grid:
            pairs.setdefault(hofer._orbit_maximum_numerator(eta, xi)[1:3], (eta, xi))
    pairs = list(pairs.values())
    maxsize = _norm.cache_info().maxsize
    assert len(pairs) > maxsize + 50
    _norm.cache_clear()
    first = [positive_norm(eta, xi) for eta, xi in pairs[:50]]
    for eta, xi in pairs:
        positive_norm(eta, xi)
    info = _norm.cache_info()
    assert info.currsize == maxsize
    again = [positive_norm(eta, xi) for eta, xi in pairs[:50]]
    assert _norm.cache_info().misses == info.misses + 50  # the first ones were evicted
    assert again == first == [_expected_norm(eta, xi) for eta, xi in pairs[:50]]


@pytest.mark.parametrize("label", ALL_SYSTEMS)
def test_length_and_self_norm_are_two_computations(label):
    # verify.check_seidel compares the length of xi with the positive norm
    # of xi on its own orbit: equal values, from two memos, in either order
    # of first call, so the check never compares one object with itself
    system = from_label(label)
    for first_norm in (True, False):
        _length.cache_clear()
        _norm.cache_clear()
        for p in _probes(system.rank):
            xi = system.coweight(p)
            if first_norm:
                m, report = positive_norm(xi, xi)
                length = hofer_length_circle(xi)
            else:
                length = hofer_length_circle(xi)
                m, report = positive_norm(xi, xi)
            assert length == report and length is not report, xi
            assert m == length.value_squared, xi


@pytest.mark.parametrize("label", ALL_SYSTEMS)
def test_value_float_is_the_sqrt_of_the_rounded_square(label):
    # bit for bit: the float of every report is math.sqrt of the double
    # nearest to its exact square, on every nonzero box-2 coweight and every
    # corner of the coordinate bound
    system = from_label(label)
    box = [system.coweight(c) for c in itertools.product(range(-2, 3), repeat=system.rank)]
    corners = [system.coweight(c) for c in itertools.product((-100000, 100000), repeat=system.rank)]
    partners = [system.coweight(p) for p in _probes(system.rank)] + corners
    for w in box + corners:
        if w.is_zero:
            continue
        report = hofer_length_circle(w)
        assert report.value_float == math.sqrt(float(report.value_squared)), w
        for p in partners:
            for eta, xi in ((w, p), (p, w)):
                _, report = positive_norm(eta, xi)
                assert report.value_float == math.sqrt(float(report.value_squared)), (eta, xi)


def _optimized_mode_cases():
    for label in ALL_SYSTEMS:
        rank = from_label(label).rank
        for coords in itertools.product(range(-1, 2), repeat=rank):
            if any(coords):
                for probe in _probes(rank):
                    yield label, probe, list(coords)


def test_python_O_gives_same_norms():
    cases = list(_optimized_mode_cases())
    script = (
        "import json, sys\n"
        "if __debug__:\n"
        "    sys.exit('assert statements are still active')\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_hofer import _norm_values\n"
        "cases = json.load(sys.stdin)\n"
        "print(json.dumps([_norm_values(l, tuple(e), tuple(x)) for l, e, x in cases]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, str(Path(__file__).resolve().parent)],
        input=json.dumps(cases), capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [_norm_values(l, tuple(e), tuple(x)) for l, e, x in cases]
