import itertools
from fractions import Fraction

import pytest

from conjugate_oracle import conjugate_times, riemannian_index_oracle
from liehofer.circle_index import (
    CircleSubgroup,
    WeightMultiset,
    index_equality_report,
    riemannian_index_conjugate,
    virtual_index,
    weights_at_max,
)
from liehofer.cli import MAX_COORD
from liehofer.errors import DegenerateSubgroup, InvalidWeights
from liehofer.loop_morse import bott_index
from liehofer.root_system import dominant_representative, from_label, pairing
from liehofer.verify import ALL_SYSTEMS
from weyl_oracle import weyl_orbit


def gamma(label, coords):
    return CircleSubgroup(from_label(label).coweight(coords))


def test_weights_examples():
    assert weights_at_max(gamma("A1", [2])).weights == (-2,)
    assert weights_at_max(gamma("A1", [1])).weights == (-1,)
    assert weights_at_max(gamma("A2", [1, 1])).weights == (-2, -1, -1)


def test_weights_zero_coweight_rejected():
    with pytest.raises(DegenerateSubgroup):
        weights_at_max(gamma("A2", [0, 0]))
    with pytest.raises(DegenerateSubgroup):
        riemannian_index_conjugate(gamma("A2", [0, 0]))


def test_weights_count_regular():
    for label in ("A2", "B2", "G2", "A3"):
        system = from_label(label)
        g = CircleSubgroup(system.coweight(range(1, system.rank + 1)))
        assert g.regular
        assert len(weights_at_max(g)) == len(system.positive_roots)


def test_weights_singular_drops_zero_pairings():
    g = gamma("A2", [1, 0])
    assert not g.regular
    # root alpha_2 pairs to zero and is omitted
    assert weights_at_max(g).weights == (-1, -1)


def test_virtual_index_examples():
    assert virtual_index(WeightMultiset((-2,))) == 2
    assert virtual_index(WeightMultiset((-1, -1, -1))) == 0
    assert virtual_index(WeightMultiset((-2, -1, -1))) == 2


def test_virtual_index_zero_iff_all_minus_one():
    assert virtual_index(WeightMultiset((-1,) * 5)) == 0
    assert virtual_index(WeightMultiset((-1, -1, -3))) == 4


def test_invalid_weights_rejected():
    with pytest.raises(InvalidWeights):
        WeightMultiset((-1, 0))
    with pytest.raises(InvalidWeights):
        WeightMultiset((2,))


def test_empty_weight_multiset_accepted():
    w = WeightMultiset(())
    assert len(w) == 0 and virtual_index(w) == 0


def test_invalid_weights_message_lists_exactly_the_bad_entries():
    with pytest.raises(InvalidWeights) as info:
        WeightMultiset((-3, 0, -1, 2))
    assert str(info.value) == "nonnegative weights present: [0, 2]"


def box(system, side):
    points = itertools.product(range(-side, side + 1), repeat=system.rank)
    return [system.coweight(c) for c in points]


@pytest.mark.parametrize("label", ALL_SYSTEMS)
def test_is_dominant_matches_coordinatewise_test(label):
    for xi in box(from_label(label), 2):
        assert xi.is_dominant == all(c >= 0 for c in xi.coords), xi


@pytest.mark.parametrize("label", ALL_SYSTEMS)
def test_index_sums_match_generator_forms(label):
    system = from_label(label)
    for xi in box(system, 3):
        dom = dominant_representative(xi)
        row = [pairing(root, dom) for root in system.positive_roots]
        assert bott_index(dom) == sum(2 * (p - 1) for p in row if p > 0), xi
        if not xi.is_zero:
            w = weights_at_max(CircleSubgroup(xi))
            assert virtual_index(w) == sum(2 * (-k - 1) for k in w.weights), xi


def test_conjugate_times_listed():
    assert conjugate_times(from_label("A1").coweight([-4])) == [
        [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    ]
    # the A2 roots alpha_2, alpha_1, alpha_1 + alpha_2 pair to -2, 2, 0
    half = [Fraction(1, 2)]
    assert conjugate_times(from_label("A2").coweight([2, -2])) == [half, half, []]


@pytest.mark.parametrize("label", ALL_SYSTEMS)
def test_riemannian_index_matches_conjugate_oracle(label):
    # every nonzero box-3 coweight, singular ones included
    for xi in box(from_label(label), 3):
        if not xi.is_zero:
            count = riemannian_index_conjugate(CircleSubgroup(xi))
            assert count == riemannian_index_oracle(xi), xi


def test_riemannian_index_at_the_coordinate_bound():
    a1 = from_label("A1")
    for c in (-MAX_COORD, MAX_COORD):
        xi = a1.coweight([c])
        assert riemannian_index_conjugate(CircleSubgroup(xi)) == 2 * (10**5 - 1)
        assert riemannian_index_oracle(xi) == 2 * (10**5 - 1)


def test_riemannian_examples():
    assert riemannian_index_conjugate(gamma("A1", [2])) == 2
    assert riemannian_index_conjugate(gamma("A1", [4])) == 6
    assert riemannian_index_conjugate(gamma("A2", [1, 1])) == 2


def test_report_examples():
    r = index_equality_report(gamma("A1", [2]))
    assert r.agree and r.virtual_index == r.riemannian_index == 2
    r = index_equality_report(gamma("A1", [1]))
    assert r.agree and r.virtual_index == 0
    assert index_equality_report(gamma("B2", [1, 1])).agree


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_index_equality_sweep(label):
    system = from_label(label)
    box = 2 if system.rank >= 3 else 4
    for coords in itertools.product(range(-box, box + 1), repeat=system.rank):
        g = CircleSubgroup(system.coweight(coords))
        if g.xi.is_zero:
            continue
        r = index_equality_report(g)
        assert r.agree
        assert r.virtual_index % 2 == 0


def test_virtual_index_weyl_invariant():
    system = from_label("B2")
    xi = system.coweight([2, 1])
    base = virtual_index(weights_at_max(CircleSubgroup(xi)))
    for w in weyl_orbit(xi):
        assert virtual_index(weights_at_max(CircleSubgroup(w))) == base


def test_virtual_index_monotone_under_scaling():
    for label, coords in (("A2", (1, 1)), ("G2", (1, 2)), ("B3", (1, 1, 1))):
        system = from_label(label)
        values = [
            virtual_index(
                weights_at_max(CircleSubgroup(system.coweight([m * c for c in coords])))
            )
            for m in range(1, 5)
        ]
        assert values == sorted(values)
