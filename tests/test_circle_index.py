import dataclasses
import itertools
from fractions import Fraction

import pytest

import liehofer.circle_index as circle_index
from conjugate_oracle import conjugate_times, riemannian_index_oracle
from liehofer.circle_index import (
    CircleSubgroup,
    IndexReport,
    WeightMultiset,
    index_equality_report,
    riemannian_index_conjugate,
    virtual_index,
    weights_at_max,
)
from liehofer.cli import MAX_COORD
from liehofer.errors import DegenerateSubgroup, InvalidWeights
from liehofer.hofer import NormReport
from liehofer.loop_morse import bott_index
from liehofer.root_system import dominant_representative, from_label, pairing
from liehofer.verify import ALL_SYSTEMS, box_coweights
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


@pytest.mark.parametrize("label", ALL_SYSTEMS)
def test_zero_coweight_rejected_on_every_system(label):
    zero = gamma(label, [0] * from_label(label).rank)
    for fn in (weights_at_max, riemannian_index_conjugate, index_equality_report):
        with pytest.raises(DegenerateSubgroup, match="^zero coweight generates no circle subgroup$"):
            fn(zero)


def test_per_point_records_are_slots_and_memo_values_frozen():
    # a sweep builds a Coweight and a CircleSubgroup per point: slots
    # records, cheap to build, equal and hashed by value
    g, again = gamma("F4", [1, 2, 3, 4]), gamma("F4", [1, 2, 3, 4])
    for record in (g, g.xi):
        assert not hasattr(record, "__dict__")
    assert g is not again and g == again and hash(g) == hash(again)
    # the records a memo hands to many callers stay frozen, are slots
    # records too (no per-instance dict), and compare, hash and print by
    # value
    report = index_equality_report(gamma("A2", [1, 1]))
    norm = NormReport(Fraction(2), 2 ** 0.5)
    for record, field in ((report, "agree"), (report.weights, "weights"), (norm, "value_float")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, None)
        assert not hasattr(record, "__dict__")
    twins = (IndexReport(WeightMultiset((-2, -1, -1)), 2, 2, True),
             NormReport(Fraction(2), 2 ** 0.5))
    for record, twin in zip((report, norm), twins):
        assert record is not twin and record == twin and hash(record) == hash(twin)
    assert report != IndexReport(WeightMultiset((-2, -1, -1)), 2, 4, False)
    assert repr(report) == (
        "IndexReport(weights=WeightMultiset(weights=(-2, -1, -1)), "
        "virtual_index=2, riemannian_index=2, agree=True)"
    )
    assert repr(norm) == "NormReport(value_squared=Fraction(2, 1), value_float=1.4142135623730951)"


def test_weights_count_regular():
    for label in ("A2", "B2", "G2", "A3"):
        system = from_label(label)
        g = CircleSubgroup(system.coweight(range(1, system.rank + 1)))
        assert g.regular
        assert len(weights_at_max(g).weights) == len(system.positive_roots)


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
    assert w.weights == () and virtual_index(w) == 0


def test_invalid_weights_message_lists_exactly_the_bad_entries():
    with pytest.raises(InvalidWeights) as info:
        WeightMultiset((-3, 0, -1, 2))
    assert str(info.value) == "nonnegative weights present: [0, 2]"


def box(system, side):
    points = itertools.product(range(-side, side + 1), repeat=system.rank)
    return [system.coweight(c) for c in points]


@pytest.mark.parametrize("label", ALL_SYSTEMS)
def test_index_sums_match_generator_forms(label):
    # every box-3 coweight and the +-MAX_COORD corners, where the one-by-one
    # conjugate oracle would list up to 10^5 times per root
    system = from_label(label)
    corners = itertools.product((-MAX_COORD, MAX_COORD), repeat=system.rank)
    for xi in box(system, 3) + [system.coweight(c) for c in corners]:
        dom = dominant_representative(xi)
        row = [pairing(root, dom) for root in system.positive_roots]
        assert bott_index(dom) == sum(2 * (p - 1) for p in row if p > 0), xi
        if not xi.is_zero:
            g = CircleSubgroup(xi)
            w = weights_at_max(g)
            row = [pairing(root, xi) for root in system.positive_roots]
            assert w.weights == tuple(sorted(-abs(p) for p in row if p)), xi
            assert virtual_index(w) == sum(2 * (-k - 1) for k in w.weights), xi
            assert riemannian_index_conjugate(g) == sum(2 * (abs(p) - 1) for p in row if p), xi


@pytest.mark.parametrize("label", ALL_SYSTEMS)
def test_index_check_builds_two_pairing_rows_per_coweight(label):
    # the weights and the conjugate count each build their own row, so
    # neither sum shares an input with the other, and the Bott index reads
    # the face of dom xi from the system's bott_form, with no row at all.
    # The sweep runs on a copy of the system whose row kernel counts the
    # rows it builds
    system = from_label(label)
    rows = []

    def counting(coords):
        rows.append(coords)
        return system.abs_pairing_row(coords)

    counted = dataclasses.replace(system, abs_pairing_row=counting)
    for xi in box_coweights(counted, 2, regular_only=True):
        rows.clear()
        index_equality_report(CircleSubgroup(xi))
        bott_index(dominant_representative(xi))
        assert rows == [xi.coords, xi.coords], xi


def test_report_memo_reads_each_points_own_count(monkeypatch):
    # the memo keys on the orbit key and the point's own conjugate count: a
    # point whose count is off by one reports the disagreement although its
    # orbit key is cached, and the next point of the orbit gets the cached
    # report back
    first, patched, after = sorted(weyl_orbit(from_label("B2").coweight([2, 1])),
                                   key=lambda xi: xi.coords)[:3]
    report = index_equality_report(CircleSubgroup(first))
    assert report.agree
    counted = circle_index.riemannian_index_conjugate
    monkeypatch.setattr(circle_index, "riemannian_index_conjugate",
                        lambda g: counted(g) + (g.xi.coords == patched.coords))
    off = index_equality_report(CircleSubgroup(patched))
    assert not off.agree and off.weights == report.weights
    assert off.riemannian_index == report.riemannian_index + 1
    assert index_equality_report(CircleSubgroup(after)) is report


@pytest.mark.parametrize("label", ["B3", "F4"])
def test_memoized_report_equals_a_direct_build(label):
    # every nonzero box-2 point, singular ones included; the memo starts
    # empty, so the sweep takes both misses and hits
    circle_index._report.cache_clear()
    for xi in box(from_label(label), 2):
        if not xi.is_zero:
            g = CircleSubgroup(xi)
            w = weights_at_max(g)
            iv, ir = virtual_index(w), riemannian_index_conjugate(g)
            assert index_equality_report(g) == IndexReport(w, iv, ir, iv == ir), xi
    info = circle_index._report.cache_info()
    assert info.hits and info.misses


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
