"""patterns: censuses against brute force, AP sets, coverage, defects."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupstab import (
    ArityMismatch,
    ArityUnsupported,
    CarrierSet,
    NonAbelianGroup,
    ap_census,
    build_relation,
    builtin_catalogue,
    cayley_graph,
    comparability_defect,
    corner_census,
    coset_box_set,
    cyclic,
    dihedral,
    heisenberg,
    lshape_census,
    product,
    rect23_census,
    sidelength_coverage,
    square_census,
    subgroup,
    subgroups_up_to_index,
)
from groupstab.bits import mask_of
from groupstab.relations import decode_tuple, encode_tuple

import oracles
from oracles import (
    brute_corner_counts,
    brute_lshape_counts,
    brute_rect23_counts,
    brute_square_counts,
    pair_set,
)

from test_relations import random_relation


def full_relation(group):
    carrier = CarrierSet.full(group, 1)
    return build_relation(carrier, carrier, predicate=lambda x, y: True)


def test_square_census_full_and_empty():
    z5 = cyclic(5)
    full = full_relation(z5)
    census = square_census(full)
    assert census.total_count == 125
    assert census.count_by_sidelength == [25] * 5
    carrier = CarrierSet.full(z5, 1)
    empty = build_relation(carrier, carrier, pairs=[])
    assert square_census(empty).total_count == 0


def test_square_census_coset_cayley_z4():
    z4 = cyclic(4)
    rel = cayley_graph(z4, mask_of([0, 2]))
    census = square_census(rel)
    assert census.total_count == 16  # |S| * |{0,2}|
    assert census.count_by_sidelength == [8, 0, 8, 0]
    assert census.count_by_sidelength[0] == rel.edge_count


def test_square_identity_slice_is_edge_count():
    rng = random.Random(4)
    for _ in range(10):
        rel = random_relation(cyclic(rng.randrange(3, 10)), rng)
        census = square_census(rel)
        assert census.count_by_sidelength[0] == rel.edge_count
        assert census.total_count == sum(census.count_by_sidelength)
        assert census.nontrivial_count == census.total_count - rel.edge_count


def oracle_triples(brute, relation, *args):
    """The triples (a, b, g) that an oracle counts, in (g, a, b) order.

    Runs the oracle with its per-g counter swapped for one that lists the
    triples, so the oracle's own point lists decide membership.
    """
    triples = []

    def listing(group, rel, points_of):
        pairs = pair_set(rel)
        for g in range(group.order):
            for a in rel.domain.member_indices():
                for b in rel.codomain.member_indices():
                    if all(p in pairs for p in points_of(a, b, g)):
                        triples.append((a, b, g))

    with mock.patch.object(oracles, "_census_counts", listing):
        brute(relation, *args)
    return triples


def census_calls(group):
    """(census(relation, include_witnesses, cap), oracle, oracle args) per census on G×G."""
    calls = [(square_census, brute_square_counts, ())]
    for form in ("naive", "bmz_left", "bmz_right"):
        calls.append((lambda rel, *w, f=form: corner_census(rel, f, *w), brute_corner_counts, (form,)))
    calls.append((rect23_census, brute_rect23_counts, ()))
    if group.is_abelian:
        calls.append((lshape_census, brute_lshape_counts, ()))
    return calls


def assert_censuses_match_oracles(rel, cap=10_000):
    for census, brute, args in census_calls(rel.group):
        counted = census(rel, True, cap)
        assert counted.count_by_sidelength == brute(rel, *args)
        assert counted.witnesses == oracle_triples(brute, rel, *args)[:cap]


def test_censuses_match_brute_force():
    rng = random.Random(2718)
    for trial in range(50):
        group = cyclic(rng.randrange(3, 13))
        assert_censuses_match_oracles(random_relation(group, rng))


def test_censuses_match_brute_force_nonabelian():
    rng = random.Random(553)
    for group in (dihedral(4), dihedral(6), heisenberg(2)):
        for _ in range(5):
            assert_censuses_match_oracles(random_relation(group, rng))


CENSUS_GROUPS = builtin_catalogue(12) + [dihedral(4), heisenberg(3)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_censuses_match_brute_force_property(data):
    group = data.draw(st.sampled_from(CENSUS_GROUPS), label="group")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    rel = random_relation(group, rng, proper_carriers=data.draw(st.booleans(), label="proper"))
    assert_censuses_match_oracles(rel, cap=data.draw(st.integers(1, 60), label="cap"))


@pytest.mark.parametrize("arity", [(1, 1), (2, 1), (2, 2)])
@pytest.mark.parametrize(
    "lift", [{}, {"coordinate": 0}, {"coordinate": 1}, {"coordinate": 5}, {"diagonal": True}]
)
def test_lifted_censuses_match_pointwise_definition(arity, lift):
    group = dihedral(3)
    mul = group.mul
    rel = random_relation(group, random.Random(31), arity=arity)

    def times(index, n, g):
        """The tuple with g multiplied on the right of its acted-on coordinates."""
        coords = list(decode_tuple(group, n, index))
        for c in range(n) if lift.get("diagonal") else [lift.get("coordinate", n - 1)]:
            coords[c] = mul(coords[c], g)
        return encode_tuple(group, coords)

    def pointwise(points):
        return [
            (a, b, g)
            for g in range(group.order)
            for a in rel.domain.member_indices()
            for b in rel.codomain.member_indices()
            if all(rel.has_pair(*p) for p in points(a, b, g))
        ]

    def check(census, triples):
        assert census.witnesses == triples
        assert census.count_by_sidelength == [
            sum(1 for t in triples if t[2] == g) for g in range(group.order)
        ]

    n, m = arity
    coordinate = lift.get("coordinate", 0)
    # The square's side acts on both carriers, the rectangle's on the domain only.
    if coordinate >= min(n, m):
        with pytest.raises(ArityMismatch):
            square_census(rel, True, **lift)
    else:
        check(square_census(rel, True, **lift), pointwise(lambda a, b, g: [
            (a, b), (times(a, n, g), b), (a, times(b, m, g)), (times(a, n, g), times(b, m, g)),
        ]))
    if m != 1:
        with pytest.raises(ArityUnsupported):
            rect23_census(rel, True, **lift)
    elif coordinate >= n:
        with pytest.raises(ArityMismatch):
            rect23_census(rel, True, **lift)
    else:
        check(rect23_census(rel, True, **lift), pointwise(lambda a, b, g: [
            (a, b), (times(a, n, g), b), (a, mul(b, g)), (times(a, n, g), mul(b, g)),
            (a, mul(g, mul(b, g))), (times(a, n, g), mul(g, mul(b, g))),
        ]))



def test_corner_counts_full_relation():
    z5 = cyclic(5)
    census = corner_census(full_relation(z5), "naive")
    assert census.total_count == 125
    assert census.nontrivial_count == 100  # q^2 (q-1)


def test_corner_diagonal_band_z5():
    z5 = cyclic(5)
    carrier = CarrierSet.full(z5, 1)
    rel = build_relation(carrier, carrier, predicate=lambda x, y: (y - x) % 5 in (0, 1))
    census = corner_census(rel, "naive")
    assert census.count_by_sidelength == brute_corner_counts(rel, "naive")
    assert census.total_count == 10
    assert census.nontrivial_count == 0


def test_rect23_full_and_band():
    z5 = cyclic(5)
    assert rect23_census(full_relation(z5)).total_count == 125
    rel = cayley_graph(z5, mask_of([0, 1, 2]))
    assert rect23_census(rel).count_by_sidelength == brute_rect23_counts(rel)
    assert rect23_census(rel).total_count == 15
    assert rect23_census(rel).nontrivial_count == 0


def test_rect23_higher_domain_arity_allowed():
    z3 = cyclic(3)
    rng = random.Random(8)
    rel = random_relation(z3, rng, arity=(2, 1))
    census = rect23_census(rel)
    assert census.total_count >= 0
    with pytest.raises(ArityUnsupported):
        rect23_census(random_relation(z3, rng, arity=(1, 2)))


def test_corner_requires_arity_one():
    z3 = cyclic(3)
    rng = random.Random(8)
    with pytest.raises(ArityUnsupported):
        corner_census(random_relation(z3, rng, arity=(2, 1)), "naive")


def test_lshape_census_examples():
    z3 = cyclic(3)
    carrier = CarrierSet.full(z3, 1)
    rel = build_relation(carrier, carrier, pairs=[(0, 0), (1, 0), (0, 1), (0, 2)])
    census = lshape_census(rel, include_witnesses=True)
    assert census.nontrivial_count == 1
    assert (0, 0, 1) in census.witnesses
    assert census.count_by_sidelength == brute_lshape_counts(rel)
    zq = cyclic(7)
    full = full_relation(zq)
    census = lshape_census(full)
    assert census.total_count == 343 and census.nontrivial_count == 294


def test_lshape_rejects_nonabelian():
    rng = random.Random(1)
    with pytest.raises(NonAbelianGroup):
        lshape_census(random_relation(dihedral(4), rng))


def test_lshape_implies_naive_corner_bound():
    rng = random.Random(6)
    for _ in range(20):
        group = cyclic(rng.randrange(3, 9))
        rel = random_relation(group, rng)
        corners = corner_census(rel, "naive").nontrivial_count
        lshapes = lshape_census(rel).nontrivial_count
        assert corners >= lshapes


def test_square_witnesses_verify_and_cap():
    z4 = cyclic(4)
    rel = cayley_graph(z4, mask_of([0, 2]))
    census = square_census(rel, include_witnesses=True, witness_cap=5)
    assert len(census.witnesses) == 5
    mul = z4.mul
    for a, b, g in census.witnesses:
        for p in [(a, b), (mul(a, g), b), (a, mul(b, g)), (mul(a, g), mul(b, g))]:
            assert rel.has_pair(*p)


def test_square_diagonal_action_mode():
    z3 = cyclic(3)
    rng = random.Random(15)
    rel = random_relation(z3, rng, arity=(2, 2))
    census_last = square_census(rel)
    census_diag = square_census(rel, diagonal=True)
    # both modes agree on the identity slice and count valid patterns
    assert census_last.count_by_sidelength[0] == rel.edge_count
    assert census_diag.count_by_sidelength[0] == rel.edge_count
    mul = z3.mul
    # spot-check the diagonal action against a direct definition
    from groupstab.relations import decode_tuple, encode_tuple
    for g in range(3):
        expected = 0
        for x in range(9):
            for y in range(9):
                if not rel.has_pair(x, y):
                    continue
                xg = encode_tuple(z3, [mul(c, g) for c in decode_tuple(z3, 2, x)])
                yg = encode_tuple(z3, [mul(c, g) for c in decode_tuple(z3, 2, y)])
                if rel.has_pair(xg, y) and rel.has_pair(x, yg) and rel.has_pair(xg, yg):
                    expected += 1
        assert census_diag.count_by_sidelength[g] == expected


def test_ap_census_examples():
    z10 = cyclic(10)
    members, count = ap_census(z10, mask_of([0, 1, 2, 3]), 3, 1)
    assert members == mask_of([0, 1]) and count == 2
    # whole group is closed under any step
    g = dihedral(4)
    full = (1 << g.order) - 1
    for h in range(g.order):
        members, count = ap_census(g, full, 4, h)
        assert members == full
    # subgroup with step inside vs outside
    z12 = cyclic(12)
    h = mask_of([0, 4, 8])
    assert ap_census(z12, h, 2, 4)[0] == h
    assert ap_census(z12, h, 2, 1)[0] == 0


def test_ap_census_length_one_returns_the_set():
    z6 = cyclic(6)
    a = mask_of([1, 3])
    assert ap_census(z6, a, 1, 5)[0] == a


def test_ap_census_and_defect_reject_inputs_outside_the_group():
    z4 = cyclic(4)
    with pytest.raises(ValueError):
        ap_census(z4, 0b100011, 2, 1)  # bit 5 is not an element of Z4
    with pytest.raises(ValueError):
        ap_census(z4, 0b11, 2, 4)
    with pytest.raises(ValueError):
        comparability_defect(z4, 1 << 5, 1)
    with pytest.raises(ValueError):
        comparability_defect(z4, 0b11, -1, "right")
    with pytest.raises(ValueError):
        comparability_defect(z4, 0b11, cyclic(5).element(1))


def test_sidelength_coverage():
    z4 = cyclic(4)
    full = full_relation(z4)
    sub = subgroup(z4, [0, 2])
    report = sidelength_coverage(full, sub)
    assert report.missing_fraction == 0
    carrier = CarrierSet.full(z4, 1)
    empty = build_relation(carrier, carrier, pairs=[])
    assert sidelength_coverage(empty, sub).missing_fraction == 1
    boxes = coset_box_set(z4, sub, [(0, 0), (1, 1)])
    report = sidelength_coverage(boxes, sub)
    assert report.missing_fraction == 0
    census = square_census(boxes)
    for g in sub.member_indices():
        assert bool(report.covered >> g & 1) == (census.count_by_sidelength[g] > 0)


def test_comparability_defect():
    z8 = cyclic(8)
    h = mask_of([0, 4])
    assert comparability_defect(z8, h, 4) == 0
    assert comparability_defect(z8, h, 1) == Fraction(2 * 2, 8)
    a = mask_of([0, 1, 4, 5])
    assert comparability_defect(z8, a, 4) == 0
    rng = random.Random(12)
    for g in [cyclic(9), dihedral(4)]:
        for _ in range(10):
            members = mask_of(i for i in range(g.order) if rng.random() < 0.5)
            assert comparability_defect(g, members, 0, "left") == 0
            assert comparability_defect(g, members, 0, "right") == 0


def test_comparability_defect_subgroup_cosets():
    g = product(cyclic(2), cyclic(4))
    for sub in subgroups_up_to_index(g, 8):
        h = sub.members
        for elem in range(g.order):
            defect = comparability_defect(g, h, elem, "left")
            if h >> elem & 1:
                assert defect == 0
            else:
                assert defect == Fraction(2 * sub.size, g.order)
