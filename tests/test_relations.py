"""relation: bit matrices, Cayley graphs, densities, translation, algebra."""

import random
import re
from fractions import Fraction

import pytest

from groupstab import (
    ArityMismatch,
    CarrierMismatch,
    CarrierSet,
    EmptyCarrier,
    GroupElement,
    PairOutsideCarrier,
    build_relation,
    cayley_graph,
    cyclic,
    density,
    dihedral,
    dump_relation,
    parse_relation,
    product,
    relation_algebra,
    translate_relation,
)
from groupstab.bits import full_mask, iter_bits, mask_of
from groupstab.errors import CrossGroupElement
from groupstab.groups import element_order, translation
from groupstab.patterns import ap_census, comparability_defect
from groupstab.relations import coordinate_action, decode_tuple, encode_tuple


def random_relation(group, rng, arity=(1, 1), proper_carriers=False):
    dom = CarrierSet.full(group, arity[0])
    cod = CarrierSet.full(group, arity[1])
    if proper_carriers:
        dom = CarrierSet(group, arity[0], mask_of(
            i for i in range(dom.universe) if rng.random() < 0.7) | 1)
        cod = CarrierSet(group, arity[1], mask_of(
            i for i in range(cod.universe) if rng.random() < 0.7) | 1)
    return build_relation(dom, cod, predicate=lambda x, y: rng.random() < 0.5)


def test_mixed_radix_roundtrip():
    g = cyclic(5)
    for idx in range(125):
        assert encode_tuple(g, decode_tuple(g, 3, idx)) == idx
    assert encode_tuple(g, (1, 2, 3)) == 1 * 25 + 2 * 5 + 3


def test_build_relation_from_pairs_and_predicate():
    z9 = cyclic(9)
    carrier = CarrierSet(z9, 1, 0b111)
    rel = build_relation(carrier, carrier, predicate=lambda x, y: x <= y)
    assert rel.edge_count == 6
    empty = build_relation(carrier, carrier, pairs=[])
    assert empty.edge_count == 0
    full = build_relation(carrier, carrier, predicate=lambda x, y: True)
    assert full.edge_count == carrier.size * carrier.size


def test_build_relation_rejects_pairs_outside_carrier():
    z4 = cyclic(4)
    carrier = CarrierSet(z4, 1, 0b0011)
    with pytest.raises(PairOutsideCarrier):
        build_relation(carrier, carrier, pairs=[(0, 3)])


def test_cayley_graph_directions():
    z3 = cyclic(3)
    diag = cayley_graph(z3, 0b001, "left")
    assert sorted(diag.pairs()) == [(0, 0), (1, 1), (2, 2)]
    z4 = cyclic(4)
    left = cayley_graph(z4, 0b0010, "left")
    assert sorted(left.pairs()) == [(g, (g + 1) % 4) for g in range(4)]
    right = cayley_graph(z4, 0b0010, "right")
    assert sorted(right.pairs()) == sorted(((h + 1) % 4, h) for h in range(4))


def test_cayley_density_is_exact_set_density():
    # exhaustive over all member sets for small orders; each row is a translate
    for g in [cyclic(5), product(cyclic(2), cyclic(3))]:
        for members in range(1 << g.order):
            rel = cayley_graph(g, members, "left")
            assert density(rel) == Fraction(members.bit_count(), g.order)
    rng = random.Random(5)
    for g in [cyclic(12), cyclic(31), dihedral(4), dihedral(8), product(cyclic(2), cyclic(4))]:
        for _ in range(10):
            members = mask_of(i for i in range(g.order) if rng.random() < 0.4)
            for direction in ("left", "right"):
                rel = cayley_graph(g, members, direction)
                assert density(rel) == Fraction(members.bit_count(), g.order)


def test_density_normalizations():
    z5 = cyclic(5)
    carrier = CarrierSet.full(z5, 1)
    full = build_relation(carrier, carrier, predicate=lambda x, y: True)
    assert density(full, "group_power") == 1
    assert density(full, "carrier") == 1
    sub = CarrierSet(z5, 1, 0)
    empty = build_relation(sub, sub, pairs=[])
    assert density(empty, "group_power") == 0
    with pytest.raises(EmptyCarrier):
        density(empty, "carrier")


def test_translate_identity_and_inverse():
    z4 = cyclic(4)
    rel = cayley_graph(z4, 0b0010)
    assert translate_relation(rel) == rel
    assert translate_relation(rel, domain_shift=z4.element(0), codomain_shift=z4.element(0)) == rel
    shifted = translate_relation(rel, codomain_shift=z4.element(1), codomain_side="right")
    assert sorted(shifted.pairs()) == [(g, g) for g in range(4)]
    back = translate_relation(shifted, codomain_shift=z4.element(z4.inv(1)), codomain_side="right")
    assert back == rel


def test_translate_arity_errors():
    z4 = cyclic(4)
    rng = random.Random(0)
    rel = random_relation(z4, rng, arity=(2, 1))
    with pytest.raises(Exception) as err:
        translate_relation(rel, domain_shift=z4.element(1))
    from groupstab import ArityMismatch
    assert isinstance(err.value, ArityMismatch)
    with pytest.raises(ArityMismatch):
        translate_relation(rel, domain_shift=(z4.element(1),))


def test_translate_checks_every_side_even_where_nothing_is_shifted():
    """A side value, and a side tuple's length, are checked whether the shift,
    or that coordinate's shift, is None or not."""
    z4 = cyclic(4)
    rel = random_relation(z4, random.Random(2), arity=(1, 2))
    for side in ("sideways", None, 0):
        with pytest.raises(ValueError, match=f"side must be 'left' or 'right', got {side!r}"):
            translate_relation(rel, domain_side=side)
    with pytest.raises(ValueError, match="got 'x'"):
        translate_relation(rel, codomain_shift=(None, z4.element(1)), codomain_side=("x", "left"))
    with pytest.raises(ArityMismatch, match="side tuple length 3 != arity 1"):
        translate_relation(rel, domain_side=("left", "right", "x"))
    with pytest.raises(ArityMismatch, match="side tuple length 1 != arity 2"):
        translate_relation(rel, codomain_side=("left",))
    assert translate_relation(rel, domain_side=("left",), codomain_side=("right", "left")) == rel


def test_translate_preserves_edge_count():
    rng = random.Random(11)
    d4 = dihedral(4)
    rel = random_relation(d4, rng, proper_carriers=True)
    for side in ("left", "right"):
        out = translate_relation(rel, domain_shift=d4.element(3), domain_side=side,
                                 codomain_shift=d4.element(5), codomain_side=side)
        assert out.edge_count == rel.edge_count
        inv = translate_relation(out, domain_shift=d4.element(d4.inv(3)), domain_side=side,
                                 codomain_shift=d4.element(d4.inv(5)), codomain_side=side)
        assert inv == rel


def test_translate_higher_arity_per_coordinate():
    z3 = cyclic(3)
    rng = random.Random(3)
    rel = random_relation(z3, rng, arity=(2, 1))
    shift = (None, z3.element(1))
    out = translate_relation(rel, domain_shift=shift, domain_side=("right", "right"))
    assert out.edge_count == rel.edge_count
    # acting on the last coordinate only: row x maps from x with last digit +1
    for x in range(9):
        expected = rel.rows[(x // 3) * 3 + (x + 1) % 3]
        assert out.rows[x] == expected


def test_relation_algebra_laws_random():
    rng = random.Random(99)
    for trial in range(100):
        g = cyclic(rng.randrange(2, 13))
        a = random_relation(g, rng)
        b = random_relation(g, rng)
        assert relation_algebra("symdiff", a, a).edge_count == 0
        comp = relation_algebra("complement_within_carriers", a)
        assert relation_algebra("and", a, comp).edge_count == 0
        assert relation_algebra("or", a, comp).edge_count == g.order ** 2
        # De Morgan
        lhs = relation_algebra("complement_within_carriers", relation_algebra("and", a, b))
        rhs = relation_algebra(
            "or",
            relation_algebra("complement_within_carriers", a),
            relation_algebra("complement_within_carriers", b),
        )
        assert lhs == rhs
        # diff = and-with-complement
        assert relation_algebra("diff", a, b) == relation_algebra("and", a, comp_b(b))


def comp_b(rel):
    return relation_algebra("complement_within_carriers", rel)


def test_relation_algebra_carrier_mismatch():
    z4 = cyclic(4)
    a = cayley_graph(z4, 0b0010)
    small = CarrierSet(z4, 1, 0b0111)
    b = build_relation(small, small, pairs=[(0, 1)])
    with pytest.raises(CarrierMismatch):
        relation_algebra("and", a, b)


def test_save_load_roundtrip_full_carriers():
    z6 = cyclic(6)
    rel = cayley_graph(z6, 0b001011)
    text = dump_relation(rel)
    lines = text.strip().splitlines()
    assert lines[0] == f"1 1 6 {z6.recipe_hash()}"
    assert len(lines) == 7  # header + 6 hex rows, no carrier trailers
    assert parse_relation(text, z6) == rel


def test_save_load_roundtrip_proper_carriers():
    z5 = cyclic(5)
    carrier = CarrierSet(z5, 1, 0b00111)
    rel = build_relation(carrier, carrier, predicate=lambda x, y: x <= y)
    text = dump_relation(rel)
    assert "X=" in text and "Y=" in text
    assert parse_relation(text, z5) == rel


def test_load_rejects_wrong_group():
    z6 = cyclic(6)
    text = dump_relation(cayley_graph(z6, 0b001011))
    with pytest.raises(ValueError):
        parse_relation(text, cyclic(7))


def test_member_indices_list_the_carrier_in_ascending_order():
    assert CarrierSet.full(cyclic(300), 2).member_indices() == list(range(90000))
    rng = random.Random(8)
    for width in (0, 1, 63, 64, 65, 1000):
        members = rng.getrandbits(width)
        carrier = CarrierSet(cyclic(1000), 1, members)
        assert carrier.member_indices() == [i for i in range(1000) if members >> i & 1]


@pytest.mark.parametrize("arity", [1, 2])
def test_member_indices_of_full_and_proper_carriers_match_the_bit_walk(arity):
    group = cyclic(5)
    universe = group.order ** arity
    rng = random.Random(arity)
    for members in (full_mask(universe), full_mask(universe) >> 1,
                    full_mask(universe) - 1, rng.getrandbits(universe), 0):
        carrier = CarrierSet(group, arity, members)
        assert carrier.member_indices() == list(iter_bits(members))


def test_coordinate_action_shapes():
    z3 = cyclic(3)
    perm = coordinate_action(z3, 2, 1, "right")  # act on last coordinate
    assert perm[0] == 1 and perm[2] == 0 and perm[3] == 4
    diag = coordinate_action(z3, 2, 1, "right", diagonal=True)
    assert diag[0] == encode_tuple(z3, (1, 1))
    assert sorted(perm) == list(range(9)) and sorted(diag) == list(range(9))


@pytest.mark.parametrize("arity", [0, -1])
@pytest.mark.parametrize("diagonal", [False, True])
def test_coordinate_action_refuses_an_arity_below_one(arity, diagonal):
    with pytest.raises(ValueError, match=f"arity must be >= 1, got {arity}"):
        coordinate_action(cyclic(3), arity, 1, diagonal=diagonal)


@pytest.mark.parametrize(
    "call",
    [
        lambda: coordinate_action(cyclic(5), 1, 7),
        lambda: coordinate_action(product(cyclic(2), cyclic(3)), 1, -1),
        lambda: element_order(cyclic(5), -1),
    ],
)
def test_raw_element_indices_are_checked(call):
    with pytest.raises(ValueError, match="out of range"):
        call()


def test_group_element_arguments_are_their_index_and_foreign_ones_are_refused():
    """element_order, coordinate_action, ap_census and comparability_defect
    read a GroupElement of their group as its index, and refuse one of another
    group, even an equal one built separately, with CrossGroupElement."""
    d4, z12 = dihedral(4), cyclic(12)
    for group, arity in ((d4, 1), (z12, 2), (product(cyclic(2), cyclic(6)), 2)):
        for a in (1, 3, group.order - 1):
            elem = group.element(a)
            assert element_order(group, elem) == element_order(group, a)
            for side in ("left", "right"):
                assert coordinate_action(group, arity, elem, side) == coordinate_action(
                    group, arity, a, side
                )
                assert comparability_defect(group, 0b1011, elem, side) == comparability_defect(
                    group, 0b1011, a, side
                )
            assert ap_census(group, 0b1011, 3, elem) == ap_census(group, 0b1011, 3, a)
    for foreign in (cyclic(12).element(3), d4.element(3)):
        for call in (
            lambda: element_order(z12, foreign),
            lambda: coordinate_action(z12, 1, foreign),
            lambda: coordinate_action(z12, 2, foreign, "left", diagonal=True),
            lambda: ap_census(z12, 0b11, 2, foreign),
            lambda: comparability_defect(z12, 0b11, foreign),
        ):
            with pytest.raises(CrossGroupElement, match="used with Z12"):
                call()


Z4 = cyclic(4)
# each entry point that takes an element index, with an index that it accepts
ELEMENT_CALLS = {
    "GroupElement": lambda h: GroupElement(Z4, h),
    "element": lambda h: Z4.element(h),
    "translation-left": lambda h: translation(Z4, h),
    "translation-right": lambda h: translation(Z4, 0, h),
    "element_order": lambda h: element_order(Z4, h),
    "coordinate_action": lambda h: coordinate_action(Z4, 2, h),
    "ap_census": lambda h: ap_census(Z4, 0b11, 3, h),
    "comparability_defect": lambda h: comparability_defect(Z4, 0b11, h),
}


@pytest.mark.parametrize("value", [1.5, 2.0, True, "1", None], ids=repr)
@pytest.mark.parametrize("call", ELEMENT_CALLS.values(), ids=ELEMENT_CALLS.keys())
def test_element_indices_that_are_not_ints_are_refused(call, value):
    """One check, _element_index, refuses an element index that is not an
    int, a bool among them, where a float or a bool was read as an index."""
    call(1)
    with pytest.raises(ValueError, match=f"^element index must be an int, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("side, index", [
    ("domain", -1), ("domain", 4), ("codomain", 7), ("codomain", -1),
    ("domain", 1.5), ("codomain", 1.5), ("domain", True), ("codomain", "1"),
], ids=repr)
def test_a_pair_index_outside_its_universe_is_refused(side, index):
    """has_pair refuses an index that is not an int of its side's universe,
    where -1 read the last row, 4 raised IndexError and 7 answered False."""
    rel = build_relation(CarrierSet.full(Z4, 1), CarrierSet.full(Z4, 1), pairs=[(3, 0)])
    assert rel.has_pair(3, 0) and not rel.has_pair(0, 3)
    pair = (index, 0) if side == "domain" else (0, index)
    with pytest.raises(ValueError, match=f"^pair index {re.escape(repr(index))} outside the {side} universe 0..3$"):
        rel.has_pair(*pair)


@pytest.mark.parametrize("side", ["domain", "codomain"])
@pytest.mark.parametrize("index", [True, 1.5, 2.0], ids=repr)
def test_build_relation_refuses_a_pair_index_that_is_not_an_int(side, index):
    """A bool was read as 0 or 1 and kept, and a float raised a raw TypeError.
    An int outside the carrier is still a PairOutsideCarrier."""
    full = CarrierSet.full(Z4, 1)
    pair = (index, 0) if side == "domain" else (0, index)
    with pytest.raises(ValueError, match=f"^{side} index must be an int, got {re.escape(repr(index))}$"):
        build_relation(full, full, pairs=[pair])
    with pytest.raises(PairOutsideCarrier):
        build_relation(full, full, pairs=[(4, 0)])


@pytest.mark.parametrize("index", [1.0, -1, True, 4], ids=repr)
def test_carrier_from_indices_refuses_an_index_outside_the_tuple_universe(index):
    """A float raised a raw TypeError and -1 "negative shift count"."""
    with pytest.raises(ValueError, match=f"^carrier members entry {re.escape(repr(index))} outside the tuple universe 0..3$"):
        CarrierSet.from_indices(Z4, 1, [0, index])


@pytest.mark.parametrize("arity, members, message", [
    (True, 3, "carrier arity must be an int, got True"),
    (1.5, 3, "carrier arity must be an int, got 1.5"),
    (1, 1.0, "carrier members must be an int, got 1.0"),
    (1, True, "carrier members must be an int, got True"),
    (1, -1, "carrier members is not a mask over the tuple universe 0..3"),
    (1, 16, "carrier members is not a mask over the tuple universe 0..3"),
    (2, 1 << 16, "carrier members is not a mask over the tuple universe 0..15"),
], ids=repr)
def test_a_carrier_checks_its_arity_and_its_member_mask(arity, members, message):
    """CarrierSet(Z4, True, 3) was a carrier of arity True, and a float
    arity or mask raised a raw TypeError."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CarrierSet(Z4, arity, members)


@pytest.mark.parametrize("call", [
    lambda mask: cayley_graph(Z4, mask),
    lambda mask: ap_census(Z4, mask, 2, 1),
    lambda mask: comparability_defect(Z4, mask, 1),
], ids=["cayley_graph", "ap_census", "comparability_defect"])
@pytest.mark.parametrize("mask, message", [
    (2.0, "member mask must be an int, got 2.0"),
    (True, "member mask must be an int, got True"),
    (-1, "member mask is not a mask over the element universe 0..3"),
    (1 << 4, "member mask is not a mask over the element universe 0..3"),
], ids=repr)
def test_an_element_member_mask_is_checked_once_for_every_caller(call, mask, message):
    """A float mask raised a raw TypeError, and a bool was read as {0}."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(mask)
