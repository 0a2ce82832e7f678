"""boxcover: greedy growth, error accounting, stability of box unions."""

import random
from fractions import Fraction

import pytest

from groupstab import (
    CarrierMismatch,
    CarrierSet,
    Relation,
    box_union_stability_check,
    build_relation,
    cover_error,
    coset_box_set,
    cyclic,
    greedy_box_cover,
    linear_order_relation,
    subgroup,
)
from groupstab.bits import full_mask, iter_bits, mask_of

from oracles import pair_set
from test_relations import random_relation


def rectangle_relation(group, xmask, ymask):
    carrier = CarrierSet.full(group, 1)
    rows = tuple(ymask if xmask >> x & 1 else 0 for x in range(group.order))
    return Relation(carrier, carrier, rows)


def test_single_rectangle_recovered_exactly():
    z6 = cyclic(6)
    rel = rectangle_relation(z6, mask_of([1, 3, 4]), mask_of([0, 2]))
    cover = greedy_box_cover(rel, Fraction(1, 100), 4)
    assert len(cover.boxes) == 1
    assert cover.boxes[0] == (mask_of([1, 3, 4]), mask_of([0, 2]))
    assert cover.symdiff_error == 0 and cover.overcount_error == 0


def test_empty_relation_gives_empty_cover():
    z5 = cyclic(5)
    carrier = CarrierSet.full(z5, 1)
    empty = build_relation(carrier, carrier, pairs=[])
    cover = greedy_box_cover(empty, Fraction(1, 2), 4)
    assert cover.boxes == () and cover.symdiff_error == 0


def test_two_disjoint_coset_boxes_in_z4():
    z4 = cyclic(4)
    sub = subgroup(z4, [0, 2])
    rel = coset_box_set(z4, sub, [(0, 0), (1, 1)])
    cover = greedy_box_cover(rel, Fraction(1, 1000), 4)
    assert cover.symdiff_error == 0
    assert len(cover.boxes) <= 4
    ell, count = box_union_stability_check(cover)
    assert count == 0


def test_greedy_errors_match_independent_recount():
    rng = random.Random(404)
    for _ in range(15):
        group = cyclic(rng.randrange(4, 9))
        rel = random_relation(group, rng)
        cover = greedy_box_cover(rel, Fraction(1, 1000), 3)
        symdiff, missed, over = cover_error(rel, cover)
        assert symdiff == cover.symdiff_error
        assert over == cover.overcount_error
        assert symdiff == missed + over
        assert symdiff >= over
        # purity 1: no overcount, boxes fully inside S
        assert over == 0
        for xb, yb in cover.boxes:
            for x in iter_bits(xb):
                assert rel.rows[x] & yb == yb


def test_greedy_stops_at_the_first_prefix_below_epsilon():
    # the loop's running error counts against a pairwise recount of every prefix
    rng = random.Random(505)
    for _ in range(1000):
        q = rng.randrange(3, 8)
        carrier = CarrierSet.full(cyclic(q), 1)
        density = rng.random()
        rows = tuple(mask_of(y for y in range(q) if rng.random() < density) for _ in range(q))
        rel = Relation(carrier, carrier, rows)
        eps = Fraction(rng.randrange(1, 60), 100)
        purity = rng.choice([1, Fraction(3, 4), Fraction(2, 3), Fraction(1, 2)])
        max_boxes = rng.randrange(1, 6)
        cover = greedy_box_cover(rel, eps, max_boxes, purity)
        target = pair_set(rel)
        denom = rel.group.order**2
        covered: set[tuple[int, int]] = set()
        errors = [Fraction(len(target), denom)]
        for xb, yb in cover.boxes:
            covered |= {(x, y) for x in iter_bits(xb) for y in iter_bits(yb)}
            errors.append(Fraction(len(target ^ covered), denom))
        assert all(e >= eps for e in errors[:-1])
        assert errors[-1] == cover.symdiff_error
        assert errors[-1] < eps or len(cover.boxes) == max_boxes or target <= covered


def test_greedy_union_is_the_boxes_inside_the_carriers():
    # the union skips Relation's check, so it must pass that check when re-built
    rng = random.Random(606)
    for _ in range(200):
        rel = random_relation(cyclic(rng.randrange(2, 6)), rng, (rng.randint(1, 2), rng.randint(1, 2)),
                              proper_carriers=True)
        purity = rng.choice([1, Fraction(2, 3), Fraction(1, 2)])
        cover = greedy_box_cover(rel, Fraction(1, 100), rng.randrange(0, 5), purity)
        union = cover.union
        assert union == Relation(rel.domain, rel.codomain, union.rows)
        rows = [0] * len(rel.rows)
        for xb, yb in cover.boxes:
            for x in iter_bits(xb):
                rows[x] |= yb
        assert union.rows == tuple(rows)


def test_greedy_error_non_increasing_over_budget():
    rng = random.Random(9)
    rel = random_relation(cyclic(8), rng)
    errors = []
    for budget in range(0, 8):
        cover = greedy_box_cover(rel, Fraction(1, 10**6), budget)
        errors.append(cover.symdiff_error)
    assert all(errors[i + 1] <= errors[i] for i in range(len(errors) - 1))


@pytest.mark.parametrize("max_boxes", [2.5, 3.0, True, False, "3", None])
def test_max_boxes_must_be_an_int(max_boxes):
    relation = linear_order_relation(cyclic(12), 10)
    with pytest.raises(ValueError, match=f"max_boxes must be an int, got {max_boxes!r}"):
        greedy_box_cover(relation, Fraction(1, 1000), max_boxes)


def test_purity_below_one_allows_noisy_boxes():
    z6 = cyclic(6)
    carrier = CarrierSet.full(z6, 1)
    # a 3x3 block with one hole: pure cover needs several boxes, 8/9 purity one
    block = [(x, y) for x in (0, 1, 2) for y in (0, 1, 2) if (x, y) != (1, 1)]
    rel = build_relation(carrier, carrier, pairs=block)
    pure = greedy_box_cover(rel, Fraction(1, 10**6), 8, purity=1)
    noisy = greedy_box_cover(rel, Fraction(1, 10**6), 8, purity=Fraction(8, 9))
    assert pure.overcount_error == 0
    assert len(noisy.boxes) < len(pure.boxes)
    assert noisy.boxes[0] == (mask_of([0, 1, 2]), mask_of([0, 1, 2]))
    assert noisy.overcount_error == Fraction(1, 36)


def test_box_union_stability_small_cases():
    z5 = cyclic(5)
    single = rectangle_relation(z5, mask_of([0, 1]), mask_of([2, 3]))
    cover = greedy_box_cover(single, Fraction(1, 100), 2)
    assert box_union_stability_check(cover) == (1, 0)
    carrier = CarrierSet.full(z5, 1)
    empty = build_relation(carrier, carrier, pairs=[])
    assert box_union_stability_check(greedy_box_cover(empty, Fraction(1, 2), 2)) == (0, 0)


def test_disjoint_row_support_rectangles_need_exactly_ell_boxes():
    rng = random.Random(17)
    for _ in range(10):
        q = 9
        group = cyclic(q)
        rows_pool = list(range(q))
        rng.shuffle(rows_pool)
        ell = rng.randrange(1, 4)
        cuts = sorted(rng.sample(range(1, q), ell - 1)) if ell > 1 else []
        pieces = []
        prev = 0
        for c in cuts + [q]:
            pieces.append(rows_pool[prev:c])
            prev = c
        rows = [0] * q
        for piece in pieces:
            ymask = mask_of(rng.sample(range(q), rng.randrange(1, q)))
            for x in piece:
                rows[x] = ymask
        carrier = CarrierSet.full(group, 1)
        rel = Relation(carrier, carrier, tuple(rows))
        cover = greedy_box_cover(rel, Fraction(1, 10**9), 8)
        assert cover.symdiff_error == 0
        distinct = {rows[x] for x in range(q) if rows[x]}
        # one greedy box per distinct row pattern (disjoint row supports)
        assert len(cover.boxes) == len(distinct)


def test_cover_error_rejects_mismatched_carriers():
    z4 = cyclic(4)
    rel = rectangle_relation(z4, 0b0011, 0b0011)
    cover = greedy_box_cover(rel, Fraction(1, 10), 2)
    other = rectangle_relation(cyclic(5), 0b0011, 0b0011)
    with pytest.raises(CarrierMismatch):
        cover_error(other, cover)
