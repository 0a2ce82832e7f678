"""translations: x -> l·x·r and every bitset and relation translated by it,
against pointwise definitions on the oracle groups."""

import contextlib
import itertools
import math
import random
import re
import types
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupstab import (
    ArityMismatch,
    ap_census,
    builtin_catalogue,
    cayley_graph,
    comparability_defect,
    cyclic,
    dihedral,
    format_cayley_table,
    heisenberg,
    left_cosets,
    product,
    subgroup,
    translate_relation,
)
from groupstab import bits, patterns, relations
from groupstab.bits import _column_permuter, _digit_shift, iter_bits, mask_of, permute_bits
from groupstab.groups import parse_cayley_table, translation
from groupstab.relations import _lift_move, _matrix_mover, decode_tuple, encode_tuple

from oracles import brute_closure, ref_cyclic, ref_dihedral, ref_heisenberg, ref_product
from test_relations import random_relation


def reference(group):
    """The oracle group numbering its elements as the catalogue group does."""
    if group.factors:
        return ref_product(*(reference(f) for f in group.factors))
    if group.recipe == f"cyclic({group.order})":
        return ref_cyclic(group.order)
    return {"D": ref_dihedral, "H": ref_heisenberg}[group.name[0]](int(group.name[1:]))


PAIRS = [(g, reference(g)) for g in builtin_catalogue(16) + [dihedral(5), heisenberg(3)]]
# Groups without a digit layout: a product with a non-cyclic factor, and D5
# loaded from the table file format.
Z2xD3 = product(cyclic(2), dihedral(3))
LOADED_D5 = parse_cayley_table(format_cayley_table(dihedral(5)))


@st.composite
def groups_with_a_set(draw):
    """(group, oracle group, member mask A, element h)."""
    group, ref = draw(st.sampled_from(PAIRS), label="group")
    members = draw(st.integers(0, 2**group.order - 1), label="A")
    return group, ref, members, draw(st.integers(0, group.order - 1), label="h")


@settings(max_examples=150, deadline=None)
@given(groups_with_a_set(), st.data())
def test_translation_is_left_times_x_times_right(case, data):
    group, ref, _, left = case
    right = data.draw(st.integers(0, group.order - 1), label="right")
    assert translation(group, left, right) == [
        ref.mul(ref.mul(left, x), right) for x in range(group.order)
    ]
    assert translation(group, left) == [ref.mul(left, x) for x in range(group.order)]
    assert translation(group, right=right) == [ref.mul(x, right) for x in range(group.order)]


@settings(max_examples=150, deadline=None)
@given(groups_with_a_set(), st.integers(1, 5))
def test_bitset_translations_match_pointwise_definitions(case, m):
    group, ref, members, h = case
    q = group.order
    elems = set(iter_bits(members))

    def progression_in_a(a):
        x = a
        for _ in range(m):
            if x not in elems:
                return False
            x = ref.mul(h, x)
        return True

    expected = mask_of(a for a in elems if progression_in_a(a))
    assert ap_census(group, members, m, h) == (expected, expected.bit_count())

    left = mask_of(ref.mul(h, a) for a in elems)
    right = mask_of(ref.mul(a, h) for a in elems)
    assert comparability_defect(group, members, h, "left") * q == (members ^ left).bit_count()
    assert comparability_defect(group, members, h, "right") * q == (members ^ right).bit_count()

    for direction, holds in (
        ("left", lambda g, k: ref.mul(ref.inv(g), k) in elems),
        ("right", lambda g, k: ref.mul(ref.inv(k), g) in elems),
    ):
        rows = cayley_graph(group, members, direction).rows
        assert rows == tuple(mask_of(k for k in range(q) if holds(g, k)) for g in range(q))

    # <h>: in D_n a reflection's subgroup has left cosets that are not right cosets.
    sub = subgroup(group, brute_closure(ref, 1 << h))
    cosets = {frozenset(ref.mul(x, s) for s in sub.member_indices()) for x in range(q)}
    assert left_cosets(group, sub) == [mask_of(c) for c in sorted(cosets, key=min)]


@settings(max_examples=150, deadline=None)
@given(groups_with_a_set(), st.data())
def test_ap_census_is_the_pointwise_definition_at_any_length(case, data):
    """m-AP(A, h) is the a with h^i·a in A for every i < m, for m past the
    point where the kept set stops shrinking, up to 2|G| + 2."""
    group, ref, members, h = case
    m = data.draw(st.integers(1, 2 * group.order + 2), label="m")
    expected = 0
    for a in iter_bits(members):
        x, inside = a, True
        for _ in range(m):
            inside = inside and members >> x & 1
            x = ref.mul(h, x)
        expected |= bool(inside) << a
    assert ap_census(group, members, m, h) == (expected, expected.bit_count())


@st.composite
def shifts(draw, group, arity):
    """A shift and its sides for one carrier: None, one element (arity 1), or one
    element or None per coordinate, with one side or one side per coordinate."""
    elements = st.integers(0, group.order - 1).map(group.element)
    kind = draw(st.sampled_from(["none", "element", "tuple"] if arity == 1 else ["none", "tuple"]))
    if kind == "none":
        shift = None
    elif kind == "element":
        shift = draw(elements)
    else:
        shift = tuple(draw(st.lists(st.none() | elements, min_size=arity, max_size=arity)))
    side = st.sampled_from(["left", "right"])
    sides = draw(side | st.lists(side, min_size=arity, max_size=arity).map(tuple))
    return shift, sides


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_translate_relation_matches_pointwise_definition(data):
    pairs = PAIRS + [(Z2xD3, reference(Z2xD3)), (LOADED_D5, reference(dihedral(5)))]
    group, ref = data.draw(st.sampled_from(pairs), label="group")
    arities = [1, 2] if group.order <= 12 else [1]
    n, m = (data.draw(st.sampled_from(arities), label=side) for side in ("n", "m"))
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    rel = random_relation(group, rng, (n, m), proper_carriers=data.draw(st.booleans()))
    dshift, dside = data.draw(shifts(group, n), label="domain shift")
    cshift, cside = data.draw(shifts(group, m), label="codomain shift")

    def moved(index, arity, shift, side):
        """The tuple with each shifted coordinate c replaced by c·s or s·c."""
        if shift is None:
            return index
        per = shift if isinstance(shift, tuple) else (shift,)
        sides = side if isinstance(side, tuple) else (side,) * arity
        coords = list(decode_tuple(group, arity, index))
        for i, (s, sd) in enumerate(zip(per, sides)):
            if s is not None:
                coords[i] = ref.mul(coords[i], s.index) if sd == "right" else ref.mul(s.index, coords[i])
        return encode_tuple(group, coords)

    out = translate_relation(rel, dshift, cshift, dside, cside)
    xs = [moved(x, n, dshift, dside) for x in range(rel.domain.universe)]
    ys = [moved(y, m, cshift, cside) for y in range(rel.codomain.universe)]
    assert out.domain.members == mask_of(x for x, mx in enumerate(xs) if rel.domain.members >> mx & 1)
    assert out.codomain.members == mask_of(
        y for y, my in enumerate(ys) if rel.codomain.members >> my & 1
    )
    assert out.rows == tuple(
        mask_of(y for y, my in enumerate(ys) if rel.has_pair(mx, my)) for mx in xs
    )


MOVE_GROUPS = [cyclic(12), product(cyclic(2), cyclic(3), cyclic(2)), product(cyclic(2), dihedral(3)),
               dihedral(5), dihedral(50), heisenberg(3), heisenberg(5)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MOVE_GROUPS), st.data())
def test_translate_relation_moves_columns_as_permute_bits_does(group, data):
    """The codomain move of translate_relation against permuting each row and
    the carrier bit by bit by the undoing map, on the abelian and the
    permutation side of every group kind."""
    m = data.draw(st.sampled_from([1, 2] if group.order <= 12 else [1]), label="m")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    rel = random_relation(group, rng, (1, m), proper_carriers=data.draw(st.booleans()))
    shift, side = data.draw(shifts(group, m).filter(lambda s: s[0] is not None), label="shift")
    per = shift if isinstance(shift, tuple) else (shift,)
    sides = side if isinstance(side, tuple) else (side,) * m
    undo = [0]
    for s, sd in zip(per, sides):  # x -> x·s^-1 or s^-1·x per coordinate, first most significant
        inverse = 0 if s is None else group.inv(s.index)
        digit = translation(group, **{sd: inverse})
        undo = [u * group.order + d for u in undo for d in digit]
    out = translate_relation(rel, codomain_shift=shift, codomain_side=side)
    assert out.rows == tuple(permute_bits(row, undo) for row in rel.rows)
    assert out.codomain.members == permute_bits(rel.codomain.members, undo)
    assert out.domain == rel.domain


# Column counts on both sides of the tile sizes 8, 16, ..., 256, and any in 1..300.
COLUMNS = st.sampled_from([7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256,
                           257, 300]) | st.integers(1, 300)


@settings(max_examples=150, deadline=None)
@given(COLUMNS, st.integers(0, 300), st.integers(0, 2**32), st.data())
def test_column_permutation_is_permute_bits_row_by_row(size, count, seed, data):
    rng = random.Random(seed)
    empty = rng.random()
    rows = [0 if rng.random() < empty else rng.getrandbits(size) for _ in range(count)]
    stride, permute = _column_permuter(rows, size)
    assert stride * 8 >= size
    for label in ("first", "second"):  # one permuter serves any number of maps
        perm = data.draw(st.permutations(range(size)), label=f"{label} perm")
        source = [0] * size
        for j, target in enumerate(perm):
            source[target] = j
        moved = permute(source)
        assert len(moved) == stride * count
        assert [int.from_bytes(moved[i:i + stride], "little") for i in range(0, len(moved), stride)] == [
            permute_bits(row, perm) for row in rows
        ]


def test_bits_public_functions_are_the_four_helpers():
    # perfbench/tracer.py wraps every public bits function but permute_bits,
    # iter_bits, mask_of and full_mask in a span, and its per-round self-time
    # table has no bits.self_s key: a fifth public function that runs in a
    # traced round would end the benchmark in KeyError. Helpers stay private.
    public = {name for name, value in vars(bits).items()
              if isinstance(value, types.FunctionType) and value.__module__ == bits.__name__
              and not name.startswith("_")}
    assert public == {"iter_bits", "mask_of", "full_mask", "permute_bits"}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_iter_bits_lists_the_set_bits_ascending_on_both_sides_of_the_scan_width(data):
    cut = bits._SCAN_WIDTH
    width = data.draw(st.integers(0, 2000) | st.integers(cut - 2, cut + 1), label="width")
    density = data.draw(st.sampled_from([0, 0.01, 0.1, 0.5, 0.9, 1]), label="density")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    mask = sum(1 << i for i in range(width) if rng.random() < density)
    if mask:
        mask |= 1 << width - 1  # the width is the mask's bit length, the side it is walked on
    assert list(iter_bits(mask)) == [i for i in range(width) if mask >> i & 1]


# D1, D2 and H2 have L <= 2, where negating the low digit is the identity.
MOVER_PAIRS = PAIRS + [(g, reference(g)) for g in (Z2xD3, product(cyclic(2), cyclic(3), cyclic(2)),
                                                   dihedral(1), dihedral(2), heisenberg(2))]
# A side's slots: the one slot of a census lift (the last coordinate, the
# first, or every coordinate at once), or one slot per coordinate, as
# translate_relation passes.
SLOTS = {1: [[[0]]], 2: [[[1]], [[0]], [[0, 1]], [[0], [1]]]}


@st.composite
def mover_cases(draw):
    """(group, oracle group, relation, slots) for carriers of arity 1 or 2 and
    slots per side."""
    group, ref = draw(st.sampled_from(MOVER_PAIRS), label="group")
    arities = [1, 2] if group.order <= 12 else [1]
    n, m = (draw(st.sampled_from(arities), label=side) for side in ("n", "m"))
    slots = [draw(st.sampled_from(SLOTS[arity]), label="slots") for arity in (n, m)]
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    rel = random_relation(group, rng, (n, m), proper_carriers=draw(st.booleans(), label="proper"))
    return group, ref, rel, slots


@settings(max_examples=150, deadline=None)
@given(mover_cases(), st.data())
def test_row_moves_are_translations(case, data):
    """copy(move) is (move, S as one int with row dmap[a] of S in row a and
    column cmap[b] of it moved to column b), for dmap and cmap the move's
    domain and codomain pairs lifted: each slot's pair (l, r) maps every
    coordinate of the slot by x -> l·x·r of the oracle group. Each row is
    picked by the lifted domain map and permuted bit by bit by the inverse
    of the lifted codomain map. Three moves in a row, each carried from
    the copy before or built afresh, as drawn: the copy is the same either
    way. A drawn None stands for the identity move, (0, 0) in every slot.
    On a product of cyclic groups every carry moves the kept matrix, so it
    moves any matrix kept at any move by the step between the moves, and a
    matrix kept at no move (None) by the move itself."""
    group, ref, rel, slots = case
    q = group.order
    stride, whole, copy = _matrix_mover(rel, slots)
    assert stride >= rel.codomain.universe

    def lifted(arity, side_slots, move):
        """The lifted map of the move on G^arity from the oracle group."""
        out = []
        for y in range(q**arity):
            coords = list(decode_tuple(group, arity, y))
            for slot, (left, right) in zip(side_slots, move):
                for i in slot:
                    coords[i] = ref.mul(ref.mul(left, coords[i]), right)
            out.append(encode_tuple(group, coords))
        return out

    def joined(rows):
        return sum(row << a * stride for a, row in enumerate(rows))

    def moves(side_slots):
        pair = st.tuples(*[st.integers(0, q - 1)] * 2)
        return st.none() | st.tuples(*[pair] * len(side_slots))

    def moved(rows, dmove, cmove):
        """The rows, as one int, moved by the two sides' moves."""
        csource = lifted(rel.codomain.arity, cslots, cmove)
        inverse = [0] * len(csource)
        for y, source in enumerate(csource):
            inverse[source] = y
        return joined(permute_bits(rows[x], inverse) for x in lifted(rel.domain.arity, dslots, dmove))

    assert whole == joined(rel.rows)
    dslots, cslots = slots
    still = [((0, 0),) * len(side_slots) for side_slots in slots]
    kept = None
    for label in ("first", "second", "third"):  # one mover serves any number of moves
        dmove, cmove = (data.draw(moves(side_slots), label=f"{label} {side}") or side_still
                        for side_slots, side, side_still in zip(slots, ("domain", "codomain"), still))
        if not data.draw(st.booleans(), label=f"carry to {label}"):
            kept = None
        kept = copy(dmove + cmove, kept)
        assert kept == (dmove + cmove, moved(rel.rows, dmove, cmove))
    if group._cyclic_digits() is not None:
        rows = [random.Random(q).getrandbits(rel.codomain.universe) for _ in rel.rows]
        then = kept[0]
        dmove, cmove = (data.draw(moves(side_slots), label=f"last {side}") or side_still
                        for side_slots, side, side_still in zip(slots, ("domain", "codomain"), still))
        step = tuple((ref.mul(ref.inv(l0), l1), ref.mul(r1, ref.inv(r0)))
                     for (l0, r0), (l1, r1) in zip(then, dmove + cmove))
        split = len(dslots)
        assert copy(dmove + cmove, (then, joined(rows)))[1] == moved(rows, step[:split], step[split:])
        assert copy(dmove + cmove, (None, joined(rows)))[1] == moved(rows, dmove, cmove)


def lifted_copy(rel, slots, rows, stride, move):
    """The rows, as one int of the given stride, moved as the mover moves S:
    row a is row dmap[a], with column cmap[b] in column b, for dmap and cmap
    the move's domain and codomain pairs lifted by _lift_move."""
    split = len(slots[0])
    dmap, cmap = (_lift_move(rel.group, carrier.arity, side_slots, side_move) for carrier, side_slots, side_move
                  in zip((rel.domain, rel.codomain), slots, (move[:split], move[split:])))
    inverse = [0] * len(cmap)
    for y, source in enumerate(cmap):
        inverse[source] = y
    return sum(permute_bits(rows[x], inverse) << a * stride for a, x in enumerate(dmap))


def carry_chain(rel, slots, move, steps, order):
    """Carry a copy along a chain: from move, each next move is the one before
    times the step that order picks, (l·δl, δr·r) per slot, and each copy is
    carried from the one before. Every copy must be S moved by its move.
    On a group with a digit layout an int kept at no move, (None, X), must
    be X moved by the move itself."""
    group = rel.group
    stride, whole, copy = _matrix_mover(rel, slots)
    kept = copy(move)
    assert kept == (move, lifted_copy(rel, slots, rel.rows, stride, move))
    rng = random.Random(group.order)
    for i in order:
        move = tuple((group.mul(l, dl), group.mul(dr, r)) for (l, r), (dl, dr) in zip(move, steps[i]))
        kept = copy(move, kept)
        assert kept == (move, lifted_copy(rel, slots, rel.rows, stride, move))
        if group._digit_layout() is not None:
            rows = [rng.getrandbits(rel.codomain.universe) for _ in rel.rows]
            joined = sum(row << a * stride for a, row in enumerate(rows))
            assert copy(move, (None, joined))[1] == lifted_copy(rel, slots, rows, stride, move)


@settings(max_examples=150, deadline=None)
@given(mover_cases(), st.data())
def test_a_chain_of_carries_that_repeats_its_steps_moves_as_the_lifted_maps(case, data):
    """Four to eight carries, each by one of two drawn steps δ, so a step's
    compiled program is used again, checked against _lift_move; and on a
    group with a digit layout, (None, X) at every move of the chain."""
    group, _, rel, slots = case
    pairs = st.tuples(*[st.tuples(*[st.integers(0, group.order - 1)] * 2)] * sum(map(len, slots)))
    move, *steps = (data.draw(pairs, label=label) for label in ("first move", "step 0", "step 1"))
    order = data.draw(st.lists(st.integers(0, 1), min_size=4, max_size=8), label="steps taken")
    carry_chain(rel, slots, move, steps, order)


def lo_offsets(group, left, right):
    """The distinct lo offsets t(hi) of x -> left·x·right, and whether it
    negates lo (σ = -1), read off the table as the mover reads them."""
    his, lo = group._digit_layout()
    f = translation(group, left, right)
    return {f[hi * lo] % lo for hi in range(group.order // lo)}, lo > 2 and (f[1] - f[0]) % lo == lo - 1


@pytest.mark.parametrize("group, step", [
    (dihedral(6), ((1, 7), (0, 0))),  # σ = -1: a right move by a reflection, built from S each time
    (heisenberg(3), ((9, 0), (0, 1))),  # a left move whose lo offsets differ by hi block: masked parts
    (product(cyclic(2), cyclic(2), cyclic(3)), ((5, 0), (1, 2))),  # and (None, X) at each move
], ids=["D6-reflection", "H3-parted", "Z2xZ2xZ3-none"])
def test_a_chain_repeating_one_named_step_moves_as_the_lifted_maps(group, step):
    """A chain that repeats one step, at arity (1, 1) and at (2, 1) with the
    domain's slot on both coordinates, from a move that is not the identity."""
    offsets, negated = lo_offsets(group, *step[0])
    assert negated == (group.name[0] == "D") and (len(offsets) > 1) == (group.name[0] != "Z")
    for arity, dslots in ((1, [[0]]), (2, [[0, 1]])):
        rel = random_relation(group, random.Random(arity), (arity, 1))
        carry_chain(rel, (dslots, [[0]]), ((2, 1), (1, 3)), [step], [0] * 5)


@contextlib.contextmanager
def row_moves():
    """Spies on the ways rows move: yields a function that reads the calls so
    far to the column permuter, to digit rotation and to translation maps."""
    with mock.patch.object(relations, "_column_permuter", wraps=_column_permuter) as permuters, \
            mock.patch.object(relations, "_digit_shift", wraps=_digit_shift) as shifts, \
            mock.patch.object(relations, "translation", wraps=translation) as translations:
        yield lambda: (permuters.call_count, shifts.call_count, translations.call_count)


def test_only_groups_with_a_digit_layout_rotate():
    """Products of cyclic groups, D_n and H_p rotate at every arity and never
    build a column permuter, and neither their censuses nor translate_relation
    build a translation map for their rows; Z2×D3 and the catalogue's Cayley
    tables, D_n and H_p among them, loaded from the table file format, build
    one permuter per census and per translation and never rotate."""
    arities = [(1, 1), (2, 1), (1, 2), (2, 2)]
    tables = [parse_cayley_table(format_cayley_table(g))
              for g in builtin_catalogue(16) + [dihedral(5), heisenberg(3)] if "cayley_table" in g.recipe]
    assert len(tables) == 4
    for group, (n, m) in itertools.product([g for g, _ in MOVER_PAIRS] + tables, arities):
        q = group.order
        if max(n, m) > 1 and q > 12:
            continue
        rel = random_relation(group, random.Random(q), (n, m))  # full carriers
        with row_moves() as calls:  # a census's moves, on the last coordinate of each side
            _, _, copy = _matrix_mover(rel, [[[n - 1]], [[m - 1]]])
            kept = None
            for left in range(q):
                kept = copy(((left, q - 1),) * 2, kept)
            by_census = calls()
        with row_moves() as calls:  # every coordinate shifted by the last element
            shifts = [tuple(group.element(q - 1) for _ in range(arity)) for arity in (n, m)]
            translate_relation(rel, *shifts, ("left", "right")[:n], ("right", "left")[:m])
            by_translate = calls()
        if group is not Z2xD3 and group not in tables:
            assert [(permuters, rotations > 0) for permuters, rotations, _ in (by_census, by_translate)] == [
                (0, q > 1)] * 2, (group.name, n, m)
            assert by_translate[2] == 0, (group.name, n, m)
            kinds = [kind for kind, shape in patterns.SHAPES.items()
                     if all(lifted or arity == 1 for lifted, arity in zip(shape.lifted, (n, m)))
                     and (group.is_abelian or not shape.abelian_error)]
            with row_moves() as calls, \
                    mock.patch.object(patterns, "translation", wraps=translation) as pattern_translations:
                for kind in kinds:
                    patterns.census(rel, kind)
                assert (calls()[2], pattern_translations.call_count) == (0, 0), (group.name, n, m)
        else:
            assert [(permuters, rotations) for permuters, rotations, _ in (by_census, by_translate)] == [
                (1, 0)] * 2, (group.name, n, m)


@pytest.mark.parametrize("group", [Z2xD3, LOADED_D5, cyclic(12), dihedral(5)], ids=lambda group: group.name)
def test_translate_moves_only_what_it_shifts(group):
    """With no shift on either side translate_relation returns the relation
    and builds no mover; a domain-only shift moves rows alone, so on Z2×D3 and
    a loaded table it builds no column permuter."""
    q = group.order
    for n, m in [(1, 1), (2, 1), (1, 2)]:
        rel = random_relation(group, random.Random(q + n), (n, m), proper_carriers=n == 2)
        with mock.patch.object(relations, "_matrix_mover", wraps=_matrix_mover) as movers:
            for dshift, cshift in [(None, None), ((None,) * n, (None,) * m)]:
                assert translate_relation(rel, dshift, cshift, "left", "left") == rel
        assert movers.call_count == 0
    rel = random_relation(group, random.Random(q))
    for g, side in itertools.product(range(1, q), ["left", "right"]):
        with row_moves() as calls:
            out = translate_relation(rel, group.element(g), None, side)
        assert calls()[0] == 0
        source = translation(group, *((g, 0) if side == "left" else (0, g)))
        assert out.rows == tuple(rel.rows[x] for x in source)


@pytest.mark.parametrize("shift", [3, 2.5, True, "ab", {1}, range(1)], ids=repr)
def test_a_shift_of_another_kind_is_refused(shift):
    rel = random_relation(cyclic(4), random.Random(4))
    for kwargs in ({"domain_shift": shift}, {"codomain_shift": shift}):
        with pytest.raises(ArityMismatch, match=re.escape(repr(shift))):
            translate_relation(rel, **kwargs)


@pytest.mark.parametrize("group", [dihedral(n) for n in range(1, 13)] + [heisenberg(p) for p in (2, 3, 5)],
                         ids=lambda group: group.name)
def test_the_recorded_digit_layout_holds_for_every_translation(group):
    """Write x = hi·L + lo, lo < L, for the layout (hi digits, L) that dihedral()
    and heisenberg() record. Every map x -> l·x·r of the oracle group adds h0
    to the hi digits, digit by digit, and sends lo to σ·lo + t(hi) mod L,
    with σ = -1 only on D_n, when r is a reflection, and L > 2."""
    his, lo = group._digit_layout()
    q, blocks = group.order, group.order // lo
    assert math.prod(length for _, length in his) * lo == q
    assert all(w % lo == 0 for w, _ in his)
    ref = reference(group)
    table = [[ref.mul(a, b) for b in range(q)] for a in range(q)]

    def block(hi: int, h0: int) -> int:
        """The block of hi plus h0, digit by digit, hi and h0 block numbers."""
        return sum((hi * lo // w + h0 * lo // w) % length * w for w, length in his) // lo

    plus = [[block(hi, h0) for hi in range(blocks)] for h0 in range(blocks)]
    for left, right in itertools.product(range(q), repeat=2):
        f = [table[table[left][x]][right] for x in range(q)]
        h0 = f[0] // lo
        t = [f[hi * lo] % lo for hi in range(blocks)]
        sigma = -1 if lo > 2 and (f[1] - f[0]) % lo == lo - 1 else 1
        assert (sigma == -1) == (group.name[0] == "D" and lo > 2 and right >= lo), (left, right)
        assert f == [plus[h0][hi] * lo + (sigma * r + t[hi]) % lo
                     for hi in range(blocks) for r in range(lo)], (left, right)
