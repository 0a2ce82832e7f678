"""patterns: censuses against brute force, AP sets, coverage, defects."""

import contextlib
import json
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupstab import (
    ArityMismatch,
    ArityUnsupported,
    CarrierSet,
    CrossGroupElement,
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
    format_cayley_table,
    heisenberg,
    lshape_census,
    product,
    rect23_census,
    sidelength_coverage,
    square_census,
    subgroup,
    subgroups_up_to_index,
)
from groupstab import patterns, relations
from groupstab.bits import _column_permuter, mask_of, permute_bits
from groupstab.genlab import random_dense
from groupstab.groups import parse_cayley_table
from groupstab.patterns import SHAPES, census
from groupstab.relations import decode_tuple, encode_tuple

import oracles
from oracles import (
    brute_corner_counts,
    brute_lshape_counts,
    brute_lshape_right_counts,
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


# The oracle of every census kind, with its extra arguments.
ORACLES = {
    "square": (brute_square_counts, ()),
    "naive": (brute_corner_counts, ("naive",)),
    "bmz_left": (brute_corner_counts, ("bmz_left",)),
    "bmz_right": (brute_corner_counts, ("bmz_right",)),
    "rect23": (brute_rect23_counts, ()),
    "lshape": (brute_lshape_counts, ()),
    "lshape_right": (brute_lshape_right_counts, ()),
}


def census_calls(group):
    """(census(relation, include_witnesses, cap), oracle, oracle args) per registered
    kind that the group admits, on G×G."""
    assert not set(SHAPES) - set(ORACLES), "every census kind needs an oracle"
    return [
        (lambda rel, *w, kind=kind: census(rel, kind, *w), *ORACLES[kind])
        for kind, shape in SHAPES.items()
        if group.is_abelian or not shape.abelian_error
    ]


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


# Z2xZ2xZ3 rotates three digits; D5, H3 and Z2xD3 (a product that is not
# cyclic in every factor) move columns.
CENSUS_GROUPS = builtin_catalogue(12) + [
    dihedral(4), heisenberg(3),
    product(cyclic(2), cyclic(2), cyclic(3)), dihedral(5), product(cyclic(2), dihedral(3)),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_censuses_match_brute_force_property(data):
    group = data.draw(st.sampled_from(CENSUS_GROUPS), label="group")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    rel = random_relation(group, rng, proper_carriers=data.draw(st.booleans(), label="proper"))
    assert_censuses_match_oracles(rel, cap=data.draw(st.integers(1, 60), label="cap"))


def test_census_never_permutes_bit_by_bit():
    """Every move is a rotation or one column permutation per side length."""
    rng = random.Random(77)
    rels = [
        random_relation(group, rng, proper_carriers=proper)
        for group in (dihedral(5), heisenberg(3), product(cyclic(2), dihedral(3)))
        for proper in (False, True)
    ]
    lifted = [random_relation(group, rng, arity=(1, 2)) for group in (cyclic(4), dihedral(3))]
    # The census moves rows in relations._matrix_mover: spy on both modules.
    with mock.patch("groupstab.patterns.permute_bits", wraps=permute_bits) as spy, \
            mock.patch("groupstab.relations.permute_bits", wraps=permute_bits) as mover_spy:
        for rel in rels:
            for kind, shape in SHAPES.items():
                if shape.abelian_error:
                    with pytest.raises(NonAbelianGroup):
                        census(rel, kind)
                    continue
                census(rel, kind)
                census(rel, kind, True, 40)
        for rel in lifted:
            for lift in ({}, {"coordinate": 0}, {"diagonal": True}):
                census(rel, "square", **lift)
                census(rel, "square", True, 40, **lift)
    assert spy.call_count == mover_spy.call_count == 0


def test_a_dihedral_table_loaded_from_a_file_permutes_columns_and_counts_the_same():
    """D7 re-loaded from the table file format keeps its recipe but no digit
    layout, so its censuses build a column permuter; counts and witnesses
    are byte-identical to dihedral(7)'s, which rotate digits."""
    built = dihedral(7)
    loaded = parse_cayley_table(format_cayley_table(built))
    assert loaded.recipe == built.recipe and loaded._digit_layout() is None
    for seed, proper in [(7, False), (8, True)]:
        rels = [random_relation(group, random.Random(seed), proper_carriers=proper)
                for group in (built, loaded)]
        assert rels[0].rows == rels[1].rows
        for kind, shape in SHAPES.items():
            if shape.abelian_error:
                continue
            reports = []
            for rel in rels:
                with mock.patch.object(relations, "_column_permuter", wraps=_column_permuter) as permuters:
                    reports.append(json.dumps(census(rel, kind, True, 500).to_json()))
                assert permuters.call_count == (rel.group is loaded), kind
            assert reports[0] == reports[1], kind


# builtin_catalogue(16) and further D_n and H_p rotate digits; Z2xD3 and a
# table loaded from a file move columns.
PASS_GROUPS = builtin_catalogue(16) + [
    dihedral(3), dihedral(5), heisenberg(2), heisenberg(3),
    product(cyclic(2), dihedral(3)), parse_cayley_table(format_cayley_table(dihedral(5))),
]


@pytest.mark.parametrize("group", PASS_GROUPS, ids=lambda g: f"{g.name}-{g.recipe_hash()[:4]}")
@pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(1, 50)], ids=["half", "sparse"])
def test_one_pass_over_several_kinds_counts_as_each_census(group, delta):
    """The census pass over several kinds keeps each side length's moves for
    every kind: each kind's counts and witnesses must be those of its own
    census, for all the kinds the group admits and for subsets of them in
    any order."""
    full = CarrierSet.full(group, 1)
    rel = random_dense(full, full, delta, group.order)
    admitted = [kind for kind, shape in SHAPES.items() if group.is_abelian or not shape.abelian_error]
    alone = {kind: json.dumps(census(rel, kind, True, 30).to_json()) for kind in admitted}
    rng = random.Random(group.order)
    subsets = [admitted, admitted[::-1]] + [rng.sample(admitted, rng.randint(1, len(admitted)))
                                            for _ in range(4)]
    for kinds in subsets:
        counted = patterns._censuses(rel, kinds, True, 30)
        assert list(counted) == list(dict.fromkeys(kinds))
        assert {kind: json.dumps(c.to_json()) for kind, c in counted.items()} == {
            kind: alone[kind] for kind in kinds}


def test_a_mover_keeps_every_action_of_one_side_length():
    """Groups without a digit layout build every copy from F, and keep the
    last relations._KEPT_MOVES lifted domain maps and moved columns: at
    least the distinct actions per side over every census kind. So a pass
    over every kind on a full relation, whose meets never empty, lifts each
    distinct move of one side length at most once (a move kept from the side
    length before is not lifted again), and rotating groups lift none."""
    actions = {action for shape in SHAPES.values() for point in shape.points for action in point}
    assert len(actions) <= relations._KEPT_MOVES
    for group in (product(cyclic(2), dihedral(3)), parse_cayley_table(format_cayley_table(dihedral(5))),
                  dihedral(5), heisenberg(2)):
        rel = full_relation(group)
        kinds = [kind for kind, shape in SHAPES.items() if not shape.abelian_error]
        mul = group.mul

        def power(g, k):
            return mul(power(g, k - 1), g) if k else 0

        distinct = 0
        for g in range(group.order):
            for side in (0, 1):
                moves = {(power(g, point[side][0]), power(g, point[side][1]))
                         for kind in kinds for point in SHAPES[kind].points}
                distinct += len(moves - {(0, 0)})
        with mock.patch.object(relations, "_lift_move", wraps=relations._lift_move) as lifts:
            patterns._censuses(rel, kinds)
        if group._digit_layout() is None:
            assert 0 < lifts.call_count <= distinct, group.name
        else:
            assert lifts.call_count == 0, group.name


def test_a_lifted_pass_counts_as_each_census():
    """A pass at arity (2, 1) with a coordinate or diagonal lift: rect23
    lifts the domain alone and the square both sides, so their lifts
    differ, and each kind's counts and witnesses are its own census's."""
    rng = random.Random(12)
    for group in (cyclic(4), dihedral(3), product(cyclic(2), dihedral(3))):
        rel = random_relation(group, rng, arity=(2, 1))
        for lift in ({}, {"coordinate": 0}, {"diagonal": True}):
            counted = patterns._censuses(rel, ["rect23", "square"], True, 40, **lift)
            for kind in ("rect23", "square"):
                assert counted[kind].to_json() == census(rel, kind, True, 40, **lift).to_json()


def noisy_cayley(group, generator, delta, seed):
    """Cay(G, H) for H the powers of the generator, with each other pair of
    G×G added with probability delta: at g outside H most meets of a sparse
    relation empty early, and the copies they skip go stale."""
    members, x = 1, generator
    while x:
        members |= 1 << x
        x = group.mul(x, generator)
    cayley = cayley_graph(group, members)
    rng = random.Random(seed)
    rows = tuple(row | mask_of(y for y in range(group.order) if rng.random() < delta) for row in cayley.rows)
    return type(cayley)(cayley.domain, cayley.codomain, rows)


@contextlib.contextmanager
def counted_copies():
    """Spies on the census's movers: yields a dict counting the copies built
    from F (no kept copy), carried from a kept copy at another move, kept as
    they were (at the same move), and the ANDs met as one, moved from no
    move, over every mover made meanwhile."""
    calls = {"from F": 0, "carried": 0, "kept": 0, "met as one": 0}

    def mover(relation, slots):
        stride, whole, copy = relations._matrix_mover(relation, slots)

        def counted(move, kept=None):
            calls["from F" if kept is None else "met as one" if kept[0] is None
                  else "kept" if kept[0] == move else "carried"] += 1
            return copy(move, kept)

        return stride, whole, counted

    with mock.patch.object(patterns, "_matrix_mover", mover):
        yield calls


# Z12 and Z2xZ2xZ3 rotate digits alone; D5 and D6 cross into the reflection
# block, where a right move by a reflection is built from F; H3 crosses the
# wrap of its c digit; Z2xD3 and a loaded D5 table move columns.
CARRY_GROUPS = [cyclic(12), product(cyclic(2), cyclic(2), cyclic(3)), dihedral(5), dihedral(6), heisenberg(3),
                product(cyclic(2), dihedral(3)), parse_cayley_table(format_cayley_table(dihedral(5)))]


@pytest.mark.parametrize("group", CARRY_GROUPS, ids=lambda g: f"{g.name}-{g.recipe_hash()[:4]}")
@pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(1, 50)], ids=["half", "sparse"])
def test_carried_copies_count_as_the_oracles(group, delta):
    """Counts and witnesses match the oracles wherever a carry breaks: after
    an emptied meet left copies stale, across D_n's reflection block and
    H3's digit wrap, and on groups that build every copy from F. The sparse
    relation shows that copies went stale: the census makes fewer copies
    than its points at every side length."""
    generator = group.order // 2 if group._digit_layout() else 1
    rel = noisy_cayley(group, generator, float(delta), group.order)
    with counted_copies() as calls:
        assert_censuses_match_oracles(rel, cap=200)
    full = sum(len(set(shape.points) - {((0, 0), (0, 0))}) * group.order
               for shape in SHAPES.values() if group.is_abelian or not shape.abelian_error)
    if delta == Fraction(1, 50):
        assert sum(calls.values()) < 2 * full  # each kind is counted twice, with and without witnesses


# Per kind, the copies a census builds from F on a relation of density 1/2:
# one per point it carries, at g = 0. Z12 meets the points that share a
# domain action as one and carries their codomain copies but F's (rect23's
# two are the points it has with the identity domain action); H3 carries
# every point but the identity whole.
BUILT_FROM_F = {
    "Z12": {"square": 1, "naive": 2, "bmz_left": 1, "bmz_right": 2, "rect23": 2, "lshape": 3,
            "lshape_right": 3},
    "H3": {"square": 3, "naive": 2, "bmz_left": 2, "bmz_right": 2, "rect23": 5, "lshape_right": 3},
}


@pytest.mark.parametrize("group", [cyclic(12), heisenberg(3)], ids=lambda g: g.name)
def test_a_census_builds_each_point_from_f_once(group):
    full = CarrierSet.full(group, 1)
    rel = random_dense(full, full, Fraction(1, 2), 7)
    built = {}
    for kind in BUILT_FROM_F[group.name]:
        with counted_copies() as calls:
            census(rel, kind)
        built[kind] = calls["from F"]
        assert calls["carried"] > (group.order - 2) * built[kind], kind
    assert built == BUILT_FROM_F[group.name]


@pytest.mark.parametrize("group", [dihedral(6), cyclic(12), product(*[cyclic(2)] * 4)], ids=lambda g: g.name)
def test_sparse_censuses_carry_copies_from_older_side_lengths(group):
    """At density 1/50 most meets empty at their first point, and every kind
    still matches the oracles. On the Cayley graph of the subgroup that
    q/2 generates, with 1/50 noise, a meet empties at each g outside the
    subgroup, and bmz_right carries a copy from a side length before the
    one before: the point skipped in between keeps the copy it had. Each
    side of a bmz_right point is (0, 0), (g, 0) or (0, g), so the largest
    element of a move is its side length."""
    full = CarrierSet.full(group, 1)
    assert_censuses_match_oracles(random_dense(full, full, Fraction(1, 50), group.order), cap=200)
    rel = noisy_cayley(group, group.order // 2, 1 / 50, group.order)
    assert_censuses_match_oracles(rel, cap=200)
    jumps = []

    def mover(relation, slots):
        stride, whole, copy = relations._matrix_mover(relation, slots)

        def spied(move, kept=None):
            if kept is not None and kept[0] is not None and kept[0] != move:
                jumps.append(max(map(max, move)) - max(map(max, kept[0])))
            return copy(move, kept)

        return stride, whole, spied

    with mock.patch.object(patterns, "_matrix_mover", mover):
        assert census(rel, "bmz_right").to_json() == corner_census(rel, "bmz_right").to_json()
    assert max(jumps) > 1, jumps


def test_nothing_outlives_a_census():
    """A census keeps nothing on its relation, its carriers or its group,
    and two censuses of one relation each build their own mover."""
    for group in (cyclic(12), dihedral(5), heisenberg(3), product(cyclic(2), dihedral(3))):
        rel = random_relation(group, random.Random(group.order), arity=(1, 1))
        owners = [rel, rel.domain, rel.codomain, group]
        before = [set(vars(owner)) for owner in owners], dict(group._lattices), dict(group._powers)
        copies = []

        def mover(relation, slots):
            made = relations._matrix_mover(relation, slots)
            copies.append(made[2])
            return made

        with mock.patch.object(patterns, "_matrix_mover", mover):
            first = patterns._censuses(rel, ["square", "bmz_right", "rect23"], True, 50)
            second = patterns._censuses(rel, ["square", "bmz_right", "rect23"], True, 50)
        assert ([set(vars(owner)) for owner in owners], group._lattices, group._powers) == before, group.name
        assert len(copies) == 2 and copies[0] is not copies[1], group.name
        assert {k: c.to_json() for k, c in first.items()} == {k: c.to_json() for k, c in second.items()}


# Arity (2, 1): Z4 and Z2xZ3 meet a shared domain action as one on the lifted
# domain, D4 and H2 carry each point, Z2xD3 builds every copy from F.
@pytest.mark.parametrize("group", [cyclic(4), product(cyclic(2), cyclic(3)), dihedral(4), heisenberg(2),
                                   product(cyclic(2), dihedral(3))], ids=lambda g: g.name)
@pytest.mark.parametrize("lift", [{}, {"coordinate": 0}, {"diagonal": True}],
                         ids=["last", "first", "diagonal"])
@pytest.mark.parametrize("delta", [0.5, 0.1], ids=["half", "sparse"])
def test_a_lifted_pass_matches_the_pointwise_definition(group, lift, delta):
    """A pass over the square and rect23 at arity (2, 1), on the domain's
    designated coordinate or on both: the square's side acts on the domain
    and the codomain, rect23's on the domain and (two-sided) the codomain."""
    mul, q = group.mul, group.order
    rng = random.Random(q)
    full = [CarrierSet.full(group, arity) for arity in (2, 1)]
    rel = build_relation(*full, predicate=lambda x, y: rng.random() < delta)

    def times(a, g):
        coords = list(decode_tuple(group, 2, a))
        for c in (0, 1) if lift.get("diagonal") else [lift.get("coordinate", 1)]:
            coords[c] = mul(coords[c], g)
        return encode_tuple(group, coords)

    def pointwise(points):
        return [(a, b, g) for g in range(q) for a in range(q * q) for b in range(q)
                if all(rel.has_pair(*p) for p in points(a, b, g))]

    square = pointwise(lambda a, b, g: [(a, b), (times(a, g), b), (a, mul(b, g)), (times(a, g), mul(b, g))])
    rect23 = pointwise(lambda a, b, g: [(a, b), (times(a, g), b), (a, mul(b, g)), (times(a, g), mul(b, g)),
                                        (a, mul(g, mul(b, g))), (times(a, g), mul(g, mul(b, g)))])
    counted = patterns._censuses(rel, ["rect23", "square"], True, 10**6, **lift)
    for kind, triples in (("square", square), ("rect23", rect23)):
        assert counted[kind].witnesses == triples, kind
        assert counted[kind].count_by_sidelength == [sum(t[2] == g for t in triples) for g in range(q)]


def test_a_pass_refuses_the_first_kind_its_census_would():
    rel = random_relation(dihedral(4), random.Random(3))
    with pytest.raises(NonAbelianGroup, match="L-shapes are defined over abelian groups"):
        patterns._censuses(rel, ["square", "naive", "lshape", "nonsense"])
    with pytest.raises(ValueError, match="unknown census kind 'nonsense'"):
        patterns._censuses(rel, ["square", "nonsense", "lshape"])
    lifted = random_relation(cyclic(3), random.Random(4), arity=(2, 1))
    with pytest.raises(ArityUnsupported, match="corner censuses"):
        patterns._censuses(lifted, ["square", "bmz_right", "rect23"])
    assert patterns._censuses(lifted, []) == {}


# D3 keeps the ids arity0..arity2. Z4 and Z2xZ3 rotate the lifted digits;
# Z2xD3 (t = 16) moves columns through several tile bands at (2, 1) and
# several tile blocks at (1, 2).
LIFTED_CASES = [
    *(pytest.param(dihedral(3), arity, id=f"arity{i}") for i, arity in enumerate([(1, 1), (2, 1), (2, 2)])),
    *(pytest.param(group, arity, id=f"{group.name}-{arity[0]}{arity[1]}")
      for group in (cyclic(4), product(cyclic(2), cyclic(3)))
      for arity in [(1, 1), (2, 1), (1, 2), (2, 2)]),
    *(pytest.param(product(cyclic(2), dihedral(3)), arity, id=f"Z2xD3-{arity[0]}{arity[1]}")
      for arity in [(2, 1), (1, 2)]),
]


@pytest.mark.parametrize("group, arity", LIFTED_CASES)
@pytest.mark.parametrize(
    "lift", [{}, {"coordinate": 0}, {"coordinate": 1}, {"coordinate": 5}, {"diagonal": True}]
)
def test_lifted_censuses_match_pointwise_definition(group, arity, lift):
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



GXG_KINDS = [kind for kind, shape in SHAPES.items() if not any(shape.lifted)]


@pytest.mark.parametrize("kind", GXG_KINDS)
def test_a_kind_on_gxg_checks_its_coordinate(kind):
    assert len(GXG_KINDS) == 5
    rel = random_relation(cyclic(6), random.Random(7))
    default = census(rel, kind, True)
    for lift in ({"coordinate": 0}, {"diagonal": True}, {"coordinate": 0, "diagonal": True}):
        assert census(rel, kind, True, **lift) == default
    for lift in ({"coordinate": 7}, {"coordinate": 1}, {"coordinate": -1}):
        with pytest.raises(ArityMismatch):
            census(rel, kind, **lift)
    for lift in ({"coordinate": True}, {"coordinate": 0.0}, {"coordinate": True, "diagonal": True}):
        with pytest.raises(ValueError, match="^coordinate must be an int"):
            census(rel, kind, **lift)


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


@pytest.mark.parametrize("group", [dihedral(4), dihedral(6), heisenberg(3)], ids=lambda g: g.name)
def test_lshape_right_matches_oracle_nonabelian(group):
    rng = random.Random(group.order)
    for proper in (False, True):
        rel = random_relation(group, rng, proper_carriers=proper)
        counted = census(rel, "lshape_right", True, 300)
        assert counted.kind == "lshape_right"
        assert counted.count_by_sidelength == brute_lshape_right_counts(rel)
        assert counted.witnesses == oracle_triples(brute_lshape_right_counts, rel)[:300]


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


@pytest.mark.parametrize("call", [
    lambda rel, cap: square_census(rel, True, cap),
    lambda rel, cap: corner_census(rel, "naive", True, cap),
    lambda rel, cap: corner_census(rel, "bmz_left", True, cap),
    lambda rel, cap: rect23_census(rel, True, cap),
    lambda rel, cap: lshape_census(rel, True, cap),
    lambda rel, cap: census(rel, "lshape_right", False, cap),
])
def test_census_refuses_a_negative_witness_cap_before_any_work(call):
    rel = cayley_graph(cyclic(4), mask_of([0, 2]))
    with mock.patch("groupstab.patterns._matrix_mover") as mover:
        with pytest.raises(ValueError, match="witness_cap must be >= 0, got -1"):
            call(rel, -1)
    assert not mover.called
    assert call(rel, 0).witnesses in ([], None)


CENSUS_CALLS = {
    "census": lambda rel, cap, **lift: census(rel, "square", True, cap, **lift),
    "_censuses": lambda rel, cap, **lift: patterns._censuses(rel, ["rect23", "square"], True, cap, **lift),
    "square_census": lambda rel, cap, **lift: square_census(rel, True, cap, **lift),
    "rect23_census": lambda rel, cap, **lift: rect23_census(rel, True, cap, **lift),
    "corner_census": lambda rel, cap: corner_census(rel, "bmz_left", True, cap),
    "lshape_census": lambda rel, cap: lshape_census(rel, True, cap),
}


@pytest.mark.parametrize("value", [True, False, 2.5, 2.0, "3", None], ids=repr)
@pytest.mark.parametrize("name", CENSUS_CALLS)
def test_census_integer_arguments_that_are_not_ints_are_refused(name, value):
    """witness_cap, and coordinate where the census takes one, must be ints
    (coordinate may be None): anything else is refused before any work."""
    call = CENSUS_CALLS[name]
    rel = cayley_graph(cyclic(4), mask_of([0, 2]))
    assert call(rel, 3)
    message = f"^{{}} must be an int, got {re.escape(repr(value))}$"
    with mock.patch("groupstab.patterns._matrix_mover") as mover:
        with pytest.raises(ValueError, match=message.format("witness_cap")):
            call(rel, value)
        if name not in ("corner_census", "lshape_census") and value is not None:
            with pytest.raises(ValueError, match=message.format("coordinate")):
                call(rel, 3, coordinate=value)
            with pytest.raises(ValueError, match=message.format("coordinate")):
                call(rel, 3, coordinate=value, diagonal=True)
    assert not mover.called
    if value is not None:
        with pytest.raises(ValueError, match=message.format("coordinate")):
            relations.coordinate_action(cyclic(4), 2, 1, coordinate=value)


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


def test_ap_census_and_defect_reject_elements_of_another_group():
    z4, d4 = cyclic(4), dihedral(4)
    for foreign in (cyclic(5).element(1), dihedral(4).element(1), cyclic(4).element(1)):
        with pytest.raises(CrossGroupElement):
            ap_census(z4, 0b11, 2, foreign)
        with pytest.raises(CrossGroupElement):
            comparability_defect(z4, 0b11, foreign)
    with pytest.raises(CrossGroupElement):
        comparability_defect(d4, 0b11, z4.element(1), "right")
    # an element of the group itself is accepted
    assert ap_census(z4, 0b11, 2, z4.element(1)) == (0b01, 1)


def test_sidelength_coverage_rejects_a_subgroup_of_another_group():
    z4 = cyclic(4)
    rel = full_relation(z4)
    for other in (cyclic(8), cyclic(2), cyclic(4)):  # larger, smaller, equal but built separately
        with pytest.raises(CrossGroupElement):
            sidelength_coverage(rel, subgroup(other, [0]))
    assert sidelength_coverage(rel, subgroup(z4, [0])).missing_fraction == 0


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
