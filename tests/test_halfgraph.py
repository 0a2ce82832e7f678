"""halfgraph: exact counts, enumeration, sampling, theta profile."""

import functools
import itertools
import math
import random
import re
from fractions import Fraction
from operator import and_, or_
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupstab import (
    BudgetExceeded,
    CarrierSet,
    Relation,
    build_relation,
    builtin_catalogue,
    cayley_graph,
    count_halfgraphs_exact,
    cyclic,
    dihedral,
    enumerate_halfgraphs,
    heisenberg,
    is_halfgraph,
    linear_order_relation,
    perturb_relation,
    relation_algebra,
    sample_halfgraphs,
    sidon_set,
    subgroup,
    theta_profile,
)
import groupstab.halfgraph as halfgraph
from groupstab.bits import mask_of
from groupstab.halfgraph import _CHUNK, _score_chunk, _walk

from oracles import brute_halfgraph_count, brute_halfgraph_witnesses, brute_is_translation_invariant

from test_relations import random_relation


def test_height_one_counts_edges():
    rng = random.Random(1)
    rel = random_relation(cyclic(9), rng)
    assert count_halfgraphs_exact(rel, 1).exact_count == rel.edge_count


def test_full_relation_has_no_height_two():
    z5 = cyclic(5)
    carrier = CarrierSet.full(z5, 1)
    full = build_relation(carrier, carrier, predicate=lambda x, y: True)
    assert count_halfgraphs_exact(full, 2).exact_count == 0
    prof = theta_profile(full, 3)
    assert prof[0].theta_group == 1
    assert prof[1].theta_group == 0 and prof[2].theta_group == 0


def test_coset_cayley_is_two_stable():
    z6 = cyclic(6)
    rel = cayley_graph(z6, mask_of([0, 3]))
    assert count_halfgraphs_exact(rel, 2).exact_count == 0


def test_linear_order_example_exact_and_theta():
    rel = linear_order_relation(cyclic(9), 3)
    report = count_halfgraphs_exact(rel, 2)
    assert report.exact_count == 5
    assert report.theta_group == Fraction(5, 6561)
    assert report.theta_carrier == Fraction(5, 81)
    # second expression from the definition: sum over (a1, a2) of
    # |S_{a1} \ S_{a2}| * |S_{a1} & S_{a2}|
    alt = 0
    for a1 in range(3):
        for a2 in range(3):
            s1 = set(range(a1, 3))
            s2 = set(range(a2, 3))
            alt += len(s1 - s2) * len(s1 & s2)
    assert alt == 5


def test_exact_matches_brute_force_on_random_relations():
    rng = random.Random(20240817)
    for trial in range(100):
        k = 2 if trial % 2 == 0 else 3
        size = rng.randrange(2, 11) if k == 2 else rng.randrange(2, 7)
        group = cyclic(size)
        rel = random_relation(group, rng, proper_carriers=trial % 3 == 0)
        assert count_halfgraphs_exact(rel, k).exact_count == brute_halfgraph_count(rel, k)


def test_enumeration_matches_brute_force_and_verifies():
    rng = random.Random(7)
    for _ in range(20):
        group = cyclic(rng.randrange(3, 7))
        rel = random_relation(group, rng)
        expected = brute_halfgraph_witnesses(rel, 2)
        got = enumerate_halfgraphs(rel, 2, 10**6)
        assert got == expected
        assert all(is_halfgraph(rel, w) for w in got)
        assert enumerate_halfgraphs(rel, 2, 3) == expected[:3]


@pytest.mark.parametrize("witness", [(-1, 0), (4, 0), (9, 0), (0, -1), (0, 4), (0, 1, 2, 7)])
def test_is_halfgraph_rejects_indices_outside_the_universes(witness):
    rel = cayley_graph(cyclic(4), mask_of([0, 1]))
    with pytest.raises(ValueError):
        is_halfgraph(rel, witness)
    assert is_halfgraph(rel, (3, 3)) and not is_halfgraph(rel, (3, 1))


def test_enumeration_of_edges_at_height_one():
    z4 = cyclic(4)
    rel = cayley_graph(z4, 0b0010)
    ws = enumerate_halfgraphs(rel, 1, rel.edge_count)
    assert ws == sorted((x, y) for x, y in rel.pairs())


def test_witnesses_restrict_to_lower_height():
    rng = random.Random(13)
    for _ in range(10):
        rel = random_relation(cyclic(6), rng)
        for w in enumerate_halfgraphs(rel, 3, 200):
            a, b = w[:3], w[3:]
            assert is_halfgraph(rel, a[:2] + b[:2])


@pytest.mark.parametrize("w, k", [(w, k) for k in (2, 3) for w in (10, 25, 40)]
                         + [(w, 4) for w in range(1, 13)])
def test_linear_order_counts_match_the_closed_form(w, k):
    # a chain of width w, x <= y, has C(w + k, 2k) half-graphs of height k:
    # its rows are nested, so every triple of rows contributes at k >= 3
    rel = linear_order_relation(cyclic(w + 3), w)
    assert count_halfgraphs_exact(rel, k).exact_count == math.comb(w + k, 2 * k)


NOT_INTS = [2.5, 3.0, True, False, "3", None]
SAMPLING = {"samples": 10, "seed": 1}
# each entry point with arguments that it accepts, every one of them an int
INT_CALLS = [
    (count_halfgraphs_exact, {"k": 2, "budget": 100}),
    (enumerate_halfgraphs, {"k": 2, "limit": 5}),
    (sample_halfgraphs, {"k": 2, **SAMPLING}),
    (theta_profile, {"k_max": 2, "exact_budget": 100, **SAMPLING}),
]
INT_PARAMETERS = [(call, kwargs, name) for call, kwargs in INT_CALLS for name in kwargs]


@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
@pytest.mark.parametrize("call, kwargs, name", INT_PARAMETERS,
                         ids=[f"{call.__name__}-{name}" for call, _, name in INT_PARAMETERS])
def test_integer_arguments_that_are_not_ints_are_refused(call, kwargs, name, value):
    rel = cayley_graph(cyclic(4), mask_of([0, 1]))
    call(rel, **kwargs)
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
        call(rel, **{**kwargs, name: value})


def test_budget_guard():
    rng = random.Random(3)
    rel = random_relation(cyclic(10), rng)
    # 10 distinct non-empty rows: the kernel walks 10·9·8 = 720 a-tuples
    with pytest.raises(BudgetExceeded):
        count_halfgraphs_exact(rel, 3, budget=719)


@pytest.mark.parametrize("rows, k", [
    ((0b11, 0b11, 0b10, 0, 0b01), 2),  # 3 distinct non-empty rows of 5
    ((0b11, 0b11, 0b10, 0, 0b01), 4),  # fewer rows than k: nothing to walk
    ((1, 2, 4, 8, 16, 3, 5, 6), 3),
    ((0b11, 0b01), 3),  # 2 nested rows: the root 0b11 has one row to pair
    ((0b111, 0b011, 0b001), 5),  # the walk reaches depth 3 and finds no pair
])
def test_budget_gate_charges_injective_tuples_of_distinct_rows(rows, k):
    carrier = CarrierSet.full(cyclic(len(rows)), 1)
    rel = Relation(carrier, carrier, rows)
    d = len(set(rows) - {0})
    charge = math.perm(d, k)
    expected = count_halfgraphs_exact(rel, k, budget=charge).exact_count
    assert expected == brute_halfgraph_count(rel, k)
    # theta_profile goes exact exactly where the gate admits the count
    profile = theta_profile(rel, k, exact_budget=charge, samples=10)
    assert profile[-1].exact_count == expected
    if charge == 0:
        # the budget just below a zero charge is negative, refused before any work
        with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
            count_halfgraphs_exact(rel, k, budget=-1)
        with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
            theta_profile(rel, k, exact_budget=-1, samples=10)
    else:
        with pytest.raises(BudgetExceeded) as err:
            count_halfgraphs_exact(rel, k, budget=charge - 1)
        assert err.value.required == charge
        assert not theta_profile(rel, k, exact_budget=charge - 1, samples=10)[-1].is_exact


# (group, domain arity, codomain arity) for the kernel property test
KERNEL_CARRIERS = [
    (cyclic(3), 1, 1),
    (cyclic(4), 1, 1),
    (cyclic(5), 1, 1),
    (cyclic(6), 1, 1),
    (dihedral(3), 1, 1),
    (cyclic(2), 1, 2),
    (cyclic(3), 1, 2),
    (cyclic(2), 2, 2),
]
# largest |X|^k·|Y|^k the brute-force count walks per example
BRUTE_TUPLES = 70_000


@st.composite
def kernel_cases(draw):
    """(relation, k) over full or proper carriers. Each pool row (random
    masks, or nested prefixes of one ordering of Y, which are rich in
    half-graphs) goes to one domain member; the other members get a repeat
    of a pool row or stay empty. k is as large as the brute force allows."""
    group, dom_arity, cod_arity = draw(st.sampled_from(KERNEL_CARRIERS), label="carriers")
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    dom = CarrierSet.full(group, dom_arity)
    cod = CarrierSet.full(group, cod_arity)
    if draw(st.booleans(), label="proper"):
        dom = CarrierSet(group, dom_arity, mask_of(x for x in range(dom.universe) if rng.random() < 0.8) | 1)
        cod = CarrierSet(group, cod_arity, mask_of(y for y in range(cod.universe) if rng.random() < 0.8) | 1)
    xs = dom.member_indices()
    ys = cod.member_indices()
    if draw(st.booleans(), label="nested"):
        rng.shuffle(ys)
        lengths = rng.sample(range(1, len(ys) + 1), min(len(ys), rng.randint(1, 6)))
        pool = [mask_of(ys[:n]) for n in lengths]
    else:
        pool = [rng.randrange(1, cod.members + 1) & cod.members for _ in range(rng.randint(1, 6))]
    rng.shuffle(xs)
    rows = [0] * dom.universe
    for i, x in enumerate(xs):
        if i < len(pool):
            rows[x] = pool[i]
        elif rng.random() < 0.7:
            rows[x] = rng.choice(pool)
    cells = dom.size * cod.size
    k_max = max(k for k in range(1, 5) if k == 1 or cells**k <= BRUTE_TUPLES)
    return Relation(dom, cod, tuple(rows)), draw(st.integers(1, k_max), label="k")


def _charge(rel, k):
    """The gate's charge: perm(d-1, k-1) for one root branch of a
    translation-invariant relation at k >= 3 with d >= k distinct non-empty
    rows, and perm(d, k), the injective tuples of distinct rows, otherwise."""
    d = len({rel.rows[x] for x in rel.domain.member_indices()} - {0})
    if k >= 3 and d >= k and brute_is_translation_invariant(rel):
        return math.perm(d - 1, k - 1)
    return math.perm(d, k)


def _right_invariant(group, members):
    """The relation y·x^-1 in A on G×G, which no generator builds."""
    carrier = CarrierSet.full(group, 1)
    return build_relation(carrier, carrier, predicate=lambda x, y: members >> group.mul(y, group.inv(x)) & 1)


def _z5(rows, codomain=0b11111):
    z5 = cyclic(5)
    return Relation(CarrierSet.full(z5, 1), CarrierSet(z5, 1, codomain), rows)


def _z5_into_four(rows):
    return _z5(rows, codomain=0b1111)


# height 4 on four nested rows, with an empty row and with a repeated one;
# height 2 on two rows, each repeated; height 3 where the node of 0b0111 has
# the one survivor 0b0001, so no pairs, and the node of 0b1111 has the pair
# {0b0111, 0b0001}, each repeated; all rows equal; a proper codomain
# carrier that is not a prefix of the universe; and height 3 on rows of
# weights 2, 2 and 1, where the roots 0b00111 and 0b11011, each repeated,
# pair a repeated row with the single one
@settings(max_examples=100, deadline=None)
@given(kernel_cases())
@example((_z5_into_four((0b1111, 0b0111, 0, 0b0011, 0b0001)), 4))
@example((_z5_into_four((0b1111, 0b0111, 0b0011, 0b0001, 0b0111)), 4))
@example((_z5((0b00111, 0b01110, 0b00111, 0b01110, 0)), 2))
@example((_z5_into_four((0b1111, 0b0111, 0b0001, 0b0111, 0b0001)), 3))
@example((_z5((0b01101,) * 5), 2))
@example((_z5((0b10110, 0b00100, 0b10010, 0b00110, 0b10100), codomain=0b10110), 3))
@example((_z5((0b00111, 0b11011, 0b00001, 0b00111, 0b11011)), 3))
# translation-invariant: a left Cayley graph, and a right-invariant relation
# on a non-abelian group, each counted from one root branch
@example((cayley_graph(cyclic(5), 0b00111), 3))
@example((_right_invariant(dihedral(3), 0b010110), 3))
def test_kernel_matches_brute_force_and_enumeration(case):
    rel, k = case
    expected = brute_halfgraph_count(rel, k)
    assert count_halfgraphs_exact(rel, k).exact_count == expected
    witnesses = enumerate_halfgraphs(rel, k, expected + 1)
    assert len(witnesses) == expected
    assert all(w < v for w, v in zip(witnesses, witnesses[1:]))
    # the gate charges the most a-tuples the walk can visit, nothing else
    charge = _charge(rel, k)
    assert count_halfgraphs_exact(rel, k, budget=charge).exact_count == expected
    if charge:  # below a zero charge the budget is negative, a ValueError
        with pytest.raises(BudgetExceeded) as err:
            count_halfgraphs_exact(rel, k, budget=charge - 1)
        assert err.value.required == charge


INVARIANT_GROUPS = builtin_catalogue(16) + [dihedral(n) for n in (3, 5, 7, 8)] + [heisenberg(3)]


def _walked_roots(rel, k, **kwargs):
    """The count, and the roots of the outermost `_walk` call it makes."""
    with mock.patch.object(halfgraph, "_walk", wraps=_walk) as spy:
        count = count_halfgraphs_exact(rel, k, **kwargs).exact_count
    return count, list(spy.call_args_list[0].args[2])


@st.composite
def invariant_cases(draw):
    """(relation, k): a left Cayley graph, a right one (x -> x·A^-1, also
    left-invariant) or the right-invariant relation y·x^-1 in A, for a
    random A of a group of order <= 27, at k = 3 or 4."""
    group = draw(st.sampled_from(INVARIANT_GROUPS), label="group")
    members = draw(st.integers(1, (1 << group.order) - 1), label="members")
    side = draw(st.sampled_from(["left", "right", "right-invariant"]), label="side")
    if side == "right-invariant":
        rel = _right_invariant(group, members)
    else:
        rel = cayley_graph(group, members, side)
    return rel, draw(st.integers(3, 4), label="k")


@settings(max_examples=80, deadline=None)
@given(invariant_cases())
@example((cayley_graph(cyclic(4), 0b0011), 4))
@example((_right_invariant(dihedral(3), 0b010110), 4))
def test_invariant_relations_count_from_one_root(case):
    rel, k = case
    assert brute_is_translation_invariant(rel)
    d = len(set(rel.rows))
    charge = _charge(rel, k)
    count, roots = _walked_roots(rel, k, budget=charge)
    # the full walk over every root, admitted by an explicit budget
    with mock.patch.object(halfgraph, "_translation_invariant", return_value=False):
        full, full_roots = _walked_roots(rel, k, budget=math.perm(d, k))
    assert count == full
    assert full_roots == list(range(d))
    if d >= k:
        assert roots == [0] and charge == math.perm(d - 1, k - 1)
        with pytest.raises(BudgetExceeded) as err:
            count_halfgraphs_exact(rel, k, budget=charge - 1)
        assert err.value.required == charge
    if rel.group.order ** (2 * k) <= BRUTE_TUPLES:
        assert count == brute_halfgraph_count(rel, k)


# Z1 and Z2 have no relation with rows of equal size that is not invariant
@pytest.mark.parametrize("group", INVARIANT_GROUPS[2:], ids=lambda g: g.name)
def test_a_non_invariant_relation_walks_every_root(group):
    # a Cayley graph with two different rows swapped, as late as possible:
    # rows of equal size, so only the row-by-row test, run to its end, tells
    # it from an invariant relation
    cayley = cayley_graph(group, 0b1011 & (1 << group.order) - 1)
    rows = list(cayley.rows)
    for x1, x2 in reversed(list(itertools.combinations(range(group.order), 2))):
        swapped = rows[:x1] + [rows[x2]] + rows[x1 + 1:x2] + [rows[x1]] + rows[x2 + 1:]
        rel = Relation(cayley.domain, cayley.codomain, tuple(swapped))
        if not brute_is_translation_invariant(rel):
            break
    else:
        pytest.fail(f"no swap of two rows of {group.name} breaks invariance")
    d = len(set(rel.rows))
    count, roots = _walked_roots(rel, 3)
    assert roots == list(range(d))
    assert count == len(enumerate_halfgraphs(rel, 3, 10**6))
    with pytest.raises(BudgetExceeded) as err:
        count_halfgraphs_exact(rel, 3, budget=math.perm(d, 3) - 1)
    assert err.value.required == math.perm(d, 3)


def test_sidon_z64_is_exact_at_height_four_under_the_default_budget():
    z64 = cyclic(64)
    sidon = cayley_graph(z64, sidon_set(z64))
    report = count_halfgraphs_exact(sidon, 4)
    assert report.exact_count == 0
    # a random Cayley graph with |A| = 16: one root branch against the full walk
    rel = cayley_graph(z64, mask_of(random.Random(64).sample(range(64), 16)))
    with mock.patch.object(halfgraph, "_translation_invariant", return_value=False):
        full = count_halfgraphs_exact(rel, 4, budget=math.perm(64, 4)).exact_count
    assert count_halfgraphs_exact(rel, 4).exact_count == full > 0


# (group, domain arity, codomain arity) for the walk property test
WALK_CARRIERS = [
    (cyclic(4), 1, 1),
    (cyclic(6), 1, 1),
    (dihedral(3), 1, 1),
    (cyclic(3), 2, 1),
    (cyclic(3), 1, 2),
    (cyclic(2), 2, 2),
]


@st.composite
def walk_cases(draw):
    """(rows, roots, depth): rows over full or proper carriers, each drawn
    from a pool of at most 5 masks (so rows repeat, and some are empty),
    with the members whose rows are non-empty as roots, ascending."""
    group, dom_arity, cod_arity = draw(st.sampled_from(WALK_CARRIERS), label="carriers")
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    dom = CarrierSet.full(group, dom_arity)
    cod = CarrierSet.full(group, cod_arity)
    if draw(st.booleans(), label="proper"):
        dom = CarrierSet(group, dom_arity, mask_of(x for x in range(dom.universe) if rng.random() < 0.7) | 1)
        cod = CarrierSet(group, cod_arity, mask_of(y for y in range(cod.universe) if rng.random() < 0.7) | 1)
    pool = [rng.randrange(cod.members + 1) & cod.members for _ in range(rng.randint(1, 5))]
    rows = [0] * dom.universe
    for x in dom.member_indices():
        rows[x] = rng.choice(pool)
    roots = [x for x in dom.member_indices() if rows[x]]
    return rows, roots, draw(st.integers(1, 4), label="depth")


def _walk_nodes(rows, roots, depth):
    """(path, T_depth..T_1) for every tuple of roots whose T's are all
    non-empty, where T_j is the meet of the rows up to a_j minus the union
    of the rows after it; listed in lexicographic order of paths."""
    nodes = []
    for path in itertools.product(roots, repeat=depth):
        ts = [
            functools.reduce(and_, (rows[a] for a in path[:j + 1]))
            & ~functools.reduce(or_, (rows[a] for a in path[j + 1:]), 0)
            for j in range(depth)
        ]
        if all(ts):
            nodes.append((path, ts[::-1]))
    return nodes


@settings(max_examples=150, deadline=None)
@given(walk_cases())
def test_walk_yields_the_tuples_whose_ts_are_non_empty(case):
    rows, roots, depth = case
    walked = list(_walk(rows, [~row for row in rows], roots, roots, depth))
    expected = _walk_nodes(rows, roots, depth)
    assert [(path, ts) for path, ts, _ in walked] == expected
    assert all(len(set(path)) == depth for path, _ in expected)
    # a node's candidates are the roots that extend its parent
    grown = {path for path, _ in expected}
    for path, _, cands in walked:
        assert cands == [c for c in roots if path[:-1] + (c,) in grown]


# (group, arity) for carriers of 9-14 elements, past the brute force's reach
WIDE_CARRIERS = [(cyclic(n), 1) for n in range(9, 15)] + [
    (dihedral(5), 1), (dihedral(6), 1), (dihedral(7), 1), (cyclic(3), 2)]


def _transpose(rel):
    return build_relation(rel.codomain, rel.domain, pairs=[(y, x) for x, y in rel.pairs()])


@st.composite
def wide_cases(draw):
    """(relation, k) on carriers of 9-14 elements, k = 2..4: random rows of
    density 1/4 to 1/2, or nested prefixes of one ordering of Y, with repeats
    and empty rows as in kernel_cases."""
    group, arity = draw(st.sampled_from(WIDE_CARRIERS), label="carriers")
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    dom = cod = CarrierSet.full(group, arity)
    if draw(st.booleans(), label="proper"):
        dom = CarrierSet(group, arity, mask_of(x for x in range(dom.universe) if rng.random() < 0.8) | 1)
    ys = cod.member_indices()
    xs = dom.member_indices()
    rng.shuffle(xs)
    distinct = rng.randint(1, len(xs))
    if draw(st.booleans(), label="nested"):
        rng.shuffle(ys)
        pool = [mask_of(ys[:n]) for n in rng.sample(range(1, len(ys) + 1), distinct)]
    else:
        density = rng.choice((0.25, 0.5))
        pool = [mask_of(y for y in ys if rng.random() < density) for _ in range(distinct)]
    rows = [0] * dom.universe
    for i, x in enumerate(xs):
        rows[x] = pool[i] if i < len(pool) else rng.choice(pool + [0])
    return Relation(dom, cod, tuple(rows)), draw(st.integers(2, 4), label="k")


@settings(max_examples=60, deadline=None)
@given(wide_cases())
def test_kernel_matches_enumeration_and_transpose_on_wide_carriers(case):
    rel, k = case
    limit = 10**6
    count = count_halfgraphs_exact(rel, k).exact_count
    witnesses = enumerate_halfgraphs(rel, k, limit)
    assert count == len(witnesses) < limit
    # reversing both index tuples turns a half-graph of S into one of S^T
    flipped = _transpose(rel)
    assert count_halfgraphs_exact(flipped, k).exact_count == count
    reversed_witnesses = sorted(w[2 * k - 1:k - 1:-1] + w[k - 1::-1] for w in witnesses)
    assert enumerate_halfgraphs(flipped, k, limit) == reversed_witnesses


def test_sampling_deterministic_and_zero_on_stable_input():
    z8 = cyclic(8)
    rel = cayley_graph(z8, mask_of([0, 4]))
    r1 = sample_halfgraphs(rel, 2, 500, seed=42)
    r2 = sample_halfgraphs(rel, 2, 500, seed=42)
    assert r1 == r2
    assert r1.estimate == 0
    assert r1.confidence_interval[0] == 0
    full = build_relation(CarrierSet.full(z8, 1), CarrierSet.full(z8, 1),
                          predicate=lambda x, y: True)
    rf = sample_halfgraphs(full, 2, 200, seed=0)
    assert rf.estimate == 0 and rf.confidence_interval[0] <= 0 <= rf.confidence_interval[1]


def test_sampling_interval_brackets_exact_value():
    rel = linear_order_relation(cyclic(36), 6)
    exact = count_halfgraphs_exact(rel, 2)
    est = sample_halfgraphs(rel, 2, 100_000, seed=9, confidence=0.95)
    lo, hi = est.confidence_interval
    assert lo <= exact.theta_group <= hi


def test_the_seeded_sampler_reads_as_pinned():
    # One stream, random.Random(derive_seed(seed, 0)), 256 a-tuples a chunk,
    # across a chunk boundary: a change to the seeding or the draw order shows here.
    rel = linear_order_relation(cyclic(16), 6)
    est = sample_halfgraphs(rel, 2, 3 * _CHUNK + 1, seed=3)
    assert (est.estimate, est.theta_carrier, est.samples) == (Fraction(14067, 12599296), Fraction(521, 9228), 769)
    lo, hi = est.confidence_interval
    assert lo <= est.estimate <= hi
    # theta_profile samples height k with seed derive_seed(seed, k), derived again for the stream
    entry = theta_profile(rel, 3, exact_budget=10, samples=300, seed=7)[1]
    assert entry.exact_count is None
    assert (entry.k, entry.estimate, entry.theta_carrier) == (2, Fraction(471, 409600), Fraction(157, 2700))
    with pytest.raises(TypeError):
        sample_halfgraphs(rel, 2, 10, 3, worker_count=1)


SCORE_GROUPS = builtin_catalogue(8) + [dihedral(3)]


@st.composite
def score_cases(draw):
    """(relation, k) on random carriers of a group of order <= 8, with
    |X|^k·|Y|^k at most BRUTE_TUPLES, and a random relation between them."""
    group = draw(st.sampled_from(SCORE_GROUPS), label="group")
    k = draw(st.integers(1, 4), label="k")
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    cells = int(BRUTE_TUPLES ** (1 / k))
    nx = rng.randint(1, min(group.order, cells))
    ny = rng.randint(1, min(group.order, cells // nx))
    dom = CarrierSet(group, 1, mask_of(rng.sample(range(group.order), nx)))
    cod = CarrierSet(group, 1, mask_of(rng.sample(range(group.order), ny)))
    density = rng.choice((0.3, 0.5, 0.8))
    return build_relation(dom, cod, predicate=lambda x, y: rng.random() < density), k


@settings(max_examples=80, deadline=None)
@given(score_cases())
def test_mean_score_over_all_a_tuples_is_theta_carrier(case):
    rel, k = case
    xs = rel.domain.member_indices()
    ny = rel.codomain.size
    tuples = list(itertools.product(xs, repeat=k))
    cols = [[rel.rows[x] for x in col] for col in zip(*tuples)]
    expected = Fraction(brute_halfgraph_count(rel, k), len(tuples) * ny**k)
    assert Fraction(_score_chunk(cols), len(tuples) * ny**k) == expected
    # the T_j are disjoint subsets of Y, so each score is at most (|Y|/k)^k
    for a in random.Random(k).sample(tuples, min(len(tuples), 50)):
        assert k**k * _score_chunk([[rel.rows[x]] for x in a]) <= ny**k


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_equal_domain_rows_sample_the_exact_theta(k):
    # every a-tuple scores the same, so each estimate is exact
    z7 = cyclic(7)
    rel = Relation(CarrierSet(z7, 1, 0b1011011), CarrierSet(z7, 1, 0b1101110),
                   tuple(0b0101100 if x in (0, 1, 3, 4, 6) else 0 for x in range(7)))
    exact = count_halfgraphs_exact(rel, k).theta_group
    for seed in range(5):
        est = sample_halfgraphs(rel, k, 40, seed=seed)
        assert est.estimate == est.theta_group == exact


def test_sampling_across_chunk_boundaries():
    rel = linear_order_relation(cyclic(16), 6)
    samples = 3 * _CHUNK + 1
    est = sample_halfgraphs(rel, 2, samples, seed=3)
    assert est == sample_halfgraphs(rel, 2, samples, seed=3)
    assert est.samples == samples
    lo, hi = est.confidence_interval
    assert lo <= est.estimate <= hi


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sampled_interval_stays_in_the_score_range(k):
    # a score lies in [0, k^-k]; on full carriers of arity 1 theta_group = theta_carrier
    rel = random_relation(cyclic(6), random.Random(k))
    for seed in range(5):
        lo, hi = sample_halfgraphs(rel, k, 3, seed=seed).confidence_interval
        assert 0 <= lo <= hi <= Fraction(1, k**k)


def test_theta_profile_monotone_and_flags():
    rng = random.Random(31)
    rel = random_relation(cyclic(8), rng)
    prof = theta_profile(rel, 4)
    assert [r.k for r in prof] == [1, 2, 3, 4]
    exact = [r.theta_group for r in prof if r.is_exact]
    assert all(exact[i + 1] <= exact[i] for i in range(len(exact) - 1))
    small_budget = theta_profile(rel, 3, exact_budget=10, samples=50, seed=1)
    assert not small_budget[2].is_exact and small_budget[2].samples == 50


def test_perturbation_bound_property():
    # theta_k(S xor E) <= theta_k(S) + k^2 * eta for an exact-count edit set
    rng = random.Random(77)
    for _ in range(25):
        q = rng.randrange(4, 11)
        group = cyclic(q)
        rel = random_relation(group, rng)
        flips = rng.randrange(1, q * q // 4 + 1)
        eta = Fraction(flips, q * q)
        perturbed = perturb_relation(rel, eta, seed=rng.randrange(2**32))
        assert relation_algebra("symdiff", rel, perturbed).edge_count == flips
        for k in (2, 3):
            base = count_halfgraphs_exact(rel, k).theta_group
            after = count_halfgraphs_exact(perturbed, k).theta_group
            assert after <= base + k * k * eta


def test_nonabelian_relation_support():
    d4 = dihedral(4)
    rel = cayley_graph(d4, mask_of([0, 1]))
    assert count_halfgraphs_exact(rel, 2).exact_count == brute_halfgraph_count(rel, 2)
