"""group-core: recipes, words, subgroups, cosets."""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupstab import (
    AxiomViolation,
    CrossGroupElement,
    builtin_catalogue,
    count_halfgraphs_exact,
    cyclic,
    dihedral,
    evaluate,
    exponent_and_orders,
    format_cayley_table,
    from_cayley_table,
    heisenberg,
    left_cosets,
    linear_order_relation,
    load_cayley_table,
    make_group,
    product,
    subgroup,
    subgroups_up_to_index,
)
from groupstab.bits import iter_bits, mask_of
from groupstab.groups import closure, parse_cayley_table

from oracles import (
    brute_closure,
    brute_subgroup_masks,
    ref_cyclic,
    ref_dihedral,
    ref_heisenberg,
    ref_product,
)

CLOSURE_GROUPS = builtin_catalogue(16) + [heisenberg(3)]


def test_cyclic_and_product_basics():
    z5 = cyclic(5)
    assert z5.order == 5 and z5.identity == 0
    g = make_group({"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 4}]})
    assert g.order == 8
    assert g.name == "Z2xZ4"


def test_cyclic_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclic(0)


def test_bad_cayley_table_names_failing_axiom():
    # Z3 table with one associativity-breaking entry
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    table[2][2] = 2
    with pytest.raises(AxiomViolation) as err:
        from_cayley_table(table)
    assert err.value.axiom in ("associativity", "inverse")
    assert err.value.witness


def test_identity_must_sit_at_index_zero():
    # a valid Z2 table shifted so the identity is element 1
    with pytest.raises(AxiomViolation) as err:
        from_cayley_table([[1, 0], [0, 1]])
    assert err.value.axiom == "identity"


def test_evaluate_words():
    z5 = cyclic(5)
    assert evaluate(z5, [(z5.element(2), 1), (z5.element(4), 1)]).index == 1
    z6 = cyclic(6)
    assert evaluate(z6, [(z6.element(4), -1)]).index == 2
    assert evaluate(z6, []).index == 0


def test_evaluate_rejects_cross_group_elements():
    z5, z6 = cyclic(5), cyclic(6)
    with pytest.raises(CrossGroupElement):
        evaluate(z5, [(z6.element(1), 1)])
    with pytest.raises(ValueError):
        evaluate(z5, [(z5.element(1), 2)])


def test_exponent_and_orders():
    assert exponent_and_orders(product(cyclic(2), cyclic(4)))[0] == 4
    assert exponent_and_orders(product(cyclic(3), cyclic(3)))[0] == 3
    _, orders = exponent_and_orders(cyclic(6))
    assert orders == {0: 1, 1: 6, 2: 3, 3: 2, 4: 3, 5: 6}


def test_associativity_exhaustive_small_groups():
    for g in [cyclic(7), product(cyclic(2), cyclic(4)), dihedral(4), heisenberg(2)]:
        assert g.order <= 16
        for a in range(g.order):
            for b in range(g.order):
                ab = g.mul(a, b)
                for c in range(g.order):
                    assert g.mul(ab, c) == g.mul(a, g.mul(b, c))


def test_associativity_through_word_evaluation():
    g = dihedral(4)
    for a in range(g.order):
        for b in range(g.order):
            for c in range(g.order):
                left = evaluate(g, [(g.element(a), 1), (g.element(b), 1), (g.element(c), 1)])
                ab = evaluate(g, [(g.element(a), 1), (g.element(b), 1)])
                bc = evaluate(g, [(g.element(b), 1), (g.element(c), 1)])
                assert left.index == g.mul(ab.index, c) == g.mul(a, bc.index)


def test_subgroups_z4():
    subs = subgroups_up_to_index(cyclic(4), 2)
    assert [s.member_indices() for s in subs] == [[0, 1, 2, 3], [0, 2]]


def test_subgroups_klein_four():
    subs = subgroups_up_to_index(product(cyclic(2), cyclic(2)), 2)
    assert len(subs) == 4  # whole group and three order-2 subgroups
    assert [s.index_in_parent for s in subs] == [1, 2, 2, 2]


def test_subgroups_z3xz3():
    subs = subgroups_up_to_index(product(cyclic(3), cyclic(3)), 3)
    assert len(subs) == 5
    assert sum(1 for s in subs if s.index_in_parent == 3) == 4


def test_subgroup_enumeration_complete_vs_brute_force():
    for g in builtin_catalogue(16):
        expected = brute_subgroup_masks(g)
        got = {s.members for s in subgroups_up_to_index(g, g.order)}
        assert got == expected, g.name


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_closure_matches_fixed_point_oracle(data):
    g = data.draw(st.sampled_from(CLOSURE_GROUPS), label="group")
    # a few generators reach proper subgroups; a random half of G rarely does
    elems = data.draw(st.lists(st.integers(0, g.order - 1), max_size=4), label="seed")
    seed = mask_of(elems)
    assert closure(g, seed) == brute_closure(g, seed)
    assert closure(g, elems) == brute_closure(g, seed)


@pytest.mark.parametrize(
    "p, n, expected",
    [(2, 5, 187), (3, 3, 14), (2, 6, 715)],
)
def test_elementary_abelian_subgroup_counts_up_to_index_four(p, n, expected):
    # index p^j subgroups of Z_p^n number the Gaussian binomial [n, j]_p
    g = product(*(cyclic(p) for _ in range(n)))
    subs = subgroups_up_to_index(g, 4)
    assert len(subs) == expected
    assert all(s.index_in_parent <= 4 for s in subs)


def test_subgroups_sorted_by_index_then_members():
    subs = subgroups_up_to_index(product(cyclic(2), cyclic(2)), 4)
    keys = [(s.index_in_parent, tuple(s.member_indices())) for s in subs]
    assert keys == sorted(keys)


def test_left_cosets_partition():
    z6 = cyclic(6)
    h = subgroup(z6, [0, 3])
    cosets = left_cosets(z6, h)
    assert cosets[0] == 0b001001  # identity block first
    assert len(cosets) == 3
    union = 0
    for a in cosets:
        for b in cosets:
            assert a is b or not (a & b) or a == b
        union |= a
    assert union == (1 << 6) - 1
    assert left_cosets(z6, subgroup(z6, range(6))) == [(1 << 6) - 1]


def test_left_cosets_nonabelian_blocks_equal_size():
    d4 = dihedral(4)
    for sub in subgroups_up_to_index(d4, 8):
        blocks = left_cosets(d4, sub)
        assert len(blocks) == sub.index_in_parent
        assert all(b.bit_count() == sub.size for b in blocks)


def test_subgroup_validation_rejects_non_subgroups():
    z6 = cyclic(6)
    with pytest.raises(ValueError):
        subgroup(z6, [0, 1])  # not closed
    with pytest.raises(ValueError):
        subgroup(z6, [1, 4])  # no identity


def test_cayley_table_file_roundtrip(tmp_path):
    d4 = dihedral(4)
    path = tmp_path / "d4.txt"
    path.write_text(format_cayley_table(d4))
    loaded = load_cayley_table(path)
    assert loaded.order == 8
    for a in range(8):
        for b in range(8):
            assert loaded.mul(a, b) == d4.mul(a, b)


def test_builtin_catalogue_contents():
    groups = builtin_catalogue(24)
    names = {g.name for g in groups}
    assert {"Z1", "Z24", "Z2xZ2", "Z2xZ2xZ2xZ2", "Z3xZ3", "D4", "D6"} <= names
    assert all(g.order <= 24 for g in groups)


def test_dihedral_structure():
    d4 = dihedral(4)
    exponent, orders = exponent_and_orders(d4)
    assert exponent == 4
    assert sorted(orders.values()) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_heisenberg_structure():
    h3 = heisenberg(3)
    assert h3.order == 27 and not h3.is_abelian
    assert exponent_and_orders(h3)[0] == 3


def test_subgroup_enumeration_budget_guard():
    from groupstab import BudgetExceeded

    g = product(cyclic(2), cyclic(2), cyclic(2), cyclic(2))
    with pytest.raises(BudgetExceeded) as err:
        subgroups_up_to_index(g, 16, budget=5)
    assert err.value.budget == 5 and err.value.required > 5


Z3_TABLE = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


@pytest.mark.parametrize(
    "build, recipe, name, digest",
    [
        (lambda: cyclic(12), "cyclic(12)", "Z12", "3b7fb77412d3"),
        (lambda: product(cyclic(2), cyclic(6)), "product(cyclic(2),cyclic(6))", "Z2xZ6", "6752adacabd4"),
        (lambda: product(cyclic(2), dihedral(3)),
         "product(cyclic(2),cayley_table(6,57197bee62ee))", "Z2xD3", "eab613874839"),
        (lambda: dihedral(4), "cayley_table(8,3bd0d8473998)", "D4", "72cd34ed2847"),
        (lambda: heisenberg(3), "cayley_table(27,5abd4659daf0)", "H3", "3489db715571"),
        (lambda: from_cayley_table(Z3_TABLE), "cayley_table(3,fc2cc19d9b4c)", "T3_fc2c", "3ce8a6773a05"),
    ],
)
def test_recipes_names_and_hashes_are_pinned(build, recipe, name, digest):
    # saved relation files embed the recipe hash, so these strings must never change
    g = build()
    assert (g.recipe, g.name, g.recipe_hash()) == (recipe, name, digest)


@st.composite
def small_groups(draw):
    """A (groupstab group, oracle group) pair of order <= 60."""
    leaf = st.one_of(
        st.integers(1, 12).map(lambda n: (cyclic(n), ref_cyclic(n))),
        st.integers(1, 6).map(lambda n: (dihedral(n), ref_dihedral(n))),
        st.sampled_from([2, 3]).map(lambda p: (heisenberg(p), ref_heisenberg(p))),
    )
    parts = draw(st.lists(leaf, min_size=1, max_size=3).filter(
        lambda ps: math.prod(g.order for g, _ in ps) <= 60))
    if len(parts) == 1 and draw(st.booleans()):
        return parts[0]
    return product(*(g for g, _ in parts)), ref_product(*(r for _, r in parts))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arithmetic_matches_the_oracle(data):
    g, ref = data.draw(small_groups(), label="group")
    assert g.order == ref.order
    n = g.order
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               min_size=1, max_size=60), label="pairs")
    assert [g.mul(a, b) for a, b in pairs] == [ref.mul(a, b) for a, b in pairs]
    assert [g.inv(a) for a in range(n)] == [ref.inv(a) for a in range(n)]
    assert g.is_abelian == ref.is_abelian


def test_groups_survive_a_pickle_round_trip():
    for g in [cyclic(6), product(cyclic(2), dihedral(3)), heisenberg(3), cyclic(9)]:
        g.is_abelian  # a built table travels with the group
        back = pickle.loads(pickle.dumps(g))
        assert (back.order, back.recipe, back.name, back.recipe_hash()) == (
            g.order, g.recipe, g.name, g.recipe_hash())
        assert back._mul_table() == g._mul_table()
        assert [back.inv(a) for a in range(g.order)] == [g.inv(a) for a in range(g.order)]
    fresh = pickle.loads(pickle.dumps(cyclic(7)))
    assert fresh._table is None and fresh.mul(5, 4) == 2


def test_index_space_use_builds_no_table():
    z = cyclic(2000)
    rel = linear_order_relation(z, 40)
    assert count_halfgraphs_exact(rel, 2).exact_count > 0
    assert z._table is None


@pytest.mark.parametrize("text", ["2 junk\n0 1\n1 0\n", "2 2\n0 1\n1 0\n"])
def test_cayley_table_header_is_the_order_alone(text):
    with pytest.raises(ValueError):
        parse_cayley_table(text)
    assert parse_cayley_table("2\n0 1\n1 0\n").order == 2
