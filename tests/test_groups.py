"""group-core: recipes, words, subgroups, cosets."""

import ast
import inspect
import math
import pickle
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupstab import (
    AxiomViolation,
    BudgetExceeded,
    CrossGroupElement,
    ap_census,
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
from groupstab import groups
from groupstab.bits import iter_bits, mask_of
from groupstab.groups import _coset_reader, _grow, closure, parse_cayley_table

from oracles import (
    brute_closure,
    brute_has_inverses,
    brute_is_associative,
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


TABLE_GROUPS = [g for g in builtin_catalogue(16) if g.order >= 3] + [heisenberg(2)]


@st.composite
def swapped_group_tables(draw):
    """A group table of order <= 16 with two entries of one row swapped, both
    off the identity row and column."""
    group = draw(st.sampled_from(TABLE_GROUPS), label="group")
    table = [list(row) for row in group._mul_table()]
    nonzero = st.integers(1, group.order - 1)
    a, b = draw(nonzero, label="row"), draw(nonzero, label="column")
    c = draw(nonzero.filter(lambda c: c != b), label="other column")
    table[a][b], table[a][c] = table[a][c], table[a][b]
    return table


@st.composite
def tables_with_identity(draw):
    """A random table on <= 6 elements whose row and column 0 are the identity's."""
    q = draw(st.integers(1, 6), label="order")
    entry = st.integers(0, q - 1)
    return [list(range(q))] + [[x] + draw(st.lists(entry, min_size=q - 1, max_size=q - 1))
                               for x in range(1, q)]


@st.composite
def relabelled_group_tables(draw):
    """A group table of order <= 16 with its elements renamed, 0 kept: a table
    that both checks accept, with generators other than the catalogue's."""
    group = draw(st.sampled_from(TABLE_GROUPS), label="group")
    rename = [0] + draw(st.permutations(range(1, group.order)), label="renaming")
    table = [[0] * group.order for _ in range(group.order)]
    for a, row in enumerate(group._mul_table()):
        for b, ab in enumerate(row):
            table[rename[a]][rename[b]] = rename[ab]
    return table


@settings(max_examples=300, deadline=None)
@given(swapped_group_tables() | tables_with_identity() | relabelled_group_tables())
def test_cayley_validation_matches_the_brute_force_axioms(table):
    if not brute_is_associative(table):
        expected = "associativity"
    elif not brute_has_inverses(table):
        expected = "inverse"
    else:
        expected = None
    try:
        group = from_cayley_table(table)
    except AxiomViolation as err:
        assert err.axiom == expected
        if err.axiom == "associativity":
            x, a, c = err.witness
            assert table[table[x][a]][c] != table[x][table[a][c]]
    else:
        assert expected is None
        assert group._mul_table() == table


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


def test_orders_of_cyclic_products_build_no_table():
    z = cyclic(20000)
    exponent, orders = exponent_and_orders(z)
    assert z._table is None and z.is_abelian
    assert exponent == 20000
    assert (orders[0], orders[1], orders[8000], orders[12345]) == (1, 20000, 5, 4000)
    g = product(cyclic(4), cyclic(6), cyclic(9))
    assert exponent_and_orders(g)[0] == 36 and g.is_abelian
    assert g._table is None and all(f._table is None for f in g.factors)


def test_orders_from_digits_match_the_table_walk():
    """element_order reads a product of cyclic groups' orders off its digits
    and walks the table elsewhere; both agree with a walk of the table."""
    nested = product(product(cyclic(2), cyclic(3)), cyclic(4))
    for group in builtin_catalogue(24) + [dihedral(5), heisenberg(3), product(cyclic(2), dihedral(3)), nested]:
        _, orders = exponent_and_orders(group)
        for a in group.elements():
            x, n = a, 1
            while x != 0:
                x = group.mul(x, a)
                n += 1
            assert orders[a] == n, (group.name, a)


def _layout_assigners(tree: ast.AST) -> list[int]:
    """Lines that assign an attribute `_layout`, or set it by name through
    setattr or object.__setattr__."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            named = any(isinstance(arg, ast.Constant) and arg.value == "_layout" for arg in node.args)
        else:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
            named = any(isinstance(sub, ast.Attribute) and sub.attr == "_layout"
                        for target in targets for sub in ast.walk(target))
        if named:
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_group_constructors_set_a_digit_layout():
    """FiniteGroup._layout decides how a census moves rows, so one module
    sets it: no module of src/ but groups.py assigns it, and FiniteGroup
    takes no layout argument that a caller could get wrong."""
    src = Path(groups.__file__).resolve().parents[1]
    assigned = {path.relative_to(src).as_posix(): lines for path in sorted(src.rglob("*.py"))
                if (lines := _layout_assigners(ast.parse(path.read_text())))}
    assert list(assigned) == ["groupstab/groups.py"], assigned
    assert not any("layout" in name for name in inspect.signature(groups.FiniteGroup).parameters)
    assert _layout_assigners(ast.parse("g._layout = 1\na, b._layout = 1, 2\nsetattr(g, '_layout', 1)")) == [1, 2, 3]


def test_associativity_exhaustive_small_groups():
    for g in [cyclic(7), product(cyclic(2), cyclic(4)), dihedral(4), heisenberg(2)]:
        assert g.order <= 16
        assert brute_is_associative(g._mul_table())


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


def test_searched_subgroups_pass_the_subgroup_check():
    """The search returns closures unchecked; each must still be accepted by
    subgroup(), which checks the identity and that the set is its own closure."""
    groups = builtin_catalogue(24) + [dihedral(5), dihedral(8), heisenberg(3),
                                      product(cyclic(2), dihedral(3))]
    for g in groups:
        for s in subgroups_up_to_index(g, g.order):
            checked = subgroup(g, s.members)
            assert (checked.members, checked.index_in_parent) == (s.members, s.index_in_parent), g.name


def test_subgroup_accepts_exactly_the_subgroups():
    for g in builtin_catalogue(8) + [dihedral(3)]:
        expected = brute_subgroup_masks(g)
        for mask in range(1, 1 << g.order, 2):  # every mask holding the identity
            if mask in expected:
                sub = subgroup(g, mask)
                assert (sub.members, sub.index_in_parent) == (mask, g.order // mask.bit_count())
            else:
                low = min(iter_bits(closure(g, mask) & ~mask))
                with pytest.raises(ValueError, match=f"adds element {low}$"):
                    subgroup(g, mask)


@pytest.mark.parametrize("seed", [1 << 4, 1 << 7 | 1, -1])
def test_closure_refuses_seed_bits_outside_the_group(seed):
    z4 = cyclic(4)
    with pytest.raises(ValueError, match="the element universe"):
        closure(z4, seed)
    with pytest.raises(ValueError, match="the element universe"):
        subgroup(z4, seed | 1)


@pytest.mark.parametrize("members, message", [
    ([0, 1.5], "subgroup members entry 1.5 outside the element universe 0..3"),
    ([0, -1], "subgroup members entry -1 outside the element universe 0..3"),
    ([0, True], "subgroup members entry True outside the element universe 0..3"),
    (True, "subgroup members must be an int, got True"),
], ids=repr)
def test_subgroup_refuses_a_member_that_is_not_an_element_index(members, message):
    """A float raised a raw TypeError, -1 "negative shift count", and a bool
    was read as the index 1 or as the mask {0}."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        subgroup(cyclic(4), members)
    with pytest.raises(ValueError, match=f"^{re.escape(message.replace('subgroup members', 'closure seed'))}$"):
        closure(cyclic(4), members)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_closure_matches_fixed_point_oracle(data):
    g = data.draw(st.sampled_from(CLOSURE_GROUPS), label="group")
    # a few generators reach proper subgroups; a random half of G rarely does
    elems = data.draw(st.lists(st.integers(0, g.order - 1), max_size=4), label="seed")
    seed = mask_of(elems)
    assert closure(g, seed) == brute_closure(g, seed)
    assert closure(g, elems) == brute_closure(g, seed)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_growth_by_cosets_matches_fixed_point_oracle(data):
    """_grow extends a subgroup H by a few elements through H's left cosets,
    not element by element; it must still reach the brute-force closure."""
    g = data.draw(st.sampled_from(CLOSURE_GROUPS), label="group")
    elems = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3), label="H from")
    h = brute_closure(g, mask_of(elems))
    extra = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3), label="extra")
    members = list(iter_bits(h))
    grown = _grow(g._mul_table(), members, _coset_reader(g._mul_table(), members), extra)
    assert grown == brute_closure(g, h | mask_of(extra))


def extension_lattice(group) -> set[int]:
    """Every subgroup, as the fixed point of H -> <H, g> over all H found and
    all g, each closure taken by the brute-force oracle: any subgroup is
    reached by adding its elements one at a time."""
    found = {1}
    frontier = [1]
    while frontier:
        h = frontier.pop()
        for g in range(group.order):
            if not h >> g & 1:
                k = brute_closure(group, h | 1 << g)
                if k not in found:
                    found.add(k)
                    frontier.append(k)
    return found


def listing(subs):
    return [(s.index_in_parent, s.members) for s in subs]


# Builders, so each test case walks a fresh group that keeps no lattice yet:
# the catalogue groups of order <= 16 first, then groups beyond brute force.
CATALOGUE_16 = len(builtin_catalogue(16))
WALK_BUILDS = [lambda i=i: builtin_catalogue(16)[i] for i in range(CATALOGUE_16)] + [
    lambda: dihedral(5),
    lambda: heisenberg(3),
    lambda: product(cyclic(2), dihedral(3)),
    lambda: parse_cayley_table(format_cayley_table(dihedral(7))),  # no digit layout
]
WALK_LATTICES: dict[int, set[int]] = {}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_coset_grown_walk_lists_the_lattice_cut_at_each_index(data):
    """The walk at max_index m, on a fresh group, lists the subgroups of
    index <= m of the whole lattice: brute_subgroup_masks on the catalogue
    groups of order <= 16, extension_lattice on D5, H3, Z2xD3 and a D7
    loaded from its table."""
    i = data.draw(st.integers(0, len(WALK_BUILDS) - 1), label="group")
    g = WALK_BUILDS[i]()
    if i not in WALK_LATTICES:
        oracle = brute_subgroup_masks if i < CATALOGUE_16 else extension_lattice
        WALK_LATTICES[i] = oracle(WALK_BUILDS[i]())
    m = data.draw(st.integers(1, g.order), label="max_index")
    expected = sorted(((g.order // mask.bit_count(), mask) for mask in WALK_LATTICES[i]
                       if mask.bit_count() * m >= g.order),
                      key=lambda pair: (pair[0], tuple(iter_bits(pair[1]))))
    assert listing(subgroups_up_to_index(g, m)) == expected


MEMO_BUILDS = [lambda: cyclic(12), lambda: product(cyclic(2), cyclic(2), cyclic(2)), lambda: dihedral(6),
               lambda: heisenberg(3), lambda: product(cyclic(2), dihedral(3))]


@pytest.mark.parametrize("build", MEMO_BUILDS, ids=["Z12", "Z2^3", "D6", "H3", "Z2xD3"])
def test_a_kept_lattice_answers_as_a_fresh_walk(build):
    """The group keeps each walked lattice by its power subgroup P: a warm
    call lists what a cold call on a fresh group lists, at every max_index,
    and a changed returned list changes no later answer."""
    warm = build()
    for m in range(1, warm.order + 1):
        subgroups_up_to_index(warm, m)
    for m in range(1, warm.order + 1):
        assert listing(subgroups_up_to_index(warm, m)) == listing(subgroups_up_to_index(build(), m)), m
    subs = subgroups_up_to_index(warm, warm.order)
    before = listing(subs)
    subs.reverse()
    subs.pop()
    assert listing(subgroups_up_to_index(warm, warm.order)) == before


@pytest.mark.parametrize("build", MEMO_BUILDS, ids=["Z12", "Z2^3", "D6", "H3", "Z2xD3"])
@pytest.mark.parametrize("max_index", [2, 4, 100])
def test_a_kept_lattice_charges_the_budget_as_its_walk_did(build, max_index):
    """With C the closures the walk charged, budgets 0, C-1 and C raise the
    same BudgetExceeded on a warm group as on a cold one, or succeed on both;
    a refused walk keeps nothing."""
    warm = build()
    m = min(max_index, warm.order)
    subgroups_up_to_index(warm, m)
    (_, charged), = warm._lattices.values()
    for budget in sorted({0, max(charged - 1, 0), charged}):
        cold = build()
        outcomes = []
        for g in (warm, cold):
            try:
                outcomes.append(listing(subgroups_up_to_index(g, m, budget=budget)))
            except BudgetExceeded as err:
                outcomes.append((err.required, err.budget, str(err)))
        assert outcomes[0] == outcomes[1], budget
        assert isinstance(outcomes[0], list) == (budget >= charged)
        assert bool(cold._lattices) == (budget >= charged)


@pytest.mark.parametrize("build", MEMO_BUILDS + [lambda: cyclic(64), lambda: dihedral(16)],
                         ids=["Z12", "Z2^3", "D6", "H3", "Z2xD3", "Z64", "D16"])
def test_a_repeated_search_keeps_the_power_subgroup(build):
    """The group keeps P per exponent e = lcm(1..max_index) mod |G|: a repeated
    search, and one at another max_index with the same e (lcm(1..5) =
    lcm(1..6) = 60), build no P, and every search lists what it lists on a
    fresh group."""
    warm = build()
    searches = (4, 4, 5, 6)
    with mock.patch.object(groups, "_power_subgroup", wraps=groups._power_subgroup) as powers:
        listings = [listing(subgroups_up_to_index(warm, m)) for m in searches]
    exponents = {math.lcm(*range(1, m + 1)) % warm.order for m in searches}
    assert powers.call_count == len(exponents) == len(warm._powers)
    assert listings == [listing(subgroups_up_to_index(build(), m)) for m in searches]


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


LATTICE_GROUPS = builtin_catalogue(24) + [
    dihedral(5), dihedral(8), dihedral(12), dihedral(16), heisenberg(3),
    product(cyclic(2), dihedral(3)),
]


@pytest.mark.parametrize("g", LATTICE_GROUPS, ids=lambda g: g.name)
def test_search_from_the_power_subgroup_is_the_lattice_cut_at_each_index(g):
    """The search starts at P = <g^e>, e = lcm(1..m), and must still list every
    subgroup of index <= m of the whole lattice, in (index, members) order."""
    if g.order <= 16:
        lattice = brute_subgroup_masks(g)
    else:
        lattice = [s.members for s in subgroups_up_to_index(g, g.order)]
    for m in range(1, g.order + 1):
        cut = [(g.order // mask.bit_count(), mask) for mask in lattice
               if mask.bit_count() * m >= g.order]
        expected = sorted(cut, key=lambda pair: (pair[0], tuple(iter_bits(pair[1]))))
        got = [(s.index_in_parent, s.members) for s in subgroups_up_to_index(g, m)]
        assert got == expected, m


def test_search_charges_only_the_closures_above_the_power_subgroup():
    # In Z64 at index <= 4, P = <g^12> = <4> has order 16 and is built from
    # one uncharged closure; the walk then closes P with 1, 2 and 3. From {e}
    # the same search charges 63 closures.
    z64 = cyclic(64)
    subs = subgroups_up_to_index(z64, 4, budget=3)
    assert [(s.index_in_parent, s.members) for s in subs] == [
        (1, (1 << 64) - 1), (2, mask_of(range(0, 64, 2))), (4, mask_of(range(0, 64, 4)))
    ]
    with pytest.raises(BudgetExceeded) as err:
        subgroups_up_to_index(z64, 4, budget=2)
    assert (err.value.required, err.value.budget) == (3, 2)
    # H5 has exponent 5, so at index <= 4 P is the whole group: nothing to charge
    assert [s.index_in_parent for s in subgroups_up_to_index(heisenberg(5), 4, budget=0)] == [1]


@pytest.mark.parametrize("g", LATTICE_GROUPS, ids=lambda g: g.name)
def test_the_walk_builds_each_subgroup_once(g):
    """From the power subgroup P of every max_index, the walk lists each
    subgroup above P once: along its greedy generators, never again."""
    exponents = {math.lcm(*range(1, m + 1)) % g.order for m in range(1, g.order + 1)}
    for base in {groups._power_subgroup(g, e) for e in exponents}:
        masks, _ = groups._subgroups_above(g, base, 10**7)
        assert len(masks) == len(set(masks)), base
        assert all(mask & base == base for mask in masks)


# The walk's candidate closures, one per greedy step it tries; the walk that
# extended every subgroup by every left coset charged the count after the #.
WALK_CHARGES = [
    (lambda: product(*[cyclic(2)] * 4), 4, 65),  # 225
    (lambda: product(*[cyclic(3)] * 3), 4, 54),  # 156
    (lambda: heisenberg(3), 4, 54),  # 138
    (lambda: dihedral(6), 4, 16),  # 55
    (lambda: dihedral(16), 4, 9),  # 22
    (lambda: product(cyclic(4), cyclic(8)), 4, 24),  # 57
    (lambda: dihedral(16), 32, 45),  # 364
]


@pytest.mark.parametrize("build, max_index, charged", WALK_CHARGES,
                         ids=["Z2^4", "Z3^3", "H3", "D6", "D16", "Z4xZ8", "D16-lattice"])
def test_the_walk_charges_its_greedy_candidates(build, max_index, charged):
    subgroups_up_to_index(build(), max_index, budget=charged)
    with pytest.raises(BudgetExceeded) as err:
        subgroups_up_to_index(build(), max_index, budget=charged - 1)
    assert (err.value.required, err.value.budget) == (charged, charged - 1)


@pytest.mark.parametrize("search", [
    lambda g, budget: subgroups_up_to_index(g, g.order, budget=budget),
    lambda g, budget: subgroups_up_to_index(g, 4, budget=budget),
])
def test_negative_search_budget_is_refused_before_any_work(search):
    z64 = cyclic(64)
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        search(z64, -1)
    assert z64._table is None  # the table is built on first use
    # a budget of 0 is valid: in Z2 no walk needs a charged closure
    assert len(search(cyclic(2), 0)) == 2


@pytest.mark.parametrize("budget", [2.5, 3.0, True, False, "3", None], ids=repr)
def test_search_budget_must_be_an_int(budget):
    with pytest.raises(ValueError, match=f"^budget must be an int, got {re.escape(repr(budget))}$"):
        subgroups_up_to_index(cyclic(6), 4, budget=budget)


# each call with int arguments that it accepts, and the name of each one
INT_CALLS = [
    (lambda n: cyclic(n), 3, "n"),
    (lambda n: dihedral(n), 3, "n"),
    (lambda p: heisenberg(p), 3, "p"),
    (lambda m: subgroups_up_to_index(cyclic(6), m), 3, "max_index"),
    (lambda width: linear_order_relation(cyclic(6), width), 3, "width"),
    (lambda m: ap_census(cyclic(6), mask_of([0, 1, 2]), m, 1), 3, "m"),
]


@pytest.mark.parametrize("value", [2.5, 2.0, True, False, "3", None], ids=repr)
@pytest.mark.parametrize("call, good, name", INT_CALLS, ids=[
    "cyclic", "dihedral", "heisenberg", "subgroups_up_to_index", "linear_order_relation", "ap_census"])
def test_integer_arguments_that_are_not_ints_are_refused(call, good, name, value):
    call(good)
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
        call(value)


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
        (lambda: dihedral(50), "cayley_table(100,eccffa0c7ffb)", "D50", "fcf461af4436"),
        (lambda: heisenberg(5), "cayley_table(125,3ff98c4b007c)", "H5", "74445b639cc2"),
        (lambda: from_cayley_table(Z3_TABLE), "cayley_table(3,fc2cc19d9b4c)", "T3_fc2c", "3ce8a6773a05"),
    ],
)
def test_recipes_names_and_hashes_are_pinned(build, recipe, name, digest):
    # saved relation files embed the recipe hash, so these strings must never change
    g = build()
    assert (g.recipe, g.name, g.recipe_hash()) == (recipe, name, digest)


# The pinned digests above, built from recipe dicts as configs give them.
RECIPES = [
    ({"kind": "cyclic", "n": 12}, "3b7fb77412d3"),
    ({"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 6}]}, "6752adacabd4"),
    ({"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "dihedral", "n": 3}]}, "eab613874839"),
    ({"kind": "dihedral", "n": 4}, "72cd34ed2847"),
    ({"kind": "heisenberg", "p": 3}, "3489db715571"),
    ({"kind": "cayley_table", "table": Z3_TABLE}, "3ce8a6773a05"),
    ({"kind": "cayley_table", "table": Z3_TABLE, "name": "T3"}, "3ce8a6773a05"),
]


def test_a_recipe_key_that_its_kind_does_not_read_is_refused():
    """Every key a recipe's kind reads still builds the pinned group, the
    table's optional name included; any other key is named in a ValueError,
    in a factor too, and so is a kind that names no recipe."""
    for recipe, digest in RECIPES:
        assert make_group(recipe).recipe_hash() == digest, recipe
        for extra in ("nn", "name", "p", "factors"):
            if extra not in recipe and (recipe["kind"], extra) != ("cayley_table", "name"):
                with pytest.raises(ValueError, match=f"^unknown {recipe['kind']} recipe keys '{extra}'$"):
                    make_group({**recipe, extra: 5})
    assert make_group(RECIPES[-1][0]).name == "T3"
    with pytest.raises(ValueError, match="^unknown cyclic recipe keys 'nn', 'size'$"):
        make_group({"kind": "product", "factors": [{"kind": "cyclic", "n": 2, "nn": 1, "size": 2}]})
    for kind in ("cube", None, ["cyclic"]):
        with pytest.raises(ValueError, match=re.escape(f"unknown group recipe kind: {kind!r}")):
            make_group({"kind": kind, "n": 4})


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
