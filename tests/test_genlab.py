"""genlab: coset boxes, Sidon sets, random relations, perturbations."""

import math
import random
import re
from fractions import Fraction

import pytest

from groupstab import (
    CarrierSet,
    GeneratorSpec,
    IndexOutOfRange,
    cayley_graph,
    coset_box_set,
    count_halfgraphs_exact,
    cyclic,
    density,
    dihedral,
    format_cayley_table,
    greedy_box_cover,
    box_union_stability_check,
    instantiate_generator,
    linear_order_relation,
    perturb_relation,
    product,
    random_dense,
    relation_algebra,
    sidon_set,
    subgroup,
    subgroups_up_to_index,
)
from groupstab.bits import iter_bits, mask_of
from groupstab.cli import ExperimentConfig
from groupstab.genlab import _is_sidon, as_fraction, frac_json
from groupstab.groups import parse_cayley_table


def test_coset_box_whole_group_is_full():
    z4 = cyclic(4)
    rel = coset_box_set(z4, subgroup(z4, range(4)), [(0, 0)])
    assert rel.edge_count == 16


def test_coset_box_matches_cayley_on_diagonal():
    z4 = cyclic(4)
    h = subgroup(z4, [0, 2])
    rel = coset_box_set(z4, h, [(0, 0), (1, 1)])
    assert rel == cayley_graph(z4, h.members, "left")
    # same identity holds in a non-abelian group
    d4 = dihedral(4)
    for sub in subgroups_up_to_index(d4, 4):
        diag = [(i, i) for i in range(sub.index_in_parent)]
        assert coset_box_set(d4, sub, diag) == cayley_graph(d4, sub.members, "left")


@pytest.mark.parametrize("pair, index", [((True, 0), True), ((0, 1.0), 1.0)], ids=repr)
def test_coset_box_set_refuses_a_coset_index_that_is_not_an_int(pair, index):
    """The pair (True, 0) was read as (1, 0), and a float index raised a raw
    TypeError. An int out of range is still IndexOutOfRange."""
    z4 = cyclic(4)
    h = subgroup(z4, [0, 2])
    with pytest.raises(ValueError, match=f"^coset index must be an int, got {re.escape(repr(index))}$"):
        coset_box_set(z4, h, [pair])
    with pytest.raises(IndexOutOfRange):
        coset_box_set(z4, h, [(2, 0)])


def test_coset_box_single_block_density():
    z6 = cyclic(6)
    h3 = subgroup(z6, [0, 2, 4])
    rel = coset_box_set(z6, h3, [(0, 1)])
    assert rel.edge_count == 9
    assert density(rel) == Fraction(1, 4)
    h2 = subgroup(z6, [0, 3])
    rel = coset_box_set(z6, h2, [(0, 1)])
    assert rel.edge_count == 4
    assert density(rel) == Fraction(1, 9)


def test_coset_box_index_out_of_range():
    z6 = cyclic(6)
    with pytest.raises(IndexOutOfRange):
        coset_box_set(z6, subgroup(z6, [0, 3]), [(0, 3)])


def test_coset_box_unions_are_ell_plus_one_stable():
    z12 = cyclic(12)
    h = subgroup(z12, [0, 4, 8])
    rng = random.Random(5)
    for _ in range(5):
        pairs = [(rng.randrange(4), rng.randrange(4)) for _ in range(3)]
        rel = coset_box_set(z12, h, pairs)
        cover = greedy_box_cover(rel, Fraction(1, 10**9), 8)
        assert cover.symdiff_error == 0
        ell, count = box_union_stability_check(cover)
        assert count == 0


def test_sidon_greedy_z7_and_validity():
    assert sidon_set(cyclic(7)) == mask_of([0, 1, 3])
    # in Z2 the pair {0,1} realizes the difference 1 twice (1-0 and 0-1),
    # so the strict greedy keeps only the identity
    assert sidon_set(cyclic(2)) == mask_of([0])
    assert sidon_set(cyclic(3)) == mask_of([0, 1])
    for n in range(1, 41):
        g = cyclic(n)
        members = sidon_set(g)
        assert _is_sidon(g, list(iter_bits(members)))


def test_sidon_budget_caps_size():
    g = cyclic(31)
    assert sidon_set(g, budget=2).bit_count() == 2


def test_negative_sidon_budget_is_refused_and_zero_chooses_none():
    g = cyclic(12)
    assert sidon_set(g, budget=0) == 0
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        sidon_set(g, budget=-1)
    with pytest.raises(ValueError, match="budget must be >= 0"):
        instantiate_generator(GeneratorSpec("sidon_cayley", {"budget": -1}), g)


def test_sidon_set_takes_a_group_whose_layout_is_one_cyclic_digit():
    """sidon_set reads the digit layout: Z_n, and a one-factor product of it,
    which has Z_n's indices, are cyclic; Z2×Z2, D3 and a table loaded from
    the file format, a cyclic one among them, are refused."""
    assert sidon_set(product(cyclic(12))) == sidon_set(cyclic(12))
    for group in (product(cyclic(2), cyclic(2)), dihedral(3), parse_cayley_table(format_cayley_table(cyclic(5)))):
        with pytest.raises(ValueError, match="^greedy Sidon construction expects a cyclic group$"):
            sidon_set(group)


def test_sidon_cayley_is_three_stable_spotcheck():
    g = cyclic(13)
    rel = cayley_graph(g, sidon_set(g), "left")
    assert count_halfgraphs_exact(rel, 3).exact_count == 0


def test_random_dense_extremes_and_determinism():
    z8 = cyclic(8)
    carrier = CarrierSet.full(z8, 1)
    assert random_dense(carrier, carrier, 0, seed=1).edge_count == 0
    assert random_dense(carrier, carrier, 1, seed=1).edge_count == 64
    a = random_dense(carrier, carrier, 0.5, seed=42)
    b = random_dense(carrier, carrier, 0.5, seed=42)
    assert a == b
    assert a != random_dense(carrier, carrier, 0.5, seed=43)


def test_random_dense_rows_are_pinned_for_a_seed():
    """Domain members ascending, then codomain members ascending, one draw per
    pair: that order makes every seeded report reproducible."""
    expected = {
        "Z12": ["f6b", "a8d", "e97", "136", "1da", "522", "7d8", "c37", "ef9", "81", "ff7", "3e7"],
        "D3": ["2b", "3d", "d", "2a", "17", "3a"],
    }
    for group in (cyclic(12), dihedral(3)):
        carrier = CarrierSet.full(group, 1)
        rows = random_dense(carrier, carrier, Fraction(1, 2), seed=7).rows
        assert [format(row, "x") for row in rows] == expected[group.name]


def test_random_dense_binomial_concentration():
    z32 = cyclic(32)
    carrier = CarrierSet.full(z32, 1)
    n = 32 * 32
    sigma = math.sqrt(n * 0.25)
    hits = 0
    for seed in range(100):
        count = random_dense(carrier, carrier, 0.5, seed=seed).edge_count
        if abs(count - n / 2) <= 3 * sigma:
            hits += 1
    assert hits >= 95


def test_perturb_exact_flip_count_and_involution():
    z10 = cyclic(10)
    rel = cayley_graph(z10, mask_of([0, 5]))
    for eta, expected in ((0, 0), (Fraction(1, 100), 1), (0.25, 25), (1, 100)):
        out = perturb_relation(rel, eta, seed=3)
        assert relation_algebra("symdiff", rel, out).edge_count == expected
    assert perturb_relation(rel, 0, seed=9) == rel
    comp = perturb_relation(rel, 1, seed=9)
    assert comp == relation_algebra("complement_within_carriers", rel)
    # same seed re-applies the same flip mask, restoring the original
    once = perturb_relation(rel, 0.1, seed=77)
    twice = perturb_relation(once, 0.1, seed=77)
    assert twice == rel


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "1", None], ids=repr)
def test_a_seed_that_is_not_an_int_is_refused(seed):
    """random_dense and perturb_relation check their seed as sample_halfgraphs
    does, where random.Random took any hashable value."""
    carrier = CarrierSet.full(cyclic(4), 1)
    rel = random_dense(carrier, carrier, 0.5, 1)
    perturb_relation(rel, 0.25, 1)
    for call in (lambda: random_dense(carrier, carrier, 0.5, seed), lambda: perturb_relation(rel, 0.25, seed)):
        with pytest.raises(ValueError, match=f"^seed must be an int, got {re.escape(repr(seed))}$"):
            call()


def test_perturb_ceil_rounding():
    z3 = cyclic(3)
    rel = cayley_graph(z3, mask_of([0]))
    out = perturb_relation(rel, Fraction(1, 100), seed=0)  # ceil(9/100) = 1
    assert relation_algebra("symdiff", rel, out).edge_count == 1


def test_perturbed_coset_cayley_obeys_k2_eta_bound():
    z10 = cyclic(10)
    rel = cayley_graph(z10, mask_of([0, 5]))
    eta = Fraction(1, 100)
    out = perturb_relation(rel, eta, seed=11)
    theta = count_halfgraphs_exact(out, 2).theta_group
    assert theta <= 4 * eta


def test_linear_order_relation_shape():
    rel = linear_order_relation(cyclic(9), 3)
    assert rel.edge_count == 6
    assert rel.domain.size == 3
    with pytest.raises(ValueError):
        linear_order_relation(cyclic(4), 9)


def test_generator_spec_json_roundtrip():
    spec = GeneratorSpec("random_dense", {"delta": 0.25, "seed": 5})
    assert GeneratorSpec.from_json(spec.to_json()) == spec


def test_instantiate_generator_kinds():
    z9 = product(cyclic(3), cyclic(3))
    rel = instantiate_generator(
        GeneratorSpec("coset_boxes", {"subgroup_index": 3, "pairs": "diagonal"}), z9
    )
    assert density(rel) == Fraction(1, 3)
    rel = instantiate_generator(GeneratorSpec("linear_order", {"width": "isqrt"}), cyclic(9))
    assert rel.domain.size == 3
    rel = instantiate_generator(GeneratorSpec("sidon_cayley", {}), cyclic(11))
    assert count_halfgraphs_exact(rel, 3).exact_count == 0
    base = {"kind": "coset_boxes", "params": {"subgroup_index": 2, "pairs": "diagonal"}}
    rel = instantiate_generator(
        GeneratorSpec("perturbation", {"base": base, "eta": "1/100", "seed": 4}), cyclic(10)
    )
    assert rel.edge_count > 0
    # the kind is checked before its params, and every param it does not read is named
    with pytest.raises(ValueError, match="^unknown generator kind 'nope'$"):
        instantiate_generator(GeneratorSpec("nope", {"widht": 2}), cyclic(4))
    with pytest.raises(ValueError, match="^unknown linear_order generator params 'widht', 'seed'$"):
        instantiate_generator(GeneratorSpec("linear_order", {"widht": 2, "seed": 1}), cyclic(9))
    with pytest.raises(ValueError):
        instantiate_generator(GeneratorSpec("coset_boxes", {"subgroup_index": 7}), cyclic(10))


# Each generator kind with every param it reads.
FULL_SPECS = {
    "coset_boxes": {"max_subgroup_index": 2, "pairs": [[0, 1], [1, 0]]},
    "sidon_cayley": {"budget": 3},
    "random_dense": {"delta": "1/3", "seed": 5},
    "perturbation": {"base": {"kind": "linear_order", "params": {"width": 2}}, "eta": "1/10", "seed": 2},
    "linear_order": {"width": 2},
}


@pytest.mark.parametrize("kind", FULL_SPECS)
def test_a_param_the_generator_kind_does_not_read_is_refused(kind):
    z8 = cyclic(8)
    params = FULL_SPECS[kind]
    instantiate_generator(GeneratorSpec(kind, params), z8)
    if kind == "coset_boxes":
        instantiate_generator(GeneratorSpec(kind, {"subgroup_index": 2}), z8)
    for extra in ("widht", "sampels", *(name for other in FULL_SPECS.values() for name in other)):
        if extra not in params and not (kind == "coset_boxes" and extra == "subgroup_index"):
            with pytest.raises(ValueError, match=f"^unknown {kind} generator params '{extra}'$"):
                instantiate_generator(GeneratorSpec(kind, {**params, extra: 1}), z8)


def test_a_rational_in_the_report_form_reads_wherever_a_rational_is_read():
    half = {"num": 3, "den": 6}
    assert as_fraction(half) == Fraction(1, 2)
    for bad in ({"num": True, "den": 2}, {"num": 1, "den": 0}, {"num": 1}):
        with pytest.raises(ValueError):
            as_fraction(bad)
    assert as_fraction(frac_json(Fraction(-7, 3))) == Fraction(-7, 3)
    z6 = cyclic(6)

    def build(kind, **params):
        return instantiate_generator(GeneratorSpec(kind, {**params, "seed": 3}), z6)

    assert build("random_dense", delta=half) == build("random_dense", delta="1/2")
    base = {"kind": "linear_order", "params": {}}
    quarter = {"num": 1, "den": 4}
    assert build("perturbation", base=base, eta=quarter) == build("perturbation", base=base, eta="1/4")
    rel = build("random_dense", delta=half)
    assert greedy_box_cover(rel, half, 4, {"num": 1, "den": 1}) == greedy_box_cover(rel, "1/2", 4, 1)
    config = {"groups": ["Z4"], "generator": base, "epsilon": {"num": 1, "den": 5}}
    assert ExperimentConfig.from_json(config).epsilon == Fraction(1, 5)
