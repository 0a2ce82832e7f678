"""halfgraph: exact counts, enumeration, sampling, theta profile."""

import math
import random
from fractions import Fraction

import pytest

from groupstab import (
    BudgetExceeded,
    CarrierSet,
    Relation,
    build_relation,
    cayley_graph,
    count_halfgraphs_exact,
    cyclic,
    dihedral,
    enumerate_halfgraphs,
    is_halfgraph,
    linear_order_relation,
    perturb_relation,
    relation_algebra,
    sample_halfgraphs,
    subgroup,
    theta_profile,
)
from groupstab.bits import mask_of

from oracles import brute_halfgraph_count, brute_halfgraph_witnesses

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
])
def test_budget_gate_charges_injective_tuples_of_distinct_rows(rows, k):
    carrier = CarrierSet.full(cyclic(len(rows)), 1)
    rel = Relation(carrier, carrier, rows)
    d = len(set(rows) - {0})
    charge = math.perm(d, k)
    expected = count_halfgraphs_exact(rel, k, budget=charge).exact_count
    assert expected == brute_halfgraph_count(rel, k)
    with pytest.raises(BudgetExceeded) as err:
        count_halfgraphs_exact(rel, k, budget=charge - 1)
    assert err.value.required == charge
    # theta_profile goes exact exactly where the gate admits the count
    profile = theta_profile(rel, k, exact_budget=charge, samples=10)
    assert profile[-1].exact_count == expected
    assert not theta_profile(rel, k, exact_budget=charge - 1, samples=10)[-1].is_exact


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


def test_sampling_worker_partition_changes_only_stream():
    rel = linear_order_relation(cyclic(16), 4)
    seq = sample_halfgraphs(rel, 2, 2000, seed=5, worker_count=1)
    par = sample_halfgraphs(rel, 2, 2000, seed=5, worker_count=4)
    assert seq.samples == par.samples == 2000
    # same contract, deterministic per (seed, worker_count)
    assert par == sample_halfgraphs(rel, 2, 2000, seed=5, worker_count=4)


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
