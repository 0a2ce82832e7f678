"""Exact counting, enumeration and Monte Carlo estimation of half-graphs.

A half-graph of height k induced by S ⊆ X×Y is an ordered sequence
(a_1, b_1, ..., a_k, b_k) with (a_i, b_j) in S exactly when i <= j. The
count is over ordered sequences; distinctness of the a_i (and of the b_j)
is forced by the iff condition, so no dedup is needed.

For a fixed a-tuple the admissible b_j form the pairwise disjoint sets
T_j = (AND_{i<=j} Row(a_i)) minus (OR_{i>j} Row(a_i)), so the b-choices
multiply: the exact kernel sums prod_j |T_j| over a-tuples, sharing prefix
intersections and pruning once a prefix intersection is empty.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .bits import iter_bits
from .errors import BudgetExceeded
from .relations import Relation

DEFAULT_EXACT_BUDGET = 10**6
_SEED_STRIDE = 0x9E3779B97F4A7C15


@dataclass
class HalfGraphReport:
    """Exact or estimated |H_k(S)| together with both normalizations.

    theta_group divides by |G|^{k(n+m)} (the paper-style normalization used
    for cross-group comparison); theta_carrier divides by |X|^k·|Y|^k.
    """

    k: int
    exact_count: int | None
    estimate: Fraction | None
    confidence_interval: tuple[Fraction, Fraction] | None
    samples: int | None
    theta_group: Fraction
    theta_carrier: Fraction

    @property
    def is_exact(self) -> bool:
        return self.exact_count is not None

    def to_json(self) -> dict:
        def frac(f):
            return None if f is None else {"num": f.numerator, "den": f.denominator}

        return {
            "k": self.k,
            "exact_count": self.exact_count,
            "estimate": frac(self.estimate),
            "confidence_interval": None
            if self.confidence_interval is None
            else [frac(self.confidence_interval[0]), frac(self.confidence_interval[1])],
            "samples": self.samples,
            "theta_group": frac(self.theta_group),
            "theta_carrier": frac(self.theta_carrier),
        }


def _normalizers(relation: Relation, k: int) -> tuple[int, int]:
    q = relation.group.order
    group_denom = q ** (k * (relation.domain.arity + relation.codomain.arity))
    carrier_denom = relation.domain.size**k * relation.codomain.size**k
    return group_denom, carrier_denom


def _exact_report(relation: Relation, k: int, count: int) -> HalfGraphReport:
    group_denom, carrier_denom = _normalizers(relation, k)
    return HalfGraphReport(
        k=k,
        exact_count=count,
        estimate=None,
        confidence_interval=None,
        samples=None,
        theta_group=Fraction(count, group_denom),
        theta_carrier=Fraction(count, carrier_denom) if carrier_denom else Fraction(0),
    )


def count_halfgraphs_exact(
    relation: Relation, k: int, budget: int = DEFAULT_EXACT_BUDGET
) -> HalfGraphReport:
    """Exact |H_k(S)| by summing Π_j |T_j| over a-tuples.

    Equal rows contribute symmetrically (and repeated rows contribute
    nothing), so the sum runs over injective tuples of distinct row values
    weighted by their multiplicities. The budget is charged for those
    tuples: d·(d-1)···(d-k+1) over the d distinct non-empty rows.
    """
    if k < 1:
        raise ValueError(f"half-graph height must be >= 1, got {k}")
    mult: dict[int, int] = {}
    for x in relation.domain.member_indices():
        row = relation.rows[x]
        if row:
            mult[row] = mult.get(row, 0) + 1
    vals = list(mult)
    weights = [mult[v] for v in vals]
    d = len(vals)
    tuples = math.perm(d, k)
    if tuples > budget:
        raise BudgetExceeded(tuples, budget, "a-tuples")
    total = 0
    prefixes = [0] * (k + 1)
    chosen = [0] * (k + 1)

    def rec(depth: int, prefix: int, used: int, weight: int) -> None:
        nonlocal total
        for i in range(d):
            if used >> i & 1:
                continue
            p = prefix & vals[i] if depth > 1 else vals[i]
            if not p:
                continue
            prefixes[depth] = p
            chosen[depth] = vals[i]
            w = weight * weights[i]
            if depth == k:
                prod = 1
                union = 0
                for j in range(k, 0, -1):
                    t = (prefixes[j] & ~union).bit_count()
                    if not t:
                        prod = 0
                        break
                    prod *= t
                    union |= chosen[j]
                if prod:
                    total += w * prod
            else:
                rec(depth + 1, p, used | 1 << i, w)

    if d:
        rec(1, 0, 0, 1)
    return _exact_report(relation, k, total)


def is_halfgraph(relation: Relation, witness: tuple[int, ...]) -> bool:
    """Check the defining iff condition for a flat (a_1..a_k, b_1..b_k) tuple."""
    if len(witness) % 2:
        raise ValueError("witness length must be even")
    k = len(witness) // 2
    a = witness[:k]
    b = witness[k:]
    for side, indices, universe in (("domain", a, relation.domain.universe),
                                    ("codomain", b, relation.codomain.universe)):
        for i in indices:
            if not 0 <= i < universe:
                raise ValueError(f"witness index {i} outside the {side} universe 0..{universe - 1}")
    rows = relation.rows
    for i in range(k):
        row = rows[a[i]]
        for j in range(k):
            if bool(row >> b[j] & 1) != (i <= j):
                return False
    return True


def enumerate_halfgraphs(relation: Relation, k: int, limit: int) -> list[tuple[int, ...]]:
    """Up to `limit` witnesses, lexicographic in (a_1..a_k, b_1..b_k)."""
    if k < 1:
        raise ValueError(f"half-graph height must be >= 1, got {k}")
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    out: list[tuple[int, ...]] = []
    if not limit:
        return out
    xs = relation.domain.member_indices()
    rows = relation.rows
    a_stack: list[int] = []
    prefix_stack: list[int] = []

    def rec(depth: int) -> bool:
        for a in xs:
            row = rows[a]
            p = prefix_stack[-1] & row if depth > 1 else row
            if not p:
                continue
            a_stack.append(a)
            prefix_stack.append(p)
            if depth == k:
                t_sets = []
                union = 0
                ok = True
                for j in range(k, 0, -1):
                    t = prefix_stack[j] & ~union
                    if not t:
                        ok = False
                        break
                    t_sets.append(t)
                    union |= rows[a_stack[j - 1]]
                if ok:
                    t_sets.reverse()
                    for bs in itertools.product(*(list(iter_bits(t)) for t in t_sets)):
                        witness = tuple(a_stack) + bs
                        if not is_halfgraph(relation, witness):
                            raise AssertionError(f"witness {witness} failed re-verification")
                        out.append(witness)
                        if len(out) >= limit:
                            a_stack.pop()
                            prefix_stack.pop()
                            return True
            else:
                if rec(depth + 1):
                    a_stack.pop()
                    prefix_stack.pop()
                    return True
            a_stack.pop()
            prefix_stack.pop()
        return False

    prefix_stack.append(0)
    rec(1)
    return out


def derive_seed(seed: int, stream: int) -> int:
    """Deterministic per-stream child seed."""
    return (seed + _SEED_STRIDE * (stream + 1)) & (2**64 - 1)


def sample_halfgraphs(
    relation: Relation,
    k: int,
    samples: int,
    seed: int,
    confidence: float = 0.95,
    worker_count: int = 1,
) -> HalfGraphReport:
    """Monte Carlo estimate of |H_k| from uniform tuples of X^k × Y^k.

    One uniform tuple per trial; the hit fraction estimates theta_carrier and
    is rescaled to the group normalization. The two-sided interval is the
    Hoeffding bound at the requested confidence. The sample budget is split
    across `worker_count` streams with derived seeds, so the result depends
    only on (seed, worker_count).
    """
    if k < 1:
        raise ValueError(f"half-graph height must be >= 1, got {k}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if worker_count < 1:
        raise ValueError(f"worker_count must be >= 1, got {worker_count}")
    xs = relation.domain.member_indices()
    ys = relation.codomain.member_indices()
    rows = relation.rows
    group_denom, carrier_denom = _normalizers(relation, k)
    if not xs or not ys:
        zero = Fraction(0)
        return HalfGraphReport(k, None, zero, (zero, zero), samples, zero, zero)
    hits = 0
    base = samples // worker_count
    extra = samples % worker_count
    for w in range(worker_count):
        budget = base + (1 if w < extra else 0)
        rng = random.Random(derive_seed(seed, w))
        for _ in range(budget):
            a = [xs[rng.randrange(len(xs))] for _ in range(k)]
            b = [ys[rng.randrange(len(ys))] for _ in range(k)]
            ok = True
            for i in range(k):
                row = rows[a[i]]
                for j in range(k):
                    if bool(row >> b[j] & 1) != (i <= j):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                hits += 1
    p_hat = Fraction(hits, samples)
    eps = Fraction(math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples)))
    scale = Fraction(carrier_denom, group_denom)
    lo = max(Fraction(0), p_hat - eps) * scale
    hi = min(Fraction(1), p_hat + eps) * scale
    return HalfGraphReport(
        k=k,
        exact_count=None,
        estimate=p_hat * scale,
        confidence_interval=(lo, hi),
        samples=samples,
        theta_group=p_hat * scale,
        theta_carrier=p_hat,
    )


def theta_profile(
    relation: Relation,
    k_max: int,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
    samples: int = 10_000,
    seed: int = 0,
    confidence: float = 0.95,
) -> list[HalfGraphReport]:
    """Reports for k = 1..k_max; exact where the budget gate of
    count_halfgraphs_exact admits them, sampled beyond.

    Sampled entries are flagged by exact_count being None. With the group
    normalization theta_k is non-increasing in k.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    return [
        _exact_or_sampled(relation, k, exact_budget, samples, derive_seed(seed, k), confidence)
        for k in range(1, k_max + 1)
    ]


def _exact_or_sampled(
    relation: Relation,
    k: int,
    exact_budget: int,
    samples: int,
    seed: int,
    confidence: float,
    worker_count: int = 1,
) -> HalfGraphReport:
    """The exact report at height k, or a sampled one when the budget gate refuses it."""
    try:
        return count_halfgraphs_exact(relation, k, budget=exact_budget)
    except BudgetExceeded:
        return sample_halfgraphs(relation, k, samples, seed, confidence, worker_count)
