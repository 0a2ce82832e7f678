"""Exact counting, enumeration and Monte Carlo estimation of half-graphs.

A half-graph of height k induced by S ⊆ X×Y is an ordered sequence
(a_1, b_1, ..., a_k, b_k) with (a_i, b_j) in S exactly when i <= j. The
count is over ordered sequences; distinctness of the a_i (and of the b_j)
is forced by the iff condition, so no dedup is needed.

For a fixed a-tuple the admissible b_j form the pairwise disjoint sets
T_j = (AND_{i<=j} Row(a_i)) minus (OR_{i>j} Row(a_i)), so the b-choices
multiply and |H_k| sums prod_j |T_j| over a-tuples. One walk, `_walk`,
grows the a-tuple one row at a time for both the exact count and the
enumeration, and one rule, `_split`, decides which rows extend a node:
appending row r sets T_j to T_j & ~r for every j <= m and adds
T_{m+1} = P_m & r, where the prefix meet P_m is T_m as it stood before r.
A T_j only shrinks as rows are appended, so a branch is cut as soon as any
T_j is empty, and a row that fails at a node fails at every node below it:
each node tries only the rows that survived at its parent. A repeated row
empties the T_j of its earlier copy, so the a_i come out distinct without
bookkeeping.

The exact count walks only to depth k-2. Two orders (u, v) and (v, u) of
the last two rows leave the same T_j except T_{k-1}, so each node at depth
k-2 sums over the unordered pairs of the rows `_split` lets through, in
closed form (`_node_pairs`, and `_root_pairs` at k = 2). At k = 3 the
node is a root, with no T below T_1: `_node_pairs` applies `_split`'s rule
inline and finishes the root in one tight pass, one AND and one popcount
per pair, with no reduced T's built. The enumeration needs the b-sets, so
it walks to depth k.

A translation-invariant relation, (x, y) in S iff x^-1·y in A (or iff
y·x^-1 in A), has G permuting its distinct rows transitively, with the
b's moved along: every root branch of the walk adds the same amount, so
the count walks the branch of the identity's row alone and multiplies by
the number of distinct rows (`_translation_invariant`).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import and_, invert, mul, or_

from .bits import full_mask, iter_bits, mask_of
from .errors import BudgetExceeded, _check_budget, _check_index, _check_int
from .genlab import frac_json
from .relations import Relation

DEFAULT_EXACT_BUDGET = 10**6
_CHUNK = 256  # a-tuples sampled per chunk; larger ones only take more memory
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
        return {
            "k": self.k,
            "exact_count": self.exact_count,
            "estimate": None if self.estimate is None else frac_json(self.estimate),
            "confidence_interval": None
            if self.confidence_interval is None
            else [frac_json(f) for f in self.confidence_interval],
            "samples": self.samples,
            "theta_group": frac_json(self.theta_group),
            "theta_carrier": frac_json(self.theta_carrier),
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
    nothing), so the sum runs over tuples of distinct row values weighted by
    their multiplicities. The a-tuples grow through `_walk`, whose one
    pruning rule is `_split`, to depth k-2, and each node there adds, per
    unordered pair of the rows that extend it, both orders at once
    (`_node_pairs`; `_root_pairs` at k = 2). At k = 3 each root is
    finished in one tight pass over its candidates' heads.

    At k >= 3 with d >= k distinct non-empty rows, S is first tested for
    translation invariance (`_translation_invariant`: arity 1, full
    carriers, d dividing |G|, rows of equal size, and row(x) = x·row(e)
    for every x, or row(x) = row(e)·x). G then permutes the distinct rows transitively and
    every root branch adds the same amount, so only the branch rooted at
    row(e) is walked, with every distinct row a candidate below it, and
    its sum is multiplied by d. The budget is charged for the most
    a-tuples the walk can visit, checked before any walking: perm(d-1, k-1)
    for that one branch, and d·(d-1)···(d-k+1), the injective tuples of
    distinct rows, otherwise (k <= 2 always). With d < k that is 0 and so
    is the count. A k or budget that is not an int (a bool included), a k
    below 1 and a negative budget are ValueErrors.
    """
    _check_height(k)
    _check_budget(budget)
    mult: dict[int, int] = {}
    for x in relation.domain.member_indices():
        row = relation.rows[x]
        if row:
            mult[row] = mult.get(row, 0) + 1
    vals = list(mult)
    weights = [mult[v] for v in vals]
    d = len(vals)
    # At k = 2 the test would cost small relations more than one root saves.
    invariant = k >= 3 and d >= k and _translation_invariant(relation, d)
    tuples = math.perm(d - 1, k - 1) if invariant else math.perm(d, k)
    if tuples > budget:
        raise BudgetExceeded(tuples, budget, "a-tuples")
    if k == 1:
        return _exact_report(relation, k, sum(w * v.bit_count() for v, w in zip(vals, weights)))
    if k == 2:
        return _exact_report(relation, k, _root_pairs(vals, weights))
    nots = [~v for v in vals]
    # Rows are listed from the identity's on, so vals[0] is row(e).
    roots = [0] if invariant else range(d)
    total = sum(
        math.prod(weights[c] for c in path) * _node_pairs(ts, vals, nots, weights, cands)
        for path, ts, cands in _walk(vals, nots, roots, range(d), k - 2)
    )
    return _exact_report(relation, k, d * total if invariant else total)


def _translation_invariant(relation: Relation, d: int) -> bool:
    """Whether S, with d distinct non-empty rows, has full carriers of arity
    1 and is left-invariant, row(x) = x·row(e) for every x, or
    right-invariant, row(x) = row(e)·x.

    G permutes the rows of such an S transitively, so each distinct row
    repeats |G|/d times and all rows have one size: a d that does not
    divide |G|, or rows of unequal size, rule both sides out before any
    product is taken. Each side stops at the first row that differs. Reads
    the group's table.
    """
    domain, codomain = relation.domain, relation.codomain
    if domain.arity != 1 or codomain.arity != 1 or domain.universe % d:
        return False
    full = full_mask(domain.universe)
    if domain.members != full or codomain.members != full:
        return False
    rows = relation.rows
    size = rows[0].bit_count()
    if any(row.bit_count() != size for row in rows):
        return False
    table = relation.group._mul_table()
    base = list(iter_bits(rows[0]))
    return all(mask_of(map(table[x].__getitem__, base)) == row for x, row in enumerate(rows)) or all(
        mask_of(table[a][x] for a in base) == row for x, row in enumerate(rows)
    )


def _root_pairs(rows: list[int], weights: list[int]) -> int:
    """|H_2| from the unordered pairs {u, v} of distinct rows.

    The orders (u, v) and (v, u) share T_2 = r_u & r_v, of size g, and have
    T_1 of size |r_u| - g and |r_v| - g, so the pair adds
    w_u·w_v·g·(|r_u| + |r_v| - 2g).
    """
    sized = [(row, row.bit_count(), w) for row, w in zip(rows, weights)]
    total = 0
    for i, (ru, nu, wu) in enumerate(sized):
        acc = 0
        for rv, nv, wv in itertools.islice(sized, i + 1, None):
            g = (ru & rv).bit_count()
            if g:
                acc += wv * g * (nu + nv - 2 * g)
        total += wu * acc
    return total


def _node_pairs(ts: list[int], rows, nots, weights, cands: list[int]) -> int:
    """Σ Π_j |T_j| over the a-tuples that extend a node by two rows.

    `ts` holds T_m, ..., T_1 newest first. The rows that may come next are
    the candidates `_split` lets through, each with its head
    h_c = T_m & r_c and its T's reduced by r_c. Appending u then v leaves
    T_{m+2} = h_u & h_v of size g, T_{m+1} = h_u minus r_v of size |h_u| - g,
    T_m minus (r_u | r_v) of size |T_m| - |h_u| - |h_v| + g, and T_j minus
    (r_u | r_v) for j < m, of size |T_j∖r_u| - |(T_j∖r_u) & r_v|. Only
    T_{m+1} differs from the order (v, u), so the unordered pair adds
    w_u·w_v·g·(|h_u| + |h_v| - 2g)·(|T_m| - |h_u| - |h_v| + g)·Π_{j<m} |T_j∖r_u∖r_v|.
    The pair u = v would add nothing (g = |h_u|), so a repeated row is
    never paired with itself.

    At m = 1 (k = 3) there is no T_j below T_m, so `_split`'s rule is only
    that the head is neither empty nor T_1, and the node takes one tight
    pass: each survivor's head meets the (head, size, weight) of every
    earlier one, one AND and one popcount per pair, with no reduced T's
    built. At m >= 2 the pairs come from `_split` and multiply in the
    sizes of the T_j∖r_u∖r_v for j < m.
    """
    meet = ts[0]
    size = meet.bit_count()
    if len(ts) == 1:
        earlier: list[tuple[int, int, int]] = []
        total = 0
        for c in cands:
            hv = meet & rows[c]
            if not hv or hv == meet:
                continue
            nv = hv.bit_count()
            rest = size - nv
            acc = 0
            for hu, nu, wu in earlier:
                g = (hu & hv).bit_count()
                if g:
                    acc += wu * g * (nu + nv - 2 * g) * (rest - nu + g)
            wv = weights[c]
            total += wv * acc
            earlier.append((hv, nv, wv))
        return total
    kids = _split(ts, rows, nots, cands, sized=True)
    survivors = [(child[0], child[0].bit_count(), weights[c], rows[c]) for c, child in kids]
    total = 0
    for i, (hu, nu, wu, _) in enumerate(survivors):
        lows = kids[i][1][2:]  # T_j∖r_u for j < m, sized as _split built them
        acc = 0
        rest = size - nu
        for hv, nv, wv, rv in itertools.islice(survivors, i + 1, None):
            g = (hu & hv).bit_count()
            if g:
                prod = wv * g * (nu + nv - 2 * g) * (rest - nv + g)
                for t, n in lows:
                    prod *= n - (t & rv).bit_count()
                acc += prod
        total += wu * acc
    return total


def _walk(rows, nots, roots, cands, depth: int):
    """(path, ts, cands) for every a-tuple `path` of length `depth` that
    `_split` lets grow from `roots`, in lexicographic order of paths.

    A root c starts as T_1 = rows[c] with `cands` as its candidates; each
    node below grows through `_split`. `ts` holds the path's T's newest
    first and `cands` the rows that survived at the path's parent, the only
    ones that can extend it.
    """
    if depth == 1:
        for c in roots:
            yield (c,), [rows[c]], cands
        return
    for path, ts, node_cands in _walk(rows, nots, roots, cands, depth - 1):
        kids = _split(ts, rows, nots, node_cands)
        survivors = [c for c, _ in kids]
        for c, child in kids:
            yield path + (c,), child, survivors


def _split(ts: list[int], rows, nots, cands: list[int], sized: bool = False) -> list[tuple[int, list]]:
    """The candidates that extend an a-tuple, each with its reduced T's.

    `ts` holds T_m, ..., T_1 newest first, so ts[0] is the prefix meet. A
    candidate c, with row rows[c] and complement nots[c], survives when
    ts[0] & row and every t & ~row are non-empty; its T's are then
    [ts[0] & row] + [t & ~row for t in ts]. The head h = ts[0] & row lies
    in ts[0], so ts[0] & ~row is ts[0] ^ h, non-empty iff h != ts[0].
    With sized, each t & ~row for t below ts[0] comes as (t & ~row, its
    size), counted as it is built, for `_node_pairs` at m >= 2. Survivors
    keep the order of `cands`.
    """
    meet, *older = ts
    out = []
    for c in cands:
        head = meet & rows[c]
        if not head or head == meet:
            continue
        nr = nots[c]
        child = [head, meet ^ head]
        for t in older:
            t &= nr
            if not t:
                break
            child.append((t, t.bit_count()) if sized else t)
        else:
            out.append((c, child))
    return out


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
            _check_index(i, "witness index", side, universe)
    rows = relation.rows
    for i in range(k):
        row = rows[a[i]]
        for j in range(k):
            if bool(row >> b[j] & 1) != (i <= j):
                return False
    return True


def enumerate_halfgraphs(relation: Relation, k: int, limit: int) -> list[tuple[int, ...]]:
    """Up to `limit` witnesses, lexicographic in (a_1..a_k, b_1..b_k).

    The a-tuples grow over member indices through `_walk`, the exact
    count's walk and pruning rule (`_split`), and each full a-tuple yields
    the product of its T_j. A k or limit that is not an int (a bool
    included) is a ValueError.
    """
    _check_height(k)
    _check_int(limit, "limit")
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    rows = relation.rows
    nots = [~row for row in rows]
    xs = [x for x in relation.domain.member_indices() if rows[x]]
    witnesses = (
        a + bs
        for a, ts, _ in _walk(rows, nots, xs, xs, k)
        for bs in itertools.product(*(iter_bits(t) for t in reversed(ts)))
    )
    out = list(itertools.islice(witnesses, limit))
    for witness in out:
        if not is_halfgraph(relation, witness):
            raise AssertionError(f"witness {witness} failed re-verification")
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
) -> HalfGraphReport:
    """Monte Carlo estimate of |H_k| from uniform a-tuples of X^k.

    Each a-tuple is scored by the b-tuples that complete it, Π_j |T_j| / |Y|^k
    (`_score_chunk`): the hit rate of a uniform tuple of X^k × Y^k averaged
    over the b's, so by Rao-Blackwell no more variance. The mean score
    estimates theta_carrier and is rescaled to the group normalization. The
    T_j are disjoint subsets of Y, so a score lies in [0, k^-k], the range of
    the two-sided Hoeffding interval at the requested confidence. All the
    a-tuples come from one stream, random.Random(derive_seed(seed, 0)), in
    chunks of _CHUNK, so the result depends only on the seed. A k, samples
    or seed that is not an int (a bool included) is a ValueError.
    """
    _check_height(k)
    _check_sampling(samples, seed, confidence)
    rows = [relation.rows[x] for x in relation.domain.member_indices()]
    ny = relation.codomain.size
    group_denom, carrier_denom = _normalizers(relation, k)
    if not rows or not ny:
        zero = Fraction(0)
        return HalfGraphReport(k, None, zero, (zero, zero), samples, zero, zero)
    rng = random.Random(derive_seed(seed, 0))
    score = sum(
        _score_chunk([rng.choices(rows, k=min(_CHUNK, samples - done)) for _ in range(k)])
        for done in range(0, samples, _CHUNK)
    )
    p_hat = Fraction(score, samples * ny**k)
    top = Fraction(1, k**k)
    eps = top * Fraction(math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples)))
    scale = Fraction(carrier_denom, group_denom)
    lo = max(Fraction(0), p_hat - eps) * scale
    hi = min(top, p_hat + eps) * scale
    return HalfGraphReport(
        k=k,
        exact_count=None,
        estimate=p_hat * scale,
        confidence_interval=(lo, hi),
        samples=samples,
        theta_group=p_hat * scale,
        theta_carrier=p_hat,
    )


def _check_height(k: int) -> None:
    """Refuse a height that is not an int of at least 1."""
    _check_int(k, "k")
    if k < 1:
        raise ValueError(f"half-graph height must be >= 1, got {k}")


def _check_sampling(samples: int, seed: int, confidence: float) -> None:
    """Refuse sampling parameters that no sampled height could use."""
    _check_int(samples, "samples")
    _check_int(seed, "seed")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


def _score_chunk(cols: list[list[int]]) -> int:
    """Σ Π_j |T_j| over the a-tuples whose rows are cols[0][s], ..., cols[k-1][s].

    T_j = P_j & ~U_{j+1} and T_k = P_k, from the prefix meets P_j and the
    suffix unions U_j, each built by `map` over the whole chunk.
    """
    unions = [cols[-1]]  # U_k, U_{k-1}, ..., U_2
    for col in cols[-2:0:-1]:
        unions.append(list(map(or_, col, unions[-1])))
    meet = cols[0]
    sizes = []
    for col in cols[1:]:
        sizes.append(map(int.bit_count, map(and_, meet, map(invert, unions.pop()))))
        meet = list(map(and_, meet, col))
    prod = map(int.bit_count, meet)
    for size in sizes:
        prod = map(mul, prod, size)
    return sum(prod)


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

    Sampled entries are flagged by exact_count being None; the one at height
    k is sample_halfgraphs with seed derive_seed(seed, k). The budget and
    the sampling parameters are checked before any height, so they are
    refused even when every height goes exact. With the group normalization
    theta_k is non-increasing in k. A k_max, exact_budget, samples or seed
    that is not an int (a bool included) is a ValueError.
    """
    _check_int(k_max, "k_max")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    _check_budget(exact_budget, "exact_budget")
    _check_sampling(samples, seed, confidence)
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
) -> HalfGraphReport:
    """The exact report at height k, or a sampled one when the budget gate refuses it."""
    try:
        return count_halfgraphs_exact(relation, k, budget=exact_budget)
    except BudgetExceeded:
        return sample_halfgraphs(relation, k, samples, seed, confidence)
