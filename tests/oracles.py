"""Independent brute-force reference implementations for the test suite.

Everything here works pointwise from the definitions (membership loops over
explicit tuples), deliberately sharing no code with the bitset kernels it
is used to check.
"""

from __future__ import annotations

import itertools

from groupstab.bits import iter_bits
from groupstab.relations import Relation


def pair_set(relation: Relation) -> set[tuple[int, int]]:
    return {(x, y) for x, row in enumerate(relation.rows) for y in iter_bits(row)}


def brute_halfgraph_count(relation: Relation, k: int) -> int:
    """Count ordered (a_1, b_1, ..., a_k, b_k) with (a_i, b_j) in S iff i <= j."""
    pairs = pair_set(relation)
    xs = relation.domain.member_indices()
    ys = relation.codomain.member_indices()
    count = 0
    for a in itertools.product(xs, repeat=k):
        for b in itertools.product(ys, repeat=k):
            ok = True
            for i in range(k):
                for j in range(k):
                    if ((a[i], b[j]) in pairs) != (i <= j):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                count += 1
    return count


def brute_halfgraph_witnesses(relation: Relation, k: int) -> list[tuple[int, ...]]:
    pairs = pair_set(relation)
    xs = relation.domain.member_indices()
    ys = relation.codomain.member_indices()
    out = []
    for a in itertools.product(xs, repeat=k):
        for b in itertools.product(ys, repeat=k):
            if all(
                ((a[i], b[j]) in pairs) == (i <= j)
                for i in range(k)
                for j in range(k)
            ):
                out.append(a + b)
    out.sort()
    return out


def _census_counts(group, relation, points_of) -> list[int]:
    """Per-g counts of triples (x, y, g) whose pattern points all lie in S."""
    pairs = pair_set(relation)
    xs = relation.domain.member_indices()
    ys = relation.codomain.member_indices()
    counts = [0] * group.order
    for g in range(group.order):
        for x in xs:
            for y in ys:
                if all(p in pairs for p in points_of(x, y, g)):
                    counts[g] += 1
    return counts


def brute_square_counts(relation: Relation) -> list[int]:
    group = relation.group
    mul = group.mul
    return _census_counts(
        group, relation,
        lambda x, y, g: [(x, y), (mul(x, g), y), (x, mul(y, g)), (mul(x, g), mul(y, g))],
    )


def brute_corner_counts(relation: Relation, form: str) -> list[int]:
    group = relation.group
    mul = group.mul
    if form == "naive":
        points = lambda x, y, g: [(x, y), (mul(g, x), y), (x, mul(g, y))]
    elif form == "bmz_left":
        points = lambda x, y, g: [(x, y), (mul(g, x), y), (mul(g, x), mul(g, y))]
    elif form == "bmz_right":
        points = lambda x, y, g: [(x, y), (mul(x, g), y), (x, mul(g, y))]
    else:
        raise ValueError(form)
    return _census_counts(group, relation, points)


def brute_rect23_counts(relation: Relation) -> list[int]:
    group = relation.group
    mul = group.mul
    return _census_counts(
        group, relation,
        lambda a, b, g: [
            (a, b),
            (mul(a, g), b),
            (a, mul(b, g)),
            (mul(a, g), mul(b, g)),
            (a, mul(g, mul(b, g))),
            (mul(a, g), mul(g, mul(b, g))),
        ],
    )


def brute_lshape_counts(relation: Relation) -> list[int]:
    group = relation.group
    mul = group.mul
    return _census_counts(
        group, relation,
        lambda x, y, d: [
            (x, y),
            (mul(x, d), y),
            (x, mul(y, d)),
            (x, mul(y, mul(d, d))),
        ],
    )


def brute_closure(group, seed: int) -> int:
    """Smallest subgroup mask containing the seed mask, by a fixed point.

    Multiplies every reached element by every member on both sides until
    nothing new appears.
    """
    mask = seed | 1
    members = list(iter_bits(mask))
    queue = list(members)
    while queue:
        a = queue.pop()
        for b in members[:]:
            for c in (group.mul(a, b), group.mul(b, a)):
                if not mask >> c & 1:
                    mask |= 1 << c
                    members.append(c)
                    queue.append(c)
    return mask


def brute_subgroup_masks(group) -> set[int]:
    """All subgroups as closures of generating sets of size <= 4.

    Complete for |G| <= 16: every subgroup there is generated by at most
    log2(16) = 4 elements since each new generator at least doubles the
    subgroup.
    """
    assert group.order <= 16
    masks = set()
    elems = list(range(group.order))
    for r in range(0, 5):
        for gens in itertools.combinations(elems, r):
            members = {0, *gens}
            while True:
                new = {
                    group.mul(a, b)
                    for a in members
                    for b in members
                    if not group.mul(a, b) in members
                }
                if not new:
                    break
                members |= new
            mask = 0
            for e in members:
                mask |= 1 << e
            masks.add(mask)
    return masks
