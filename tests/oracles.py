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


def brute_is_translation_invariant(relation: Relation) -> bool:
    """Whether S has full carriers of arity 1 and, for one fixed side,
    (x, y) in S iff (e, x^-1·y) in S for all x, y (left), or iff
    (e, y·x^-1) in S (right): S is the relation x^-1·y in A, or y·x^-1 in A."""
    group = relation.group
    q = group.order
    for carrier in (relation.domain, relation.codomain):
        if carrier.arity != 1 or carrier.size != q:
            return False
    pairs = pair_set(relation)
    sides = (lambda x, y: group.mul(group.inv(x), y), lambda x, y: group.mul(y, group.inv(x)))
    return any(
        all(((x, y) in pairs) == ((0, side(x, y)) in pairs) for x in range(q) for y in range(q))
        for side in sides
    )


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


def brute_lshape_right_counts(relation: Relation) -> list[int]:
    """L-shapes with the side acting on the right, in any group:
    (x, y), (x·d, y), (x, y·d) and (x, (y·d)·d)."""
    group = relation.group
    mul = group.mul
    return _census_counts(
        group, relation,
        lambda x, y, d: [(x, y), (mul(x, d), y), (x, mul(y, d)), (x, mul(mul(y, d), d))],
    )


def brute_is_associative(table) -> bool:
    """(a·b)·c = a·(b·c) for every triple of a Cayley table, one at a time."""
    q = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(q)
        for b in range(q)
        for c in range(q)
    )


def brute_has_inverses(table) -> bool:
    """Every element a has some b with a·b = b·a = 0."""
    q = len(table)
    return all(any(table[a][b] == 0 == table[b][a] for b in range(q)) for a in range(q))


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


class RefGroup:
    """A group from its definition: order, a multiplication function, and
    inverses and commutativity found by search over all elements."""

    def __init__(self, order: int, mul):
        self.order = order
        self.mul = mul

    def inv(self, a: int) -> int:
        return next(b for b in range(self.order) if self.mul(a, b) == 0 == self.mul(b, a))

    @property
    def is_abelian(self) -> bool:
        return all(
            self.mul(a, b) == self.mul(b, a)
            for a in range(self.order)
            for b in range(self.order)
        )


def ref_cyclic(n: int) -> RefGroup:
    return RefGroup(n, lambda a, b: (a + b) % n)


def ref_product(*factors: RefGroup) -> RefGroup:
    """Componentwise product; index digits are big-endian, first factor most significant."""

    def digits(a: int) -> list[int]:
        out = []
        for f in reversed(factors):
            a, d = divmod(a, f.order)
            out.append(d)
        return out[::-1]

    def mul(a: int, b: int) -> int:
        idx = 0
        for f, da, db in zip(factors, digits(a), digits(b)):
            idx = idx * f.order + f.mul(da, db)
        return idx

    order = 1
    for f in factors:
        order *= f.order
    return RefGroup(order, mul)


def ref_dihedral(n: int) -> RefGroup:
    """D_n as permutations (v, s) -> (r + (-1)^e·v, s xor e) of Z_n × Z_2, index
    e·n + r; a·b applies a, then b. The s coordinate keeps D_1 and D_2 faithful."""
    points = [(v, s) for v in range(n) for s in (0, 1)]
    maps = [
        tuple(((r + (-v if e else v)) % n, s ^ e) for v, s in points)
        for e in (0, 1)
        for r in range(n)
    ]
    where = {pt: i for i, pt in enumerate(points)}
    index = {m: i for i, m in enumerate(maps)}

    def mul(a: int, b: int) -> int:
        return index[tuple(maps[b][where[maps[a][i]]] for i in range(len(points)))]

    return RefGroup(2 * n, mul)


def ref_heisenberg(p: int) -> RefGroup:
    """Upper unitriangular 3×3 matrices mod p by matrix product; index (a·p + b)·p + c
    for the matrix with a and c in the first row and b in the second."""

    def matrix(i: int) -> list[list[int]]:
        a, bc = divmod(i, p * p)
        b, c = divmod(bc, p)
        return [[1, a, c], [0, 1, b], [0, 0, 1]]

    def mul(x: int, y: int) -> int:
        m, n = matrix(x), matrix(y)
        prod = [[sum(m[i][t] * n[t][j] for t in range(3)) % p for j in range(3)] for i in range(3)]
        return (prod[0][1] * p + prod[1][2]) * p + prod[0][2]

    return RefGroup(p**3, mul)
