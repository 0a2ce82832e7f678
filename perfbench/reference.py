"""Reference computations written apart from groupstab.

Nothing here imports the package under test. Group arithmetic follows the
index encodings groupstab documents: Z_n is addition mod n; a product packs
its factors big-endian (first factor most significant); D_n puts
flip*n + rotation, the element sigma^flip rho^rotation with
rho sigma = sigma rho^-1; H_p puts (a*p + b)*p + c for the upper unitriangular
matrix [[1, a, c], [0, 1, b], [0, 0, 1]] mod p. D_n and H_p products are
taken by multiplying matrices, not by the formulas groupstab uses.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction


def bits(mask: int):
    """Set bit positions of a mask, ascending."""
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


class RefGroup:
    """A finite group on indices 0..order-1 with a precomputed product table."""

    def __init__(self, name: str, order: int, mul):
        self.name = name
        self.order = order
        self.table = [[mul(a, b) for b in range(order)] for a in range(order)]
        self.inverse = [row.index(0) for row in self.table]

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]


def _cyclic(n: int) -> RefGroup:
    return RefGroup(f"Z{n}", n, lambda a, b: (a + b) % n)


def _product(parts: list[RefGroup]) -> RefGroup:
    orders = [p.order for p in parts]

    def digits(x: int) -> list[int]:
        out = []
        for q in reversed(orders):
            x, d = divmod(x, q)
            out.append(d)
        return out[::-1]

    def mul(a: int, b: int) -> int:
        out = 0
        for p, da, db in zip(parts, digits(a), digits(b)):
            out = out * p.order + p.mul(da, db)
        return out

    return RefGroup("x".join(p.name for p in parts), math.prod(orders), mul)


def _dihedral(n: int) -> RefGroup:
    # sigma^e rho^r is taken to the affine map v -> (-1)^e v + r of Z_n; the
    # index product x*y is the map "apply x, then y".
    def matrix(x: int):
        e, r = divmod(x, n)
        return (-1 if e else 1, r)

    def mul(x: int, y: int) -> int:
        sx, tx = matrix(x)
        sy, ty = matrix(y)
        s, t = sy * sx, (sy * tx + ty) % n
        return (0 if s == 1 else 1) * n + t

    return RefGroup(f"D{n}", 2 * n, mul)


def _heisenberg(p: int) -> RefGroup:
    def matrix(x: int):
        a, rest = divmod(x, p * p)
        b, c = divmod(rest, p)
        return [[1, a, c], [0, 1, b], [0, 0, 1]]

    def mul(x: int, y: int) -> int:
        mx, my = matrix(x), matrix(y)
        m = [[sum(mx[i][k] * my[k][j] for k in range(3)) % p for j in range(3)] for i in range(3)]
        return (m[0][1] * p + m[1][2]) * p + m[0][2]

    return RefGroup(f"H{p}", p**3, mul)


@functools.cache
def ref_group(spec: str) -> RefGroup:
    """Parse the shorthand group specs the benchmark uses: Zn, Dn, Hp, AxB..."""
    parts = spec.split("x")
    if len(parts) > 1:
        return _product([ref_group(p) for p in parts])
    m = re.fullmatch(r"([ZDH])(\d+)", spec)
    if not m:
        raise ValueError(f"unsupported group spec {spec!r}")
    kind, n = m.group(1), int(m.group(2))
    return {"Z": _cyclic, "D": _dihedral, "H": _heisenberg}[kind](n)


def is_subgroup(group: RefGroup, mask: int) -> bool:
    members = list(bits(mask))
    if not mask & 1 or group.order % len(members):
        return False
    return all(mask >> group.mul(a, group.inv(b)) & 1 for a in members for b in members)


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def cayley_rows(group: RefGroup, members: int) -> list[int]:
    """Rows of Cay(G, A): bit (g, h) set iff g^-1 h is in A."""
    return [
        sum(1 << h for h in range(group.order) if members >> group.mul(group.inv(g), h) & 1)
        for g in range(group.order)
    ]


def edge_count(rows) -> int:
    return sum(r.bit_count() for r in rows)


# Each pattern is a list of points (x, y) as functions of the base pair
# (a, b) and the side length g; the census counts pairs (a, b) for which
# every point lies in S.
def _patterns(group: RefGroup):
    mul = group.mul
    return {
        "square": lambda a, b, g: [(a, b), (mul(a, g), b), (a, mul(b, g)), (mul(a, g), mul(b, g))],
        "naive": lambda a, b, g: [(a, b), (mul(g, a), b), (a, mul(g, b))],
        "bmz_left": lambda a, b, g: [(a, b), (mul(g, a), b), (mul(g, a), mul(g, b))],
        "bmz_right": lambda a, b, g: [(a, b), (mul(a, g), b), (a, mul(g, b))],
        "rect23": lambda a, b, g: [
            (a, b), (mul(a, g), b), (a, mul(b, g)), (mul(a, g), mul(b, g)),
            (a, mul(mul(g, b), g)), (mul(a, g), mul(mul(g, b), g)),
        ],
        "lshape": lambda a, b, g: [(a, b), (mul(a, g), b), (a, mul(b, g)), (a, mul(mul(b, g), g))],
    }


def census_at(group: RefGroup, rows, kind: str, g: int) -> int:
    """Brute-force count of pattern occurrences with side length g."""
    points = _patterns(group)[kind]
    count = 0
    for a in range(group.order):
        for b in bits(rows[a]):
            if all(rows[x] >> y & 1 for x, y in points(a, b, g)[1:]):
                count += 1
    return count


def census_total(group: RefGroup, rows, kind: str) -> int:
    return sum(census_at(group, rows, kind, g) for g in range(group.order))


def halfgraph_count(rows, xs, k: int) -> int:
    """|H_k| from the definition: sum over a-tuples of prod_j |T_j| with
    T_j = (AND_{i<=j} R(a_i)) minus (OR_{i>j} R(a_i))."""
    if k == 1:
        return sum(rows[x].bit_count() for x in xs)
    total = 0
    if k == 2:
        for a1 in xs:
            r1 = rows[a1]
            if not r1:
                continue
            for a2 in xs:
                r2 = rows[a2]
                total += (r1 & ~r2).bit_count() * (r1 & r2).bit_count()
        return total
    if k == 3:
        for a1 in xs:
            r1 = rows[a1]
            if not r1:
                continue
            for a2 in xs:
                r12 = r1 & rows[a2]
                if not r12:
                    continue
                only1 = r1 & ~rows[a2]
                for a3 in xs:
                    r3 = rows[a3]
                    t3 = (r12 & r3).bit_count()
                    if t3:
                        total += (only1 & ~r3).bit_count() * (r12 & ~r3).bit_count() * t3
        return total
    raise ValueError(f"reference half-graph count supports k <= 3, got {k}")


def linear_order_count(width: int, k: int) -> int:
    """|H_k| of x <= y on a chain of the given width: a1 <= b1 < a2 <= ... <= bk."""
    return math.comb(width + k, 2 * k)


def is_sidon(n: int, elems) -> bool:
    """Strict ordered-difference Sidon test in Z_n."""
    diffs = [(x - y) % n for x in elems for y in elems if x != y]
    return len(diffs) == len(set(diffs))


def cover_errors(rows, boxes, denom: int) -> tuple[Fraction, Fraction, Fraction]:
    """(symdiff, missed, overcount) of a union of boxes against rows."""
    union = [0] * len(rows)
    for xb, yb in boxes:
        for x in bits(xb):
            union[x] |= yb
    sym = sum((r ^ u).bit_count() for r, u in zip(rows, union))
    missed = sum((r & ~u).bit_count() for r, u in zip(rows, union))
    over = sum((u & ~r).bit_count() for r, u in zip(rows, union))
    return Fraction(sym, denom), Fraction(missed, denom), Fraction(over, denom)
