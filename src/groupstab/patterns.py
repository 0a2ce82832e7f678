"""Censuses of two-dimensional patterns: squares, corners, 2x3 rectangles,
L-shapes, arithmetic-progression sets, side-length coverage, and
translation-comparability defects.

A shape is a list of points ((ld, rd), (lc, rc)); a triple (a, b, g)
matches it when every pair (g^ld·a·g^rd, g^lc·b·g^rc) lies in S. Every
census kind is one entry of SHAPES, and `census` counts the matches of any
of them. It holds S as one int, row after row, and each point as one
moved copy of it: for each g it ANDs the copies of the points and
popcounts the meet.
Every census counts ordered triples including the degenerate g = identity
slice; nontrivial_count excludes it. For carriers of arity above one the
side length acts on a single designated coordinate (default: the last),
or on every coordinate at once with diagonal=True.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice

from .bits import _column_permuter, _digit_shift, iter_bits, mask_of, permute_bits
from .errors import ArityUnsupported, CrossGroupElement, NonAbelianGroup
from .groups import FiniteGroup, GroupElement, Subgroup, _element_index, translation
from .relations import Relation, _acted_coordinates, _lift_digit_map, _side_translation

DEFAULT_WITNESS_CAP = 10_000


@dataclass
class PatternCensus:
    """Counts per side length g, with optional witness tuples (a, b, g)."""

    kind: str
    total_count: int
    count_by_sidelength: list[int]
    nontrivial_count: int
    witnesses: list[tuple[int, int, int]] | None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "total_count": self.total_count,
            "count_by_sidelength": list(self.count_by_sidelength),
            "nontrivial_count": self.nontrivial_count,
            "witnesses": None if self.witnesses is None else [list(w) for w in self.witnesses],
        }


@dataclass
class CoverageReport:
    """Which side lengths g in a subgroup already close a square in S."""

    subgroup: Subgroup
    covered: int
    missing_fraction: Fraction


def _checked_element(group: FiniteGroup, members: int, element: GroupElement | int) -> int:
    """Index of the element, after checking it and the member mask against the group."""
    index = _element_index(group, element)
    if members >> group.order:
        raise ValueError(f"member mask has bits outside 0..{group.order - 1}")
    return index


def _finish(kind, counts, witnesses) -> PatternCensus:
    total = sum(counts)
    return PatternCensus(
        kind=kind,
        total_count=total,
        count_by_sidelength=counts,
        nontrivial_count=total - counts[0],
        witnesses=witnesses,
    )


_SQUARE = (((0, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (0, 1)), ((0, 1), (0, 1)))
_CORNERS = {
    "naive": (((0, 0), (0, 0)), ((1, 0), (0, 0)), ((0, 0), (1, 0))),
    "bmz_left": (((0, 0), (0, 0)), ((1, 0), (0, 0)), ((1, 0), (1, 0))),
    "bmz_right": (((0, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0))),
}
_LSHAPE = (((0, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (0, 1)), ((0, 0), (0, 2)))
_ON_GXG = (False, False)


@dataclass(frozen=True)
class Shape:
    """A census kind. lifted says whether the domain and the codomain take the
    coordinate choice; a carrier that does not must have arity 1, else the
    census raises ArityUnsupported(arity_error). A non-empty abelian_error
    marks a shape on abelian groups only and is its NonAbelianGroup message."""

    points: tuple
    lifted: tuple[bool, bool]
    arity_error: str = ""
    abelian_error: str = ""


# Every census kind: adding a shape is one entry here plus one oracle in the tests.
SHAPES = {
    "square": Shape(_SQUARE, (True, True)),
    **{form: Shape(points, _ON_GXG, "corner censuses are defined on G×G (n = m = 1)")
       for form, points in _CORNERS.items()},
    "rect23": Shape(_SQUARE + (((0, 0), (1, 1)), ((0, 1), (1, 1))), (True, False),
                    "2x3 rectangle census needs codomain arity m = 1"),
    "lshape": Shape(_LSHAPE, _ON_GXG, "L-shape census is defined on G×G (n = m = 1)",
                    "L-shapes are defined over abelian groups"),
    # The same points with right actions, (a,b), (a·g,b), (a,b·g), (a,b·g²), on any group.
    "lshape_right": Shape(_LSHAPE, _ON_GXG, "L-shape census is defined on G×G (n = m = 1)"),
}


def census(
    relation: Relation,
    kind: str,
    include_witnesses: bool = False,
    witness_cap: int = DEFAULT_WITNESS_CAP,
    coordinate: int | None = None,
    diagonal: bool = False,
) -> PatternCensus:
    """Per-g counts of the triples (a, b, g) whose points of SHAPES[kind] all lie in S.

    S is held as one int F, bit a·W + b for the pair (a, b), W the row stride
    of _matrix_mover. A point with domain action a -> g^ld·a·g^rd and
    codomain action b -> g^lc·b·g^rc, each lifted by (coordinate, diagonal)
    where the shape lifts it, is one int too: the copy of F whose bit
    (a, b) is the bit of F at the acted-on pair. Then counts[g] is the
    popcount of the AND of the copies, and the loop over g stops ANDing once
    the meet is empty. Rows outside the domain carrier are 0, and every
    shape has the identity point, whose copy is F: so the meet lies in the
    carriers. The mover names each action by its pair of elements, (g^ld,
    g^rd) or (g^lc, g^rc), and each codomain move is made once per g and
    pair.

    Witnesses list the set bits of each meet in ascending order, decoded
    as (a, b) = divmod(bit, W): g by g, then a, then b.
    """
    if witness_cap < 0:
        raise ValueError(f"witness_cap must be >= 0, got {witness_cap}")
    if kind not in SHAPES:
        raise ValueError(f"unknown census kind {kind!r}")
    shape = SHAPES[kind]
    group = relation.group
    if shape.abelian_error and not group.is_abelian:
        raise NonAbelianGroup(shape.abelian_error)
    for lifted, carrier in zip(shape.lifted, (relation.domain, relation.codomain)):
        if not lifted and carrier.arity != 1:
            raise ArityUnsupported(shape.arity_error)
    lifts = [(coordinate, diagonal) if lifted else (None, False) for lifted in shape.lifted]
    q = group.order
    table = group._mul_table()
    top = max(max(p[0] + p[1]) for p in shape.points)  # highest power of g in a point
    stride, whole, columns, gather = _matrix_mover(relation, lifts)

    counts = [0] * q
    witnesses: list[tuple[int, int, int]] | None = [] if include_witnesses else None
    for g in range(q):
        powers = [0, g]
        for _ in range(top - 1):
            powers.append(table[powers[-1]][g])
        moved = {}  # per codomain pair, F with its columns moved
        meet = whole
        for dact, cact in shape.points:
            dpair = (powers[dact[0]], powers[dact[1]])
            cpair = (powers[cact[0]], powers[cact[1]])
            if dpair == cpair == (0, 0):
                continue
            if cpair not in moved:
                moved[cpair] = columns(cpair)
            meet &= gather(moved[cpair], dpair)
            if not meet:
                break
        counts[g] = meet.bit_count()
        if meet and witnesses is not None and len(witnesses) < witness_cap:
            bits = islice(iter_bits(meet), witness_cap - len(witnesses))
            witnesses += [(bit // stride, bit % stride, g) for bit in bits]
    return _finish(kind, counts, witnesses)


def _matrix_mover(relation: Relation, lifts):
    """(stride, whole, columns, gather) for the relation's row matrix, whose
    domain and codomain moves lift by lifts = ((coordinate, diagonal) per side).

    whole is S as one int with row stride `stride` bits: bit a·stride + b
    for the pair (a, b). A move is named by a pair (left, right) of
    elements, the map x -> left·x·right of G, with (0, 0) for the identity.
    gather(columns(cpair), dpair) is the copy of S as one int with bit
    (a, b) set iff (dmap[a], cmap[b]) lies in S, for dmap and cmap the
    pairs' maps lifted. The columns step can be shared by copies with one
    codomain pair. Both lifts are resolved (relations._acted_coordinates)
    before any work, so a bad coordinate raises here.

    On a product of cyclic groups the stride is |Y| and the index of the
    pair (a, b) has a digit per cyclic factor and coordinate
    (FiniteGroup._cyclic_digits). The map x -> left·x·right is x -> x·h for
    h = left·right, one table lookup, and adds the digits of h; so a copy
    rotates each acted-on digit of whole by minus the digit of h
    (bits._digit_shift): two shifts and two masks per digit, and no
    translation map is built. Every other group builds the pair's
    translation map and lifts it, keeping the last few lifted maps per
    side, which cover the pairs of one side length. It moves the columns
    of all rows at once (bits._column_permuter, built here once) into
    row-major bytes, with the padded tile width as stride; a domain map
    joins their rows in its order, and one int.from_bytes makes the copy.
    """
    group = relation.group
    n, m = relation.domain.arity, relation.codomain.arity
    domain_acted = _acted_coordinates(n, *lifts[0])
    codomain_acted = _acted_coordinates(m, *lifts[1])
    rows = relation.rows
    size = relation.codomain.universe
    digits = group._cyclic_digits()
    if digits is None:
        stride, permute = _column_permuter(rows, size)
        cuts = [slice(x * stride, (x + 1) * stride) for x in range(len(rows))]
        data = b"".join(row.to_bytes(stride, "little") for row in rows)

        def lifter(arity: int, acted):
            """pair -> its lifted map, keeping the few pairs of one side length."""
            return lru_cache(maxsize=4)(
                lambda pair: _lift_digit_map(translation(group, *pair), arity, acted)
            )

        domain_map, codomain_map = lifter(n, domain_acted), lifter(m, codomain_acted)

        def columns(cpair) -> bytes:
            return data if cpair == (0, 0) else permute(codomain_map(cpair))

        def gather(matrix: bytes, dpair) -> int:
            if dpair != (0, 0):
                slices = map(cuts.__getitem__, domain_map(dpair))
                matrix = b"".join(map(matrix.__getitem__, slices))
            return int.from_bytes(matrix, "little")

        return stride * 8, int.from_bytes(data, "little"), columns, gather

    q = group.order
    table = group._mul_table()
    total = len(rows) * size

    def places(arity: int, acted, scale: int) -> list[tuple[int, int, int]]:
        """(weight, weight in the pair index, length) of each acted-on digit."""
        return [(w, w * scale * q ** (arity - 1 - c), length) for c in acted for w, length in digits]

    domain_places, codomain_places = places(n, domain_acted, size), places(m, codomain_acted, 1)
    # The masks are as long as the matrix: keep the few that one side length reuses.
    shift = lru_cache(maxsize=16)(partial(_digit_shift, total))

    def rotate(matrix: int, digit_places, pair) -> int:
        h = table[pair[0]][pair[1]]
        for weight, scaled, length in digit_places:
            step = -(h // weight) % length
            if step:
                shl, high, shr, low = shift(scaled, length, step)
                matrix = (matrix << shl & high) | (matrix >> shr & low)
        return matrix

    whole = int("".join(format(row, f"0{size}b") for row in reversed(rows)), 2)
    return (size, whole, lambda cpair: rotate(whole, codomain_places, cpair),
            lambda matrix, dpair: rotate(matrix, domain_places, dpair))


def square_census(
    relation: Relation,
    include_witnesses: bool = False,
    witness_cap: int = DEFAULT_WITNESS_CAP,
    coordinate: int | None = None,
    diagonal: bool = False,
) -> PatternCensus:
    """Triples (a, b, g) with (a,b), (a·g,b), (a,b·g), (a·g,b·g) all in S."""
    return census(relation, "square", include_witnesses, witness_cap, coordinate, diagonal)


def corner_census(
    relation: Relation,
    form: str = "naive",
    include_witnesses: bool = False,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> PatternCensus:
    """Triples (x, y, g) for one of the corner forms on G×G.

    naive: (x,y), (g·x,y), (x,g·y); bmz_left: (x,y), (g·x,y), (g·x,g·y);
    bmz_right: (x,y), (x·g,y), (x,g·y). nontrivial_count drops g = identity.
    """
    if form not in _CORNERS:
        raise ValueError(f"unknown corner form {form!r}")
    return census(relation, form, include_witnesses, witness_cap)


def rect23_census(
    relation: Relation,
    include_witnesses: bool = False,
    witness_cap: int = DEFAULT_WITNESS_CAP,
    coordinate: int | None = None,
    diagonal: bool = False,
) -> PatternCensus:
    """Triples (a, b, g) whose generalized 2x3 rectangle lies in S.

    The six points are (a,b), (a·g,b), (a,b·g), (a·g,b·g), (a,g·b·g),
    (a·g,g·b·g); the two-sided action needs codomain arity 1.
    """
    return census(relation, "rect23", include_witnesses, witness_cap, coordinate, diagonal)


def lshape_census(
    relation: Relation,
    include_witnesses: bool = False,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> PatternCensus:
    """Triples (x, y, d) with (x,y), (x+d,y), (x,y+d), (x,y+2d) in S (abelian)."""
    return census(relation, "lshape", include_witnesses, witness_cap)


def ap_census(
    group: FiniteGroup, members: int, m: int, h: GroupElement | int
) -> tuple[int, int]:
    """m-AP(A, h): the elements a of A with h^i·a in A for 0 <= i < m."""
    if m < 1:
        raise ValueError(f"progression length must be >= 1, got {m}")
    h = _checked_element(group, members, h)
    # Step j keeps the a in A whose h·a was kept at step j - 1: h^i·a in A for i <= j.
    back = translation(group, left=group.inv(h))
    result = members
    for _ in range(m - 1):
        result = members & permute_bits(result, back)
    return result, result.bit_count()


def sidelength_coverage(relation: Relation, sub: Subgroup) -> CoverageReport:
    """Which g in the subgroup appear as the side of at least one square in S."""
    if sub.parent is not relation.group:
        raise CrossGroupElement(f"subgroup of {sub.parent.name} used with {relation.group.name}")
    return _coverage(square_census(relation).count_by_sidelength, sub)


def _coverage(square_counts: list[int], sub: Subgroup) -> CoverageReport:
    """Coverage of the subgroup by the side lengths with a nonzero square count."""
    covered = mask_of(g for g in sub.member_indices() if square_counts[g] > 0)
    size = sub.size
    return CoverageReport(
        subgroup=sub,
        covered=covered,
        missing_fraction=Fraction(size - covered.bit_count(), size),
    )


def comparability_defect(
    group: FiniteGroup, members: int, g: GroupElement | int, side: str = "left"
) -> Fraction:
    """|A △ g·A| / |G| (side="left") or |A △ A·g| / |G| (side="right"), exact."""
    g = _checked_element(group, members, g)
    translated = permute_bits(members, _side_translation(group, g, side))
    return Fraction((members ^ translated).bit_count(), group.order)
