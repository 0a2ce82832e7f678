"""Censuses of two-dimensional patterns: squares, corners, 2x3 rectangles,
L-shapes, arithmetic-progression sets, side-length coverage, and
translation-comparability defects.

A shape is a list of points ((ld, rd), (lc, rc)); a triple (a, b, g)
matches it when every pair (g^ld·a·g^rd, g^lc·b·g^rc) lies in S. Every
census kind is one entry of SHAPES, and `census` counts the matches of any
of them: for each g it ANDs the rows of the points, each row a translated
copy of a row of S, and popcounts the meet.
Every census counts ordered triples including the degenerate g = identity
slice; nontrivial_count excludes it. For carriers of arity above one the
side length acts on a single designated coordinate (default: the last),
or on every coordinate at once with diagonal=True.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import and_

from .bits import _column_permuter, _digit_shift, iter_bits, mask_of, permute_bits
from .errors import ArityUnsupported, CrossGroupElement, NonAbelianGroup
from .groups import FiniteGroup, GroupElement, Subgroup, _check_index, translation
from .relations import Relation, _checked_coordinate, _lift_digit_map, _side_translation

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
    if isinstance(element, GroupElement):
        if element.group is not group:
            raise CrossGroupElement(f"element of {element.group.name} used with {group.name}")
        element = element.index
    if members >> group.order:
        raise ValueError(f"member mask has bits outside 0..{group.order - 1}")
    _check_index(group, element)
    return element


def _finish(kind, counts, witnesses) -> PatternCensus:
    total = sum(counts)
    return PatternCensus(
        kind=kind,
        total_count=total,
        count_by_sidelength=counts,
        nontrivial_count=total - counts[0],
        witnesses=witnesses,
    )


def _collect(witnesses, cap, meet, a, g) -> None:
    """Append (a, b, g) for the b of meet, ascending, up to cap."""
    if witnesses is None or len(witnesses) >= cap:
        return
    for b in iter_bits(meet):
        witnesses.append((a, b, g))
        if len(witnesses) >= cap:
            return


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

    For each g, the domain map a -> g^ld·a·g^rd is built once per distinct
    action and lifted to the domain by (coordinate, diagonal) where the shape
    lifts it. A point allows the b whose g^lc·b·g^rc lies in row dmap[a]: that
    is row dmap[a] of the rows moved by y -> g^-lc·y·g^-rc, built once per g
    and codomain action. The meet of a triple is the AND over the points, and
    its popcount the number of b; the loop over a is one chain of map calls.

    The rows move through one _row_mover per census: a rotation digit by
    digit on a product of cyclic groups with a codomain of arity 1, a move of
    all columns at once everywhere else. Witnesses list the b of each meet in
    ascending order, a by a and g by g.
    """
    if kind not in SHAPES:
        raise ValueError(f"unknown census kind {kind!r}")
    shape = SHAPES[kind]
    group = relation.group
    if shape.abelian_error and not group.is_abelian:
        raise NonAbelianGroup(shape.abelian_error)
    carriers = (relation.domain, relation.codomain)
    for lifted, carrier in zip(shape.lifted, carriers):
        if not lifted and carrier.arity != 1:
            raise ArityUnsupported(shape.arity_error)
    # Checked up front, after every arity check: a rotated move builds no codomain map.
    for lifted, carrier in zip(shape.lifted, carriers):
        if lifted and not diagonal:
            _checked_coordinate(carrier.arity, coordinate)
    lifts = [(coordinate, diagonal) if lifted else (None, False) for lifted in shape.lifted]
    q = group.order
    table = group._mul_table()
    n, m = relation.domain.arity, relation.codomain.arity
    rows = relation.rows
    xs = relation.domain.member_indices()
    top = max(max(p[0] + p[1]) for p in shape.points)  # highest power of g in a point
    move = _row_mover(group, rows, relation.codomain.universe, m, lifts[1])

    counts = [0] * q
    witnesses: list[tuple[int, int, int]] | None = [] if include_witnesses else None
    for g in range(q):
        powers = [0, g]
        for _ in range(top - 1):
            powers.append(table[powers[-1]][g])
        dmaps = {(0, 0): xs}  # per domain action, dmap[a] for the a of xs
        moved = {(0, 0): rows}  # per codomain action, the moved rows
        meets = None
        for dact, cact in shape.points:
            if cact not in moved:
                moved[cact] = move(powers[cact[0]], powers[cact[1]])
            if dact not in dmaps:
                dmap = translation(group, powers[dact[0]], powers[dact[1]])
                dmaps[dact] = list(map(_lift_digit_map(dmap, n, *lifts[0]).__getitem__, xs))
            picked = map(moved[cact].__getitem__, dmaps[dact])
            meets = picked if meets is None else map(and_, meets, picked)
        meets = list(meets)
        counts[g] = sum(map(int.bit_count, meets))
        if witnesses is not None:
            for a, meet in zip(xs, meets):
                if meet:
                    _collect(witnesses, witness_cap, meet, a, g)
    return _finish(kind, counts, witnesses)


def _row_mover(group: FiniteGroup, rows, size: int, arity: int, lift):
    """The function move(left, right) -> the rows with column left·y·right moved
    to column y, the map y -> left·y·right of G lifted to the arity of the
    columns by lift = (coordinate, diagonal).

    On a product of cyclic groups with columns of arity 1, column y·h goes to
    column y for h = left·right. The index order has a digit per cyclic
    factor (FiniteGroup._cyclic_digits), so each digit of every row rotates
    by minus the digit of h (bits._digit_shift): two shifts and two masks a
    row, the shifts kept per (digit, step). Any other group or arity permutes
    the columns of all rows at once (bits._column_permuter, built here once).
    """
    digits = group._cyclic_digits() if arity == 1 else None
    if digits is None:
        permute = _column_permuter(rows, size)
        return lambda left, right: permute(_lift_digit_map(translation(group, left, right), arity, *lift))
    table = group._mul_table()
    shifts: dict[tuple[int, int], tuple[int, int, int, int]] = {}

    def move(left: int, right: int) -> list[int]:
        h = table[left][right]
        out = rows
        for weight, length in digits:
            step = -(h // weight) % length
            if step:
                if (weight, step) not in shifts:
                    shifts[weight, step] = _digit_shift(size, weight, length, step)
                shl, high, shr, low = shifts[weight, step]
                out = [(row << shl & high) | (row >> shr & low) for row in out]
        return out

    return move


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
