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

from .bits import iter_bits, mask_of, permute_bits
from .errors import ArityUnsupported, NonAbelianGroup
from .groups import FiniteGroup, GroupElement, Subgroup, _check_index, rotation_views, translation
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
            raise ValueError(f"element of {element.group.name} used with {group.name}")
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


def _collect(witnesses, cap, meet, a, g, order=None) -> None:
    """Append (a, b, g) for the b of meet, ascending, up to cap; order[p] is the
    element at position p when meet is in a view's ordering."""
    if witnesses is None or len(witnesses) >= cap:
        return
    if order is not None:
        meet = permute_bits(meet, order)
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
    lifts it. The points that share a codomain action form one block: the AND
    of their rows dmap[a] is the set of y allowed, and moving it by
    y -> g^-lc·y·g^-rc gives the set of b that block allows, since a
    permutation commutes with AND. The block without a codomain action goes
    first, and a triple's meet stops at the first empty block.

    A g with a rotation view (groups.rotation_views) works in the view's
    ordering: its rows are re-indexed once per view, and a one-sided move on
    the view's side is a shift of digits. Any other move, and every move of a
    g without a view or of a codomain of arity above 1, permutes the block
    with the lifted translation map, followed by the view's position map.
    Counts do not depend on the ordering; witnesses are mapped back to
    elements.
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
    # Checked up front, after every arity check: a rotated block builds no codomain map.
    for lifted, carrier in zip(shape.lifted, carriers):
        if lifted and not diagonal:
            _checked_coordinate(carrier.arity, coordinate)
    lifts = [(coordinate, diagonal) if lifted else (None, False) for lifted in shape.lifted]
    q = group.order
    table = group._mul_table()
    n, m = relation.domain.arity, relation.codomain.arity
    rows = relation.rows
    xs = relation.domain.member_indices()
    blocks: dict = {}
    for dact, cact in sorted(shape.points, key=lambda p: p[1] != (0, 0)):
        blocks.setdefault(cact, []).append(dact)
    top = max(max(p[0] + p[1]) for p in shape.points)  # highest power of g in a point

    # The codomain move of each block as (side, power of g^-1); None when it
    # acts on both sides of a non-abelian group.
    moves = {}
    for lc, rc in blocks:
        if group.is_abelian or not lc:
            moves[lc, rc] = ("right", lc + rc)
        else:
            moves[lc, rc] = None if rc else ("left", lc)
    side = next((move[0] for move in moves.values() if move and move[1]), "right")
    views = rotation_views(group, side) if m == 1 else {}
    reindexed: dict = {}  # view -> rows in the view's ordering

    def action(sides, powers, arity, lift):
        return _lift_digit_map(translation(group, powers[sides[0]], powers[sides[1]]), arity, *lift)

    counts = [0] * q
    witnesses: list[tuple[int, int, int]] | None = [] if include_witnesses else None
    for g in range(q):
        up, down = [0, g], [0, group.inv(g)]
        for _ in range(top - 1):
            up.append(table[up[-1]][g])
            down.append(table[down[-1]][down[1]])
        view = views.get(g)
        if view is not None and view not in reindexed:
            reindexed[view] = rows if view.pos is None else [
                permute_bits(row, view.pos) if row else 0 for row in rows
            ]
        dmaps: dict = {(0, 0): range(len(rows))}
        plan = []
        for cact, dacts in blocks.items():
            for dact in dacts:
                if dact not in dmaps:
                    dmaps[dact] = action(dact, up, n, lifts[0])
            move = moves[cact]
            if view is not None and move and (move[0] == side or not move[1]):
                src, cmap, shifts = reindexed[view], None, view.shifts(g, -move[1])
            else:
                src, shifts = rows, ()
                cmap = None if cact == (0, 0) else action(cact, down, m, lifts[1])
                if view is not None and view.pos is not None:
                    cmap = [view.pos[y] for y in cmap]
            plan.append((src, [dmaps[dact] for dact in dacts], cmap, shifts))
        for a in xs:
            meet = -1
            for src, block, cmap, shifts in plan:
                allowed = -1
                for dmap in block:
                    allowed &= src[dmap[a]]
                if allowed:
                    if cmap is not None:
                        allowed = permute_bits(allowed, cmap)
                    for left, high, right, low in shifts:
                        allowed = (allowed << left & high) | (allowed >> right & low)
                meet &= allowed
                if not meet:
                    break
            else:
                counts[g] += meet.bit_count()
                _collect(witnesses, witness_cap, meet, a, g, None if view is None else view.order)
    return _finish(kind, counts, witnesses)


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
