"""Censuses of two-dimensional patterns: squares, corners, 2x3 rectangles,
L-shapes, arithmetic-progression sets, side-length coverage, and
translation-comparability defects.

A shape is a list of points ((ld, rd), (lc, rc)); a triple (a, b, g)
matches it when every pair (g^ld·a·g^rd, g^lc·b·g^rc) lies in S. Every
census kind is one entry of SHAPES, and `census` counts the matches of any
of them. It holds S as one int, row after row, and each point as one
moved copy of it: for each g it ANDs the copies of the points and
popcounts the meet. A point's copy is carried from one side length to the
next by the one step between them, compiled once (relations._matrix_mover),
and built from S only where it has no copy yet, where that step negates a
digit (D_n's right moves by a reflection), and on groups without a digit layout.
Every census counts ordered triples including the degenerate g = identity
slice; nontrivial_count excludes it. For carriers of arity above one the
side length acts on a single designated coordinate (default: the last),
or on every coordinate at once with diagonal=True.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable

from .bits import iter_bits, mask_of, permute_bits
from .errors import ArityUnsupported, CrossGroupElement, NonAbelianGroup, _check_int
from .groups import FiniteGroup, GroupElement, Subgroup, _element_index, translation
from .relations import Relation, _acted_coordinates, _matrix_mover, _side_pair

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
    census raises ArityUnsupported(arity_error). A kind that lifts neither
    side lives on G×G, and checks the coordinate choice on both arity-1
    sides as the square does. A non-empty abelian_error marks a shape on
    abelian groups only and is its NonAbelianGroup message."""

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

    The one-kind pass of `_censuses`, the one census engine. Every kind
    checks the coordinate: one that is not an int (a bool included) is a
    ValueError, and one outside the arity of a side it acts on, both sides
    of a kind on G×G, is ArityMismatch.
    """
    return _censuses(relation, (kind,), include_witnesses, witness_cap, coordinate, diagonal)[kind]


def _censuses(
    relation: Relation,
    kinds: Iterable[str],
    include_witnesses: bool = False,
    witness_cap: int = DEFAULT_WITNESS_CAP,
    coordinate: int | None = None,
    diagonal: bool = False,
) -> dict[str, PatternCensus]:
    """The census of each kind, in one pass over the side lengths.

    S is held as one int F, bit a·W + b for the pair (a, b), W the row stride
    of relations._matrix_mover. A point with domain action a -> g^ld·a·g^rd and
    codomain action b -> g^lc·b·g^rc, each lifted by (coordinate, diagonal)
    where the shape lifts it, is one int too: its copy of F, whose bit
    (a, b) is the bit of F at the acted-on pair. Then counts[g] is the
    popcount of the AND of the copies, and each kind's loop over its points
    stops ANDing once the meet is empty. Rows outside the domain carrier
    are 0, and every shape has the identity point, whose copy is F: so the
    meet lies in the carriers. The mover names each action by its pair of
    elements, (g^ld, g^rd) or (g^lc, g^rc), on one slot per side: the
    coordinates the side length acts on. The points that move no row come
    first, so a sparse meet empties as early as it can.

    Each point keeps its copy and the side length it was made at, and the
    mover carries it from there by the one step between the two moves,
    compiled once per mover; it builds the copy from F where there is none
    yet and where that step would negate a digit (D_n's right moves by a
    reflection), and always on a group without a digit layout. So a copy
    that an emptied meet skipped is carried from an older side length. On
    a product of cyclic groups the points that share a domain action are
    met as one: a domain move permutes bits, so it commutes with AND, and
    the AND of their codomain copies, each kept and carried, is moved once
    by that action's pair.

    Kinds with the same lift share one mover and its points, and the pass
    takes g in the outer loop and the kinds in the inner one: the first
    kind to reach a point at g moves it, and every other reuses its copy.
    Every kind is checked, in the order given, before any work, so the
    first kind refused raises as its own census would.

    Witnesses list the set bits of each meet in ascending order, decoded
    as (a, b) = divmod(bit, W): g by g, then a, then b.
    """
    _check_int(witness_cap, "witness_cap")
    if witness_cap < 0:
        raise ValueError(f"witness_cap must be >= 0, got {witness_cap}")
    group = relation.group
    carriers = relation.domain, relation.codomain
    shapes = {}
    for kind in kinds:
        if kind not in SHAPES:
            raise ValueError(f"unknown census kind {kind!r}")
        shape = SHAPES[kind]
        if shape.abelian_error and not group.is_abelian:
            raise NonAbelianGroup(shape.abelian_error)
        for lifted, carrier in zip(shape.lifted, carriers):
            if not lifted and carrier.arity != 1:
                raise ArityUnsupported(shape.arity_error)
        # One slot per side: the coordinates that the side length acts on. A kind on G×G
        # lifts both its sides, trivially, so its coordinate is checked as the square's is.
        lifts = shape.lifted if any(shape.lifted) else (True, True)
        shapes[kind] = shape, tuple((tuple(_acted_coordinates(carrier.arity, coordinate, diagonal))
                                     if lifted else (0,),) for lifted, carrier in zip(lifts, carriers))
    q = group.order
    table = group._mul_table()
    cyclic = group._cyclic_digits() is not None
    movers = {}  # slots -> the mover's copy and the state of each point
    passes = []  # per kind: its mover's copy, its plan, its counts and witnesses
    for shape, slots in shapes.values():
        if slots not in movers:
            stride, whole, copy = _matrix_mover(relation, slots)  # stride and whole are S's alone
            movers[slots] = copy, {}
        copy, states = movers[slots]

        def carried(dact, cact):
            """(the point's [side length, copy] state, shared by its kinds; its powers ld, rd, lc, rc)."""
            return (states.setdefault((dact, cact), [-1, None]), *dact, *cact)

        # The points but the identity, by domain action, those that move no row
        # first. An entry is (the domain action met as one, or None; the int its AND
        # starts from: F where it meets the identity codomain action, None for the meet; its points).
        by_domain: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for dact, cact in shape.points:
            if dact != (0, 0) or cact != (0, 0):
                by_domain.setdefault(dact, []).append(cact)
        plan = []
        for dact, cacts in sorted(by_domain.items(), key=lambda item: item[0] != (0, 0)):
            if cyclic and dact != (0, 0) and len(cacts) > 1:
                plan.append((dact, whole if (0, 0) in cacts else -1,
                             [carried((0, 0), cact) for cact in cacts if cact != (0, 0)]))
            else:
                plan += [(None, None, [carried(dact, cact)]) for cact in cacts]
        passes.append((copy, plan, [0] * q, [] if include_witnesses else None))
    # the highest power of g in a point
    top = max((max(p[0] + p[1]) for shape, _ in shapes.values() for p in shape.points), default=0)

    for g in range(q):
        powers = [0, g]
        for _ in range(top - 1):
            powers.append(table[powers[-1]][g])
        for copy, plan, counts, witnesses in passes:
            meet = whole
            for dact, part, points in plan:
                part = meet if part is None else part  # one point, ANDed into the meet
                for state, ld, rd, lc, rc in points:
                    if state[0] != g:  # not yet moved to g by an entry before
                        state[0] = g
                        state[1] = copy(((powers[ld], powers[rd]), (powers[lc], powers[rc])), state[1])
                    part &= state[1][1]
                if dact is not None:  # met as one: the AND, not moved yet, moved by dact
                    part = meet & copy(((powers[dact[0]], powers[dact[1]]), (0, 0)), (None, part))[1]
                meet = part
                if not meet:
                    break
            counts[g] = meet.bit_count()
            if meet and witnesses is not None and len(witnesses) < witness_cap:
                bits = islice(iter_bits(meet), witness_cap - len(witnesses))
                witnesses += [(bit // stride, bit % stride, g) for bit in bits]
    return {kind: _finish(kind, counts, witnesses)
            for kind, (*_, counts, witnesses) in zip(shapes, passes)}


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
    _check_int(m, "m")
    if m < 1:
        raise ValueError(f"progression length must be >= 1, got {m}")
    h = _checked_element(group, members, h)
    # Step j keeps the a in A whose h·a was kept at step j - 1: h^i·a in A for i <= j.
    # The kept set only shrinks, and a step that keeps it whole keeps it for
    # good: so at most |A| steps change it.
    back = translation(group, left=group.inv(h))
    result = members
    for _ in range(m - 1):
        kept = members & permute_bits(result, back)
        if kept == result:
            break
        result = kept
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
    translated = permute_bits(members, translation(group, *_side_pair(g, side)))
    return Fraction((members ^ translated).bit_count(), group.order)
