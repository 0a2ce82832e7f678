"""Censuses of two-dimensional patterns: squares, corners, 2x3 rectangles,
L-shapes, arithmetic-progression sets, side-length coverage, and
translation-comparability defects.

A shape is a list of points ((ld, rd), (lc, rc)); a triple (a, b, g)
matches it when every pair (g^ld·a·g^rd, g^lc·b·g^rc) lies in S. One
engine counts the matches of any shape: for each g it ANDs the rows of the
points, each row a translated copy of a row of S, and popcounts the meet.
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
from .groups import FiniteGroup, GroupElement, Subgroup
from .relations import Relation, _lift_digit_map

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
    if not 0 <= element < group.order:
        raise ValueError(f"element index {element} out of range for order {group.order}")
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
_RECT23 = _SQUARE + (((0, 0), (1, 1)), ((0, 1), (1, 1)))
_LSHAPE = (((0, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (0, 1)), ((0, 0), (0, 2)))


def _census(
    kind: str,
    relation: Relation,
    points,
    include_witnesses: bool,
    witness_cap: int,
    domain_lift: tuple[int | None, bool] = (None, False),
    codomain_lift: tuple[int | None, bool] = (None, False),
) -> PatternCensus:
    """Per-g counts of the triples (a, b, g) whose points all lie in S.

    For each g, the domain map a -> g^ld·a·g^rd and the inverse codomain map
    y -> g^-lc·y·g^-rc are built once per distinct action and lifted to the
    carriers by (coordinate, diagonal). The points that share a codomain
    action form one block: the AND of their rows dmap[a], permuted once by
    that action's inverse map, is the set of b that block allows, since a
    permutation commutes with AND. The block without a codomain action goes
    first, and a triple's meet stops at the first empty block.
    """
    group = relation.group
    q = group.order
    table = group._mul_table()
    n, m = relation.domain.arity, relation.codomain.arity
    rows = relation.rows
    xs = relation.domain.member_indices()
    blocks: dict = {}
    for dact, cact in sorted(points, key=lambda p: p[1] != (0, 0)):
        blocks.setdefault(cact, []).append(dact)
    top = max(max(p[0] + p[1]) for p in points)  # highest power of g in a point

    def action(sides, powers, arity, lift):
        left, right = table[powers[sides[0]]], powers[sides[1]]
        return _lift_digit_map([left[row[right]] for row in table], arity, *lift)

    counts = [0] * q
    witnesses: list[tuple[int, int, int]] | None = [] if include_witnesses else None
    for g in range(q):
        up, down = [0, g], [0, group.inv(g)]
        for _ in range(top - 1):
            up.append(table[up[-1]][g])
            down.append(table[down[-1]][down[1]])
        dmaps: dict = {(0, 0): range(len(rows))}
        plan = []
        for cact, dacts in blocks.items():
            for dact in dacts:
                if dact not in dmaps:
                    dmaps[dact] = action(dact, up, n, domain_lift)
            cmap = None if cact == (0, 0) else action(cact, down, m, codomain_lift)
            plan.append((cmap, [dmaps[dact] for dact in dacts]))
        for a in xs:
            meet = -1
            for cmap, block in plan:
                allowed = -1
                for dmap in block:
                    allowed &= rows[dmap[a]]
                if allowed and cmap is not None:
                    allowed = permute_bits(allowed, cmap)
                meet &= allowed
                if not meet:
                    break
            else:
                counts[g] += meet.bit_count()
                _collect(witnesses, witness_cap, meet, a, g)
    return _finish(kind, counts, witnesses)


def square_census(
    relation: Relation,
    include_witnesses: bool = False,
    witness_cap: int = DEFAULT_WITNESS_CAP,
    coordinate: int | None = None,
    diagonal: bool = False,
) -> PatternCensus:
    """Triples (a, b, g) with (a,b), (a·g,b), (a,b·g), (a·g,b·g) all in S."""
    lift = (coordinate, diagonal)
    return _census("square", relation, _SQUARE, include_witnesses, witness_cap, lift, lift)


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
    if relation.domain.arity != 1 or relation.codomain.arity != 1:
        raise ArityUnsupported("corner censuses are defined on G×G (n = m = 1)")
    return _census(form, relation, _CORNERS[form], include_witnesses, witness_cap)


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
    if relation.codomain.arity != 1:
        raise ArityUnsupported("2x3 rectangle census needs codomain arity m = 1")
    return _census(
        "rect23", relation, _RECT23, include_witnesses, witness_cap, (coordinate, diagonal)
    )


def lshape_census(
    relation: Relation,
    include_witnesses: bool = False,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> PatternCensus:
    """Triples (x, y, d) with (x,y), (x+d,y), (x,y+d), (x,y+2d) in S (abelian)."""
    if not relation.group.is_abelian:
        raise NonAbelianGroup("L-shapes are defined over abelian groups")
    if relation.domain.arity != 1 or relation.codomain.arity != 1:
        raise ArityUnsupported("L-shape census is defined on G×G (n = m = 1)")
    return _census("lshape", relation, _LSHAPE, include_witnesses, witness_cap)


def ap_census(
    group: FiniteGroup, members: int, m: int, h: GroupElement | int
) -> tuple[int, int]:
    """m-AP(A, h): the elements a of A with h^i·a in A for 0 <= i < m."""
    if m < 1:
        raise ValueError(f"progression length must be >= 1, got {m}")
    h = _checked_element(group, members, h)
    result = 0
    for a in iter_bits(members):
        x = a
        ok = True
        for _ in range(m - 1):
            x = group.mul(h, x)
            if not members >> x & 1:
                ok = False
                break
        if ok:
            result |= 1 << a
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
    if side == "left":
        translated = mask_of(group.mul(g, a) for a in iter_bits(members))
    elif side == "right":
        translated = mask_of(group.mul(a, g) for a in iter_bits(members))
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return Fraction((members ^ translated).bit_count(), group.order)
