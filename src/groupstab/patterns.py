"""Censuses of two-dimensional patterns: squares, corners, 2x3 rectangles,
L-shapes, arithmetic-progression sets, side-length coverage, and
translation-comparability defects.

Every census counts ordered parameter triples including the degenerate
g = identity slice; nontrivial_count excludes it. Per-g slices reduce to
popcounts of ANDs of translated rows. For carriers of arity above one the
side length acts on a single designated coordinate (default: the last),
or on every coordinate at once with diagonal=True.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bits import iter_bits, mask_of, permute_bits
from .errors import ArityUnsupported, NonAbelianGroup
from .groups import FiniteGroup, GroupElement, Subgroup
from .relations import Relation, coordinate_action

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


def square_census(
    relation: Relation,
    include_witnesses: bool = False,
    witness_cap: int = DEFAULT_WITNESS_CAP,
    coordinate: int | None = None,
    diagonal: bool = False,
) -> PatternCensus:
    """Triples (a, b, g) with (a,b), (a·g,b), (a,b·g), (a·g,b·g) all in S."""
    group = relation.group
    q = group.order
    n = relation.domain.arity
    m = relation.codomain.arity
    rows = relation.rows
    xs = relation.domain.member_indices()
    counts = [0] * q
    witnesses: list[tuple[int, int, int]] | None = [] if include_witnesses else None
    for g in range(q):
        ginv = group.inv(g)
        dperm = coordinate_action(group, n, g, "right", coordinate, diagonal)
        cinv = coordinate_action(group, m, ginv, "right", coordinate, diagonal)
        shifted: dict[int, int] = {}
        for a in xs:
            ra = rows[a]
            if not ra:
                continue
            ra2 = rows[dperm[a]]
            if not ra2:
                continue
            sa = shifted.get(a)
            if sa is None:
                sa = shifted[a] = permute_bits(ra, cinv)
            a2 = dperm[a]
            sa2 = shifted.get(a2)
            if sa2 is None:
                sa2 = shifted[a2] = permute_bits(ra2, cinv)
            meet = ra & ra2 & sa & sa2
            if meet:
                counts[g] += meet.bit_count()
                _collect(witnesses, witness_cap, meet, a, g)
    return _finish("square", counts, witnesses)


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
    if form not in ("naive", "bmz_left", "bmz_right"):
        raise ValueError(f"unknown corner form {form!r}")
    if relation.domain.arity != 1 or relation.codomain.arity != 1:
        raise ArityUnsupported("corner censuses are defined on G×G (n = m = 1)")
    group = relation.group
    q = group.order
    rows = relation.rows
    xs = relation.domain.member_indices()
    counts = [0] * q
    witnesses: list[tuple[int, int, int]] | None = [] if include_witnesses else None
    for g in range(q):
        ginv = group.inv(g)
        left = [group.mul(g, x) for x in range(q)]
        right = [group.mul(x, g) for x in range(q)]
        inv_left = [group.mul(ginv, y) for y in range(q)]
        shifted: dict[int, int] = {}

        def shl(x: int) -> int:
            s = shifted.get(x)
            if s is None:
                s = shifted[x] = permute_bits(rows[x], inv_left)
            return s

        for x in xs:
            rx = rows[x]
            if not rx:
                continue
            if form == "naive":
                meet = rx & rows[left[x]] & shl(x)
            elif form == "bmz_left":
                x2 = left[x]
                meet = rx & rows[x2] & shl(x2)
            else:
                meet = rx & rows[right[x]] & shl(x)
            if meet:
                counts[g] += meet.bit_count()
                _collect(witnesses, witness_cap, meet, x, g)
    return _finish(form, counts, witnesses)


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
    group = relation.group
    q = group.order
    rows = relation.rows
    xs = relation.domain.member_indices()
    counts = [0] * q
    witnesses: list[tuple[int, int, int]] | None = [] if include_witnesses else None
    for g in range(q):
        ginv = group.inv(g)
        dperm = coordinate_action(group, relation.domain.arity, g, "right", coordinate, diagonal)
        inv_r = [group.mul(y, ginv) for y in range(q)]
        inv_two = [group.mul(group.mul(ginv, y), ginv) for y in range(q)]
        sh1: dict[int, int] = {}
        sh2: dict[int, int] = {}

        def shift(cache, perm, x):
            s = cache.get(x)
            if s is None:
                s = cache[x] = permute_bits(rows[x], perm)
            return s

        for a in xs:
            ra = rows[a]
            if not ra:
                continue
            a2 = dperm[a]
            ra2 = rows[a2]
            if not ra2:
                continue
            meet = ra & ra2 & shift(sh1, inv_r, a) & shift(sh1, inv_r, a2)
            if not meet:
                continue
            meet &= shift(sh2, inv_two, a) & shift(sh2, inv_two, a2)
            if meet:
                counts[g] += meet.bit_count()
                _collect(witnesses, witness_cap, meet, a, g)
    return _finish("rect23", counts, witnesses)


def lshape_census(
    relation: Relation,
    include_witnesses: bool = False,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> PatternCensus:
    """Triples (x, y, d) with (x,y), (x+d,y), (x,y+d), (x,y+2d) in S (abelian)."""
    group = relation.group
    if not group.is_abelian:
        raise NonAbelianGroup("L-shapes are defined over abelian groups")
    if relation.domain.arity != 1 or relation.codomain.arity != 1:
        raise ArityUnsupported("L-shape census is defined on G×G (n = m = 1)")
    q = group.order
    rows = relation.rows
    xs = relation.domain.member_indices()
    counts = [0] * q
    witnesses: list[tuple[int, int, int]] | None = [] if include_witnesses else None
    for d in range(q):
        dinv = group.inv(d)
        d2inv = group.inv(group.mul(d, d))
        sub_d = [group.mul(y, dinv) for y in range(q)]
        sub_2d = [group.mul(y, d2inv) for y in range(q)]
        plus_d = [group.mul(x, d) for x in range(q)]
        for x in xs:
            rx = rows[x]
            if not rx:
                continue
            meet = rx & rows[plus_d[x]] & permute_bits(rx, sub_d) & permute_bits(rx, sub_2d)
            if meet:
                counts[d] += meet.bit_count()
                _collect(witnesses, witness_cap, meet, x, d)
    return _finish("lshape", counts, witnesses)


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
