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
from functools import lru_cache, reduce
from itertools import islice
from operator import and_
from typing import Iterable

from .bits import (
    _column_permuter, _digit_shift, _negate_digit, _tile, full_mask, iter_bits, mask_of, permute_bits,
)
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
# The distinct actions of one side length, over every kind: the mover keeps
# that many moves per side, so a pass over any kinds finds each side
# length's moves kept while it runs (twice as many digit copies, which also
# depend on the domain's σ).
_ACTIONS = len({action for shape in SHAPES.values() for point in shape.points for action in point})


def census(
    relation: Relation,
    kind: str,
    include_witnesses: bool = False,
    witness_cap: int = DEFAULT_WITNESS_CAP,
    coordinate: int | None = None,
    diagonal: bool = False,
) -> PatternCensus:
    """Per-g counts of the triples (a, b, g) whose points of SHAPES[kind] all lie in S.

    The one-kind pass of `_censuses`, the one census engine.
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
    of _matrix_mover. A point with domain action a -> g^ld·a·g^rd and
    codomain action b -> g^lc·b·g^rc, each lifted by (coordinate, diagonal)
    where the shape lifts it, is one int too: the copy of F whose bit
    (a, b) is the bit of F at the acted-on pair. Then counts[g] is the
    popcount of the AND of the copies, and each kind's loop over its points
    stops ANDing once the meet is empty. Rows outside the domain carrier
    are 0, and every shape has the identity point, whose copy is F: so the
    meet lies in the carriers. The mover names each action by its pair of
    elements, (g^ld, g^rd) or (g^lc, g^rc). A domain move permutes bits, so
    it commutes with AND: the points that share a domain action are met as
    one, the AND of their codomain moves moved once by that action's pair.
    The points that move no row come first, one at a time, so a sparse meet
    empties as early as it would point by point.

    Kinds with the same lift share one mover, and the pass takes g in the
    outer loop and the kinds in the inner one: the copies of one side
    length, which the mover keeps while that side length runs, serve every
    kind, and no copy outlives a few side lengths. Every kind is checked,
    in the order given, before any work, so the first kind refused raises
    as its own census would.

    Witnesses list the set bits of each meet in ascending order, decoded
    as (a, b) = divmod(bit, W): g by g, then a, then b.
    """
    if witness_cap < 0:
        raise ValueError(f"witness_cap must be >= 0, got {witness_cap}")
    group = relation.group
    shapes = {}
    for kind in kinds:
        if kind not in SHAPES:
            raise ValueError(f"unknown census kind {kind!r}")
        shape = shapes[kind] = SHAPES[kind]
        if shape.abelian_error and not group.is_abelian:
            raise NonAbelianGroup(shape.abelian_error)
        for lifted, carrier in zip(shape.lifted, (relation.domain, relation.codomain)):
            if not lifted and carrier.arity != 1:
                raise ArityUnsupported(shape.arity_error)
    q = group.order
    table = group._mul_table()
    movers = {}
    passes = []  # per kind: its mover's four values, its plan, its counts and witnesses
    for kind, shape in shapes.items():
        lifts = tuple((coordinate, diagonal) if lifted else (None, False) for lifted in shape.lifted)
        if lifts not in movers:
            movers[lifts] = _matrix_mover(relation, lifts)
        # The points but the identity, as (domain action, codomain actions) met as one.
        by_domain: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for dact, cact in shape.points:
            if dact != (0, 0):
                by_domain.setdefault(dact, []).append(cact)
        plan = [((0, 0), [cact]) for dact, cact in shape.points if dact == (0, 0) != cact]
        plan += by_domain.items()
        passes.append((*movers[lifts], plan, [0] * q, [] if include_witnesses else None))
    # the highest power of g in a point
    top = max((max(p[0] + p[1]) for shape in shapes.values() for p in shape.points), default=0)

    for g in range(q):
        powers = [0, g]
        for _ in range(top - 1):
            powers.append(table[powers[-1]][g])
        for stride, whole, columns, gather, plan, counts, witnesses in passes:
            meet = whole
            for (ld, rd), cacts in plan:
                cpairs = [(powers[lc], powers[rc]) for lc, rc in cacts]
                meet &= gather(columns(*cpairs), (powers[ld], powers[rd]))
                if not meet:
                    break
            counts[g] = meet.bit_count()
            if meet and witnesses is not None and len(witnesses) < witness_cap:
                bits = islice(iter_bits(meet), witness_cap - len(witnesses))
                witnesses += [(bit // stride, bit % stride, g) for bit in bits]
    return {kind: _finish(kind, counts, witnesses)
            for kind, (*_, counts, witnesses) in zip(shapes, passes)}


def _matrix_mover(relation: Relation, lifts):
    """(stride, whole, columns, gather) for the relation's row matrix, whose
    domain and codomain moves lift by lifts = ((coordinate, diagonal) per side).

    whole is S as one int with row stride `stride` bits: bit a·stride + b
    for the pair (a, b). A move is named by a pair (left, right) of
    elements, the map x -> left·x·right of G, with (0, 0) for the identity.
    gather(columns(*cpairs), dpair) is the AND over the codomain pairs of
    the copies of S as one int with bit (a, b) set iff (dmap[a], cmap[b])
    lies in S, for dmap and cmap the pairs' maps lifted. The last _ACTIONS
    moves are kept, which cover the pairs of one side length over every
    census kind. Both lifts are resolved (relations._acted_coordinates)
    before any work, so a bad coordinate raises here.

    On a group with a digit layout (FiniteGroup._digit_layout: products of
    cyclic groups, D_n and H_p) the stride is |Y|, and each acted-on
    coordinate of the pair index holds a group index x = hi·L + lo. The map
    f: x -> left·x·right adds h0 to the hi digits and sends lo to
    σ·lo + t(hi), and is read off the table: h0 at x = 0, which is the one
    lookup left·right; t at the q/L block starts x = hi·L; σ at x = 1, -1
    only on D_n when right is a reflection. Bit (.., x, ..) of a copy is
    bit (.., f(x), ..) of whole. So a copy starts from whole with lo negated
    on each side whose σ is -1 (at most four such bases per mover, each
    built once by bits._negate_digit), rotates every hi digit by -h0
    (bits._digit_shift), and then rotates lo by -σ·t(hi) in each hi block:
    one rotation per distinct offset, masked by the union of the hi blocks
    that share it. Those masks are kept by the blocks they cover, a set
    bounded by the group. On a product of cyclic groups L = 1, and a move
    is its hi rotation alone. No translation map is built.

    Every other group builds the pair's translation map and lifts it,
    keeping the last _ACTIONS lifted maps per side. It moves the columns
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
    layout = group._digit_layout()
    if layout is None:
        stride, permute = _column_permuter(rows, size)
        cuts = [slice(x * stride, (x + 1) * stride) for x in range(len(rows))]
        data = b"".join(row.to_bytes(stride, "little") for row in rows)

        def lifter(arity: int, acted):
            """pair -> its lifted map, keeping the last _ACTIONS pairs."""
            return lru_cache(maxsize=_ACTIONS)(
                lambda pair: _lift_digit_map(translation(group, *pair), arity, acted)
            )

        domain_map, codomain_map = lifter(n, domain_acted), lifter(m, codomain_acted)
        permuted = lru_cache(maxsize=_ACTIONS)(
            lambda cpair: data if cpair == (0, 0) else permute(codomain_map(cpair))
        )

        def gather(cpairs, dpair) -> int:
            meet = -1
            for matrix in map(permuted, cpairs):
                if dpair != (0, 0):
                    matrix = b"".join(map(matrix.__getitem__, map(cuts.__getitem__, domain_map(dpair))))
                meet &= int.from_bytes(matrix, "little")
            return meet

        return stride * 8, int.from_bytes(data, "little"), _pairs, gather

    hi_digits, lo_length = layout
    q = group.order
    table = group._mul_table()
    total = len(rows) * size
    # The weight in the pair index of each acted-on coordinate's group index.
    domain_weights = [size * q ** (n - 1 - c) for c in domain_acted]
    codomain_weights = [q ** (m - 1 - c) for c in codomain_acted]
    # (weight in the group index, weight in the pair index, length) of each acted-on hi digit.
    domain_places, codomain_places = (
        [(w, weight * w, length) for weight in weights for w, length in hi_digits]
        for weights in (domain_weights, codomain_weights)
    )
    periods: dict[int, int] = {}  # period -> the mask of its multiples below total

    # The masks are as long as the matrix: keep the few that one side length reuses.
    @lru_cache(maxsize=16)
    def shift(weight: int, length: int, step: int) -> tuple[int, int, int, int]:
        period = weight * length
        if period not in periods:
            periods[period] = _tile(1, period, total) & full_mask(total)
        return _digit_shift(periods[period], weight, length, step)

    def rotate(matrix: int, weight: int, length: int, step: int) -> int:
        shl, high, shr, low = shift(weight, length, step)
        return (matrix << shl & high) | (matrix >> shr & low)

    def shifted(matrix: int, digit_places, pair) -> int:
        """The matrix with the hi digits rotated by minus those of left·right."""
        h = table[pair[0]][pair[1]]
        if not h:
            return matrix
        for w, scaled, length in digit_places:
            step = -(h // w) % length
            if step:
                matrix = rotate(matrix, scaled, length, step)
        return matrix

    whole = int("".join(format(row, f"0{size}b") for row in reversed(rows)), 2)
    if lo_length == 1:
        copy = lru_cache(maxsize=_ACTIONS)(lambda cpair: shifted(whole, codomain_places, cpair))
        return (size, whole, lambda *cpairs: reduce(and_, map(copy, cpairs)),
                lambda matrix, dpair: shifted(matrix, domain_places, dpair))

    @lru_cache(maxsize=_ACTIONS)
    def offsets(pair) -> tuple[bool, list[tuple[int, int]]]:
        """(σ = -1, (lo step, hi blocks taking it as a mask) per distinct step)."""
        left, right = pair
        row = table[left]
        starts = [table[x][right] for x in row[::lo_length]]
        negated = lo_length > 2 and (table[row[1]][right] - starts[0]) % lo_length != 1
        sign = 1 if negated else -1
        blocks: dict[int, int] = {}
        for h, t in enumerate(starts):
            step = sign * t % lo_length
            blocks[step] = blocks.get(step, 0) | 1 << h
        return negated, list(blocks.items())

    unions: dict[tuple[int, int], int] = {}  # (weight, hi blocks) -> their union; the group bounds the keys

    def union(weight: int, blocks: int) -> int:
        if (weight, blocks) not in unions:
            span = lo_length * weight
            pattern = sum(full_mask(span) << h * span for h in iter_bits(blocks))
            unions[weight, blocks] = _tile(pattern, q * weight, total) & full_mask(total)
        return unions[weight, blocks]

    def moved(matrix: int, weights, digit_places, pair) -> int:
        """shifted, then lo rotated by -σ·t(hi) in each hi block."""
        matrix = shifted(matrix, digit_places, pair)
        _, steps = offsets(pair)
        for weight in weights:
            out = 0
            for step, blocks in steps:
                part = matrix if len(steps) == 1 else matrix & union(weight, blocks)
                out |= rotate(part, weight, lo_length, step) if step else part
            matrix = out
        return matrix

    bases = {(False, False): whole}

    def base(negated: tuple[bool, bool]) -> int:
        """whole with lo negated at the acted-on coordinates of the sides marked."""
        if negated not in bases:
            dneg, cneg = negated
            matrix, weights = (base((False, cneg)), domain_weights) if dneg else (whole, codomain_weights)
            for weight in weights:
                matrix = _negate_digit(matrix, total, weight, lo_length)
            bases[negated] = matrix
        return bases[negated]

    @lru_cache(maxsize=2 * _ACTIONS)
    def copy(cpair, dneg: bool) -> int:
        return moved(base((dneg, offsets(cpair)[0])), codomain_weights, codomain_places, cpair)

    def gather(cpairs, dpair) -> int:
        dneg = offsets(dpair)[0]
        matrix = reduce(and_, [copy(cpair, dneg) for cpair in cpairs])
        return moved(matrix, domain_weights, domain_places, dpair)

    # The codomain moves wait for the domain pair, whose σ picks their base.
    return size, whole, _pairs, gather


def _pairs(*pairs):
    return pairs


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
    translated = permute_bits(members, _side_translation(group, g, side))
    return Fraction((members ^ translated).bit_count(), group.order)
