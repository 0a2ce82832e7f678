"""Greedy approximation of a relation by a finite union of boxes X_i × Y_i.

A box is a combinatorial rectangle inside the carriers. The greedy loop
seeds each box at the lexicographically least uncovered edge of S and grows
a maximal rectangle around it: first the seed row is extended across its
columns, then rows are admitted, alternating to a fixpoint; an index is
admitted only while the rectangle keeps at least the requested purity
fraction inside S. A union of l boxes induces no half-graph of height l+1:
two of the l+1 diagonal edges would share a box, which forces the
forbidden off-diagonal pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bits import iter_bits
from .errors import CarrierMismatch, _check_int
from .genlab import as_fraction, frac_json
from .halfgraph import DEFAULT_EXACT_BUDGET, count_halfgraphs_exact
from .relations import Relation


@dataclass
class BoxCover:
    """An ordered list of boxes with exact error measurements against S."""

    boxes: tuple[tuple[int, int], ...]
    union: Relation
    symdiff_error: Fraction
    overcount_error: Fraction

    def to_json(self) -> dict:
        return {
            "boxes": [
                {"domain": list(iter_bits(xb)), "codomain": list(iter_bits(yb))}
                for xb, yb in self.boxes
            ],
            "symdiff_error": frac_json(self.symdiff_error),
            "overcount_error": frac_json(self.overcount_error),
        }


def _grow_box(rows, xmask, ymask, x0, y0, purity: Fraction) -> tuple[int, int]:
    """Maximal rectangle containing the seed edge under the purity constraint."""
    if purity == 1:
        # Pure rectangles close in two half-steps: the seed row's full column
        # set, then every row containing those columns.
        yb = rows[x0]
        xb = 0
        for x in iter_bits(xmask):
            if rows[x] & yb == yb:
                xb |= 1 << x
        return xb, yb
    num, den = purity.numerator, purity.denominator
    xb = 1 << x0
    yb = 1 << y0
    nx = ny = 1
    inside = 1
    changed = True
    while changed:
        changed = False
        for y in iter_bits(ymask & ~yb):
            gain = sum(rows[x] >> y & 1 for x in iter_bits(xb))
            if (inside + gain) * den >= num * nx * (ny + 1):
                yb |= 1 << y
                ny += 1
                inside += gain
                changed = True
        for x in iter_bits(xmask & ~xb):
            gain = (rows[x] & yb).bit_count()
            if (inside + gain) * den >= num * (nx + 1) * ny:
                xb |= 1 << x
                nx += 1
                inside += gain
                changed = True
    return xb, yb


def greedy_box_cover(
    relation: Relation, epsilon, max_boxes: int, purity=1
) -> BoxCover:
    """Cover S by boxes until the symmetric-difference error drops below
    epsilon, the box budget is spent, or S is fully covered."""
    eps = as_fraction(epsilon)
    pur = as_fraction(purity)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if not 0 < pur <= 1:
        raise ValueError(f"purity must lie in (0, 1], got {purity}")
    _check_int(max_boxes, "max_boxes")
    if max_boxes < 0:
        raise ValueError(f"max_boxes must be >= 0, got {max_boxes}")
    group = relation.group
    rows = relation.rows
    denom = group.order ** (relation.domain.arity + relation.codomain.arity)
    xmask = relation.domain.members
    ymask = relation.codomain.members
    union = [0] * len(rows)
    boxes: list[tuple[int, int]] = []
    missed, over = _miss_over(rows, union, range(len(rows)))
    while len(boxes) < max_boxes and (missed + over) * eps.denominator >= eps.numerator * denom:
        seed = None
        for x in iter_bits(xmask):
            uncovered = rows[x] & ~union[x]
            if uncovered:
                seed = (x, (uncovered & -uncovered).bit_length() - 1)
                break
        if seed is None:
            break
        xb, yb = _grow_box(rows, xmask, ymask, seed[0], seed[1], pur)
        boxes.append((xb, yb))
        xs = list(iter_bits(xb))
        before = _miss_over(rows, union, xs)
        for x in xs:
            union[x] |= yb
        after = _miss_over(rows, union, xs)
        missed += after[0] - before[0]
        over += after[1] - before[1]
    return BoxCover(
        boxes=tuple(boxes),
        # Boxes lie inside the checked carriers, so the union needs no re-check.
        union=Relation._from_fitting_rows(relation.domain, relation.codomain, tuple(union)),
        symdiff_error=Fraction(missed + over, denom),
        overcount_error=Fraction(over, denom),
    )


def _miss_over(rows, union, xs) -> tuple[int, int]:
    """(missed, over): pairs of S outside the union and union pairs outside S,
    counted over the rows xs."""
    missed = over = 0
    for x in xs:
        r = rows[x]
        u = union[x]
        missed += (r & ~u).bit_count()
        over += (u & ~r).bit_count()
    return missed, over


def box_union_stability_check(
    cover: BoxCover, budget: int = DEFAULT_EXACT_BUDGET
) -> tuple[int, int]:
    """(l, |H_{l+1}(U)|) for the l-box union U; the count must come out 0."""
    ell = len(cover.boxes)
    report = count_halfgraphs_exact(cover.union, ell + 1, budget=budget)
    return ell, report.exact_count


def cover_error(
    relation: Relation, cover: BoxCover
) -> tuple[Fraction, Fraction, Fraction]:
    """(symdiff, missed, overcount) of the cover against S, all exact."""
    if (
        relation.group is not cover.union.group
        or relation.domain != cover.union.domain
        or relation.codomain != cover.union.codomain
    ):
        raise CarrierMismatch("cover was built over different carriers")
    denom = relation.group.order ** (
        relation.domain.arity + relation.codomain.arity
    )
    rows = relation.rows
    missed, over = _miss_over(rows, cover.union.rows, range(len(rows)))
    return Fraction(missed + over, denom), Fraction(missed, denom), Fraction(over, denom)
