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
from .errors import CarrierMismatch
from .genlab import as_fraction
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
            "symdiff_error": {
                "num": self.symdiff_error.numerator,
                "den": self.symdiff_error.denominator,
            },
            "overcount_error": {
                "num": self.overcount_error.numerator,
                "den": self.overcount_error.denominator,
            },
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
    if max_boxes < 0:
        raise ValueError(f"max_boxes must be >= 0, got {max_boxes}")
    group = relation.group
    rows = relation.rows
    denom = group.order ** (relation.domain.arity + relation.codomain.arity)
    xmask = relation.domain.members
    ymask = relation.codomain.members
    union = [0] * len(rows)
    boxes: list[tuple[int, int]] = []
    symdiff, _, over = _cover_errors(rows, union, denom)
    while len(boxes) < max_boxes and symdiff >= eps:
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
        for x in iter_bits(xb):
            union[x] |= yb
        symdiff, _, over = _cover_errors(rows, union, denom)
    return BoxCover(
        boxes=tuple(boxes),
        union=Relation(relation.domain, relation.codomain, tuple(union)),
        symdiff_error=symdiff,
        overcount_error=over,
    )


def _cover_errors(rows, union, denom: int) -> tuple[Fraction, Fraction, Fraction]:
    """(symdiff, missed, overcount) of the union rows against S's rows, over denom."""
    missed = over = 0
    for r, u in zip(rows, union):
        missed += (r & ~u).bit_count()
        over += (u & ~r).bit_count()
    return Fraction(missed + over, denom), Fraction(missed, denom), Fraction(over, denom)


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
    return _cover_errors(relation.rows, cover.union.rows, denom)
