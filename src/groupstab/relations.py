"""Relations S ⊆ X×Y over Cartesian powers of a finite group, as row bitsets.

The incidence matrix is stored row-major: rows[x] is the bitset of codomain
indices y with (x, y) in S. Carrier tuples of G^n are packed into a single
mixed-radix index (first coordinate most significant), so the last
coordinate of an index is just `index % |G|`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .bits import _column_permuter, full_mask, iter_bits, mask_of, permute_bits
from .errors import (
    ArityMismatch,
    CarrierMismatch,
    CrossGroupElement,
    EmptyCarrier,
    PairOutsideCarrier,
)
from .groups import FiniteGroup, GroupElement, _element_index, translation

_HEX_RE = re.compile(r"[0-9a-fA-F]+")


def power_size(group: FiniteGroup, arity: int) -> int:
    return group.order**arity


def encode_tuple(group: FiniteGroup, coords: Sequence[int]) -> int:
    idx = 0
    for c in coords:
        idx = idx * group.order + c
    return idx


def decode_tuple(group: FiniteGroup, arity: int, index: int) -> tuple[int, ...]:
    out = []
    for _ in range(arity):
        index, digit = divmod(index, group.order)
        out.append(digit)
    return tuple(reversed(out))


def coordinate_action(
    group: FiniteGroup,
    arity: int,
    g: GroupElement | int,
    side: str = "right",
    coordinate: int | None = None,
    diagonal: bool = False,
) -> list[int]:
    """Permutation of G^arity indices given by acting with g on one coordinate.

    side "right" maps the designated digit d to d*g, "left" to g*d. With
    diagonal=True every coordinate is acted on simultaneously. The default
    coordinate is the last one (the least significant digit).
    """
    g = _element_index(group, g)
    return _lift_digit_map(
        _side_translation(group, g, side), arity, _acted_coordinates(arity, coordinate, diagonal)
    )


def _side_translation(group: FiniteGroup, g: int, side: str) -> list[int]:
    """The map x -> x·g (side "right") or x -> g·x (side "left") of G."""
    if side == "right":
        return translation(group, right=g)
    if side == "left":
        return translation(group, left=g)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _acted_coordinates(arity: int, coordinate: int | None, diagonal: bool) -> Sequence[int]:
    """The coordinates of G^arity that a lifted map of G acts on: every one
    with diagonal=True, which ignores `coordinate`, else the designated one,
    the last by default, after checking it."""
    if diagonal:
        return range(arity)
    coord = arity - 1 if coordinate is None else coordinate
    if not 0 <= coord < arity:
        raise ArityMismatch(f"coordinate {coord} invalid for arity {arity}")
    return [coord]


def _lift_digit_map(digit_map: Sequence[int], arity: int, acted: Sequence[int]) -> list[int]:
    """Permutation of G^arity indices applying a map of G to the acted coordinates."""
    identity = range(len(digit_map))
    return _lift_digit_maps([digit_map if c in acted else identity for c in range(arity)])


def _lift_digit_maps(digit_maps: Sequence[Sequence[int]]) -> list[int]:
    """Permutation of G^arity indices applying digit_maps[i] to coordinate i."""
    perm = list(digit_maps[0])
    for digit_map in digit_maps[1:]:
        q = len(digit_map)
        perm = [p * q + e for p in perm for e in digit_map]
    return perm


@dataclass(frozen=True)
class CarrierSet:
    """A subset X ⊆ G^arity as a bitset over packed tuple indices."""

    group: FiniteGroup
    arity: int
    members: int

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError(f"carrier arity must be >= 1, got {self.arity}")
        if self.members >> power_size(self.group, self.arity):
            raise ValueError("carrier members exceed |G|^arity universe")

    @staticmethod
    def full(group: FiniteGroup, arity: int = 1) -> "CarrierSet":
        return CarrierSet(group, arity, full_mask(power_size(group, arity)))

    @staticmethod
    def from_indices(group: FiniteGroup, arity: int, indices: Iterable[int]) -> "CarrierSet":
        return CarrierSet(group, arity, mask_of(indices))

    @property
    def size(self) -> int:
        return self.members.bit_count()

    @property
    def universe(self) -> int:
        return power_size(self.group, self.arity)

    def member_indices(self) -> list[int]:
        return list(iter_bits(self.members))


@dataclass(frozen=True)
class Relation:
    """Bit-matrix relation with explicit carriers; immutable value."""

    domain: CarrierSet
    codomain: CarrierSet
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.domain.group is not self.codomain.group:
            raise CarrierMismatch("domain and codomain must share one group")
        if len(self.rows) != self.domain.universe:
            raise ValueError(
                f"expected {self.domain.universe} rows, got {len(self.rows)}"
            )
        ymask = self.codomain.members
        xmask = self.domain.members
        for x, row in enumerate(self.rows):
            if row & ~ymask:
                raise PairOutsideCarrier(f"row {x} has bits outside the codomain carrier")
            if row and not xmask >> x & 1:
                raise PairOutsideCarrier(f"row {x} is outside the domain carrier but non-empty")

    @classmethod
    def _from_fitting_rows(
        cls, domain: CarrierSet, codomain: CarrierSet, rows: tuple[int, ...]
    ) -> "Relation":
        """A relation whose rows are already known to fit its carriers, such as a
        union of boxes inside a checked relation's carriers: no re-check."""
        relation = object.__new__(cls)
        for name, value in (("domain", domain), ("codomain", codomain), ("rows", rows)):
            object.__setattr__(relation, name, value)
        return relation

    @property
    def group(self) -> FiniteGroup:
        return self.domain.group

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def has_pair(self, x: int, y: int) -> bool:
        return bool(self.rows[x] >> y & 1)

    def pairs(self) -> Iterable[tuple[int, int]]:
        for x, row in enumerate(self.rows):
            for y in iter_bits(row):
                yield (x, y)


def build_relation(
    domain: CarrierSet,
    codomain: CarrierSet,
    pairs: Iterable[tuple[int, int]] | None = None,
    predicate: Callable[[int, int], bool] | None = None,
) -> Relation:
    """Assemble a relation from explicit pairs or a predicate over the carriers."""
    if (pairs is None) == (predicate is None):
        raise ValueError("provide exactly one of pairs or predicate")
    rows = [0] * domain.universe
    if pairs is not None:
        xmask, ymask = domain.members, codomain.members
        for x, y in pairs:
            if not (0 <= x < domain.universe and xmask >> x & 1):
                raise PairOutsideCarrier(f"domain index {x} outside carrier")
            if not (0 <= y < codomain.universe and ymask >> y & 1):
                raise PairOutsideCarrier(f"codomain index {y} outside carrier")
            rows[x] |= 1 << y
    else:
        ys = codomain.member_indices()
        for x in domain.member_indices():
            row = 0
            for y in ys:
                if predicate(x, y):
                    row |= 1 << y
            rows[x] = row
    return Relation(domain, codomain, tuple(rows))


def cayley_graph(group: FiniteGroup, members: int, direction: str = "left") -> Relation:
    """Cayley relation of an element bitset on full carriers G×G.

    direction "left" sets bit (g, h) iff g^-1·h is a member; "right" sets it
    iff h^-1·g is a member.
    """
    if members >> group.order:
        raise ValueError("member bitset exceeds the group universe")
    if direction == "right":
        # Row g is g·A^-1: h^-1·g lies in A iff h = g·a^-1 for some a in A.
        members = mask_of(group.inv(a) for a in iter_bits(members))
    elif direction != "left":
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    rows = tuple(permute_bits(members, translation(group, left=g)) for g in range(group.order))
    carrier = CarrierSet.full(group, 1)
    return Relation(carrier, carrier, rows)


def density(relation: Relation, normalization: str = "group_power") -> Fraction:
    """Exact density of the relation: |S| over the chosen denominator."""
    edges = relation.edge_count
    if normalization == "group_power":
        q = relation.group.order
        return Fraction(edges, q ** (relation.domain.arity + relation.codomain.arity))
    if normalization == "carrier":
        denom = relation.domain.size * relation.codomain.size
        if denom == 0:
            raise EmptyCarrier("carrier normalization over an empty carrier product")
        return Fraction(edges, denom)
    raise ValueError(f"unknown normalization {normalization!r}")


def _shift_map(group: FiniteGroup, arity: int, shift, side) -> list[int] | None:
    """Permutation of G^arity applying one side's shift, or None for no shift.

    It is lifted from the per-coordinate translations: x -> x·g for a right
    shift by g, x -> g·x for a left one.
    """
    if shift is None:
        return None
    if isinstance(shift, GroupElement):
        if arity > 1:
            raise ArityMismatch(
                f"single-element shift needs arity 1, carrier has arity {arity}; "
                "pass a per-coordinate tuple instead"
            )
        shift = (shift,)
    shifts: list[int | None] = []
    for item in shift:
        if item is None:
            shifts.append(None)
        elif isinstance(item, GroupElement):
            if item.group is not group:
                raise CrossGroupElement(
                    f"shift element of {item.group.name} used with {group.name}"
                )
            shifts.append(item.index)
        else:
            raise ArityMismatch(f"shift entries must be GroupElement or None, got {item!r}")
    if len(shifts) != arity:
        raise ArityMismatch(f"shift tuple length {len(shifts)} != arity {arity}")
    sides = [side] * arity if isinstance(side, str) else list(side)
    if len(sides) != arity:
        raise ArityMismatch(f"side tuple length {len(sides)} != arity {arity}")
    return _lift_digit_maps([
        range(group.order) if s is None else _side_translation(group, s, sd)
        for s, sd in zip(shifts, sides)
    ])


def translate_relation(
    relation: Relation,
    domain_shift=None,
    codomain_shift=None,
    domain_side="right",
    codomain_side="right",
) -> Relation:
    """Shift each coordinate by a group element.

    Output bit (x, y) is set iff the input holds the shifted pair: for a
    right domain shift by g and right codomain shift by h, iff
    (x·g, y·h) is in the input. Carriers move along, so carriers and edge
    counts are preserved. Shifts are GroupElement (arity 1), tuples of
    GroupElement/None per coordinate (higher arity), or None for identity.
    """
    group = relation.group
    dom, cod, rows = relation.domain, relation.codomain, list(relation.rows)
    dmap = _shift_map(group, dom.arity, domain_shift, domain_side)
    cmap = _shift_map(group, cod.arity, codomain_shift, codomain_side)
    # Output (x, y) is input (dmap[x], cmap[y]). The codomain move takes
    # column cmap[y] of every row, and of the carrier as one more row, to
    # column y at once.
    if cmap is not None:
        stride, permute = _column_permuter([*rows, cod.members], cod.universe)
        moved = permute(cmap)
        *rows, members = (
            int.from_bytes(moved[i:i + stride], "little") for i in range(0, len(moved), stride)
        )
        cod = CarrierSet(group, cod.arity, members)
    if dmap is not None:
        rows = list(map(rows.__getitem__, dmap))
        members = mask_of(x for x, source in enumerate(dmap) if dom.members >> source & 1)
        dom = CarrierSet(group, dom.arity, members)
    return Relation(dom, cod, tuple(rows))


def relation_algebra(op: str, lhs: Relation, rhs: Relation | None = None) -> Relation:
    """Bitwise combination of relations on identical carriers."""
    unary = op == "complement_within_carriers"
    if unary and rhs is not None:
        raise ValueError("complement_within_carriers takes a single relation")
    if not unary:
        if rhs is None:
            raise ValueError(f"operation {op!r} needs two relations")
        if (
            lhs.group is not rhs.group
            or lhs.domain != rhs.domain
            or lhs.codomain != rhs.codomain
        ):
            raise CarrierMismatch("relation algebra requires identical carriers")
    xmask = lhs.domain.members
    ymask = lhs.codomain.members
    if op == "and":
        rows = [a & b for a, b in zip(lhs.rows, rhs.rows)]
    elif op == "or":
        rows = [a | b for a, b in zip(lhs.rows, rhs.rows)]
    elif op == "diff":
        rows = [a & ~b for a, b in zip(lhs.rows, rhs.rows)]
    elif op == "symdiff":
        rows = [a ^ b for a, b in zip(lhs.rows, rhs.rows)]
    elif unary:
        rows = [
            (ymask & ~row) if xmask >> x & 1 else 0
            for x, row in enumerate(lhs.rows)
        ]
    else:
        raise ValueError(f"unknown relation operation {op!r}")
    return Relation(lhs.domain, lhs.codomain, tuple(rows))


def save_relation(relation: Relation, path) -> None:
    Path(path).write_text(dump_relation(relation))


def dump_relation(relation: Relation) -> str:
    """Serialize: header "n m |G| recipe-hash", then one lowercase-hex row per line.

    Proper carriers (anything below the full Cartesian power) are appended as
    two extra lines "X=<hex>" and "Y=<hex>"; full-carrier relations omit them.
    """
    group = relation.group
    n = relation.domain.arity
    m = relation.codomain.arity
    lines = [f"{n} {m} {group.order} {group.recipe_hash()}"]
    lines.extend(format(row, "x") for row in relation.rows)
    if relation.domain.members != full_mask(relation.domain.universe):
        lines.append(f"X={format(relation.domain.members, 'x')}")
    if relation.codomain.members != full_mask(relation.codomain.universe):
        lines.append(f"Y={format(relation.codomain.members, 'x')}")
    return "\n".join(lines) + "\n"


def load_relation(path, group: FiniteGroup) -> Relation:
    return parse_relation(Path(path).read_text(), group)


def parse_relation(text: str, group: FiniteGroup) -> Relation:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty relation file")
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError(f"bad relation header: {lines[0]!r}")
    n, m, order, digest = int(head[0]), int(head[1]), int(head[2]), head[3]
    if n < 1 or m < 1:
        raise ValueError(f"bad relation header: arities must be >= 1 in {lines[0]!r}")
    if order != group.order or digest != group.recipe_hash():
        raise ValueError(
            f"relation was saved for a different group "
            f"(order {order}, hash {digest}; have {group.order}, {group.recipe_hash()})"
        )
    nrows = power_size(group, n)
    if len(lines) < 1 + nrows:
        raise ValueError(f"expected {nrows} row lines, found {len(lines) - 1}")
    rows = tuple(_hex(lines[1 + i]) for i in range(nrows))
    xmask = full_mask(nrows)
    ymask = full_mask(power_size(group, m))
    for extra in lines[1 + nrows:]:
        key, _, value = extra.partition("=")
        if key == "X":
            xmask = _hex(value)
        elif key == "Y":
            ymask = _hex(value)
        else:
            raise ValueError(f"unexpected trailer line: {extra!r}")
    return Relation(CarrierSet(group, n, xmask), CarrierSet(group, m, ymask), rows)


def _hex(text: str) -> int:
    """A bitset written as hex digits only: no sign, prefix or underscore."""
    digits = text.strip()
    if not _HEX_RE.fullmatch(digits):
        raise ValueError(f"not a hex bitset: {text!r}")
    return int(digits, 16)
