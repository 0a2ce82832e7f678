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
from functools import cache, lru_cache, partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .bits import (
    _checked_mask, _column_permuter, _digit_shift, _negate_digit, _tile, _tile_width, full_mask, iter_bits,
    mask_of, permute_bits,
)
from .errors import (
    ArityMismatch,
    CarrierMismatch,
    CrossGroupElement,
    EmptyCarrier,
    PairOutsideCarrier,
    _check_index,
    _check_int,
    _check_mask,
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
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    move = [_side_pair(_element_index(group, g), side)]
    return _lift_move(group, arity, [_acted_coordinates(arity, coordinate, diagonal)], move)


def _side_pair(g: int, side: str) -> tuple[int, int]:
    """The pair (left, right) of the map x -> x·g (side "right") or x -> g·x (side "left")."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return (g, 0) if side == "left" else (0, g)


def _acted_coordinates(arity: int, coordinate: int | None, diagonal: bool) -> Sequence[int]:
    """The coordinates of G^arity that a lifted map of G acts on: every one
    with diagonal=True, which ignores `coordinate` once it is checked to be an
    int or None, else the designated one, the last by default, after
    checking it."""
    if coordinate is not None:
        _check_int(coordinate, "coordinate")
    if diagonal:
        return range(arity)
    coord = arity - 1 if coordinate is None else coordinate
    if not 0 <= coord < arity:
        raise ArityMismatch(f"coordinate {coord} invalid for arity {arity}")
    return [coord]


def _lift_move(group: FiniteGroup, arity: int, slots, move) -> list[int]:
    """Permutation of G^arity indices applying the map x -> left·x·right of
    each pair (left, right) of the move to every coordinate of its slot."""
    q = group.order
    digit_maps: list[Sequence[int]] = [range(q)] * arity
    for slot, pair in zip(slots, move):
        digit_map = translation(group, *pair)
        for c in slot:
            digit_maps[c] = digit_map
    perm = list(digit_maps[0])
    for digit_map in digit_maps[1:]:
        perm = [p * q + e for p in perm for e in digit_map]
    return perm


# The moves the column permuter keeps per side: the distinct actions of one side
# length over every census kind (patterns.SHAPES), so the points of a census pass
# that share an action find its lifted map, or its moved columns, kept.
_KEPT_MOVES = 5


def _matrix_mover(relation: Relation, slots):
    """(stride, whole, copy) for the relation's row matrix: the one code
    that moves a relation's rows.

    whole is S as one int, bit a·stride + b for the pair (a, b). slots =
    (domain slots, codomain slots), a slot being a set of coordinates of
    that side's carrier. A move gives one pair (left, right) per slot, the
    domain's slots first, whose map x -> left·x·right of G acts on every
    coordinate of the slot; (0, 0) is the identity. A census passes one
    slot per side, its acted-on coordinates, and translate_relation one per
    coordinate. copy(move, kept=None) is (move, C) for C the copy of S at
    the move: bit (a, b) of C is set iff (dmap[a], cmap[b]) lies in S, for
    dmap and cmap the move's two sides lifted (_lift_move). kept is such a
    pair, made earlier by the same mover; a kept pair at the same move comes
    back as it is.

    On a group with a digit layout (FiniteGroup._layout, set when products
    of cyclic groups, D_n and H_p are built) the stride is |Y|, and each
    coordinate of the pair index holds a group index x = hi·L + lo. The map
    f: x -> left·x·right adds h0 to the hi digits and sends lo to
    σ·lo + t(hi), and is read off the table: h0 at x = 0, which is the one
    lookup left·right; t at the q/L block starts x = hi·L; σ at x = 1, -1
    only on D_n when right is a reflection. Bit (.., x, ..) of a copy is
    bit (.., f(x), ..) of the matrix it is moved from. So a move negates lo
    at the coordinates of each slot whose σ is -1 (bits._negate_digit),
    and is compiled to steps: (shl, high, shr, low) rotations, each one
    shift-and-mask of the whole matrix, that rotate every hi digit of each
    slot by -h0 (bits._digit_shift) and lo by -σ·t(hi) where every hi block
    has the same t, then, per coordinate whose blocks do not, (mask,
    rotation or None) parts, one per distinct offset, masked by the union
    of the hi blocks that share it. On a product of cyclic groups L = 1.

    A copy is carried from kept where it can be: the kept copy at move
    (l0, r0) per slot is moved by the one-step move δ = (l0⁻¹·l, r·r0⁻¹)
    per slot, since l·x·r = l0·(δl·x·δr)·r0. The mover keeps one dict from
    δ to its steps, so a census, which passes each point's copy at an
    earlier side length, compiles each of its few steps once: mostly the
    central element on H_p (one unmasked lo rotation), a rotation on D_n
    (one or two block rotations), a unit step of the low digits on a
    product of cyclic groups. A δ with σ = -1 in some slot (D_n's right
    moves by a reflection) compiles to None, and the copy is built from
    whole by the move itself, as where there is no kept pair: whole with
    lo negated at those slots is made once, where a kept copy would be
    negated anew. The steps of such fresh moves are not kept, since they
    differ from one side length to the next; nothing outlives the mover.

    Every other group always builds from whole. It lifts each move's
    domain map, keeping the last _KEPT_MOVES, and moves the columns of all
    rows at once (bits._column_permuter, built on the first codomain move)
    into row-major bytes, keeping the last _KEPT_MOVES codomain moves, with
    the padded tile width as stride; a domain map joins their rows in its
    order, and one int.from_bytes makes the copy.
    """
    group = relation.group
    dslots, cslots = slots
    n, m = relation.domain.arity, relation.codomain.arity
    rows = relation.rows
    size = relation.codomain.universe
    if group._layout is None:
        t = _tile_width(len(rows), size)
        stride = -(-size // t) * t // 8
        cuts = [slice(x * stride, (x + 1) * stride) for x in range(len(rows))]
        data = b"".join(row.to_bytes(stride, "little") for row in rows)
        dstill, cstill = (((0, 0),) * len(side) for side in slots)
        split = len(dslots)
        domain_map = lru_cache(maxsize=_KEPT_MOVES)(partial(_lift_move, group, n, dslots))
        # The tiles are transposed on the first codomain move: a domain move needs none.
        permuter = cache(lambda: _column_permuter(rows, size)[1])

        @lru_cache(maxsize=_KEPT_MOVES)
        def permuted(cmove) -> bytes:
            return data if cmove == cstill else permuter()(_lift_move(group, m, cslots, cmove))

        def copy(move, kept=None):
            if kept is not None and kept[0] == move:
                return kept
            dmove = move[:split]
            matrix = permuted(move[split:])
            if dmove != dstill:
                matrix = b"".join(map(matrix.__getitem__, map(cuts.__getitem__, domain_map(dmove))))
            return move, int.from_bytes(matrix, "little")

        return stride * 8, int.from_bytes(data, "little"), copy

    his, lo_length = group._layout
    q = group.order
    table = group._mul_table()
    inverse = [group.inv(x) for x in range(q)]
    total = len(rows) * size
    whole = int("".join(format(row, f"0{size}b") for row in reversed(rows)), 2)
    # Per slot, domain slots first: the weight in the pair index of each coordinate's
    # group index, and (weight in the group index, in the pair index, length) of each hi digit.
    weights = [[unit * q ** (arity - 1 - c) for c in slot]
               for unit, arity, side in ((size, n, dslots), (1, m, cslots)) for slot in side]
    places = [[(w, weight * w, length) for weight in slot_weights for w, length in his]
              for slot_weights in weights]
    periods: dict[int, int] = {}  # period -> the mask of its multiples below total

    # The masks are as long as the matrix: the compiled steps δ and the fresh moves
    # (D_n's right moves by a reflection, at every side length) share them.
    @cache
    def shift(weight: int, length: int, step: int) -> tuple[int, int, int, int]:
        period = weight * length
        if period not in periods:
            periods[period] = _tile(1, period, total) & full_mask(total)
        return _digit_shift(periods[period], weight, length, step)

    unions: dict[tuple[int, int], int] = {}  # (weight, hi blocks) -> their union; the group bounds the keys

    def union(weight: int, blocks: int) -> int:
        if (weight, blocks) not in unions:
            span = lo_length * weight
            pattern = sum(full_mask(span) << h * span for h in iter_bits(blocks))
            unions[weight, blocks] = _tile(pattern, q * weight, total) & full_mask(total)
        return unions[weight, blocks]

    def compiled(move):
        """(the slots whose σ is -1, as a mask; the move's steps as (rotations,
        parts per coordinate whose lo takes several offsets))."""
        negated, rotations, parted = 0, [], []
        for slot, (left, right) in enumerate(move):
            h = table[left][right]
            if h:
                for w, scaled, length in places[slot]:
                    step = -(h // w) % length
                    if step:
                        rotations.append(shift(scaled, length, step))
            if lo_length == 1:
                continue
            row = table[left]
            starts = [table[x][right] for x in row[::lo_length]]
            flip = lo_length > 2 and (table[row[1]][right] - starts[0]) % lo_length != 1
            negated |= flip << slot
            blocks: dict[int, int] = {}
            for hi, t in enumerate(starts):
                step = (t if flip else -t) % lo_length
                blocks[step] = blocks.get(step, 0) | 1 << hi
            for weight in weights[slot]:
                if len(blocks) > 1:
                    parted.append([(union(weight, hi), shift(weight, lo_length, step) if step else None)
                                   for step, hi in blocks.items()])
                elif 0 not in blocks:
                    rotations.append(shift(weight, lo_length, *blocks))
        return negated, (rotations, parted)

    def carry(matrix: int, steps) -> int:
        """The matrix moved by the compiled steps of a move."""
        rotations, parted = steps
        for shl, high, shr, low in rotations:
            matrix = (matrix << shl & high) | (matrix >> shr & low)
        for parts in parted:
            out = 0
            for mask, rotation in parts:
                part = matrix & mask
                if rotation:
                    shl, high, shr, low = rotation
                    part = (part << shl & high) | (part >> shr & low)
                out |= part
            matrix = out
        return matrix

    def negated_at(matrix: int, negated: int) -> int:
        """The matrix with lo negated at the coordinates of the slots in the mask."""
        for slot, slot_weights in enumerate(weights):
            if negated >> slot & 1:
                for weight in slot_weights:
                    matrix = _negate_digit(matrix, total, weight, lo_length)
        return matrix

    bases: dict[int, int] = {}  # the slots negated, as a mask -> whole negated there
    programs: dict = {}  # δ -> its compiled steps, None where δ negates a digit

    def copy(move, kept=None):
        if kept is not None:
            then, matrix = kept
            if then == move:
                return kept
            if len(move) == 2:  # a census's two slots: δ unpacked by hand
                (l0, r0), (c0, s0) = then
                (l1, r1), (c1, s1) = move
                delta = ((table[inverse[l0]][l1], table[r1][inverse[r0]]),
                         (table[inverse[c0]][c1], table[s1][inverse[s0]]))
            else:
                delta = tuple([(table[inverse[l0]][l1], table[r1][inverse[r0]])
                               for (l0, r0), (l1, r1) in zip(then, move)])
            steps = programs.get(delta, False)
            if steps is False:
                negated, steps = compiled(delta)
                steps = programs[delta] = None if negated else steps
            if steps is not None:
                return move, carry(matrix, steps)
        negated, steps = compiled(move)  # a fresh move: its steps are not kept
        if negated not in bases:
            bases[negated] = negated_at(whole, negated)
        return move, carry(bases[negated], steps)

    return size, whole, copy


@dataclass(frozen=True)
class CarrierSet:
    """A subset X ⊆ G^arity as a bitset over packed tuple indices."""

    group: FiniteGroup
    arity: int
    members: int

    def __post_init__(self) -> None:
        _check_int(self.arity, "carrier arity")
        if self.arity < 1:
            raise ValueError(f"carrier arity must be >= 1, got {self.arity}")
        _check_mask(self.members, "carrier members", "tuple", self.universe)

    @staticmethod
    def full(group: FiniteGroup, arity: int = 1) -> "CarrierSet":
        return CarrierSet(group, arity, full_mask(power_size(group, arity)))

    @staticmethod
    def from_indices(group: FiniteGroup, arity: int, indices: Iterable[int]) -> "CarrierSet":
        universe = CarrierSet(group, arity, 0).universe  # the arity checked first
        return CarrierSet(group, arity, _checked_mask(list(indices), "carrier members", "tuple", universe))

    @property
    def size(self) -> int:
        return self.members.bit_count()

    @property
    def universe(self) -> int:
        return power_size(self.group, self.arity)

    def member_indices(self) -> list[int]:
        universe = self.universe
        if self.members.bit_count() == universe:
            return list(range(universe))
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
        """Whether (x, y) is in S; an index that is not an int of its side's
        universe is a ValueError."""
        _check_index(x, "pair index", "domain", self.domain.universe)
        _check_index(y, "pair index", "codomain", self.codomain.universe)
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
            _check_int(x, "domain index")
            _check_int(y, "codomain index")
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
    _check_mask(members, "member mask", "element", group.order)
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


def _shift_move(group: FiniteGroup, arity: int, shift, side) -> tuple[tuple[int, int], ...]:
    """One side's shift as a move: per coordinate, the pair (left, right) of
    x -> x·g for a right shift by g, x -> g·x for a left one, and (0, 0)
    where the coordinate's shift, or the whole shift, is None. Every side
    is checked, whether its coordinate is shifted or not."""
    if shift is None:
        shift = (None,) * arity
    elif isinstance(shift, GroupElement):
        if arity > 1:
            raise ArityMismatch(
                f"single-element shift needs arity 1, carrier has arity {arity}; "
                "pass a per-coordinate tuple instead"
            )
        shift = (shift,)
    elif not isinstance(shift, (tuple, list)):
        raise ArityMismatch(f"a shift is a GroupElement, a tuple or list of them, or None, got {shift!r}")
    shifts: list[int] = []
    for item in shift:
        if item is None:
            shifts.append(0)
        elif isinstance(item, GroupElement):
            if item.group is not group:
                raise CrossGroupElement(f"shift element of {item.group.name} used with {group.name}")
            shifts.append(item.index)
        else:
            raise ArityMismatch(f"shift entries must be GroupElement or None, got {item!r}")
    if len(shifts) != arity:
        raise ArityMismatch(f"shift tuple length {len(shifts)} != arity {arity}")
    sides = list(side) if isinstance(side, (tuple, list)) else [side] * arity
    if len(sides) != arity:
        raise ArityMismatch(f"side tuple length {len(sides)} != arity {arity}")
    return tuple(map(_side_pair, shifts, sides))


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
    counts are preserved. Shifts are GroupElement (arity 1), tuples or lists
    of GroupElement/None per coordinate (higher arity), or None for
    identity; any other shift is an ArityMismatch. With no shift on either
    side the relation itself comes back, unmoved.
    """
    group = relation.group
    carriers = relation.domain, relation.codomain
    dmove, cmove = (_shift_move(group, carrier.arity, shift, side) for carrier, shift, side
                    in zip(carriers, (domain_shift, codomain_shift), (domain_side, codomain_side)))
    if not any(map(any, dmove + cmove)):
        return relation
    # One slot per coordinate. Output (x, y) is input (dmap[x], cmap[y]):
    # one copy moves every row at once, and it is cut back into rows.
    slots = [[(c,) for c in range(carrier.arity)] for carrier in carriers]
    stride, _, copy = _matrix_mover(relation, slots)
    text = format(copy(dmove + cmove)[1], f"0{len(relation.rows) * stride}b")
    rows = tuple(int(text[i - stride:i], 2) for i in range(len(text), 0, -stride))

    def moved(carrier: CarrierSet, side_slots, move) -> CarrierSet:
        """The carrier's members x with the lifted move's image of x a member."""
        if carrier.members == full_mask(carrier.universe):
            return carrier
        source = _lift_move(group, carrier.arity, side_slots, move)
        members = mask_of(x for x, s in enumerate(source) if carrier.members >> s & 1)
        return CarrierSet(group, carrier.arity, members)

    return Relation(*map(moved, carriers, slots, (dmove, cmove)), rows)


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
