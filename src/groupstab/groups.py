"""Finite groups on dense element indices, subgroup enumeration, cosets.

Elements are the integers 0..order-1 and index 0 is always the identity,
so element bitsets line up across relations, censuses and covers. Every
group is one FiniteGroup: a multiplication table and an inverse list on
those indices, which `mul` and `inv` read. Groups come from three recipes:
cyclic(n), product(...) of smaller groups (first factor most significant),
and explicit Cayley tables. A Cayley table is validated exhaustively and
kept from the start; dihedral and Heisenberg groups are built this way. A
cyclic group or a product builds its table the first time anything reads
it (`mul`, `inv`, a subgroup search, a census) and keeps it, so a large
Z_n used only as an index space never holds n² entries.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .bits import iter_bits, mask_of
from .errors import AxiomViolation, BudgetExceeded, CrossGroupElement

DEFAULT_CLOSURE_BUDGET = 10**6


class FiniteGroup:
    """A finite group on indices 0..order-1 with identity 0.

    `factors` holds the factors of a product and is empty otherwise. A group
    built without a table is cyclic when it has no factors.
    """

    def __init__(
        self,
        order: int,
        recipe: str,
        name: str,
        factors: Sequence["FiniteGroup"] = (),
        abelian: bool | None = None,
        table: list[list[int]] | None = None,
        inverses: list[int] | None = None,
    ):
        self.order = order
        self.recipe = recipe
        self.name = name
        self.factors = tuple(factors)
        self._abelian = abelian
        self._table = table
        self._inv = inverses

    def _mul_table(self) -> list[list[int]]:
        """Rows of the multiplication table, row a holding a*b at position b.

        Built on first use and kept on the instance. Cyclic rows are slices of
        one doubled range, so they share their int objects; a product combines
        its factors' tables one digit at a time.
        """
        if self._table is None:
            if self.factors:
                table = [[0]]
                for f in self.factors:
                    q = f.order
                    ftable = f._mul_table()
                    table = [[x * q + y for x in row for y in frow] for row in table for frow in ftable]
            else:
                n = self.order
                doubled = list(range(n)) * 2
                table = [doubled[a:a + n] for a in range(n)]
            self._table = table
        return self._table

    def mul(self, a: int, b: int) -> int:
        return self._mul_table()[a][b]

    def inv(self, a: int) -> int:
        if self._inv is None:
            self._inv = [row.index(0) for row in self._mul_table()]
        return self._inv[a]

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def element(self, index: int) -> "GroupElement":
        return GroupElement(self, index)

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            table = self._mul_table()
            self._abelian = all(row == list(col) for row, col in zip(table, zip(*table)))
        return self._abelian

    def recipe_hash(self) -> str:
        """Stable 12-hex-digit digest of the construction recipe."""
        return hashlib.sha256(self.recipe.encode()).hexdigest()[:12]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, order={self.order})"


@dataclass(frozen=True)
class GroupElement:
    """An element of a specific group, held as its dense index."""

    group: FiniteGroup
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.group.order:
            raise ValueError(
                f"element index {self.index} out of range for order {self.group.order}"
            )

    def __repr__(self) -> str:
        return f"{self.group.name}[{self.index}]"


def cyclic(n: int) -> FiniteGroup:
    """Additive group Z_n."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    return FiniteGroup(n, f"cyclic({n})", f"Z{n}", abelian=True)


def product(*factors: FiniteGroup) -> FiniteGroup:
    """Direct product, elements packed big-endian (first factor most significant)."""
    if not factors:
        raise ValueError("product recipe needs at least one factor")
    return FiniteGroup(
        math.prod(f.order for f in factors),
        "product(" + ",".join(f.recipe for f in factors) + ")",
        "x".join(f.name for f in factors),
        factors=factors,
        abelian=True if all(f._abelian for f in factors) else None,
    )


def from_cayley_table(table: Sequence[Sequence[int]], name: str | None = None) -> FiniteGroup:
    """Group given by an explicit Cayley table; axioms checked exhaustively."""
    q = len(table)
    if q < 1:
        raise ValueError("Cayley table must be non-empty")
    rows = []
    for i, row in enumerate(table):
        if len(row) != q:
            raise ValueError(f"Cayley table row {i} has length {len(row)}, expected {q}")
        row = [int(x) for x in row]
        for x in row:
            if not 0 <= x < q:
                raise ValueError(f"Cayley table entry {x} out of range 0..{q - 1}")
        rows.append(row)
    digest = hashlib.sha256(
        b"\n".join(" ".join(map(str, r)).encode() for r in rows)
    ).hexdigest()[:12]
    _validate_axioms(rows)
    return FiniteGroup(
        q,
        f"cayley_table({q},{digest})",
        name or f"T{q}_{digest[:4]}",
        table=rows,
        inverses=_two_sided_inverses(rows),
    )


def _validate_axioms(t: list[list[int]]) -> None:
    q = len(t)
    for j in range(q):
        if t[0][j] != j:
            raise AxiomViolation("identity", (0, j), f"0*{j} = {t[0][j]}")
    for i in range(q):
        if t[i][0] != i:
            raise AxiomViolation("identity", (i, 0), f"{i}*0 = {t[i][0]}")
    for a in range(q):
        for b in range(q):
            tab = t[a][b]
            row_tab = t[tab]
            ta = t[a]
            tb = t[b]
            for c in range(q):
                if row_tab[c] != ta[tb[c]]:
                    raise AxiomViolation(
                        "associativity",
                        (a, b, c),
                        f"({a}*{b})*{c} = {row_tab[c]} but {a}*({b}*{c}) = {ta[tb[c]]}",
                    )


def _two_sided_inverses(t: list[list[int]]) -> list[int]:
    q = len(t)
    inv = [-1] * q
    for a in range(q):
        for b in range(q):
            if t[a][b] == 0 and t[b][a] == 0:
                inv[a] = b
                break
        if inv[a] < 0:
            raise AxiomViolation("inverse", (a,), f"element {a} has no two-sided inverse")
    return inv


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; index = flip*n + rotation, identity 0."""
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")
    q = 2 * n

    def mul(x: int, y: int) -> int:
        ex, rx = divmod(x, n)
        ey, ry = divmod(y, n)
        rot = (ry - rx) % n if ey else (rx + ry) % n
        return ((ex ^ ey) * n) + rot

    table = [[mul(x, y) for y in range(q)] for x in range(q)]
    return from_cayley_table(table, name=f"D{n}")


def heisenberg(p: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices mod p; order p^3, non-abelian for p >= 2."""
    if p < 2:
        raise ValueError(f"heisenberg modulus must be >= 2, got {p}")

    def enc(a: int, b: int, c: int) -> int:
        return (a * p + b) * p + c

    def mul(x: int, y: int) -> int:
        a1, r = divmod(x, p * p)
        b1, c1 = divmod(r, p)
        a2, r = divmod(y, p * p)
        b2, c2 = divmod(r, p)
        return enc((a1 + a2) % p, (b1 + b2) % p, (c1 + c2 + a1 * b2) % p)

    table = [[mul(x, y) for y in range(p**3)] for x in range(p**3)]
    return from_cayley_table(table, name=f"H{p}")


def make_group(recipe) -> FiniteGroup:
    """Build a group from a recipe descriptor.

    Accepts a FiniteGroup (returned unchanged) or a dict such as
    {"kind": "cyclic", "n": 5}, {"kind": "product", "factors": [...]},
    {"kind": "cayley_table", "table": [[...]]}, {"kind": "dihedral", "n": 4},
    {"kind": "heisenberg", "p": 3}.
    """
    if isinstance(recipe, FiniteGroup):
        return recipe
    if not isinstance(recipe, Mapping):
        raise ValueError(f"unsupported group recipe: {recipe!r}")
    kind = recipe.get("kind")
    if kind == "cyclic":
        return cyclic(int(recipe["n"]))
    if kind == "product":
        return product(*(make_group(f) for f in recipe["factors"]))
    if kind == "cayley_table":
        return from_cayley_table(recipe["table"], name=recipe.get("name"))
    if kind == "dihedral":
        return dihedral(int(recipe["n"]))
    if kind == "heisenberg":
        return heisenberg(int(recipe["p"]))
    raise ValueError(f"unknown group recipe kind: {kind!r}")


def load_cayley_table(path) -> FiniteGroup:
    """Read a Cayley table file: first line order q, then q lines of q indices."""
    text = Path(path).read_text()
    return parse_cayley_table(text, name=Path(path).stem)


def parse_cayley_table(text: str, name: str | None = None) -> FiniteGroup:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty Cayley table file")
    head = lines[0].split()
    if len(head) != 1:
        raise ValueError(f"Cayley table header must be the order alone, got {lines[0]!r}")
    q = int(head[0])
    if len(lines) != q + 1:
        raise ValueError(f"expected {q} table rows, found {len(lines) - 1}")
    table = [[int(x) for x in lines[1 + i].split()] for i in range(q)]
    return from_cayley_table(table, name=name)


def format_cayley_table(group: FiniteGroup) -> str:
    """Render any group's multiplication table in the plain-text file format."""
    q = group.order
    lines = [str(q)]
    for a in range(q):
        lines.append(" ".join(str(group.mul(a, b)) for b in range(q)))
    return "\n".join(lines) + "\n"


def evaluate(group: FiniteGroup, word: Iterable[tuple[GroupElement, int]]) -> GroupElement:
    """Left-to-right product of word letters (element, exponent in {+1, -1})."""
    acc = 0
    for elem, exp in word:
        if not isinstance(elem, GroupElement) or elem.group is not group:
            raise CrossGroupElement(f"{elem!r} does not belong to {group.name}")
        if exp == 1:
            idx = elem.index
        elif exp == -1:
            idx = group.inv(elem.index)
        else:
            raise ValueError(f"word exponents must be +1 or -1, got {exp}")
        acc = group.mul(acc, idx)
    return group.element(acc)


def element_order(group: FiniteGroup, a: int) -> int:
    x = a
    n = 1
    while x != 0:
        x = group.mul(x, a)
        n += 1
    return n


def exponent_and_orders(group: FiniteGroup) -> tuple[int, dict[int, int]]:
    """Group exponent (lcm of element orders) and the full order map."""
    orders = {a: element_order(group, a) for a in range(group.order)}
    return math.lcm(*orders.values()), orders


@dataclass(frozen=True)
class Subgroup:
    """A validated subgroup, stored as a member bitset over the parent."""

    parent: FiniteGroup
    members: int
    index_in_parent: int

    @property
    def size(self) -> int:
        return self.members.bit_count()

    def member_indices(self) -> list[int]:
        return list(iter_bits(self.members))

    def __repr__(self) -> str:
        return f"Subgroup({self.parent.name}, index={self.index_in_parent}, members={self.member_indices()})"


def subgroup(group: FiniteGroup, members: Iterable[int] | int) -> Subgroup:
    """Validate a member set as a subgroup and wrap it."""
    mask = members if isinstance(members, int) else mask_of(members)
    _validate_subgroup_mask(group, mask)
    return Subgroup(group, mask, group.order // mask.bit_count())


def _validate_subgroup_mask(group: FiniteGroup, mask: int) -> None:
    if not mask & 1:
        raise ValueError("subgroup must contain the identity (index 0)")
    if mask >> group.order:
        raise ValueError("subgroup members exceed the element universe")
    elems = list(iter_bits(mask))
    if group.order % len(elems):
        raise ValueError(f"subgroup size {len(elems)} does not divide order {group.order}")
    table = group._mul_table()
    for a in elems:
        if not mask >> group.inv(a) & 1:
            raise ValueError(f"subgroup not closed under inverse at element {a}")
        row = table[a]
        for b in elems:
            if not mask >> row[b] & 1:
                raise ValueError(f"subgroup not closed under product at ({a}, {b})")


def closure(group: FiniteGroup, seed: Iterable[int] | int) -> int:
    """Smallest subgroup mask containing the seed elements.

    Breadth-first search from the identity by right multiplication with the
    seed elements. In a finite group every inverse is a positive power, so
    the elements reached form the generated subgroup; the cost is
    |subgroup|·|seed| table lookups.
    """
    mask = seed if isinstance(seed, int) else mask_of(seed)
    gens = [s for s in iter_bits(mask) if s]
    table = group._mul_table()
    seen = bytearray(group.order)
    seen[0] = 1
    reached = [0]
    for a in reached:
        row = table[a]
        for s in gens:
            c = row[s]
            if not seen[c]:
                seen[c] = 1
                reached.append(c)
    return mask_of(reached)


def all_subgroups(group: FiniteGroup, budget: int = DEFAULT_CLOSURE_BUDGET) -> list[int]:
    """Every subgroup mask, found by closing known subgroups with one extra generator.

    Each subgroup keeps the generating set it was first closed from, and is
    extended by one element g per left coset g·h: <h, g> = <h, g·x> for x
    in h, so the other elements of the coset give nothing new. The budget
    counts these candidate closures.
    """
    order = group.order
    full = (1 << order) - 1
    table = group._mul_table()
    generators = {1: 0}
    frontier = [1]
    closures = 0
    while frontier:
        h = frontier.pop()
        hgens = generators[h]
        members = list(iter_bits(h))
        hsize = len(members)
        done = h
        for g in range(1, order):
            if done >> g & 1:
                continue
            row = table[g]
            done |= mask_of(row[x] for x in members)
            # Lagrange: any proper extension at least doubles, so extending an
            # index-2 subgroup can only reach the whole group.
            if 2 * hsize >= order:
                k = full
            else:
                closures += 1
                if closures > budget:
                    raise BudgetExceeded(closures, budget, "candidate closures")
                k = closure(group, hgens | (1 << g))
            if k not in generators:
                generators[k] = hgens | (1 << g)
                frontier.append(k)
    return sorted(generators)


def subgroups_up_to_index(
    group: FiniteGroup, max_index: int, budget: int = DEFAULT_CLOSURE_BUDGET
) -> list[Subgroup]:
    """All subgroups of index <= max_index, ascending index then lexicographic members."""
    if max_index < 1:
        raise ValueError(f"max_index must be >= 1, got {max_index}")
    out = []
    for mask in all_subgroups(group, budget=budget):
        size = mask.bit_count()
        index = group.order // size
        if index <= max_index:
            _validate_subgroup_mask(group, mask)
            out.append(Subgroup(group, mask, index))
    out.sort(key=lambda s: (s.index_in_parent, tuple(s.member_indices())))
    return out


def left_cosets(group: FiniteGroup, sub: Subgroup) -> list[int]:
    """Partition of the universe into left cosets g*H, identity block first."""
    if sub.parent is not group:
        raise CrossGroupElement(f"subgroup of {sub.parent.name} used with {group.name}")
    members = sub.member_indices()
    seen = 0
    blocks = []
    for rep in range(group.order):
        if seen >> rep & 1:
            continue
        block = mask_of(group.mul(rep, h) for h in members)
        blocks.append(block)
        seen |= block
    return blocks


def builtin_catalogue(max_order: int = 24) -> list[FiniteGroup]:
    """The stock test groups: all cyclic, elementary 2- and 3-groups, D4, D6."""
    groups: list[FiniteGroup] = [cyclic(n) for n in range(1, max_order + 1)]
    for p in (2, 3):
        k = 2
        while p**k <= max_order:
            groups.append(product(*(cyclic(p) for _ in range(k))))
            k += 1
    for n in (4, 6):
        if 2 * n <= max_order:
            groups.append(dihedral(n))
    return groups
