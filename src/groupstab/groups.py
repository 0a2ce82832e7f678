"""Finite groups on dense element indices, subgroup enumeration, cosets.

Elements are the integers 0..order-1 and index 0 is always the identity,
so element bitsets line up across relations, censuses and covers. Every
group is one FiniteGroup: a multiplication table and an inverse list on
those indices, which `mul` and `inv` read. Groups come from three recipes:
cyclic(n), product(...) of smaller groups (first factor most significant),
and explicit Cayley tables. A Cayley table is validated on load (Light's
associativity test on a generating set) and kept from the start; dihedral
and Heisenberg groups are built this way. A
cyclic group or a product builds its table the first time anything reads
it (`mul`, `inv`, a subgroup search, a census) and keeps it, so a large
Z_n used only as an index space never holds n² entries. The index of an
element of a product of cyclic groups has one digit per factor
(`FiniteGroup._cyclic_digits`), and element orders are read from those
digits. `dihedral` and `heisenberg` record the digits of their index too
(`FiniteGroup._digit_layout`), so a census or `translate_relation` moves
a relation's rows over any of these groups by rotating digits
(`relations._matrix_mover`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .bits import iter_bits, mask_of
from .errors import AxiomViolation, BudgetExceeded, CrossGroupElement, _check_budget, _check_int, _read

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
        self._cyclic = table is None and not self.factors
        self._layout: tuple[tuple[tuple[int, int], ...], int] | None = None  # see _digit_layout
        self._digits = ...  # see _cyclic_digits; ... until it is first asked for
        # power subgroup P -> ((index, mask) of each subgroup above P in
        # listing order, the walk's closure count); see subgroups_up_to_index
        self._lattices: dict[int, tuple[list[tuple[int, int]], int]] = {}
        self._powers: dict[int, int] = {}  # exponent e -> P, likewise

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

    def _cyclic_digits(self) -> tuple[tuple[int, int], ...] | None:
        """(weight, length) of each cyclic factor's digit in the index, first
        factor most significant, or None unless every factor is cyclic.
        Worked out on the first call and kept: every census asks."""
        if self._digits is ...:
            digits: tuple[tuple[int, int], ...] | None = ((1, self.order),) if self._cyclic else None
            if self.factors:
                digits = ()
                for f in self.factors:
                    inner = f._cyclic_digits()
                    if inner is None:
                        digits = None
                        break
                    digits = tuple((w * f.order, n) for w, n in digits) + inner
            self._digits = digits
        return self._digits

    def _digit_layout(self) -> tuple[tuple[tuple[int, int], ...], int] | None:
        """(hi, L) for the index written as x = h·L + lo, lo < L, or None.

        hi lists (weight, length) of each digit of h, weights counted in x.
        Every map x -> l·x·r of the group adds a constant h0 to those
        digits, digit by digit, and sends lo to σ·lo + t(h) mod L, σ = ±1.
        A product of cyclic groups has L = 1 and hi = its _cyclic_digits;
        dihedral and heisenberg record theirs; any other group has none."""
        digits = self._cyclic_digits()
        return self._layout if digits is None else (digits, 1)

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
        _element_index(self.group, self.index)

    def __repr__(self) -> str:
        return f"{self.group.name}[{self.index}]"


def _element_index(group: FiniteGroup, element: GroupElement | int) -> int:
    """The index of an element of the group, given as a GroupElement or as an
    index; the one element check. An index out of range is a ValueError, a
    GroupElement of another group a CrossGroupElement."""
    if isinstance(element, GroupElement):
        if element.group is not group:
            raise CrossGroupElement(f"element of {element.group.name} used with {group.name}")
        return element.index
    if not 0 <= element < group.order:
        raise ValueError(f"element index {element} out of range for order {group.order}")
    return element


def translation(group: FiniteGroup, left: int = 0, right: int = 0) -> list[int]:
    """The map x -> left·x·right as a list; every translation map is built here."""
    left, right = _element_index(group, left), _element_index(group, right)
    table = group._mul_table()
    row = table[left]
    return [row[col[right]] for col in table]


def cyclic(n: int) -> FiniteGroup:
    """Additive group Z_n."""
    _check_int(n, "n")
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
    """Group given by an explicit Cayley table; axioms checked in
    _validate_axioms, which names the first failing axiom with a witness."""
    q = len(table)
    if q < 1:
        raise ValueError("Cayley table must be non-empty")
    rows = []
    for i, row in enumerate(table):
        if len(row) != q:
            raise ValueError(f"Cayley table row {i} has length {len(row)}, expected {q}")
        row = list(map(int, row))
        if min(row) < 0 or max(row) >= q:
            bad = next(x for x in row if not 0 <= x < q)
            raise ValueError(f"Cayley table entry {bad} out of range 0..{q - 1}")
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
    """Identity at index 0, then associativity by Light's test.

    The b with (x·b)·y = x·(b·y) for all x, y are closed under the product
    and include the identity, so they are the whole table once they contain
    a generating set. So the test checks (x·a)·y = x·(a·y) only for the a of
    one generating set, a row at a time: O(q²·|A|) lookups, not q³. Clifford
    & Preston, The Algebraic Theory of Semigroups, Vol. 1 (1961).
    """
    q = len(t)
    for j in range(q):
        if t[0][j] != j:
            raise AxiomViolation("identity", (0, j), f"0*{j} = {t[0][j]}")
    for i in range(q):
        if t[i][0] != i:
            raise AxiomViolation("identity", (i, 0), f"{i}*0 = {t[i][0]}")
    for a in _generating_set(t):
        ta = t[a]
        for x, tx in enumerate(t):
            left = t[tx[a]]
            right = list(map(tx.__getitem__, ta))
            if left != right:
                c = next(c for c in range(q) if left[c] != right[c])
                raise AxiomViolation(
                    "associativity",
                    (x, a, c),
                    f"({x}*{a})*{c} = {left[c]} but {x}*({a}*{c}) = {right[c]}",
                )


def _generating_set(t: list[list[int]]) -> list[int]:
    """Elements that generate the table as a magma under its product, picked
    greedily in index order: an element joins only when the closure of 0 and
    the earlier picks misses it. The closure grows one element at a time, and
    each new element is multiplied on both sides with every element reached
    before it, so each ordered pair is multiplied once: O(q²) in total."""
    reached = [0]
    seen = {0}
    generators = []
    done = 0
    for g in range(len(t)):
        if g in seen:
            continue
        generators.append(g)
        seen.add(g)
        reached.append(g)
        while done < len(reached):
            z = reached[done]
            earlier = reached[:done + 1]
            products = set(map(t[z].__getitem__, earlier))
            products.update(map(itemgetter(z), map(t.__getitem__, earlier)))
            products -= seen
            seen |= products
            reached += products
            done += 1
    return generators


def _two_sided_inverses(t: list[list[int]]) -> list[int]:
    """The inverse of every element of an associative table with identity 0:
    the first b with a·b = 0, which must also have b·a = 0 (in such a table
    a two-sided inverse is the only b with a·b = 0)."""
    inv = []
    for a, row in enumerate(t):
        b = row.index(0) if 0 in row else -1
        if b < 0 or t[b][a] != 0:
            raise AxiomViolation("inverse", (a,), f"element {a} has no two-sided inverse")
        inv.append(b)
    return inv


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; index = flip*n + rotation, identity 0.

    x = (ex, rx) times y = (ey, ry) is (ex ^ ey, rx + ry) when ey = 0 and
    (ex ^ ey, ry - rx) when ey = 1, rotations mod n; each half of a row is
    a slice of one doubled range. Its digit layout is hi = the flip, lo =
    the rotation: x -> l·x·r adds l's and r's flips, and sends the rotation
    to minus itself plus t exactly when r is a flip (to itself plus t
    otherwise), t depending on x's flip unless l's rotation is 0 or n/2."""
    _check_int(n, "n")
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")
    doubled = list(range(n)) * 2
    table = []
    for x in range(2 * n):
        ex, rx = divmod(x, n)
        same = map((ex * n).__add__, doubled[rx:rx + n])
        flipped = map(((1 - ex) * n).__add__, doubled[n - rx:2 * n - rx])
        table.append([*same, *flipped])
    group = from_cayley_table(table, name=f"D{n}")
    group._layout = (((n, 2),), n)
    return group


def heisenberg(p: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices mod p; order p^3, non-abelian for p >= 2.

    Index (a·p + b)·p + c holds the matrix with entries a, b above the
    diagonal and c in the corner. x·y adds a and b, and adds c1 + c2 + a1·b2
    in the corner, so each block of p entries of a row (fixed a2, b2) is a
    slice of one doubled range. Its digit layout is hi = (a, b), lo = c:
    x -> l·x·r adds l's and r's a and b, and adds to c a constant plus
    l_a·x_b + x_a·r_b, so c's shift depends on x's b for a left factor, on
    x's a for a right one, and on a line in (a, b) for both."""
    _check_int(p, "p")
    if p < 2:
        raise ValueError(f"heisenberg modulus must be >= 2, got {p}")
    doubled = list(range(p)) * 2
    table = []
    for x in range(p**3):
        a1, r = divmod(x, p * p)
        b1, c1 = divmod(r, p)
        row: list[int] = []
        for a2 in range(p):
            for b2 in range(p):
                base = ((a1 + a2) % p * p + (b1 + b2) % p) * p
                shift = (c1 + a1 * b2) % p
                row += map(base.__add__, doubled[shift:shift + p])
        table.append(row)
    group = from_cayley_table(table, name=f"H{p}")
    group._layout = (((p * p, p), (p, p)), p)
    return group


# The keys each group recipe kind reads besides "kind"; a recipe that gives any other is refused.
_RECIPE_KEYS = {"cyclic": {"n"}, "product": {"factors"}, "cayley_table": {"table", "name"},
                "dihedral": {"n"}, "heisenberg": {"p"}}


def make_group(recipe) -> FiniteGroup:
    """Build a group from a recipe descriptor.

    Accepts a FiniteGroup (returned unchanged) or a dict such as
    {"kind": "cyclic", "n": 5}, {"kind": "product", "factors": [...]},
    {"kind": "cayley_table", "table": [[...]]}, {"kind": "dihedral", "n": 4},
    {"kind": "heisenberg", "p": 3}; a key that its kind does not read is refused.
    """
    if isinstance(recipe, FiniteGroup):
        return recipe
    if not isinstance(recipe, Mapping):
        raise ValueError(f"unsupported group recipe: {recipe!r}")
    kind = recipe.get("kind")
    if not isinstance(kind, str) or kind not in _RECIPE_KEYS:
        raise ValueError(f"unknown group recipe kind: {kind!r}")
    unknown = [key for key in recipe if key != "kind" and key not in _RECIPE_KEYS[kind]]
    if unknown:
        raise ValueError(f"unknown {kind} recipe keys {', '.join(map(repr, unknown))}")
    if kind == "cyclic":
        return cyclic(_read(int, recipe["n"], "'n'"))
    if kind == "product":
        return product(*(make_group(f) for f in _read(list, recipe["factors"], "'factors'")))
    if kind == "cayley_table":
        table = _read(_int_rows, recipe["table"], "'table'")
        name = recipe.get("name")
        if not isinstance(name, (str, type(None))):
            raise ValueError(f"cannot read 'name' from {name!r}")
        return from_cayley_table(table, name=name)
    if kind == "dihedral":
        return dihedral(_read(int, recipe["n"], "'n'"))
    return heisenberg(_read(int, recipe["p"], "'p'"))


def _int_rows(table) -> list[list[int]]:
    """The rows of a recipe's table, each a list of ints. A row given as a
    string is refused, not read digit by digit, and so is a bool entry."""
    rows = [list(row) for row in table if isinstance(row, (list, tuple))]
    if len(rows) != len(table) or not all(type(x) is int for row in rows for x in row):
        raise TypeError("Cayley table rows must be lists of ints")
    return rows


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
    table = [list(map(int, lines[1 + i].split())) for i in range(q)]
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


def element_order(group: FiniteGroup, a: GroupElement | int) -> int:
    """Order of element a. On a product of cyclic groups it is read from the
    digits, lcm of n_i / gcd(a_i, n_i), and no table is built."""
    a = _element_index(group, a)
    digits = group._cyclic_digits()
    if digits is not None:
        return math.lcm(*(n // math.gcd(a // w % n, n) for w, n in digits))
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
    """Validate a member set as a subgroup and wrap it.

    A set holding the identity is a subgroup exactly when it is its own
    `closure`.
    """
    mask = members if isinstance(members, int) else mask_of(members)
    if not mask & 1:
        raise ValueError("subgroup must contain the identity (index 0)")
    if mask >> group.order:
        raise ValueError("subgroup members exceed the element universe")
    added = closure(group, mask) & ~mask
    if added:
        low = (added & -added).bit_length() - 1
        raise ValueError(f"members are not closed under the product: closure adds element {low}")
    return Subgroup(group, mask, group.order // mask.bit_count())


def closure(group: FiniteGroup, seed: Iterable[int] | int) -> int:
    """Smallest subgroup mask containing the seed elements: `_grow` from {e},
    whose left cosets are single elements, so this is a breadth-first search
    from the identity by right multiplication with the seed elements, at
    |subgroup|·|seed| table lookups.
    """
    mask = seed if isinstance(seed, int) else mask_of(seed)
    if mask >> group.order:
        raise ValueError("closure seed exceeds the element universe")
    return _grow(group._mul_table(), [0], (1).__lshift__, [s for s in iter_bits(mask) if s])


def _coset_reader(table: list[list[int]], h: list[int]) -> Callable[[int], int]:
    """coset(x), the mask of x·H for H the subgroup with members h. Each
    coset is read off the row of the first of its elements asked for, once,
    so a reader computes only the cosets it is asked for."""
    masks = [0] * len(table)

    def coset(x: int) -> int:
        mask = masks[x]
        if not mask:
            block = list(map(table[x].__getitem__, h))
            mask = mask_of(block)
            for y in block:
                masks[y] = mask
        return mask

    return coset


def _grow(table: list[list[int]], h: list[int], coset: Callable[[int], int], extra: Sequence[int]) -> int:
    """The mask of <H, extra>, for H the subgroup with members h and coset(x)
    the mask of x·H, grown by left cosets of H; the one closure routine.

    K = <H, extra> is a union of left cosets y·H, and right multiplication
    by H and by s in extra sends a coset r·H into r·(H·s·H). So take once an
    element d of each left coset in the double cosets H·s·H, reading H·s;
    then, starting from H, the coset of e, each coset representative r
    found adds the coset of every r·d. The union is then closed under right
    multiplication by H and by every s, and in a finite group every inverse
    is a positive power, so it is K. That costs |H|·|extra| lookups for the
    d, then one per d and coset of K, where a breadth-first search over
    elements takes |K|·|extra + generators of H|; on an abelian group each
    s has one d.
    """
    members = coset(0)
    steps = []
    for s in extra:
        seen = 0
        for y in [table[x][s] for x in h]:
            if not seen >> y & 1:
                seen |= coset(y)
                steps.append(y)
    reps = [0]
    for r in reps:
        for y in map(table[r].__getitem__, steps):
            if not members >> y & 1:
                members |= coset(y)
                reps.append(y)
    return members


def _subgroups_above(group: FiniteGroup, base: int, budget: int) -> tuple[list[int], int]:
    """(every subgroup mask containing the subgroup `base`, each once; the
    candidate closures the walk made), found along greedy generators.

    Every subgroup K above the base P has one greedy chain: g_1 is the least
    element of K∖P and H_1 = <P, g_1>, then g_{j+1} is the least element of
    K∖H_j and H_{j+1} = <H_j, g_{j+1}>. The g_j increase, since every
    element of K below g_j already lies in H_{j-1}. So the walk's nodes are
    pairs (H, last), from (P, 0). A node extends H only by a left coset g·H
    whose least element g is above last (<H, g> = <H, g·x> for x in H), and
    keeps K = <H, g> only when g is the least element of K∖H: then (H, g)
    is K's last greedy step, so every subgroup above P is kept exactly once,
    as (K, g), and no closure is made for a coset whose least element is
    at most last (McKay, "Isomorph-free exhaustive generation", J.
    Algorithms 26, 1998). A node computes only the cosets it reads: those
    of its elements above last, and those the growth asks for. Each
    extension grows from H by its left cosets (`_grow`), so no generating
    set is kept. The budget counts these candidate closures; the walk
    depends on the base alone, so the count C it returns settles any later
    budget. From base {e} the walk lists the whole lattice, which is
    subgroups_up_to_index(group, |G|).
    """
    order = group.order
    full = (1 << order) - 1
    table = group._mul_table()
    found = [base]
    stack = [(base, 0)]
    closures = 0
    while stack:
        h, last = stack.pop()
        members = list(iter_bits(h))
        coset = _coset_reader(table, members)
        # Lagrange: any proper extension at least doubles, so extending an
        # index-2 subgroup can only reach the whole group.
        index_two = 2 * len(members) >= order
        done = h
        for g in range(last + 1, order):
            if done >> g & 1:
                continue
            block = coset(g)
            done |= block
            if block & -block != 1 << g:
                continue  # the coset's least element is at most last
            if index_two:
                k = full
            else:
                closures += 1
                if closures > budget:
                    raise BudgetExceeded(closures, budget, "candidate closures")
                k = _grow(table, members, coset, [g])
                new = k & ~h
                if new & -new != 1 << g:
                    continue  # K∖H has an element below g: not K's greedy step
            found.append(k)
            stack.append((k, g))
    return found, closures


def _power_subgroup(group: FiniteGroup, e: int) -> int:
    """The mask of P = <g^e : g in G>, for 0 <= e < |G|.

    g^e is found by square-and-multiply on the table. A power that the P
    built so far misses grows P by cosets (`_grow`), so P at least doubles
    each time and grows at most log2|P| times.
    """
    members = 1
    if not e:
        return members
    table = group._mul_table()
    for g in range(1, group.order):
        # g in P puts g^e in P too
        if members >> g & 1:
            continue
        power, square, n = 0, g, e
        while n:
            if n & 1:
                power = table[power][square]
            square = table[square][square]
            n >>= 1
        if not members >> power & 1:
            h = list(iter_bits(members))
            members = _grow(table, h, _coset_reader(table, h), [power])
    return members


def subgroups_up_to_index(
    group: FiniteGroup, max_index: int, budget: int = DEFAULT_CLOSURE_BUDGET
) -> list[Subgroup]:
    """All subgroups of index <= max_index, ascending index then lexicographic members.

    Every such subgroup H contains P = <g^e : g in G>, e = lcm(1..max_index):
    if [G:H] = i then G/core(H) embeds in S_i, whose exponent divides e
    (Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005, on
    low-index subgroups). So the search walks up from P. By Lagrange P
    depends on e mod |G| alone, and the group keeps P per e mod |G|. P is
    trivial once max_index reaches |G|, so subgroups_up_to_index(group,
    group.order) is the whole lattice. The walk (`_subgroups_above`) builds
    each subgroup above P once, along its greedy generators, and computes
    only the cosets it reads. The budget counts the walk's candidate
    closures; a max_index or budget that is not an int, and a negative
    budget, is a ValueError. The growth of P is not charged.

    The walk depends on P alone, so the group keeps each finished lattice
    above P, in listing order, with the walk's closure count C: a later
    search with the same P walks nothing, and every call returns a new list.
    A budget below C raises BudgetExceeded(budget + 1, budget), exactly what
    the walk itself raises; a refused walk keeps nothing.
    """
    _check_int(max_index, "max_index")
    if max_index < 1:
        raise ValueError(f"max_index must be >= 1, got {max_index}")
    _check_budget(budget)
    e = math.lcm(*range(1, min(max_index, group.order) + 1)) % group.order
    if e not in group._powers:
        group._powers[e] = _power_subgroup(group, e)
    base = group._powers[e]
    if base not in group._lattices:
        masks, closures = _subgroups_above(group, base, budget)
        # Among sets of one size, the one holding the least element where
        # they differ comes first: the one whose bits, reversed, read larger.
        width = f"0{group.order}b"
        listing = sorted(((group.order // m.bit_count(), m) for m in masks),
                         key=lambda pair: (pair[0], -int(format(pair[1], width)[::-1], 2)))
        group._lattices[base] = listing, closures
    listing, closures = group._lattices[base]
    if closures > budget:
        raise BudgetExceeded(budget + 1, budget, "candidate closures")
    return [Subgroup(group, mask, index) for index, mask in listing if index <= max_index]


def left_cosets(group: FiniteGroup, sub: Subgroup) -> list[int]:
    """Partition of the universe into left cosets g*H, identity block first;
    each block is read off the row of its least element."""
    if sub.parent is not group:
        raise CrossGroupElement(f"subgroup of {sub.parent.name} used with {group.name}")
    coset = _coset_reader(group._mul_table(), sub.member_indices())
    return list(dict.fromkeys(map(coset, group.elements())))


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
