"""Test-instance generators: coset-box unions, Sidon Cayley graphs, seeded
random dense relations, exact-count perturbations, and linear orders."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .bits import full_mask, iter_bits, mask_of
from .errors import IndexOutOfRange, _check_budget, _check_int, _read
from .groups import FiniteGroup, Subgroup, subgroups_up_to_index, left_cosets
from .relations import CarrierSet, Relation, build_relation, cayley_graph


def as_fraction(value) -> Fraction:
    """Exact rational from int/Fraction/str, or from the reports' own
    {"num": ..., "den": ...} form with int num and non-zero int den; floats
    are read with decimal semantics (0.01 means 1/100, not the nearest binary
    double). Any other value, a bool, an infinity or a zero denominator is a
    ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, dict):
        num, den = value.get("num"), value.get("den")
        if type(num) is int and type(den) is int and den:
            return Fraction(num, den)
        raise ValueError(f"a rational needs integer num and non-zero den, got {value!r}")
    try:
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(Decimal(str(value)))
        if isinstance(value, str):
            return Fraction(value)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot interpret {value!r} as a rational: {exc}") from exc
    raise ValueError(f"cannot interpret {value!r} as a rational")


def frac_json(f: Fraction) -> dict:
    """An exact rational as written in every JSON report: {"num": ..., "den": ...}."""
    return {"num": f.numerator, "den": f.denominator}


@dataclass(frozen=True)
class GeneratorSpec:
    """A named test-instance recipe with kind-specific parameters."""

    kind: str
    params: dict

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @staticmethod
    def from_json(obj: dict) -> "GeneratorSpec":
        if not isinstance(obj, dict):
            raise ValueError(f"generator spec must be a JSON object, got {obj!r}")
        unknown = [key for key in obj if key not in ("kind", "params")]
        if unknown or "kind" not in obj:
            raise ValueError(f"unknown generator spec keys {', '.join(map(repr, unknown))}" if unknown
                             else "generator spec has no 'kind'")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"generator params must be a JSON object, got {params!r}")
        return GeneratorSpec(kind=obj["kind"], params=dict(params))


def coset_box_set(
    group: FiniteGroup, sub: Subgroup, pairs: list[tuple[int, int]]
) -> Relation:
    """Union of coset boxes C_i × C_j on full carriers G×G.

    Coset indices refer to the left_cosets ordering (identity block first).
    """
    cosets = left_cosets(group, sub)
    rows = [0] * group.order
    for i, j in pairs:
        if not (0 <= i < len(cosets) and 0 <= j < len(cosets)):
            raise IndexOutOfRange(
                f"coset pair ({i}, {j}) out of range for index {len(cosets)}"
            )
        ymask = cosets[j]
        for x in iter_bits(cosets[i]):
            rows[x] |= ymask
    carrier = CarrierSet.full(group, 1)
    return Relation(carrier, carrier, tuple(rows))


def sidon_set(group: FiniteGroup, budget: int | None = None) -> int:
    """Greedy Sidon subset of a cyclic group: scan 0..n-1 and keep an element
    whenever all ordered differences of the chosen set stay pairwise distinct.

    The strict (ordered) difference condition matters in even groups, where
    x - y = y - x can hold for x != y: allowing such a pair already breaks
    3-stability of the Cayley graph. budget optionally caps the number of
    chosen elements; below 0 it is a ValueError, and 0 chooses none. The
    result is re-verified against the all-pairs difference test before
    returning.
    """
    if group.recipe != f"cyclic({group.order})":
        raise ValueError("greedy Sidon construction expects a cyclic group")
    if budget is not None:
        _check_budget(budget)
    n = group.order
    chosen: list[int] = []
    diffs: set[int] = set()
    for c in range(n):
        if budget is not None and len(chosen) >= budget:
            break
        cand = []
        for a in chosen:
            cand.append((c - a) % n)
            cand.append((a - c) % n)
        if len(set(cand)) == len(cand) and not diffs.intersection(cand):
            chosen.append(c)
            diffs.update(cand)
    if not _is_sidon(group, chosen):
        raise AssertionError(f"greedy output {chosen} failed the Sidon re-check")
    return mask_of(chosen)


def _is_sidon(group: FiniteGroup, elems: list[int]) -> bool:
    seen = set()
    for a in elems:
        for b in elems:
            if a == b:
                continue
            d = group.mul(a, group.inv(b))
            if d in seen:
                return False
            seen.add(d)
    return True


def random_dense(
    domain: CarrierSet, codomain: CarrierSet, delta, seed: int
) -> Relation:
    """Each carrier pair kept independently with probability delta; seeded, one
    draw per pair, domain members ascending, then codomain members ascending."""
    d = float(as_fraction(delta))
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {delta}")
    draw = random.Random(seed).random
    return build_relation(domain, codomain, predicate=lambda x, y: draw() < d)


def perturb_relation(relation: Relation, eta, seed: int) -> Relation:
    """Flip exactly ceil(eta·|X|·|Y|) uniformly chosen carrier pairs.

    Sampling is without replacement, so re-applying the same (eta, seed)
    perturbation restores the original relation (the XOR mask is its own
    inverse).
    """
    frac = as_fraction(eta)
    if not 0 <= frac <= 1:
        raise ValueError(f"perturbation fraction must lie in [0, 1], got {eta}")
    xs = relation.domain.member_indices()
    ys = relation.codomain.member_indices()
    total = len(xs) * len(ys)
    scaled = frac * total
    count = -(-scaled.numerator // scaled.denominator)
    rng = random.Random(seed)
    flips = rng.sample(range(total), count) if total else []
    rows = list(relation.rows)
    ny = len(ys)
    for f in flips:
        rows[xs[f // ny]] ^= 1 << ys[f % ny]
    return Relation(relation.domain, relation.codomain, tuple(rows))


def linear_order_relation(group: FiniteGroup, width: int) -> Relation:
    """The relation x <= y on the carrier {0..width-1} inside the group."""
    _check_int(width, "width")
    if not 1 <= width <= group.order:
        raise ValueError(f"width must lie in 1..{group.order}, got {width}")
    carrier = CarrierSet(group, 1, full_mask(width))
    return build_relation(carrier, carrier, predicate=lambda x, y: x <= y)


def _resolve_subgroup(group: FiniteGroup, params: dict) -> Subgroup:
    if "subgroup_index" in params:
        wanted = _read(int, params["subgroup_index"], "'subgroup_index'")
        subs = [
            s
            for s in subgroups_up_to_index(group, wanted)
            if s.index_in_parent == wanted
        ]
        if not subs:
            raise ValueError(f"{group.name} has no subgroup of index {wanted}")
        return subs[0]
    if "max_subgroup_index" in params:
        bound = _read(int, params["max_subgroup_index"], "'max_subgroup_index'")
        subs = subgroups_up_to_index(group, bound)
        best = max(s.index_in_parent for s in subs)
        return next(s for s in subs if s.index_in_parent == best)
    raise ValueError("coset_boxes generator needs subgroup_index or max_subgroup_index")


def _pair(pair) -> list:
    """A coset pair of a recipe, a two-element list. A string is refused, not
    read character by character, as groups._int_rows refuses a string row."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise TypeError("a coset pair is a list of two coset indices")
    return pair


# The params each generator kind reads; a spec that gives any other is refused.
_PARAMS = {
    "coset_boxes": {"subgroup_index", "max_subgroup_index", "pairs"},
    "sidon_cayley": {"budget"},
    "random_dense": {"delta", "seed"},
    "perturbation": {"base", "eta", "seed"},
    "linear_order": {"width"},
}


def instantiate_generator(spec: GeneratorSpec, group: FiniteGroup, default_seed: int = 0) -> Relation:
    """Materialize a GeneratorSpec for one concrete group. An unknown kind,
    or a param its kind does not read, is a ValueError."""
    if spec.kind not in _PARAMS:
        raise ValueError(f"unknown generator kind {spec.kind!r}")
    params = spec.params
    unknown = [key for key in params if key not in _PARAMS[spec.kind]]
    if unknown:
        raise ValueError(f"unknown {spec.kind} generator params {', '.join(map(repr, unknown))}")
    if spec.kind == "coset_boxes":
        sub = _resolve_subgroup(group, params)
        pairs = params.get("pairs", "diagonal")
        if pairs == "diagonal":
            pairs = [(i, i) for i in range(sub.index_in_parent)]
        else:
            coset = lambda i: _read(int, i, "'pairs'")
            pairs = _read(lambda ps: [(coset(i), coset(j)) for i, j in map(_pair, ps)], pairs, "'pairs'")
        return coset_box_set(group, sub, pairs)
    if spec.kind == "sidon_cayley":
        budget = params.get("budget")
        if budget is not None:
            budget = _read(int, budget, "'budget'")
        return cayley_graph(group, sidon_set(group, budget), "left")
    if spec.kind == "random_dense":
        carrier = CarrierSet.full(group, 1)
        seed = _read(int, params.get("seed", default_seed), "'seed'")
        return random_dense(carrier, carrier, params.get("delta", 0.5), seed)
    if spec.kind == "perturbation":
        base = instantiate_generator(GeneratorSpec.from_json(params["base"]), group, default_seed)
        seed = _read(int, params.get("seed", default_seed), "'seed'")
        return perturb_relation(base, params["eta"], seed)
    # linear_order, the one kind left
    width = params.get("width", "isqrt")
    if width == "isqrt":
        width = math.isqrt(group.order)
    return linear_order_relation(group, _read(int, width, "'width'"))
