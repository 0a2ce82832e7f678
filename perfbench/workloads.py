"""The three benchmark workloads: inputs from a seed, operations, checks.

Each workload's setup turns a seed into a fixed list of operations. An
operation calls groupstab through a public entry point (groupstab.cli.main
or a function exported from groupstab); its check compares the output with
reference.py, which shares no code with the package. An operation may stand
for several units of work (one per report row); its check returns one
verdict per unit, None when the unit is right.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import groupstab as gs
from groupstab import cli

import reference as ref

# Hoeffding intervals are checked at this confidence, so that a correct
# sampler misses its interval on about one seed in a billion.
CONFIDENCE = 0.999999999
SAMPLES = 20_000


@dataclass
class Op:
    """One call into groupstab, with its check.

    run and check take the outputs of the operations of the same round, by
    name. check returns one verdict per unit; exact counts the exact answers
    per unit. key reduces an output to what must repeat from round to round.
    """

    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], list]
    exact: Callable[[Any], list]
    units: int = 1
    key: Callable[[Any], Any] = repr
    expected_error: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    coverage_epsilon: Fraction | None = None
    inputs: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _mismatch(ok: bool, what: str) -> str | None:
    return None if ok else what


def _first_error(*verdicts) -> str | None:
    return next((v for v in verdicts if v is not None), None)


def _frac(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_key(output) -> str:
    code, text = output
    report = json.loads(text)
    report.pop("timing", None)
    return json.dumps([code, report], sort_keys=True)


def _max_index(order: int) -> int:
    # Every group of the sweep family is abelian, a p-group or D6, so it has
    # a subgroup of every index d <= 4 that divides its order.
    return max(d for d in range(1, 5) if order % d == 0)


# --------------------------------------------------------------------------
# sweep: experiment run / trend through cli.main, plus subgroup listings

SWEEP_FAMILY = ["Z2xZ2xZ2xZ2", "Z3xZ3xZ3", "Z64", "D6", "D16", "H3", "Z4xZ8"]
SWEEP_CENSUS = ["square", "naive", "bmz-left", "rect23"]
SWEEP_SUBGROUPS = {
    # closed forms: Gaussian binomials for Z_p^n, divisors d <= 4 for Z_n
    "Z2xZ2xZ2xZ2": sum(ref.gaussian_binomial(4, j, 2) for j in range(3)),
    "Z3xZ3xZ3": sum(ref.gaussian_binomial(3, j, 3) for j in range(2)),
    "Z64": sum(1 for d in range(1, 5) if 64 % d == 0),
}
SWEEP_EPSILON = Fraction(1, 10)
SWEEP_ETA = Fraction(1, 100)


def sweep(seed: int, outdir: Path) -> Workload:
    config_seed = _rng("sweep", seed).randrange(2**31)
    base = {"kind": "coset_boxes", "params": {"max_subgroup_index": 4, "pairs": "diagonal"}}
    common = {
        "groups": SWEEP_FAMILY, "k": 2, "epsilon": str(SWEEP_EPSILON), "max_index": 4,
        "census": SWEEP_CENSUS, "seed": config_seed,
    }
    run_path = outdir / f"sweep-run-{seed}.json"
    trend_path = outdir / f"sweep-trend-{seed}.json"
    run_path.write_text(json.dumps(dict(common, generator=base)))
    trend_path.write_text(json.dumps(dict(common, generator={
        "kind": "perturbation", "params": {"base": base, "eta": str(SWEEP_ETA)},
    })))
    facts = _SweepFacts(base, config_seed)
    n = len(SWEEP_FAMILY)
    ops = [
        Op("experiment run", lambda _: _run_cli(["experiment", "run", "--config", str(run_path)]),
           lambda out, _: facts.check_run(out), _exact_rows, units=n, key=_cli_key),
        Op("experiment trend", lambda _: _run_cli(["experiment", "trend", "--config", str(trend_path)]),
           lambda out, _: facts.check_trend(out), _exact_rows, units=n, key=_cli_key),
    ]
    for name in SWEEP_SUBGROUPS:
        ops.append(Op(
            f"subgroups {name}",
            lambda _, name=name: _run_cli(["subgroups", "--group", name, "--max-index", "4"]),
            lambda out, _, name=name: [_check_subgroups(name, out)],
            lambda out: [1], key=_cli_key,
        ))
    return Workload(ops, coverage_epsilon=SWEEP_EPSILON,
                    inputs={"config_seed": config_seed, "family": SWEEP_FAMILY})


def _exact_rows(output) -> list[int]:
    report = json.loads(output[1])
    out = []
    for row in report["rows"]:
        if row.get("error"):
            out.append(0)
            continue
        n = int(row["theta_method"] == "exact")
        n += len(row.get("census", row.get("census_density", {})))
        n += int(isinstance(row.get("best_subgroup"), dict))
        out.append(n)
    return out


class _SweepFacts:
    """Reference values for the sweep, computed once per process on demand."""

    def __init__(self, base_spec: dict, config_seed: int):
        self.base_spec = base_spec
        self.config_seed = config_seed
        self._groups: dict[str, tuple] = {}

    def group(self, name: str):
        """(reference group, H as a mask, rows of Cay(G,H), rows of its perturbation)."""
        if name not in self._groups:
            g = ref.ref_group(name)
            base = gs.instantiate_generator(gs.GeneratorSpec.from_json(self.base_spec),
                                            cli.parse_group_spec(name), self.config_seed)
            pert = gs.perturb_relation(base, SWEEP_ETA, self.config_seed)
            self._groups[name] = (g, base.rows[0], list(base.rows), list(pert.rows))
        return self._groups[name]

    def _input_error(self, name: str) -> str | None:
        g, h, rows, pert = self.group(name)
        q = g.order
        flips = math.ceil(SWEEP_ETA * q * q)
        return _first_error(
            _mismatch(ref.is_subgroup(g, h), "row 0 of the coset-box input is not a subgroup"),
            _mismatch(q // h.bit_count() == _max_index(q), "coset-box input uses the wrong index"),
            _mismatch(rows == ref.cayley_rows(g, h), "coset-box input is not Cay(G, H)"),
            _mismatch(sum((a ^ b).bit_count() for a, b in zip(rows, pert)) == flips,
                      "perturbation does not flip ceil(eta |G|^2) pairs"),
        )

    def check_run(self, output) -> list:
        code, text = output
        report = json.loads(text)
        rows = report["rows"]
        if code != 0 or len(rows) != len(SWEEP_FAMILY):
            return [f"exit code {code}, {len(rows)} rows"] * len(SWEEP_FAMILY)
        return [self._check_run_row(name, row) for name, row in zip(SWEEP_FAMILY, rows)]

    def _check_run_row(self, name: str, row: dict) -> str | None:
        if row.get("error"):
            return f"row error {row['error']}"
        bad = self._input_error(name)
        if bad:
            return bad
        g, h, rows, _ = self.group(name)
        q, hsize = g.order, h.bit_count()
        exponent = math.lcm(*(_element_order(g, a) for a in range(q)))
        best = row["best_subgroup"]
        if not isinstance(best, dict):
            return "no subgroup with zero coverage miss"
        members = sum(1 << m for m in best["members"])
        verdicts = [
            _mismatch(row["group"] == name and row["order"] == q, "group name or order"),
            _mismatch(row["exponent"] == exponent, "exponent"),
            _mismatch(_frac(row["density"]) == Fraction(hsize, q), "density"),
            _mismatch(row["theta_method"] == "exact" and _frac(row["theta_k"]) == 0,
                      "theta_2 of Cay(G,H) is not an exact 0"),
            _mismatch(row["census"]["square"]["total"] == q * hsize * hsize,
                      "square total differs from |G||H|^2"),
            _mismatch(ref.is_subgroup(g, members) and members & ~h == 0
                      and q // members.bit_count() == best["index"],
                      "best subgroup is not a subgroup of H with the stated index"),
            _mismatch(_frac(best["missing_fraction"]) == 0, "best subgroup misses side lengths"),
        ]
        edges = ref.edge_count(rows)
        for kind in SWEEP_CENSUS[1:]:
            total = ref.census_total(g, rows, kind.replace("-", "_"))
            got = row["census"][kind]
            verdicts.append(_mismatch(got["total"] == total and got["nontrivial"] == total - edges,
                                      f"{kind} census total"))
        return _first_error(*verdicts)

    def check_trend(self, output) -> list:
        code, text = output
        report = json.loads(text)
        rows = report["rows"]
        if code != 0 or len(rows) != len(SWEEP_FAMILY):
            return [f"exit code {code}, {len(rows)} rows"] * len(SWEEP_FAMILY)
        return [self._check_trend_row(name, row) for name, row in zip(SWEEP_FAMILY, rows)]

    def _check_trend_row(self, name: str, row: dict) -> str | None:
        if row.get("error"):
            return f"row error {row['error']}"
        bad = self._input_error(name)
        if bad:
            return bad
        g, _, _, pert = self.group(name)
        q = g.order
        h2 = ref.halfgraph_count(pert, range(q), 2)
        verdicts = [
            _mismatch(row["group"] == name and row["order"] == q, "group name or order"),
            _mismatch(row["theta_method"] == "exact" and row["halfgraph_count"] == h2,
                      "H_2 of the perturbed relation"),
            _mismatch(_frac(row["theta_k"]) == Fraction(h2, q**4), "theta_2 normalisation"),
            _mismatch(_frac(row["theta_k"]) <= 4 * SWEEP_ETA, "theta_2 above 0 + 4 eta"),
        ]
        for kind in SWEEP_CENSUS:
            total = ref.census_total(g, pert, kind.replace("-", "_"))
            verdicts.append(_mismatch(_frac(row["census_density"][kind]) == Fraction(total, q**3),
                                      f"{kind} census density"))
        return _first_error(*verdicts)


def _element_order(g, a: int) -> int:
    x, n = a, 1
    while x:
        x, n = g.mul(x, a), n + 1
    return n


def _check_subgroups(name: str, output) -> str | None:
    code, text = output
    listing = json.loads(text)["subgroups"]
    g = ref.ref_group(name)
    masks = [sum(1 << m for m in s["members"]) for s in listing]
    return _first_error(
        _mismatch(code == 0, f"exit code {code}"),
        _mismatch(len(listing) == SWEEP_SUBGROUPS[name], "subgroup count differs from the closed form"),
        _mismatch(len(set(masks)) == len(masks), "repeated subgroup"),
        _mismatch(all(ref.is_subgroup(g, m) and s["index"] * m.bit_count() == g.order
                      and s["index"] <= 4 for s, m in zip(listing, masks)),
                  "listed set is not a subgroup of the stated index"),
    )


# --------------------------------------------------------------------------
# census: every census kind on seeded dense relations over groups of order 96-125

CENSUS_GROUPS = ["Z100", "Z2xZ4xZ12", "D50", "H5"]
CENSUS_KINDS = ["square", "naive", "bmz_left", "bmz_right", "rect23", "lshape"]
CENSUS_SAMPLED_SIDES = 4


def census(seed: int, outdir: Path) -> Workload:
    rng = _rng("census", seed)
    ops = []
    inputs = {}
    for name in CENSUS_GROUPS:
        group = cli.parse_group_spec(name)
        full = gs.CarrierSet.full(group, 1)
        relation = gs.random_dense(full, full, Fraction(1, 2), rng.randrange(2**31))
        # L-shapes are defined on abelian groups only: here the two Z... groups.
        kinds = CENSUS_KINDS if name.startswith("Z") else CENSUS_KINDS[:-1]
        for kind in kinds:
            sides = rng.sample(range(1, group.order), CENSUS_SAMPLED_SIDES)
            ops.append(Op(
                f"{kind} {name}",
                lambda _, kind=kind, relation=relation: _census_call(kind, relation),
                lambda out, _, name=name, kind=kind, rows=relation.rows, sides=sides:
                    [_check_census(name, kind, rows, sides, out)],
                lambda out: [1],
                key=lambda out: (out.kind, out.total_count, tuple(out.count_by_sidelength)),
            ))
        inputs[name] = _fingerprint(relation)
    return Workload(ops, inputs=inputs)


def _census_call(kind: str, relation):
    if kind == "square":
        return gs.square_census(relation)
    if kind in ("naive", "bmz_left", "bmz_right"):
        return gs.corner_census(relation, kind)
    if kind == "rect23":
        return gs.rect23_census(relation)
    return gs.lshape_census(relation)


def _check_census(name: str, kind: str, rows, sides, census) -> str | None:
    g = ref.ref_group(name)
    counts = census.count_by_sidelength
    if len(counts) != g.order:
        return "count_by_sidelength has the wrong length"
    edges = ref.edge_count(rows)
    return _first_error(
        _mismatch(census.total_count == sum(counts), "total differs from the sum over sides"),
        _mismatch(census.nontrivial_count == census.total_count - counts[0], "nontrivial count"),
        _mismatch(counts[0] == edges, "identity side differs from the edge count"),
        *(_mismatch(counts[s] == ref.census_at(g, rows, kind, s), f"count at side {s}")
          for s in sides),
    )


# --------------------------------------------------------------------------
# stability: exact and sampled half-graph counts, profiles, box covers

LINEAR_WIDTHS = (40, 70, 100)
SIDON_ORDERS = (31, 48, 64)
DENSE_ORDER = 64
COVER_ETA = Fraction(1, 20)
COVER_PURITY = Fraction(3, 4)
# Known fault: the exact kernel's budget gate charges |X|^k, not the number of
# tuples of distinct rows, so the 4-box union of Cay(Z64, 4 Z64) is refused.
GATE_FAULT = "BudgetExceeded"


def stability(seed: int, outdir: Path) -> Workload:
    rng = _rng("stability", seed)
    ops: list[Op] = []
    # label -> (relation, reference |H_k| for k <= 3 or by closed form)
    relations = {}

    for w in LINEAR_WIDTHS:
        q = w + rng.randrange(29)
        relations[f"linear{w}"] = (gs.linear_order_relation(gs.cyclic(q), w),
                                   lambda k, w=w: ref.linear_order_count(w, k))
    for n in SIDON_ORDERS:
        unit = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
        shift = rng.randrange(n)
        image = [(unit * a + shift) % n for a in ref.bits(gs.sidon_set(gs.cyclic(n)))]
        rel = gs.cayley_graph(gs.cyclic(n), sum(1 << a for a in image), "left")
        relations[f"sidon{n}"] = (rel, _reference_counts(rel))
    full = gs.CarrierSet.full(gs.cyclic(DENSE_ORDER), 1)
    dense = gs.random_dense(full, full, Fraction(1, 2), rng.randrange(2**31))
    relations["dense64"] = (dense, _reference_counts(dense))
    cay64 = gs.cayley_graph(gs.cyclic(64), sum(1 << a for a in range(0, 64, 4)), "left")
    # Cay(Z64, 4 Z64) is 2-stable: H_1 = 64 * 16 edges and H_k = 0 beyond.
    relations["cay64"] = (cay64, lambda k: 1024 if k == 1 else 0)

    for label, (rel, exact) in relations.items():
        if label == "cay64":
            continue
        for k in (1, 2, 3):
            ops.append(Op(
                f"count {label} k={k}",
                lambda _, rel=rel, k=k: gs.count_halfgraphs_exact(rel, k),
                lambda out, _, rel=rel, k=k, exact=exact, label=label: [_first_error(
                    _check_exact(out, rel, k, exact(k)),
                    _mismatch(k < 3 or not label.startswith("sidon") or out.exact_count == 0,
                              "Cayley graph of a Sidon set has H_3 > 0"),
                    _mismatch(k > 1 or out.exact_count == ref.edge_count(rel.rows),
                              "H_1 differs from the edge count"),
                )],
                lambda out: [1],
            ))

    for label in ("linear100", "cay64"):
        rel, exact = relations[label]
        s = rng.randrange(2**31)
        ops.append(Op(
            f"profile {label}",
            lambda _, rel=rel, s=s: gs.theta_profile(rel, 4, samples=SAMPLES, seed=s,
                                                     confidence=CONFIDENCE),
            lambda out, _, rel=rel, exact=exact: [_check_profile(out, rel, exact)],
            lambda out: [sum(r.is_exact for r in out)],
        ))
    for label, k in (("linear70", 2), ("dense64", 2), ("sidon64", 3)):
        rel, exact = relations[label]
        s = rng.randrange(2**31)
        ops.append(Op(
            f"sample {label} k={k}",
            lambda _, rel=rel, k=k, s=s: gs.sample_halfgraphs(rel, k, SAMPLES, s, CONFIDENCE),
            lambda out, _, rel=rel, k=k, exact=exact: [_check_sampled(out, rel, k, exact(k))],
            lambda out: [0],
        ))

    for group in gs.builtin_catalogue(16):
        sub = rng.choice(gs.subgroups_up_to_index(group, 4))
        idx = sub.index_in_parent
        cells = [(i, j) for i in range(idx) for j in range(idx)]
        # At most 3 coset boxes: a purity-1 cover then has at most 3 boxes, and
        # the exact kernel's gate admits H_4 of unions over groups of order <= 16.
        pairs = rng.sample(cells, rng.randint(1, min(3, len(cells))))
        union = gs.coset_box_set(group, sub, pairs)
        noisy = gs.perturb_relation(union, COVER_ETA, rng.randrange(2**31))
        ops += _cover_ops(f"{group.name} boxes", union, 1, 8)
        ops += _cover_ops(f"{group.name} noisy", noisy, COVER_PURITY, 3)
    ops += _cover_ops("Z64 Cay(4Z64)", cay64, 1, 8, expected_error=GATE_FAULT)
    return Workload(ops, inputs={label: _fingerprint(rel) for label, (rel, _) in relations.items()})


def _reference_counts(rel):
    cache: dict[int, int] = {}

    def exact(k: int) -> int:
        if k not in cache:
            cache[k] = ref.halfgraph_count(rel.rows, rel.domain.member_indices(), k)
        return cache[k]
    return exact


def _fingerprint(rel) -> str:
    return hashlib.sha256(" ".join(format(r, "x") for r in rel.rows).encode()).hexdigest()


def _theta(rel, k: int, count: int) -> Fraction:
    return Fraction(count, rel.group.order ** (2 * k))


def _check_exact(report, rel, k: int, expected: int) -> str | None:
    return _first_error(
        _mismatch(report.k == k and report.exact_count == expected,
                  f"H_{k} is {report.exact_count}, expected {expected}"),
        _mismatch(report.theta_group == _theta(rel, k, expected), "theta_group"),
        _mismatch(report.theta_carrier == Fraction(expected, rel.domain.size**k
                                                   * rel.codomain.size**k), "theta_carrier"),
    )


def _check_sampled(report, rel, k: int, expected: int) -> str | None:
    lo, hi = report.confidence_interval
    theta = _theta(rel, k, expected)
    return _first_error(
        _mismatch(report.exact_count is None and report.samples == SAMPLES, "sample count"),
        _mismatch(lo <= report.estimate <= hi, "estimate outside its own interval"),
        _mismatch(lo <= theta <= hi, f"Hoeffding interval [{lo}, {hi}] misses {theta}"),
    )


def _check_profile(reports, rel, exact) -> str | None:
    if [r.k for r in reports] != [1, 2, 3, 4]:
        return "profile does not cover k = 1..4"
    return _first_error(*(
        _check_exact(r, rel, r.k, exact(r.k)) if r.is_exact
        else _check_sampled(r, rel, r.k, exact(r.k))
        for r in reports
    ))


def _cover_ops(label: str, rel, purity, max_boxes: int, expected_error=None) -> list[Op]:
    """greedy_box_cover, then cover_error and box_union_stability_check on its cover."""
    denom = rel.group.order ** 2
    rows = list(rel.rows)
    name = f"cover {label}"

    def check_cover(cover, _) -> list:
        sym, _missed, over = ref.cover_errors(rows, cover.boxes, denom)
        pure = all(
            sum((rows[x] & yb).bit_count() for x in ref.bits(xb))
            >= purity * xb.bit_count() * yb.bit_count()
            for xb, yb in cover.boxes
        )
        return [_first_error(
            _mismatch(len(cover.boxes) <= max_boxes, "more boxes than allowed"),
            _mismatch(pure, "a box is below the requested purity"),
            _mismatch((cover.symdiff_error, cover.overcount_error) == (sym, over),
                      "reported cover errors differ from the recount"),
            _mismatch(purity < 1 or sym == 0, "purity-1 cover of a coset-box union is not exact"),
        )]

    def check_error(errors, outputs) -> list:
        return [_mismatch(errors == ref.cover_errors(rows, outputs[name].boxes, denom),
                          "cover_error differs from the recount")]

    def check_stability(result, outputs) -> list:
        ell, count = result
        return [_mismatch(ell == len(outputs[name].boxes) and count == 0,
                          f"{ell}-box union has H_{ell + 1} = {count}")]

    return [
        Op(name, lambda _: gs.greedy_box_cover(rel, Fraction(1, 100), max_boxes, purity),
           check_cover, lambda out: [1],
           key=lambda c: (c.boxes, c.symdiff_error, c.overcount_error)),
        Op(f"cover_error {label}", lambda outputs: gs.cover_error(rel, outputs[name]),
           check_error, lambda out: [1]),
        Op(f"stability {label}", lambda outputs: gs.box_union_stability_check(outputs[name]),
           check_stability, lambda out: [1], expected_error=expected_error),
    ]


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "sweep": sweep,
    "census": census,
    "stability": stability,
}
