"""Command-line front end and experiment harness.

Subcommands: group info, subgroups, halfgraph count|estimate|profile,
patterns census, boxcover, gen, experiment run, experiment trend. Reports
are JSON with exact rationals as {"num": ..., "den": ...}; timing lives in
a segregated block so re-running a config byte-reproduces everything else.

Exit codes: 0 success, 1 config error, 2 any per-row error in a sweep.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bits import iter_bits, mask_of
from .boxcover import greedy_box_cover
from .errors import ToolkitError
from .genlab import GeneratorSpec, as_fraction, instantiate_generator
from .groups import (
    FiniteGroup,
    cyclic,
    dihedral,
    exponent_and_orders,
    heisenberg,
    make_group,
    product,
    subgroups_up_to_index,
)
from .halfgraph import (
    DEFAULT_EXACT_BUDGET,
    count_halfgraphs_exact,
    sample_halfgraphs,
    theta_profile,
)
from .patterns import (
    PatternCensus,
    _coverage,
    ap_census,
    corner_census,
    lshape_census,
    rect23_census,
    square_census,
)
from .relations import density, dump_relation, load_relation

_CYCLIC_RE = re.compile(r"[CZ](\d+)$", re.IGNORECASE)
_DIHEDRAL_RE = re.compile(r"D(\d+)$", re.IGNORECASE)
_HEISENBERG_RE = re.compile(r"H(\d+)$", re.IGNORECASE)

CENSUS_KINDS = ("square", "naive", "bmz-left", "bmz-right", "rect23", "lshape")


def parse_group_spec(spec) -> FiniteGroup:
    """Groups from shorthand ("Z6", "Z2xZ3", "D4", "H3"), JSON recipe dicts,
    or JSON text starting with '{'."""
    if isinstance(spec, FiniteGroup):
        return spec
    if isinstance(spec, dict):
        return make_group(spec)
    s = str(spec).strip()
    if s.startswith("{"):
        return make_group(json.loads(s))
    s = s.replace(" ", "")
    if "x" in s.lower():
        parts = re.split("[xX]", s)
        return product(*(parse_group_spec(p) for p in parts))
    m = _CYCLIC_RE.fullmatch(s)
    if m:
        return cyclic(int(m.group(1)))
    m = _DIHEDRAL_RE.fullmatch(s)
    if m:
        return dihedral(int(m.group(1)))
    m = _HEISENBERG_RE.fullmatch(s)
    if m:
        return heisenberg(int(m.group(1)))
    raise ValueError(f"unrecognized group spec {spec!r}")


def frac_json(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator}


def parse_fraction(value) -> Fraction:
    if isinstance(value, dict):
        return Fraction(value["num"], value["den"])
    return as_fraction(value)


@dataclass
class ExperimentConfig:
    """A sweep over groups with one generator and fixed probe parameters."""

    groups: list
    generator: GeneratorSpec
    k: int = 2
    epsilon: Fraction = Fraction(1, 10)
    max_index: int = 4
    census: list[str] = field(default_factory=lambda: ["square"])
    samples: int = 10_000
    seed: int = 0
    confidence: float = 0.95
    exact_budget: int = DEFAULT_EXACT_BUDGET
    threads: int = 1
    output: str | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.max_index < 1:
            raise ValueError(f"max_index must be >= 1, got {self.max_index}")
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")

    @staticmethod
    def from_json(obj: dict) -> "ExperimentConfig":
        return ExperimentConfig(
            groups=list(obj["groups"]),
            generator=GeneratorSpec.from_json(obj["generator"]),
            k=int(obj.get("k", 2)),
            epsilon=parse_fraction(obj.get("epsilon", "1/10")),
            max_index=int(obj.get("max_index", 4)),
            census=list(obj.get("census", ["square"])),
            samples=int(obj.get("samples", 10_000)),
            seed=int(obj.get("seed", 0)),
            confidence=float(obj.get("confidence", 0.95)),
            exact_budget=int(obj.get("exact_budget", DEFAULT_EXACT_BUDGET)),
            threads=int(obj.get("threads", 1)),
            output=obj.get("output"),
        )

    def echo(self) -> dict:
        return {
            "groups": [g if isinstance(g, (str, dict)) else g.name for g in self.groups],
            "generator": self.generator.to_json(),
            "k": self.k,
            "epsilon": frac_json(self.epsilon),
            "max_index": self.max_index,
            "census": list(self.census),
            "samples": self.samples,
            "seed": self.seed,
            "confidence": self.confidence,
            "exact_budget": self.exact_budget,
            "threads": self.threads,
        }


def _run_census(relation, kind: str) -> PatternCensus:
    if kind == "square":
        census = square_census(relation)
    elif kind == "naive":
        census = corner_census(relation, "naive")
    elif kind == "bmz-left":
        census = corner_census(relation, "bmz_left")
    elif kind == "bmz-right":
        census = corner_census(relation, "bmz_right")
    elif kind == "rect23":
        census = rect23_census(relation)
    elif kind == "lshape":
        census = lshape_census(relation)
    else:
        raise ValueError(f"unknown census kind {kind!r}")
    return census


def _theta_entry(relation, k, exact_budget, samples, seed, confidence, threads=1):
    if relation.domain.size**k <= exact_budget:
        report = count_halfgraphs_exact(relation, k, budget=exact_budget)
    else:
        report = sample_halfgraphs(relation, k, samples, seed, confidence,
                                   worker_count=threads)
    return report


def run_experiment(config: ExperimentConfig) -> dict:
    """Per group: build S, measure density and theta_k, run censuses, and
    search subgroups in ascending index for the first one whose side-length
    coverage misses less than an epsilon fraction."""
    rows = []
    timing = []
    for spec in config.groups:
        stages: dict[str, float] = {}
        t0 = time.perf_counter()
        try:
            group = parse_group_spec(spec)
            relation = instantiate_generator(config.generator, group, config.seed)
            stages["build"] = time.perf_counter() - t0
            t1 = time.perf_counter()
            exponent, _ = exponent_and_orders(group)
            delta = density(relation, "group_power")
            theta = _theta_entry(
                relation, config.k, config.exact_budget, config.samples,
                config.seed, config.confidence, config.threads,
            )
            stages["halfgraph"] = time.perf_counter() - t1
            t2 = time.perf_counter()
            # One square census serves both its census entry and the coverage search.
            squares = square_census(relation)
            censuses = {}
            for kind in config.census:
                census = squares if kind == "square" else _run_census(relation, kind)
                censuses[kind] = {"total": census.total_count, "nontrivial": census.nontrivial_count}
            stages["census"] = time.perf_counter() - t2
            t3 = time.perf_counter()
            best = None
            for sub in subgroups_up_to_index(group, config.max_index):
                coverage = _coverage(squares.count_by_sidelength, sub)
                if coverage.missing_fraction < config.epsilon:
                    best = {
                        "index": sub.index_in_parent,
                        "members": sub.member_indices(),
                        "missing_fraction": frac_json(coverage.missing_fraction),
                    }
                    break
            stages["subgroups"] = time.perf_counter() - t3
            rows.append(
                {
                    "group": group.name,
                    "order": group.order,
                    "exponent": exponent,
                    "density": frac_json(delta),
                    "theta_k": frac_json(theta.theta_group),
                    "theta_method": "exact" if theta.is_exact else "sampled",
                    "census": censuses,
                    "best_subgroup": best if best is not None else "NOT_FOUND",
                    "error": None,
                }
            )
        except (ToolkitError, ValueError) as exc:
            rows.append(
                {
                    "group": str(spec),
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                }
            )
        timing.append({"group": str(spec), "stages": stages, "total_s": time.perf_counter() - t0})
    report = {
        "version": __version__,
        "config": config.echo(),
        "rows": rows,
        "row_errors": sum(1 for r in rows if r.get("error")),
        "timing": timing,
    }
    return report


def run_family_trend(config: ExperimentConfig) -> dict:
    """Rows of (order, theta_k, census densities) across a family of groups,
    for decay inspection; no fitting is performed."""
    if len(config.groups) < 2:
        raise ValueError("a family trend needs at least 2 groups")
    rows = []
    timing = []
    for spec in config.groups:
        stages: dict[str, float] = {}
        t0 = time.perf_counter()
        try:
            group = parse_group_spec(spec)
            relation = instantiate_generator(config.generator, group, config.seed)
            stages["build"] = time.perf_counter() - t0
            t1 = time.perf_counter()
            theta = _theta_entry(
                relation, config.k, config.exact_budget, config.samples,
                config.seed, config.confidence, config.threads,
            )
            stages["halfgraph"] = time.perf_counter() - t1
            t2 = time.perf_counter()
            arity_sum = relation.domain.arity + relation.codomain.arity
            densities = {}
            for kind in config.census:
                total = _run_census(relation, kind).total_count
                densities[kind] = frac_json(
                    Fraction(total, group.order ** (arity_sum + 1))
                )
            stages["census"] = time.perf_counter() - t2
            rows.append(
                {
                    "group": group.name,
                    "order": group.order,
                    "theta_k": frac_json(theta.theta_group),
                    "theta_method": "exact" if theta.is_exact else "sampled",
                    "halfgraph_count": theta.exact_count,
                    "census_density": densities,
                    "error": None,
                }
            )
        except (ToolkitError, ValueError) as exc:
            rows.append(
                {
                    "group": str(spec),
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                }
            )
        timing.append({"group": str(spec), "stages": stages, "total_s": time.perf_counter() - t0})
    return {
        "version": __version__,
        "config": config.echo(),
        "rows": rows,
        "row_errors": sum(1 for r in rows if r.get("error")),
        "timing": timing,
    }


def _load_relation_arg(args) -> tuple[FiniteGroup, "Relation"]:
    group = parse_group_spec(args.group)
    if getattr(args, "relation_file", None):
        return group, load_relation(args.relation_file, group)
    if getattr(args, "gen", None):
        spec = GeneratorSpec.from_json(json.loads(args.gen))
        return group, instantiate_generator(spec, group, args.seed)
    raise ValueError("provide --gen SPEC or --relation-file PATH")


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2)
    if getattr(args, "output", None):
        Path(args.output).write_text(text + "\n")
    else:
        print(text)


def _cmd_group_info(args) -> int:
    group = parse_group_spec(args.group)
    exponent, orders = exponent_and_orders(group)
    _emit(
        {
            "name": group.name,
            "order": group.order,
            "recipe": group.recipe,
            "recipe_hash": group.recipe_hash(),
            "abelian": group.is_abelian,
            "exponent": exponent,
            "element_orders": [orders[i] for i in range(group.order)],
        },
        args,
    )
    return 0


def _cmd_subgroups(args) -> int:
    group = parse_group_spec(args.group)
    subs = subgroups_up_to_index(group, args.max_index, budget=args.budget)
    _emit(
        {
            "group": group.name,
            "max_index": args.max_index,
            "subgroups": [
                {"index": s.index_in_parent, "members": s.member_indices()} for s in subs
            ],
        },
        args,
    )
    return 0


def _cmd_halfgraph(args) -> int:
    _, relation = _load_relation_arg(args)
    if args.mode == "count":
        report = count_halfgraphs_exact(relation, args.k, budget=args.budget)
    elif args.mode == "estimate":
        report = sample_halfgraphs(
            relation, args.k, args.samples, args.seed, args.confidence,
            worker_count=args.threads,
        )
    else:
        reports = theta_profile(
            relation, args.k_max, exact_budget=args.budget,
            samples=args.samples, seed=args.seed, confidence=args.confidence,
        )
        _emit({"profile": [r.to_json() for r in reports]}, args)
        return 0
    _emit(report.to_json(), args)
    return 0


def _cmd_patterns(args) -> int:
    group = parse_group_spec(args.group)
    if args.kind == "ap":
        if args.set is None or args.h is None:
            raise ValueError("--kind ap needs --set and --h")
        members = mask_of(int(x) for x in args.set.split(","))
        mask, count = ap_census(group, members, args.m, args.h)
        _emit({"kind": "ap", "members": list(iter_bits(mask)), "count": count}, args)
        return 0
    _, relation = _load_relation_arg(args)
    witnesses = args.witnesses > 0
    if args.kind == "square":
        census = square_census(relation, witnesses, args.witnesses or 1)
    elif args.kind == "naive":
        census = corner_census(relation, "naive", witnesses, args.witnesses or 1)
    elif args.kind == "bmz-left":
        census = corner_census(relation, "bmz_left", witnesses, args.witnesses or 1)
    elif args.kind == "bmz-right":
        census = corner_census(relation, "bmz_right", witnesses, args.witnesses or 1)
    elif args.kind == "rect23":
        census = rect23_census(relation, witnesses, args.witnesses or 1)
    elif args.kind == "lshape":
        census = lshape_census(relation, witnesses, args.witnesses or 1)
    else:
        raise ValueError(f"unknown census kind {args.kind!r}")
    _emit(census.to_json(), args)
    return 0


def _cmd_boxcover(args) -> int:
    _, relation = _load_relation_arg(args)
    cover = greedy_box_cover(relation, args.epsilon, args.max_boxes, args.purity)
    _emit(cover.to_json(), args)
    return 0


def _cmd_gen(args) -> int:
    group = parse_group_spec(args.group)
    spec = GeneratorSpec.from_json(json.loads(args.spec))
    relation = instantiate_generator(spec, group, args.seed)
    text = dump_relation(relation)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json(json.loads(Path(args.config).read_text()))
    if args.seed is not None:
        config.seed = args.seed
    if args.budget is not None:
        config.exact_budget = args.budget
    if args.threads is not None:
        config.threads = args.threads
    report = run_family_trend(config) if args.mode == "trend" else run_experiment(config)
    out = args.output or config.output
    text = json.dumps(report, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)
    return 2 if report["row_errors"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupstab",
        description="Half-graph censuses and pattern counting on finite groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base RNG seed")
    common.add_argument("--threads", type=int, default=1, help="worker streams for sampling")
    common.add_argument("--budget", type=int, default=DEFAULT_EXACT_BUDGET,
                        help="work budget for exact kernels")
    common.add_argument("--output", help="write JSON here instead of stdout")
    rel = argparse.ArgumentParser(add_help=False)
    rel.add_argument("--group", required=True, help='group spec, e.g. Z6, Z2xZ2, D4, or JSON')
    rel.add_argument("--gen", help="generator spec as JSON")
    rel.add_argument("--relation-file", help="relation in the save format")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="group inspection")
    gsub = p.add_subparsers(dest="mode", required=True)
    gi = gsub.add_parser("info", parents=[common])
    gi.add_argument("--group", required=True)
    gi.set_defaults(func=_cmd_group_info)

    p = sub.add_parser("subgroups", parents=[common], help="enumerate subgroups")
    p.add_argument("--group", required=True)
    p.add_argument("--max-index", type=int, default=4)
    p.set_defaults(func=_cmd_subgroups)

    p = sub.add_parser("halfgraph", help="half-graph counting and estimation")
    hsub = p.add_subparsers(dest="mode", required=True)
    for mode in ("count", "estimate", "profile"):
        hp = hsub.add_parser(mode, parents=[common, rel])
        if mode == "profile":
            hp.add_argument("--k-max", type=int, default=3)
        else:
            hp.add_argument("--k", type=int, default=2)
        hp.add_argument("--samples", type=int, default=10_000)
        hp.add_argument("--confidence", type=float, default=0.95)
        hp.set_defaults(func=_cmd_halfgraph)

    p = sub.add_parser("patterns", help="pattern censuses")
    psub = p.add_subparsers(dest="mode", required=True)
    pc = psub.add_parser("census", parents=[common, rel])
    pc.add_argument("--kind", required=True, choices=CENSUS_KINDS + ("ap",))
    pc.add_argument("--witnesses", type=int, default=0, help="cap on listed witnesses")
    pc.add_argument("--set", help="comma-separated element indices (ap census)")
    pc.add_argument("--m", type=int, default=3, help="progression length (ap census)")
    pc.add_argument("--h", type=int, help="progression step element (ap census)")
    pc.set_defaults(func=_cmd_patterns)

    p = sub.add_parser("boxcover", parents=[common, rel], help="greedy box cover")
    p.add_argument("--epsilon", default="0.05")
    p.add_argument("--max-boxes", type=int, default=16)
    p.add_argument("--purity", default="1")
    p.set_defaults(func=_cmd_boxcover)

    p = sub.add_parser("gen", parents=[common], help="materialize a generator spec")
    p.add_argument("--group", required=True)
    p.add_argument("--spec", required=True, help="generator spec as JSON")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("experiment", help="experiment harness")
    esub = p.add_subparsers(dest="mode", required=True)
    for mode in ("run", "trend"):
        ep = esub.add_parser(mode)
        ep.add_argument("--config", required=True, help="experiment config JSON file")
        ep.add_argument("--seed", type=int, default=None)
        ep.add_argument("--budget", type=int, default=None)
        ep.add_argument("--threads", type=int, default=None)
        ep.add_argument("--output", help="write the report here")
        ep.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; that is a config error here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
