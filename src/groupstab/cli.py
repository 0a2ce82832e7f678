"""Command-line front end and experiment harness.

Subcommands: group info, subgroups, halfgraph count|estimate|profile,
patterns census|ap, boxcover, gen, experiment run, experiment trend. Reports
are JSON with exact rationals as {"num": ..., "den": ...}; timing lives in
a segregated block so re-running a config byte-reproduces everything else.

Exit codes: 0 success; 1 config error (bad usage, or malformed JSON, specs
or files); 2 a toolkit error, such as an exceeded budget, in a single
command, or an error in any row of a sweep.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bits import iter_bits, mask_of
from .boxcover import greedy_box_cover
from .errors import ToolkitError, _check_budget, _check_int, _read
from .genlab import GeneratorSpec, as_fraction, frac_json, instantiate_generator
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
    _check_sampling,
    _exact_or_sampled,
    count_halfgraphs_exact,
    sample_halfgraphs,
    theta_profile,
)
from .patterns import SHAPES, PatternCensus, _censuses, _coverage, ap_census
from .relations import density, dump_relation, load_relation

# A shorthand factor: a letter naming the family, then its parameter.
_SHORTHAND_RE = re.compile(r"([CZDH])(\d+)", re.IGNORECASE)
_FAMILIES = {"C": cyclic, "Z": cyclic, "D": dihedral, "H": heisenberg}

# The CLI and config names of the census kinds: SHAPES' names with hyphens.
CENSUS_KINDS = tuple(kind.replace("_", "-") for kind in SHAPES)


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
    m = _SHORTHAND_RE.fullmatch(s)
    if m:
        return _FAMILIES[m.group(1).upper()](int(m.group(2)))
    raise ValueError(f"unrecognized group spec {spec!r}")


# How each scalar field of an experiment config file is read.
_CONFIG_READERS = {
    "k": int, "epsilon": as_fraction, "max_index": int, "samples": int, "seed": int,
    "confidence": float, "exact_budget": int,
}


@dataclass
class ExperimentConfig:
    """A sweep over groups with one generator and fixed probe parameters.

    Sampled heights draw one seeded stream, so `seed` alone fixes them.
    samples, seed and confidence pass halfgraph's sampling check, and
    exact_budget errors' budget check, with their messages. from_json
    refuses a key that names no field, so the report's `config` echo, read
    back as a config, reruns the same sweep.
    """

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
    output: str | None = None

    def __post_init__(self) -> None:
        _check_int(self.k, "k")
        _check_int(self.max_index, "max_index")
        self.epsilon = _read(as_fraction, self.epsilon, "epsilon")  # as from_json reads it: 0.1 is 1/10
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.max_index < 1:
            raise ValueError(f"max_index must be >= 1, got {self.max_index}")
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        _check_sampling(self.samples, self.seed, self.confidence)
        _check_budget(self.exact_budget, "exact_budget")
        for kind in self.census:
            if kind not in CENSUS_KINDS:
                raise ValueError(f"unknown census kind {kind!r}")

    @staticmethod
    def from_json(obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ValueError(f"experiment config must be a JSON object, got {obj!r}")
        names = {f.name for f in fields(ExperimentConfig)}
        unknown = [key for key in obj if key not in names]
        if unknown:
            raise ValueError(f"unknown config keys {', '.join(map(repr, unknown))}")
        for key in ("groups", "census"):
            if not isinstance(obj.get(key, []), list):
                raise ValueError(f"config {key!r} must be a JSON list, got {obj[key]!r}")
        output = obj.get("output")
        if output is not None and not isinstance(output, str):
            raise ValueError(f"config 'output' must be a path string, got {output!r}")

        groups = list(obj["groups"])
        generator = GeneratorSpec.from_json(obj["generator"])
        # Only the keys given are read; the dataclass supplies every default.
        given = {key: _read(convert, obj[key], f"config {key!r}")
                 for key, convert in _CONFIG_READERS.items() if key in obj}
        if "census" in obj:
            given["census"] = list(obj["census"])
        return ExperimentConfig(groups, generator, output=output, **given)

    def echo(self) -> dict:
        """Every field but output, in field order, as the report echoes it."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "output"}
        out["groups"] = [g if isinstance(g, (str, dict)) else g.name for g in self.groups]
        out["generator"] = self.generator.to_json()
        out["epsilon"] = frac_json(self.epsilon)
        out["census"] = list(self.census)
        return out


def _run_censuses(relation, kinds: list[str], witnesses: int = 0) -> dict[str, PatternCensus]:
    """The census of each CLI kind, in one pass, listing up to `witnesses`
    witness triples each; a refused kind raises as its own census would,
    the first in the order given."""
    counted = _censuses(relation, [kind.replace("-", "_") for kind in kinds], witnesses > 0, witnesses or 1)
    return {kind: counted[kind.replace("-", "_")] for kind in kinds}


@contextmanager
def _stage(stages: dict, name: str):
    """Record the seconds spent in the block under stages[name] if it completes."""
    t0 = time.perf_counter()
    yield
    stages[name] = time.perf_counter() - t0


def _sweep(config: ExperimentConfig, row_body) -> dict:
    """Per group: build S, take theta_k, then row_body(group, relation, theta,
    stages) gives the row; an error becomes an error row and the sweep goes on."""
    rows = []
    timing = []
    for spec in config.groups:
        stages: dict[str, float] = {}
        t0 = time.perf_counter()
        try:
            with _stage(stages, "build"):
                group = parse_group_spec(spec)
                relation = instantiate_generator(config.generator, group, config.seed)
            with _stage(stages, "halfgraph"):
                theta = _exact_or_sampled(
                    relation, config.k, config.exact_budget, config.samples, config.seed, config.confidence
                )
            rows.append(row_body(group, relation, theta, stages))
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


def _theta_fields(theta) -> dict:
    return {
        "theta_k": frac_json(theta.theta_group),
        "theta_method": "exact" if theta.is_exact else "sampled",
    }


def run_experiment(config: ExperimentConfig) -> dict:
    """Per group: build S, measure density and theta_k, run censuses, and
    search subgroups in ascending index for the first one whose side-length
    coverage misses less than an epsilon fraction."""

    def row(group, relation, theta, stages):
        with _stage(stages, "census"):
            # The pass's square census serves both its entry and the coverage search.
            counted = _run_censuses(relation, ["square", *config.census])
            censuses = {
                kind: {"total": counted[kind].total_count, "nontrivial": counted[kind].nontrivial_count}
                for kind in config.census
            }
        with _stage(stages, "subgroups"):
            best = "NOT_FOUND"
            for sub in subgroups_up_to_index(group, config.max_index):
                coverage = _coverage(counted["square"].count_by_sidelength, sub)
                if coverage.missing_fraction < config.epsilon:
                    best = {
                        "index": sub.index_in_parent,
                        "members": sub.member_indices(),
                        "missing_fraction": frac_json(coverage.missing_fraction),
                    }
                    break
        return {
            "group": group.name,
            "order": group.order,
            "exponent": exponent_and_orders(group)[0],
            "density": frac_json(density(relation, "group_power")),
            **_theta_fields(theta),
            "census": censuses,
            "best_subgroup": best,
            "error": None,
        }

    return _sweep(config, row)


def run_family_trend(config: ExperimentConfig) -> dict:
    """Rows of (order, theta_k, census densities) across a family of groups,
    for decay inspection; no fitting is performed."""
    if len(config.groups) < 2:
        raise ValueError("a family trend needs at least 2 groups")

    def row(group, relation, theta, stages):
        with _stage(stages, "census"):
            arity_sum = relation.domain.arity + relation.codomain.arity
            counted = _run_censuses(relation, config.census)
            densities = {
                kind: frac_json(Fraction(counted[kind].total_count, group.order ** (arity_sum + 1)))
                for kind in config.census
            }
        return {
            "group": group.name,
            "order": group.order,
            **_theta_fields(theta),
            "halfgraph_count": theta.exact_count,
            "census_density": densities,
            "error": None,
        }

    return _sweep(config, row)


def _load_relation_arg(args) -> tuple[FiniteGroup, "Relation"]:
    group = parse_group_spec(args.group)
    if args.relation_file:
        return group, load_relation(args.relation_file, group)
    if args.gen:
        spec = GeneratorSpec.from_json(json.loads(args.gen))
        return group, instantiate_generator(spec, group, args.seed)
    raise ValueError("provide --gen SPEC or --relation-file PATH")


def _emit(payload: dict | str, output: str | None) -> None:
    """Write a JSON report, or a relation file's text, to the output path or stdout."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


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
        args.output,
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
        args.output,
    )
    return 0


def _cmd_halfgraph(args) -> int:
    _, relation = _load_relation_arg(args)
    if args.mode == "count":
        report = count_halfgraphs_exact(relation, args.k, budget=args.budget).to_json()
    elif args.mode == "estimate":
        report = sample_halfgraphs(relation, args.k, args.samples, args.seed, args.confidence).to_json()
    else:
        reports = theta_profile(
            relation, args.k_max, exact_budget=args.budget,
            samples=args.samples, seed=args.seed, confidence=args.confidence,
        )
        report = {"profile": [r.to_json() for r in reports]}
    _emit(report, args.output)
    return 0


def _cmd_census(args) -> int:
    _, relation = _load_relation_arg(args)
    _emit(_run_censuses(relation, [args.kind], args.witnesses)[args.kind].to_json(), args.output)
    return 0


def _cmd_ap(args) -> int:
    group = parse_group_spec(args.group)
    members = mask_of(int(x) for x in args.set.split(","))
    mask, count = ap_census(group, members, args.m, args.h)
    _emit({"kind": "ap", "members": list(iter_bits(mask)), "count": count}, args.output)
    return 0


def _cmd_boxcover(args) -> int:
    _, relation = _load_relation_arg(args)
    cover = greedy_box_cover(relation, args.epsilon, args.max_boxes, args.purity)
    _emit(cover.to_json(), args.output)
    return 0


def _cmd_gen(args) -> int:
    group = parse_group_spec(args.group)
    spec = GeneratorSpec.from_json(json.loads(args.spec))
    relation = instantiate_generator(spec, group, args.seed)
    _emit(dump_relation(relation), args.output)
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json(json.loads(Path(args.config).read_text()))
    # Through replace, so the overrides pass the same checks as the file's values.
    overrides = {"seed": args.seed, "exact_budget": args.budget}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    report = run_family_trend(config) if args.mode == "trend" else run_experiment(config)
    _emit(report, args.output or config.output)
    return 2 if report["row_errors"] else 0


# The options several commands take, each declared once by its dest, the flag
# without "--". A command takes exactly the options its handler reads.
_OPTIONS = {
    "group": {"required": True, "help": "group spec, e.g. Z6, Z2xZ2, D4, or JSON"},
    "seed": {"type": int, "default": 0, "help": "base RNG seed"},
    "budget": {"type": int, "default": DEFAULT_EXACT_BUDGET, "help": "work budget for exact kernels"},
    "k": {"type": int, "default": 2},
    "output": {"help": "write the result here instead of stdout"},
}


def _add(parser: argparse.ArgumentParser, *dests: str, **settings) -> argparse.ArgumentParser:
    """Add the named _OPTIONS to the parser, settings replacing declared ones."""
    for dest in dests:
        parser.add_argument("--" + dest, **{**_OPTIONS[dest], **settings})
    return parser


def build_parser() -> argparse.ArgumentParser:
    """A new, complete parser. Each command's `handler` default is the name
    of the function in this module that runs it."""
    parser = argparse.ArgumentParser(
        prog="groupstab",
        description="Half-graph censuses and pattern counting on finite groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # Shared groups of options are parents, whose actions are copied, not added again.
    rel = _add(argparse.ArgumentParser(add_help=False), "group", "seed", "output")
    rel.add_argument("--gen", help="generator spec as JSON")
    rel.add_argument("--relation-file", help="relation in the save format")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--samples", type=int, default=10_000)
    sampling.add_argument("--confidence", type=float, default=0.95)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="group inspection")
    gi = p.add_subparsers(dest="mode", required=True).add_parser("info")
    _add(gi, "group", "output").set_defaults(handler="_cmd_group_info")

    p = _add(sub.add_parser("subgroups", help="enumerate subgroups"), "group", "output")
    p.add_argument("--max-index", type=int, default=4)
    _add(p, "budget", help="cap on the candidate closures of the subgroup search")
    p.set_defaults(handler="_cmd_subgroups")

    p = sub.add_parser("halfgraph", help="half-graph counting and estimation")
    hsub = p.add_subparsers(dest="mode", required=True)
    hc = _add(hsub.add_parser("count", parents=[rel]), "k", "budget")
    hc.set_defaults(handler="_cmd_halfgraph")
    he = _add(hsub.add_parser("estimate", parents=[rel, sampling]), "k")
    he.set_defaults(handler="_cmd_halfgraph")
    hp = _add(hsub.add_parser("profile", parents=[rel, sampling]), "budget")
    hp.add_argument("--k-max", type=int, default=3)
    hp.set_defaults(handler="_cmd_halfgraph")

    p = sub.add_parser("patterns", help="pattern censuses")
    psub = p.add_subparsers(dest="mode", required=True)
    pc = psub.add_parser("census", parents=[rel])
    pc.add_argument("--kind", required=True, choices=CENSUS_KINDS)
    pc.add_argument("--witnesses", type=int, default=0, help="cap on listed witnesses")
    pc.set_defaults(handler="_cmd_census")
    pa = _add(psub.add_parser("ap"), "group")
    pa.add_argument("--set", required=True, help="comma-separated element indices")
    pa.add_argument("--m", type=int, default=3, help="progression length")
    pa.add_argument("--h", type=int, required=True, help="progression step element")
    _add(pa, "output").set_defaults(handler="_cmd_ap")

    p = sub.add_parser("boxcover", parents=[rel], help="greedy box cover")
    p.add_argument("--epsilon", default="0.05")
    p.add_argument("--max-boxes", type=int, default=16)
    p.add_argument("--purity", default="1")
    p.set_defaults(handler="_cmd_boxcover")

    p = _add(sub.add_parser("gen", help="materialize a generator spec"), "group", "seed")
    p.add_argument("--spec", required=True, help="generator spec as JSON")
    p.add_argument("--output", "--out", **_OPTIONS["output"])
    p.set_defaults(handler="_cmd_gen")

    p = sub.add_parser("experiment", help="experiment harness")
    esub = p.add_subparsers(dest="mode", required=True)
    for mode in ("run", "trend"):
        ep = esub.add_parser(mode)
        ep.add_argument("--config", required=True, help="experiment config JSON file")
        _add(ep, "seed", "budget", default=None)  # None keeps the config's value
        _add(ep, "output").set_defaults(handler="_cmd_experiment")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on main's first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    The parser is built once per process, on the first call, and reused;
    each command's handler is looked up by name in this module at call
    time, so a handler replaced after that first call is the one that runs.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; that is a config error here
        return 0 if exc.code in (0, None) else 1
    try:
        return globals()[args.handler](args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # Anything else, such as a MemoryError from a group too large to
        # tabulate, is one line too: the CLI never prints a traceback.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
