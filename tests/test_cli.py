"""cli: subcommands, experiment harness, reproducibility, exit codes."""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import groupstab
from groupstab import (
    ExperimentConfig,
    GeneratorSpec,
    cyclic,
    instantiate_generator,
    run_experiment,
    run_family_trend,
    sample_halfgraphs,
    sidelength_coverage,
    subgroups_up_to_index,
)
from groupstab import cli
from groupstab.cli import build_parser, main, parse_group_spec
from groupstab.halfgraph import derive_seed
from groupstab.patterns import SHAPES, census

import oracles


def run_cli(*args, python=("-c", "from groupstab.cli import main; raise SystemExit(main())")):
    # The child imports the same groupstab as this process, installed or not.
    src = str(Path(groupstab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, *python, *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def test_parse_group_spec_shorthands():
    assert parse_group_spec("Z6").order == 6
    assert parse_group_spec("C5").order == 5
    assert parse_group_spec("Z2xZ3").name == "Z2xZ3"
    assert parse_group_spec("D4").order == 8
    assert parse_group_spec("H3").order == 27
    assert parse_group_spec('{"kind": "cyclic", "n": 7}').order == 7
    with pytest.raises(ValueError):
        parse_group_spec("Q8")


def test_subgroups_budget_counts_each_subgroup_once(capsys):
    """Z2^4 at index <= 4: P is trivial, and the walk makes 65 candidate
    closures, one per greedy step it tries, for the 67 subgroups it lists
    the 51 of index <= 4 from."""
    argv = ["subgroups", "--group", "Z2xZ2xZ2xZ2", "--max-index", "4", "--budget"]
    assert main(argv + ["65"]) == 0
    assert len(json.loads(capsys.readouterr().out)["subgroups"]) == 51
    assert main(argv + ["64"]) == 2
    assert capsys.readouterr() == ("", "error: operation needs 65 candidate closures, budget is 64\n")


def test_group_info_and_subgroups(capsys):
    assert main(["group", "info", "--group", "Z6"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["order"] == 6 and info["exponent"] == 6
    assert main(["subgroups", "--group", "Z4", "--max-index", "2"]) == 0
    subs = json.loads(capsys.readouterr().out)
    assert [s["members"] for s in subs["subgroups"]] == [[0, 1, 2, 3], [0, 2]]


def test_halfgraph_count_cli(capsys):
    code = main([
        "halfgraph", "count", "--group", "Z9",
        "--gen", '{"kind": "linear_order", "params": {"width": 3}}', "--k", "2",
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exact_count"] == 5
    assert out["theta_group"] == {"num": 5, "den": 6561}


def test_halfgraph_estimate_deterministic(capsys):
    args = [
        "halfgraph", "estimate", "--group", "Z8",
        "--gen", '{"kind": "random_dense", "params": {"delta": 0.4, "seed": 2}}',
        "--k", "2", "--samples", "400", "--seed", "5",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "mode, height", [("estimate", ["--k", "3"]), ("profile", ["--k-max", "3", "--budget", "100"])]
)
def test_halfgraph_sampling_cli_is_reproducible_and_in_its_interval(capsys, mode, height):
    args = [
        "halfgraph", mode, "--group", "Z8",
        "--gen", '{"kind": "random_dense", "params": {"delta": 0.5, "seed": 11}}',
        *height, "--samples", "700", "--seed", "4",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    out = json.loads(first)
    reports = out["profile"] if mode == "profile" else [out]
    sampled = [r for r in reports if r["exact_count"] is None]
    assert sampled and all(r["samples"] == 700 for r in sampled)
    for r in sampled:
        lo, hi, est = (Fraction(f["num"], f["den"]) for f in (*r["confidence_interval"], r["estimate"]))
        assert lo <= est <= hi


def test_halfgraph_profile_samples_each_height_at_its_derived_seed(capsys):
    """Each sampled height of the profile is the sampler at its derived seed."""
    spec = '{"kind": "random_dense", "params": {"delta": 0.5, "seed": 11}}'
    assert main([
        "halfgraph", "profile", "--group", "Z8", "--gen", spec, "--k-max", "3",
        "--samples", "700", "--seed", "4", "--budget", "10",
    ]) == 0
    profile = json.loads(capsys.readouterr().out)["profile"]
    relation = instantiate_generator(GeneratorSpec.from_json(json.loads(spec)), cyclic(8), 4)
    for k, report in enumerate(profile, start=1):
        if report["exact_count"] is None:
            assert report == sample_halfgraphs(relation, k, 700, derive_seed(4, k)).to_json()
    # k = 1 is exact; k = 2 and 3 are sampled.
    assert [r["exact_count"] is None for r in profile] == [False, True, True]


@pytest.mark.parametrize("group", ["Z6", "D3", "Z2xZ2"])
def test_patterns_census_prints_the_census_of_its_kind(capsys, group):
    """`patterns census` prints census()'s report, with and without witnesses,
    byte for byte: the CLI's one census helper adds nothing."""
    spec = '{"kind": "random_dense", "params": {"delta": 0.5, "seed": 3}}'
    relation = instantiate_generator(GeneratorSpec.from_json(json.loads(spec)), parse_group_spec(group), 0)
    for kind in cli.CENSUS_KINDS:
        if SHAPES[kind.replace("-", "_")].abelian_error and group == "D3":
            continue
        for witnesses in (0, 5):
            assert main(["patterns", "census", "--group", group, "--gen", spec, "--kind", kind,
                         "--witnesses", str(witnesses)]) == 0
            expected = census(relation, kind.replace("-", "_"), witnesses > 0, witnesses or 1).to_json()
            assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n", (kind, witnesses)


def test_patterns_census_cli(capsys):
    code = main([
        "patterns", "census", "--group", "Z4",
        "--gen", '{"kind": "coset_boxes", "params": {"subgroup_index": 2, "pairs": "diagonal"}}',
        "--kind", "square",
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["total_count"] == 16
    assert out["count_by_sidelength"] == [8, 0, 8, 0]


def test_patterns_census_kinds_are_the_registry_plus_ap():
    """`patterns census --kind` is the registry alone; the AP census is its own command."""
    def subcommands(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    patterns = subcommands(build_parser())["patterns"]
    assert list(subcommands(patterns)) == ["census", "ap"]
    kind = next(a for a in subcommands(patterns)["census"]._actions if a.dest == "kind")
    assert list(kind.choices) == [k.replace("_", "-") for k in SHAPES]


def test_ap_is_not_a_census_kind(capsys):
    argv = ["patterns", "census", "--group", "Z10", "--gen", '{"kind": "linear_order"}', "--kind"]
    assert main([*argv, "square"]) == 0
    capsys.readouterr()
    assert main([*argv, "ap"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: groupstab patterns census")
    assert "argument --kind: invalid choice: 'ap'" in err.splitlines()[-1]


def _leaf_commands(parser, words=()):
    """(words, parser) for each command the parser runs, such as ("halfgraph", "count")."""
    action = next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)
    if action is None:
        yield words, parser
        return
    for name, child in action.choices.items():
        yield from _leaf_commands(child, (*words, name))


RELATION_OPTIONS = {"--group": None, "--seed": 0, "--output": None, "--gen": None, "--relation-file": None}
SAMPLING_OPTIONS = {"--samples": 10_000, "--confidence": 0.95}
EXPERIMENT_OPTIONS = {"--config": None, "--seed": None, "--budget": None, "--output": None}


def test_each_command_takes_exactly_the_options_it_reads():
    """Each command's options, as flag -> default; spellings of one option are joined by "/"."""
    taken = {
        " ".join(words): {"/".join(a.option_strings): a.default for a in parser._actions
                          if a.option_strings != ["-h", "--help"]}
        for words, parser in _leaf_commands(build_parser())
    }
    assert taken == {
        "group info": {"--group": None, "--output": None},
        "subgroups": {"--group": None, "--output": None, "--max-index": 4, "--budget": 10**6},
        "halfgraph count": {**RELATION_OPTIONS, "--k": 2, "--budget": 10**6},
        "halfgraph estimate": {**RELATION_OPTIONS, **SAMPLING_OPTIONS, "--k": 2},
        "halfgraph profile": {**RELATION_OPTIONS, **SAMPLING_OPTIONS, "--budget": 10**6, "--k-max": 3},
        "patterns census": {**RELATION_OPTIONS, "--kind": None, "--witnesses": 0},
        "patterns ap": {"--group": None, "--set": None, "--m": 3, "--h": None, "--output": None},
        "boxcover": {**RELATION_OPTIONS, "--epsilon": "0.05", "--max-boxes": 16, "--purity": "1"},
        "gen": {"--group": None, "--seed": 0, "--spec": None, "--output/--out": None},
        "experiment run": EXPERIMENT_OPTIONS,
        "experiment trend": EXPERIMENT_OPTIONS,
    }
    assert sum(map(len, taken.values())) == 62


SPEC = '{"kind": "linear_order"}'
SMALL_CONFIG = str(Path(__file__).parents[1] / "examples" / "nonabelian_trend.json")


@pytest.mark.parametrize("command, option", [
    (["group", "info", "--group", "Z4"], ["--seed", "3"]),
    (["group", "info", "--group", "Z4"], ["--threads", "2"]),
    (["group", "info", "--group", "Z4"], ["--budget", "5"]),
    (["subgroups", "--group", "Z4"], ["--seed", "3"]),
    (["subgroups", "--group", "Z4"], ["--threads", "2"]),
    (["halfgraph", "count", "--group", "Z4", "--gen", SPEC], ["--threads", "2"]),
    (["halfgraph", "count", "--group", "Z4", "--gen", SPEC], ["--samples", "5"]),
    (["halfgraph", "count", "--group", "Z4", "--gen", SPEC], ["--confidence", "0.5"]),
    (["halfgraph", "estimate", "--group", "Z4", "--gen", SPEC], ["--budget", "5"]),
    (["halfgraph", "estimate", "--group", "Z4", "--gen", SPEC], ["--threads", "2"]),
    (["experiment", "run", "--config", SMALL_CONFIG], ["--threads", "2"]),
    (["patterns", "census", "--group", "Z4", "--gen", SPEC, "--kind", "square"], ["--threads", "2"]),
    (["patterns", "census", "--group", "Z4", "--gen", SPEC, "--kind", "square"], ["--budget", "5"]),
    (["boxcover", "--group", "Z4", "--gen", SPEC], ["--threads", "2"]),
    (["boxcover", "--group", "Z4", "--gen", SPEC], ["--budget", "5"]),
    (["gen", "--group", "Z4", "--spec", SPEC], ["--threads", "2"]),
    (["gen", "--group", "Z4", "--spec", SPEC], ["--budget", "5"]),
])
def test_an_option_the_command_does_not_read_is_bad_usage(capsys, command, option):
    assert main(command) == 0
    capsys.readouterr()
    assert main([*command, *option]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: groupstab")
    assert err.splitlines()[-1] == f"groupstab: error: unrecognized arguments: {' '.join(option)}"
    assert "Traceback" not in err


def test_patterns_ap_cli(capsys):
    code = main([
        "patterns", "ap", "--group", "Z10", "--set", "0,1,2,3", "--m", "3", "--h", "1",
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["members"] == [0, 1] and out["count"] == 2


def test_patterns_ap_cli_stops_once_the_set_stops_shrinking(capsys):
    """A length far past |A| answers at once, as the set's fixed point."""
    outs = []
    for m in ("1000000000", "7"):
        assert main(["patterns", "ap", "--group", "Z6", "--set", "0,1,2,3", "--m", m, "--h", "1"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "group, members, h",
    [("D4", "0,1", "20"), ("Z4", "0,9", "1")],
)
def test_patterns_ap_cli_rejects_elements_outside_the_group(group, members, h):
    proc = run_cli("patterns", "ap", "--group", group, "--set", members, "--h", h)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error:")
    assert len(proc.stderr.splitlines()) == 1


def test_boxcover_cli(capsys):
    code = main([
        "boxcover", "--group", "Z4",
        "--gen", '{"kind": "coset_boxes", "params": {"subgroup_index": 2, "pairs": "diagonal"}}',
        "--epsilon", "0.001", "--max-boxes", "8",
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["symdiff_error"] == {"num": 0, "den": 1}
    assert len(out["boxes"]) <= 4


def test_gen_save_and_reload(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    code = main([
        "gen", "--group", "Z6",
        "--spec", '{"kind": "coset_boxes", "params": {"subgroup_index": 3, "pairs": "diagonal"}}',
        "--out", str(path),
    ])
    assert code == 0
    code = main([
        "halfgraph", "count", "--group", "Z6", "--relation-file", str(path), "--k", "2",
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exact_count"] == 0


def test_gen_writes_to_output_as_to_out(tmp_path, capsys):
    spec = '{"kind": "coset_boxes", "params": {"subgroup_index": 3, "pairs": "diagonal"}}'
    assert main(["gen", "--group", "Z6", "--spec", spec]) == 0
    text = capsys.readouterr().out
    for flag in ("--out", "--output"):
        path = tmp_path / f"rel{flag}.txt"
        assert main(["gen", "--group", "Z6", "--spec", spec, flag, str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text() == text


def test_experiment_run_and_reproducibility(tmp_path):
    config = {
        "groups": ["Z3xZ3", "Z2xZ2xZ2xZ2"],
        "generator": {"kind": "coset_boxes",
                      "params": {"max_subgroup_index": 4, "pairs": "diagonal"}},
        "k": 2,
        "epsilon": "0.1",
        "max_index": 4,
        "census": ["square"],
        "seed": 7,
    }
    cfg = ExperimentConfig.from_json(config)
    report = run_experiment(cfg)
    assert report["row_errors"] == 0
    best = [row["best_subgroup"] for row in report["rows"]]
    assert best[0]["index"] == 3 and best[1]["index"] == 4
    assert all(b["missing_fraction"] == {"num": 0, "den": 1} for b in best)
    assert all(row["theta_k"] == {"num": 0, "den": 1} for row in report["rows"])
    again = run_experiment(cfg)
    strip = lambda rep: {k: v for k, v in rep.items() if k != "timing"}
    assert json.dumps(strip(report)) == json.dumps(strip(again))


def test_a_config_key_that_names_no_field_is_named_in_the_error():
    # the exit code and the one line are test_malformed_config_shapes_are_one_line_config_errors'
    obj = {"groups": ["Z4", "Z5"], "generator": {"kind": "linear_order"}, "k": 2, "sampels": 5, "thread": 3}
    with pytest.raises(ValueError, match="^unknown config keys 'sampels', 'thread'$"):
        ExperimentConfig.from_json(obj)


@pytest.mark.parametrize("argv, message", [
    (["gen", "--group", "Z9", "--spec", '{"kind": "linear_order", "parms": {"width": 2}}'],
     "unknown generator spec keys 'parms'"),
    (["gen", "--group", "Z9", "--spec", '{"params": {"width": 2}}'], "generator spec has no 'kind'"),
    (["gen", "--group", "Z9", "--spec",
      '{"kind": "perturbation", "params": {"base": {"knd": "linear_order"}, "eta": "1/9"}}'],
     "unknown generator spec keys 'knd'"),
    (["group", "info", "--group", '{"kind": "cyclic", "n": 4, "nn": 5}'], "unknown cyclic recipe keys 'nn'"),
    (["group", "info", "--group", '{"kind": "product", "factors": [{"kind": "dihedral", "n": 3, "p": 3}]}'],
     "unknown dihedral recipe keys 'p'"),
], ids=["spec-key", "spec-kind", "base-spec-key", "recipe-key", "factor-recipe-key"])
def test_a_spec_or_recipe_key_that_nothing_reads_is_named_in_the_error(argv, message):
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"config error: {message}\n")


@pytest.mark.parametrize("sweep", [run_experiment, run_family_trend])
def test_a_reports_config_block_read_back_reruns_the_report(sweep):
    """Every field the report echoes reads back as a config, so the echo
    fed back reproduces the report outside timing, sampled rows included."""
    config = ExperimentConfig.from_json({
        "groups": ["Z3", {"kind": "dihedral", "n": 3}, "Z2xZ4"],
        "generator": {"kind": "random_dense", "params": {"delta": "1/2", "seed": 5}},
        "k": 3, "epsilon": "0.3", "max_index": 3, "census": ["square", "lshape-right"],
        "samples": 300, "seed": 11, "confidence": 0.9, "exact_budget": 40, "output": "ignored.json",
    })
    report = sweep(config)
    assert {row["theta_method"] for row in report["rows"]} == {"exact", "sampled"}
    again = sweep(ExperimentConfig.from_json(json.loads(json.dumps(report["config"]))))
    strip = lambda rep: json.dumps({k: v for k, v in rep.items() if k != "timing"})
    assert strip(again) == strip(report)


def test_experiment_best_subgroup_is_first_covering_in_ascending_index():
    base = {"kind": "coset_boxes", "params": {"max_subgroup_index": 4, "pairs": "diagonal"}}
    generator = GeneratorSpec("perturbation", {"base": base, "eta": "1/20", "seed": 3})
    groups = ["Z2xZ2xZ2xZ2", "Z3xZ3", "Z12", "D4", "D6", "H3"]
    for epsilon in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
        cfg = ExperimentConfig(groups=groups, generator=generator, epsilon=epsilon,
                               max_index=4, census=["naive"])
        report = run_experiment(cfg)
        assert report["row_errors"] == 0
        for row in report["rows"]:
            group = parse_group_spec(row["group"])
            relation = instantiate_generator(generator, group, cfg.seed)
            expected = "NOT_FOUND"
            for sub in subgroups_up_to_index(group, 4):
                miss = sidelength_coverage(relation, sub).missing_fraction
                if miss < epsilon:
                    expected = {
                        "index": sub.index_in_parent,
                        "members": sub.member_indices(),
                        "missing_fraction": {"num": miss.numerator, "den": miss.denominator},
                    }
                    break
            assert row["best_subgroup"] == expected, row["group"]


def test_experiment_not_found_and_full():
    z4 = "Z4"
    empty_cfg = ExperimentConfig(
        groups=[z4],
        generator=GeneratorSpec("random_dense", {"delta": 0, "seed": 1}),
        epsilon=Fraction(1, 10),
        max_index=4,
    )
    report = run_experiment(empty_cfg)
    assert report["rows"][0]["best_subgroup"] == "NOT_FOUND"
    full_cfg = ExperimentConfig(
        groups=[z4],
        generator=GeneratorSpec("random_dense", {"delta": 1, "seed": 1}),
        epsilon=Fraction(1, 10),
        max_index=4,
    )
    report = run_experiment(full_cfg)
    assert report["rows"][0]["best_subgroup"]["index"] == 1
    assert report["rows"][0]["best_subgroup"]["missing_fraction"] == {"num": 0, "den": 1}


def test_experiment_row_error_recorded_not_fatal():
    cfg = ExperimentConfig(
        groups=["Z5", "Z6"],
        generator=GeneratorSpec("coset_boxes", {"subgroup_index": 2, "pairs": "diagonal"}),
    )
    # Z5 has no index-2 subgroup: that row fails, the Z6 row still runs
    report = run_experiment(cfg)
    assert report["row_errors"] == 1
    assert report["rows"][0]["error"]["type"] == "ValueError"
    assert report["rows"][1]["error"] is None
    # L-shapes need an abelian group: a property of the row's group, not of the config
    cfg = ExperimentConfig(groups=["Z4", "D3"], generator=GeneratorSpec("linear_order", {}),
                           census=["lshape"])
    report = run_experiment(cfg)
    assert report["row_errors"] == 1
    assert report["rows"][1]["error"] == {
        "type": "NonAbelianGroup", "message": "L-shapes are defined over abelian groups",
    }
    # a row's kinds run in one census pass, checked in config order first:
    # L-shapes named after kinds D6 admits still give the same row error
    cfg = ExperimentConfig(groups=["Z6", "D6"], generator=GeneratorSpec("linear_order", {}),
                           census=["square", "naive", "bmz-left", "lshape"])
    for run in (run_experiment, run_family_trend):
        report = run(cfg)
        assert report["row_errors"] == 1 and report["rows"][0]["error"] is None
        assert report["rows"][1] == {"group": "D6", "error": {
            "type": "NonAbelianGroup", "message": "L-shapes are defined over abelian groups",
        }}


def test_family_trend_linear_order_decay():
    cfg = ExperimentConfig(
        groups=["Z9", "Z16", "Z25"],
        generator=GeneratorSpec("linear_order", {"width": "isqrt"}),
        k=2,
        census=["square"],
    )
    report = run_family_trend(cfg)
    assert report["row_errors"] == 0
    thetas = [Fraction(r["theta_k"]["num"], r["theta_k"]["den"]) for r in report["rows"]]
    counts = [r["halfgraph_count"] for r in report["rows"]]
    assert counts[0] == 5
    assert all(c > 0 for c in counts)
    assert thetas[0] > thetas[1] > thetas[2]
    for entry in report["timing"]:
        assert set(entry["stages"]) == {"build", "halfgraph", "census"}
        assert sum(entry["stages"].values()) <= entry["total_s"]


EXAMPLES = Path(__file__).parents[1] / "examples"


@pytest.mark.parametrize("name", sorted(path.name for path in EXAMPLES.glob("*.json")))
def test_every_example_config_and_its_relation_files_load(tmp_path, name):
    """Each checked-in config reads with every group it names, and the
    relation file `gen` writes for each member of order <= 64 loads back
    as the relation the config's generator builds."""
    config = json.loads((EXAMPLES / name).read_text())
    cfg = ExperimentConfig.from_json(config)
    for spec in cfg.groups:
        group = parse_group_spec(spec)
        if group.order > 64:
            continue
        path = tmp_path / f"{group.name}.rel"
        assert main(["gen", "--group", spec, "--spec", json.dumps(config["generator"]),
                     "--seed", str(cfg.seed), "--output", str(path)]) == 0
        rel = groupstab.load_relation(path, parse_group_spec(spec))
        assert rel.rows == instantiate_generator(cfg.generator, group, cfg.seed).rows


# sha256 of each example's report, as written with its "timing" key removed.
REPORT_DIGESTS = {
    ("asymptotic_trend.json", "run"): "ae47db70a5cb81484f35d9a44627bc895901893e94f4c05724bdd303b71189fa",
    ("asymptotic_trend.json", "trend"): "8e60efb94ed79a9ddf5efa34d95c86c3089a78ec5cf6948c5cd25c99dbd4b689",
    ("asymptotic_unstable.json", "run"): "47456a746a159779ecd9b99eac95872fa891dc4475a8d6c2c505cb864bb4a6c8",
    ("asymptotic_unstable.json", "trend"): "c15cc938eba2b378ae8b32dffaf48f8ef18fd2038f135cf8a2a6fef62d8090e3",
    ("nonabelian_trend.json", "run"): "cb87b38cc71c3692b5903914221f877445b33a647eead01cf21e689c41f23e17",
    ("nonabelian_trend.json", "trend"): "2dd9295823b176d3201104a6caf11dfd140f019ed73a7c7124deec47f6315c32",
}


def test_the_example_reports_are_byte_identical_outside_timing(tmp_path):
    """`experiment run` and `trend` on every checked-in example write the
    same bytes as when the digests were recorded, once the "timing" key is
    removed: a change that should leave every result alone must pass this
    as it stands. A change that alters the report on purpose (a new field,
    a new number format, a different result) records the new digests: run
    `python -m pytest tests/test_cli.py -k byte_identical -vv`, check that
    the reports differ only as intended, and copy the digests the failure
    prints into REPORT_DIGESTS."""
    digests = {}
    for name, mode in REPORT_DIGESTS:
        out = tmp_path / f"{name}.{mode}"
        assert main(["experiment", mode, "--config", str(EXAMPLES / name), "--output", str(out)]) == 0
        text = out.read_text()
        report = json.loads(text)
        assert json.dumps(report, indent=2) + "\n" == text  # so the text below is the report as written
        del report["timing"]
        digests[name, mode] = hashlib.sha256((json.dumps(report, indent=2) + "\n").encode()).hexdigest()
    assert digests == REPORT_DIGESTS


def test_nonabelian_example_family_matches_the_oracles(tmp_path):
    """The checked-in non-abelian trend: every census density is the brute-force
    total over |G|³, on D5, D6 and H3, where the census rotates digits and
    negates the low digit, and on Z2xD3, where it moves columns."""
    config_path = EXAMPLES / "nonabelian_trend.json"
    out = tmp_path / "trend.json"
    assert main(["experiment", "trend", "--config", str(config_path), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    config = json.loads(config_path.read_text())
    spec = GeneratorSpec.from_json(config["generator"])
    assert [row["group"] for row in report["rows"]] == config["groups"] == ["D5", "D6", "H3", "Z2xD3"]
    oracle_of = {
        "square": (oracles.brute_square_counts, ()),
        "lshape-right": (oracles.brute_lshape_right_counts, ()),
        "rect23": (oracles.brute_rect23_counts, ()),
        "bmz-left": (oracles.brute_corner_counts, ("bmz_left",)),
    }
    assert set(config["census"]) == set(oracle_of)
    for row in report["rows"]:
        group = parse_group_spec(row["group"])
        assert not group.is_abelian
        relation = instantiate_generator(spec, group, config["seed"])
        for kind, (oracle, args) in oracle_of.items():
            density = row["census_density"][kind]
            assert Fraction(density["num"], density["den"]) == Fraction(
                sum(oracle(relation, *args)), group.order**3
            )


def _trend_small_members(config_name, tmp_path):
    """Run an asymptotic example on its members of order <= 64, check every
    census density against the brute-force total over |G|³, and return the
    report's rows. The larger members (up to H7, order 343) run only in the
    example."""
    config = json.loads((EXAMPLES / config_name).read_text())
    assert config["census"] == ["square", "lshape-right"]
    orders = {name: parse_group_spec(name).order for name in config["groups"]}
    assert max(orders.values()) == 343
    small = [name for name in config["groups"] if orders[name] <= 64]
    assert small == ["Z27", "D9", "H3", "D25"]
    config_path = tmp_path / "small.json"
    config_path.write_text(json.dumps(dict(config, groups=small)))
    out = tmp_path / "trend.json"
    assert main(["experiment", "trend", "--config", str(config_path), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    spec = GeneratorSpec.from_json(config["generator"])
    oracle_of = {"square": oracles.brute_square_counts, "lshape-right": oracles.brute_lshape_right_counts}
    for row in report["rows"]:
        group = parse_group_spec(row["group"])
        relation = instantiate_generator(spec, group, config["seed"])
        for kind, oracle in oracle_of.items():
            density = row["census_density"][kind]
            assert Fraction(density["num"], density["den"]) == Fraction(
                sum(oracle(relation)), group.order**3
            )
    return report["rows"]


def test_asymptotic_example_family_matches_the_oracles(tmp_path):
    """The checked-in asymptotic trend of stable coset boxes."""
    _trend_small_members("asymptotic_trend.json", tmp_path)


def test_unstable_asymptotic_example_matches_the_oracles(tmp_path):
    """The unstable counterpart over the same groups: a seeded random_dense
    relation of density 1/2, with half-graphs of height 2 on every member."""
    stable = json.loads((EXAMPLES / "asymptotic_trend.json").read_text())
    config = json.loads((EXAMPLES / "asymptotic_unstable.json").read_text())
    assert config["groups"] == stable["groups"] and config["k"] == 2
    assert config["generator"]["kind"] == "random_dense"
    rows = _trend_small_members("asymptotic_unstable.json", tmp_path)
    assert all(row["halfgraph_count"] > 0 for row in rows)


def test_family_trend_needs_two_groups():
    cfg = ExperimentConfig(groups=["Z9"], generator=GeneratorSpec("linear_order", {"width": 3}))
    with pytest.raises(ValueError):
        run_family_trend(cfg)


def test_cli_exit_codes(tmp_path):
    # config error: malformed config file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("experiment", "run", "--config", str(bad))
    assert proc.returncode == 1
    # row error: L-shapes need an abelian group
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "groups": ["D3"],
        "generator": {"kind": "random_dense", "params": {"delta": 0.5, "seed": 0}},
        "census": ["lshape"],
    }))
    proc = run_cli("experiment", "run", "--config", str(cfg))
    assert proc.returncode == 2
    # toolkit error in a single command: 64·63·62·61 a-tuples of distinct rows
    # exceed the exact budget
    proc = run_cli(
        "halfgraph", "count", "--group", "Z64",
        "--gen", '{"kind": "random_dense", "params": {"delta": 0.5, "seed": 1}}', "--k", "4",
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: operation needs 15249024 a-tuples")
    # success
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({
        "groups": ["Z4", "Z6"],
        "generator": {"kind": "coset_boxes", "params": {"max_subgroup_index": 2, "pairs": "diagonal"}},
        "k": 2,
    }))
    proc = run_cli("experiment", "run", "--config", str(ok), "--output", str(tmp_path / "r.json"))
    assert proc.returncode == 0
    assert (tmp_path / "r.json").exists()


@pytest.mark.parametrize("exc, line", [
    (RuntimeError("table went missing"), "error: RuntimeError: table went missing\n"),
    (MemoryError(), "error: MemoryError\n"),
])
def test_unexpected_errors_are_one_line_exit_2(monkeypatch, capsys, exc, line):
    def failing(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_group_info", failing)
    assert main(["group", "info", "--group", "Z4"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line)


# One call of each outcome main can give: success, bad usage, help, version
# and an unknown command, with its exit code, the stream it writes to and
# how that text starts; the other stream stays empty.
OUTCOMES = [
    (["group", "info", "--group", "Z4"], 0, "out", "{"),
    (["subgroups", "--group", "Z4", "--max-index", "two"], 1, "err", "usage: groupstab subgroups"),
    (["--help"], 0, "out", "usage: groupstab"),
    (["--version"], 0, "out", groupstab.__version__ + "\n"),
    (["wat"], 1, "err", "usage: groupstab"),
]


def _outcome(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv, code, stream, start", OUTCOMES)
def test_main_builds_its_parser_once(monkeypatch, capsys, argv, code, stream, start):
    """After its first call main parses with the parser it built then, and
    each outcome is the one a freshly built parser gives."""
    cli._parser.cache_clear()
    fresh = _outcome(argv, capsys)
    texts = {"out": fresh[1], "err": fresh[2]}
    assert fresh[0] == code
    assert texts.pop(stream).startswith(start)
    assert texts.popitem()[1] == ""
    for other, *_ in OUTCOMES:
        main(other)
    capsys.readouterr()

    def rebuild():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    assert _outcome(argv, capsys) == fresh


def test_a_handler_replaced_after_the_first_call_is_the_one_that_runs(monkeypatch, capsys):
    assert main(["group", "info", "--group", "Z4"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "_cmd_group_info", lambda args: 7)
    assert main(["group", "info", "--group", "Z4"]) == 7
    assert capsys.readouterr() == ("", "")


def test_build_parser_returns_a_new_tree_whose_handlers_are_cli_functions():
    assert build_parser() is not build_parser()
    for words, parser in _leaf_commands(build_parser()):
        assert callable(getattr(cli, parser.get_default("handler"))), words


LINEAR = '"generator": {"kind": "linear_order"}'


@pytest.mark.parametrize(
    "argv, config",
    [
        (["halfgraph", "count", "--group", "Z4", "--gen", "[1]"], None),
        (["experiment", "run"], "[1]"),
        (["experiment", "run"], '{"groups": 5, "generator": {"kind": "linear_order"}}'),
        (["experiment", "run"], '{"groups": ["Z4"], "k": [1], %s}' % LINEAR),
        (["experiment", "run"], '{"groups": ["Z4"], "epsilon": [1], %s}' % LINEAR),
        (["experiment", "run"], '{"groups": ["Z4"], "epsilon": "1/0", %s}' % LINEAR),
        (["experiment", "run"], '{"groups": ["Z4"], "confidence": {}, %s}' % LINEAR),
        (["experiment", "run"], '{"groups": ["Z4"], "output": [1], %s}' % LINEAR),
        (["halfgraph", "count", "--group", "Z4",
          "--gen", '{"kind": "random_dense", "params": {"delta": [1]}}'], None),
        (["halfgraph", "count", "--group", "Z4",
          "--gen", '{"kind": "linear_order", "params": {"width": [2]}}'], None),
        (["halfgraph", "count", "--group", "Z4", "--relation-file"],
         "-1 1 4 %s\n1\n" % cyclic(4).recipe_hash()),
        (["group", "info", "--group", '{"kind": "cyclic", "n": [1]}'], None),
        (["group", "info", "--group", '{"kind": "cayley_table", "table": 5}'], None),
        (["group", "info", "--group", '{"kind": "product", "factors": 5}'], None),
        (["group", "info", "--group", '{"kind": "cayley_table", "table": [[[0]]]}'], None),
        (["group", "info", "--group",
          '{"kind": "product", "factors": [{"kind": "cayley_table", "table": [[0]], "name": 5}]}'],
         None),
        (["experiment", "run"], '{"groups": ["Z4", "D3"], "census": ["cube"], %s}' % LINEAR),
        (["experiment", "run"], '{"groups": ["Z4", "D3"], "census": [5], %s}' % LINEAR),
        (["group", "info", "--group", '{"kind": "cayley_table", "table": ["01", "10"]}'], None),
        (["experiment", "run"], '{"groups": ["Z4"], "samples": 0, %s}' % LINEAR),
        (["experiment", "run"], '{"groups": ["Z4"], "confidence": 1.5, %s}' % LINEAR),
        (["experiment", "run"], '{"groups": ["Z4"], "confidence": 0, %s}' % LINEAR),
        (["patterns", "census", "--group", "Z4", "--gen", '{"kind": "linear_order"}',
          "--kind", "square", "--witnesses", "-1"], None),
        # every height is exact here, and the sampling options are still checked
        (["halfgraph", "profile", "--group", "Z9", "--gen",
          '{"kind": "linear_order", "params": {"width": 3}}', "--k-max", "2",
          "--samples", "0", "--confidence", "1.5"], None),
        # a command-line override passes the same checks as the file's value
        (["experiment", "run", "--budget", "-1"], '{"groups": ["Z4"], %s}' % LINEAR),
        # a negative budget is refused before any work, whatever it caps
        (["subgroups", "--group", "Z6", "--max-index", "4", "--budget", "-1"], None),
        (["halfgraph", "count", "--group", "Z6", "--gen", '{"kind": "linear_order"}',
          "--k", "2", "--budget", "-5"], None),
        (["experiment", "run"], '{"groups": ["Z4"], "exact_budget": -1, %s}' % LINEAR),
        (["gen", "--group", "Z12", "--spec", '{"kind": "sidon_cayley", "params": {"budget": -1}}'],
         None),
        # a JSON boolean is not a number
        (["experiment", "run"], '{"groups": ["Z4"], "k": true, %s}' % LINEAR),
        (["experiment", "run"], '{"groups": ["Z4"], "max_index": true, %s}' % LINEAR),
        (["experiment", "run"], '{"groups": ["Z4"], "epsilon": true, %s}' % LINEAR),
        (["experiment", "run"], '{"groups": ["Z4"], "epsilon": {"num": true, "den": 2}, %s}' % LINEAR),
        (["experiment", "run"], '{"groups": ["Z4"], "samples": true, %s}' % LINEAR),
        (["experiment", "run"], '{"groups": ["Z4"], "seed": false, %s}' % LINEAR),
        (["halfgraph", "count", "--group", "Z4",
          "--gen", '{"kind": "linear_order", "params": {"width": true}}'], None),
        (["halfgraph", "count", "--group", "Z4",
          "--gen", '{"kind": "random_dense", "params": {"delta": true}}'], None),
        (["group", "info", "--group", '{"kind": "cayley_table", "table": [[0, true], [true, 0]]}'],
         None),
        (["group", "info", "--group", '{"kind": "cyclic", "n": true}'], None),
        # an integer field refuses a number with a fractional part, coset indices included
        (["experiment", "run"], '{"groups": ["Z4"], "k": 2.9, %s}' % LINEAR),
        (["group", "info", "--group", '{"kind": "cyclic", "n": 6.9}'], None),
        (["gen", "--group", "Z4", "--spec",
          '{"kind": "coset_boxes", "params": {"subgroup_index": 2, "pairs": [[1.9, 0]]}}'], None),
        (["gen", "--group", "Z4", "--spec",
          '{"kind": "coset_boxes", "params": {"subgroup_index": 2, "pairs": [[true, false]]}}'], None),
        # a key that names no config field, and a param that the generator kind does not read
        (["experiment", "run"], '{"groups": ["Z4"], "threads": 1, %s}' % LINEAR),
        (["experiment", "run"], '{"groups": ["Z4", "Z5"], %s, "k": 2, "sampels": 5, "thread": 3}' % LINEAR),
        (["gen", "--group", "Z9", "--spec", '{"kind": "linear_order", "params": {"widht": 2}}'], None),
        # a coset pair is a two-element list, never a string read digit by digit
        (["gen", "--group", "Z4", "--spec",
          '{"kind": "coset_boxes", "params": {"subgroup_index": 2, "pairs": ["10"]}}'], None),
        # a spec or recipe key that nothing reads, and a spec with no kind
        (["gen", "--group", "Z9", "--spec", '{"kind": "linear_order", "parms": {"width": 2}}'], None),
        (["gen", "--group", "Z9", "--spec", '{"params": {"width": 2}}'], None),
        (["group", "info", "--group", '{"kind": "cyclic", "n": 4, "nn": 5}'], None),
    ],
)
def test_malformed_config_shapes_are_one_line_config_errors(tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config)
        argv = [*argv, str(path)] if argv[-1] == "--relation-file" else [*argv, "--config", str(path)]
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error:")
    assert len(proc.stderr.splitlines()) == 1


README = Path(__file__).parents[1] / "README.md"


def _readme_block(heading: str, fence: str) -> str:
    """The text of the first `fence` code block after `heading` in README."""
    text = README.read_text()
    start = text.index(fence, text.index(heading)) + len(fence)
    return text[start:text.index("```", start)]


def test_every_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    """Each `groupstab ...` line of README's command-line block exits 0, with
    README's example config saved under the names those lines read."""
    config = _readme_block("An experiment config is a single JSON file:", "```json\n")
    for name in ("experiment.json", "trend.json"):
        (tmp_path / name).write_text(config)
    monkeypatch.chdir(tmp_path)
    lines = _readme_block("## Command line", "```sh\n").replace("\\\n", " ").splitlines()
    assert lines
    for line in lines:
        words = shlex.split(line)
        assert words[0] == "groupstab", line
        assert main(words[1:]) == 0, line
        capsys.readouterr()


def test_readme_option_table_lists_exactly_the_parsers_options():
    """Each row of README's `| command | options |` table names exactly the
    flags build_parser gives its commands, with "relation inputs" read as
    the flags of the sentence that defines them."""
    text = README.read_text()
    flag = re.compile(r"--[a-z][a-z-]*")
    start = text.index("| command | options |")
    relation_inputs = set(flag.findall(text[text.index("The *relation inputs* are"):start]))
    assert relation_inputs == {"--group", "--gen", "--seed", "--relation-file", "--output"}
    parsers = {" ".join(words): parser for words, parser in _leaf_commands(build_parser())}
    listed = set()
    for row in text[start:text.index("\n\n", start)].splitlines()[2:]:
        commands, options = row.strip("|").split("|")
        flags = set(flag.findall(options)) | (relation_inputs if "relation inputs" in options else set())
        for command in re.findall(r"`([^`]+)`", commands):
            taken = {s for a in parsers[command]._actions for s in a.option_strings} - {"-h", "--help"}
            assert flags == taken, command
            listed.add(command)
    assert listed == set(parsers)


def test_cli_version_and_bad_usage():
    assert run_cli("--version").returncode == 0
    assert run_cli("wat").returncode == 1


def test_python_dash_m_groupstab_runs_without_warnings():
    proc = run_cli("--version", python=("-W", "error", "-m", "groupstab"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, groupstab.__version__ + "\n", "")


@pytest.mark.parametrize("field, value", [("k", True), ("k", 1.5), ("max_index", 2.5), ("max_index", True)],
                         ids=repr)
def test_a_directly_built_config_refuses_a_count_that_is_not_an_int(field, value):
    """k=True was kept as True, and k=1.5 or max_index=2.5 failed only in
    every row of the sweep."""
    with pytest.raises(ValueError, match=f"^{field} must be an int, got {re.escape(repr(value))}$"):
        ExperimentConfig(["Z4"], GeneratorSpec("linear_order", {}), **{field: value})


def test_a_directly_built_config_reads_epsilon_as_from_json_does():
    """epsilon=0.1 crashed the report's config echo with an AttributeError,
    outside the sweep's error rows; it is read as 1/10, as from_json reads it."""
    spec = GeneratorSpec("linear_order", {})
    config = ExperimentConfig(["Z4"], spec, epsilon=0.1)
    assert config.epsilon == Fraction(1, 10)
    assert config == ExperimentConfig.from_json({"groups": ["Z4"], "generator": spec.to_json(), "epsilon": 0.1})
    report = run_experiment(config)
    assert report["row_errors"] == 0 and report["config"]["epsilon"] == {"num": 1, "den": 10}
    for value in (True, "x"):
        with pytest.raises(ValueError, match=f"^cannot read epsilon from {re.escape(repr(value))}$"):
            ExperimentConfig(["Z4"], spec, epsilon=value)
