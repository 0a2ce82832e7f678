"""cli: subcommands, experiment harness, reproducibility, exit codes."""

import json
import os
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
    sidelength_coverage,
    subgroups_up_to_index,
)
from groupstab.cli import main, parse_group_spec


def run_cli(*args):
    # The child imports the same groupstab as this process, installed or not.
    src = str(Path(groupstab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "from groupstab.cli import main; raise SystemExit(main())", *args],
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


def test_patterns_ap_cli(capsys):
    code = main([
        "patterns", "census", "--group", "Z10", "--kind", "ap",
        "--set", "0,1,2,3", "--m", "3", "--h", "1",
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["members"] == [0, 1] and out["count"] == 2


@pytest.mark.parametrize(
    "group, members, h",
    [("D4", "0,1", "20"), ("Z4", "0,9", "1")],
)
def test_patterns_ap_cli_rejects_elements_outside_the_group(group, members, h):
    proc = run_cli(
        "patterns", "census", "--group", group, "--kind", "ap", "--set", members, "--h", h,
    )
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
    # row error: budget too small for exact counting and sampling disabled
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "groups": ["Z5"],
        "generator": {"kind": "random_dense", "params": {"delta": 0.5, "seed": 0}},
        "k": 3,
        "exact_budget": 10,
        "samples": 0,
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


def test_cli_version_and_bad_usage():
    assert run_cli("--version").returncode == 0
    assert run_cli("wat").returncode == 1
