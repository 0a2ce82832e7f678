"""Tests of the benchmark itself: its checks reject wrong answers, seeds move
the inputs but not the metric names, and the tracer accounts time sanely.

    PYTHONPATH=src python3 perfbench/selftest.py

The file is not named test_*.py, so the package's pytest run does not pick
it up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import groupstab as gs  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT = HERE / "out" / "selftest"


def setUpModule():
    OUT.mkdir(parents=True, exist_ok=True)


def _dense(name: str, seed: int):
    group = gs.cyclic(int(name[1:])) if name.startswith("Z") else gs.dihedral(int(name[1:]))
    full = gs.CarrierSet.full(group, 1)
    return gs.random_dense(full, full, Fraction(1, 2), seed)


class ChecksRejectWrongAnswers(unittest.TestCase):
    def test_census_count_off_by_one(self):
        for name, kind in (("Z12", "square"), ("D6", "rect23"), ("Z10", "lshape"), ("D5", "bmz_left")):
            rel = _dense(name, 3)
            census = workloads._census_call(kind, rel)
            sides = [1, 2, 5]
            self.assertIsNone(workloads._check_census(name, kind, rel.rows, sides, census))
            counts = list(census.count_by_sidelength)
            counts[2] += 1
            wrong = dataclasses.replace(census, count_by_sidelength=counts,
                                        total_count=census.total_count + 1,
                                        nontrivial_count=census.nontrivial_count + 1)
            self.assertIsNotNone(workloads._check_census(name, kind, rel.rows, sides, wrong))
            wrong = dataclasses.replace(census, total_count=census.total_count + 1)
            self.assertIsNotNone(workloads._check_census(name, kind, rel.rows, sides, wrong))

    def test_wrong_theta_or_count(self):
        rel = gs.linear_order_relation(gs.cyclic(20), 12)
        report = gs.count_halfgraphs_exact(rel, 3)
        expected = ref.linear_order_count(12, 3)
        self.assertIsNone(workloads._check_exact(report, rel, 3, expected))
        off = dataclasses.replace(report, exact_count=report.exact_count + 1)
        self.assertIsNotNone(workloads._check_exact(off, rel, 3, expected))
        off = dataclasses.replace(report, theta_group=report.theta_group * 2)
        self.assertIsNotNone(workloads._check_exact(off, rel, 3, expected))

    def test_interval_missing_the_exact_value(self):
        rel = gs.linear_order_relation(gs.cyclic(20), 12)
        report = gs.sample_halfgraphs(rel, 2, workloads.SAMPLES, 5, workloads.CONFIDENCE)
        expected = ref.linear_order_count(12, 2)
        self.assertIsNone(workloads._check_sampled(report, rel, 2, expected))
        lo, hi = report.confidence_interval
        moved = dataclasses.replace(report, confidence_interval=(hi, 2 * hi), estimate=hi)
        self.assertIsNotNone(workloads._check_sampled(moved, rel, 2, expected))

    def test_cover_errors_recounted(self):
        group = gs.cyclic(12)
        sub = gs.subgroup(group, [0, 4, 8])
        rel = gs.coset_box_set(group, sub, [(0, 1), (2, 2)])
        cover_op, error_op, stability_op = workloads._cover_ops("t", rel, 1, 8)
        cover = cover_op.run({})
        outputs = {cover_op.name: cover}
        self.assertEqual(cover_op.check(cover, outputs), [None])
        errors = error_op.run(outputs)
        self.assertEqual(error_op.check(errors, outputs), [None])
        self.assertEqual(stability_op.check(stability_op.run(outputs), outputs), [None])
        wrong = dataclasses.replace(cover, symdiff_error=cover.symdiff_error + Fraction(1, 144))
        self.assertNotEqual(cover_op.check(wrong, outputs), [None])
        self.assertNotEqual(error_op.check((errors[0] + 1, *errors[1:]), outputs), [None])
        self.assertNotEqual(stability_op.check((len(cover.boxes), 1), outputs), [None])

    def test_sweep_report_row(self):
        family = ["Z2xZ2xZ2xZ2", "D6"]
        saved = workloads.SWEEP_FAMILY
        workloads.SWEEP_FAMILY = family
        try:
            load = workloads.sweep(1, OUT)
            run_op = load.ops[0]
            out = run_op.run({})
            self.assertEqual(run_op.check(out, {}), [None, None])
            report = json.loads(out[1])
            report["rows"][1]["census"]["square"]["total"] += 1
            report["rows"][0]["best_subgroup"]["members"] = [0, 1]
            verdicts = run_op.check((out[0], json.dumps(report)), {})
            self.assertTrue(all(v is not None for v in verdicts))
        finally:
            workloads.SWEEP_FAMILY = saved

    def test_changed_output_in_a_later_round(self):
        op = workloads.Op("count", lambda _: None, lambda out, _: [None], lambda out: [1])
        checker = worker.Checker(workloads.Workload([op]))
        self.assertEqual(checker.account({"count": 3}), 1)
        self.assertTrue(checker.correct)
        checker.account({"count": 4})
        self.assertFalse(checker.correct)
        self.assertEqual((checker.attempted, checker.failed), (2, 1))


class SeedsAndNames(unittest.TestCase):
    def test_seed_changes_inputs_not_operations(self):
        for name, setup in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                a, b = setup(1, OUT), setup(2, OUT)
                self.assertNotEqual(a.inputs, b.inputs)
                self.assertEqual(a.inputs, setup(1, OUT).inputs)
                self.assertEqual([op.name for op in a.ops], [op.name for op in b.ops])
                self.assertEqual(sum(op.units for op in a.ops), sum(op.units for op in b.ops))

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], sorted(workloads.WORKLOADS,
                         key=["sweep", "census", "stability"].index))

    def test_worker_emits_every_metric(self):
        group = gs.cyclic(8)
        rel = gs.cayley_graph(group, 0b00010001)
        sub = gs.subgroups_up_to_index(group, 2)[-1]
        ops = [
            workloads.Op("square", lambda _: gs.square_census(rel),
                         lambda out, _: [None], lambda out: [1]),
            workloads.Op("coverage", lambda _: gs.sidelength_coverage(rel, sub),
                         lambda out, _: [None], lambda out: [1]),
            workloads.Op("count", lambda _: gs.count_halfgraphs_exact(rel, 2),
                         lambda out, _: [None], lambda out: [1]),
        ]
        for seed in (1, 2):
            workloads.WORKLOADS["tiny"] = lambda s, out: workloads.Workload(ops, Fraction(1, 10))
            try:
                for trace, names in ((0, set(run.END_TO_END) - {"setup_s"}), (1, set(run.PER_LAYER))):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        worker.main(["--workload", "tiny", "--seed", str(seed), "--seconds", "0",
                                     "--trace", str(trace), "--mode", "run", "--spawned", "0",
                                     "--out", str(OUT)])
                    result = json.loads(buf.getvalue().splitlines()[-1])
                    self.assertEqual(set(result["metrics"]), names)
                    self.assertTrue(result["correct"])
            finally:
                del workloads.WORKLOADS["tiny"]

    def test_refuses_to_run_without_sources(self):
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        shutil.rmtree(bare)


class TracerAccounting(unittest.TestCase):
    def test_self_times_and_restore(self):
        original = gs.square_census
        rel = _dense("Z16", 1)
        tracer = Tracer()
        tracer.install()
        tracer.begin_round()
        try:
            self.assertIsNot(gs.square_census, original)
            gs.square_census(rel)
            gs.theta_profile(rel, 2)
        finally:
            tracer.uninstall()
        layers = tracer.end_round()
        self.assertIs(gs.square_census, original)
        self.assertEqual(layers["patterns.censuses"], 1)
        self.assertEqual(layers["patterns.row_pairs"], 16 * 16)
        self.assertEqual(layers["halfgraph.exact_calls"], 2)
        self.assertEqual(layers["relations.coordinate_actions"], 32)
        self.assertGreater(layers["bits.permutes"], 0)
        top = sum(end - start for _, start, end, parent in tracer.spans if parent == -1) / 1e9
        total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(total, top, places=6)


class ReferenceArithmetic(unittest.TestCase):
    def test_groups_satisfy_the_axioms(self):
        for name in ("Z6", "Z2xZ3", "D4", "D5", "H3", "Z2xD3"):
            g = ref.ref_group(name)
            elems = range(g.order)
            self.assertTrue(all(g.mul(0, a) == a == g.mul(a, 0) for a in elems))
            self.assertTrue(all(g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
                                for a in elems for b in elems for c in elems))
        d4 = ref.ref_group("D4")
        self.assertNotEqual(d4.mul(1, 4), d4.mul(4, 1))

    def test_closed_forms(self):
        self.assertEqual(ref.gaussian_binomial(4, 2, 2), 35)
        self.assertEqual(ref.linear_order_count(100, 3), 1429840335)
        self.assertTrue(ref.is_sidon(31, [0, 1, 3, 7, 12]))
        self.assertFalse(ref.is_sidon(6, [0, 1, 3]))


if __name__ == "__main__":
    unittest.main()
