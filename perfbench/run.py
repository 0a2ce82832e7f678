"""Benchmark entry point for groupstab.

    python3 perfbench/run.py --workload {sweep,census,stability} --seed N \
        --seconds S --trace {0,1}

Runs from source: the package under src/ of the checkout this file sits in
is put on PYTHONPATH, nothing is installed. Each process is single-threaded
and started fresh. With --trace 0 it starts SETUP_RUNS - 1 processes that
only set up, then one that sets up and times whole rounds of the workload
for about S seconds; it prints the end-to-end metrics, setup_s being the
median over all SETUP_RUNS set-ups. With --trace 1 it starts one process
that alternates untraced and traced rounds and prints the per-layer metrics.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "exact_results": "count",
}
PER_LAYER = {
    "groups.self_s": "s",
    "groups.subgroup_searches": "count",
    "groups.closures": "count",
    "genlab.self_s": "s",
    "relations.self_s": "s",
    "relations.coordinate_actions": "count",
    "bits.permutes": "count",
    "bits.permuted_bits": "count",
    "patterns.self_s": "s",
    "patterns.censuses": "count",
    "patterns.row_pairs": "count",
    "patterns.coverage_calls": "count",
    "patterns.coverage_calls_per_hit": "ratio",
    "halfgraph.self_s": "s",
    "halfgraph.exact_calls": "count",
    "halfgraph.sampled_calls": "count",
    "halfgraph.samples_drawn": "count",
    "halfgraph.budget_refusals": "count",
    "halfgraph.tuples_charged": "count",
    "halfgraph.tuples_possible": "count",
    "boxcover.self_s": "s",
    "boxcover.covers": "count",
    "boxcover.boxes": "count",
    "cli.self_s": "s",
    "cli.rows": "count",
    "trace.overhead_s": "s",
}


def spawn(args, mode: str, started: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    out = HERE / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--mode", mode, "--out", str(out),
    ]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned", repr(spawned)], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker --mode {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="groupstab benchmark")
    parser.add_argument("--workload", required=True, choices=("sweep", "census", "stability"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "groupstab" / "__init__.py").is_file():
        print(f"no groupstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    try:
        setups = [] if args.trace else [
            spawn(args, "setup", started)["setup_s"] for _ in range(SETUP_RUNS - 1)
        ]
        result = spawn(args, "run", started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    measured = dict(result["metrics"])
    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        measured["setup_s"] = statistics.median(setups + [result["setup_s"]])
    print(f"{args.workload}: {result['rounds']} rounds, uncalibrated wall "
          f"{result['raw_wall_s']:.4f} s", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
