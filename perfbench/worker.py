"""One benchmark process: set up a workload, then time whole rounds of it.

Started by run.py with PYTHONPATH pointing at the checkout's src/. With
--mode setup it stops once the inputs are ready and reports setup_s only.
With --mode run it repeats the workload's operations in rounds for about
--seconds, checks every output, and prints one JSON line with the figures
of a typical round. With --trace 1 it alternates untraced and traced rounds and reports
the per-layer figures of the traced ones.
"""

from __future__ import annotations

import argparse
import bisect
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer


class SpeedSampler:
    """Samples the machine's current speed while the operations run.

    On a host whose CPUs are shared with other tenants, speed drifts by
    10-20% within seconds, and CPU time drifts with it. A SIGALRM timer runs a fixed probe every
    INTERVAL_S. The probe has the shapes of groupstab's kernels (a recursion
    over AND-ed big-int row prefixes with popcounts, and a chain of Python
    calls) but runs none of its code. An operation's time, less the probes
    that ran inside it, is scaled by REFERENCE_S over the mean probe time
    within WINDOW_S of the operation: the result is seconds at the reference
    speed.
    """

    INTERVAL_S = 0.03
    WINDOW_S = 0.1
    REFERENCE_S = 0.0004

    def __init__(self):
        rng = random.Random(0)
        self._rows = [rng.getrandbits(128) for _ in range(40)]
        self.starts: list[float] = []
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self._previous = None

    def _prefixes(self, depth: int, prefix: int) -> int:
        acc = 0
        for row in self._rows:
            p = prefix & row
            if p:
                acc += self._prefixes(depth + 1, p) if depth < 2 else (p & ~row).bit_count()
        return acc

    def _chain(self, n: int) -> int:
        return n if n < 2 else self._chain(n - 1) + 1

    def probe(self) -> None:
        self._prefixes(1, (1 << 128) - 1)
        for _ in range(15):
            self._chain(40)

    def speed_scale(self, probes: int = 30) -> float:
        """REFERENCE_S over the median time of a few probes run now."""
        times = []
        for _ in range(probes):
            wall0 = time.perf_counter()
            self.probe()
            times.append(time.perf_counter() - wall0)
        return self.REFERENCE_S / statistics.median(times)

    def _tick(self, signum, frame) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.probe()
        self.starts.append(wall0)
        self.walls.append(time.perf_counter() - wall0)
        self.cpus.append(time.process_time() - cpu0)

    def __enter__(self):
        """Start sampling; a probe on entry and on exit brackets short rounds."""
        self.starts.clear()
        self.walls.clear()
        self.cpus.clear()
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def calibrate(self, wall0: float, wall: float, cpu: float) -> tuple[float, float]:
        """Wall and CPU seconds of a call that began at wall0, at reference speed."""
        starts = self.starts
        inside = slice(bisect.bisect_left(starts, wall0), bisect.bisect_left(starts, wall0 + wall))
        lo = bisect.bisect_left(starts, wall0 - self.WINDOW_S)
        hi = bisect.bisect_left(starts, wall0 + wall + self.WINDOW_S)
        near = slice(lo, hi) if hi > lo else slice(max(lo - 1, 0), lo + 1)
        wall_scale = self.REFERENCE_S / statistics.fmean(self.walls[near])
        cpu_scale = self.REFERENCE_S / statistics.fmean(self.cpus[near])
        return ((wall - sum(self.walls[inside])) * wall_scale,
                (cpu - sum(self.cpus[inside])) * cpu_scale)


def run_round(workload, sampler: SpeedSampler, tracer=None) -> tuple[list, list, list, dict]:
    """Run every operation once.

    Returns the raw wall seconds of each call, its wall and CPU seconds at
    the sampler's reference speed, and the outputs by name.
    """
    outputs: dict = {}
    calls = []
    clock, cpu_clock = time.perf_counter, time.process_time
    if tracer is not None:
        tracer.install()
        tracer.begin_round()
    try:
        with sampler:
            for op in workload.ops:
                wall0, cpu0 = clock(), cpu_clock()
                try:
                    outputs[op.name] = op.run(outputs)
                except Exception as exc:  # a failed operation is counted, not fatal
                    outputs[op.name] = exc
                calls.append((wall0, clock() - wall0, cpu_clock() - cpu0))
    finally:
        if tracer is not None:
            tracer.uninstall()
    calibrated = [sampler.calibrate(*call) for call in calls]
    return ([wall for _, wall, _ in calls], [w for w, _ in calibrated],
            [c for _, c in calibrated], outputs)


def typical_round(rounds: list[list[float]]) -> float:
    """Sum over operations of each operation's median across rounds.

    A burst of interference on a shared host slows whichever calls it
    overlaps; taking medians per operation before summing keeps one slow
    stretch from moving the figure of the whole round.
    """
    return sum(statistics.median(times) for times in zip(*rounds))


class Checker:
    """Checks outputs against the reference on their first appearance and
    requires every later round to repeat them exactly."""

    def __init__(self, workload):
        self.workload = workload
        self.verified: dict[str, tuple] = {}
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def account(self, outputs: dict) -> int:
        """Add one round's operations to the tallies; return its exact answers."""
        exact = 0
        for op in self.workload.ops:
            out = outputs[op.name]
            self.attempted += op.units
            if isinstance(out, Exception):
                self.failed += op.units
                if op.expected_error != type(out).__name__:
                    print(f"{op.name}: unexpected {type(out).__name__}: {out}", file=sys.stderr)
                continue
            try:
                key = op.key(out)
                if op.name not in self.verified:
                    self.verified[op.name] = (key, op.check(out, outputs))
                good_key, verdicts = self.verified[op.name]
                if key != good_key:
                    verdicts = ["output differs from the round that was checked"] * op.units
                answers_per_unit = op.exact(out)
            except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
                verdicts = [f"unreadable output: {type(exc).__name__}: {exc}"] * op.units
                answers_per_unit = [0] * op.units
            for verdict, answers in zip(verdicts, answers_per_unit):
                if verdict is None:
                    exact += answers
                else:
                    self.failed += 1
                    self.correct = False
                    print(f"{op.name}: wrong answer: {verdict}", file=sys.stderr)
        return exact


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before it started us")
    parser.add_argument("--out", required=True, help="directory for configs and traces")
    args = parser.parse_args(argv)

    out = Path(args.out)
    workload = workloads.WORKLOADS[args.workload](args.seed, out)
    setup_s = time.monotonic() - args.spawned
    sampler = SpeedSampler()
    setup_s *= sampler.speed_scale()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checker = Checker(workload)
    tracer = Tracer(workload.coverage_epsilon) if args.trace else None
    min_rounds = 2 if tracer else 1
    plain, traced, layers, exact = [], [], [], []
    began = time.perf_counter()
    while True:
        use_tracer = tracer if tracer and len(plain) > len(traced) else None
        raw, walls, cpus, outputs = run_round(workload, sampler, use_tracer)
        (traced if use_tracer else plain).append((raw, walls, cpus))
        if use_tracer:
            layers.append(tracer.end_round())
        exact.append(checker.account(outputs))
        # Checks after the first round only compare outputs, so the next round
        # should take about as long as this round's calls.
        next_round = sum(raw)
        if len(plain) + len(traced) >= min_rounds and time.perf_counter() - began + next_round > args.seconds:
            break

    wall_s = typical_round([w for _, w, _ in plain])
    if tracer:
        tracer.dump(out / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = {
            name: statistics.median(round_[name] for round_ in layers)
            for name in layers[0]
        }
        hits = metrics.pop("patterns.coverage_hits")
        calls = metrics["patterns.coverage_calls"]
        metrics["patterns.coverage_calls_per_hit"] = calls / hits if hits else 0.0
        metrics["trace.overhead_s"] = typical_round([w for _, w, _ in traced]) - wall_s
    else:
        metrics = {
            "wall_s": wall_s,
            "cpu_s": typical_round([c for _, _, c in plain]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "exact_results": statistics.median(exact),
        }
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "rounds": len(plain) + len(traced),
        "raw_wall_s": typical_round([r for r, _, _ in plain]),
        "setup_s": setup_s,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
