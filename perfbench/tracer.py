"""Spans and counters around groupstab's public functions, installed from
outside the package.

Every public function of a layer module is replaced, wherever groupstab
binds its name (its own module, the package namespace, and modules that
imported it, such as cli binding the census functions), by a wrapper that
records a span (name, start, end, parent) in memory. bits.permute_bits and
groups.closure are only counted: a span per call would cost more than the
call. Self time of a layer is the time of its spans minus the time of their
child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

LAYERS = ("groups", "genlab", "relations", "bits", "patterns", "halfgraph", "boxcover", "cli")
# Small helpers called once per element or tuple; a span each would swamp them.
SKIP = {
    ("bits", "iter_bits"), ("bits", "mask_of"), ("bits", "full_mask"),
    ("relations", "power_size"), ("relations", "encode_tuple"), ("relations", "decode_tuple"),
}
CENSUS_FUNCTIONS = ("square_census", "corner_census", "rect23_census", "lshape_census", "ap_census")

COUNTERS = (
    "groups.subgroup_searches", "groups.closures", "relations.coordinate_actions",
    "bits.permutes", "bits.permuted_bits", "patterns.censuses", "patterns.row_pairs",
    "patterns.coverage_calls", "patterns.coverage_hits", "halfgraph.exact_calls",
    "halfgraph.sampled_calls", "halfgraph.samples_drawn", "halfgraph.budget_refusals",
    "halfgraph.tuples_charged", "halfgraph.tuples_possible", "boxcover.covers",
    "boxcover.boxes", "cli.rows",
)


def distinct_tuples(relation, k: int) -> int:
    """d (d-1) ... (d-k+1) over the d distinct non-empty rows of the domain."""
    d = len({relation.rows[x] for x in relation.domain.member_indices()} - {0})
    out = 1
    for i in range(k):
        out *= max(d - i, 0)
    return out


class Tracer:
    """Wraps the functions of the imported groupstab modules and keeps their spans."""

    def __init__(self, coverage_epsilon=None):
        self.coverage_epsilon = coverage_epsilon
        self.spans: list[tuple[str, int, int, int]] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._round_start = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "groupstab" or name.startswith("groupstab.")
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"groupstab.{layer}"]
            for name, fn in vars(mod).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                    and (layer, name) not in SKIP
                ):
                    wrappers[fn] = self._wrap(layer, name, fn)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._saved.append((mod, name, value))
                    setattr(mod, name, wrappers[value])

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._saved):
            setattr(mod, name, value)
        self._saved.clear()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        counts = self.counts
        if (layer, name) == ("bits", "permute_bits"):
            @functools.wraps(fn)
            def permute(mask, perm):
                counts["bits.permutes"] += 1
                counts["bits.permuted_bits"] += mask.bit_count()
                return fn(mask, perm)
            return permute
        if (layer, name) == ("groups", "closure"):
            @functools.wraps(fn)
            def closure(*args, **kwargs):
                counts["groups.closures"] += 1
                return fn(*args, **kwargs)
            return closure

        label = f"{layer}.{name}"
        before = self._before(layer, name)
        after = self._after(layer, name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index] = (label, start, clock(), parent)
                stack.pop()
                if after is not None:
                    after(None, exc, *args, **kwargs)
                raise
            spans[index] = (label, start, clock(), parent)
            stack.pop()
            if after is not None:
                after(result, None, *args, **kwargs)
            return result

        return traced

    def _before(self, layer: str, name: str):
        counts = self.counts
        if (layer, name) == ("halfgraph", "count_halfgraphs_exact"):
            def charge(relation, k, *args, **kwargs):
                counts["halfgraph.tuples_charged"] += relation.domain.size**k
                counts["halfgraph.tuples_possible"] += distinct_tuples(relation, k)
            return charge
        if layer == "patterns" and name in CENSUS_FUNCTIONS:
            def census(*args, **kwargs):
                counts["patterns.censuses"] += 1
                if name != "ap_census":
                    relation = args[0] if args else kwargs["relation"]
                    counts["patterns.row_pairs"] += relation.domain.size * relation.group.order
            return census
        simple = {
            ("groups", "subgroups_up_to_index"): "groups.subgroup_searches",
            ("relations", "coordinate_action"): "relations.coordinate_actions",
            ("patterns", "sidelength_coverage"): "patterns.coverage_calls",
            ("halfgraph", "sample_halfgraphs"): "halfgraph.sampled_calls",
            ("boxcover", "greedy_box_cover"): "boxcover.covers",
        }.get((layer, name))
        if simple is not None:
            def bump(*args, **kwargs):
                counts[simple] += 1
            return bump
        return None

    def _after(self, layer: str, name: str):
        counts = self.counts
        key = (layer, name)
        if key == ("halfgraph", "count_halfgraphs_exact"):
            def exact(result, exc, *args, **kwargs):
                if exc is None:
                    counts["halfgraph.exact_calls"] += 1
                elif type(exc).__name__ == "BudgetExceeded":
                    counts["halfgraph.budget_refusals"] += 1
            return exact
        if key == ("halfgraph", "sample_halfgraphs"):
            def sampled(result, exc, *args, **kwargs):
                if exc is None:
                    counts["halfgraph.samples_drawn"] += result.samples
            return sampled
        if key == ("patterns", "sidelength_coverage"):
            def coverage(result, exc, *args, **kwargs):
                eps = self.coverage_epsilon
                if exc is None and eps is not None and result.missing_fraction < eps:
                    counts["patterns.coverage_hits"] += 1
            return coverage
        if key == ("boxcover", "greedy_box_cover"):
            def cover(result, exc, *args, **kwargs):
                if exc is None:
                    counts["boxcover.boxes"] += len(result.boxes)
            return cover
        if key in (("cli", "run_experiment"), ("cli", "run_family_trend")):
            def report(result, exc, *args, **kwargs):
                if exc is None:
                    counts["cli.rows"] += len(result["rows"])
            return report
        return None

    # -- results ------------------------------------------------------------

    def begin_round(self) -> None:
        self._round_start = len(self.spans)
        self.counts.update(dict.fromkeys(COUNTERS, 0))

    def end_round(self) -> dict[str, float]:
        """Per-layer self seconds and counters of the spans since begin_round.

        A span's self time is its duration minus its children's durations.
        """
        first = self._round_start
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        for _label, start, end, parent in spans:
            if parent >= first:
                child_ns[parent - first] += end - start
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS if layer != "bits"}
        for (label, start, end, _parent), children in zip(spans, child_ns):
            out[label.split(".", 1)[0] + ".self_s"] += (end - start - children) / 1e9
        out.update(self.counts)
        return out

    def dump(self, path) -> None:
        """Write every span as a JSON line: name, start_ns, end_ns, parent index."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
