"""Per-layer tracing from outside the program.

Layers are the grapes modules.  Their public functions are wrapped here and
the wrappers are rebound in every ``grapes`` module namespace (so calls made
by name from inside the package go through them too), then removed again.
A span stack charges each stretch of time to the innermost open layer,
which gives every layer's self time; counters record the work each layer
was asked to do, read from its arguments or results.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

BENCH = "bench"  # time inside a unit but outside every wrapped layer
SPAN_KEEP_S = 1e-3  # spans at least this long are kept individually


def _snf_counts(tracer, args, result) -> None:
    matrix = args[0]
    rows = len(matrix)
    tracer.counts["homology.snf.entries"] += rows * (len(matrix[0]) if rows else 0)
    tracer.counts["homology.snf.max_rows"] = max(tracer.counts["homology.snf.max_rows"], rows)


def _check_counts(tracer, args, result) -> None:
    tracer.counts["grape.check.nodes"] += result.nodes


def _search_counts(tracer, args, result) -> None:
    tracer.counts["collapse.search.nodes"] += result.nodes
    tracer.counts["collapse.search.yes"] += result.verdict == "yes"


def _build_counts(tracer, args, result) -> None:
    tracer.counts["graphs.build.facets"] += len(result.facets)


# (module, function, layer, counter hook)
LAYERS = [
    ("complexes", "link", "complexes.link", None),
    ("complexes", "deletion", "complexes.deletion", None),
    ("complexes", "alexander_dual", "complexes.alexander_dual", None),
    ("complexes", "minimal_nonfaces", "complexes.minimal_nonfaces", None),
    ("complexes", "restrict_ground", "complexes.restrict_ground", None),
    ("homology", "smith_normal_form", "homology.snf", _snf_counts),
    ("homology", "reduced_homology", "homology.profile", None),
    ("homology", "reduced_cohomology", "homology.profile", None),
    ("grape", "check_grape", "grape.check", _check_counts),
    ("grape", "verify_certificate", "grape.replay", None),
    ("grape", "classify_strong", "grape.classify", None),
    ("grape", "predicted_wedge", "grape.wedge", None),
    ("collapse", "collapse_search", "collapse.search", _search_counts),
    ("collapse", "replay", "collapse.replay", None),
    ("graphs", "independence_complex", "graphs.build", _build_counts),
    ("graphs", "dominance_complex", "graphs.build", _build_counts),
    ("graphs", "edge_cover_complex", "graphs.build", _build_counts),
    ("graphs", "edge_dominance_complex", "graphs.build", _build_counts),
    ("graphs", "pf_complex", "graphs.build", _build_counts),
    ("graphs", "pm_complex", "graphs.build", _build_counts),
    ("graphs", "invariants", "graphs.invariants", None),
    ("graphs", "useless_arcs", "graphs.useless_arcs", None),
    ("verify", "run_suite", "verify.suite", None),
    ("cli", "main", "cli", None),
]

def _grapes_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "grapes" or name.startswith("grapes."))]


class Tracer:
    """Span stack and counters; times are raw until a unit is flushed.

    ``pause``/``resume`` bracket the benchmark's calibration so that it is
    charged to no layer; ``flush`` scales the raw self time gathered since
    the last flush to reference seconds.
    """

    def __init__(self):
        self.stack = [(BENCH, 0.0)]
        self.excluded = 0.0
        self.paused_at = perf_counter()  # charge nothing until a unit begins
        self.last = 0.0
        self.pending: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list = []  # (layer, parent layer, start, end), clock time
        self.rebound: list = []  # (module, attribute, original)

    def clock(self) -> float:
        return perf_counter() - self.excluded

    def _charge(self, now: float) -> None:
        self.pending[self.stack[-1][0]] += now - self.last
        self.last = now

    def enter(self, layer: str) -> None:
        now = self.clock()
        self._charge(now)
        self.stack.append((layer, now))
        self.calls[layer] += 1

    def exit(self) -> None:
        now = self.clock()
        self._charge(now)
        layer, start = self.stack.pop()
        if now - start >= SPAN_KEEP_S:
            self.spans.append((layer, self.stack[-1][0], start, now))

    def pause(self) -> None:
        self._charge(self.clock())
        self.paused_at = perf_counter()

    def resume(self) -> None:
        self.excluded += perf_counter() - self.paused_at
        self.paused_at = None
        self.last = self.clock()

    def flush(self, scale: float) -> None:
        for layer, raw in self.pending.items():
            self.self_s[layer] += raw * scale
        self.pending.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, layer: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.perfbench_layer = layer
        return wrapper

    def install(self) -> None:
        modules = _grapes_modules()
        for module, attr, layer, hook in LAYERS:
            original = getattr(sys.modules[f"grapes.{module}"], attr)
            wrapper = self._wrap(original, layer, hook)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
                        self.rebound.append((m, name, original))

    def uninstall(self) -> None:
        for m, name, original in reversed(self.rebound):
            setattr(m, name, original)
        self.rebound.clear()
        left = [f"{m.__name__}.{name}" for m in _grapes_modules()
                for name, value in vars(m).items() if hasattr(value, "perfbench_layer")]
        if left:
            raise AssertionError(f"tracing wrappers left bound: {left}")

    def layer_metrics(self) -> dict:
        """Per-layer metric values (reference seconds and counts)."""
        calls, counts, self_s = self.calls, self.counts, self.self_s
        out = {}
        for layer in ("complexes.link", "complexes.deletion", "complexes.alexander_dual",
                      "complexes.minimal_nonfaces", "complexes.restrict_ground"):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out["homology.snf.calls"] = calls["homology.snf"]
        out["homology.snf.self_s"] = self_s["homology.snf"]
        out["homology.snf.entries"] = counts["homology.snf.entries"]
        out["homology.snf.max_rows"] = counts["homology.snf.max_rows"]
        out["homology.profile.calls"] = calls["homology.profile"]
        out["homology.profile.self_s"] = self_s["homology.profile"]
        out["grape.check.calls"] = calls["grape.check"]
        out["grape.check.nodes"] = counts["grape.check.nodes"]
        out["grape.check.self_s"] = self_s["grape.check"]
        for layer in ("grape.replay", "grape.classify", "grape.wedge"):
            out[f"{layer}.self_s"] = self_s[layer]
        searches = calls["collapse.search"]
        out["collapse.search.calls"] = searches
        out["collapse.search.nodes"] = counts["collapse.search.nodes"]
        out["collapse.search.self_s"] = self_s["collapse.search"]
        out["collapse.search.yes_frac"] = counts["collapse.search.yes"] / searches if searches else 0.0
        out["collapse.replay.self_s"] = self_s["collapse.replay"]
        out["graphs.build.calls"] = calls["graphs.build"]
        out["graphs.build.self_s"] = self_s["graphs.build"]
        out["graphs.build.facets"] = counts["graphs.build.facets"]
        out["graphs.invariants.self_s"] = self_s["graphs.invariants"]
        out["graphs.useless_arcs.self_s"] = self_s["graphs.useless_arcs"]
        out["verify.suite.self_s"] = self_s["verify.suite"]
        out["cli.self_s"] = self_s["cli"]
        return out
