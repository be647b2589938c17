"""In-memory span tracing for one ``fastshift`` invocation, from outside.

The program has no tracing of its own yet, so spans are recorded by
wrapping, for the duration of a :func:`traced` block, the public function
names each caller looks up at call time (``cli.run_adaptive``,
``kernels.batch_step``, ...). Every wrapped name is restored when the block
ends. A span is ``name, start, end, parent`` plus the counts taken from the
call's argument shapes and return value; a span's self time is its duration
minus the time its direct children cover.

Span names are ``<layer>.<function>`` where the layer is the module that
defines the function, so self times summed per layer partition the root
span's wall time along ``cli -> controller/baseline -> faster -> core ->
kernels``.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "controller", "faster", "baseline", "core", "kernels")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)
    result: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _batch_step_counts(args):
    rows, points, _h, chunk = args[:4]
    r, n = rows.shape[0], points.shape[0]
    return {"rows": r, "pairs": r * n, "bytes": r * min(chunk, n) * 8}


def _greedy_prune_counts(args):
    return {"cands": args[0].shape[0]}


def _nearest_labels_counts(args):
    return {"pairs": args[0].shape[0] * args[1].shape[0]}


# (module, attribute the caller looks up, span name, counts taken from the
#  call's arguments or None)
WRAP_POINTS = (
    ("cli", "run_adaptive", "controller.run_adaptive", None),
    ("cli", "run_faster", "faster.run_faster", None),
    ("cli", "run_baseline", "baseline.run_baseline", None),
    ("cli", "estimate_bandwidth", "core.estimate_bandwidth", None),
    ("controller", "run_faster", "faster.run_faster", None),
    ("faster", "sample_seeds", "faster.sample_seeds", None),
    ("faster", "prune_modes", "core.prune_modes", None),
    ("faster", "assign_labels", "core.assign_labels", None),
    ("baseline", "prune_modes", "core.prune_modes", None),
    ("baseline", "assign_labels", "core.assign_labels", None),
    ("kernels", "batch_step", "kernels.batch_step", _batch_step_counts),
    ("kernels", "greedy_prune", "kernels.greedy_prune", _greedy_prune_counts),
    ("kernels", "nearest_labels", "kernels.nearest_labels",
     _nearest_labels_counts),
)


class Tracer:
    """Collects the spans of the calls made inside :meth:`span` blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counts=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                out = fn(*args, **kwargs)
            span.result = out
            if counts is not None:
                span.counts = counts(args)
            return out

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "counts": s.counts}
                for s in self.spans]


@contextlib.contextmanager
def traced(tracer: Tracer, points=WRAP_POINTS):
    """Route every name in ``points`` through ``tracer``; restore on exit."""
    saved = []
    try:
        for mod_name, attr, span_name, counts in points:
            mod = importlib.import_module(f"fastshift.{mod_name}")
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, tracer.wrap(span_name, fn, counts))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def self_sum_frac(tracer: Tracer) -> float:
    """Sum of all self times over the root span's duration; 1 when every
    span nests inside its parent, as the layer breakdown requires."""
    return sum(tracer.self_times()) / tracer.spans[0].duration


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer times and counts of one traced invocation.

    Times are seconds. Layers the invocation never entered report 0. The
    root span must be the single ``cli.main`` span.
    """
    spans = tracer.spans
    own = tracer.self_times()

    def total(name, key=None):
        picked = [s for s in spans if s.name == name]
        if key is None:
            return sum(s.duration for s in picked)
        return sum(s.counts[key] for s in picked)

    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s, t in zip(spans, own):
        m[f"{s.layer}.self_s"] += t
    m["cli.run_s"] = spans[0].duration

    pairs = total("kernels.batch_step", "pairs")
    steps = [s for s in spans if s.name == "kernels.batch_step"]
    m["kernels.batch_step_s"] = total("kernels.batch_step")
    m["kernels.batch_step_calls"] = len(steps)
    m["kernels.pairs_tested"] = pairs
    m["kernels.ns_per_pair"] = (m["kernels.batch_step_s"] / pairs * 1e9
                                if pairs else 0.0)
    m["kernels.batch_bytes_analytic"] = max(
        (s.counts["bytes"] for s in steps), default=0)
    m["kernels.greedy_prune_s"] = total("kernels.greedy_prune")
    m["kernels.greedy_prune_cands"] = total("kernels.greedy_prune", "cands")
    m["kernels.nearest_labels_s"] = total("kernels.nearest_labels")
    m["kernels.nearest_labels_pairs"] = total("kernels.nearest_labels",
                                              "pairs")
    m["core.prune_modes_s"] = total("core.prune_modes")
    m["core.assign_labels_s"] = total("core.assign_labels")
    m["core.estimate_bandwidth_s"] = total("core.estimate_bandwidth")

    runs = [s.result for s in spans if s.name == "faster.run_faster"]
    used = sum(r.seeds_used for r in runs)
    m["faster.run_s"] = total("faster.run_faster")
    m["faster.sweeps"] = sum(r.iterations_run for r in runs)
    m["faster.seeds_used"] = used
    m["faster.converged_frac"] = (
        sum(r.seeds_used - r.seeds_discarded for r in runs) / used
        if used else 0.0)
    evals = [r.distance_evals for r in runs]
    m["faster.distance_evals"] = sum(evals)

    ctl = [s for s in spans if s.name == "controller.run_adaptive"]
    history = [h for s in ctl for h in s.result[1].history]
    m["controller.attempts"] = len(history)
    m["controller.retries"] = sum(s.result[1].retries for s in ctl)
    m["controller.final_N"] = history[-1][0] if history else 0
    # every attempt but the accepted one is thrown away
    m["controller.wasted_evals_frac"] = (
        sum(evals[:-1]) / sum(evals) if ctl and sum(evals) else 0.0)

    base = [s for s in spans if s.name == "baseline.run_baseline"]
    m["baseline.run_s"] = sum(s.duration for s in base)
    m["baseline.sweeps"] = sum(s.result.iterations_run for s in base)
    return m
