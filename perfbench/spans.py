"""Spans recorded around calls into toporisk's layers, from outside the package.

`Tracer.installed()` replaces the package functions and methods listed in
`_targets` with wrappers that record one span per call: name, start, end,
parent span and run id, plus the counts the call's arguments or result
carry (right-hand sides solved, iterations, evaluations). On exit it puts
the originals back, so untraced runs execute the package's own code.
Spans stay in memory until the caller writes them out.

`layer_metrics` turns the spans of one traced run into the per-layer
metrics. A span's self time is its duration minus the durations of its
direct children, so the self times of the spans under one root add up to
the root's duration.
"""
from __future__ import annotations

import contextlib
import functools
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from toporisk import compliance, config, continuation, fea, mesh, pipeline

# Per-layer metrics in output order, with their units. `<span>_s` is the
# summed self time of the spans named <span>, `<span>_calls` their count.
PER_LAYER = {
    "scenarios.sample_s": "s",
    "scenarios.thin_svd_s": "s",
    "pipeline.build_filter_s": "s",
    "pipeline.apply_s": "s",
    "pipeline.apply_calls": "count",
    "pipeline.backward_s": "s",
    "pipeline.backward_calls": "count",
    "mesh.element_dof_map_s": "s",
    "mesh.element_dof_map_calls": "count",
    "fea.element_stiffness_s": "s",
    "fea.assemble_s": "s",
    "fea.assemble_calls": "count",
    "fea.factorize_s": "s",
    "fea.factorize_calls": "count",
    "fea.factorize_failures": "count",
    "fea.solve_s": "s",
    "fea.solve_calls": "count",
    "fea.solve_rhs": "count",
    "compliance.stats_self_s": "s",
    "compliance.gradient_s": "s",
    "compliance.gradient_calls": "count",
    "mma.self_s": "s",
    "mma.iters": "count",
    "auglag.self_s": "s",
    "auglag.primal_iters": "count",
    "auglag.evaluations": "count",
    "auglag.accept_ratio": "ratio",
    "continuation.analyses": "count",
    "continuation.analyze_ms_p50": "ms",
    "continuation.analyze_ms_p99": "ms",
    "continuation.self_s": "s",
    "trace.overhead_s": "s",
}

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span in Tracer.spans
    run: str
    counts: dict = field(default_factory=dict)
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; `run` tags the spans of one traced run."""

    def __init__(self, run: str = ""):
        self.spans: list[Span] = []
        self.run = run
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), float("nan"), parent, self.run)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        except BaseException:
            record.failed = True
            raise
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, count=None, adapt=None):
        """`fn` inside a span; `count(args, result)` gives the span's counts,
        `adapt(span, args, kwargs)` may replace arguments before the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                if adapt is not None:
                    args, kwargs = adapt(record, args, kwargs)
                result = fn(*args, **kwargs)
                if count is not None:
                    record.counts.update(count(args, result))
                return result

        return traced

    def _wrap_callback(self, fn, name: str):
        def traced(*args):
            with self.span(name):
                return fn(*args)

        return traced

    def _adapt_mma(self, record, args, kwargs):
        # objective and constraint callbacks belong to the problem classes
        # in `continuation`, not to MMA
        objective, constraint, *rest = args
        return (self._wrap_callback(objective, "continuation.callback"),
                self._wrap_callback(constraint, "continuation.callback"),
                *rest), kwargs

    def _adapt_auglag(self, record, args, kwargs):
        evaluate, x0, *rest = args
        record.counts.update(evaluations=0, accepted=0)
        last_x = np.asarray(x0)
        inner_callback = kwargs.get("callback")

        def counted_evaluate(x):
            record.counts["evaluations"] += 1
            with self.span("continuation.evaluate"):
                return evaluate(x)

        def callback(dual_iter, primal_iter, x, value):
            nonlocal last_x
            # an accepted trial moves x; a stalled iteration leaves it
            if not np.array_equal(x, last_x):
                record.counts["accepted"] += 1
            last_x = x
            if inner_callback is not None:
                inner_callback(dual_iter, primal_iter, x, value)

        return (counted_evaluate, x0, *rest), {**kwargs, "callback": callback}

    def _targets(self):
        """(owner, attribute, wrapper) for every call site the trace covers.

        Functions are replaced in the namespace that calls them: the
        `continuation` module imported `assemble`, `thin_svd` and the
        solvers by name, and `config` the scenario sampler, so those are
        patched there.
        """

        def rhs(args, result):
            return {"rhs": 1 if np.ndim(args[1]) == 1 else np.shape(args[1])[1]}

        def mma_iters(args, result):
            return {"iters": result.n_iters}

        def primal_iters(args, result):
            return {"primal_iters": result.n_primal_iters}

        methods = [
            (continuation.ForwardModel, "analyze", "continuation.analyze", {}),
            (pipeline.DensityPipeline, "apply", "pipeline.apply", {}),
            (pipeline.DensityPipeline, "backward", "pipeline.backward", {}),
            (mesh.GroundMesh, "element_dof_map", "mesh.element_dof_map", {}),
            (fea.StiffnessSystem, "factorize", "fea.factorize", {}),
            (fea.StiffnessSystem, "solve", "fea.solve", {"count": rhs}),
        ]
        functions = [
            (continuation, "run_continuation", "continuation.run", {}),
            (continuation, "element_stiffness", "fea.element_stiffness", {}),
            (continuation, "assemble", "fea.assemble", {}),
            (continuation, "thin_svd", "scenarios.thin_svd", {}),
            (continuation, "mma_minimize", "mma.self",
             {"count": mma_iters, "adapt": self._adapt_mma}),
            (continuation, "auglag_minimize", "auglag.self",
             {"count": primal_iters, "adapt": self._adapt_auglag}),
            (pipeline, "build_filter", "pipeline.build_filter", {}),
            (config, "sample_cantilever_scenarios", "scenarios.sample", {}),
            (compliance, "compliances_naive", "compliance.stats_self", {}),
            (compliance, "compliances_svd", "compliance.stats_self", {}),
            (compliance, "weighted_gradient_naive", "compliance.gradient", {}),
            (compliance, "weighted_gradient_svd", "compliance.gradient", {}),
        ]
        for owner, attr, name, extra in methods + functions:
            yield owner, attr, self.wrap(getattr(owner, attr), name, **extra)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced call site, and restore the originals on exit."""
        saved = []
        try:
            for owner, attr, wrapper in self._targets():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def to_json(self) -> list:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, children)]


def _percentile_ms(durations: list[float], q: int) -> float:
    if len(durations) < 2:
        return 1e3 * durations[0] if durations else 0.0
    return 1e3 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[Span], untraced_solve_s: float) -> dict:
    """Per-layer metrics of one traced run, keyed as in `PER_LAYER`.

    `untraced_solve_s` is the untraced `run_continuation` time of the same
    workload; the traced root's excess over it is `trace.overhead_s`.
    """
    self_s = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for s, own in zip(spans, self_s):
        total[s.name] = total.get(s.name, 0.0) + own
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            counts[f"{s.name}:{key}"] = counts.get(f"{s.name}:{key}", 0) + value

    values: dict[str, float] = dict.fromkeys(PER_LAYER, 0)  # layers that did not run
    for name in total:
        values[f"{name}_s"] = total[name]
        values[f"{name}_calls"] = calls[name]
    values["fea.factorize_failures"] = sum(
        1 for s in spans if s.name == "fea.factorize" and s.failed)
    values["fea.solve_rhs"] = counts.get("fea.solve:rhs", 0)
    values["mma.iters"] = counts.get("mma.self:iters", 0)
    values["auglag.primal_iters"] = counts.get("auglag.self:primal_iters", 0)
    evaluations = counts.get("auglag.self:evaluations", 0)
    trials = evaluations - calls.get("auglag.self", 0)  # one start point per call
    values["auglag.evaluations"] = evaluations
    values["auglag.accept_ratio"] = (
        counts.get("auglag.self:accepted", 0) / trials if trials > 0 else 0.0)
    analyze = [s.duration for s in spans if s.name == "continuation.analyze"]
    values["continuation.analyses"] = len(analyze)
    values["continuation.analyze_ms_p50"] = _percentile_ms(analyze, 50)
    values["continuation.analyze_ms_p99"] = _percentile_ms(analyze, 99)
    values["continuation.self_s"] = sum(
        own for s, own in zip(spans, self_s) if s.name.startswith("continuation."))
    roots = [s.duration for s in spans if s.name == "continuation.run"]
    values["trace.overhead_s"] = statistics.median(roots) - untraced_solve_s
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}
