"""Workload configs, set-up, the timed solve and the correctness checks.

A workload is a toporisk run config (`toporisk.config`, schema_version 1)
and is built the way the `toporisk` command builds one: `build_model`,
then `build_problem`. Every call into the package goes through a module
attribute (`config.build_model`, `continuation.run_continuation`, ...) so
that the wrappers `spans.Tracer` installs see it.
"""
from __future__ import annotations

import copy
import json
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

from toporisk import config, continuation

from spans import Tracer, layer_metrics

WORKLOADS_FILE = Path(__file__).with_name("workloads.json")
# setup_s comes from single timed set-ups in two windows: one before the
# first solve and one after the last, which also uses the run's time left
# after the solves. Each window lasts at least SETUP_WINDOW_S and holds at
# least SETUP_REPEATS set-ups; setup_s is the median of the two window
# medians, i.e. their mean. The speed of a shared VM drifts by up to 1.8x
# between stretches of a run, so the median of the pooled samples would
# take the speed of whichever window holds more of them.
SETUP_WINDOW_S = 2.5
SETUP_REPEATS = 5
VOLUME_SLACK = 1e-3  # criterion 5
CT_FACTOR, CT_SLACK = 1.5, 1.01  # criterion 7
ROUTE_RTOL = 1e-9  # criterion 1

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "objective_ratio": "ratio"}


def load_workloads() -> dict:
    """Workload name -> its run config, scenario seed and C_t still open."""
    data = json.loads(WORKLOADS_FILE.read_text())
    return {name: spec["config"] for name, spec in data["workloads"].items()}


def make_config(raw: dict, seed: int) -> dict:
    """The workload's complete run config for one seed.

    A scenario seed of "--seed" takes `seed`. A max-compliance config gets
    its C_t here, outside every timer, from the full design's maximum
    compliance at penalty 1 and beta 0.
    """
    raw = copy.deepcopy(raw)
    if raw["scenarios"]["seed"] == "--seed":
        raw["scenarios"]["seed"] = seed
    problem = raw["problem"]
    if problem["kind"] == "max_compliance":
        unbounded = {**raw, "problem": {**problem, "C_t": "inf"}}
        model = config.build_model(config.parse_config(unbounded))
        full = model.analyze(np.ones(model.mesh.n_elements), 1.0, 0.0)
        problem["C_t"] = CT_FACTOR * float(np.max(full.stats.C))
    return raw


def set_up(cfg: config.RunConfig):
    """A problem ready for `run_continuation`: the work `setup_s` times."""
    return config.build_problem(cfg, config.build_model(cfg))


def solve(cfg: config.RunConfig, problem) -> np.ndarray:
    """The finished design: the work `solve_s` times."""
    return continuation.run_continuation(problem, config.build_schedule(cfg)).x


def check(cfg: config.RunConfig, problem, x: np.ndarray) -> tuple[list, float]:
    """Correctness checks on a finished design, and its objective ratio.

    Returns ([(check name, passed, detail), ...], objective ratio). The
    final design is analyzed at the last schedule point; the other
    compliance route re-evaluates it for the route agreement check.
    """
    last = config.build_schedule(cfg).steps[-1]
    model = problem.model
    final = model.analyze(x, last.penalty, last.beta)
    C = final.stats.C
    results = []
    if cfg.kind == "max_compliance":
        worst = float(np.max(C))
        results.append(("max_compliance_within_C_t", worst <= CT_SLACK * cfg.C_t,
                        f"max C_i = {worst:.6e}, C_t = {cfg.C_t:.6e}"))
        results.append(("material_removed", final.volume < 1.0, f"V = {final.volume:.6f}"))
        value = final.volume
    else:
        vf = cfg.volume_fraction
        results.append(("volume_within_bound", final.volume <= vf + VOLUME_SLACK,
                        f"V = {final.volume:.6f}, bound {vf + VOLUME_SLACK:.6f}"))
        value = final.stats.mean
        if cfg.kind == "mean_std":
            value += cfg.m * final.stats.std

    other_method = "naive" if model.method == "svd" else "svd"
    other = config.build_model(cfg, mesh=model.mesh, method=other_method)
    C_other = other.analyze(x, last.penalty, last.beta).stats.C
    gap = float(np.max(np.abs(C_other - C)) / np.max(np.abs(C)))
    results.append((f"routes_agree_{model.method}_vs_{other_method}", gap <= ROUTE_RTOL,
                    f"max relative gap {gap:.3e}"))
    return results, value * problem.scale


class Run:
    """Samples and outcomes of one benchmark run of one workload."""

    def __init__(self, raw: dict):
        self.cfg = config.parse_config(raw)
        self.setup_windows: list[list[float]] = []  # set-up times per window
        self.solve_s: list[float] = []
        self.finished: list[tuple] = []  # (problem, design) per finished solve
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.objective_ratio: list[float] = []

    def setup_window(self, until: float = 0.0) -> None:
        """Timed set-ups for at least SETUP_WINDOW_S and SETUP_REPEATS, and
        until the `time.perf_counter()` reading `until`."""
        until = max(until, time.perf_counter() + SETUP_WINDOW_S)
        samples = []
        while len(samples) < SETUP_REPEATS or time.perf_counter() < until:
            start = time.perf_counter()
            set_up(self.cfg)
            samples.append(time.perf_counter() - start)
        self.setup_windows.append(samples)

    def attempt(self) -> None:
        """Set up and solve once; an exception counts the attempt as failed."""
        self.attempted += 1
        try:
            problem = set_up(self.cfg)
            start = time.perf_counter()
            x = solve(self.cfg, problem)
            self.solve_s.append(time.perf_counter() - start)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        self.finished.append((problem, x))

    def check_all(self) -> None:
        """Check every finished design; one failed check fails its attempt."""
        for k, (problem, x) in enumerate(self.finished):
            try:
                results, ratio = check(self.cfg, problem, x)
            except Exception as exc:
                traceback.print_exc()
                results, ratio = [("check_raised", False, repr(exc))], None
            self.checks.extend({"solve": k, "check": name, "passed": bool(ok), "detail": detail}
                               for name, ok, detail in results)
            if all(ok for _, ok, _ in results):
                self.objective_ratio.append(ratio)
            else:
                self.failed += 1
        self.finished.clear()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(raw: dict, seconds: float) -> tuple[Run, dict]:
    """Untraced run: a set-up window, solves while the next one fits in
    `seconds` (at least one), a second set-up window to the end of
    `seconds`, then the checks, outside every timer.

    Peak memory is read after the first solve, before the repeats make the
    heap's history depend on how fast the machine ran.
    """
    run = Run(raw)
    deadline = time.perf_counter() + seconds
    run.setup_window()
    run.attempt()
    peak = _peak_rss_mb()
    while run.solve_s and time.perf_counter() + statistics.median(run.solve_s) <= deadline:
        run.attempt()
    run.setup_window(until=deadline)
    run.check_all()
    if not run.solve_s or not run.objective_ratio:
        return run, {}
    values = {
        "solve_s": statistics.median(run.solve_s),
        "setup_s": statistics.median(statistics.median(w) for w in run.setup_windows),
        "peak_rss_mb": peak,
        "objective_ratio": statistics.median(run.objective_ratio),
    }
    return run, {name: {"value": values[name], "unit": unit}
                 for name, unit in END_TO_END.items()}


def measure_traced(raw: dict, run_id: str) -> tuple[Run, dict, Tracer]:
    """Untraced, traced and untraced set-up and solve; per-layer metrics.

    The wrappers are in place only for the second attempt. Its overhead is
    measured against the mean of the untraced solves on either side.
    """
    run = Run(raw)
    run.attempt()
    tracer = Tracer(run_id)
    with tracer.installed():
        run.attempt()
    run.attempt()
    run.check_all()
    if run.failed:
        return run, {}, tracer
    untraced = statistics.mean([run.solve_s[0], run.solve_s[2]])
    return run, layer_metrics(tracer.spans, untraced_solve_s=untraced), tracer
