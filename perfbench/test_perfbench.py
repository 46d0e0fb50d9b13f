"""Tests of the benchmark's own logic: span arithmetic, failure accounting,
repeatable counts and agreement of the metric lists with BENCHMARK.json.

Run from the repository root with `python3 -m pytest perfbench`.
"""
import json
from pathlib import Path

import numpy as np
import pytest

import harness
import spans
from spans import Span, Tracer, layer_metrics, self_times
from toporisk import continuation

ROOT = Path(__file__).resolve().parent.parent


def _span(name, start, end, parent=None, **counts):
    return Span(name, start, end, parent, "r", counts)


def test_self_times_of_a_hand_built_tree():
    tree = [
        _span("continuation.run", 0.0, 10.0),
        _span("mma.self", 1.0, 9.0, 0, iters=7),
        _span("continuation.callback", 2.0, 6.0, 1),
        _span("continuation.analyze", 2.5, 5.5, 2),
        _span("fea.factorize", 3.0, 4.0, 3),
        _span("fea.solve", 4.0, 5.0, 3, rhs=10),
        _span("fea.solve", 7.0, 7.5, 1, rhs=5),
    ]
    own = self_times(tree)
    assert own == pytest.approx([2.0, 3.5, 1.0, 1.0, 1.0, 1.0, 0.5])
    assert sum(own) == pytest.approx(tree[0].duration)

    metrics = layer_metrics(tree, untraced_solve_s=9.25)
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["mma.self_s"] == pytest.approx(3.5)
    assert value["mma.iters"] == 7
    assert value["fea.solve_s"] == pytest.approx(1.5)
    assert value["fea.solve_calls"] == 2
    assert value["fea.solve_rhs"] == 15
    assert value["fea.factorize_s"] == pytest.approx(1.0)
    assert value["continuation.self_s"] == pytest.approx(4.0)
    assert value["continuation.analyses"] == 1
    assert value["continuation.analyze_ms_p50"] == pytest.approx(3000.0)
    assert value["trace.overhead_s"] == pytest.approx(0.75)
    assert value["auglag.accept_ratio"] == 0.0
    assert list(metrics) == list(spans.PER_LAYER)


def test_failed_spans_and_accept_ratio():
    tree = [
        _span("continuation.run", 0.0, 5.0),
        _span("auglag.self", 0.0, 4.0, 0, evaluations=5, accepted=3),
        _span("fea.factorize", 1.0, 2.0, 1),
        _span("fea.factorize", 2.0, 3.0, 1),
    ]
    tree[3].failed = True
    value = {k: m["value"] for k, m in layer_metrics(tree, 0.0).items()}
    assert value["fea.factorize_failures"] == 1
    assert value["fea.factorize_calls"] == 2
    # one of the five evaluations is the start point, so four were trials
    assert value["auglag.accept_ratio"] == pytest.approx(0.75)
    assert value["auglag.self_s"] == pytest.approx(2.0)


def _tiny(name, cells, L):
    raw = harness.load_workloads()[name]
    raw["mesh"]["cells"] = cells
    raw["scenarios"]["L"] = L
    return harness.make_config(raw, seed=0)


@pytest.fixture
def short_schedule(monkeypatch):
    steps = (continuation.ContinuationStep(1.0, 0.0, 1e-2),
             continuation.ContinuationStep(3.0, 0.0, 5e-3),
             continuation.ContinuationStep(3.0, 4.0, 2e-3))
    monkeypatch.setattr(continuation.ContinuationSchedule, "default",
                        classmethod(lambda cls: cls(steps=steps)))


def test_a_failed_check_fails_its_attempt(short_schedule):
    run = harness.Run(_tiny("meanstd-2d-naive", cells=[10, 4], L=12))
    problem = harness.set_up(run.cfg)
    schedule = continuation.ContinuationSchedule.default()
    problem.prepare(problem.initial_design(), schedule.steps[0])
    run.attempted += 1
    run.finished.append((problem, np.ones(problem.model.mesh.n_elements)))  # V = 1 > 0.4
    run.check_all()
    assert run.failed == 1
    assert run.objective_ratio == []
    failed = [c["check"] for c in run.checks if not c["passed"]]
    assert failed == ["volume_within_bound"]


def test_a_raising_solve_fails_its_attempt(monkeypatch, short_schedule):
    def broken(cfg, problem):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(harness, "solve", broken)
    monkeypatch.setattr(harness, "SETUP_WINDOW_S", 0.0)
    run, metrics = harness.measure(_tiny("maxc-2d-svd", cells=[8, 4], L=6), seconds=0.01)
    assert run.attempted >= 1
    assert run.failed == run.attempted
    assert metrics == {}


@pytest.mark.parametrize("name,changes", [
    ("meanstd-2d-naive", {"cells": [10, 4], "L": 12}),
    ("mean-3d-svd", {"cells": [4, 2, 2], "L": 30}),
    ("maxc-2d-svd", {"cells": [8, 4], "L": 6}),
])
def test_traced_counts_repeat_exactly(name, changes, short_schedule):
    raw = _tiny(name, **changes)
    original = continuation.ForwardModel.__dict__["analyze"]
    first, m1, tracer = harness.measure_traced(raw, "first")
    second, m2, _ = harness.measure_traced(raw, "second")
    assert continuation.ForwardModel.__dict__["analyze"] is original  # wrappers removed
    assert first.failed == second.failed == 0
    assert first.attempted == 3
    assert all(c["passed"] for c in first.checks) and first.checks

    counts = [k for k, unit in spans.PER_LAYER.items() if unit == "count"]
    assert {k: m1[k]["value"] for k in counts} == {k: m2[k]["value"] for k in counts}
    assert m1["continuation.analyses"]["value"] > 0
    assert m1["fea.solve_rhs"]["value"] > 0
    solver = "auglag" if name.startswith("maxc") else "mma"
    assert m1["auglag.primal_iters" if solver == "auglag" else "mma.iters"]["value"] > 0
    assert m1[f"{solver}.self_s"]["value"] > 0
    # every layer with a call count runs in every workload
    assert all(m1[k]["value"] > 0 for k in spans.PER_LAYER if k.endswith("_calls"))

    # the layers' self times account for the traced solve exactly
    root = next(i for i, s in enumerate(tracer.spans) if s.name == "continuation.run")
    below = [i for i in range(len(tracer.spans)) if _under(tracer.spans, i, root)]
    own = self_times(tracer.spans)
    assert sum(own[i] for i in below) == pytest.approx(tracer.spans[root].duration, rel=1e-9)


def _under(spans_, i, root):
    while i is not None:
        if i == root:
            return True
        i = spans_[i].parent
    return False


def test_tracer_restores_originals_after_an_error():
    tracer = Tracer()
    before = continuation.run_continuation
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert continuation.run_continuation is not before
            with tracer.span("continuation.run"):
                raise RuntimeError("boom")
    assert continuation.run_continuation is before
    assert tracer.spans[0].failed


def test_metric_lists_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads(harness.WORKLOADS_FILE.read_text())["workloads"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads)
    assert [m["name"] for m in bench["end_to_end"]] == list(harness.END_TO_END)
    assert [m["unit"] for m in bench["end_to_end"]] == list(harness.END_TO_END.values())
    assert [m["name"] for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert [m["unit"] for m in bench["per_layer"]] == list(spans.PER_LAYER.values())
