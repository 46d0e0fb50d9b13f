"""Continuation schedule, forward model and the two problem classes."""
import weakref

import numpy as np
import pytest

import toporisk as tr
from toporisk import continuation
from toporisk.errors import ConfigError


def small_model(method="svd", L=8, cells=(6, 3), seed=0):
    mesh = tr.cantilever_mesh(2, cells)
    material = tr.Material(1.0, 0.3)
    pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    F = tr.sample_cantilever_scenarios(mesh, L, seed)
    return tr.ForwardModel(mesh, material, pipeline, F, method=method)


def short_schedule():
    return tr.ContinuationSchedule(steps=(
        tr.ContinuationStep(penalty=1.0, beta=0.0, tolerance=2e-2),
        tr.ContinuationStep(penalty=2.0, beta=0.0, tolerance=1e-2),
    ))


def test_default_schedule_structure():
    sched = tr.ContinuationSchedule.default()
    # p 1 to 6 in halves at beta 0, then beta 4 to 20 in fours at p 6, bit for bit
    assert [(s.penalty, s.beta) for s in sched.steps] == (
        [(1.0 + k * 0.5, 0.0) for k in range(11)] + [(6.0, (k + 1) * 4.0) for k in range(5)])
    # one geometric tolerance decay from 1e-3 to 1e-4
    ratio = (1e-4 / 1e-3) ** (1.0 / 15)
    tols = [s.tolerance for s in sched.steps]
    assert tols == [1e-3 * ratio**k for k in range(16)]
    assert tols[-1] == pytest.approx(1e-4)


def test_schedule_step_that_does_not_divide_its_range_ends_on_the_end_value():
    # the step is shortened to the next one that divides; it never overshoots
    for kwargs, n_p, n_b in [({"p_step": 0.3}, 18, 5), ({"p_step": 2.0}, 4, 5),
                             ({"beta_step": 6.0}, 11, 4)]:
        steps = tr.ContinuationSchedule.default(**kwargs).steps
        penalties = [s.penalty for s in steps[:n_p]]
        betas = [s.beta for s in steps[n_p:]]
        assert len(steps) == n_p + n_b
        assert penalties[0] == 1.0 and penalties[-1] == 6.0
        assert all(s.beta == 0.0 for s in steps[:n_p])
        assert all(s.penalty == 6.0 for s in steps[n_p:]) and betas[-1] == 20.0
        for values, start, limit in [(penalties, 1.0, kwargs.get("p_step", 0.5)),
                                     ([0.0] + betas, 0.0, kwargs.get("beta_step", 4.0))]:
            gaps = np.diff(values)
            assert values[0] == start
            assert np.all(gaps <= limit) and np.ptp(gaps) < 1e-12


def test_schedule_validation():
    with pytest.raises(ValueError):
        tr.ContinuationSchedule(steps=())
    with pytest.raises(ValueError):
        tr.ContinuationSchedule(steps=(
            tr.ContinuationStep(2.0, 0.0, 1e-3),
            tr.ContinuationStep(1.0, 0.0, 1e-4),  # penalty decreases
        ))
    with pytest.raises(ValueError):
        tr.ContinuationSchedule(steps=(
            tr.ContinuationStep(1.0, 0.0, 1e-3),
            tr.ContinuationStep(1.0, 0.0, 1e-4),  # same (p, beta) point
        ))
    with pytest.raises(ValueError):
        tr.ContinuationSchedule(steps=(
            tr.ContinuationStep(1.0, 0.0, 1e-3),
            tr.ContinuationStep(2.0, 0.0, 1e-3),  # tolerance not decreasing
        ))
    # outside the density pipeline's bounds
    for p, beta in [(0.5, 0.0), (float("nan"), 0.0), (1.0, -1.0)]:
        with pytest.raises(ValueError, match="penalty" if beta == 0.0 else "beta"):
            tr.ContinuationSchedule(steps=(tr.ContinuationStep(p, beta, 1e-3),))
    # a step of zero would divide by zero; a negative one, a reversed range
    # or a negative beta_end would drop a phase; a tiny step would build
    # tens of thousands of steps, a denormal one overflow the count
    for bad, key in [({"p_step": 0.0}, "p_step"), ({"p_step": -0.5}, "p_step"),
                     ({"beta_step": -4.0}, "beta_step"), ({"tol_end": 0.0}, "tol_end"),
                     ({"p_end": float("inf")}, "p_end"), ({"p_start": 0.5}, "penalty"),
                     ({"p_step": 5e-324}, "p_step"), ({"p_step": 1e-4}, "p_step"),
                     ({"beta_step": 1e-3}, "beta_step"),
                     ({"p_step": 0.01, "beta_step": 0.04}, "beta_step"),
                     ({"p_start": 6.0, "p_end": 1.0}, "p_end"), ({"beta_end": -4.0}, "beta_end")]:
        with pytest.raises(ValueError, match=key):
            tr.ContinuationSchedule.default(**bad)
    assert len(tr.ContinuationSchedule.default(p_step=5 / 999, beta_end=0.0).steps) == 1000
    with pytest.raises(TypeError, match="beta_end"):
        tr.ContinuationSchedule.default(beta_end="20")


def test_forward_model_counts_solves():
    model = small_model(method="naive", L=14)
    model.analyze(np.full(model.mesh.n_elements, 0.5), 1.0, 0.0)
    assert model.total_solves == 14
    fast = small_model(method="svd", L=14)
    fast.analyze(np.full(fast.mesh.n_elements, 0.5), 1.0, 0.0)
    # the sampler mixes ten basis loads, so the rank caps at ten
    assert fast.total_solves == fast.svd.n_s == 10


@pytest.mark.parametrize("method", ["naive", "svd"])
@pytest.mark.parametrize("with_w,volume_weight", [(True, 0.0), (True, 0.7), (False, 1.0)],
                         ids=["compliances", "compliances+volume", "volume"])
def test_analysis_gradient_matches_finite_differences(method, with_w, volume_weight):
    """Analysis.gradient(w, volume_weight) is the derivative of
    w^T C + volume_weight V over x, on either route."""
    model = small_model(method=method, L=8)
    rng = np.random.default_rng(11)
    x = rng.uniform(0.2, 0.8, model.mesh.n_elements)
    w = rng.standard_normal(8) if with_w else None
    base = model.analyze(x, 3.0, 4.0)
    assert base.volume == pytest.approx(np.mean(base.field.physical))
    assert base.compliances is base.stats.C

    def value(xv):
        a = model.analyze(xv, 3.0, 4.0)
        return (0.0 if w is None else float(w @ a.compliances)) + volume_weight * a.volume

    h = 1e-6
    fd = [(value(x + h * e) - value(x - h * e)) / (2 * h) for e in np.eye(x.size)]
    grad = base.gradient(w, volume_weight=volume_weight)
    np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-6 * np.max(np.abs(grad)))


def test_each_augmented_lagrangian_gradient_pulls_through_the_pipeline_once(monkeypatch):
    # the Lagrangian's gradient is one weighted sum over the physical
    # densities, so one backward pull per gradient, not one per term
    calls = {"lagrangian_gradient": 0, "backward": 0, "weighted_gradient": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    counted(tr.auglag, "lagrangian_gradient")
    counted(tr.DensityPipeline, "backward")
    counted(tr.compliance, "weighted_gradient")
    model = small_model(L=6, seed=2)
    C_t = 2.0 * tr.MaxComplianceProblem(model, C_t=1.0).full_design_max_compliance()
    tr.run_continuation(tr.MaxComplianceProblem(model, C_t=C_t), short_schedule())
    assert calls["lagrangian_gradient"] > 0
    assert calls["backward"] == calls["weighted_gradient"] == calls["lagrangian_gradient"]


def test_naive_analysis_builds_no_dense_scenario_matrix(monkeypatch):
    """The naive route scatters F's loaded rows straight into the solve."""
    def to_dense(self):
        raise AssertionError("ScenarioMatrix.to_dense reached")

    monkeypatch.setattr(tr.ScenarioMatrix, "to_dense", to_dense)
    for cells, L in [((6, 3), 8), ((20, 10), 200)]:  # LAPACK's sweep and the blocked one
        model = small_model(method="naive", L=L, cells=cells)
        analysis = model.analyze(np.full(model.mesh.n_elements, 0.5), 2.0, 0.0)
        assert analysis.stats.C.shape == (L,)


def test_forward_model_rejects_unknown_method():
    mesh = tr.cantilever_mesh(2, (4, 2))
    pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    F = tr.sample_cantilever_scenarios(mesh, 3, 0)
    with pytest.raises(ConfigError):
        tr.ForwardModel(mesh, tr.Material(1.0, 0.3), pipeline, F, method="magic")


def test_model_larger_than_physical_memory_is_refused_before_assembly(monkeypatch):
    def assemble(*args):
        raise AssertionError("assembly reached")

    monkeypatch.setattr(continuation, "assemble", assemble)
    monkeypatch.setattr(continuation, "physical_memory_bytes", lambda: 4 * 2**30)
    mesh = tr.cantilever_mesh(3, (64, 32, 32))
    pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    F = tr.sample_cantilever_scenarios(mesh, 4, 0)
    with pytest.raises(ConfigError, match=r"64x32x32 .* 6\.21 GB .* 4\.29 GB"):
        tr.ForwardModel(mesh, tr.Material(1.0, 0.3), pipeline, F)


def test_mean_compliance_continuation_small():
    model = small_model()
    problem = tr.MeanStdProblem(model, volume_fraction=0.5, m=0.0)
    res = tr.run_continuation(problem, short_schedule())
    assert len(res.history) == 2
    rec = res.history[-1]
    assert rec["step"] == 1 and rec["penalty"] == 2.0 and rec["beta"] == 0.0
    assert rec["converged"]
    final = model.analyze(res.x, 2.0, 0.0)
    assert final.volume == pytest.approx(0.5, abs=5e-3)
    assert res.total_solves > 0
    for key in ("objective_start", "objective_end", "volume", "max_compliance",
                "n_iters", "dual_iters", "analyses", "solves", "tolerance"):
        assert key in rec
    assert rec["dual_iters"] == 0
    # the optimizer's state at the step's end: the volume multiplier of
    # the tight constraint and the residual the stop test read
    assert rec["multiplier"] > 0.0
    assert 0.0 <= rec["kkt_residual"] <= rec["tolerance"]


def test_volume_fraction_validation():
    model = small_model()
    with pytest.raises(ConfigError):
        tr.MeanStdProblem(model, volume_fraction=0.0, m=0.0)
    with pytest.raises(ConfigError):
        tr.MeanStdProblem(model, volume_fraction=1.0)
    with pytest.raises(ConfigError):
        tr.MeanStdProblem(model, volume_fraction=1.5)


def test_mean_std_objective_is_higher_than_mean():
    # adding m sigma to the objective cannot produce a lower mean+m*std value
    model_a = small_model(L=12, seed=5)
    mean_res = tr.run_continuation(tr.MeanStdProblem(model_a, 0.5, m=0.0),
                                   short_schedule())
    model_b = small_model(L=12, seed=5)
    std_res = tr.run_continuation(tr.MeanStdProblem(model_b, 0.5, m=2.0),
                                  short_schedule())
    a = model_a.analyze(mean_res.x, 2.0, 0.0)
    b = model_b.analyze(std_res.x, 2.0, 0.0)
    # the m=2 design trades mean for dispersion
    assert b.stats.std <= a.stats.std * 1.05
    value_a = a.stats.mean + 2.0 * a.stats.std
    value_b = b.stats.mean + 2.0 * b.stats.std
    assert value_b <= value_a * 1.05


@pytest.mark.parametrize("C_t", [np.nan, 0.0, -1.0])
def test_max_compliance_threshold_validation(C_t):
    with pytest.raises(ConfigError, match="C_t"):
        tr.MaxComplianceProblem(small_model(), C_t=C_t)


def test_max_compliance_problem_normalization_is_cached():
    model = small_model()
    problem = tr.MaxComplianceProblem(model, C_t=1e6)
    first = problem.full_design_max_compliance()
    solves = model.total_solves
    second = problem.full_design_max_compliance()
    assert second == first
    assert model.total_solves == solves  # cached, no new analysis


def test_max_compliance_infinite_threshold_drops_material():
    # with C_t = inf the constraints vanish and volume minimization drives
    # the design toward the lower bound
    model = small_model()
    problem = tr.MaxComplianceProblem(
        model, C_t=np.inf,
        auglag_config=tr.AugLagConfig(trust_region=0.5, dual_iters=2, primal_iters=40))
    res = tr.run_continuation(problem, short_schedule())
    final = model.analyze(res.x, 2.0, 0.0)
    assert final.volume < 0.02  # essentially x_min everywhere
    assert np.max(res.x) < 1e-6
    assert all(rec["converged"] for rec in res.history)


def test_max_compliance_run_is_feasible():
    model = small_model(L=6, seed=2)
    base = tr.MaxComplianceProblem(model, C_t=1.0)
    C_t = 2.0 * base.full_design_max_compliance()
    problem = tr.MaxComplianceProblem(model, C_t=C_t)
    res = tr.run_continuation(problem, short_schedule())
    final = model.analyze(res.x, 2.0, 0.0)
    assert float(np.max(final.stats.C)) <= 1.02 * C_t
    assert final.volume < 1.0
    # every step ends at a KKT point before the dual iteration cap
    for rec in res.history:
        assert 1 <= rec["dual_iters"] < problem.auglag_config.dual_iters
        assert rec["converged"]
        assert 0.0 <= rec["kkt_residual"] <= rec["tolerance"]
    # the largest multiplier, carried into the next step
    assert res.history[-1]["multiplier"] == np.max(problem.lam) > 0.0


def test_max_compliance_default_schedule_converges_before_the_dual_cap():
    # with the quadratic penalty term weighted by lam + 2 r max(g, 0), the
    # primal phase was stationary for other multipliers than the update
    # and the KKT stop read: the last four beta steps of this run ended
    # unconverged at the dual cap
    model = small_model(L=6, seed=2)
    C_t = 1.5 * tr.MaxComplianceProblem(model, C_t=1.0).full_design_max_compliance()
    problem = tr.MaxComplianceProblem(model, C_t=C_t)
    res = tr.run_continuation(problem)
    assert len(res.history) == len(tr.ContinuationSchedule.default().steps)
    for rec in res.history:
        assert rec["converged"], rec["step"]
        assert rec["dual_iters"] < problem.auglag_config.dual_iters, rec["step"]
    assert float(np.max(res.final.stats.C)) <= 1.01 * C_t


def test_max_compliance_converged_flag_reports_the_primal_stop():
    # one primal step per dual phase cannot bring the KKT residual to tol
    model = small_model()
    problem = tr.MaxComplianceProblem(
        model, C_t=np.inf, auglag_config=tr.AugLagConfig(dual_iters=2, primal_iters=1))
    res = tr.run_continuation(problem, short_schedule())
    assert [rec["converged"] for rec in res.history] == [False, False]


def test_naive_and_svd_reach_matching_designs():
    sched = short_schedule()
    res_n = tr.run_continuation(
        tr.MeanStdProblem(small_model(method="naive", L=16, seed=3), 0.5, m=0.0), sched)
    res_s = tr.run_continuation(
        tr.MeanStdProblem(small_model(method="svd", L=16, seed=3), 0.5, m=0.0), sched)
    # same optimization driven by equal gradients: identical iterates
    np.testing.assert_allclose(res_s.x, res_n.x, atol=1e-7)
    assert res_s.total_solves < res_n.total_solves


@pytest.mark.parametrize("kind", ["naive mean_std", "svd mean", "max_compliance"])
def test_no_design_point_is_analyzed_twice(analyze_spy, kind):
    schedule = tr.ContinuationSchedule(steps=(
        tr.ContinuationStep(penalty=1.0, beta=0.0, tolerance=1e-3),
        tr.ContinuationStep(penalty=2.0, beta=0.0, tolerance=5e-4),
        tr.ContinuationStep(penalty=2.0, beta=4.0, tolerance=1e-4),
    ))
    if kind == "max_compliance":
        full = tr.MaxComplianceProblem(small_model(L=6, cells=(8, 4), seed=2), C_t=1.0)
        problem = tr.MaxComplianceProblem(small_model(L=6, cells=(8, 4), seed=2),
                                          C_t=1.5 * full.full_design_max_compliance())
    else:
        method, name = kind.split()
        m = 2.0 if name == "mean_std" else 0.0
        problem = tr.MeanStdProblem(small_model(method, L=12, cells=(10, 4)), 0.5, m=m)
    keys = analyze_spy
    keys.clear()  # the max-compliance threshold's analysis is not the run's
    res = tr.run_continuation(problem, schedule)
    assert len(set(keys)) == len(keys) == problem.model.total_analyses
    if kind != "max_compliance":
        # the start point of the run, then one analysis per MMA iteration
        # and one per later step's start
        assert len(keys) == len(schedule.steps) + sum(rec["n_iters"] for rec in res.history)


def test_an_mma_step_keeps_at_most_one_earlier_analysis_alive(monkeypatch):
    # `fea.analysis_bytes` counts two solve blocks per analysis: the new one
    # and the memo's last; the previous step's final analysis must not be a
    # third
    made = []
    live_at_call = []
    analyze = tr.ForwardModel.analyze

    def spy(self, x, penalty, beta):
        live_at_call.append(sum(ref() is not None for ref in made))
        analysis = analyze(self, x, penalty, beta)
        made.append(weakref.ref(analysis))
        return analysis

    monkeypatch.setattr(tr.ForwardModel, "analyze", spy)
    problem = tr.MeanStdProblem(small_model("naive", L=6), 0.5, m=2.0)
    res = tr.run_continuation(problem, short_schedule())
    assert res.history[1]["n_iters"] >= 1
    assert max(live_at_call) == 1


def test_final_analysis_is_the_final_point_after_rejected_trials(monkeypatch, analyze_spy):
    # a line search may analyze trials after the point it returns; the run's
    # final analysis must still be that point's, without analyzing it again
    solve = continuation.auglag_minimize

    def with_rejected_trial(evaluate, x0, *args, **kwargs):
        result = solve(evaluate, x0, *args, **kwargs)
        evaluate(0.5 * result.x)
        return result

    monkeypatch.setattr(continuation, "auglag_minimize", with_rejected_trial)
    model = small_model(L=6, seed=2)
    C_t = 2.0 * tr.MaxComplianceProblem(model, C_t=1.0).full_design_max_compliance()
    analyze_spy.clear()  # the threshold's analysis, outside the run
    res = tr.run_continuation(tr.MaxComplianceProblem(model, C_t=C_t), short_schedule())
    assert len(set(analyze_spy)) == len(analyze_spy)
    fresh = model.analyze(res.x, 2.0, 0.0)
    np.testing.assert_array_equal(res.final.stats.C, fresh.stats.C)
    np.testing.assert_array_equal(res.final.field.physical, fresh.field.physical)
