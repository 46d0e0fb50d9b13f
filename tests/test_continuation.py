"""Continuation schedule, forward model and the three problem wrappers."""
import numpy as np
import pytest

import toporisk as tr
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
    assert len(sched.steps) == 16
    np.testing.assert_allclose([s.penalty for s in sched.steps[:11]],
                               np.arange(1.0, 6.5, 0.5))
    assert all(s.beta == 0.0 for s in sched.steps[:11])
    np.testing.assert_allclose([s.beta for s in sched.steps[11:]],
                               [4.0, 8.0, 12.0, 16.0, 20.0])
    assert all(s.penalty == 6.0 for s in sched.steps[11:])
    tols = [s.tolerance for s in sched.steps]
    assert tols[0] == pytest.approx(1e-3)
    assert tols[-1] == pytest.approx(1e-4)
    ratios = np.diff(np.log(tols))
    np.testing.assert_allclose(ratios, ratios[0])  # geometric decay


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
    # a step of zero would divide by zero; a negative one would drop a phase
    for bad in [{"p_step": 0.0}, {"p_step": -0.5}, {"beta_step": -4.0},
                {"tol_end": 0.0}, {"p_end": float("inf")}]:
        with pytest.raises(ValueError, match=next(iter(bad))):
            tr.ContinuationSchedule.default(**bad)
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


def test_forward_model_rejects_unknown_method():
    mesh = tr.cantilever_mesh(2, (4, 2))
    pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    F = tr.sample_cantilever_scenarios(mesh, 3, 0)
    with pytest.raises(ConfigError):
        tr.ForwardModel(mesh, tr.Material(1.0, 0.3), pipeline, F, method="magic")


def test_analysis_gradients_match_between_kind_and_weights():
    model = small_model()
    x = np.full(model.mesh.n_elements, 0.5)
    a = model.analyze(x, 3.0, 4.0)
    w = tr.weight_vector(a.stats, "mean_plus_m_std", m=2.0)
    np.testing.assert_array_equal(a.objective_gradient_for("mean_plus_m_std", m=2.0),
                                  a.weighted_gradient(w))


def test_mean_compliance_continuation_small():
    model = small_model()
    problem = tr.MeanComplianceProblem(model, volume_fraction=0.5)
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


def test_volume_fraction_validation():
    model = small_model()
    with pytest.raises(ConfigError):
        tr.MeanComplianceProblem(model, volume_fraction=0.0)
    with pytest.raises(ConfigError):
        tr.MeanStdProblem(model, volume_fraction=1.5)


def test_mean_std_objective_is_higher_than_mean():
    # adding m sigma to the objective cannot produce a lower mean+m*std value
    model_a = small_model(L=12, seed=5)
    mean_res = tr.run_continuation(tr.MeanComplianceProblem(model_a, 0.5),
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
        tr.MeanComplianceProblem(small_model(method="naive", L=16, seed=3), 0.5), sched)
    res_s = tr.run_continuation(
        tr.MeanComplianceProblem(small_model(method="svd", L=16, seed=3), 0.5), sched)
    # same optimization driven by equal gradients: identical iterates
    np.testing.assert_allclose(res_s.x, res_n.x, atol=1e-7)
    assert res_s.total_solves < res_n.total_solves
