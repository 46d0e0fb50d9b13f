"""Continuation schedule, forward model and the two problem classes."""
import gc
import weakref

import numpy as np
import pytest

import toporisk as tr
from toporisk import continuation
from toporisk.errors import ConfigError, TopoRiskError


def small_model(method="svd", L=8, cells=(6, 3), seed=0):
    mesh = tr.cantilever_mesh(2, cells)
    material = tr.Material(1.0, 0.3)
    pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    F = tr.sample_cantilever_scenarios(mesh, L, seed)
    return tr.ForwardModel(mesh, material, pipeline, F, method=method)


def full_design_max_compliance(model):
    """The full design's largest compliance at p = 1, beta = 0: the scale
    of C_t, as the benchmark harness and the demos compute it."""
    return float(np.max(model.analyze(np.ones(model.mesh.n_elements), 1.0, 0.0).stats.C))


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
    # tolerances that do not fall across several steps name both keys, also
    # when tol_end is below tol_start by less than round-off spreads over the
    # steps; one step has no decay to check
    for tol_end in (1e-3, 2e-3, 1e-3 * (1 - 1e-15)):
        with pytest.raises(ValueError, match=r"^tol_end must be < tol_start \(0\.001\), far "
                                             r"enough below it for 16 strictly decreasing "
                                             rf"tolerances; got {tol_end}$"):
            tr.ContinuationSchedule.default(tol_start=1e-3, tol_end=tol_end)
    one_step = tr.ContinuationSchedule.default(p_end=1.0, beta_end=0.0, tol_end=1e-2)
    assert [s.tolerance for s in one_step.steps] == [1e-3]
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
    calls = {"gradient": 0, "backward": 0, "weighted_gradient": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    counted(tr.Analysis, "gradient")
    counted(tr.DensityPipeline, "backward")
    counted(tr.compliance, "weighted_gradient")
    model = small_model(L=6, seed=2)
    C_t = 2.0 * full_design_max_compliance(model)
    tr.run_continuation(tr.MaxComplianceProblem(model, C_t=C_t), short_schedule())
    assert calls["gradient"] > 0
    assert calls["backward"] == calls["weighted_gradient"] == calls["gradient"]


def test_naive_analysis_builds_no_dense_scenario_matrix():
    """The naive route scatters F's loaded rows straight into the solve: a
    scenario matrix has no dense form to build."""
    assert not hasattr(tr.ScenarioMatrix, "to_dense")
    for cells, L in [((6, 3), 8), ((20, 10), 200)]:  # LAPACK's sweep and the blocked one
        model = small_model(method="naive", L=L, cells=cells)
        analysis = model.analyze(np.full(model.mesh.n_elements, 0.5), 2.0, 0.0)
        assert analysis.stats.C.shape == (L,)


def test_an_svd_model_lets_its_scenario_matrix_go():
    """An SVD model holds its loads as their thin SVD alone: once the caller
    drops F, F and its factors are collected, and the model still analyzes
    as the naive model, which keeps F's loads as one dense block. Both
    report L scenarios."""
    mesh = tr.cantilever_mesh(2, (6, 3))
    pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    F = tr.sample_cantilever_scenarios(mesh, 12, 0)
    naive = tr.ForwardModel(mesh, tr.Material(1.0, 0.3), pipeline, F, method="naive")
    assert np.array_equal(naive.scenarios.block, F.loaded_block())
    assert naive.svd is None and naive.n_scenarios == 12

    F = tr.sample_cantilever_scenarios(mesh, 12, 0)
    refs = weakref.ref(F), weakref.ref(F.basis), weakref.ref(F.coefficients)
    model = tr.ForwardModel(mesh, tr.Material(1.0, 0.3), pipeline, F, method="svd")
    del F
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
    assert model.scenarios is None and model.n_scenarios == 12
    x = np.random.default_rng(3).uniform(0.2, 1.0, mesh.n_elements)
    fast, slow = model.analyze(x, 3.0, 4.0).stats.C, naive.analyze(x, 3.0, 4.0).stats.C
    assert np.max(np.abs(fast - slow)) <= 1e-9 * np.max(slow)


def test_forward_model_rejects_unknown_method():
    mesh = tr.cantilever_mesh(2, (4, 2))
    pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    F = tr.sample_cantilever_scenarios(mesh, 3, 0)
    with pytest.raises(ConfigError):
        tr.ForwardModel(mesh, tr.Material(1.0, 0.3), pipeline, F, method="magic")


@pytest.mark.parametrize("method", ["naive", "svd"])
@pytest.mark.parametrize("cells,n_dofs", [((3, 3), 32), ((12, 3), 104)])
def test_model_refuses_loads_of_another_mesh_before_any_gate(monkeypatch, method, cells, n_dofs):
    """Loads sampled on a 3x3 or a 12x3 cantilever, on a 6x3 model (56
    DOFs): the first would act on unrelated DOFs, the second index past
    the mesh. Both are refused before the memory gate and assembly."""
    def reached(name):
        def fail(*args):
            raise AssertionError(f"{name} reached")
        return fail

    monkeypatch.setattr(continuation, "check_analysis_fits", reached("the memory gate"))
    monkeypatch.setattr(continuation, "assemble", reached("assembly"))
    mesh = tr.cantilever_mesh(2, (6, 3))
    pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    F = tr.sample_cantilever_scenarios(tr.cantilever_mesh(2, cells), 8, 0)
    assert F.n_dofs == n_dofs
    with pytest.raises(ConfigError, match=rf"loads on {n_dofs} DOFs, but the mesh has 56$"):
        tr.ForwardModel(mesh, tr.Material(1.0, 0.3), pipeline, F, method=method)


def test_model_larger_than_physical_memory_is_refused_before_assembly(monkeypatch):
    def assemble(*args):
        raise AssertionError("assembly reached")

    monkeypatch.setattr(continuation, "assemble", assemble)
    monkeypatch.setattr(continuation, "physical_memory_bytes", lambda: 4 * 2**30)
    mesh = tr.cantilever_mesh(3, (64, 32, 32))
    pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    F = tr.sample_cantilever_scenarios(mesh, 4, 0)
    with pytest.raises(ConfigError, match=r"64x32x32 .* 6\.22 GB .* 4\.29 GB"):
        tr.ForwardModel(mesh, tr.Material(1.0, 0.3), pipeline, F)


@pytest.mark.parametrize("method", ["naive", "svd"])
def test_model_refuses_columns_that_fit_only_without_its_loads(monkeypatch, method):
    """Memory between one analysis of the route's k columns and that plus
    the loads the model holds: the naive route's n_loaded x L block, the
    SVD route's sampled factors (n_loaded + L) x 10."""
    mesh = tr.cantilever_mesh(2, (6, 3))
    pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    F = tr.sample_cantilever_scenarios(mesh, 1000, 0)
    assert F.block is None
    k = tr.thin_svd(F).n_s if method == "svd" else F.n_scenarios
    held = F.size if method == "svd" else F.n_loaded * F.n_scenarios
    peak = tr.fea.analysis_bytes(mesh, k)[1]
    monkeypatch.setattr(continuation, "physical_memory_bytes",
                        lambda: peak + 8 * held // 2)
    with pytest.raises(ConfigError, match="scenario loads"):
        tr.ForwardModel(mesh, tr.Material(1.0, 0.3), pipeline, F, method=method)


def test_svd_model_builds_from_factors_with_no_dense_block():
    """16x6x6 at L = 1000 (mean-3d-svd's input): sampling and building the
    SVD model allocate less than one 1227 x 1000 block of loads, so none
    is formed; the naive model forms it once."""
    import tracemalloc

    mesh = tr.cantilever_mesh(3, (16, 6, 6))
    pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    dense_bytes = 8 * mesh.free_surface_dofs().size * 1000
    tracemalloc.start()
    try:
        F = tr.sample_cantilever_scenarios(mesh, 1000, 0)
        model = tr.ForwardModel(mesh, tr.Material(1.0, 0.3), pipeline, F, method="svd")
        svd_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        naive = tr.ForwardModel(mesh, tr.Material(1.0, 0.3), pipeline, F, method="naive")
        naive_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.svd.n_s == 10 and naive.scenarios.block.nbytes == dense_bytes
    assert svd_peak < dense_bytes / 4, f"{svd_peak} bytes against a {dense_bytes}-byte block"
    assert naive_peak >= dense_bytes


@pytest.mark.parametrize("method", ["naive", "svd"])
def test_model_reads_factored_loads_on_fixed_dofs_and_zero_loads(method):
    """The checks of F's loads read a factored F through its factors: a basis
    load on a fixed DOF with nonzero weight, and an all-zero product (on the
    SVD route, S_1 = 0), raise the dense form's ConfigErrors."""
    mesh = tr.cantilever_mesh(2, (6, 3))
    pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    dofs = np.array([2, 13, 21])  # DOF 2 is fixed
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

    def build(loads, weights):
        F = tr.ScenarioMatrix(mesh.n_dofs, dofs, basis=loads, coefficients=weights)
        return tr.ForwardModel(mesh, tr.Material(1.0, 0.3), pipeline, F, method=method)

    with pytest.raises(ConfigError, match="fixed DOF 2;"):
        build(basis, np.ones((2, 5)))
    with pytest.raises(ConfigError, match="every scenario load is zero"):
        build(basis[:, ::-1] * [0.0, 1.0], np.vstack([np.ones(5), np.zeros(5)]))
    model = build(basis * [0.0, 1.0], np.ones((2, 5)))  # the fixed row's load is zero
    assert model.n_scenarios == 5


def _non_finite_loads(mesh, form):
    """Loads of 3 scenarios on the last 4 free DOFs of `mesh`, in `form`."""
    dofs = np.setdiff1d(np.arange(mesh.n_dofs), list(mesh.fixed_dofs))[-4:]
    block = np.ones((4, 3))
    block[3, 1] = np.nan if form == "dense-nan" else np.inf
    if form.startswith("dense"):
        return tr.ScenarioMatrix(mesh.n_dofs, dofs, block=block)
    if form == "factored-inf":
        return tr.ScenarioMatrix(mesh.n_dofs, dofs, basis=block, coefficients=np.eye(3))
    return tr.ScenarioMatrix(mesh.n_dofs, dofs, basis=np.full((4, 2), 1e200),
                             coefficients=np.full((2, 3), 1e200))


@pytest.mark.parametrize("method", ["naive", "svd"])
@pytest.mark.parametrize("form", ["dense-inf", "dense-nan", "factored-inf", "factored-overflow"])
def test_non_finite_loads_raise_on_both_routes(method, form):
    """The SVD model refuses loads that are not finite at set-up; the naive
    model, which does not scan its block, at its first analysis, from its
    compliances. Neither reports them as zero loads or returns C = 0, and
    the naive model multiplies factors out with no RuntimeWarning."""
    mesh = tr.cantilever_mesh(2, (6, 3))
    pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    F = _non_finite_loads(mesh, form)
    material = tr.Material(1.0, 0.3)
    if method == "svd":
        with pytest.raises(TopoRiskError, match="scenario loads are not finite"):
            tr.ForwardModel(mesh, material, pipeline, F, method=method)
        return
    model = tr.ForwardModel(mesh, material, pipeline, F, method=method)
    with pytest.raises(TopoRiskError, match="compliance of scenario"):
        model.analyze(np.full(mesh.n_elements, 0.5), 3.0, 1.0)


@pytest.mark.parametrize("method", ["naive", "svd"])
@pytest.mark.parametrize("factored", [False, True])
def test_loads_without_rows_are_zero_loads(method, factored):
    """A scenario matrix with no loaded rows is the zero-loads ConfigError on
    both routes and in both forms, not an IndexError."""
    mesh = tr.cantilever_mesh(2, (6, 3))
    pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    none = np.array([], dtype=np.int64)
    if factored:
        F = tr.ScenarioMatrix(mesh.n_dofs, none, basis=np.zeros((0, 2)),
                              coefficients=np.ones((2, 3)))
    else:
        F = tr.ScenarioMatrix(mesh.n_dofs, none, block=np.zeros((0, 3)))
    with pytest.raises(ConfigError, match="every scenario load is zero"):
        tr.ForwardModel(mesh, tr.Material(1.0, 0.3), pipeline, F, method=method)


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


@pytest.mark.parametrize("method", ["naive", "svd"])
def test_mean_std_design_does_not_depend_on_the_load_scale(method):
    """Loads x1e140 put the compliances near 1e280 and their variance past
    the float range, not sigma: the mu + 2 sigma run ends on the design of
    loads x1, with the same iterations in every step."""
    mesh = tr.cantilever_mesh(2, (6, 3))
    pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    schedule = tr.ContinuationSchedule.default(p_end=2.0, beta_end=0.0,
                                               tol_start=2e-2, tol_end=1e-2)
    runs = []
    for scale in (1.0, 1e140):
        F = tr.ScenarioMatrix(mesh.n_dofs, [13, 14, 15], scale * np.diag([-1.0, 1.0, -1.0]))
        model = tr.ForwardModel(mesh, tr.Material(1.0, 0.3), pipeline, F, method=method)
        runs.append(tr.run_continuation(tr.MeanStdProblem(model, 0.4, m=2.0), schedule))
    unit, large = runs
    assert np.isinf(large.final.stats.variance)
    assert large.final.stats.std == pytest.approx(1e280 * unit.final.stats.std, rel=1e-9)
    np.testing.assert_allclose(large.x, unit.x, rtol=0, atol=1e-12)
    assert [r["n_iters"] for r in large.history] == [r["n_iters"] for r in unit.history]


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
    C_t = 2.0 * full_design_max_compliance(model)
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
    C_t = 1.5 * full_design_max_compliance(model)
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
        C_t = 1.5 * full_design_max_compliance(small_model(L=6, cells=(8, 4), seed=2))
        problem = tr.MaxComplianceProblem(small_model(L=6, cells=(8, 4), seed=2), C_t=C_t)
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


@pytest.mark.parametrize("kind", ["mean_std", "max_compliance"])
def test_a_second_run_of_one_problem_repeats_a_fresh_run(kind):
    # `prepare` starts every run: a second run neither counts the model's
    # earlier analyses nor starts from the first run's multipliers
    schedule = tr.ContinuationSchedule.default(p_end=3, p_step=1, beta_end=4, beta_step=4)

    def problem_on_a_fresh_model():
        model = small_model(L=10, cells=(12, 6), seed=2)
        if kind == "mean_std":
            return tr.MeanStdProblem(model, 0.5, m=2.0)
        # one analysis of the model before the run, for C_t
        return tr.MaxComplianceProblem(model, C_t=1.5 * full_design_max_compliance(model))

    problem = problem_on_a_fresh_model()
    tr.run_continuation(problem, schedule)
    second = tr.run_continuation(problem, schedule)
    fresh = tr.run_continuation(problem_on_a_fresh_model(), schedule)
    np.testing.assert_array_equal(second.x, fresh.x)
    assert second.history == fresh.history
    assert second.total_solves == fresh.total_solves
    for res in (second, fresh):
        # `prepare`'s analysis, then the steps' own
        assert res.total_analyses == 1 + sum(rec["analyses"] for rec in res.history)


def test_an_mma_step_keeps_at_most_one_earlier_analysis_alive(monkeypatch):
    # the memo lets go of its analysis before it analyzes a new point, and
    # neither MMA nor the previous step's `final` holds one: every analysis
    # starts with no earlier one alive, so an MMA run holds one block of
    # solves at a time
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
    assert max(live_at_call) == 0


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
    C_t = 2.0 * full_design_max_compliance(model)
    analyze_spy.clear()  # the threshold's analysis, outside the run
    res = tr.run_continuation(tr.MaxComplianceProblem(model, C_t=C_t), short_schedule())
    assert len(set(analyze_spy)) == len(analyze_spy)
    fresh = model.analyze(res.x, 2.0, 0.0)
    np.testing.assert_array_equal(res.final.stats.C, fresh.stats.C)
    np.testing.assert_array_equal(res.final.field.physical, fresh.field.physical)
