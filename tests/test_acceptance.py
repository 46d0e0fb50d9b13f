"""Release acceptance suite: one test per criterion, one pass/fail line each.

Run with `python3 -m pytest tests/test_acceptance.py -v`. The criteria are
equivalence of the naive and SVD evaluation routes, exact linear solve
counts, sampler rank, finite difference gradient validation through the
command line, benchmark optimization runs with volume and feasibility
targets, the measured SVD speedup, and a large randomized property suite.
Wall clock budgets are asserted where a criterion carries one.
"""
import json
import time
import warnings

import numpy as np
import pytest

import toporisk as tr
from toporisk import cli
from toporisk import compliance as comp
from oracles import random_scenarios

MATERIAL = tr.Material(youngs_modulus=1.0, poissons_ratio=0.3)


def _model(mesh, scenarios, method, x_min=1e-3, radius=1.5):
    pipeline = tr.DensityPipeline(mesh, radius, x_min=x_min)
    return tr.ForwardModel(mesh, MATERIAL, pipeline, scenarios, method=method)


def test_criterion_1_naive_svd_equivalence_randomized():
    """Both routes agree to 1e-9 relative on 50 random instances in < 60 s."""
    rng = np.random.default_rng(7)
    L_values = (5, 50, 300)
    start = time.perf_counter()
    n_instances = 50
    for k in range(n_instances):
        nx = int(rng.integers(4, 21))
        ny = int(rng.integers(2, 11))
        L = L_values[k % 3]
        rank = int(rng.integers(1, 11))
        mesh = tr.cantilever_mesh(2, (nx, ny))
        F = random_scenarios(mesh, L, rank, seed=int(rng.integers(1 << 31)))
        pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
        x = rng.uniform(0.2, 1.0, mesh.n_elements)
        penalty = float(rng.choice([1.0, 2.5, 4.0]))
        beta = float(rng.choice([0.0, 4.0]))
        field = pipeline.apply(x, penalty, beta)
        ke = tr.element_stiffness(mesh, MATERIAL)
        system = tr.StiffnessSystem.factorize(tr.assemble(mesh, ke, field.physical))

        naive = tr.compliances_naive(system, F)
        svd = tr.thin_svd(F)
        fast = tr.compliances_svd(system, F, svd)

        tag = f"instance {k}: {nx}x{ny}, L={L}, rank={rank}"
        assert abs(fast.mean - naive.mean) <= 1e-9 * abs(naive.mean), tag
        assert abs(fast.variance - naive.variance) <= 1e-9 * naive.variance, tag
        assert abs(fast.std - naive.std) <= 1e-9 * naive.std, tag
        c_scale = np.max(np.abs(naive.C))
        assert np.max(np.abs(fast.C - naive.C)) <= 1e-9 * c_scale, tag

        for kind, params in (("mean", {}), ("variance", {}), ("std", {}),
                             ("mean_plus_m_std", {"m": 2.0})):
            w_n = comp.weight_vector(naive, kind, **params)
            w_s = comp.weight_vector(fast, kind, **params)
            g_n = comp.weighted_gradient_naive(naive, w_n, ke, mesh)
            g_s = comp.weighted_gradient_svd(fast, w_s, ke, mesh)
            g_scale = np.max(np.abs(g_n))
            assert np.max(np.abs(g_s - g_n)) <= 1e-9 * g_scale, f"{tag}, {kind}"
            if kind == "mean":
                px_n = pipeline.backward(field, g_n)
                px_s = pipeline.backward(field, g_s)
                px_scale = np.max(np.abs(px_n))
                assert np.max(np.abs(px_s - px_n)) <= 1e-9 * px_scale, tag

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"equivalence sweep took {elapsed:.1f} s"


def test_criterion_2_exact_solve_counts(solve_spy):
    """Naive costs exactly L solves, SVD exactly n_s; gradients cost none.

    Solves are counted by a spy around `StiffnessSystem.solve` that sums
    the right-hand-side columns, and checked against `total_solves`.
    """
    mesh = tr.cantilever_mesh(2, (8, 4))
    F = tr.sample_cantilever_scenarios(mesh, 25, seed=0)
    svd = tr.thin_svd(F)
    assert svd.n_s == 10

    x = np.random.default_rng(1).uniform(0.3, 0.9, mesh.n_elements)
    for method, expected in (("naive", 25), ("svd", svd.n_s)):
        model = _model(mesh, F, method)
        solve_spy.clear()
        analysis = model.analyze(x, 3.0, 4.0)
        assert sum(solve_spy) == expected, method
        assert model.total_solves == expected, method
        for kind, params in (("mean", {}), ("variance", {}), ("std", {}),
                             ("mean_plus_m_std", {"m": 2.0})):
            analysis.gradient(comp.weight_vector(analysis.stats, kind, **params))
        analysis.gradient(np.random.default_rng(2).standard_normal(25), volume_weight=1.0)
        analysis.gradient(volume_weight=1.0)
        assert sum(solve_spy) == expected, f"{method} gradients added solves"
        assert model.total_solves == expected, f"{method} gradients added solves"


def test_criterion_3_sampler_rank_ten_at_thousand_scenarios():
    """The scenario sampler yields exactly rank 10 at L = 1000, any seed."""
    mesh = tr.cantilever_mesh(2, (12, 6))
    for seed in range(10):
        F = tr.sample_cantilever_scenarios(mesh, 1000, seed=seed)
        svd = tr.thin_svd(F)
        assert svd.n_s == 10, f"seed {seed}: n_s = {svd.n_s}"
        recon = svd.U @ (svd.S[:, None] * svd.Vt)
        err = np.linalg.norm(recon - F.block) / np.linalg.norm(F.block)
        assert err <= 1e-10, f"seed {seed}: reconstruction error {err:.3e}"


def test_criterion_4_gradient_check_cli(tmp_path, capsys):
    """check-grad on a 10x5 mesh passes at 1e-4 within 120 s."""
    cfg = {
        "schema_version": 1,
        "problem": {"kind": "mean", "volume_fraction": 0.4},
        "mesh": {"dim": 2, "cells": [10, 5]},
        "material": {"youngs_modulus": 1.0, "poissons_ratio": 0.3},
        "filter_radius": 1.5,
        "scenarios": {"source": "sample", "L": 8, "seed": 0},
        "method": "naive",
    }
    path = tmp_path / "check.json"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    rc = cli.main(["check-grad", "--config", str(path)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "gradient check passed" in out
    for name in ("mu_C", "sigma_C", "mu+2sigma", "auglag"):
        assert name in out
    assert elapsed < 120.0, f"check-grad took {elapsed:.1f} s"


def test_criterion_5_mean_compliance_benchmark_run():
    """Full continuation on 40x10 with L=200 hits the volume bound and
    descends monotonically across warm starts (1% transient allowance)."""
    mesh = tr.cantilever_mesh(2, (40, 10))
    F = tr.sample_cantilever_scenarios(mesh, 200, seed=0)
    model = _model(mesh, F, "svd")
    problem = tr.MeanStdProblem(model, volume_fraction=0.4, m=0.0)
    start = time.perf_counter()
    result = tr.run_continuation(problem)
    elapsed = time.perf_counter() - start

    volume = result.history[-1]["volume"]
    assert abs(volume - 0.400) <= 1e-3, f"final volume {volume:.5f}"
    ends = [rec["objective_end"] for rec in result.history]
    for k in range(len(ends) - 1):
        assert ends[k + 1] <= ends[k] * 1.01, (
            f"objective rose from {ends[k]:.6e} (step {k}) "
            f"to {ends[k + 1]:.6e} (step {k + 1})"
        )
    assert elapsed < 900.0, f"benchmark run took {elapsed:.1f} s"


def test_criterion_6_risk_averse_tradeoff():
    """m=2 must not raise the compliance spread vs m=0 on the same loads;
    the expected mean increase is reported, not enforced."""
    mesh = tr.cantilever_mesh(2, (20, 6))
    F = tr.sample_cantilever_scenarios(mesh, 40, seed=1)
    results = {}
    for m in (0.0, 2.0):
        model = _model(mesh, F, "svd")
        problem = tr.MeanStdProblem(model, volume_fraction=0.4, m=m)
        res = tr.run_continuation(problem)
        last = problem.model
        results[m] = last.analyze(res.x, 6.0, 20.0).stats

    sigma0, sigma2 = results[0.0].std, results[2.0].std
    mu0, mu2 = results[0.0].mean, results[2.0].mean
    assert sigma2 <= sigma0 * 1.02, (
        f"risk-averse design increased sigma_C: {sigma2:.6e} > {sigma0:.6e}"
    )
    if sigma2 > sigma0:
        warnings.warn(
            f"soft check: sigma_C(m=2) = {sigma2:.6e} above sigma_C(m=0) = "
            f"{sigma0:.6e}, inside the 2% slack"
        )
    if mu2 < mu0 * 0.98:
        warnings.warn(
            f"soft check: expected mu_C(m=2) >= mu_C(m=0), got "
            f"{mu2:.6e} < {mu0:.6e}"
        )


def test_criterion_7_max_compliance_feasibility():
    """Volume minimization under C_i <= C_t lands feasible with V < 1."""
    mesh = tr.cantilever_mesh(2, (20, 10))
    F = tr.sample_cantilever_scenarios(mesh, 50, seed=2)
    model = _model(mesh, F, "svd")
    full = model.analyze(np.ones(mesh.n_elements), 1.0, 0.0)
    C_t = 1.5 * float(np.max(full.stats.C))

    problem = tr.MaxComplianceProblem(model, C_t=C_t)
    start = time.perf_counter()
    result = tr.run_continuation(problem)
    elapsed = time.perf_counter() - start

    final = model.analyze(result.x, 6.0, 20.0)
    worst = float(np.max(final.stats.C))
    assert worst <= 1.01 * C_t, f"max C_i = {worst:.6e} vs C_t = {C_t:.6e}"
    assert final.volume < 1.0, f"no material removed (V = {final.volume:.4f})"
    assert elapsed < 1200.0, f"feasibility run took {elapsed:.1f} s"


def test_criterion_8_svd_speedup_bench(tmp_path):
    """bench on 40x10 with L=1000: SVD under half the naive wall clock and
    exactly 10 solves against the naive 1000, for both statistics."""
    cfg = {
        "schema_version": 1,
        "problem": {"kind": "mean", "volume_fraction": 0.4},
        "mesh": {"dim": 2, "cells": [40, 10]},
        "material": {"youngs_modulus": 1.0, "poissons_ratio": 0.3},
        "filter_radius": 1.5,
        "scenarios": {"source": "sample", "L": 1000, "seed": 0},
        "method": "svd",
    }
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = cli.main(["bench", "--config", str(path), "--out", str(out)])
    assert rc == 0

    lines = (out / "bench.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines[1:]]
    table = {(r[0], r[1]): (float(r[2]), float(r[3]), int(r[4])) for r in rows}
    for stat in ("mu_C", "sigma_C"):
        naive_val, naive_sec, naive_solves = table[(stat, "naive")]
        svd_val, svd_sec, svd_solves = table[(stat, "svd")]
        assert naive_solves == 1000
        assert svd_solves == 10
        assert abs(svd_val - naive_val) <= 1e-9 * abs(naive_val)
        assert svd_sec < 0.5 * naive_sec, (
            f"{stat}: svd {svd_sec:.4f} s vs naive {naive_sec:.4f} s"
        )


def test_criterion_9_property_suite():
    """10000 random cases: density range, monotonicity, filter row sums,
    and adjoint consistency at the gradient check tolerance, in < 60 s."""
    rng = np.random.default_rng(99)
    pipelines = []
    for _ in range(20):
        nx = int(rng.integers(4, 11))
        ny = int(rng.integers(2, 7))
        radius = float(rng.choice([1.01, 1.5, 2.4]))
        mesh = tr.cantilever_mesh(2, (nx, ny))
        pipeline = tr.DensityPipeline(mesh, radius, x_min=1e-3)
        row_sums = np.asarray(pipeline.filter_matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(row_sums, 1.0, atol=1e-12)
        pipelines.append(pipeline)

    start = time.perf_counter()
    n_cases = 10_000
    h = 1e-6
    for case in range(n_cases):
        pipeline = pipelines[case % len(pipelines)]
        n = pipeline.mesh.n_elements
        x = rng.uniform(0.05, 0.95, n)
        penalty = float(rng.uniform(1.0, 6.0))
        beta = float(rng.uniform(0.0, 20.0))
        field = pipeline.apply(x, penalty, beta)

        assert np.all(field.physical >= pipeline.x_min), case
        assert np.all(field.physical <= 1.0), case

        bumped = np.minimum(x + rng.uniform(0.0, 0.3, n), 1.0)
        up = pipeline.apply(bumped, penalty, beta)
        assert np.all(up.physical >= field.physical - 1e-12), case

        g = rng.standard_normal(n)
        analytic = pipeline.backward(field, g)
        scale = max(float(np.max(np.abs(analytic))), 1e-300)
        for i in rng.integers(0, n, size=2):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (g @ pipeline.apply(xp, penalty, beta).physical
                  - g @ pipeline.apply(xm, penalty, beta).physical) / (2.0 * h)
            assert abs(fd - analytic[i]) <= 1e-4 * scale, (
                f"case {case}, element {i}: fd {fd:.6e} vs {analytic[i]:.6e}"
            )

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"property suite took {elapsed:.1f} s"
