"""MMA solver on problems with independently computable optima.

The separable quadratic oracle solves the KKT system by bisection on the
constraint multiplier; the solver's answer must land on it.
"""
import numpy as np
import pytest

import toporisk as tr
from toporisk.mma import scaled_kkt_residual


def projection_oracle(t, vf, n):
    """argmin sum (x_i - t_i)^2 s.t. mean(x) <= vf, 0 <= x <= 1.

    KKT: x = clip(t - eta/(2n), 0, 1) with eta >= 0 picked so the mean
    constraint is tight (it binds whenever mean(clip(t,0,1)) > vf).
    """
    if np.mean(np.clip(t, 0.0, 1.0)) <= vf:
        return np.clip(t, 0.0, 1.0)
    lo, hi = 0.0, 4.0 * n * (np.max(t) + 1.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        x = np.clip(t - mid / (2 * n), 0.0, 1.0)
        if np.mean(x) > vf:
            lo = mid
        else:
            hi = mid
    return np.clip(t - hi / (2 * n), 0.0, 1.0)


def quadratic_problem(t, vf):
    n = t.size

    def objective(x):
        d = x - t
        return float(d @ d), 2.0 * d

    def constraint(x):
        return float(np.mean(x) - vf), np.full(n, 1.0 / n)

    return objective, constraint


def test_config_validation():
    tr.MMAConfig()
    with pytest.raises(ValueError):
        tr.MMAConfig(s_init=0.0)
    with pytest.raises(ValueError):
        tr.MMAConfig(s_incr=0.9)
    with pytest.raises(ValueError):
        tr.MMAConfig(s_decr=1.1)
    with pytest.raises(ValueError):
        tr.MMAConfig(max_iters=0)
    with pytest.raises(ValueError):
        tr.MMAConfig(move=0.0)
    # a wrong type names its field, and an iteration cap must be an integer
    for bad in [{"max_iters": 2.5}, {"max_iters": "ten"}, {"move": True}]:
        with pytest.raises(TypeError, match=next(iter(bad))):
            tr.MMAConfig(**bad)


def test_quadratic_with_inactive_constraint():
    # target inside the feasible set. Plain MMA resolves interior optima
    # only down to the asymptote floor (0.01 of the box width), so the
    # tolerance here reflects the method, not the implementation.
    t = np.array([0.1, 0.2, 0.3, 0.15])
    objective, constraint = quadratic_problem(t, vf=0.5)
    res = tr.mma_minimize(objective, constraint, np.full(4, 0.5), tol=2.5e-2)
    assert res.converged
    np.testing.assert_allclose(res.x, t, atol=2e-2)
    assert res.objective < 1e-3


def test_quadratic_with_bound_solution_converges_tightly():
    # target outside the box: the optimum sits on the bounds, where the
    # projected KKT residual can actually reach zero
    t = np.array([1.3, -0.4, 1.2])

    def objective(x):
        d = x - t
        return float(d @ d), 2.0 * d

    def constraint(x):
        return -1.0, np.zeros(3)

    res = tr.mma_minimize(objective, constraint, np.full(3, 0.5), tol=1e-6)
    assert res.converged
    np.testing.assert_allclose(res.x, [1.0, 0.0, 1.0], atol=1e-6)


def test_quadratic_with_active_constraint_matches_kkt_oracle():
    rng = np.random.default_rng(0)
    for trial in range(5):
        t = rng.uniform(0.2, 1.0, 12)
        vf = 0.3
        objective, constraint = quadratic_problem(t, vf)
        res = tr.mma_minimize(objective, constraint, np.full(12, vf), tol=1e-9)
        expected = projection_oracle(t, vf, 12)
        assert res.converged
        np.testing.assert_allclose(res.x, expected, atol=2e-6)
        assert res.constraint <= 1e-7
        assert res.multiplier > 0  # constraint is active


def test_linear_objective_fills_best_elements():
    # min c.x with mean(x) <= vf: mass goes to the most negative costs
    c = np.array([-5.0, -1.0, -4.0, -0.5, -3.0, -0.2])
    vf = 1.0 / 3.0  # room for exactly two full elements

    def objective(x):
        return float(c @ x), c

    def constraint(x):
        return float(np.mean(x) - vf), np.full(6, 1.0 / 6.0)

    res = tr.mma_minimize(objective, constraint, np.full(6, vf), tol=1e-9)
    assert res.converged
    expected = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(res.x, expected, atol=1e-5)


def test_kkt_residual_zero_at_projected_stationary_point():
    # interior point with zero gradient
    x = np.array([0.5, 0.5])
    assert scaled_kkt_residual(x, np.zeros(2), 0.0, 1.0, 0.0) == 0.0
    # at the lower bound, positive gradients are stationary
    x = np.array([0.0, 1.0])
    g = np.array([2.0, -3.0])
    assert scaled_kkt_residual(x, g, 0.0, 1.0, 0.0) == 0.0
    # pointing inward from the bound is not stationary; the projection
    # caps the reported residual at the box width
    g = np.array([-2.0, 0.0])
    assert scaled_kkt_residual(x, g, 0.0, 1.0, 0.0) == 1.0


def test_kkt_residual_scaling_with_multiplier():
    x = np.array([0.5])
    g = np.array([1e-3])
    loose = scaled_kkt_residual(x, g, 0.0, 1.0, 1e3)
    tight = scaled_kkt_residual(x, g, 0.0, 1.0, 0.0)
    assert loose < tight  # large multipliers relax the absolute threshold


def test_objective_history_and_iteration_cap():
    t = np.full(8, 0.9)
    objective, constraint = quadratic_problem(t, vf=0.3)
    cfg = tr.MMAConfig(max_iters=3)
    res = tr.mma_minimize(objective, constraint, np.full(8, 0.3), tol=1e-16, cfg=cfg)
    assert not res.converged
    assert res.n_iters == 3
    assert len(res.objective_history) == 4  # initial value plus one per iterate


def test_non_finite_oracle_raises():
    def objective(x):
        return np.nan, np.zeros_like(x)

    def constraint(x):
        return 0.0, np.zeros_like(x)

    with pytest.raises(ValueError):
        tr.mma_minimize(objective, constraint, np.full(3, 0.5), tol=1e-6)


def test_custom_bounds_are_respected():
    t = np.array([2.0, -1.0, 0.5])

    def objective(x):
        d = x - t
        return float(d @ d), 2.0 * d

    def constraint(x):
        return -1.0, np.zeros(3)  # never active

    res = tr.mma_minimize(objective, constraint, np.array([0.3, 0.3, 0.5]),
                          tol=1e-8, lower=0.2, upper=0.8)
    assert res.converged
    np.testing.assert_allclose(res.x, [0.8, 0.2, 0.5], atol=1e-6)
