"""MMA solver on problems with independently computable optima.

The separable quadratic oracle solves the KKT system by bisection on the
constraint multiplier; the solver's answer must land on it. The dual of
each subproblem is checked against a bisection oracle the same way.
"""
import numpy as np
import pytest
from oracles import mma_dual_bisection, mma_dual_slope

import toporisk as tr
from toporisk import mma
from toporisk.mma import ETA_CAP, _pq_coefficients, _solve_subproblem, scaled_kkt_residual


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
    assert scaled_kkt_residual(x, np.zeros(2), 0.0) == 0.0
    # at the lower bound, positive gradients are stationary
    x = np.array([0.0, 1.0])
    g = np.array([2.0, -3.0])
    assert scaled_kkt_residual(x, g, 0.0) == 0.0
    # pointing inward from the bound is not stationary; the projection
    # caps the reported residual at the box width
    g = np.array([-2.0, 0.0])
    assert scaled_kkt_residual(x, g, 0.0) == 1.0


def test_kkt_residual_scaling_with_multiplier():
    x = np.array([0.5])
    g = np.array([1e-3])
    loose = scaled_kkt_residual(x, g, 1e3)
    tight = scaled_kkt_residual(x, g, 0.0)
    assert loose < tight  # large multipliers relax the absolute threshold


def test_objective_start_and_iteration_cap():
    t = np.full(8, 0.9)
    objective, constraint = quadratic_problem(t, vf=0.3)
    cfg = tr.MMAConfig(max_iters=3)
    res = tr.mma_minimize(objective, constraint, np.full(8, 0.3), tol=1e-16, cfg=cfg)
    assert not res.converged
    assert res.n_iters == 3
    assert res.objective_start == objective(np.full(8, 0.3))[0]


def test_non_finite_oracle_raises():
    def objective(x):
        return np.nan, np.zeros_like(x)

    def constraint(x):
        return 0.0, np.zeros_like(x)

    with pytest.raises(tr.TopoRiskError, match="non-finite"):
        tr.mma_minimize(objective, constraint, np.full(3, 0.5), tol=1e-6)


def random_subproblem(rng, branch="active"):
    """One MMA subproblem as `mma_minimize` builds it, from random data.

    A random point in [0, 1]^n, asymptotes 0.01 to 10 box widths away,
    a random move limit, objective gradients of either sign and constraint
    gradients mostly positive (as a volume's are), over 1 to 300 elements.
    The constraint value c adds to g(eta); it is drawn so that the
    constraint binds (g(0) > 0 >= g(cap), "active"), is slack at eta = 0
    ("inactive") or cannot be met at the cap ("unreachable").
    """
    n = int(rng.integers(1, 300))
    x = rng.uniform(0.0, 1.0, n)
    low = x - np.exp(rng.uniform(np.log(0.01), np.log(10.0), n))
    upp = x + np.exp(rng.uniform(np.log(0.01), np.log(10.0), n))
    move = rng.uniform(0.05, 1.0)
    alpha = np.maximum.reduce([np.zeros(n), low + 0.1 * (x - low), x - move])
    beta = np.minimum.reduce([np.ones(n), upp - 0.1 * (upp - x), x + move])
    df = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    dc = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 1) + rng.uniform(0.0, 1.0)
    p0, q0 = _pq_coefficients(df, x, low, upp)
    p1, q1 = _pq_coefficients(dc, x, low, upp)
    b1 = float(np.sum(p1 / (upp - x) + q1 / (x - low)))  # c = 0
    args = [p0, q0, p1, q1, b1, low, upp, alpha, beta]
    g_0 = mma_dual_slope(0.0, *args)[1]
    g_cap = mma_dual_slope(ETA_CAP, *args)[1]
    if not g_0 > g_cap:
        return random_subproblem(rng, branch)  # every element clipped for every eta
    margin = rng.uniform(0.01, 1.0) * (abs(g_0) + abs(g_cap))
    c = {"active": rng.uniform(-g_0, -g_cap), "inactive": -g_0 - margin,
         "unreachable": -g_cap + margin}[branch]
    args[4] = b1 - c
    return tuple(args)


def test_dual_derivative_matches_finite_differences():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(100):
        args = random_subproblem(rng)
        eta = mma_dual_bisection(*args)[1] * rng.uniform(0.5, 2.0)
        h = 1e-6 * eta
        (x_minus, g_minus), (x_plus, g_plus) = (mma_dual_slope(eta - h, *args),
                                                mma_dual_slope(eta + h, *args))
        alpha, beta = args[-2:]
        clipped_minus = (x_minus == alpha) | (x_minus == beta)
        if not np.array_equal(clipped_minus, (x_plus == alpha) | (x_plus == beta)):
            continue  # an element clips in between: g has a kink there
        x, g, dg = mma._evaluate_dual(eta, *args)
        np.testing.assert_array_equal(x, mma_dual_slope(eta, *args)[0])
        assert g == pytest.approx(mma_dual_slope(eta, *args)[1], rel=1e-12, abs=1e-14)
        assert dg == pytest.approx((g_plus - g_minus) / (2 * h), rel=1e-5)
        checked += 1
    assert checked > 80


def test_newton_dual_matches_bisection_oracle(monkeypatch):
    rng = np.random.default_rng(7)
    subproblems = [random_subproblem(rng) for _ in range(300)]
    calls, evaluate = [], mma._evaluate_dual
    monkeypatch.setattr(mma, "_evaluate_dual", lambda *a: calls.append(a[0]) or evaluate(*a))
    solutions = [_solve_subproblem(*args) for args in subproblems]
    monkeypatch.undo()
    # a bisection to round-off takes about 104 evaluations
    assert len(calls) / len(subproblems) <= 25
    for args, (x, eta) in zip(subproblems, solutions):
        x_ref, eta_ref = mma_dual_bisection(*args)
        # round-off in g, about eps times its terms, blurs its root by that
        # over |g'|; the subproblems drawn here resolve eta far finer
        _, _, dg = mma._evaluate_dual(eta_ref, *args)
        p1, q1, b1, low, upp = args[2], args[3], args[4], args[5], args[6]
        terms = np.sum(np.abs(p1 / (upp - x_ref)) + np.abs(q1 / (x_ref - low))) + abs(b1)
        assert abs(eta - eta_ref) <= 1e-12 * eta_ref + np.finfo(float).eps * terms / abs(dg)
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-12)
        assert mma_dual_slope(eta, *args)[1] <= 0.0  # the feasible side


def test_dual_edge_branches_match_bisection_oracle():
    rng = np.random.default_rng(3)
    # inactive: g(0) <= 0, so eta = 0 and x(0)
    for _ in range(20):
        args = random_subproblem(rng, "inactive")
        x, eta = _solve_subproblem(*args)
        x_ref, eta_ref = mma_dual_bisection(*args)
        assert eta == eta_ref == 0.0
        np.testing.assert_array_equal(x, x_ref)
    # unreachable: g(cap) > 0, so the point at the cap
    for _ in range(20):
        args = random_subproblem(rng, "unreachable")
        x, eta = _solve_subproblem(*args)
        x_ref, eta_ref = mma_dual_bisection(*args)
        assert eta == eta_ref == ETA_CAP
        np.testing.assert_array_equal(x, x_ref)
    # made by hand, one element: asymptotes -1 and 2, box [0.25, 0.75],
    # constraint 1/(2 - x) <= 0.5, at best 1/1.75 on the box
    one = np.ones(1)

    def solve(b1):
        args = (one, one, one, 0.0 * one, b1, -one, 2.0 * one, 0.25 * one, 0.75 * one)
        return _solve_subproblem(*args), mma_dual_bisection(*args)[1]

    (x, eta), _ = solve(0.5)
    assert eta == ETA_CAP and x[0] == 0.25
    # ... at most 0.7: slack at x(0) = 0.5, where 1/(2 - x) = 2/3
    (x, eta), _ = solve(0.7)
    assert eta == 0.0 and x[0] == 0.5
    # ... at most 0.6: binds at x = 2 - 1/0.6 = 1/3
    (x, eta), eta_ref = solve(0.6)
    assert x[0] == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert eta == pytest.approx(eta_ref, rel=1e-12)
