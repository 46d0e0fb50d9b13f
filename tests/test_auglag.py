"""Augmented Lagrangian loop on synthetic problems with known optima.

The stand-in "compliances" are linear decreasing functions of the design,
so the constrained minimum and its multipliers follow from one line of
KKT algebra: minimizing mean(x) under c_i - x_i <= C_t puts x_i exactly
at c_i - C_t with multiplier 1/n, and every unconstrained coordinate at
the lower bound.
"""
import numpy as np
import pytest

import toporisk as tr
from toporisk.auglag import projected_gradient_step
from toporisk.errors import InfeasibleError


class LinearEval:
    """objective = mean(x); compliances C_i = c_i - x_i for the first L coords."""

    def __init__(self, x, c):
        self.x = np.asarray(x, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.objective = float(np.mean(self.x))
        self.compliances = self.c - self.x[: self.c.size]

    def objective_gradient(self):
        return np.full(self.x.size, 1.0 / self.x.size)

    def compliance_weighted_gradient(self, w):
        g = np.zeros(self.x.size)
        g[: self.c.size] = -np.asarray(w)
        return g


class ConstantEval(LinearEval):
    """Constraints that no design can influence; never becomes feasible."""

    def __init__(self, x, value):
        super().__init__(x, np.zeros(2))
        self.compliances = np.full(2, value)

    def compliance_weighted_gradient(self, w):
        return np.zeros(self.x.size)


def test_projected_gradient_step_box_and_trust_region():
    x = np.array([0.5, 0.05, 0.95])
    g = np.array([1.0, 1.0, -1.0])
    out = projected_gradient_step(x, g, step=10.0, trust_region=0.2)
    np.testing.assert_allclose(out, [0.3, 0.0, 1.0])
    out = projected_gradient_step(x, g, step=1e-3, trust_region=0.2)
    np.testing.assert_allclose(out, x - 1e-3 * g)


def test_state_validation():
    with pytest.raises(ValueError):
        tr.auglag_minimize(lambda x: LinearEval(x, [1.5]), np.full(4, 0.5),
                           1.0, tol=1e-6, normalization=0.0)
    for bad in [{"dual_iters": 0}, {"trust_region": 0.0}]:
        with pytest.raises(ValueError, match=next(iter(bad))):
            tr.AugLagConfig(**bad)
    for bad in [{"primal_iters": 2.5}, {"dual_iters": True}, {"trust_region": "wide"}]:
        with pytest.raises(TypeError, match=next(iter(bad))):
            tr.AugLagConfig(**bad)
    for lam in [np.ones(3), -np.ones(1)]:  # wrong length for L=1; negative
        with pytest.raises(ValueError):
            tr.auglag_minimize(lambda x: LinearEval(x, [1.5]), np.full(4, 0.5),
                               1.0, tol=1e-6, lam=lam)


def test_linear_problem_reaches_kkt_point():
    c = np.array([1.6, 1.3])
    C_t = 0.8
    config = tr.AugLagConfig(dual_iters=14, primal_iters=80, trust_region=0.25)
    res = tr.auglag_minimize(lambda x: LinearEval(x, c), np.ones(4), C_t,
                             tol=1e-7, config=config)
    # x_i = c_i - C_t on the constrained coordinates, lower bound elsewhere
    np.testing.assert_allclose(res.x[:2], c - C_t, atol=2e-3)
    np.testing.assert_allclose(res.x[2:], 0.0, atol=1e-6)
    assert res.max_violation <= 1e-3
    # stationarity multipliers: d mean/dx_i = 1/4 balances lam_i
    np.testing.assert_allclose(res.lam, 0.25, atol=0.05)
    assert res.objective == pytest.approx(np.mean([0.8, 0.5, 0.0, 0.0]), abs=1e-3)


def test_loop_started_at_the_kkt_point_stops_after_one_dual_iteration():
    c = np.array([1.6, 1.3])
    C_t = 0.8
    x_star = np.array([0.8, 0.5, 0.0, 0.0])  # c - C_t, lower bound elsewhere
    config = tr.AugLagConfig(dual_iters=14, primal_iters=80, trust_region=0.25)
    res = tr.auglag_minimize(lambda x: LinearEval(x, c), x_star, C_t, tol=1e-7,
                             config=config, lam=np.full(2, 0.25))
    assert res.n_dual_iters == 1
    assert res.n_primal_iters == 0  # stationary at once: no primal step
    assert res.converged
    np.testing.assert_array_equal(res.x, x_star)
    np.testing.assert_allclose(res.lam, 0.25)


def test_feasible_start_with_wrong_multipliers_does_not_stop():
    # at x = (1, 1, 0, 0) with lam = 1 the constraints hold with slack 0.2
    # and 0.5 and the primal phase is stationary at once, but unit
    # multipliers on slack constraints break complementarity; a test on
    # the violation alone would stop after dual iteration 0
    c = np.array([1.6, 1.3])
    config = tr.AugLagConfig(dual_iters=14, primal_iters=80, trust_region=0.25)
    seen = []
    res = tr.auglag_minimize(lambda x: LinearEval(x, c), np.array([1.0, 1.0, 0.0, 0.0]),
                             0.8, tol=1e-7, config=config, lam=np.ones(2),
                             callback=lambda d, p, x, L: seen.append(d))
    assert res.violation_history[0] == 0.0
    assert seen and 0 not in seen  # dual iteration 0 took no primal step
    assert res.n_dual_iters > 1
    np.testing.assert_allclose(res.x[:2], c - 0.8, atol=2e-3)


def test_unconverged_primal_phase_does_not_stop():
    # one primal step from x = 1 leaves both constraints slack with zero
    # multipliers: feasible and complementary, but not yet stationary
    c = np.array([1.6, 1.3])
    config = tr.AugLagConfig(dual_iters=4, primal_iters=1, trust_region=0.1)
    res = tr.auglag_minimize(lambda x: LinearEval(x, c), np.ones(4), 0.8,
                             tol=1e-7, config=config, lam=np.zeros(2))
    assert res.violation_history[0] == 0.0
    assert not res.converged
    assert res.n_dual_iters == config.dual_iters


def test_infinite_threshold_reduces_to_unconstrained_descent():
    # C_t = inf drops every constraint term; the volume objective then
    # drives the design to the lower bound
    config = tr.AugLagConfig(dual_iters=3, primal_iters=60, trust_region=0.5)
    res = tr.auglag_minimize(lambda x: LinearEval(x, [5.0]), np.full(4, 0.9),
                             np.inf, tol=1e-9, config=config)
    np.testing.assert_allclose(res.x, 0.0, atol=1e-9)
    assert res.max_violation == 0.0
    assert np.all(np.isfinite(res.lam))


def test_unsatisfiable_constraints_raise():
    config = tr.AugLagConfig(dual_iters=4, primal_iters=10)
    with pytest.raises(InfeasibleError):
        tr.auglag_minimize(lambda x: ConstantEval(x, 2.0), np.full(3, 0.5),
                           1.0, tol=1e-6, config=config)


def test_feasible_constant_constraints_do_not_raise():
    config = tr.AugLagConfig(dual_iters=3, primal_iters=30)
    res = tr.auglag_minimize(lambda x: ConstantEval(x, 2.0), np.full(3, 0.5),
                             3.0, tol=1e-9, config=config)
    assert res.max_violation == 0.0
    np.testing.assert_allclose(res.x, 0.0, atol=1e-9)


def test_normalization_scales_threshold():
    # same problem expressed in raw units 100x larger must give the same design
    c = np.array([1.6, 1.3])
    config = tr.AugLagConfig(dual_iters=14, primal_iters=80, trust_region=0.25)
    base = tr.auglag_minimize(lambda x: LinearEval(x, c), np.ones(4), 0.8,
                              tol=1e-7, config=config)

    class Scaled(LinearEval):
        def __init__(self, x):
            super().__init__(x, c)
            self.compliances = 100.0 * self.compliances

        def compliance_weighted_gradient(self, w):
            return super().compliance_weighted_gradient(100.0 * np.asarray(w))

    scaled = tr.auglag_minimize(Scaled, np.ones(4), 80.0, tol=1e-7, config=config,
                                normalization=100.0)
    # not bitwise: the x100 round trip rounds differently inside the line
    # search, but the designs must agree to optimization accuracy
    np.testing.assert_allclose(scaled.x, base.x, atol=1e-5)


def test_callback_sees_every_primal_iteration():
    seen = []
    config = tr.AugLagConfig(dual_iters=2, primal_iters=5)
    tr.auglag_minimize(lambda x: LinearEval(x, np.array([1.5])), np.ones(3),
                       0.8, tol=1e-12, config=config,
                       callback=lambda d, p, x, L: seen.append((d, p)))
    assert seen
    assert all(d < 2 and p < 5 for d, p in seen)
