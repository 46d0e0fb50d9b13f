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
from toporisk.auglag import MAX_BACKTRACKS, _nonmonotone_search, phr, projected_gradient_step
from toporisk.errors import InfeasibleError


class LinearEval:
    """volume = mean(x); compliances C_i = c_i - x_i for the first L coords.

    Exposes what `auglag_minimize` reads of a `continuation.Analysis`."""

    def __init__(self, x, c):
        self.x = np.asarray(x, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.volume = float(np.mean(self.x))
        self.compliances = self.c - self.x[: self.c.size]

    def compliance_gradient(self, w):
        g = np.zeros(self.x.size)
        g[: self.c.size] = -np.asarray(w)
        return g

    def gradient(self, w=None, volume_weight=0.0):
        g = np.full(self.x.size, volume_weight / self.x.size)
        return g if w is None else g + self.compliance_gradient(w)


class ConstantEval(LinearEval):
    """Constraints that no design can influence; never becomes feasible."""

    def __init__(self, x, value):
        super().__init__(x, np.zeros(2))
        self.compliances = np.full(2, value)

    def compliance_gradient(self, w):
        return np.zeros(self.x.size)


def test_projected_gradient_step_box_and_trust_region():
    x = np.array([0.5, 0.05, 0.95])
    g = np.array([1.0, 1.0, -1.0])
    out = projected_gradient_step(x, g, step=10.0, trust_region=0.2)
    np.testing.assert_allclose(out, [0.3, 0.0, 1.0])
    out = projected_gradient_step(x, g, step=1e-3, trust_region=0.2)
    np.testing.assert_allclose(out, x - 1e-3 * g)


class RecordingEval(LinearEval):
    """LinearEval that appends the weights of every gradient it forms to
    `weights`."""

    def __init__(self, x, c, weights):
        super().__init__(x, c)
        self.weights = weights

    def gradient(self, w=None, volume_weight=0.0):
        self.weights.append(None if w is None else np.array(w))
        return super().gradient(w, volume_weight)


def test_lagrangian_gradient_matches_finite_differences():
    # at x the normalized constraints g = (c - x[:2]) / norm - ct are
    # (-0.15, 0.25): the first slack but inside its PHR term
    # (lam + 2 r g = 0.15 > 0), the second violated
    c, norm, ct = np.array([1.0, 1.6]), 2.0, 0.4
    lam, r = np.array([0.3, 0.2]), 0.5
    x = np.array([0.5, 0.3, 0.2, 0.7])

    def L(xv):
        return phr(LinearEval(xv, c), lam, r, ct, norm)[0]

    h = 1e-6
    fd = [(L(x + h * e) - L(x - h * e)) / (2 * h) for e in np.eye(x.size)]
    ev = LinearEval(x, c)
    grad = ev.gradient(phr(ev, lam, r, ct, norm)[1], volume_weight=1.0)
    np.testing.assert_allclose(grad, fd, rtol=1e-8, atol=1e-10)
    assert grad[0] != 0.25 and grad[1] != 0.25  # both constraint terms act


def test_constraint_past_its_phr_kink_has_zero_weight():
    # g_0 = -0.3 < -lam_0 / (2 r) = -0.1: the multiplier update takes lam_0
    # to max(0, lam_0 + 2 r g_0) = 0, and the gradient weights it the same
    c, ct, r = np.array([0.5, 1.3]), 0.8, 0.5
    lam = np.array([0.1, 0.4])
    ev = LinearEval(np.zeros(4), c)
    value, w = phr(ev, lam, r, ct, 1.0)
    grad = ev.gradient(w, volume_weight=1.0)
    g = ev.compliances - ct
    np.testing.assert_array_equal(w, np.maximum(0.0, lam + 2 * r * g))
    assert w[0] == 0.0
    assert grad[0] == 0.25  # the volume term alone
    # the slack constraint leaves only the constant -lam_0^2 / (4 r) in L
    assert value == pytest.approx(
        ev.volume + r * (g[1] + lam[1] / (2 * r)) ** 2 - float(lam @ lam) / (4 * r))


def test_gradient_formed_once_per_accepted_trial_and_dual_iteration():
    c = np.array([1.6, 1.3])
    config = tr.AugLagConfig(dual_iters=6, primal_iters=40, trust_region=0.25)
    xs, weights = [np.ones(4)], []
    res = tr.auglag_minimize(lambda x: RecordingEval(x, c, weights), xs[0], 0.8, tol=1e-7,
                             config=config, callback=lambda d, p, x, L: xs.append(x))
    # an accepted trial moves x; a stalled iteration leaves it
    accepted = sum(not np.array_equal(a, b) for a, b in zip(xs, xs[1:]))
    assert accepted > 0
    assert len(weights) == accepted + res.n_dual_iters


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
    assert res.objective_start == 1.0 > res.objective  # mean(x) at x0 = 1


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

        def compliance_gradient(self, w):
            return super().compliance_gradient(100.0 * np.asarray(w))

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


class ShallowEval(LinearEval):
    """volume = 5e-5 mean(x) under the gradient of mean(x): along every
    descent step the value falls at half the rate Armijo asks, so no trial
    passes, and each backtrack about halves alpha."""

    def __init__(self, x):
        super().__init__(x, [5.0])
        self.volume *= 5e-5


def budgeted(make, budget, calls):
    """`make` as an evaluate that records its points and fails past `budget` calls."""
    def evaluate(x):
        calls.append(np.array(x))
        assert len(calls) <= budget, "more evaluations than the search allows"
        return make(x)
    return evaluate


def test_search_gives_up_after_max_backtracks():
    calls = []
    x, direction = np.full(4, 0.5), np.full(4, -0.1)
    L_val = ShallowEval(x).volume
    trial = _nonmonotone_search(budgeted(ShallowEval, MAX_BACKTRACKS, calls),
                                lambda ev: (ev.volume, None), x, direction, -0.1, L_val, L_val)
    assert trial is None and len(calls) == MAX_BACKTRACKS
    alphas = np.array([np.mean(x - c) / 0.1 for c in calls])
    assert alphas[0] == pytest.approx(1.0) and np.all(alphas[1:] > 0.0)
    np.testing.assert_allclose(alphas[1:] / alphas[:-1], 0.5, rtol=1e-3)


def test_primal_phase_stops_after_a_failed_search():
    # each dual iteration makes one primal iteration, whose search fails
    # after MAX_BACKTRACKS trials, and hands the point to the dual update
    calls, seen = [], []
    config = tr.AugLagConfig(dual_iters=3, primal_iters=20)
    res = tr.auglag_minimize(budgeted(ShallowEval, 1 + 3 * MAX_BACKTRACKS, calls),
                             np.full(4, 0.5), np.inf, tol=1e-9, config=config,
                             callback=lambda d, p, x, L: seen.append((d, p)))
    assert res.n_primal_iters == 3 and seen == [(0, 0), (1, 0), (2, 0)]
    assert len(calls) == 1 + 3 * MAX_BACKTRACKS
    np.testing.assert_array_equal(res.x, np.full(4, 0.5))
    assert not res.converged


def test_primal_phase_stops_where_no_descent_is_left():
    # a trust region below the spacing of floats at x = 0.5 rounds every
    # step to zero: the residual is far above tol, but the slope is 0, and
    # no search is made
    calls = []
    config = tr.AugLagConfig(dual_iters=2, primal_iters=20, trust_region=1e-20)
    res = tr.auglag_minimize(budgeted(lambda x: LinearEval(x, [5.0]), 1, calls),
                             np.full(4, 0.5), np.inf, tol=1e-9, config=config)
    assert res.n_primal_iters == 0 and len(calls) == 1
    assert res.kkt_residual == 0.25 and not res.converged
