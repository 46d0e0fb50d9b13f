"""Method of moving asymptotes, specialized to one inequality constraint.

Implements the original MMA update rules (Svanberg 1987) for

    min f(x)  s.t.  c(x) <= 0,  x in [lower, upper]^n

which covers volume-constrained compliance minimization. With a single
constraint the dual of each convex subproblem is a concave function of
one multiplier eta >= 0 (Svanberg 1987; Svanberg 2007, "MMA and GCMMA"),
so it is maximized by Newton's method on the dual slope, safeguarded by
a bracket, instead of a barrier method; the optimum is the same, the
code far shorter. The slope and its derivative are analytic, and a
subproblem takes about a dozen evaluations of them.

Stopping follows the scale-insensitive criterion used by interior-point
solvers: the infinity norm of the projected KKT residual divided by
max(1, |multiplier| / 100).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_fields

# past this multiplier the constraint counts as unreachable within the
# move limits, and the subproblem returns the point at the cap
ETA_CAP = 2.0**61
# the dual search stops once its bracket is this narrow relative to eta
ETA_REL_TOL = 1e-14
# until a feasible eta is found, a step at most multiplies eta by this
# (and goes no further than 1 from eta = 0)
ETA_GROWTH = 100.0
# Svanberg's fixed constants (1987, and his reference mmasub): the first
# asymptotes sit S_INIT box widths from x; later ones widen by S_INCR where
# the last two steps agreed in sign and narrow by S_DECR where they did
# not; ALBEFA keeps iterates strictly inside the asymptotes and RAA0 is a
# small convexity floor
S_INIT = 0.5
S_INCR = 1.1
S_DECR = 0.7
ALBEFA = 0.1
RAA0 = 1e-5


@dataclass(frozen=True)
class MMAConfig:
    """Loop cap and step limit: at most `max_iters` iterations, each moving
    an element by at most `move` box widths."""

    max_iters: int = 1000
    move: float = 0.5

    def __post_init__(self):
        check_fields(self)
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        if self.move <= 0.0:
            raise ValueError(f"move must be positive, got {self.move}")


@dataclass
class MMAResult:
    x: np.ndarray
    objective: float
    constraint: float
    multiplier: float
    kkt_residual: float
    n_iters: int
    converged: bool
    objective_start: float


def scaled_kkt_residual(x, lagrangian_grad, lower, upper, multiplier_scale) -> float:
    """Infinity norm of x - proj_box(x - grad L), divided by max(1, s/100)."""
    projected = np.clip(x - lagrangian_grad, lower, upper)
    scale = max(1.0, multiplier_scale / 100.0)
    return float(np.linalg.norm(x - projected, np.inf) / scale)


def _update_asymptotes(iteration, x, xold1, xold2, low, upp, lower, upper):
    width = upper - lower
    if iteration <= 2:
        return x - S_INIT * width, x + S_INIT * width
    trend = (x - xold1) * (xold1 - xold2)
    gamma = np.ones_like(x)
    gamma[trend > 0] = S_INCR
    gamma[trend < 0] = S_DECR
    low = x - gamma * (xold1 - low)
    upp = x + gamma * (upp - xold1)
    # Svanberg's safeguards: keep asymptotes at sane distances from x
    low = np.clip(low, x - 10.0 * width, x - 0.01 * width)
    upp = np.clip(upp, x + 0.01 * width, x + 10.0 * width)
    return low, upp


def _pq_coefficients(grad, x, low, upp, width):
    """Numerators of the p/(upp-x) + q/(x-low) approximation of one function.

    Built so the approximation matches the true value and gradient at x
    exactly (first-order consistency).
    """
    gp = np.maximum(grad, 0.0)
    gn = np.maximum(-grad, 0.0)
    floor = RAA0 / np.maximum(width, 1e-5)
    p = (upp - x) ** 2 * (1.001 * gp + 0.001 * gn + floor)
    q = (x - low) ** 2 * (0.001 * gp + 1.001 * gn + floor)
    return p, q


def _evaluate_dual(eta, p0, q0, p1, q1, b1, low, upp, alpha, beta):
    """x(eta), the dual slope g(eta) and its derivative g'(eta), in one pass.

    x(eta) minimizes the subproblem's Lagrangian over [alpha, beta], and
    g(eta) = sum p1/(upp-x) + q1/(x-low) - b1 is the approximated
    constraint there; it falls as eta grows. Clipped elements do not move
    with eta, so g'(eta) sums over the free ones (alpha < x < beta) only:

        g' = -sum (p1/(upp-x)^2 - q1/(x-low)^2)^2 / (2p/(upp-x)^3 + 2q/(x-low)^3)

    with p = p0 + eta*p1 and q = q0 + eta*q1. A free x satisfies
    p/(upp-x)^2 = q/(x-low)^2, which turns each term into the form
    computed here, sqrt(p q) (p1/p - q1/q)^2 / (2 (upp-low)).
    """
    p = p0 + eta * p1
    q = q0 + eta * q1
    sp, sq = np.sqrt(p), np.sqrt(q)
    x = (low * sp + upp * sq) / (sp + sq)
    free = (x > alpha) & (x < beta)
    x = np.clip(x, alpha, beta)
    g = (p1 / (upp - x) + q1 / (x - low)).sum() - b1
    r = p1 / p - q1 / q
    dg = -np.dot(free, sp * sq * r * r / (upp - low)) / 2.0
    return x, float(g), float(dg)


def _solve_subproblem(p0, q0, p1, q1, b1, low, upp, alpha, beta):
    """Maximize the 1-D dual by safeguarded Newton; returns (x, eta).

    The root of the dual slope g is sought with Newton steps
    eta - g/g', each from the last point evaluated. Every evaluation
    tightens the bracket [lo, hi] with g(lo) > 0 >= g(hi); a step that
    leaves it falls back to bisection. Until a feasible eta is known, a
    step is limited to `ETA_GROWTH` times eta. Once Newton's step is
    below `ETA_REL_TOL` * eta, the search walks across the root in steps
    of that length, doubling each time, since round-off in g can keep
    Newton on one side; a walking step that leaves the bracket bisects.
    The search stops when the bracket is narrower than `ETA_REL_TOL` * hi
    and returns the feasible side, hi with x(hi).

    Two branches end early: g(0) <= 0 means the constraint is inactive,
    and eta = 0 is returned; g > 0 still at `ETA_CAP` means it cannot be
    met within the move limits, and the point at the cap is returned.
    """
    def at(eta):
        return _evaluate_dual(eta, p0, q0, p1, q1, b1, low, upp, alpha, beta)

    x, g, dg = at(0.0)
    if g <= 0.0:
        return x, 0.0
    lo, hi, x_hi = 0.0, math.inf, None  # g(lo) > 0 >= g(hi)
    eta, walk = 0.0, 0.0
    while hi == math.inf or hi - lo > ETA_REL_TOL * hi:
        newton = abs(g / dg) if dg < 0.0 else math.inf
        if walk or newton <= ETA_REL_TOL * eta:
            # Newton has converged; cross the root, past any round-off band
            walk = 2.0 * walk if walk else ETA_REL_TOL
            step = walk * eta
        else:
            step = newton
        eta = eta + step if g > 0.0 else eta - step
        if hi == math.inf:
            eta = min(eta, max(ETA_GROWTH * lo, 1.0), ETA_CAP)
        elif not lo < eta < hi:
            eta = 0.5 * (lo + hi)
        x, g, dg = at(eta)
        if g > 0.0:
            if eta == ETA_CAP:
                return x, eta  # constraint unreachable within the move limits
            lo = eta
        else:
            hi, x_hi = eta, x
    return x_hi, hi


def mma_minimize(objective, constraint, x0, tol, cfg: MMAConfig | None = None,
                 lower=0.0, upper=1.0) -> MMAResult:
    """Minimize objective(x) subject to constraint(x) <= 0 over a box.

    Parameters
    ----------
    objective, constraint : callable
        Each maps x to a (value, gradient) pair and must stay finite on
        the box.
    tol : float
        Threshold on the scaled projected KKT residual.
    """
    cfg = cfg or MMAConfig()
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    lower = np.broadcast_to(np.asarray(lower, dtype=float), (n,))
    upper = np.broadcast_to(np.asarray(upper, dtype=float), (n,))
    width = upper - lower
    xold1 = x.copy()
    xold2 = x.copy()
    low = upp = None

    f, df = objective(x)
    c, dc = constraint(x)
    f_start = float(f)
    eta = 0.0
    residual = np.inf

    for iteration in range(1, cfg.max_iters + 1):
        if not (np.isfinite(f) and np.all(np.isfinite(df))
                and np.isfinite(c) and np.all(np.isfinite(dc))):
            raise ValueError("objective or constraint returned non-finite values")
        low, upp = _update_asymptotes(iteration, x, xold1, xold2, low, upp,
                                      lower, upper)
        alpha = np.maximum.reduce([lower, low + ALBEFA * (x - low), x - cfg.move * width])
        beta = np.minimum.reduce([upper, upp - ALBEFA * (upp - x), x + cfg.move * width])
        p0, q0 = _pq_coefficients(df, x, low, upp, width)
        p1, q1 = _pq_coefficients(dc, x, low, upp, width)
        b1 = float(np.sum(p1 / (upp - x) + q1 / (x - low)) - c)

        x_new, eta = _solve_subproblem(p0, q0, p1, q1, b1, low, upp, alpha, beta)
        xold2, xold1, x = xold1, x, x_new

        f, df = objective(x)
        c, dc = constraint(x)
        residual = scaled_kkt_residual(x, df + eta * dc, lower, upper, abs(eta))
        if residual <= tol:
            return MMAResult(x=x, objective=float(f), constraint=float(c),
                             multiplier=eta, kkt_residual=residual,
                             n_iters=iteration, converged=True, objective_start=f_start)

    return MMAResult(x=x, objective=float(f), constraint=float(c),
                     multiplier=eta, kkt_residual=residual,
                     n_iters=cfg.max_iters, converged=False, objective_start=f_start)
