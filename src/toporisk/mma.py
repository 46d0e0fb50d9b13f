"""Method of moving asymptotes, specialized to one inequality constraint.

Implements the original MMA update rules (Svanberg 1987) for

    min f(x)  s.t.  c(x) <= 0,  x in [lower, upper]^n

which covers volume-constrained compliance minimization. With a single
constraint the dual of each convex subproblem is one-dimensional, so it
is solved by safeguarded bisection instead of a barrier method; the
optimum is the same, the code far shorter.

Stopping follows the scale-insensitive criterion used by interior-point
solvers: the infinity norm of the projected KKT residual divided by
max(1, |multiplier| / 100).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import check_fields


@dataclass(frozen=True)
class MMAConfig:
    """Asymptote dynamics and subproblem safeguards.

    s_init sets the initial asymptote distance as a fraction of the box
    width; s_incr and s_decr expand or shrink it depending on whether the
    last two steps agreed in sign. The remaining fields are standard
    subproblem safeguards: albefa keeps iterates strictly inside the
    asymptotes, move is a per-iteration move limit, raa0 a small convexity
    floor.
    """

    s_init: float = 0.5
    s_incr: float = 1.1
    s_decr: float = 0.7
    max_iters: int = 1000
    albefa: float = 0.1
    move: float = 0.5
    raa0: float = 1e-5

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.s_init < 1.0:
            raise ValueError(f"s_init must lie in (0, 1), got {self.s_init}")
        if not 0.0 < self.s_decr < 1.0 < self.s_incr:
            raise ValueError("need 0 < s_decr < 1 < s_incr, got "
                             f"s_decr={self.s_decr}, s_incr={self.s_incr}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        if not 0.0 < self.albefa < 1.0:
            raise ValueError(f"albefa must lie in (0, 1), got {self.albefa}")
        if self.move <= 0.0:
            raise ValueError(f"move must be positive, got {self.move}")
        if self.raa0 <= 0.0:
            raise ValueError(f"raa0 must be positive, got {self.raa0}")


@dataclass
class MMAResult:
    x: np.ndarray
    objective: float
    constraint: float
    multiplier: float
    kkt_residual: float
    n_iters: int
    converged: bool
    objective_history: list = field(default_factory=list)


def scaled_kkt_residual(x, lagrangian_grad, lower, upper, multiplier_scale) -> float:
    """Infinity norm of x - proj_box(x - grad L), divided by max(1, s/100)."""
    projected = np.clip(x - lagrangian_grad, lower, upper)
    scale = max(1.0, multiplier_scale / 100.0)
    return float(np.linalg.norm(x - projected, np.inf) / scale)


def _update_asymptotes(iteration, x, xold1, xold2, low, upp, lower, upper, cfg):
    width = upper - lower
    if iteration <= 2:
        return x - cfg.s_init * width, x + cfg.s_init * width
    trend = (x - xold1) * (xold1 - xold2)
    gamma = np.ones_like(x)
    gamma[trend > 0] = cfg.s_incr
    gamma[trend < 0] = cfg.s_decr
    low = x - gamma * (xold1 - low)
    upp = x + gamma * (upp - xold1)
    # Svanberg's safeguards: keep asymptotes at sane distances from x
    low = np.clip(low, x - 10.0 * width, x - 0.01 * width)
    upp = np.clip(upp, x + 0.01 * width, x + 10.0 * width)
    return low, upp


def _pq_coefficients(grad, x, low, upp, width, raa0):
    """Numerators of the p/(upp-x) + q/(x-low) approximation of one function.

    Built so the approximation matches the true value and gradient at x
    exactly (first-order consistency).
    """
    gp = np.maximum(grad, 0.0)
    gn = np.maximum(-grad, 0.0)
    floor = raa0 / np.maximum(width, 1e-5)
    p = (upp - x) ** 2 * (1.001 * gp + 0.001 * gn + floor)
    q = (x - low) ** 2 * (0.001 * gp + 1.001 * gn + floor)
    return p, q


def _primal_from_dual(eta, p0, q0, p1, q1, low, upp, alpha, beta):
    p = p0 + eta * p1
    q = q0 + eta * q1
    sp, sq = np.sqrt(p), np.sqrt(q)
    x = (low * sp + upp * sq) / (sp + sq)
    return np.clip(x, alpha, beta)


def _solve_subproblem(p0, q0, p1, q1, b1, low, upp, alpha, beta):
    """Maximize the 1-D dual by safeguarded bisection; returns (x, eta)."""

    def constraint_at(eta):
        x = _primal_from_dual(eta, p0, q0, p1, q1, low, upp, alpha, beta)
        return x, float(np.sum(p1 / (upp - x) + q1 / (x - low)) - b1)

    x, g = constraint_at(0.0)
    if g <= 0.0:
        return x, 0.0
    lo, hi = 0.0, 1.0
    x, g = constraint_at(hi)
    doublings = 0
    while g > 0.0:
        lo, hi = hi, hi * 2.0
        x, g = constraint_at(hi)
        doublings += 1
        if doublings > 60:
            break  # constraint unreachable within the box; return extreme point
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        x, g = constraint_at(mid)
        if g > 0.0:
            lo = mid
        else:
            hi = mid
    x, _ = constraint_at(hi)  # feasible side of the bracket
    return x, hi


def mma_minimize(objective, constraint, x0, tol, cfg: MMAConfig | None = None,
                 lower=0.0, upper=1.0, callback=None) -> MMAResult:
    """Minimize objective(x) subject to constraint(x) <= 0 over a box.

    Parameters
    ----------
    objective, constraint : callable
        Each maps x to a (value, gradient) pair and must stay finite on
        the box.
    tol : float
        Threshold on the scaled projected KKT residual.
    callback : callable, optional
        Called as callback(iteration, x, objective_value) after each
        accepted iterate.
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
    history = [float(f)]
    eta = 0.0
    residual = np.inf

    for iteration in range(1, cfg.max_iters + 1):
        if not (np.isfinite(f) and np.all(np.isfinite(df))
                and np.isfinite(c) and np.all(np.isfinite(dc))):
            raise ValueError("objective or constraint returned non-finite values")
        low, upp = _update_asymptotes(iteration, x, xold1, xold2, low, upp,
                                      lower, upper, cfg)
        alpha = np.maximum.reduce([lower, low + cfg.albefa * (x - low),
                                   x - cfg.move * width])
        beta = np.minimum.reduce([upper, upp - cfg.albefa * (upp - x),
                                  x + cfg.move * width])
        p0, q0 = _pq_coefficients(df, x, low, upp, width, cfg.raa0)
        p1, q1 = _pq_coefficients(dc, x, low, upp, width, cfg.raa0)
        b1 = float(np.sum(p1 / (upp - x) + q1 / (x - low)) - c)

        x_new, eta = _solve_subproblem(p0, q0, p1, q1, b1, low, upp, alpha, beta)
        xold2, xold1, x = xold1, x, x_new

        f, df = objective(x)
        c, dc = constraint(x)
        history.append(float(f))
        if callback is not None:
            callback(iteration, x, float(f))
        residual = scaled_kkt_residual(x, df + eta * dc, lower, upper, abs(eta))
        if residual <= tol:
            return MMAResult(x=x, objective=float(f), constraint=float(c),
                             multiplier=eta, kkt_residual=residual,
                             n_iters=iteration, converged=True,
                             objective_history=history)

    return MMAResult(x=x, objective=float(f), constraint=float(c),
                     multiplier=eta, kkt_residual=residual,
                     n_iters=cfg.max_iters, converged=False,
                     objective_history=history)
