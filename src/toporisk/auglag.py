"""Augmented Lagrangian solver for maximum-compliance-constrained volume
minimization.

The problem treated is

    min V(x)  s.t.  C_i(x) <= C_t  for every scenario i,  x in [0, 1]^n_E

relaxed to the box-constrained augmented Lagrangian

    L(x) = V(x) + sum_i lambda_i (Ct_i - Ct_t) + r sum_i max(Ct_i - Ct_t, 0)^2

where Ct denotes compliances divided by a fixed normalization (the full
ground structure's maximum compliance), which keeps lambda and r in a
mesh-independent scale. The primal problem for fixed (lambda, r) is
solved by projected gradient descent with a backtracking (Armijo) line
search and a trust region; after each primal phase the multipliers take
the projected dual ascent step

    lambda <- max(0, lambda + 2 r (Ct - Ct_t))

using the signed constraint values (the gradient of L in lambda), so
multipliers of slack constraints decay to zero while violated ones grow.
The penalty coefficient grows geometrically per dual iteration.

The loop settings (trust region, dual and primal iteration caps) are one
immutable `AugLagConfig` per run, the `auglag` section of a run config;
the threshold C_t and the starting multipliers are arguments of each
`auglag_minimize` call.

The dual loop stops at a KKT point, the outer stop test of ALGENCAN
(Andreani, Birgin, Martinez & Schuverdt 2008): right after a multiplier
update, when the last primal phase converged (residual <= tol) and

    max_i |min(lambda_i, -(Ct_i - Ct_t))| <= tol * Ct_t

with the updated multipliers. That one number measures feasibility (a
violated constraint enters with its violation) and complementarity (a
slack constraint enters with the smaller of its multiplier and its
slack) together; feasibility alone would stop at a feasible start point
whose multipliers are still wrong. Otherwise the loop runs its full
`dual_iters`.

A non-finite threshold C_t switches the constraint machinery off
entirely, leaving plain volume minimization over the box; the KKT stop
test then does not apply.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, check_fields
from .mma import scaled_kkt_residual

ARMIJO_C = 1e-4
MAX_HALVINGS = 30
STEP_GROWTH = 1.5
R_START = 0.1       # penalty coefficient r of the first dual iteration
R_GROWTH = 3.0      # factor on r per dual iteration


@dataclass(frozen=True)
class AugLagConfig:
    """Loop settings of the augmented Lagrangian, one value for a whole run.

    Defaults follow the benchmark settings: trust region 0.1, at most 10
    dual iterations of at most 50 primal steps each. `dual_iters` is a
    cap: the loop ends earlier at a KKT point. The penalty is not set
    here: it starts at `R_START` and grows by `R_GROWTH` per dual
    iteration. The threshold and the starting multipliers belong to one
    call and are arguments of `auglag_minimize`.
    """

    trust_region: float = 0.1
    dual_iters: int = 10
    primal_iters: int = 50

    def __post_init__(self):
        check_fields(self)
        for name in ("dual_iters", "primal_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.trust_region > 0:
            raise ValueError(f"trust_region must be > 0, got {self.trust_region}")


@dataclass
class AugLagResult:
    """Final point of the dual loop.

    `converged` is true only when the last primal phase stopped on the
    KKT residual reaching `tol`, not on its iteration cap or a stall; it
    says nothing about the multipliers. `kkt_residual` is the last
    residual that phase computed. A loop that stopped early at a KKT
    point has `converged` true and `n_dual_iters` below the cap.
    `objective_start` is the objective at the start point x0.
    """

    x: np.ndarray
    objective: float
    objective_start: float
    compliances: np.ndarray
    max_violation: float
    lam: np.ndarray
    r: float
    kkt_residual: float
    n_primal_iters: int
    n_dual_iters: int
    converged: bool
    violation_history: list = field(default_factory=list)


def projected_gradient_step(x, grad, step, trust_region):
    """One projected step: clip(x - step*grad) onto [0, 1] AND the trust region."""
    lo = np.maximum(0.0, x - trust_region)
    hi = np.minimum(1.0, x + trust_region)
    return np.clip(x - step * grad, lo, hi)


def lagrangian(ev, lam, r, ct_norm, norm):
    """Value of L at an evaluated point; no constraint terms if C_t not finite.

    `ev` is an evaluation as `auglag_minimize` describes it, `norm` the
    normalization and `ct_norm` the normalized threshold C_t / norm.
    """
    if not np.isfinite(ct_norm):
        return ev.objective
    violation = ev.compliances / norm - ct_norm
    M = np.maximum(violation, 0.0)
    return ev.objective + float(lam @ violation) + r * float(M @ M)


def lagrangian_gradient(ev, lam, r, ct_norm, norm):
    """Gradient of `lagrangian` over x, from the evaluation's gradients."""
    if not np.isfinite(ct_norm):
        return ev.objective_gradient()
    M = np.maximum(ev.compliances / norm - ct_norm, 0.0)
    w = (lam + 2.0 * r * M) / norm
    return ev.objective_gradient() + ev.compliance_weighted_gradient(w)


def auglag_minimize(evaluate, x0, C_t: float, tol, config: AugLagConfig | None = None,
                    lam=None, normalization: float = 1.0, callback=None) -> AugLagResult:
    """Run the dual loop to a KKT point or its cap; returns the final point.

    Parameters
    ----------
    evaluate : callable
        Maps x to an evaluation object exposing `objective` (float),
        `compliances` (raw, ndarray), `objective_gradient()` and
        `compliance_weighted_gradient(w)` (both gradients over x; the
        weights passed in are already normalized).
    C_t : float
        Raw (unnormalized) compliance threshold; not finite switches the
        constraints off.
    tol : float
        Primal stopping threshold on the scaled projected KKT residual;
        the dual loop's KKT stop test uses it too, relative to Ct_t.
    config : AugLagConfig, optional
        Trust region and iteration caps; the defaults if omitted.
    lam : array_like, optional
        Nonnegative starting multipliers, one per scenario; ones if omitted.
    normalization : float
        Positive scale dividing compliances and threshold (typically the
        full-design maximum compliance).
    callback : callable, optional
        Called as callback(dual_iter, primal_iter, x, lagrangian_value).

    Raises
    ------
    InfeasibleError
        If a finite threshold is violated by more than 1% at the end and
        the dual loop made no progress on the violation.
    """
    if not normalization > 0:
        raise ValueError("normalization must be positive")
    config = config or AugLagConfig()
    x = np.asarray(x0, dtype=float).copy()
    ev = evaluate(x)
    objective_start = ev.objective
    L_count = ev.compliances.size
    lam = np.ones(L_count) if lam is None else np.array(lam, dtype=float)
    if lam.shape != (L_count,):
        raise ValueError(f"lam must have shape ({L_count},), got {lam.shape}")
    if np.any(lam < 0):
        raise ValueError("multipliers must be nonnegative")
    r = R_START
    ct_norm = C_t / normalization
    max_step = 1.0
    total_primal = 0
    residual = np.inf
    violation_history = []

    converged = False
    for dual_iter in range(config.dual_iters):
        L_val = lagrangian(ev, lam, r, ct_norm, normalization)
        converged = False
        for primal_iter in range(config.primal_iters):
            grad = lagrangian_gradient(ev, lam, r, ct_norm, normalization)
            residual = scaled_kkt_residual(x, grad, 0.0, 1.0,
                                           float(np.mean(np.abs(lam))))
            if residual <= tol:
                converged = True
                break
            # Armijo backtracking over the projected step
            step = max_step
            stalled = True
            for _ in range(MAX_HALVINGS):
                x_trial = projected_gradient_step(x, grad, step, config.trust_region)
                direction = x_trial - x
                if not np.any(direction):
                    break  # projection pinned every coordinate
                ev_trial = evaluate(x_trial)
                L_trial = lagrangian(ev_trial, lam, r, ct_norm, normalization)
                if L_trial <= L_val + ARMIJO_C * float(grad @ direction):
                    x, ev, L_val = x_trial, ev_trial, L_trial
                    max_step = STEP_GROWTH * step
                    stalled = False
                    break
                step *= 0.5
            total_primal += 1
            if callback is not None:
                callback(dual_iter, primal_iter, x, L_val)
            if stalled:
                break  # no admissible decrease; let the dual update reshape L
        signed = ev.compliances / normalization - ct_norm
        violation_history.append(float(np.max(np.maximum(signed, 0.0), initial=0.0)))
        lam = np.maximum(0.0, lam + 2.0 * r * signed)
        r *= R_GROWTH
        # KKT point: stationary, feasible and complementary to tol
        if (converged and np.isfinite(ct_norm)
                and np.max(np.abs(np.minimum(lam, -signed))) <= tol * ct_norm):
            break

    max_violation = violation_history[-1] if violation_history else 0.0
    if (np.isfinite(ct_norm) and max_violation > 0.01 * abs(ct_norm)
            and max_violation >= violation_history[0] and len(violation_history) > 1):
        raise InfeasibleError(
            f"constraint violation {max_violation:.3e} did not decrease over "
            f"{config.dual_iters} dual iterations (threshold {C_t:.6g})"
        )
    return AugLagResult(
        x=x,
        objective=ev.objective,
        objective_start=objective_start,
        compliances=ev.compliances,
        max_violation=max_violation * normalization,
        lam=lam,
        r=r,
        kkt_residual=residual,
        n_primal_iters=total_primal,
        n_dual_iters=len(violation_history),
        converged=converged,
        violation_history=violation_history,
    )
