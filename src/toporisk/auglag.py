"""Augmented Lagrangian solver for maximum-compliance-constrained volume
minimization.

The problem treated is

    min V(x)  s.t.  C_i(x) <= C_t  for every scenario i,  x in [0, 1]^n_E

relaxed to the box-constrained Powell-Hestenes-Rockafellar (PHR)
augmented Lagrangian

    L(x) = V(x) + r sum_i max(0, g_i + lambda_i / (2 r))^2 - |lambda|^2 / (4 r)

with g = Ct - Ct_t, where Ct denotes compliances divided by a fixed
normalization (the full ground structure's maximum compliance), which
keeps lambda and r in a mesh-independent scale. Its gradient is one
weighted sum, grad V + sum_i w_i grad C_i with w_i = max(0, lambda_i +
2 r g_i) / norm, formed by one `gradient(w, volume_weight=1.0)` call; the
weights are the values the multiplier update below takes, so a
stationary primal point is stationary for exactly the multipliers the
KKT stop reads.

The primal problem for fixed (lambda, r) is solved by the nonmonotone
spectral projected gradient method (SPG; Birgin, Martinez & Raydan 2000,
SIAM J. Optim. 10:1196-1211). Each iteration moves along

    d = P(x - bb grad L) - x

with P the projection onto the box intersected with the trust region
(`projected_gradient_step`). A trial x + alpha d is accepted when it
passes Armijo (`ARMIJO_C`) against the largest of the last `NONMONOTONE_M`
Lagrangian values of the current dual iteration; otherwise alpha shrinks
to the minimizer of the quadratic through L(x), its slope along d and
L(x + alpha d), kept inside [`SHRINK_MIN`, `SHRINK_MAX`] alpha, at most
`MAX_BACKTRACKS` times. The spectral (Barzilai-Borwein) step is
bb = s.s / s.y over the last accepted step s and gradient change y,
clamped to [`BB_MIN`, `BB_MAX`], and `BB_MAX` when s.y <= 0; it starts
at 1 in every call. The gradient at an accepted trial is computed once
and serves both as y and as the next direction.

After each primal phase the multipliers take the projected dual ascent
step

    lambda <- max(0, lambda + 2 r g)

so multipliers of slack constraints decay to zero while violated ones
grow. The penalty coefficient starts at `R_START` and grows by
`R_GROWTH` per dual iteration.

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

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, check_fields
from .mma import scaled_kkt_residual

ARMIJO_C = 1e-4
NONMONOTONE_M = 10  # Lagrangian values the Armijo test compares against
BB_MIN, BB_MAX = 1e-10, 1e10  # clamp of the spectral step
SHRINK_MIN, SHRINK_MAX = 0.1, 0.9  # bounds of a backtrack, as fractions of alpha
MAX_BACKTRACKS = 30  # failed trials before a primal phase stops
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

    `converged` is true only when the last primal phase ended with its
    KKT residual at or below `tol`, not short of it at its iteration cap
    or a stall; it says nothing about the multipliers. `kkt_residual` is
    the last residual that phase computed. A loop that stopped early at a
    KKT point has `converged` true and `n_dual_iters` below the cap.
    `objective` and `objective_start` are the volumes at x and at the
    start point x0, and `evaluation` the one `evaluate` returned at x.
    """

    x: np.ndarray
    objective: float
    objective_start: float
    evaluation: object
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
    """PHR value of L at an evaluated point; no constraint terms if C_t not finite.

    `ev` is an evaluation as `auglag_minimize` describes it, `norm` the
    normalization and `ct_norm` the normalized threshold C_t / norm.
    """
    if not np.isfinite(ct_norm):
        return ev.volume
    shifted = np.maximum(ev.compliances / norm - ct_norm + lam / (2.0 * r), 0.0)
    return ev.volume + r * float(shifted @ shifted) - float(lam @ lam) / (4.0 * r)


def lagrangian_gradient(ev, lam, r, ct_norm, norm):
    """Gradient of `lagrangian` over x, in one `ev.gradient` call."""
    if not np.isfinite(ct_norm):
        return ev.gradient(volume_weight=1.0)
    w = np.maximum(lam + 2.0 * r * (ev.compliances / norm - ct_norm), 0.0) / norm
    return ev.gradient(w, volume_weight=1.0)


def _nonmonotone_search(evaluate, phr, x, direction, slope, L_val, reference):
    """First trial along `direction` that passes Armijo against `reference`.

    Returns (x, evaluation, Lagrangian value) of that trial, or None when
    `MAX_BACKTRACKS` trials all fail. Each failure shrinks alpha to the
    minimizer of the quadratic through L_val, `slope` and the trial's
    value, kept inside [SHRINK_MIN, SHRINK_MAX] alpha.
    """
    alpha = 1.0
    for _ in range(MAX_BACKTRACKS):
        x_trial = np.clip(x + alpha * direction, 0.0, 1.0)
        ev_trial = evaluate(x_trial)
        L_trial = phr(ev_trial)
        if L_trial <= reference + ARMIJO_C * alpha * slope:
            return x_trial, ev_trial, L_trial
        curvature = L_trial - L_val - alpha * slope
        shrink = -0.5 * alpha * slope / curvature if curvature > 0.0 else SHRINK_MIN
        alpha *= min(max(shrink, SHRINK_MIN), SHRINK_MAX)
    return None


def auglag_minimize(evaluate, x0, C_t: float, tol, config: AugLagConfig | None = None,
                    lam=None, normalization: float = 1.0, callback=None) -> AugLagResult:
    """Run the dual loop to a KKT point or its cap; returns the final point.

    Parameters
    ----------
    evaluate : callable
        Maps x to an evaluation exposing `volume` (float), `compliances`
        (raw, ndarray) and `gradient(w=None, volume_weight=0.0)`, the
        gradient over x of w^T C + volume_weight V (`continuation.Analysis`;
        the weights passed in are already normalized).
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
    objective_start = ev.volume
    L_count = ev.compliances.size
    lam = np.ones(L_count) if lam is None else np.array(lam, dtype=float)
    if lam.shape != (L_count,):
        raise ValueError(f"lam must have shape ({L_count},), got {lam.shape}")
    if np.any(lam < 0):
        raise ValueError("multipliers must be nonnegative")
    r = R_START
    ct_norm = C_t / normalization
    bb = 1.0
    total_primal = 0
    violation_history = []

    def phr(ev):
        return lagrangian(ev, lam, r, ct_norm, normalization)

    def phr_gradient(ev):
        return lagrangian_gradient(ev, lam, r, ct_norm, normalization)

    def kkt_residual(x, grad):
        return scaled_kkt_residual(x, grad, float(np.mean(np.abs(lam))))

    for dual_iter in range(config.dual_iters):
        L_val = phr(ev)
        grad = phr_gradient(ev)
        residual = kkt_residual(x, grad)
        recent = deque([L_val], maxlen=NONMONOTONE_M)
        for primal_iter in range(config.primal_iters):
            if residual <= tol:
                break
            direction = projected_gradient_step(x, grad, bb, config.trust_region) - x
            slope = float(grad @ direction)
            if not slope < 0.0:
                break  # no descent left in floating point
            trial = _nonmonotone_search(evaluate, phr, x, direction, slope, L_val, max(recent))
            total_primal += 1
            if trial is not None:
                x_trial, ev_trial, L_trial = trial
                grad_trial = phr_gradient(ev_trial)
                s = x_trial - x
                sy = float(s @ (grad_trial - grad))
                bb = min(max(float(s @ s) / sy, BB_MIN), BB_MAX) if sy > 0.0 else BB_MAX
                x, ev, L_val, grad = x_trial, ev_trial, L_trial, grad_trial
                recent.append(L_val)
                residual = kkt_residual(x, grad)
            if callback is not None:
                callback(dual_iter, primal_iter, x, L_val)
            if trial is None:
                break  # no admissible decrease; let the dual update reshape L
        converged = residual <= tol
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
        objective=ev.volume,
        objective_start=objective_start,
        evaluation=ev,
        max_violation=max_violation * normalization,
        lam=lam,
        r=r,
        kkt_residual=residual,
        n_primal_iters=total_primal,
        n_dual_iters=len(violation_history),
        converged=converged,
        violation_history=violation_history,
    )
