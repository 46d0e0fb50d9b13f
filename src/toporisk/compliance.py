"""Compliance statistics and their gradients, naive and SVD-accelerated.

For L loading scenarios f_i, the quantities of interest are the per-load
compliances C_i = f_i^T K^-1 f_i, their sample mean mu_C, sample
variance (denominator L - 1) and standard deviation, plus gradients of
weighted sums w^T C with respect to element densities rho.

Both evaluation routes compute C = F^T K^-1 F against a solve basis and
agree up to round-off:

* naive: the basis is F itself (exactly L solves),
* SVD:   the basis is U S from the thin SVD F = (U S) Vt (exactly n_s
         solves), recombined through Vt.

Either basis is zero off F's loaded rows and is held on those rows only
(F.block, or U S), so each route hands them to
`StiffnessSystem.solve(block, rows=F.dofs)`, which scatters them into its
own work block: no dense n_dofs x L copy of F is built. The naive route's
L columns take the blocked level-3 sweep and come back row-major; the SVD
route's few columns take LAPACK's column sweep.

Both routes differentiate w^T C through one kernel, `fea.form_gradient`:
(grad_rho C^T w)_e = -sum_ab ke_ab M[d_a, d_b] over the DOFs d of element
e, with M = A Q^T and Q the solves kept on `ComplianceStats`. The naive
route takes A = Q diag(w); the SVD route takes A = Q X with
X = Vt diag(w) Vt^T, the trace identity of the paper. The kernel costs
O(n_offsets n_dofs k) for the k columns of Q (L naive, n_s SVD), where
n_offsets is the number of distinct DOF offsets within an element (at
most 11 in 2D, 50 in 3D); it reads the naive route's row-major Q in
place.

Gradients here are with respect to rho; `DensityPipeline.backward` maps
them to the design vector.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fea import StiffnessSystem, form_gradient
from .mesh import GroundMesh
from .scenarios import ScenarioMatrix, ThinSVD

WEIGHT_KINDS = ("mean", "variance", "std", "mean_plus_m_std")


@dataclass(frozen=True)
class ComplianceStats:
    """Per-load compliances, their sample statistics and the route's solves.

    `Q` = K^-1 basis holds the solves that `weighted_gradient` reads:
    (n_dofs, L) on the naive route, whose basis is F itself, and
    (n_dofs, n_s) on the SVD route, whose basis is U S with F = (U S) Vt.
    `Vt` is (n_s, L) on the SVD route and None on the naive one. The
    sample variance uses the L - 1 denominator and is zero for L = 1.
    """

    C: np.ndarray
    mean: float
    variance: float
    std: float
    Q: np.ndarray | None
    Vt: np.ndarray | None

    @classmethod
    def from_compliances(cls, C: np.ndarray, Q=None, Vt=None) -> "ComplianceStats":
        C = np.asarray(C, dtype=float)
        mean = float(np.mean(C))
        if C.size > 1:
            centered = C - mean
            variance = float(centered @ centered / (C.size - 1))
        else:
            variance = 0.0
        return cls(C=C, mean=mean, variance=variance, std=float(np.sqrt(variance)), Q=Q, Vt=Vt)


# -- forward evaluations -----------------------------------------------------

def _compliances(sys: StiffnessSystem, F: ScenarioMatrix, block: np.ndarray,
                 Vt: np.ndarray | None) -> ComplianceStats:
    """C_i = f_i^T Q Vt[:, i] with Q = K^-1 basis (Vt = I when None).

    The basis is zero off F's loaded rows and `block` holds it there; the
    solve scatters it into the block it sweeps. The SVD route takes
    C = diag(Vt^T G Vt) from the n_s x n_s matrix G = block^T Q on the
    loaded rows, never forming an n_loaded x L block.
    """
    Q = sys.solve(block, rows=F.dofs)
    if Vt is None:
        C = np.einsum("ki,ki->i", F.block, Q[F.dofs, :])
    else:
        G = block.T @ Q[F.dofs, :]
        C = np.einsum("ai,ai->i", Vt, G @ Vt)
    return ComplianceStats.from_compliances(C, Q, Vt)


def compliances_naive(sys: StiffnessSystem, F: ScenarioMatrix) -> ComplianceStats:
    """All load compliances by L direct solves against F's loaded rows."""
    return _compliances(sys, F, F.block, None)


def compliances_svd(sys: StiffnessSystem, F: ScenarioMatrix, svd: ThinSVD) -> ComplianceStats:
    """All load compliances from the thin SVD, by n_s solves against U S."""
    if svd.Vt.shape[1] != F.n_scenarios or not np.array_equal(svd.dofs, F.dofs):
        raise ValueError("SVD does not belong to this scenario matrix")
    return _compliances(sys, F, svd.U * svd.S[None, :], svd.Vt)


# -- weight vectors for scalar objectives ------------------------------------

def sigma_floor(mean: float) -> float:
    """Below this, the compliance dispersion counts as degenerate."""
    return 1e-12 * max(1.0, mean)


def weight_vector(stats: ComplianceStats, kind: str, *, m: float | None = None) -> np.ndarray:
    """Gradient weights w such that grad(f(C)) = grad(C)^T w.

    Kinds
    -----
    mean            w = (1/L) 1
    variance        w = 2/(L-1) (C - mu 1)
    std             w = 1/((L-1) sigma) (C - mu 1)
    mean_plus_m_std w_mean + m * w_std  (requires m)

    The augmented Lagrangian's weights belong to `auglag.lagrangian_gradient`.

    For the std-based kinds, a degenerate dispersion (sigma at or below
    `sigma_floor(mu)`, including the L = 1 case) yields zero std weights:
    the subgradient choice at the kink of sqrt at zero.
    """
    C, L = stats.C, stats.C.size
    if kind == "mean":
        return np.full(L, 1.0 / L)
    if kind == "variance":
        if L == 1:
            return np.zeros(1)
        return 2.0 / (L - 1) * (C - stats.mean)
    if kind == "std":
        if L == 1 or stats.std <= sigma_floor(stats.mean):
            return np.zeros(L)
        return (C - stats.mean) / ((L - 1) * stats.std)
    if kind == "mean_plus_m_std":
        if m is None:
            raise ValueError("mean_plus_m_std requires the multiplier m")
        return weight_vector(stats, "mean") + m * weight_vector(stats, "std")
    raise ValueError(f"unknown weight kind {kind!r}; expected one of {WEIGHT_KINDS}")


# -- gradients over rho -------------------------------------------------------

def _checked_weights(w: np.ndarray, n_scenarios: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (n_scenarios,):
        raise ValueError(f"w must have shape ({n_scenarios},), got {w.shape}")
    return w


def weighted_gradient_naive(stats: ComplianceStats, w: np.ndarray,
                            ke: np.ndarray, mesh: GroundMesh) -> np.ndarray:
    """(grad_rho C^T w)_e = -sum_i w_i u_i^T K_e u_i, with u_i = Q[:, i]."""
    w = _checked_weights(w, stats.Q.shape[1])
    return -form_gradient(mesh, ke, stats.Q * w[None, :], stats.Q)


def weighted_gradient_svd(stats: ComplianceStats, w: np.ndarray,
                          ke: np.ndarray, mesh: GroundMesh) -> np.ndarray:
    """(grad_rho C^T w)_e = -tr(X Q_e^T K_e Q_e) with X = Vt diag(w) Vt^T.

    Exact (not an approximation): equals the naive route up to round-off,
    at O(L n_s^2) for X on top of the kernel's cost.
    """
    w = _checked_weights(w, stats.Vt.shape[1])
    X = (stats.Vt * w[None, :]) @ stats.Vt.T
    return -form_gradient(mesh, ke, stats.Q @ X, stats.Q)


def weighted_gradient(stats: ComplianceStats, w: np.ndarray,
                      ke: np.ndarray, mesh: GroundMesh) -> np.ndarray:
    """grad_rho (w^T C) from either route's solves in `stats`, without new solves.

    Both routes run `fea.form_gradient`, at O(n_offsets n_dofs k) for the
    k = L (naive) or n_s (SVD) solved columns; they differ only in the
    matrix A that weights the solves.
    """
    kernel = weighted_gradient_naive if stats.Vt is None else weighted_gradient_svd
    return kernel(stats, w, ke, mesh)
