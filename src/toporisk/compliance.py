"""Compliance statistics and their gradients, naive and SVD-accelerated.

For L loading scenarios f_i, the quantities of interest are the per-load
compliances C_i = f_i^T K^-1 f_i, their sample mean mu_C, sample
variance (denominator L - 1) and standard deviation, plus gradients of
weighted sums w^T C with respect to element densities rho.

Each scalar function f(C) (`mean`, `variance`, `std`, `mean_plus_m_std`;
the augmented Lagrangian's is `auglag.phr`) returns its value and w = df/dC,
so its gradient is that of w^T C.

Both evaluation routes compute C = F^T K^-1 F against a solve basis and
agree up to round-off:

* naive: the basis is F itself (exactly L solves),
* SVD:   the basis is U S from the thin SVD F = (U S) Vt (exactly n_s
         solves), recombined through Vt.

Either basis is zero off the loaded rows and held on them only:
F.loaded_block() for `compliances_naive(sys, F)`, U S for
`compliances_svd(sys, svd)`, which reads the `ThinSVD` alone. Each hands it to `StiffnessSystem.solve(block,
rows=dofs)`, which scatters it into its own work block. The naive route's
L columns take the blocked level-3 sweep and come back row-major; the SVD
route's few columns take LAPACK's column sweep.

Both routes differentiate w^T C through one kernel, `fea.form_gradient`:
(grad_rho C^T w)_e = -sum_ab ke_ab M[d_a, d_b] over the DOFs d of element
e, with M = A Q^T and Q the solves kept on `ComplianceStats`. Each route
hands the kernel Q and its weighting: the naive route the vector w
(A = Q diag(w)), the SVD route the n_s x n_s matrix X = Vt diag(w) Vt^T
(A = Q X), the trace identity of the paper. The kernel forms A one tile
of rows at a time, so no weighted copy of Q is held. It costs
O(n_offsets n_dofs k) for the k columns of Q (L naive, n_s SVD), where
n_offsets is the number of distinct DOF offsets within an element (at
most 11 in 2D, 50 in 3D); it reads the naive route's row-major Q in
place.

The solves are those of the unit structure, and `ke` is its element: C
and every gradient are divided once by the system's stiffness scale
(`StiffnessSystem.scale`, carried on `ComplianceStats.scale`).

Gradients here are with respect to rho; `DensityPipeline.backward` maps
them to the design vector.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TopoRiskError
from .fea import StiffnessSystem, form_gradient
from .mesh import GroundMesh
from .scenarios import ScenarioMatrix, ThinSVD


@dataclass(frozen=True)
class ComplianceStats:
    """Per-load compliances, their sample statistics and the route's solves.

    `Q` = K_unit^-1 basis holds the solves that `weighted_gradient` reads:
    (n_dofs, L) on the naive route, whose basis is F itself, and
    (n_dofs, n_s) on the SVD route, whose basis is U S with F = (U S) Vt.
    Q stays in unit scale, `scale` times the displacements for the
    system's stiffness scale; C, its statistics and the gradients are in
    the material's units. `Vt` is (n_s, L) on the SVD route and None on
    the naive one. The sample variance uses the L - 1 denominator and is
    zero for L = 1. A variance past the float range is inf, and one below
    the normal range loses digits or is zero, yet sigma is formed wherever
    it fits: in those two cases alone, from the deviations scaled by their
    largest.
    """

    C: np.ndarray
    mean: float
    variance: float
    std: float
    Q: np.ndarray | None
    Vt: np.ndarray | None
    scale: float = 1.0

    @classmethod
    def from_compliances(cls, C: np.ndarray, Q=None, Vt=None,
                         scale: float = 1.0) -> "ComplianceStats":
        C = np.asarray(C, dtype=float)
        mean = float(np.mean(C))
        variance = std = 0.0
        if C.size > 1:
            centered = C - mean
            with np.errstate(over="ignore"):  # an overflow is handled below
                variance = float(centered @ centered / (C.size - 1))
            std = float(np.sqrt(variance))
            # past the float range, or subnormal; exact zeros stay zero
            if not np.finfo(float).tiny <= variance < np.inf:
                peak = np.max(np.abs(centered))
                if peak > 0.0:
                    std = float(peak * np.linalg.norm(centered / peak) / np.sqrt(C.size - 1))
        return cls(C=C, mean=mean, variance=variance, std=std, Q=Q, Vt=Vt, scale=scale)


# -- forward evaluations -----------------------------------------------------

def _compliances(sys: StiffnessSystem, dofs: np.ndarray, block: np.ndarray,
                 Vt: np.ndarray | None) -> ComplianceStats:
    """C_i = f_i^T Q Vt[:, i] with Q = K^-1 basis (Vt = I when None).

    `block` holds the basis (F's block, or U S) on the loaded rows `dofs`,
    off which it is zero; the solve scatters it into its own block. The SVD
    route takes C = diag(Vt^T G Vt) from the n_s x n_s matrix G = block^T Q
    on the loaded rows, never forming an n_loaded x L block. Q solves the
    system's unit structure, so C is divided once by its stiffness scale. A
    compliance that is not finite (loads so large that the solve overflows,
    or a stiffness scale so small that the division does) raises
    TopoRiskError: no statistic or gradient is defined from it.
    """
    Q = sys.solve(block, rows=dofs)
    if Vt is None:
        C = np.einsum("ki,ki->i", block, Q[dofs, :])
    else:
        G = block.T @ Q[dofs, :]
        C = np.einsum("ai,ai->i", Vt, G @ Vt)
    C /= sys.scale
    if not np.isfinite(C).all():
        bad = np.flatnonzero(~np.isfinite(C))
        raise TopoRiskError(f"the compliance of scenario {bad[0]} is {C[bad[0]]} "
                            f"({bad.size} of {C.size} are not finite)")
    return ComplianceStats.from_compliances(C, Q, Vt, sys.scale)


def compliances_naive(sys: StiffnessSystem, F: ScenarioMatrix) -> ComplianceStats:
    """All load compliances by L direct solves against F's loaded rows (a
    factored F is multiplied out on every call; `ForwardModel` does it once)."""
    return _compliances(sys, F.dofs, F.loaded_block(), None)


def compliances_svd(sys: StiffnessSystem, svd: ThinSVD) -> ComplianceStats:
    """All load compliances from the thin SVD alone, by n_s solves against U S
    on its loaded rows `svd.dofs`."""
    return _compliances(sys, svd.dofs, svd.U * svd.S[None, :], svd.Vt)


# -- scalar functions of C: (value, w = df/dC) ------------------------------

def sigma_floor(mean: float) -> float:
    """Below this, the compliance dispersion counts as degenerate: a share of
    the mean (compliances are nonnegative), so that it does not depend on
    the units of C, which the stiffness scale divides."""
    return 1e-12 * mean


def mean(stats: ComplianceStats) -> tuple[float, np.ndarray]:
    """mu_C, with w = (1/L) 1."""
    return stats.mean, np.full(stats.C.size, 1.0 / stats.C.size)


def variance(stats: ComplianceStats) -> tuple[float, np.ndarray]:
    """The sample variance, with w = 2/(L-1) (C - mu 1); zero weights at L = 1."""
    L = stats.C.size
    return stats.variance, (2.0 / (L - 1) * (stats.C - stats.mean) if L > 1 else np.zeros(1))


def std(stats: ComplianceStats) -> tuple[float, np.ndarray]:
    """sigma_C, with w = 1/((L-1) sigma) (C - mu 1).

    A degenerate dispersion (sigma at or below `sigma_floor(mu)`, including
    the L = 1 case) yields zero weights: the subgradient choice at the
    kink of sqrt at zero.
    """
    L = stats.C.size
    if L == 1 or stats.std <= sigma_floor(stats.mean):
        return stats.std, np.zeros(L)
    return stats.std, (stats.C - stats.mean) / ((L - 1) * stats.std)


def mean_plus_m_std(stats: ComplianceStats, m: float) -> tuple[float, np.ndarray]:
    """mu_C + m sigma_C, with `mean`'s weights plus m times `std`'s (at m = 0
    both equal `mean`'s bit for bit: sigma and the std weights are finite)."""
    mu, w_mu = mean(stats)
    sigma, w_sigma = std(stats)
    return mu + m * sigma, w_mu + m * w_sigma


# -- gradients over rho -------------------------------------------------------

def _checked_weights(w: np.ndarray, n_scenarios: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (n_scenarios,):
        raise ValueError(f"w must have shape ({n_scenarios},), got {w.shape}")
    return w


def weighted_gradient_naive(stats: ComplianceStats, w: np.ndarray,
                            ke: np.ndarray, mesh: GroundMesh) -> np.ndarray:
    """(grad_rho C^T w)_e = -sum_i w_i u_i^T K_e u_i, with u_i = Q[:, i]
    and `ke` the unit element that Q solved, divided by the stiffness scale."""
    w = _checked_weights(w, stats.Q.shape[1])
    return -form_gradient(mesh, ke, stats.Q, w) / stats.scale


def weighted_gradient_svd(stats: ComplianceStats, w: np.ndarray,
                          ke: np.ndarray, mesh: GroundMesh) -> np.ndarray:
    """(grad_rho C^T w)_e = -tr(X Q_e^T K_e Q_e) with X = Vt diag(w) Vt^T.

    Exact (not an approximation): equals the naive route up to round-off,
    at O(L n_s^2) for X on top of the kernel's cost. Divided by the
    stiffness scale, as the naive route is.
    """
    w = _checked_weights(w, stats.Vt.shape[1])
    X = (stats.Vt * w[None, :]) @ stats.Vt.T
    return -form_gradient(mesh, ke, stats.Q, X) / stats.scale


def weighted_gradient(stats: ComplianceStats, w: np.ndarray,
                      ke: np.ndarray, mesh: GroundMesh) -> np.ndarray:
    """grad_rho (w^T C) from either route's solves in `stats`, without new solves.

    Both routes run `fea.form_gradient`, at O(n_offsets n_dofs k) for the
    k = L (naive) or n_s (SVD) solved columns; they differ only in the
    weighting they hand it, the vector w or the matrix X.
    """
    kernel = weighted_gradient_naive if stats.Vt is None else weighted_gradient_svd
    return kernel(stats, w, ke, mesh)
