"""Benchmark problem definitions and the two-phase continuation driver.

Continuation first sweeps the SIMP penalty p upward at beta = 0, then
sharpens the Heaviside projection beta at the final penalty, warm
starting every step from the previous solution. One geometrically
decreasing tolerance sequence spans both phases. Objectives are scaled
by the inverse of their value at the initial design of the run, so
solver tolerances mean the same thing across problems and mesh sizes.

Three problem classes cover the benchmark studies:

* `MeanComplianceProblem`:  min mu_C          s.t. volume <= vf
* `MeanStdProblem`:         min mu_C + m*sigma_C  s.t. volume <= vf
* `MaxComplianceProblem`:   min volume        s.t. C_i <= C_t for all i

The first two are solved per step with MMA, the last with the augmented
Lagrangian method. All three evaluate compliances either naively or via
the scenario matrix's thin SVD; the choice only affects cost, never
values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import compliance as comp
from .auglag import AugLagConfig, auglag_minimize
from .errors import ConfigError, check_number
from .fea import StiffnessSystem, assemble, element_stiffness
from .mesh import GroundMesh, Material
from .mma import MMAConfig, mma_minimize
from .pipeline import DensityPipeline
from .scenarios import SVD_REL_TOL, ScenarioMatrix, thin_svd

METHODS = ("naive", "svd")


@dataclass(frozen=True)
class ContinuationStep:
    penalty: float
    beta: float
    tolerance: float


@dataclass(frozen=True)
class ContinuationSchedule:
    steps: tuple

    def __post_init__(self):
        if not self.steps:
            raise ValueError("schedule needs at least one step")
        penalties = [s.penalty for s in self.steps]
        betas = [s.beta for s in self.steps]
        tols = [s.tolerance for s in self.steps]
        # phase 1 raises p at fixed beta, phase 2 raises beta at fixed p;
        # lexicographic (p, beta) must be strictly increasing throughout
        pairs = list(zip(penalties, betas))
        if any(b >= a for a, b in zip(pairs[1:], pairs)):
            raise ValueError("(penalty, beta) pairs must increase strictly")
        if len(tols) > 1 and any(b >= a for a, b in zip(tols, tols[1:])):
            raise ValueError("tolerances must decrease strictly")

    @classmethod
    def default(cls, p_start=1.0, p_end=6.0, p_step=0.5,
                beta_end=20.0, beta_step=4.0,
                tol_start=1e-3, tol_end=1e-4) -> "ContinuationSchedule":
        """p from 1 to 6 in halves at beta 0, then beta to 20 in fours at p 6,
        with one geometric tolerance decay from 1e-3 to 1e-4 over all steps.

        Every argument must be a finite number, the steps and tolerances
        positive."""
        params = dict(p_start=p_start, p_end=p_end, p_step=p_step, beta_end=beta_end,
                      beta_step=beta_step, tol_start=tol_start, tol_end=tol_end)
        for name, value in params.items():
            check_number(name, value)
        for name in ("p_step", "beta_step", "tol_start", "tol_end"):
            if not params[name] > 0:
                raise ValueError(f"{name} must be > 0, got {params[name]}")
        n_p = int(round((p_end - p_start) / p_step)) + 1
        penalties = [p_start + k * p_step for k in range(n_p)]
        n_b = int(round(beta_end / beta_step))
        betas = [(k + 1) * beta_step for k in range(n_b)]
        pairs = [(p, 0.0) for p in penalties] + [(p_end, b) for b in betas]
        n = len(pairs)
        ratio = (tol_end / tol_start) ** (1.0 / (n - 1)) if n > 1 else 1.0
        steps = tuple(
            ContinuationStep(penalty=p, beta=b, tolerance=tol_start * ratio**k)
            for k, (p, b) in enumerate(pairs)
        )
        return cls(steps=steps)


class Analysis:
    """One design point, fully analyzed: densities and compliance statistics.

    Gradients are assembled lazily from the cached solves; none of them
    triggers additional linear solves.
    """

    def __init__(self, model: "ForwardModel", field, stats: comp.ComplianceStats):
        self.model = model
        self.field = field
        self.stats = stats
        self.volume = model.pipeline.volume_fraction(field)

    def volume_gradient(self) -> np.ndarray:
        return self.model.pipeline.volume_gradient(self.field)

    def weighted_gradient(self, w: np.ndarray) -> np.ndarray:
        """Gradient over x of w^T C from the cached solves."""
        grad_rho = comp.weighted_gradient(self.stats.cache, w, self.model.ke, self.model.mesh)
        return comp.pullback_to_x(grad_rho, self.model.pipeline, self.field)

    def objective_gradient_for(self, kind: str, **params) -> np.ndarray:
        w = comp.weight_vector(self.stats, kind, **params)
        return self.weighted_gradient(w)


class ForwardModel:
    """Mesh + material + pipeline + scenarios, evaluated at design points.

    `method` picks the compliance route: "naive" solves against every
    scenario, "svd" against the scenario matrix's singular directions.
    `total_analyses` counts analyses (one factorization each) and
    `total_solves` tallies their linear solves (right-hand-side columns).
    """

    def __init__(self, mesh: GroundMesh, material: Material,
                 pipeline: DensityPipeline, scenarios: ScenarioMatrix,
                 method: str = "svd", svd_rel_tol: float = SVD_REL_TOL):
        if method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
        # a load on a support does no work on the structure: the eliminated
        # K would report it as compliance that no density can change
        fixed = np.fromiter(mesh.fixed_dofs, dtype=np.int64, count=len(mesh.fixed_dofs))
        rows = np.flatnonzero(np.isin(scenarios.dofs, fixed))
        on_fixed = scenarios.dofs[rows[np.any(scenarios.block[rows] != 0.0, axis=1)]]
        if on_fixed.size:
            listed = ", ".join(str(d) for d in on_fixed[:10])
            more = f" and {on_fixed.size - 10} more" if on_fixed.size > 10 else ""
            raise ConfigError(
                f"scenarios load fixed DOF {listed}{more}; loads must act on free DOFs"
            )
        self.mesh = mesh
        self.pipeline = pipeline
        self.scenarios = scenarios
        self.method = method
        self.ke = element_stiffness(mesh, material)
        self.svd = thin_svd(scenarios, svd_rel_tol) if method == "svd" else None
        self.total_analyses = 0
        self.total_solves = 0

    def analyze(self, x: np.ndarray, penalty: float, beta: float) -> Analysis:
        field = self.pipeline.apply(x, penalty, beta)
        system = StiffnessSystem.factorize(assemble(self.mesh, self.ke, field.physical))
        if self.method == "svd":
            stats = comp.compliances_svd(system, self.scenarios, self.svd)
        else:
            stats = comp.compliances_naive(system, self.scenarios)
        self.total_analyses += 1
        self.total_solves += stats.cache.Q.shape[1]
        return Analysis(self, field, stats)


class _MemoizedAnalyses:
    """Reuse the analysis when objective and constraint hit the same point."""

    def __init__(self, model: ForwardModel):
        self.model = model
        self._key = None
        self._analysis = None

    def at(self, x: np.ndarray, penalty: float, beta: float) -> Analysis:
        key = (x.tobytes(), penalty, beta)
        if key != self._key:
            self._analysis = self.model.analyze(x, penalty, beta)
            self._key = key
        return self._analysis


class _VolumeConstrainedProblem:
    """Shared machinery of the MMA-solved problems (objective varies)."""

    def __init__(self, model: ForwardModel, volume_fraction: float,
                 mma_config: MMAConfig | None = None):
        if not 0.0 < volume_fraction <= 1.0:
            raise ConfigError(f"volume fraction must lie in (0, 1], got {volume_fraction}")
        self.model = model
        self.volume_fraction = volume_fraction
        self.mma_config = mma_config or MMAConfig()
        self.memo = _MemoizedAnalyses(model)
        self.scale = None

    # subclasses define these two
    def _value(self, analysis: Analysis) -> float:
        raise NotImplementedError

    def _gradient(self, analysis: Analysis) -> np.ndarray:
        raise NotImplementedError

    def initial_design(self) -> np.ndarray:
        return np.full(self.model.mesh.n_elements, self.volume_fraction)

    def prepare(self, x0: np.ndarray, first: ContinuationStep) -> None:
        """Fix the objective scale to 1/|f(x0)| at the first step's stages."""
        analysis = self.memo.at(x0, first.penalty, first.beta)
        self.scale = 1.0 / abs(self._value(analysis))

    def solve_step(self, x: np.ndarray, step: ContinuationStep, callback=None):
        if self.scale is None:
            self.prepare(x, step)

        def objective(xv):
            a = self.memo.at(xv, step.penalty, step.beta)
            return self.scale * self._value(a), self.scale * self._gradient(a)

        def constraint(xv):
            a = self.memo.at(xv, step.penalty, step.beta)
            return a.volume - self.volume_fraction, a.volume_gradient()

        result = mma_minimize(objective, constraint, x, step.tolerance,
                              self.mma_config, callback=callback)
        final = self.memo.at(result.x, step.penalty, step.beta)
        record = {
            "objective_start": result.objective_history[0],
            "objective_end": result.objective,
            "volume": final.volume,
            "max_compliance": float(np.max(final.stats.C)),
            "n_iters": result.n_iters,
            "dual_iters": 0,
            "converged": result.converged,
        }
        return result.x, record


class MeanComplianceProblem(_VolumeConstrainedProblem):
    """min mu_C subject to a volume fraction bound."""

    def _value(self, analysis):
        return analysis.stats.mean

    def _gradient(self, analysis):
        return analysis.objective_gradient_for("mean")


class MeanStdProblem(_VolumeConstrainedProblem):
    """min mu_C + m sigma_C subject to a volume fraction bound."""

    def __init__(self, model, volume_fraction, m: float = 2.0, mma_config=None):
        super().__init__(model, volume_fraction, mma_config)
        self.m = m

    def _value(self, analysis):
        return analysis.stats.mean + self.m * analysis.stats.std

    def _gradient(self, analysis):
        return analysis.objective_gradient_for("mean_plus_m_std", m=self.m)


class AugLagEvaluation:
    """Adapter giving `auglag_minimize` its view of one analysis."""

    def __init__(self, analysis: Analysis, scale: float):
        self.analysis = analysis
        self.objective = scale * analysis.volume
        self.compliances = analysis.stats.C
        self._scale = scale

    def objective_gradient(self) -> np.ndarray:
        return self._scale * self.analysis.volume_gradient()

    def compliance_weighted_gradient(self, w: np.ndarray) -> np.ndarray:
        return self.analysis.weighted_gradient(w)


class MaxComplianceProblem:
    """min volume subject to every scenario compliance staying below C_t.

    Constraints are normalized by the maximum compliance of the full
    ground structure (computed once; it is independent of penalty and
    beta because the filter is row-stochastic, so the full design maps
    to physical density one everywhere).

    Multipliers warm start across continuation steps while the penalty
    coefficient restarts each step. The run itself begins from zero
    multipliers: the full-design start is feasible, so slack constraints
    must carry no weight, otherwise their summed pull toward stiffness
    can drag the design back to full density. At high beta that is fatal,
    because the projection saturates there and gradients die.

    `auglag_config` holds the trust region and iteration caps of every
    step; the defaults of `AugLagConfig` if omitted.
    """

    def __init__(self, model: ForwardModel, C_t: float,
                 auglag_config: AugLagConfig | None = None):
        self.model = model
        self.memo = _MemoizedAnalyses(model)
        self.C_t = C_t
        self.auglag_config = auglag_config or AugLagConfig()
        self.scale = None
        self.normalization = None
        self.lam = np.zeros(model.scenarios.n_scenarios)

    def initial_design(self) -> np.ndarray:
        return np.ones(self.model.mesh.n_elements)

    def full_design_max_compliance(self) -> float:
        if self.normalization is None:
            full = self.memo.at(np.ones(self.model.mesh.n_elements), 1.0, 0.0)
            self.normalization = float(np.max(full.stats.C))
        return self.normalization

    def prepare(self, x0: np.ndarray, first: ContinuationStep) -> None:
        self.full_design_max_compliance()
        analysis = self.memo.at(x0, first.penalty, first.beta)
        self.scale = 1.0 / abs(analysis.volume)

    def solve_step(self, x: np.ndarray, step: ContinuationStep, callback=None):
        if self.scale is None:
            self.prepare(x, step)

        def evaluate(xv):
            return AugLagEvaluation(self.memo.at(xv, step.penalty, step.beta), self.scale)

        start = evaluate(x)
        result = auglag_minimize(evaluate, x, self.C_t, step.tolerance, self.auglag_config,
                                 lam=self.lam, normalization=self.normalization,
                                 callback=callback)
        self.lam = result.lam
        record = {
            "objective_start": start.objective,
            "objective_end": result.objective,
            "volume": result.objective / self.scale,
            "max_compliance": float(np.max(result.compliances)),
            "n_iters": result.n_primal_iters,
            "dual_iters": result.n_dual_iters,
            "converged": result.converged,
        }
        return result.x, record


@dataclass
class ContinuationResult:
    x: np.ndarray
    history: list
    total_analyses: int
    total_solves: int


def run_continuation(problem, schedule: ContinuationSchedule | None = None,
                     callback=None) -> ContinuationResult:
    """Sweep the schedule, warm starting each step from the last solution.

    The history holds one record per step with the schedule point, the
    scaled objective at the step's start and end, final volume and
    maximum compliance, iteration, dual iteration (0 for MMA), analysis
    and linear solve counts.
    """
    schedule = schedule or ContinuationSchedule.default()
    x = problem.initial_design()
    problem.prepare(x, schedule.steps[0])
    model = problem.model
    history = []
    for k, step in enumerate(schedule.steps):
        analyses_before, solves_before = model.total_analyses, model.total_solves
        x, record = problem.solve_step(x, step, callback=callback)
        record.update(
            step=k,
            penalty=step.penalty,
            beta=step.beta,
            tolerance=step.tolerance,
            analyses=model.total_analyses - analyses_before,
            solves=model.total_solves - solves_before,
        )
        history.append(record)
    return ContinuationResult(x=x, history=history, total_analyses=model.total_analyses,
                              total_solves=model.total_solves)
