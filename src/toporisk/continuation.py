"""Benchmark problem definitions and the two-phase continuation driver.

Continuation first sweeps the SIMP penalty p upward at beta = 0, then
sharpens the Heaviside projection beta at the final penalty, warm
starting every step from the previous solution. One geometrically
decreasing tolerance sequence spans both phases. Objectives start near
one, so solver tolerances mean the same thing across problems and mesh
sizes: compliance statistics are scaled by the inverse of their start
value, and the volume is 1 at its all-ones start design.

Two problem classes cover the three benchmark kinds:

* `MeanStdProblem`:        min mu_C + m*sigma_C  s.t. volume <= vf
                           (m = 0 is the mean compliance problem)
* `MaxComplianceProblem`:  min volume  s.t. C_i <= C_t for all i

The first is solved per step with MMA, the second with the augmented
Lagrangian method, which reads each `Analysis` directly. Both evaluate
compliances either naively or via the scenario matrix's thin SVD; the
choice only affects cost, never values.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import compliance as comp
from .auglag import AugLagConfig, auglag_minimize
from .errors import ConfigError, TopoRiskError, check_number
from .fea import (
    StiffnessSystem,
    analysis_bytes,
    assemble,
    element_stiffness,
    physical_memory_bytes,
    stiffness_scale,
)
from .mesh import GroundMesh, Material
from .mma import MMAConfig, mma_minimize
from .pipeline import FILTER_BUILD_BYTES, DensityPipeline
from .scenarios import ScenarioMatrix, thin_svd

METHODS = ("naive", "svd")
# the most steps `ContinuationSchedule.default` builds; its defaults take 16
MAX_SCHEDULE_STEPS = 1000


def _intervals(span: float, step: float) -> float:
    """Fewest equal intervals of at most `step` that cover `span`.

    A step that divides the span up to round-off divides it: 5 / 0.1 is
    50 intervals, not 51."""
    return np.ceil(span / step * (1.0 - 1e-12))


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
        # the density pipeline's own bounds
        for k, (p, b) in enumerate(zip(penalties, betas)):
            if not p >= 1.0:
                raise ValueError(f"penalty must be >= 1, got {p} at step {k}")
            if not b >= 0.0:
                raise ValueError(f"beta must be >= 0, got {b} at step {k}")
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

        Each phase ends exactly at p_end and beta_end in equal steps of at
        most p_step and beta_step; a step that does not divide its range is
        shortened to the next one that does. Every argument must be a
        finite number, the steps and tolerances positive, p_end >= p_start
        and beta_end >= 0, tol_end far enough below tol_start that the
        tolerances decrease strictly when there is more than one step, and
        the schedule at most `MAX_SCHEDULE_STEPS` steps long."""
        params = dict(p_start=p_start, p_end=p_end, p_step=p_step, beta_end=beta_end,
                      beta_step=beta_step, tol_start=tol_start, tol_end=tol_end)
        for name, value in params.items():
            check_number(name, value)
        for name in ("p_step", "beta_step", "tol_start", "tol_end"):
            if not params[name] > 0:
                raise ValueError(f"{name} must be > 0, got {params[name]}")
        if p_end < p_start:
            raise ValueError(f"p_end must be >= p_start ({p_start}), got {p_end}")
        if beta_end < 0:
            raise ValueError(f"beta_end must be >= 0, got {beta_end}")
        # count the steps before building any: a tiny step asks for millions
        # of them, a denormal one for infinitely many
        n_p = _intervals(p_end - p_start, p_step) + 1
        n_b = _intervals(beta_end, beta_step)
        if not n_p + n_b <= MAX_SCHEDULE_STEPS:
            raise ValueError(f"p_step = {p_step} and beta_step = {beta_step} make "
                             f"{n_p + n_b:g} steps; a schedule takes at most {MAX_SCHEDULE_STEPS}")
        penalties = np.linspace(p_start, p_end, int(n_p))
        betas = np.linspace(0.0, beta_end, int(n_b) + 1)[1:]
        pairs = [(float(p), 0.0) for p in penalties] + [(p_end, float(b)) for b in betas]
        n = len(pairs)
        ratio = (tol_end / tol_start) ** (1.0 / (n - 1)) if n > 1 else 1.0
        tols = [tol_start * ratio**k for k in range(n)]
        # a tol_end within round-off of tol_start decays by less than an ulp per step
        if any(b >= a for a, b in zip(tols, tols[1:])):
            raise ValueError(f"tol_end must be < tol_start ({tol_start}), far enough below it "
                             f"for {n} strictly decreasing tolerances; got {tol_end}")
        steps = tuple(
            ContinuationStep(penalty=p, beta=b, tolerance=tol)
            for (p, b), tol in zip(pairs, tols)
        )
        return cls(steps=steps)


def check_analysis_fits(mesh: GroundMesh, k: int, load_values: int = 0,
                        filter_entries: int = 0) -> None:
    """Raise ConfigError if one analysis solving k columns on `mesh`, with
    `load_values` scenario values held beside it and the build of a density
    filter of `filter_entries` nonzeros before it, would need more than the
    machine's physical memory (`fea.analysis_bytes`, eight bytes per value
    and `pipeline.FILTER_BUILD_BYTES` per filter entry, against
    `fea.physical_memory_bytes`, which does not read a cgroup limit). It
    reads counts alone, so `parse_config` gates k = 1 and the filter before
    any cantilever is built; `ForwardModel` gates its route's columns
    beside its loads."""
    band, peak = analysis_bytes(mesh, k)
    loads = 8 * load_values
    filter_build = FILTER_BUILD_BYTES * filter_entries
    memory = physical_memory_bytes()
    if peak + loads + filter_build > memory:
        cells = "x".join(str(c) for c in mesh.cells)
        held = f" beside {loads / 1e9:.3g} GB of scenario loads" if loads else ""
        built = (f", after a density filter of {filter_entries:.3g} entries that takes "
                 f"{filter_build / 1e9:.3g} GB to build" if filter_entries else "")
        raise ConfigError(
            f"a {cells} mesh needs about {(peak + loads + filter_build) / 1e9:.3g} GB "
            f"per analysis (one {band / 1e9:.3g} GB stiffness band and {k}-column "
            f"solves{held}{built}), more than the {memory / 1e9:.3g} GB of physical memory"
        )


class Analysis:
    """One design point, fully analyzed: densities, volume and compliance statistics.

    `compliances` is `stats.C`. `gradient` forms gradients from the solves
    kept on `stats` and triggers no additional linear solves.
    """

    def __init__(self, model: "ForwardModel", field, stats: comp.ComplianceStats):
        self.model = model
        self.field = field
        self.stats = stats
        self.compliances = stats.C
        self.volume = float(np.mean(field.physical))

    def gradient(self, w: np.ndarray | None = None, volume_weight: float = 0.0) -> np.ndarray:
        """Gradient over x of w^T C + volume_weight V (no compliance term if
        w is None).

        The gradient over the physical densities is summed first and pulled
        back through the density pipeline once: its backward map is linear.
        """
        n = self.model.mesh.n_elements
        grad_rho = np.full(n, volume_weight / n)
        if w is not None:
            grad_rho += comp.weighted_gradient(self.stats, w, self.model.ke, self.model.mesh)
        return self.model.pipeline.backward(self.field, grad_rho)


class ForwardModel:
    """Mesh + material + pipeline + scenarios, evaluated at design points.

    `method` picks the compliance route: "naive" solves against every
    scenario, "svd" against the scenario matrix's singular directions.
    The model holds one form of its loads: `scenarios` (F) on the naive
    route, `svd` (F's thin SVD) on the SVD route, and None for the other,
    so an SVD model lets F go once it is built. `n_scenarios` is L on both.
    The naive model holds F's n_loaded x L block dense: it multiplies a
    factored F out once, after its memory check. The SVD model reads a
    factored F through its factors alone (`thin_svd`, and the rows of F on
    fixed DOFs), so its loads take O((n_loaded + L) r) memory, never
    n_loaded x L.
    `total_analyses` counts analyses (one factorization each) and
    `total_solves` tallies their linear solves (right-hand-side columns).

    `ke` is the unit element (E = 1, t = 1, h = 1) and `stiffness_scale`
    (`fea.stiffness_scale`) scales it to the material's: the model factors
    the unit structure, and its systems carry the scale (`factorize`).

    Scenarios that load a fixed DOF or load nothing at all (on the SVD
    route, a thin SVD with S_1 = 0), a stiffness scale outside the float
    range, and a model whose analysis would need more than the machine's
    physical memory beside the loads it holds (`check_analysis_fits`: the
    naive model's n_loaded x L values, checked before it forms them, or the
    SVD model's `ScenarioMatrix.size`), raise `ConfigError` before any
    assembly. Loads that are not finite, or whose thin SVD overflows, raise
    `TopoRiskError`: the SVD model's at set-up (`thin_svd`), the naive
    model's from its first analysis (its compliances are not finite), so
    that set-up never scans the naive model's block.
    """

    def __init__(self, mesh: GroundMesh, material: Material,
                 pipeline: DensityPipeline, scenarios: ScenarioMatrix,
                 method: str = "svd"):
        if method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
        L = scenarios.n_scenarios
        if method == "naive":  # the naive route holds the n_loaded x L block
            check_analysis_fits(mesh, L, scenarios.n_loaded * L)
            if scenarios.block is None:
                scenarios = ScenarioMatrix(scenarios.n_dofs, scenarios.dofs,
                                           scenarios.loaded_block())
        # a load on a support does no work on the structure: the eliminated
        # K would report it as compliance that no density can change
        rows = np.flatnonzero(mesh.fixed_dof_mask()[scenarios.dofs])
        on_fixed = scenarios.dofs[rows[np.any(scenarios.loaded_block(rows) != 0.0, axis=1)]]
        if on_fixed.size:
            listed = ", ".join(str(d) for d in on_fixed[:10])
            more = f" and {on_fixed.size - 10} more" if on_fixed.size > 10 else ""
            raise ConfigError(
                f"scenarios load fixed DOF {listed}{more}; loads must act on free DOFs"
            )
        # every compliance would be zero: nothing to scale or to normalize by
        zero = "every scenario load is zero; at least one must be nonzero"
        self.svd = None
        if method == "svd":
            try:
                self.svd = thin_svd(scenarios)
            except ValueError:  # S_1 = 0
                raise ConfigError(zero) from None
        elif not np.any(scenarios.block):
            raise ConfigError(zero)
        self.mesh = mesh
        self.pipeline = pipeline
        self.scenarios = scenarios if method == "naive" else None
        self.n_scenarios = L
        self.method = method
        self.stiffness_scale = stiffness_scale(mesh, material)
        if not 0.0 < self.stiffness_scale < np.inf:
            quantity = "thickness" if mesh.dim == 2 else "element_size"
            raise ConfigError(f"youngs_modulus x {quantity} = {self.stiffness_scale} "
                              f"is outside the float range")
        self.ke = element_stiffness(mesh, material, unit=True)
        if method == "svd":
            check_analysis_fits(mesh, self.svd.n_s, scenarios.size)
        self.total_analyses = 0
        self.total_solves = 0

    def factorize(self, physical: np.ndarray) -> StiffnessSystem:
        """The stiffness system at these physical densities: the unit
        structure's factor, with the model's stiffness scale."""
        return StiffnessSystem.factorize(assemble(self.mesh, self.ke, physical),
                                         self.stiffness_scale)

    def analyze(self, x: np.ndarray, penalty: float, beta: float) -> Analysis:
        field = self.pipeline.apply(x, penalty, beta)
        system = self.factorize(field.physical)
        if self.method == "svd":
            stats = comp.compliances_svd(system, self.svd)
        else:
            stats = comp.compliances_naive(system, self.scenarios)
        self.total_analyses += 1
        self.total_solves += stats.Q.shape[1]
        return Analysis(self, field, stats)


class _MemoizedAnalyses:
    """Reuse the analysis when objective and constraint hit the same point.

    The memo lets go of its analysis before it analyzes a new point, so
    it never holds two analyses' solves at once; a caller that keeps the
    old analysis (the AL's current point beside a trial) keeps it alive
    itself."""

    def __init__(self, model: ForwardModel):
        self.model = model
        self._key = None
        self._analysis = None

    def at(self, x: np.ndarray, penalty: float, beta: float) -> Analysis:
        key = (x.tobytes(), penalty, beta)
        if key != self._key:
            self._key = self._analysis = None
            self._analysis = self.model.analyze(x, penalty, beta)
            self._key = key
        return self._analysis


class MeanStdProblem:
    """min mu_C + m sigma_C subject to a volume fraction bound, by MMA.

    The objective's value and weights are `comp.mean_plus_m_std`'s. m = 0
    is the mean compliance problem, exactly: sigma (even where the variance
    overflows) and the std weights are finite, so the value and the weights
    at m = 0 equal those of the mean bit for bit.
    `prepare` sets a run's memo and objective `scale`; `final` is the
    analysis the last step ended on.
    """

    def __init__(self, model: ForwardModel, volume_fraction: float, m: float = 2.0,
                 mma_config: MMAConfig | None = None):
        if not 0.0 < volume_fraction < 1.0:
            raise ConfigError(f"volume fraction must lie in (0, 1), got {volume_fraction}")
        self.model = model
        self.volume_fraction = volume_fraction
        self.m = m
        self.mma_config = mma_config or MMAConfig()

    def initial_design(self) -> np.ndarray:
        return np.full(self.model.mesh.n_elements, self.volume_fraction)

    def prepare(self, x0: np.ndarray, first: ContinuationStep) -> None:
        """Start a run: a fresh memo and the objective scale 1/|f(x0)| at
        the first step's stages. The memo keeps this analysis for step 0.
        An f(x0) that is not finite (mu_C + m sigma_C past the float range)
        raises `TopoRiskError`."""
        self.memo = _MemoizedAnalyses(self.model)
        analysis = self.memo.at(x0, first.penalty, first.beta)
        start = comp.mean_plus_m_std(analysis.stats, self.m)[0]
        if not np.isfinite(start):  # before any gradient is formed from its weights
            raise TopoRiskError(f"the objective mu_C + {self.m:g} sigma_C is not finite "
                                f"at the start design: {start}")
        self.scale = 1.0 / abs(start)

    def solve_step(self, x: np.ndarray, step: ContinuationStep):
        # the memo still holds the last step's analysis; a second reference
        # would keep its solves alive through this step
        self.final = None

        def objective(xv):
            a = self.memo.at(xv, step.penalty, step.beta)
            value, w = comp.mean_plus_m_std(a.stats, self.m)
            return self.scale * value, self.scale * a.gradient(w)

        def constraint(xv):
            a = self.memo.at(xv, step.penalty, step.beta)
            return a.volume - self.volume_fraction, a.gradient(volume_weight=1.0)

        result = mma_minimize(objective, constraint, x, step.tolerance, self.mma_config)
        self.final = self.memo.at(result.x, step.penalty, step.beta)
        record = {
            "objective_start": result.objective_start,
            "objective_end": result.objective,
            "n_iters": result.n_iters,
            "dual_iters": 0,
            "multiplier": result.multiplier,
            "kkt_residual": result.kkt_residual,
            "max_violation": 0.0,
            "al_penalty": 0.0,
            "converged": result.converged,
        }
        return result.x, record


class MaxComplianceProblem:
    """min volume subject to every scenario compliance staying below C_t.

    Constraints are normalized by the maximum compliance of the full
    ground structure (set by `prepare`; it is independent of penalty and
    beta because the filter is row-stochastic, so the full design maps
    to physical density one everywhere).

    Multipliers warm start across continuation steps while the penalty
    coefficient restarts each step. Each run begins from the zero `lam`
    `prepare` sets: the full-design start is feasible, so slack constraints
    must carry no weight, otherwise their summed pull toward stiffness
    can drag the design back to full density. At high beta that is fatal,
    because the projection saturates there and gradients die.

    The volume needs no scale: the filter maps the all-ones start design
    to physical density one, so V(x0) = 1 at every (p, beta) up to
    round-off. `scale` is 1.0 for code that reads either problem's scale.

    `C_t` must be positive; inf drops the constraints.
    `auglag_config` holds the trust region and iteration caps of every
    step; the defaults of `AugLagConfig` if omitted. `final` is the
    analysis the last step ended on.
    """

    scale = 1.0

    def __init__(self, model: ForwardModel, C_t: float,
                 auglag_config: AugLagConfig | None = None):
        if not C_t > 0.0:
            raise ConfigError(f"C_t must be positive or inf, got {C_t}")
        self.model = model
        self.C_t = C_t
        self.auglag_config = auglag_config or AugLagConfig()

    def initial_design(self) -> np.ndarray:
        return np.ones(self.model.mesh.n_elements)

    def prepare(self, x0: np.ndarray, first: ContinuationStep) -> None:
        """Start a run: a fresh memo holding the full design at p = 1, beta = 0,
        the normalization from it and zero multipliers; no objective scale."""
        self.memo = _MemoizedAnalyses(self.model)
        full = self.memo.at(np.ones(self.model.mesh.n_elements), 1.0, 0.0)
        self.normalization = float(np.max(full.stats.C))
        self.lam = np.zeros(self.model.n_scenarios)

    def solve_step(self, x: np.ndarray, step: ContinuationStep):
        self.final = None  # its solves need not live through this step

        def evaluate(xv):
            return self.memo.at(xv, step.penalty, step.beta)

        result = auglag_minimize(evaluate, x, self.C_t, step.tolerance, self.auglag_config,
                                 lam=self.lam, normalization=self.normalization)
        self.lam = result.lam
        # a line search may have analyzed rejected trials after the final point
        self.final = result.evaluation
        record = {
            "objective_start": result.objective_start,
            "objective_end": result.objective,
            "n_iters": result.n_primal_iters,
            "dual_iters": result.n_dual_iters,
            "multiplier": float(np.max(result.lam)),
            "kkt_residual": result.kkt_residual,
            "max_violation": result.max_violation,
            "al_penalty": result.r,
            "converged": result.converged,
        }
        return result.x, record


@dataclass
class ContinuationResult:
    """The final design `x` and its analysis `final` at the last schedule
    point, the per-step history, the run's analysis and solve counts and
    the wall seconds of each step. The counts are this run's alone, from
    `prepare` on, not those the model made before it."""

    x: np.ndarray
    final: Analysis
    history: list
    total_analyses: int
    total_solves: int
    step_seconds: list


def run_continuation(problem, schedule: ContinuationSchedule | None = None) -> ContinuationResult:
    """Sweep the schedule, warm starting each step from the last solution.

    The history holds one record per step with the schedule point, the
    scaled objective at the step's start and end, final volume and
    maximum compliance, iteration, dual iteration (0 for MMA), analysis
    and linear solve counts, and the optimizer's state at the step's end:
    `multiplier` (the MMA volume multiplier, or the largest AL multiplier
    max_i lambda_i), `kkt_residual` (MMA's scaled projected KKT residual,
    or that of the last AL primal phase), `max_violation` (the AL's
    largest constraint violation, in compliance units) and `al_penalty`
    (the AL's final penalty coefficient r); MMA steps record 0 for the
    last two. Wall seconds per step go to `step_seconds`, not to the
    history, so that the history of a run repeats bit for bit. `final` is
    the problem's `final`, the analysis the last step ended on, and each
    record's `volume` and `max_compliance` are read from it. `prepare`
    starts every run, so a second run of one problem repeats a fresh one.
    """
    schedule = schedule or ContinuationSchedule.default()
    model = problem.model
    analyses_start, solves_start = model.total_analyses, model.total_solves
    x = problem.initial_design()
    problem.prepare(x, schedule.steps[0])
    history, step_seconds = [], []
    for k, step in enumerate(schedule.steps):
        analyses_before, solves_before = model.total_analyses, model.total_solves
        start = time.perf_counter()
        x, record = problem.solve_step(x, step)
        step_seconds.append(time.perf_counter() - start)
        record.update(
            step=k,
            penalty=step.penalty,
            beta=step.beta,
            tolerance=step.tolerance,
            volume=problem.final.volume,
            max_compliance=float(np.max(problem.final.stats.C)),
            analyses=model.total_analyses - analyses_before,
            solves=model.total_solves - solves_before,
        )
        history.append(record)
    return ContinuationResult(x=x, final=problem.final, history=history,
                              total_analyses=model.total_analyses - analyses_start,
                              total_solves=model.total_solves - solves_start,
                              step_seconds=step_seconds)
