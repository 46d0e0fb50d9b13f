"""Topology optimization of compliance statistics under finitely many
loading scenarios: exact naive and SVD-accelerated evaluation and
differentiation of the mean, variance and standard deviation of per-load
compliances, plus volume-constrained and maximum-compliance-constrained
SIMP solvers with continuation. The scalar functions of the compliances
and their weights live in `toporisk.compliance` (`mean`, `variance`,
`std`, `mean_plus_m_std`) and `toporisk.auglag` (`phr`).
"""

from .auglag import AugLagConfig, AugLagResult, auglag_minimize, projected_gradient_step
from .compliance import (
    ComplianceStats,
    compliances_naive,
    compliances_svd,
    weighted_gradient,
    weighted_gradient_naive,
    weighted_gradient_svd,
)
from .config import RunConfig, load_config, parse_config
from .continuation import (
    Analysis,
    ContinuationResult,
    ContinuationSchedule,
    ContinuationStep,
    ForwardModel,
    MaxComplianceProblem,
    MeanStdProblem,
    run_continuation,
)
from .errors import (
    ConfigError,
    InfeasibleError,
    NotPositiveDefiniteError,
    ScenarioFormatError,
    TopoRiskError,
)
from .fea import StiffnessSystem, assemble, element_stiffness
from .mesh import GroundMesh, Material, cantilever_mesh
from .mma import MMAConfig, MMAResult, mma_minimize
from .pipeline import DensityField, DensityPipeline, build_filter, heaviside
from .scenarios import (
    ScenarioMatrix,
    ThinSVD,
    load_scenarios_from_file,
    sample_cantilever_scenarios,
    save_scenarios_to_file,
    thin_svd,
)

__version__ = "0.1.0"
