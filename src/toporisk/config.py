"""Run configuration: JSON schema, validation, and object construction.

A run config is a single JSON document, versioned through its required
`schema_version` field (currently 1). Example:

    {
      "schema_version": 1,
      "problem": {"kind": "mean_std", "volume_fraction": 0.4, "m": 2.0},
      "mesh": {"dim": 2, "cells": [40, 10], "element_size": 1.0},
      "material": {"youngs_modulus": 1.0, "poissons_ratio": 0.3},
      "filter_radius": 2.0,
      "x_min": 0.001,
      "scenarios": {"source": "sample", "L": 200, "seed": 0},
      "method": "svd",
      "output_dir": "out"
    }

Problem kinds: "mean" (volume-constrained mean compliance), "mean_std"
(adds m * sigma_C to the objective) and "max_compliance" (volume
minimization under per-scenario compliance bounds; its "C_t" accepts a
number or the string "inf" to disable the constraints). Scenarios come
either from the benchmark sampler ("sample": L, seed) or from a CSV file
("file": path). Optional sections "schedule", "mma" and "auglag"
override continuation and solver settings; all their fields have the
benchmark defaults.

Every violation, including a key that no section knows, raises
`ConfigError` naming the offending key.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .auglag import AugLagState
from .continuation import (
    ContinuationSchedule,
    ForwardModel,
    MaxComplianceProblem,
    MeanComplianceProblem,
    MeanStdProblem,
)
from .errors import ConfigError
from .mesh import GroundMesh, Material, cantilever_mesh
from .mma import MMAConfig
from .pipeline import DensityPipeline
from .scenarios import SVD_REL_TOL, load_scenarios_from_file, sample_cantilever_scenarios

SCHEMA_VERSION = 1
PROBLEM_KINDS = ("mean", "mean_std", "max_compliance")

_TOP_KEYS = {
    "schema_version", "problem", "mesh", "material", "filter_radius", "x_min",
    "scenarios", "method", "svd_rel_tol", "schedule", "mma", "auglag", "output_dir",
}
_SECTION_KEYS = {
    "problem": {"kind", "volume_fraction", "m", "C_t"},
    "mesh": {"dim", "cells", "element_size", "thickness"},
    "material": {"youngs_modulus", "poissons_ratio"},
    "scenarios": {"source", "L", "seed", "path"},
    "schedule": {"p_start", "p_end", "p_step", "beta_end", "beta_step", "tol_start", "tol_end"},
    "mma": {f.name for f in fields(MMAConfig)},
    "auglag": {"trust_region", "dual_iters", "primal_iters"},
}


def _reject_unknown_keys(mapping, allowed, where):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError("unknown keys " + ", ".join(f"{where}.{key}" for key in unknown))


def _require(mapping, key, kind, where):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    value = mapping[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}.{key}: expected a number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise ConfigError(f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _optional(mapping, key, kind, default, where):
    if key not in mapping:
        return default
    return _require(mapping, key, kind, where)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; see the module docstring for the schema."""

    kind: str
    volume_fraction: float | None
    m: float | None
    C_t: float | None
    dim: int
    cells: tuple
    element_size: float
    thickness: float
    youngs_modulus: float
    poissons_ratio: float
    filter_radius: float
    x_min: float
    scenario_source: str     # "sample" or "file"
    L: int | None
    seed: int | None
    scenario_path: str | None
    method: str
    svd_rel_tol: float
    schedule_params: dict = field(default_factory=dict)
    mma_params: dict = field(default_factory=dict)
    auglag_params: dict = field(default_factory=dict)
    output_dir: str = "out"


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(raw, where=str(path))


def parse_config(raw: dict, where: str = "config") -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: top level must be a JSON object")
    _reject_unknown_keys(raw, _TOP_KEYS, where)
    for section, allowed in _SECTION_KEYS.items():
        if isinstance(raw.get(section), dict):
            _reject_unknown_keys(raw[section], allowed, f"{where}.{section}")
    version = _require(raw, "schema_version", int, where)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{where}.schema_version: expected {SCHEMA_VERSION}, got {version}")

    # problem
    prob = _require(raw, "problem", dict, where)
    kind = _require(prob, "kind", str, f"{where}.problem")
    if kind not in PROBLEM_KINDS:
        raise ConfigError(f"{where}.problem.kind: expected one of {PROBLEM_KINDS}, got {kind!r}")
    volume_fraction = m = C_t = None
    if kind in ("mean", "mean_std"):
        volume_fraction = _require(prob, "volume_fraction", float, f"{where}.problem")
        if not 0.0 < volume_fraction < 1.0:
            raise ConfigError(f"{where}.problem.volume_fraction: must lie in (0, 1), "
                              f"got {volume_fraction}")
    if kind == "mean_std":
        m = _optional(prob, "m", float, 2.0, f"{where}.problem")
    if kind == "max_compliance":
        raw_ct = prob.get("C_t")
        if raw_ct == "inf":
            C_t = math.inf
        elif isinstance(raw_ct, (int, float)) and not isinstance(raw_ct, bool):
            C_t = float(raw_ct)
        else:
            raise ConfigError(f'{where}.problem.C_t: expected a number or "inf", got {raw_ct!r}')
        if C_t <= 0:
            raise ConfigError(f"{where}.problem.C_t: must be positive, got {C_t}")

    # mesh and material
    mesh = _require(raw, "mesh", dict, where)
    dim = _require(mesh, "dim", int, f"{where}.mesh")
    if dim not in (2, 3):
        raise ConfigError(f"{where}.mesh.dim: expected 2 or 3, got {dim}")
    cells = _require(mesh, "cells", list, f"{where}.mesh")
    if len(cells) != dim or not all(isinstance(c, int) and c >= 1 for c in cells):
        raise ConfigError(f"{where}.mesh.cells: expected {dim} positive integers, got {cells}")
    element_size = _optional(mesh, "element_size", float, 1.0, f"{where}.mesh")
    thickness = _optional(mesh, "thickness", float, 1.0, f"{where}.mesh")
    mat = _require(raw, "material", dict, where)
    youngs = _require(mat, "youngs_modulus", float, f"{where}.material")
    poisson = _require(mat, "poissons_ratio", float, f"{where}.material")

    filter_radius = _require(raw, "filter_radius", float, where)
    if filter_radius <= 0:
        raise ConfigError(f"{where}.filter_radius: must be positive, got {filter_radius}")
    x_min = _optional(raw, "x_min", float, 0.001, where)
    if not 0.0 < x_min < 1.0:
        raise ConfigError(f"{where}.x_min: must lie in (0, 1), got {x_min}")

    # scenarios
    scen = _require(raw, "scenarios", dict, where)
    source = _require(scen, "source", str, f"{where}.scenarios")
    L = seed = scenario_path = None
    if source == "sample":
        L = _require(scen, "L", int, f"{where}.scenarios")
        if L < 1:
            raise ConfigError(f"{where}.scenarios.L: must be >= 1, got {L}")
        seed = _require(scen, "seed", int, f"{where}.scenarios")
        if seed < 0:
            raise ConfigError(f"{where}.scenarios.seed: must be >= 0, got {seed}")
    elif source == "file":
        scenario_path = _require(scen, "path", str, f"{where}.scenarios")
    else:
        raise ConfigError(f'{where}.scenarios.source: expected "sample" or "file", got {source!r}')

    method = _optional(raw, "method", str, "svd", where)
    if method not in ("naive", "svd"):
        raise ConfigError(f'{where}.method: expected "naive" or "svd", got {method!r}')
    svd_rel_tol = _optional(raw, "svd_rel_tol", float, SVD_REL_TOL, where)
    if not 0.0 < svd_rel_tol < 1.0:
        raise ConfigError(f"{where}.svd_rel_tol: must lie in (0, 1), got {svd_rel_tol}")

    schedule_params = _optional(raw, "schedule", dict, {}, where)
    mma_params = _optional(raw, "mma", dict, {}, where)
    auglag_params = _optional(raw, "auglag", dict, {}, where)
    output_dir = _optional(raw, "output_dir", str, "out", where)

    try:
        ContinuationSchedule.default(**schedule_params)
        MMAConfig(**mma_params)
        AugLagState(C_t=math.inf, **auglag_params)  # the section only; C_t is checked above
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc

    return RunConfig(
        kind=kind, volume_fraction=volume_fraction, m=m, C_t=C_t,
        dim=dim, cells=tuple(cells), element_size=element_size, thickness=thickness,
        youngs_modulus=youngs, poissons_ratio=poisson,
        filter_radius=filter_radius, x_min=x_min,
        scenario_source=source, L=L, seed=seed, scenario_path=scenario_path,
        method=method, svd_rel_tol=svd_rel_tol,
        schedule_params=dict(schedule_params), mma_params=dict(mma_params),
        auglag_params=dict(auglag_params), output_dir=output_dir,
    )


def build_mesh(cfg: RunConfig) -> GroundMesh:
    return cantilever_mesh(cfg.dim, cfg.cells, cfg.element_size, cfg.thickness)


def build_model(cfg: RunConfig, mesh: GroundMesh | None = None,
                method: str | None = None, seed: int | None = None) -> ForwardModel:
    """Mesh, pipeline and scenarios assembled into a ForwardModel.

    `method` and `seed` override the config (CLI flags)."""
    mesh = mesh or build_mesh(cfg)
    material = Material(cfg.youngs_modulus, cfg.poissons_ratio)
    pipeline = DensityPipeline(mesh, cfg.filter_radius, cfg.x_min)
    if cfg.scenario_source == "sample":
        effective_seed = cfg.seed if seed is None else seed
        scenarios = sample_cantilever_scenarios(mesh, cfg.L, effective_seed)
    else:
        scenarios = load_scenarios_from_file(cfg.scenario_path, n_dofs=mesh.n_dofs)
    return ForwardModel(mesh, material, pipeline, scenarios,
                        method=method or cfg.method, svd_rel_tol=cfg.svd_rel_tol)


def build_problem(cfg: RunConfig, model: ForwardModel):
    if cfg.kind == "mean":
        return MeanComplianceProblem(model, cfg.volume_fraction,
                                     mma_config=MMAConfig(**cfg.mma_params))
    if cfg.kind == "mean_std":
        return MeanStdProblem(model, cfg.volume_fraction, m=cfg.m,
                              mma_config=MMAConfig(**cfg.mma_params))
    return MaxComplianceProblem(model, cfg.C_t, **cfg.auglag_params)


def build_schedule(cfg: RunConfig) -> ContinuationSchedule:
    return ContinuationSchedule.default(**cfg.schedule_params)
