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

Problem kinds: "mean" (volume-constrained mean compliance; reads
"volume_fraction"), "mean_std" (adds m * sigma_C to the objective; reads
"volume_fraction" and "m", default 2; "mean" is this kind at m = 0) and
"max_compliance" (volume minimization under per-scenario compliance
bounds; reads "C_t", a finite positive number or the string "inf" to
disable the constraints). Scenarios come either from the benchmark sampler
("source": "sample", with "L" and "seed") or from a CSV file ("source":
"file", with "path").

The sections "material", "schedule", "mma" and "auglag" are parsed once,
into the immutable value each configures: `Material`, the schedule of
`ContinuationSchedule.default(...)`, `MMAConfig` and `AugLagConfig`. A
section's keys are its constructor's arguments, its defaults and checks
the constructor's own. "mma" configures the MMA-solved kinds (its keys
are `max_iters` and `move`; MMA's other constants are fixed in `mma.py`)
and "auglag" the max-compliance kind, so a run reads one of the two. The
"mesh" section is checked on a `GroundMesh` without fixed DOFs, refused
from its shape if one analysis exceeds physical memory, and refused again
if that analysis and the build of its density filter (entries counted
from the shape and "filter_radius") exceed it together. `RunConfig` keeps
the four mesh values and `build_mesh` builds a fresh cantilever on every
call: a `GroundMesh` caches its DOF map and band layout, so a mesh held
here would carry that set-up work from one build to the next. The command
line's `--seed`, `--method` and `--out` override `scenarios.seed`,
`method` and `output_dir` through `apply_flags` alone.

Every violation raises `ConfigError` naming the offending key or section,
and so does a key that no section knows or that the configured run does
not read.
"""
from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .auglag import AugLagConfig
from .continuation import (
    METHODS,
    ContinuationSchedule,
    ForwardModel,
    MaxComplianceProblem,
    MeanStdProblem,
    check_analysis_fits,
)
from .errors import ConfigError, check_number
from .mesh import GroundMesh, Material, cantilever_mesh
from .mma import MMAConfig
from .pipeline import DensityPipeline, filter_entries
from .scenarios import (SAMPLER_RANK, ScenarioMatrix, load_scenarios_from_file,
                        sample_cantilever_scenarios)

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version", "problem", "mesh", "material", "filter_radius", "x_min",
    "scenarios", "method", "schedule", "mma", "auglag", "output_dir",
}
# the keys each problem kind and each scenario source reads
_PROBLEM_KEYS = {
    "mean": {"kind", "volume_fraction"},
    "mean_std": {"kind", "volume_fraction", "m"},
    "max_compliance": {"kind", "C_t"},
}
PROBLEM_KINDS = tuple(_PROBLEM_KEYS)
_SCENARIO_KEYS = {"sample": {"source", "L", "seed"}, "file": {"source", "path"}}
_SECTION_KEYS = {
    "mesh": {"dim", "cells", "element_size", "thickness"},
    "material": {f.name for f in fields(Material)},
    "schedule": set(inspect.signature(ContinuationSchedule.default).parameters),
    "mma": {f.name for f in fields(MMAConfig)},
    "auglag": {f.name for f in fields(AugLagConfig)},
}


def _reject_keys(mapping, allowed, where, reason="unknown keys"):
    extra = sorted(set(mapping) - allowed)
    if extra:
        raise ConfigError(f"{reason}: " + ", ".join(f"{where}.{key}" for key in extra))


def _require(mapping, key, kind, where):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    value = mapping[key]
    if kind in (float, int):
        try:
            check_number(key, value, integer=kind is int)
            return kind(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}.{key}: {exc}") from None
    if not isinstance(value, kind):
        raise ConfigError(f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _optional(mapping, key, kind, default, where):
    if key not in mapping:
        return default
    return _require(mapping, key, kind, where)


def _construct(where, make, *args, **kwargs):
    """`make(*args, **kwargs)`, its ValueError or TypeError a ConfigError naming `where`."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_section(raw, name, make, where, required=False):
    """The value section `name` configures: `make(**section)`, keys checked first."""
    section = (_require(raw, name, dict, where) if required
               else _optional(raw, name, dict, {}, where))
    _reject_keys(section, _SECTION_KEYS[name], f"{where}.{name}")
    return _construct(f"{where}.{name}", make, **section)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; see the module docstring for the schema.

    `mma` is None on a max-compliance run, `auglag` on the other kinds.
    """

    kind: str
    volume_fraction: float | None
    m: float | None
    C_t: float | None
    dim: int
    cells: tuple
    element_size: float
    thickness: float
    material: Material
    filter_radius: float
    x_min: float
    scenario_source: str     # "sample" or "file"
    L: int | None
    seed: int | None
    scenario_path: str | None
    method: str
    schedule: ContinuationSchedule
    mma: MMAConfig | None
    auglag: AugLagConfig | None
    output_dir: str


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(raw, where=str(path))


def parse_config(raw: dict, where: str = "config") -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: top level must be a JSON object")
    _reject_keys(raw, _TOP_KEYS, where)
    version = _require(raw, "schema_version", int, where)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{where}.schema_version: expected {SCHEMA_VERSION}, got {version}")

    # problem
    prob = _require(raw, "problem", dict, where)
    kind = _require(prob, "kind", str, f"{where}.problem")
    if kind not in PROBLEM_KINDS:
        raise ConfigError(f"{where}.problem.kind: expected one of {PROBLEM_KINDS}, got {kind!r}")
    _reject_keys(prob, _PROBLEM_KEYS[kind], f"{where}.problem",
                 f"keys a {kind!r} problem does not read")
    volume_fraction = m = C_t = None
    if kind in ("mean", "mean_std"):
        volume_fraction = _require(prob, "volume_fraction", float, f"{where}.problem")
        if not 0.0 < volume_fraction < 1.0:
            raise ConfigError(f"{where}.problem.volume_fraction: must lie in (0, 1), "
                              f"got {volume_fraction}")
    if kind == "mean_std":
        m = _optional(prob, "m", float, 2.0, f"{where}.problem")
    if kind == "max_compliance":
        if prob.get("C_t") == "inf":
            C_t = math.inf
        else:
            C_t = _require(prob, "C_t", float, f"{where}.problem")
            if C_t <= 0:
                raise ConfigError(f"{where}.problem.C_t: must be positive, got {C_t}")

    # mesh, checked on its shape alone
    mesh = _require(raw, "mesh", dict, where)
    _reject_keys(mesh, _SECTION_KEYS["mesh"], f"{where}.mesh")
    dim = _require(mesh, "dim", int, f"{where}.mesh")
    if dim not in (2, 3):
        raise ConfigError(f"{where}.mesh.dim: expected 2 or 3, got {dim}")
    if dim == 3:  # a hex mesh has no thickness
        _reject_keys(mesh, _SECTION_KEYS["mesh"] - {"thickness"}, f"{where}.mesh",
                     "keys a 3-D mesh does not read")
    cells = _require(mesh, "cells", list, f"{where}.mesh")
    if len(cells) != dim or not all(isinstance(c, int) and not isinstance(c, bool) and c >= 1
                                    for c in cells):
        raise ConfigError(f"{where}.mesh.cells: expected {dim} positive integers, got {cells}")
    element_size = _optional(mesh, "element_size", float, 1.0, f"{where}.mesh")
    thickness = _optional(mesh, "thickness", float, 1.0, f"{where}.mesh")
    shape = _construct(f"{where}.mesh", GroundMesh, dim, cells, element_size,
                       thickness=thickness)
    check_analysis_fits(shape, 1)  # bounds the stencil `filter_entries` walks
    material = _build_section(raw, "material", Material, where, required=True)

    filter_radius = _require(raw, "filter_radius", float, where)
    if filter_radius <= 0:
        raise ConfigError(f"{where}.filter_radius: must be positive, got {filter_radius}")
    check_analysis_fits(shape, 1, filter_entries=filter_entries(shape, filter_radius))
    x_min = _optional(raw, "x_min", float, 0.001, where)
    if not 0.0 < x_min < 1.0:
        raise ConfigError(f"{where}.x_min: must lie in (0, 1), got {x_min}")

    # scenarios
    scen = _require(raw, "scenarios", dict, where)
    source = _require(scen, "source", str, f"{where}.scenarios")
    if source not in _SCENARIO_KEYS:
        raise ConfigError(f'{where}.scenarios.source: expected "sample" or "file", got {source!r}')
    _reject_keys(scen, _SCENARIO_KEYS[source], f"{where}.scenarios",
                 f"keys the {source!r} scenario source does not read")
    L = seed = scenario_path = None
    if source == "sample":
        L = _require(scen, "L", int, f"{where}.scenarios")
        if L < 1:
            raise ConfigError(f"{where}.scenarios.L: must be >= 1, got {L}")
        seed = _require(scen, "seed", int, f"{where}.scenarios")
        if seed < 0:
            raise ConfigError(f"{where}.scenarios.seed: must be >= 0, got {seed}")
    else:
        scenario_path = _require(scen, "path", str, f"{where}.scenarios")

    method = _optional(raw, "method", str, "svd", where)
    if method not in METHODS:
        raise ConfigError(f"{where}.method: expected one of {METHODS}, got {method!r}")

    # solver settings: MMA for the volume-constrained kinds, AL for the other
    schedule = _build_section(raw, "schedule", ContinuationSchedule.default, where)
    unread = "mma" if kind == "max_compliance" else "auglag"
    if unread in raw:
        raise ConfigError(f"{where}.{unread}: a {kind!r} problem does not read this section")
    mma = _build_section(raw, "mma", MMAConfig, where) if unread == "auglag" else None
    auglag = _build_section(raw, "auglag", AugLagConfig, where) if unread == "mma" else None
    output_dir = _optional(raw, "output_dir", str, "out", where)

    return RunConfig(
        kind=kind, volume_fraction=volume_fraction, m=m, C_t=C_t,
        dim=dim, cells=tuple(cells), element_size=element_size, thickness=thickness,
        material=material, filter_radius=filter_radius, x_min=x_min,
        scenario_source=source, L=L, seed=seed, scenario_path=scenario_path,
        method=method, schedule=schedule, mma=mma, auglag=auglag, output_dir=output_dir,
    )


def apply_flags(cfg: RunConfig, seed: int | None = None, method: str | None = None,
                out: str | None = None) -> RunConfig:
    """`cfg` with each flag given in place of the key it overrides. A negative
    seed, or one for scenarios read from a file, is a ConfigError."""
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    if seed is not None and cfg.scenario_source == "file":
        raise ConfigError("--seed overrides the scenario sampler's seed, but this "
                          "config reads its scenarios from a file")
    return replace(cfg, seed=cfg.seed if seed is None else seed,
                   method=method or cfg.method, output_dir=out or cfg.output_dir)


def build_mesh(cfg: RunConfig) -> GroundMesh:
    return cantilever_mesh(cfg.dim, cfg.cells, cfg.element_size, cfg.thickness)


def sample_scenarios(mesh: GroundMesh, L: int, seed: int) -> ScenarioMatrix:
    """The benchmark sampler's L scenarios on `mesh`, for every command that
    samples. A mesh whose smallest analysis (one solved column) cannot fit
    in memory beside the factors the sampler returns (`SAMPLER_RANK`
    (n_loaded + L) values) is refused before anything is sampled, and a
    mesh the sampler cannot load (its ValueError) is a ConfigError too."""
    check_analysis_fits(mesh, 1, SAMPLER_RANK * (mesh.free_surface_dofs().size + L))
    return _construct("scenarios", sample_cantilever_scenarios, mesh, L, seed)


def build_scenarios(cfg: RunConfig, mesh: GroundMesh) -> ScenarioMatrix:
    """The configured loads on `mesh`, in the form their source gives them:
    factored from the sampler, dense from a file."""
    if cfg.scenario_source == "sample":
        return sample_scenarios(mesh, cfg.L, cfg.seed)
    return load_scenarios_from_file(cfg.scenario_path, n_dofs=mesh.n_dofs)


def build_model(cfg: RunConfig, mesh: GroundMesh | None = None,
                method: str | None = None) -> ForwardModel:
    """Mesh, pipeline and scenarios assembled into a ForwardModel; `method`,
    if given, replaces the config's route. Sampled loads are gated before
    they are sampled, and the route's columns beside them by the model."""
    mesh = mesh or build_mesh(cfg)
    scenarios = build_scenarios(cfg, mesh)
    pipeline = DensityPipeline(mesh, cfg.filter_radius, cfg.x_min)
    return ForwardModel(mesh, cfg.material, pipeline, scenarios, method=method or cfg.method)


def build_problem(cfg: RunConfig, model: ForwardModel):
    """The configured problem; kind "mean" is `MeanStdProblem` at m = 0."""
    if cfg.kind == "max_compliance":
        return MaxComplianceProblem(model, cfg.C_t, auglag_config=cfg.auglag)
    m = 0.0 if cfg.kind == "mean" else cfg.m
    return MeanStdProblem(model, cfg.volume_fraction, m=m, mma_config=cfg.mma)


def build_schedule(cfg: RunConfig) -> ContinuationSchedule:
    return cfg.schedule
