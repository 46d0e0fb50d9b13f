"""Run-configuration parsing: schema violations must name the offending key."""
import json
import math

import pytest

import toporisk as tr
from toporisk.config import build_mesh, build_model, build_problem, build_schedule
from toporisk.errors import ConfigError


def base_config(**overrides):
    cfg = {
        "schema_version": 1,
        "problem": {"kind": "mean", "volume_fraction": 0.4},
        "mesh": {"dim": 2, "cells": [6, 3]},
        "material": {"youngs_modulus": 1.0, "poissons_ratio": 0.3},
        "filter_radius": 1.5,
        "scenarios": {"source": "sample", "L": 5, "seed": 0},
    }
    cfg.update(overrides)
    return cfg


def test_valid_config_defaults():
    cfg = tr.parse_config(base_config())
    assert cfg.kind == "mean"
    assert cfg.x_min == 0.001
    assert cfg.method == "svd"
    assert cfg.element_size == 1.0
    assert cfg.thickness == 1.0
    assert cfg.output_dir == "out"
    assert cfg.cells == (6, 3)
    # each section is the value it configures, with its constructor's defaults
    assert cfg.material == tr.Material(1.0, 0.3)
    assert cfg.schedule == tr.ContinuationSchedule.default()
    assert cfg.mma == tr.MMAConfig()
    assert cfg.auglag is None
    cfg = tr.parse_config(base_config(problem={"kind": "max_compliance", "C_t": 50.0}))
    assert cfg.auglag == tr.AugLagConfig()
    assert cfg.mma is None


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(base_config()))
    cfg = tr.load_config(path)
    assert cfg.L == 5 and cfg.seed == 0


def test_load_config_bad_file(tmp_path):
    with pytest.raises(ConfigError):
        tr.load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        tr.load_config(bad)


def max_compliance(c, **sections):
    c.update(problem={"kind": "max_compliance", "C_t": 50.0}, **sections)


def file_scenarios(c, **keys):
    c.update(scenarios={"source": "file", "path": "loads.csv", **keys})


@pytest.mark.parametrize("mutate,fragment", [
    (lambda c: c.pop("schema_version"), "schema_version"),
    (lambda c: c.update(schema_version=2), "schema_version"),
    (lambda c: c.update(bogus=1), "unknown keys"),
    (lambda c: c["problem"].update(kind="minimax"), "problem.kind"),
    (lambda c: c["problem"].pop("volume_fraction"), "volume_fraction"),
    (lambda c: c["problem"].update(volume_fraction=1.0), "volume_fraction"),
    (lambda c: c["problem"].update(volume_fraction=True), "volume_fraction"),
    (lambda c: c["mesh"].update(dim=4), "mesh.dim"),
    (lambda c: c["mesh"].update(cells=[6]), "mesh.cells"),
    (lambda c: c["mesh"].update(cells=[6, 0]), "mesh.cells"),
    (lambda c: c.update(filter_radius=-2.0), "filter_radius"),
    (lambda c: c.update(x_min=0.0), "x_min"),
    (lambda c: c["scenarios"].update(source="guess"), "scenarios.source"),
    (lambda c: c["scenarios"].update(L=0), "scenarios.L"),
    (lambda c: c["scenarios"].update(seed=-1), "scenarios.seed"),
    (lambda c: c.update(method="fast"), "method"),
    (lambda c: c.update(svd_rel_tol=1.0), "svd_rel_tol"),
    (lambda c: c.update(schedule={"p_whoops": 2.0}), "schedule"),
    (lambda c: c["mesh"].update(elemnt_size=2.0), "mesh.elemnt_size"),
    (lambda c: c["problem"].update(volum_fraction=0.3), "problem.volum_fraction"),
    (lambda c: max_compliance(c, auglag={"bogus": 1}), "auglag.bogus"),
    (lambda c: max_compliance(c, auglag={"dual_iters": "ten"}), "dual_iters"),
    (lambda c: max_compliance(c, auglag={"dual_iters": 0}), "dual_iters"),
    (lambda c: max_compliance(c, auglag={"trust_region": -0.2}), "trust_region"),
    # values the section constructors cannot honour
    (lambda c: c.update(schedule={"p_step": 0}), "p_step"),
    (lambda c: c.update(schedule={"p_step": -0.5}), "p_step"),
    (lambda c: c.update(schedule={"beta_step": -4}), "beta_step"),
    (lambda c: c.update(schedule={"beta_step": 0}), "beta_step"),
    (lambda c: c.update(schedule={"tol_start": 0}), "tol_start"),
    (lambda c: c.update(schedule={"p_end": "six"}), "p_end"),
    (lambda c: c.update(mma={"max_iters": 2.5}), "max_iters"),
    (lambda c: c.update(mma={"max_iters": "ten"}), "max_iters"),
    (lambda c: c["mesh"].update(thickness=-1), "thickness"),
    (lambda c: c["mesh"].update(element_size=0), "element_size"),
    (lambda c: c["material"].update(poissons_ratio=0.7), "poissons_ratio"),
    (lambda c: c["material"].update(youngs_modulus=True), "youngs_modulus"),
    (lambda c: c["material"].pop("youngs_modulus"), "youngs_modulus"),
    (lambda c: c["material"].update(youngs_modulus=math.inf), "youngs_modulus"),
    (lambda c: c.update(filter_radius=math.inf), "config.filter_radius"),
    # keys the configured run does not read
    (lambda c: c["problem"].update(C_t=50.0), "problem.C_t"),
    (lambda c: c["problem"].update(m=2.0), "problem.m"),
    (lambda c: c.update(problem={"kind": "max_compliance", "C_t": 50.0,
                                 "volume_fraction": 0.4}), "problem.volume_fraction"),
    (lambda c: c["scenarios"].update(path="loads.csv"), "scenarios.path"),
    (lambda c: max_compliance(c, mma={}), "mma"),
    (lambda c: c.update(auglag={}), "auglag"),
    (lambda c: file_scenarios(c, L=5), "config.scenarios.L"),
    (lambda c: file_scenarios(c, seed=0), "config.scenarios.seed"),
    (lambda c: c["mesh"].update(cells=[True, 3]), "mesh.cells"),
])
def test_rejections_name_the_key(mutate, fragment):
    cfg = base_config()
    mutate(cfg)
    with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
        tr.parse_config(cfg)


def test_mean_std_default_m():
    cfg = tr.parse_config(base_config(
        problem={"kind": "mean_std", "volume_fraction": 0.4}))
    assert cfg.m == 2.0
    cfg = tr.parse_config(base_config(
        problem={"kind": "mean_std", "volume_fraction": 0.4, "m": 0.0}))
    assert cfg.m == 0.0


def test_max_compliance_threshold_forms():
    cfg = tr.parse_config(base_config(problem={"kind": "max_compliance", "C_t": 120.5}))
    assert cfg.C_t == 120.5
    cfg = tr.parse_config(base_config(problem={"kind": "max_compliance", "C_t": "inf"}))
    assert math.isinf(cfg.C_t)
    with pytest.raises(ConfigError):
        tr.parse_config(base_config(problem={"kind": "max_compliance", "C_t": -1.0}))
    with pytest.raises(ConfigError):
        tr.parse_config(base_config(problem={"kind": "max_compliance"}))
    with pytest.raises(ConfigError):
        tr.parse_config(base_config(problem={"kind": "max_compliance", "C_t": "huge"}))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, True])
def test_max_compliance_threshold_must_be_a_finite_positive_number_or_inf(value):
    # `json` reads NaN and Infinity; only the string "inf" turns the constraints off
    with pytest.raises(ConfigError, match="problem.C_t"):
        tr.parse_config(base_config(problem={"kind": "max_compliance", "C_t": value}))


def test_scenario_file_source(tmp_path):
    csv = tmp_path / "loads.csv"
    csv.write_text("dof,scenario,value\n13,0,-1.0\n")
    cfg = tr.parse_config(base_config(scenarios={"source": "file", "path": str(csv)}))
    model = build_model(cfg)
    assert model.scenarios.n_scenarios == 1
    assert model.scenarios.column(0)[13] == -1.0


def test_scenario_file_loading_a_fixed_dof_is_rejected(tmp_path):
    csv = tmp_path / "loads.csv"
    csv.write_text("dof,scenario,value\n13,0,-1.0\n2,1,0.5\n")
    cfg = tr.parse_config(base_config(scenarios={"source": "file", "path": str(csv)}))
    with pytest.raises(ConfigError, match="fixed DOF 2;"):
        build_model(cfg)
    # a zero entry on a support is no load
    csv.write_text("dof,scenario,value\n13,0,-1.0\n2,1,0.0\n")
    assert build_model(cfg).scenarios.n_scenarios == 2


def test_bad_mma_and_schedule_params_rejected():
    with pytest.raises(ConfigError):
        tr.parse_config(base_config(mma={"move": -1.0}))
    with pytest.raises(ConfigError):
        tr.parse_config(base_config(mma={"whirl": 3}))
    with pytest.raises(ConfigError):
        tr.parse_config(base_config(schedule={"tol_start": 1e-4, "tol_end": 1e-3}))


def test_builders_assemble_consistent_objects():
    cfg = tr.parse_config(base_config(method="naive"))
    mesh = build_mesh(cfg)
    assert mesh.n_elements == 18
    model = build_model(cfg)
    assert model.method == "naive"
    assert model.scenarios.n_scenarios == 5
    problem = build_problem(cfg, model)
    # mean compliance is mu + m sigma at m = 0
    assert isinstance(problem, tr.MeanStdProblem)
    assert problem.m == 0.0
    schedule = build_schedule(cfg)
    assert len(schedule.steps) == 16

    # CLI-style overrides
    model2 = build_model(cfg, method="svd", seed=9)
    assert model2.method == "svd"
    assert not (model2.scenarios.block == model.scenarios.block).all()


def test_build_problem_kinds():
    cfg = tr.parse_config(base_config(
        problem={"kind": "mean_std", "volume_fraction": 0.4, "m": 1.5}))
    problem = build_problem(cfg, build_model(cfg))
    assert isinstance(problem, tr.MeanStdProblem)
    assert problem.m == 1.5

    cfg = tr.parse_config(base_config(
        problem={"kind": "max_compliance", "C_t": 50.0},
        auglag={"dual_iters": 4}))
    problem = build_problem(cfg, build_model(cfg))
    assert isinstance(problem, tr.MaxComplianceProblem)
    assert problem.auglag_config.dual_iters == 4
    assert problem.auglag_config is cfg.auglag  # built once, in parse_config
