"""Command line behavior: exit codes, artifacts, and report consistency."""
import json
import os
import sys

import numpy as np
import pytest

import toporisk as tr
from toporisk import cli

from oracles import dense_scenarios


def write_config(tmp_path, **overrides):
    cfg = {
        "schema_version": 1,
        "problem": {"kind": "mean", "volume_fraction": 0.4},
        "mesh": {"dim": 2, "cells": [6, 3]},
        "material": {"youngs_modulus": 1.0, "poissons_ratio": 0.3},
        "filter_radius": 1.5,
        "scenarios": {"source": "sample", "L": 4, "seed": 0},
        "method": "naive",
        "schedule": {"p_end": 2.0, "beta_end": 0.0,
                     "tol_start": 2e-2, "tol_end": 1e-2},
    }
    cfg.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_writes_all_artifacts(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(config), "--out", str(out)])
    assert rc == 0
    for name in ("report.json", "history.csv", "density.vtk", "density.pgm",
                 "timing.json"):
        assert (out / name).exists(), name

    report = json.loads((out / "report.json").read_text())
    assert report["problem"] == "mean"
    assert report["method"] == "naive"
    assert report["n_elements"] == 18
    assert report["n_scenarios"] == 4
    assert 0.0 < report["volume"] <= 1.0
    assert report["seed"] == 0
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 1 + 3  # header plus one row per schedule step
    rows = [dict(zip(history[0].split(","), line.split(","))) for line in history[1:]]
    timing = json.loads((out / "timing.json").read_text())
    assert set(timing) == {"wall_seconds", "analyses", "total_solves", "step_seconds"}
    assert timing["wall_seconds"] > 0.0
    assert len(timing["step_seconds"]) == 3
    assert 0.0 < sum(timing["step_seconds"]) <= timing["wall_seconds"]
    assert timing["total_solves"] == report["total_solves"]
    # naive route: every analysis solves all 4 scenarios; the run's first
    # analysis fixes the objective scale before step 0
    assert timing["total_solves"] == 4 * timing["analyses"]
    assert sum(int(row["analyses"]) for row in rows) == timing["analyses"] - 1
    for row in rows:
        assert int(row["analyses"]) >= 1
        assert int(row["solves"]) == 4 * int(row["analyses"])
        # MMA steps run no AL dual loop
        assert row["dual_iters"] == "0"
        assert float(row["max_violation"]) == float(row["al_penalty"]) == 0.0
        assert float(row["multiplier"]) >= 0.0 and float(row["kkt_residual"]) >= 0.0


def test_run_report_matches_fresh_evaluation(tmp_path):
    """Values in report.json must be reproducible from the stored design."""
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())

    # rebuild the model and re-read the final design from the VTK artifact
    cfg = tr.load_config(config)
    from toporisk.config import build_mesh, build_model
    mesh = build_mesh(cfg)
    model = build_model(cfg, method="naive")
    lines = (out / "density.vtk").read_text().splitlines()
    start = next(i for i, l in enumerate(lines) if l == "LOOKUP_TABLE default") + 1
    vtk_vals = np.array([float(v) for v in lines[start:]])
    nx, ny = mesh.cells
    physical = vtk_vals.reshape(ny, nx).T.ravel()  # undo x-fastest ordering

    system = tr.StiffnessSystem.factorize(tr.assemble(mesh, model.ke, physical))
    stats = tr.compliances_naive(system, model.scenarios)
    assert abs(stats.mean - report["mu_C"]) <= 1e-9 * abs(report["mu_C"])
    assert abs(np.max(stats.C) - report["C_max"]) <= 1e-9 * report["C_max"]
    assert abs(np.mean(physical) - report["volume"]) <= 1e-12


def test_run_is_deterministic(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(config), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(config), "--out", str(out2)]) == 0
    for name in ("report.json", "history.csv", "density.vtk", "density.pgm"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("kind", ["mean", "max_compliance"])
def test_run_analyzes_no_design_point_twice(tmp_path, kind, analyze_spy):
    """The report reuses the last step's analysis, and timing.json counts
    every analysis the run made."""
    overrides = {}
    if kind == "max_compliance":
        cfg = tr.load_config(write_config(tmp_path, problem={"kind": kind, "C_t": "inf"}))
        from toporisk.config import build_model
        full = build_model(cfg).analyze(np.ones(18), 1.0, 0.0)
        overrides["problem"] = {"kind": kind, "C_t": 1.5 * float(np.max(full.stats.C))}
    config = write_config(tmp_path, **overrides)
    analyze_spy.clear()  # the threshold's analysis is not the run's
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    timing = json.loads((out / "timing.json").read_text())
    assert len(set(analyze_spy)) == len(analyze_spy) == timing["analyses"]


def test_run_max_compliance_reports_threshold(tmp_path):
    config = write_config(
        tmp_path,
        problem={"kind": "max_compliance", "C_t": "inf"},
        auglag={"dual_iters": 2, "primal_iters": 10},
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["C_t"] == "inf"
    assert report["problem"] == "max_compliance"


def test_method_override(tmp_path):
    config = write_config(tmp_path, scenarios={"source": "sample", "L": 12, "seed": 0})
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(config), "--out", str(out),
                   "--method", "svd"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "svd"


def test_bad_config_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"schema_version\": 99}")
    assert cli.main(["run", "--config", str(path)]) == 2
    path.write_text("not json at all")
    assert cli.main(["run", "--config", str(path)]) == 2
    assert cli.main(["run", "--config", str(tmp_path / "absent.json")]) == 2


def test_bad_auglag_value_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, problem={"kind": "max_compliance", "C_t": 50.0},
                          auglag={"dual_iters": 0})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "dual_iters" in capsys.readouterr().err


@pytest.mark.parametrize("overrides,key", [
    ({"schedule": {"p_step": 0}}, "p_step"),
    ({"mesh": {"dim": 2, "cells": [6, 3], "thickness": -1}}, "thickness"),
    ({"material": {"youngs_modulus": 1.0, "poissons_ratio": 0.7}}, "poissons_ratio"),
    ({"mma": {"max_iters": 2.5}}, "max_iters"),
    ({"schedule": {"p_start": 0.5}}, "penalty"),
    ({"schedule": {"p_step": 5e-324}}, "p_step"),
    ({"schedule": {"p_step": 1e-4}}, "p_step"),
    ({"schedule": {"p_start": 6, "p_end": 1}}, "p_end"),
    ({"schedule": {"beta_end": -4}}, "beta_end"),
    ({"mma": {"s_init": 0.5}}, "mma.s_init"),  # a fixed constant of mma.py
])
def test_bad_section_value_exits_2_without_traceback(tmp_path, capsys, overrides, key):
    config = write_config(tmp_path, **overrides)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert "Traceback" not in err


def test_mesh_larger_than_physical_memory_exits_2_before_assembly(tmp_path, capsys,
                                                                  monkeypatch):
    def reached(name):
        def fail(*args):
            raise AssertionError(f"{name} reached")
        return fail

    monkeypatch.setattr("toporisk.continuation.assemble", reached("assembly"))
    monkeypatch.setattr("toporisk.pipeline.build_filter", reached("the density filter"))
    monkeypatch.setattr("toporisk.continuation.physical_memory_bytes", lambda: 4 * 2**30)
    config = write_config(tmp_path, mesh={"dim": 3, "cells": [64, 32, 32]})
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "64x32x32" in err and "physical memory" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "bench", "check-grad", "sample-scenarios"])
@pytest.mark.parametrize("cells", [[10**9, 10**9], [10**7] * 3, [2, 600, 600]],
                         ids=["2d-1e9", "3d-1e7", "3d-2x600x600"])
def test_mesh_larger_than_physical_memory_exits_2_from_its_shape(tmp_path, capsys,
                                                                 monkeypatch, command, cells):
    """Refused from the mesh's shape, before the cantilever's fixed DOFs
    (2 x 10^9 Python ints in 2D) are built."""
    def cantilever_mesh(*args):
        raise AssertionError("the cantilever was built")

    monkeypatch.setattr("toporisk.config.cantilever_mesh", cantilever_mesh)
    config = write_config(tmp_path, mesh={"dim": len(cells), "cells": cells})
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "physical memory" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "bench", "check-grad", "sample-scenarios"])
def test_filter_larger_than_physical_memory_exits_2_before_it_is_built(tmp_path, capsys,
                                                                      monkeypatch, command):
    """At radius 1e6 the 40x20 filter couples every pair of elements: 640,000
    entries, about 46 MB to build, against a mocked memory that holds one
    analysis and half of that."""
    def build_filter(*args):
        raise AssertionError("the filter was built")

    mesh = tr.GroundMesh(2, (40, 20), 1.0)
    assert tr.pipeline.filter_entries(mesh, 1e6) == 800**2
    memory = tr.fea.analysis_bytes(mesh, 1)[1] + tr.pipeline.FILTER_BUILD_BYTES * 800**2 // 2
    monkeypatch.setattr("toporisk.pipeline.build_filter", build_filter)
    monkeypatch.setattr("toporisk.continuation.physical_memory_bytes", lambda: memory)
    config = write_config(tmp_path, mesh={"dim": 2, "cells": [40, 20]}, filter_radius=1e6)
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "density filter of 6.4e+05 entries" in err and "physical memory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "sample-scenarios"])
def test_sampled_loads_larger_than_physical_memory_exit_2_before_sampling(tmp_path, capsys,
                                                                          monkeypatch, command):
    """L = 10^6 scenarios on the 6x3 mesh's 28 free surface DOFs are 224 MB
    of loads dense and 80 MB as the sampler's factors, against a mocked
    16 MB of memory that one analysis fits in."""
    def sampler(*args):
        raise AssertionError("the sampler was reached")

    monkeypatch.setattr("toporisk.config.sample_cantilever_scenarios", sampler)
    monkeypatch.setattr("toporisk.continuation.physical_memory_bytes", lambda: 16 * 2**20)
    config = write_config(tmp_path, scenarios={"source": "sample", "L": 10**6, "seed": 0})
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "scenario loads" in err and "physical memory" in err and "Traceback" not in err


def test_svd_run_fits_where_the_dense_block_of_loads_does_not(tmp_path, capsys, monkeypatch):
    """L = 10^4 on the 6x3 mesh's 28 free surface DOFs: the dense block
    (2.24 MB) exceeds a mocked 1.5 MB of memory, its factors (0.8 MB) fit
    beside the SVD route's 10-column analysis, so the SVD run completes.
    The naive route at that L exits 2 before it forms the dense block."""
    def loaded_block(*args):
        raise AssertionError("the dense block was formed")

    memory = 1.5e6
    mesh = tr.cantilever_mesh(2, (6, 3))
    assert 8 * 28 * 10**4 > memory > 8 * 10 * (28 + 10**4) + tr.fea.analysis_bytes(mesh, 10)[1]
    monkeypatch.setattr("toporisk.continuation.physical_memory_bytes", lambda: memory)
    scenarios = {"source": "sample", "L": 10**4, "seed": 0}
    config = write_config(tmp_path, scenarios=scenarios, method="svd")
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "svd")]) == 0
    assert json.loads((tmp_path / "svd" / "report.json").read_text())["n_scenarios"] == 10**4

    monkeypatch.setattr(tr.ScenarioMatrix, "loaded_block", loaded_block)
    config = write_config(tmp_path, scenarios=scenarios, method="naive")
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "naive")]) == 2
    err = capsys.readouterr().err
    assert "scenario loads" in err and "physical memory" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "bench", "check-grad", "sample-scenarios"])
def test_one_cell_long_sampled_cantilever_exits_2(tmp_path, capsys, command):
    config = write_config(tmp_path, mesh={"dim": 2, "cells": [1, 4]})
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "at least 2 cells along x" in err and "Traceback" not in err


def test_nan_threshold_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, problem={"kind": "max_compliance", "C_t": float("nan")})
    assert "NaN" in config.read_text()  # what `json` writes, and reads back
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "problem.C_t" in err and "Traceback" not in err


def test_load_on_fixed_dof_exits_2(tmp_path, capsys):
    loads = tmp_path / "loads.csv"
    loads.write_text("dof,scenario,value\n13,0,-1.0\n2,0,1.0\n")
    config = write_config(tmp_path, scenarios={"source": "file", "path": str(loads)})
    assert cli.main(["check-grad", "--config", str(config)]) == 2
    assert "fixed DOF 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "bench", "check-grad"])
@pytest.mark.parametrize("content,message", [
    (None, "cannot read"),
    (b"dof,scenario,value\n13,0,-1.0\xff\n", "cannot read"),
    (b"dof,scenario,value\n13,0,heavy\n", "loads.csv:2"),
    (b"dof,scenario,value\n13,0,-1.0\n500,1,1.0\n", "out of range"),
    (b"dof,scenario,value\n13,0," + b"1" * 200_000 + b"\n", "field limit"),
    (b"dof,scenario,value\n40,1000000000000,1.0\n", "physical memory"),
], ids=["missing", "not-utf8", "bad-value", "dof-out-of-range", "field-over-csv-limit",
        "block-over-memory"])
def test_unusable_scenario_file_exits_2(tmp_path, capsys, command, content, message):
    loads = tmp_path / "loads.csv"
    if content is not None:
        loads.write_bytes(content)
    config = write_config(tmp_path, scenarios={"source": "file", "path": str(loads)})
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "bench", "check-grad"])
def test_scenario_file_too_large_to_read_exits_2_at_the_line_that_passes_memory(
        tmp_path, capsys, monkeypatch, command):
    """A mocked memory that holds 100 entries at `CSV_ENTRY_BYTES` each: the
    reader stops at the 101st of 1000 entries, on line 102, before it holds
    them all (their 1 x 1000 block alone would fit)."""
    loads = tmp_path / "loads.csv"
    loads.write_text("dof,scenario,value\n" + "".join(f"13,{i},1.0\n" for i in range(1000)))
    monkeypatch.setattr("toporisk.scenarios.physical_memory_bytes",
                        lambda: 100 * tr.scenarios.CSV_ENTRY_BYTES)
    config = write_config(tmp_path, scenarios={"source": "file", "path": str(loads)})
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "loads.csv:102: the entries read" in err and "physical memory" in err
    assert "Traceback" not in err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    config.write_bytes(config.read_bytes().replace(b'"naive"', b'"na\xefve"'))
    assert cli.main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "cannot read" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "bench", "sample-scenarios"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, command):
    config = write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert cli.main([command, "--config", str(config), "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert "output directory" in err and "Traceback" not in err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("command,problem", [
    ("run", {"kind": "mean", "volume_fraction": 0.4}),
    ("run", {"kind": "max_compliance", "C_t": 1.0}),
    ("bench", {"kind": "mean", "volume_fraction": 0.4}),
], ids=["run-mean", "run-max-compliance", "bench"])
@pytest.mark.parametrize("method", ["naive", "svd"])
def test_non_finite_compliances_exit_3_at_the_first_analysis(tmp_path, capsys, analyze_spy,
                                                             command, problem, method):
    """Loads of 1e308 overflow the solve: C_i is not finite on either route."""
    loads = tmp_path / "loads.csv"
    loads.write_text("dof,scenario,value\n13,0,-1e308\n21,1,1e308\n13,2,1e308\n")
    config = write_config(tmp_path, problem=problem, method=method,
                          scenarios={"source": "file", "path": str(loads)})
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "solver error" in err and "not finite" in err and "Traceback" not in err
    assert len(analyze_spy) == (1 if command == "run" else 0)  # bench analyzes directly


def test_bench_checks_memory_for_all_scenario_columns(tmp_path, capsys, monkeypatch):
    """An SVD config's model needs memory for n_s = 10 solved columns; bench
    solves all L = 1000 on its naive rows, so it checks for those first."""
    def assemble(*args):
        raise AssertionError("assembly reached")

    mesh = tr.cantilever_mesh(2, (6, 3))
    svd_need = max(tr.fea.analysis_bytes(mesh, 10)[1],
                   tr.fea.analysis_bytes(mesh, 1)[1] + 8 * mesh.free_surface_dofs().size * 1000)
    naive_need = tr.fea.analysis_bytes(mesh, 1000)[1]
    assert svd_need < naive_need
    monkeypatch.setattr("toporisk.continuation.physical_memory_bytes",
                        lambda: (svd_need + naive_need) // 2)
    monkeypatch.setattr("toporisk.continuation.assemble", assemble)
    config = write_config(tmp_path, method="svd",
                          scenarios={"source": "sample", "L": 1000, "seed": 0})
    assert cli.main(["bench", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "1000-column solves" in err and "physical memory" in err and "Traceback" not in err


def test_bench_makes_thin_svds_only_in_its_timed_rows(tmp_path, monkeypatch):
    calls = []

    def spy(F):
        calls.append(F)
        return tr.thin_svd(F)

    monkeypatch.setattr("toporisk.cli.thin_svd", spy)
    monkeypatch.setattr("toporisk.continuation.thin_svd", spy)
    config = write_config(tmp_path, method="svd")
    assert cli.main(["bench", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    # each statistic's SVD row: one warm-up run and the timed runs
    assert len(calls) == len(cli.BENCH_STATISTICS) * (1 + cli.BENCH_REPEATS) == 12
    # on the sampled loads as the config builds them, not the naive model's block
    assert all(F.block is None for F in calls)


@pytest.mark.parametrize("command,method", [("run", "naive"), ("run", "svd"), ("bench", "naive")])
def test_all_zero_loads_exit_2(tmp_path, capsys, command, method):
    loads = tmp_path / "loads.csv"
    loads.write_text("dof,scenario,value\n13,0,0.0\n21,1,0.0\n")
    config = write_config(tmp_path, method=method,
                          scenarios={"source": "file", "path": str(loads)})
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "load is zero" in err and "Traceback" not in err


@pytest.mark.parametrize("command,method", [("run", "naive"), ("run", "svd"), ("bench", "svd")])
def test_overflowing_loads_exit_3(tmp_path, capsys, command, method):
    """Finite loads whose largest singular value overflows (a 17 x 17 block
    of 1e308, S_1 = 1.7e309): no route takes them for zero loads or gives
    compliances of 0."""
    loads = tmp_path / "loads.csv"
    loads.write_text("dof,scenario,value\n" + "".join(
        f"{dof},{i},1e308\n" for dof in range(20, 37) for i in range(17)))
    config = write_config(tmp_path, method=method,
                          scenarios={"source": "file", "path": str(loads)})
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "not finite" in err and "Traceback" not in err


def test_overflowing_factors_exit_3_on_the_naive_route(tmp_path, capsys, monkeypatch):
    """Sampled factors of 1e200 whose product overflows: the naive model
    multiplies them out with no RuntimeWarning (an error under the tests'
    filter) and its first analysis exits 3."""
    def sampler(mesh, L, seed):
        dofs = mesh.free_surface_dofs()[-4:]
        return tr.ScenarioMatrix(mesh.n_dofs, dofs, basis=np.full((4, 2), 1e200),
                                 coefficients=np.full((2, L), 1e200))

    monkeypatch.setattr("toporisk.config.sample_cantilever_scenarios", sampler)
    config = write_config(tmp_path, method="naive")
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "not finite" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "check-grad"])
def test_seed_on_a_file_source_exits_2(tmp_path, capsys, command):
    loads = tmp_path / "loads.csv"
    loads.write_text("dof,scenario,value\n13,0,-1.0\n21,1,1.0\n")
    config = write_config(tmp_path, scenarios={"source": "file", "path": str(loads)})
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out"), "--seed", "7"]
    assert cli.main(argv) == 2
    assert "--seed" in capsys.readouterr().err


def test_check_grad_on_a_file_source_checks_one_point(tmp_path, capsys):
    loads = tmp_path / "loads.csv"
    loads.write_text("dof,scenario,value\n13,0,-1.0\n13,1,0.5\n21,1,1.0\n")
    config = write_config(tmp_path, scenarios={"source": "file", "path": str(loads)})
    tables = []
    for _ in range(2):
        assert cli.main(["check-grad", "--config", str(config)]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]


def test_bench_survives_a_closed_stdout(tmp_path, monkeypatch):
    """`toporisk bench | head`: exit 0 with bench.csv written, stdout sent to devnull."""

    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    config = write_config(tmp_path)
    out = tmp_path / "out"
    fd = os.open(tmp_path / "stdout.txt", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        assert cli.main(["bench", "--config", str(config), "--out", str(out)]) == 0
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert len((out / "bench.csv").read_text().splitlines()) == 5


def test_invalid_flag_values_exit_2(tmp_path):
    config = write_config(tmp_path)
    assert cli.main(["run", "--config", str(config), "--seed", "-3"]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", str(config), "--threads", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["run", "bench", "check-grad", "sample-scenarios"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    config = write_config(tmp_path)
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out"), "--seed", "-1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "--seed" in err


@pytest.mark.parametrize("command", ["run", "bench", "check-grad"])
@pytest.mark.parametrize("dim,cells,element_size", [
    (2, [6, 3], 1e300), (2, [6, 3], 1e160), (2, [6, 3], 1e-300),
    (3, [3, 2, 2], 1e300), (3, [3, 2, 2], 1e160), (3, [3, 2, 2], 1e-300),
])
def test_extreme_element_sizes_exit_0_or_3(tmp_path, capsys, command, dim, cells,
                                           element_size):
    """A 3D element scales as h. The unit structure is factored and C is
    divided by E h, so every size runs; at h = 1e-300 the compliances are
    about 1e302, and check-grad fails var_C by name (exit 4): the variance
    is past the float range, and so is its gradient."""
    config = write_config(tmp_path, mesh={"dim": dim, "cells": cells,
                                          "element_size": element_size})
    code = 4 if (dim, element_size, command) == (3, 1e-300, "check-grad") else 0
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 4:
        assert "FAILED: var_C" in err


@pytest.mark.parametrize("command", ["run", "bench", "check-grad"])
@pytest.mark.parametrize("material,mesh", [
    ({"youngs_modulus": 1e-12}, {}),
    ({}, {"thickness": 1e-12}),
    ({"youngs_modulus": 2.1e11}, {}),
])
def test_stiffness_scale_leaves_every_command_one_exit_code(tmp_path, capsys, command,
                                                            material, mesh):
    """Bench used to exit 0 where run and check-grad exited 3 at E t = 1e-12:
    the unit Dirichlet diagonals set the factor's pivot floor whatever E t
    was. The unit structure is factored now, at every scale."""
    config = write_config(tmp_path, method="svd",
                          material={"youngs_modulus": 1.0, "poissons_ratio": 0.3, **material},
                          mesh={"dim": 2, "cells": [6, 3], **mesh})
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_stiffness_scale_outside_the_float_range_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, material={"youngs_modulus": 1e300, "poissons_ratio": 0.3},
                          mesh={"dim": 2, "cells": [6, 3], "thickness": 1e300})
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "youngs_modulus x thickness = inf" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("youngs_modulus", [2.1e11, 1e12])
def test_physical_stiffness_runs_at_80x20(tmp_path, capsys, command, youngs_modulus):
    """Steel in Pa and stiffer: the factor's pivot floor once rejected E = 1e12
    on 80x20 (exit 3), beside unit Dirichlet diagonals."""
    config = write_config(tmp_path, method="svd",
                          material={"youngs_modulus": youngs_modulus, "poissons_ratio": 0.3},
                          mesh={"dim": 2, "cells": [80, 20]},
                          scenarios={"source": "sample", "L": 10, "seed": 0})
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_method_flag_only_where_it_is_read(tmp_path):
    config = write_config(tmp_path)
    for command in ("bench", "sample-scenarios"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(config), "--method", "svd"])
        assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_check_grad_passes_on_small_mesh(tmp_path, capsys):
    config = write_config(tmp_path, mesh={"dim": 2, "cells": [10, 5]},
                          scenarios={"source": "sample", "L": 5, "seed": 0})
    rc = cli.main(["check-grad", "--config", str(config)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gradient check passed" in out


def test_check_grad_fails_with_tiny_tolerance(tmp_path):
    config = write_config(tmp_path, mesh={"dim": 2, "cells": [6, 3]},
                          scenarios={"source": "sample", "L": 4, "seed": 0})
    rc = cli.main(["check-grad", "--config", str(config), "--tol", "1e-13"])
    assert rc == 4


def test_run_at_a_filter_radius_near_the_float_limit(tmp_path, capsys):
    """Cone weights of about 1e307 used to overflow the filter's row sums,
    leaving every density at x_min (volume 0.001) and the run at exit 0."""
    config = write_config(tmp_path, filter_radius=1e307, method="svd",
                          scenarios={"source": "sample", "L": 6, "seed": 0})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert abs(json.loads((out / "report.json").read_text())["volume"] - 0.4) <= 1e-3


def test_objective_that_overflows_exits_3(tmp_path, capsys):
    """mu + m sigma at m = 1e308 is inf: a solver error, not a traceback."""
    config = write_config(tmp_path, problem={"kind": "mean_std", "volume_fraction": 0.4,
                                             "m": 1e308})
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "solver error" in err and "not finite" in err and "Traceback" not in err


def write_scaled_loads_config(tmp_path, scale, **overrides):
    """The 6x3 config with three file loads of size `scale` at DOFs 13-15."""
    csv = tmp_path / "loads.csv"
    csv.write_text("dof,scenario,value\n" + "".join(
        f"{13 + i},{i},{sign * scale!r}\n" for i, sign in enumerate((-1.0, 1.0, -1.0))))
    return write_config(tmp_path, scenarios={"source": "file", "path": str(csv)}, **overrides)


@pytest.mark.parametrize("method", ["naive", "svd"])
@pytest.mark.parametrize("problem", [{"kind": "mean", "volume_fraction": 0.4},
                                     {"kind": "mean_std", "volume_fraction": 0.4, "m": 2.0}],
                         ids=["mean", "mean_std"])
def test_run_at_loads_whose_compliance_variance_overflows(tmp_path, capsys, problem, method):
    """Loads of 1e78 make compliances near 1e156, whose squared deviations
    pass the float range; sigma does not, so both kinds run."""
    config = write_scaled_loads_config(tmp_path, 1e78, problem=problem, method=method)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert 0.0 < report["sigma_C"] < report["mu_C"] < 1e157


@pytest.mark.parametrize("method", ["naive", "svd"])
def test_check_grad_fails_on_a_non_finite_error_and_names_it(tmp_path, capsys, method):
    """At loads of 1e140 the variance (about 1e560) is no float, so var_C's
    finite differences are NaN: a failed check, not a pass."""
    config = write_scaled_loads_config(tmp_path, 1e140, method=method)
    assert cli.main(["check-grad", "--config", str(config)]) == 4
    captured = capsys.readouterr()
    assert "gradient check FAILED: var_C" in captured.err
    assert "passed" not in captured.out and "Traceback" not in captured.err


def test_check_grad_rejects_large_mesh(tmp_path):
    config = write_config(tmp_path, mesh={"dim": 2, "cells": [30, 10]})
    assert cli.main(["check-grad", "--config", str(config)]) == 2


@pytest.mark.parametrize("flag,value", [
    ("--fd-step", "0.0"), ("--fd-step", "nan"), ("--fd-step", "inf"), ("--fd-step", "0.3"),
    ("--penalty", "0.5"), ("--penalty", "nan"), ("--penalty", "inf"),
    ("--beta", "-1"), ("--beta", "nan"),
    ("--tol", "nan"), ("--tol", "0"), ("--tol", "inf"),
])
def test_check_grad_rejects_bad_numeric_flags(tmp_path, capsys, flag, value):
    config = write_config(tmp_path)
    assert cli.main(["check-grad", "--config", str(config), flag, value]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and flag in err
    assert "Traceback" not in err


def test_bench_table_and_solve_counts(tmp_path):
    config = write_config(tmp_path,
                          scenarios={"source": "sample", "L": 30, "seed": 1})
    out = tmp_path / "out"
    rc = cli.main(["bench", "--config", str(config), "--out", str(out)])
    assert rc == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "statistic,method,value,seconds,solves"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 4
    table = {(r[0], r[1]): (float(r[2]), int(r[4])) for r in rows}
    for stat in ("mu_C", "sigma_C"):
        naive_val, naive_solves = table[(stat, "naive")]
        svd_val, svd_solves = table[(stat, "svd")]
        assert naive_solves == 30
        assert svd_solves == 10  # sampler rank caps at ten
        assert abs(svd_val - naive_val) <= 1e-9 * abs(naive_val)


def test_bench_exits_3_when_the_routes_disagree(tmp_path, capsys, monkeypatch):
    # a cut at 0.5 drops one of the four singular directions, so the SVD
    # route is no longer exact
    monkeypatch.setattr(tr.scenarios, "SVD_REL_TOL", 0.5)
    config = write_config(tmp_path)
    assert cli.main(["bench", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    assert "disagrees between methods" in capsys.readouterr().err


def test_bench_exits_3_when_a_route_gap_is_not_finite(tmp_path, capsys, monkeypatch):
    def nan_std(stats):
        return np.nan, cli.comp.std(stats)[1]

    monkeypatch.setitem(cli.BENCH_STATISTICS, "sigma_C", nan_std)
    config = write_config(tmp_path)
    assert cli.main(["bench", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    assert "sigma_C disagrees between methods by nan" in capsys.readouterr().err


def test_sample_scenarios_round_trip(tmp_path, capsys):
    config = write_config(tmp_path,
                          scenarios={"source": "sample", "L": 7, "seed": 3})
    out = tmp_path / "out"
    rc = cli.main(["sample-scenarios", "--config", str(config), "--out", str(out)])
    assert rc == 0
    assert "7 scenarios" in capsys.readouterr().out

    mesh = tr.cantilever_mesh(2, (6, 3))
    loaded = tr.load_scenarios_from_file(out / "scenarios.csv", n_dofs=mesh.n_dofs)
    direct = tr.sample_cantilever_scenarios(mesh, 7, 3)
    np.testing.assert_array_equal(dense_scenarios(loaded), dense_scenarios(direct))


def test_sample_scenarios_needs_sampling_config(tmp_path):
    csv = tmp_path / "ext.csv"
    csv.write_text("dof,scenario,value\n3,0,1.0\n")
    config = write_config(tmp_path, scenarios={"source": "file", "path": str(csv)})
    assert cli.main(["sample-scenarios", "--config", str(config)]) == 2


def test_log_level_env_is_tolerated(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TOPO_RISK_LOG", "chatty")  # unknown: falls back to error
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["sample-scenarios", "--config", str(config),
                     "--out", str(out)]) == 0
