"""Command line behavior: exit codes, artifacts, and report consistency."""
import json
import os
import sys

import numpy as np
import pytest

import toporisk as tr
from toporisk import cli


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
    assert set(timing) == {"wall_seconds", "analyses", "total_solves"}
    assert timing["wall_seconds"] > 0.0
    assert timing["total_solves"] == report["total_solves"]
    # naive route: every analysis solves all 4 scenarios; the run's first
    # analysis fixes the objective scale before step 0
    assert timing["total_solves"] == 4 * timing["analyses"]
    assert sum(int(row["analyses"]) for row in rows) == timing["analyses"] - 1
    for row in rows:
        assert int(row["analyses"]) >= 1
        assert int(row["solves"]) == 4 * int(row["analyses"])
        assert row["dual_iters"] == "0"  # MMA steps run no AL dual loop


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
    model = build_model(cfg)
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
])
def test_bad_section_value_exits_2_without_traceback(tmp_path, capsys, overrides, key):
    config = write_config(tmp_path, **overrides)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert "Traceback" not in err


def test_load_on_fixed_dof_exits_2(tmp_path, capsys):
    loads = tmp_path / "loads.csv"
    loads.write_text("dof,scenario,value\n13,0,-1.0\n2,0,1.0\n")
    config = write_config(tmp_path, scenarios={"source": "file", "path": str(loads)})
    assert cli.main(["check-grad", "--config", str(config)]) == 2
    assert "fixed DOF 2" in capsys.readouterr().err


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


def test_check_grad_rejects_large_mesh(tmp_path):
    config = write_config(tmp_path, mesh={"dim": 2, "cells": [30, 10]})
    assert cli.main(["check-grad", "--config", str(config)]) == 2


def test_check_grad_rejects_bad_fd_step(tmp_path):
    config = write_config(tmp_path)
    assert cli.main(["check-grad", "--config", str(config), "--fd-step", "0.0"]) == 2


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


def test_bench_uses_the_configured_svd_tolerance(tmp_path, capsys):
    # 0.5 drops one of the four singular directions, so the routes disagree
    config = write_config(tmp_path, svd_rel_tol=0.5)
    assert cli.main(["bench", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    assert "disagrees between methods" in capsys.readouterr().err


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
    np.testing.assert_array_equal(loaded.to_dense(), direct.to_dense())


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
