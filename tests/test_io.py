"""Artifact writers: VTK voxel files, PGM images, JSON reports, history CSV."""
import json

import numpy as np
import pytest

import toporisk as tr
from toporisk.io import write_history, write_pgm, write_report, write_vtk


def parse_vtk(text):
    lines = text.splitlines()
    dims = tuple(int(v) for v in lines[4].split()[1:])
    cell_line = next(i for i, l in enumerate(lines) if l.startswith("CELL_DATA"))
    n_cells = int(lines[cell_line].split()[1])
    values = [float(v) for v in lines[cell_line + 3:]]
    return dims, n_cells, np.array(values)


def test_vtk_2d_structure_and_ordering(tmp_path):
    mesh = tr.cantilever_mesh(2, (3, 2), element_size=0.5)
    values = np.arange(6, dtype=float)  # element e = ex*ny + ey
    path = tmp_path / "d.vtk"
    write_vtk(path, mesh, values)
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version 3.0\n")
    dims, n_cells, ordered = parse_vtk(text)
    assert dims == (4, 3, 2)
    assert n_cells == mesh.n_elements
    assert "SPACING 0.5 0.5 0.5" in text
    # VTK wants x fastest: cell (ex, ey) sits at position ey*nx + ex
    expected = np.empty(6)
    for ex in range(3):
        for ey in range(2):
            expected[ey * 3 + ex] = values[ex * 2 + ey]
    np.testing.assert_array_equal(ordered, expected)


def test_vtk_3d_cell_count(tmp_path):
    mesh = tr.cantilever_mesh(3, (3, 2, 2))
    values = np.linspace(0, 1, mesh.n_elements)
    path = tmp_path / "d.vtk"
    write_vtk(path, mesh, values)
    dims, n_cells, ordered = parse_vtk(path.read_text())
    assert dims == (4, 3, 3)
    assert n_cells == 12 == mesh.n_elements
    assert ordered.size == mesh.n_elements
    # x-fastest ordering: first entry is element (0,0,0), second (1,0,0)
    assert ordered[0] == values[0]
    assert ordered[1] == values[mesh.cells[1] * mesh.cells[2]]


def test_vtk_3d_cell_order_is_x_fastest(tmp_path):
    mesh = tr.cantilever_mesh(3, (3, 2, 4))
    values = np.arange(mesh.n_elements, dtype=float)  # e = ex*ny*nz + ey*nz + ez
    path = tmp_path / "d.vtk"
    write_vtk(path, mesh, values)
    dims, _, ordered = parse_vtk(path.read_text())
    assert dims == (4, 3, 5)
    nx, ny, nz = mesh.cells
    expected = np.empty(mesh.n_elements)
    for ex in range(nx):
        for ey in range(ny):
            for ez in range(nz):
                expected[ez * ny * nx + ey * nx + ex] = values[ex * ny * nz + ey * nz + ez]
    np.testing.assert_array_equal(ordered, expected)


def test_vtk_rejects_wrong_length(tmp_path):
    mesh = tr.cantilever_mesh(2, (3, 2))
    with pytest.raises(ValueError):
        write_vtk(tmp_path / "d.vtk", mesh, np.zeros(5))


def test_pgm_orientation(tmp_path):
    # ny = 2 rows; image row 0 shows the TOP element row (ey = 1)
    mesh = tr.cantilever_mesh(2, (3, 2))
    values = np.zeros(6)
    values[mesh.cells[1] * 0 + 1] = 1.0  # element (ex=0, ey=1): top-left
    path = tmp_path / "d.pgm"
    write_pgm(path, mesh, values)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "3 2"
    assert lines[2] == "255"
    assert lines[3].split() == ["255", "0", "0"]  # top image row
    assert lines[4].split() == ["0", "0", "0"]


def test_pgm_clips_and_quantizes(tmp_path):
    mesh = tr.cantilever_mesh(2, (2, 1))
    path = tmp_path / "d.pgm"
    write_pgm(path, mesh, np.array([0.5, 2.0]))
    rows = path.read_text().splitlines()[3:]
    assert rows[0].split() == [str(round(0.5 * 255)), "255"]


def test_pgm_rejects_3d(tmp_path):
    mesh = tr.cantilever_mesh(3, (2, 2, 2))
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "d.pgm", mesh, np.zeros(8))


def test_report_is_deterministic(tmp_path):
    report = {"b": 1.5, "a": 3, "nested": {"z": True}}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_report(p1, report)
    write_report(p2, dict(reversed(list(report.items()))))
    assert p1.read_bytes() == p2.read_bytes()  # key order cannot leak through
    parsed = json.loads(p1.read_text())
    assert parsed == report


def test_report_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        write_report(tmp_path / "r.json", {"C_t": float("inf")})
    with pytest.raises(ValueError):
        write_report(tmp_path / "r.json", {"x": float("nan")})


def test_history_csv_round_trip(tmp_path):
    records = [{
        "step": 0, "penalty": 1.0, "beta": 0.0, "tolerance": 1e-3,
        "objective_start": 1.0, "objective_end": 0.75, "volume": 0.4,
        "max_compliance": 123.456, "n_iters": 17, "dual_iters": 4, "multiplier": 0.25,
        "kkt_residual": 3e-5, "max_violation": 0.125, "al_penalty": 2.7,
        "analyses": 18, "solves": 170, "converged": True,
    }]
    path = tmp_path / "h.csv"
    write_history(path, records)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[:4] == ["step", "penalty", "beta", "tolerance"]
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert float(fields[7]) == 123.456  # shortest round-trip repr
    assert fields[9] == "4"
    assert float(fields[10]) == 0.25
    assert float(fields[11]) == 3e-5
    assert float(fields[12]) == 0.125
    assert float(fields[13]) == 2.7
    assert fields[14] == "18"
    assert fields[16] == "1"  # converged flag as 0/1
