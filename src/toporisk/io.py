"""Artifact writers: VTK voxel densities, PGM images, JSON reports, CSV history.

All text artifacts use UTF-8 with LF line endings. Floating point values
are written in shortest round-trip form so rereading reproduces them
bitwise, which keeps reports byte-identical across repeated runs of the
same configuration.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .mesh import GroundMesh

HISTORY_COLUMNS = (
    "step", "penalty", "beta", "tolerance", "objective_start", "objective_end",
    "volume", "max_compliance", "n_iters", "dual_iters", "multiplier", "kkt_residual",
    "max_violation", "al_penalty", "analyses", "solves", "converged",
)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_vtk(path, mesh: GroundMesh, values: np.ndarray) -> None:
    """Legacy ASCII VTK structured-points file with one scalar per cell, "density".

    VTK orders cells x-fastest, then y, then z; element values are
    permuted from the mesh's x-slowest numbering accordingly.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_elements,):
        raise ValueError(f"values must have shape ({mesh.n_elements},), got {values.shape}")
    # reversing the axes of the x-slowest element grid makes x fastest
    ordered = values.reshape(mesh.cells).T.ravel()
    points = [c + 1 for c in mesh.cells] + [2] * (3 - mesh.dim)
    h = mesh.element_size
    lines = [
        "# vtk DataFile Version 3.0",
        "density",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        "DIMENSIONS " + " ".join(str(p) for p in points),
        "ORIGIN 0 0 0",
        f"SPACING {_fmt(h)} {_fmt(h)} {_fmt(h)}",
        f"CELL_DATA {mesh.n_elements}",
        "SCALARS density double 1",
        "LOOKUP_TABLE default",
    ]
    lines.extend(_fmt(v) for v in ordered)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_pgm(path, mesh: GroundMesh, values: np.ndarray) -> None:
    """Plain (P2) PGM image of a 2D density field, 256 gray levels.

    The pixel at image row r and column c shows element (ex=c,
    ey=ny-1-r): rows run top to bottom while element rows run bottom to
    top, so the image appears in the mesh's orientation. Density 0 maps
    to black, 1 to white.
    """
    if mesh.dim != 2:
        raise ValueError("PGM export is defined for 2D meshes only")
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_elements,):
        raise ValueError(f"values must have shape ({mesh.n_elements},), got {values.shape}")
    nx, ny = mesh.cells
    grid = values.reshape(nx, ny)
    levels = np.rint(np.clip(grid, 0.0, 1.0) * 255).astype(int)
    rows = []
    for r in range(ny):
        rows.append(" ".join(str(levels[c, ny - 1 - r]) for c in range(nx)))
    text = f"P2\n{nx} {ny}\n255\n" + "\n".join(rows) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def write_report(path, report: dict) -> None:
    """Deterministic JSON: sorted keys, no NaN/Infinity literals.

    Non-finite numbers must be stringified by the caller beforehand
    (e.g. a disabled threshold as "inf").
    """
    for key, value in report.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"report field {key!r} is non-finite; stringify it first")
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def write_history(path, history: list) -> None:
    """Continuation history as CSV, one row per step."""
    lines = [",".join(HISTORY_COLUMNS)]
    for record in history:
        lines.append(",".join(_fmt(record[col]) for col in HISTORY_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
