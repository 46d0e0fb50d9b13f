"""Loading scenario matrices, their thin SVD, and the benchmark sampler.

A scenario matrix F holds L load vectors as columns. In practice only a
few DOFs ever carry load, so F is stored as a dense block over the
loaded DOF rows plus the row index list; the zero rows are never
materialized. The thin SVD is likewise computed on the block only, so
its left singular vectors U hold the loaded rows only. It keeps every
singular value at or above `SVD_REL_TOL` times the largest: the SVD
route evaluates F^T K^-1 F exactly.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioFormatError
from .mesh import GroundMesh

SVD_REL_TOL = 1e-10
_SKETCH_COLUMNS = 16  # first sketch width of `_truncated_svd`, doubled as needed
_SKETCH_SEED = 0
_RESIDUAL_ROWS = 16  # rows per block of the sketch residual, see `_residual_norm`


@dataclass(frozen=True)
class ScenarioMatrix:
    """L load scenarios on an n_dofs structure, stored sparsely by row.

    Attributes
    ----------
    n_dofs : int
        Total DOF count of the structure.
    dofs : ndarray
        Strictly increasing indices of the rows that may be nonzero.
    block : ndarray
        (len(dofs), L) dense block of load values; column i is scenario i
        restricted to `dofs`.
    """

    n_dofs: int
    dofs: np.ndarray
    block: np.ndarray

    def __post_init__(self):
        dofs = np.asarray(self.dofs, dtype=np.int64)
        block = np.asarray(self.block, dtype=float)
        if dofs.ndim != 1 or block.ndim != 2 or block.shape[0] != dofs.size:
            raise ValueError("dofs must be 1-D and block must be (len(dofs), L)")
        if block.shape[1] < 1:
            raise ValueError("a scenario matrix needs at least one scenario")
        if dofs.size:
            if dofs[0] < 0 or dofs[-1] >= self.n_dofs:
                raise ValueError("loaded DOF index out of range")
            if np.any(np.diff(dofs) <= 0):
                raise ValueError("dofs must be strictly increasing")
        object.__setattr__(self, "dofs", dofs)
        object.__setattr__(self, "block", block)

    @property
    def n_scenarios(self) -> int:
        return self.block.shape[1]

    @property
    def n_loaded(self) -> int:
        return self.dofs.size

    def column(self, i: int) -> np.ndarray:
        """Scenario i as a full n_dofs vector."""
        f = np.zeros(self.n_dofs)
        f[self.dofs] = self.block[:, i]
        return f

    def to_dense(self) -> np.ndarray:
        """Full (n_dofs, L) matrix, zero off the loaded rows.

        The analyses never build it: both routes hand their loaded rows to
        `StiffnessSystem.solve(block, rows=dofs)`, which scatters them into
        its own work block. Tests use it as the dense reference.
        """
        F = np.zeros((self.n_dofs, self.n_scenarios))
        F[self.dofs, :] = self.block
        return F


@dataclass(frozen=True)
class ThinSVD:
    """Truncated SVD of a scenario matrix: F.block = U @ diag(S) @ Vt.

    U is (n_loaded, n_s) on F's loaded rows `dofs`, S holds the kept
    singular values in descending order, Vt is (n_s, L).
    """

    U: np.ndarray
    S: np.ndarray
    Vt: np.ndarray
    dofs: np.ndarray

    @property
    def n_s(self) -> int:
        return self.S.size


def thin_svd(F: ScenarioMatrix) -> ThinSVD:
    """Thin SVD of F's block, truncating singular values below SVD_REL_TOL * sigma_1.

    Only the loaded-DOF block is decomposed, so the cost is independent
    of n_dofs. `_truncated_svd` keeps exactly the singular values that the
    full SVD of the block would keep.
    """
    if not np.any(F.block):
        raise ValueError("scenario matrix is identically zero")
    U, S, Vt = _truncated_svd(F.block)
    return ThinSVD(U=U, S=S, Vt=Vt, dofs=F.dofs.copy())


def _truncated_svd(A: np.ndarray):
    """SVD of a nonzero A, truncated at SVD_REL_TOL * sigma_1, via a verified sketch.

    Randomized range finder (Halko, Martinsson & Tropp 2011): Q spans
    A @ Omega for a fixed-seed Gaussian Omega with k columns, and B = Q^T A
    is small. By Weyl's inequality every singular value of A lies within
    delta = ||A - Q B||_F of the matching one of B, and those past k lie
    below delta. So when zero and every singular value of B are farther
    than delta * (1 + tol) from the cut tol * S_1 (the cut itself moves by
    at most tol * delta), B's truncation keeps exactly the singular values
    the full SVD keeps. Otherwise k doubles; once it reaches min(A.shape),
    the full SVD is taken. The sampler's rank-10 blocks pass with the first
    k in O(k * A.size) instead of O(min(A.shape) * A.size).
    """
    tol = SVD_REL_TOL
    k = _SKETCH_COLUMNS
    while k < min(A.shape):
        omega = np.random.default_rng(_SKETCH_SEED).standard_normal((A.shape[1], k))
        Q, _ = np.linalg.qr(A @ omega)
        B = Q.T @ A
        margin = _residual_norm(A, Q, B) * (1.0 + tol)
        Ub, S, Vt = np.linalg.svd(B, full_matrices=False)
        cut = tol * S[0]
        if cut > margin and np.all(np.abs(S - cut) > margin):
            keep = S >= cut
            return Q @ Ub[:, keep], S[keep], Vt[keep, :]
        k *= 2
    Ub, S, Vt = np.linalg.svd(A, full_matrices=False)
    keep = S >= tol * S[0]
    return Ub[:, keep], S[keep], Vt[keep, :]


def _residual_norm(A: np.ndarray, Q: np.ndarray, B: np.ndarray) -> float:
    """||A - Q B||_F, formed `_RESIDUAL_ROWS` rows at a time.

    No temporary of A's size is made (`A - Q @ B` makes two, and their
    page faults cost more than the product). Each block's product stays
    small enough (16 x 16 x 1000 multiply-adds for a first sketch of 1000
    scenarios) for OpenBLAS to run it on the calling thread, and the sum of
    squares uses no BLAS: on a 2-vCPU x86-64 VM with 2 OpenBLAS threads, a
    threaded product issued within a few ms of another threaded call
    waited 4-16 ms for its second thread, against 0.3 ms on one thread
    (178 x 1000 block, `toporisk bench` on 40x10 with L = 1000).
    """
    squares = 0.0
    for i in range(0, A.shape[0], _RESIDUAL_ROWS):
        block = Q[i:i + _RESIDUAL_ROWS] @ B
        np.subtract(A[i:i + _RESIDUAL_ROWS], block, out=block)
        squares += np.einsum("ij,ij->", block, block)
    return float(np.sqrt(squares))


def _benchmark_point_loads(mesh: GroundMesh):
    """The three deterministic cantilever loads: (dof indices, unit vectors).

    Positions follow the benchmark geometry: a downward unit load at the
    middle of the free end, a 45-degree down-right load on the top face
    at half the length, and a 45-degree down-left load on the bottom
    face (at 3/4 length in 2D, 2/3 length in 3D).
    """
    c = 1.0 / np.sqrt(2.0)
    if mesh.dim == 2:
        nx, ny = mesh.cells
        anchors = [
            (mesh.node_id(nx, ny // 2), (0.0, -1.0)),
            (mesh.node_id(round(nx / 2), ny), (c, -c)),
            (mesh.node_id(round(3 * nx / 4), 0), (-c, -c)),
        ]
    else:
        nx, ny, nz = mesh.cells
        anchors = [
            (mesh.node_id(nx, ny // 2, nz // 2), (0.0, -1.0, 0.0)),
            (mesh.node_id(round(nx / 2), ny, nz // 2), (c, -c, 0.0)),
            (mesh.node_id(round(2 * nx / 3), 0, nz // 2), (-c, -c, 0.0)),
        ]
    loads = []
    for node, direction in anchors:
        loads.append((mesh.node_dofs(node), np.asarray(direction)))
    return loads


def sample_cantilever_scenarios(
    mesh: GroundMesh,
    L: int,
    seed: int,
    multipliers: np.ndarray | None = None,
) -> ScenarioMatrix:
    """Sample L load scenarios for a cantilever benchmark mesh.

    Each scenario is

        f_i = s_1 F_1 + s_2 F_2 + s_3 F_3 + (1/7) sum_{j=4}^{10} s_j F_j

    where F_1..F_3 are the deterministic unit point loads of the
    benchmark, F_4..F_10 are random "surface rattle" vectors drawn once
    per call with independent standard normal entries on every surface
    DOF without a Dirichlet condition, s_1..s_3 ~ U(-2, 2) and
    s_4..s_10 ~ N(0, 1) independently per scenario. The construction
    bounds rank(F) by 10. The mesh needs at least 2 cells along x, or the
    top-face load would sit on the fixed face; ValueError otherwise.

    Randomness comes from `numpy.random.default_rng(seed)` (PCG64); the
    draw order is: the seven basis vectors first (row-major), then the
    uniform multiplier block, then the normal multiplier block, so equal
    seeds give bitwise-equal matrices on any platform with the same
    numpy version.

    Parameters
    ----------
    multipliers : ndarray, optional
        (10, L) override for the multipliers s, bypassing their random
        draw (the basis draw is unchanged). Meant for tests.
    """
    if L < 1:
        raise ValueError(f"need at least one scenario, got L={L}")
    if mesh.cells[0] < 2:
        raise ValueError(f"the cantilever sampler needs at least 2 cells along x, "
                         f"got {mesh.cells[0]}")
    rng = np.random.default_rng(seed)
    surface = mesh.free_surface_dofs()
    basis = rng.standard_normal((7, surface.size))
    if multipliers is None:
        s_point = rng.uniform(-2.0, 2.0, size=(3, L))
        s_basis = rng.standard_normal((7, L))
    else:
        multipliers = np.asarray(multipliers, dtype=float)
        if multipliers.shape != (10, L):
            raise ValueError(f"multipliers must have shape (10, {L})")
        s_point, s_basis = multipliers[:3], multipliers[3:]

    # the deterministic point loads all act on free surface nodes, so the
    # loaded-DOF list is exactly the free surface DOF list
    block = (basis.T / 7.0) @ s_basis
    lookup = {int(d): k for k, d in enumerate(surface)}
    for (dof_ids, direction), s_row in zip(_benchmark_point_loads(mesh), s_point):
        rows = [lookup[int(d)] for d in dof_ids]
        block[rows, :] += np.outer(direction, s_row)
    return ScenarioMatrix(n_dofs=mesh.n_dofs, dofs=surface, block=block)


def save_scenarios_to_file(F: ScenarioMatrix, path) -> None:
    """Write F as CSV with header dof,scenario,value; zero entries omitted.

    Values are written in shortest round-trip decimal form, so a
    write/read cycle reproduces the matrix bitwise.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("dof,scenario,value\n")
        for k, dof in enumerate(F.dofs):
            row = F.block[k]
            for i in np.nonzero(row)[0]:
                fh.write(f"{int(dof)},{int(i)},{float(row[i])!r}\n")


def load_scenarios_from_file(path, n_dofs: int | None = None) -> ScenarioMatrix:
    """Read a scenario CSV written in the documented format.

    The loaded-DOF list is inferred from the rows present in the file;
    the scenario count is the largest scenario index plus one. Pass
    `n_dofs` to validate DOF indices against a known structure size
    (otherwise the largest index present defines it).
    """
    entries = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ScenarioFormatError(f"{path}: empty file") from None
        if header != ["dof", "scenario", "value"]:
            raise ScenarioFormatError(
                f"{path}: expected header 'dof,scenario,value', got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ScenarioFormatError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                dof, scen, value = int(row[0]), int(row[1]), float(row[2])
            except ValueError as exc:
                raise ScenarioFormatError(f"{path}:{lineno}: {exc}") from None
            if dof < 0 or scen < 0:
                raise ScenarioFormatError(f"{path}:{lineno}: negative index")
            if not np.isfinite(value):
                raise ScenarioFormatError(f"{path}:{lineno}: non-finite value")
            if (dof, scen) in entries:
                raise ScenarioFormatError(f"{path}:{lineno}: duplicate entry for dof {dof}, scenario {scen}")
            entries[(dof, scen)] = value
    if not entries:
        raise ScenarioFormatError(f"{path}: no scenario entries")
    max_dof = max(d for d, _ in entries)
    max_scen = max(s for _, s in entries)
    if n_dofs is None:
        n_dofs = max_dof + 1
    elif max_dof >= n_dofs:
        raise ScenarioFormatError(f"{path}: DOF index {max_dof} out of range for n_dofs={n_dofs}")
    dofs = np.unique([d for d, _ in entries])
    lookup = {int(d): k for k, d in enumerate(dofs)}
    block = np.zeros((dofs.size, max_scen + 1))
    for (dof, scen), value in entries.items():
        block[lookup[dof], scen] = value
    return ScenarioMatrix(n_dofs=n_dofs, dofs=dofs, block=block)
