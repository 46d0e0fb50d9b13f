"""Loading scenario matrices, their thin SVD, and the benchmark sampler.

A scenario matrix F holds L load vectors as columns. In practice only a
few DOFs ever carry load, so F is stored over the loaded DOF rows plus the
row index list; the zero rows are never materialized. The loaded block
has one of two exact forms: dense (n_loaded x L, as a CSV file gives it)
or factored, an n_loaded x r basis times an r x L coefficient matrix (as
the sampler gives it). The thin SVD is computed on the loaded rows only,
so its left singular vectors U hold those rows only: LAPACK's SVD of a
dense block, or, for a factored F, the SVD of the r x L coefficients
premultiplied by R from the basis's QR, at O((n_loaded + L) r^2) and
never multiplied out. Both keep every singular value at or above
`SVD_REL_TOL` times the largest, by one rule (`_cut_svd`): the SVD route
evaluates F^T K^-1 F exactly.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, qr, svd

from .errors import ScenarioFormatError, TopoRiskError
from .fea import physical_memory_bytes
from .mesh import GroundMesh

SVD_REL_TOL = 1e-10
SAMPLER_RANK = 10  # basis loads of `sample_cantilever_scenarios`: 3 point loads, 7 rattles


@dataclass(frozen=True)
class ScenarioMatrix:
    """L load scenarios on an n_dofs structure, stored sparsely by row.

    The loaded block is held dense, as `block`, or factored, as `basis @
    coefficients`; the other form's fields are None. `loaded_block`
    multiplies a factored one out.

    Attributes
    ----------
    n_dofs : int
        Total DOF count of the structure.
    dofs : ndarray
        Strictly increasing indices of the rows that may be nonzero.
    block : ndarray or None
        Dense form: the (len(dofs), L) block of load values, column i
        scenario i restricted to `dofs`.
    basis, coefficients : ndarray or None
        Factored form: a (len(dofs), r) basis of loads on `dofs`, and the
        (r, L) matrix whose column i weights them into scenario i.
    """

    n_dofs: int
    dofs: np.ndarray
    block: np.ndarray | None = None
    basis: np.ndarray | None = None
    coefficients: np.ndarray | None = None

    def __post_init__(self):
        factored = self.block is None
        if factored == (self.basis is None) or factored == (self.coefficients is None):
            raise ValueError("give either block, or basis and coefficients")
        dofs = np.asarray(self.dofs, dtype=np.int64)
        rows = np.asarray(self.basis if factored else self.block, dtype=float)
        if dofs.ndim != 1 or rows.ndim != 2 or rows.shape[0] != dofs.size:
            raise ValueError("dofs must be 1-D and block or basis must have len(dofs) rows")
        weights = rows
        if factored:
            weights = np.asarray(self.coefficients, dtype=float)
            if weights.ndim != 2 or weights.shape[0] != rows.shape[1]:
                raise ValueError("coefficients must be (r, L) for an (n_loaded, r) basis")
        if weights.shape[1] < 1:
            raise ValueError("a scenario matrix needs at least one scenario")
        if dofs.size:
            if dofs[0] < 0 or dofs[-1] >= self.n_dofs:
                raise ValueError("loaded DOF index out of range")
            if np.any(np.diff(dofs) <= 0):
                raise ValueError("dofs must be strictly increasing")
        object.__setattr__(self, "dofs", dofs)
        if factored:
            object.__setattr__(self, "basis", rows)
            object.__setattr__(self, "coefficients", weights)
        else:
            object.__setattr__(self, "block", rows)

    @property
    def n_scenarios(self) -> int:
        return (self.block if self.block is not None else self.coefficients).shape[1]

    @property
    def n_loaded(self) -> int:
        return self.dofs.size

    @property
    def size(self) -> int:
        """The number of load values F holds, in the form it holds them."""
        if self.block is not None:
            return self.block.size
        return self.basis.size + self.coefficients.size

    def loaded_block(self, rows=slice(None)) -> np.ndarray:
        """The n_loaded x L block of loads (its rows `rows` if given): `block`
        itself in dense form, multiplied out of the factors otherwise, by
        scipy's dgemm (`_product`), bitwise numpy's `@` on the sampler's
        factors. Factors whose product overflows give infinities and no
        warning."""
        if self.block is not None:
            return self.block[rows]
        return _product(self.basis[rows], self.coefficients)


@dataclass(frozen=True)
class ThinSVD:
    """Truncated SVD of a scenario matrix: F.loaded_block() = U @ diag(S) @ Vt.

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
    of n_dofs. A dense block goes to LAPACK's SVD as it is. A factored one
    is decomposed through its factors: with the economic QR of the basis
    P = Q R, P W = Q (R W), and Q has orthonormal columns, so the SVD
    R W = Ub S Vt of the small r x L matrix gives P W's singular values S
    exactly and its left singular vectors Q Ub, at O((n_loaded + L) r^2),
    and the n_loaded x L product is never formed. Both forms are cut by
    `_cut_svd`, which keeps exactly the singular values that the full SVD
    of the block keeps and raises on loads with no such cut. Products, QR
    and SVD run in scipy's OpenBLAS, as the band factor and the sweeps do:
    on 2 cores, a threaded call into numpy's own OpenBLAS right after a
    threaded scipy call waited 7-29 ms for the other library's spinning
    workers.
    """
    if F.block is not None:
        U, S, Vt = _cut_svd(F.block)
    else:
        Q, R = qr(F.basis, mode="economic", check_finite=False)
        Ub, S, Vt = _cut_svd(_product(R, F.coefficients))
        U = _product(Q, Ub)
    return ThinSVD(U=U, S=S, Vt=Vt, dofs=F.dofs.copy())


def _cut_svd(A: np.ndarray):
    """SVD of A, truncated at SVD_REL_TOL * sigma_1.

    A block with no rows, or identically zero (S_1 = 0), raises ValueError.
    One that holds an infinity or a NaN (for a factored F, also finite
    factors whose product overflows), or whose S_1 overflows, raises
    TopoRiskError. It is refused before LAPACK sees it: LAPACK would
    return NaNs for an infinity, and reject a NaN with a ValueError that
    would pass for the zero block's.
    """
    if not np.isfinite(A).all():
        raise TopoRiskError("the scenario loads are not finite: they hold an infinity "
                            "or a NaN, or their basis times their coefficients overflows")
    Ub, S, Vt = svd(A, full_matrices=False, check_finite=False)
    if S.size == 0 or S[0] == 0.0:
        raise ValueError("scenario matrix is identically zero")
    if not S[0] < np.inf:
        raise TopoRiskError("the scenario loads are not finite: their largest singular "
                            "value overflows")
    keep = S >= SVD_REL_TOL * S[0]
    return Ub[:, keep], S[keep], Vt[keep, :]


def _product(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y by scipy's dgemm, each operand passed as numpy's matmul passes it
    to cblas (C-contiguous as is, F-contiguous with the transpose flag)."""
    a, trans_a = (Y.T, 0) if Y.flags.c_contiguous else (Y, 1)
    b, trans_b = (X.T, 0) if X.flags.c_contiguous else (X, 1)
    return blas.dgemm(1.0, a, b, trans_a=trans_a, trans_b=trans_b).T


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
    bounds rank(F) by 10 (`SAMPLER_RANK`). The mesh needs at least 2 cells
    along x, or the top-face load would sit on the fixed face; ValueError
    otherwise, and also when a point load falls on a DOF that is not a free
    surface DOF (a mesh with other supports than the cantilever's).

    Randomness comes from `numpy.random.default_rng(seed)` (PCG64); the
    draw order is: the seven rattle vectors first (row-major), then the
    uniform multiplier block, then the normal multiplier block, so equal
    seeds give bitwise-equal matrices on any platform with the same
    numpy version.

    F comes factored: `basis` holds the columns F_1, F_2, F_3, F_4/7, ...,
    F_10/7 and `coefficients` the multipliers s_1..s_10, so it holds
    `SAMPLER_RANK` (n_loaded + L) values and never the n_loaded x L block.

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
    rattles = rng.standard_normal((7, surface.size))
    if multipliers is None:
        s_point = rng.uniform(-2.0, 2.0, size=(3, L))
        s_basis = rng.standard_normal((7, L))
    else:
        multipliers = np.asarray(multipliers, dtype=float)
        if multipliers.shape != (10, L):
            raise ValueError(f"multipliers must have shape (10, {L})")
        s_point, s_basis = multipliers[:3], multipliers[3:]

    # the deterministic point loads act on free surface nodes, so the
    # loaded-DOF list is exactly the free surface DOF list
    point_loads = []
    for dof_ids, direction in _benchmark_point_loads(mesh):
        rows = np.searchsorted(surface, dof_ids)
        if np.any(rows == surface.size) or np.any(surface[rows] != dof_ids):
            raise ValueError(f"a benchmark point load acts on DOFs {dof_ids.tolist()}, "
                             f"which are not all free surface DOFs of this mesh")
        point_loads.append((rows, direction))
    # the basis columns are F_1..F_3 and F_4/7..F_10/7, weighted by s
    basis = np.zeros((surface.size, SAMPLER_RANK))
    for k, (rows, direction) in enumerate(point_loads):
        basis[rows, k] = direction
    basis[:, 3:] = rattles.T / 7.0
    return ScenarioMatrix(n_dofs=mesh.n_dofs, dofs=surface, basis=basis,
                          coefficients=np.concatenate([s_point, s_basis]))


def save_scenarios_to_file(F: ScenarioMatrix, path) -> None:
    """Write F as CSV with header dof,scenario,value; zero entries omitted.

    Values are written in shortest round-trip decimal form, so a
    write/read cycle reproduces the loaded block bitwise. A factored F is
    multiplied out once (`ScenarioMatrix.loaded_block`).
    """
    block = F.loaded_block()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("dof,scenario,value\n")
        for k, dof in enumerate(F.dofs):
            row = block[k]
            for i in np.nonzero(row)[0]:
                fh.write(f"{int(dof)},{int(i)},{float(row[i])!r}\n")


def load_scenarios_from_file(path, n_dofs: int | None = None) -> ScenarioMatrix:
    """Read a scenario CSV written in the documented format.

    The loaded-DOF list is inferred from the rows present in the file;
    the scenario count is the largest scenario index plus one. Pass
    `n_dofs` to validate DOF indices against a known structure size
    (otherwise the largest index present defines it). A file that cannot
    be read, is not UTF-8 or is not CSV, or whose n_loaded x L block of
    loads exceeds physical memory (`fea.physical_memory_bytes`), raises
    ScenarioFormatError too, before the block is allocated.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise ScenarioFormatError(f"{path}: empty file")
    if rows[0] != ["dof", "scenario", "value"]:
        raise ScenarioFormatError(
            f"{path}: expected header 'dof,scenario,value', got {','.join(rows[0])!r}"
        )
    entries = {}
    for lineno, row in enumerate(rows[1:], start=2):
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
    loads = 8 * dofs.size * (max_scen + 1)  # bytes of the dense block
    if loads > physical_memory_bytes():
        raise ScenarioFormatError(f"{path}: {dofs.size} loaded DOFs x {max_scen + 1} scenarios "
                                  f"need {loads / 1e9:.3g} GB, more than physical memory")
    lookup = {int(d): k for k, d in enumerate(dofs)}
    block = np.zeros((dofs.size, max_scen + 1))
    for (dof, scen), value in entries.items():
        block[lookup[dof], scen] = value
    return ScenarioMatrix(n_dofs=n_dofs, dofs=dofs, block=block)
