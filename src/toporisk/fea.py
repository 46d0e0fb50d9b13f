"""Finite element assembly and linear solves on structured meshes.

Q4 plane stress in 2D, H8 in 3D, both with full Gauss quadrature
(2 points per axis) in one kernel for both dimensions; the local corner
order is `GroundMesh.corner_offsets`. All elements of a `GroundMesh` are
congruent, so a single element stiffness matrix is computed once and
scaled per element by its density during assembly.

K is kept in LAPACK upper band storage, column-major. Nodes are numbered
lexicographically, so every element's DOFs lie within u + 1 consecutive
indices, with the same half-bandwidth u for all elements: 2 ny + 5
in 2D and 3 ((ny + 1)(nz + 1) + nz + 2) + 2 in 3D (45 on 80x20, 25 on
20x10, 173 on 16x6x6). Assembly is one `np.bincount` over a scatter index
built once per mesh from `element_dof_map` and cached on the mesh, in the
manner of Andreassen et al. 2011 and Ferrari & Sigmund 2020; the index is
column-major, so the flat counts are the band without a copy. The factor
is a banded Cholesky K = R^T R (LAPACK dpbtrf), whose fill stays inside
the band; it overwrites the assembled band, so one band is held per
analysis.

`StiffnessSystem.solve` takes a right-hand side block on its loaded rows
(the only rows that may be nonzero, as in a `ScenarioMatrix`) and
scatters them into the block it sweeps, so no dense n_dofs x L copy of
F is built. It has two sweeps over R. A block of fewer than
max(36, u // 3) columns (`_blocked_sweep_min_columns`) goes to one
column-major zero block that LAPACK's dpbtrs solves in place, one column
at a time (level-2 BLAS). A wider block, such as the naive route's L
columns, is swept in blocks of u rows with level-3 BLAS, in place in one
row-major n_dofs x k work block that it returns: per block one dgemm
against the dense coupling to the neighbouring block and one dtrmm
against the inverted diagonal triangle (LAPACK dtrtri), both built once
per solve from strided views of the factor (Anderson et al., LAPACK
Users' Guide, 3rd ed., 1999; Du Croz & Higham 1992 on the stability of
explicit triangular inverses). A short last block keeps its short shape.

The same numbering makes the DOF offset j - i of an element's local pairs
take few distinct values: at most 11 in 2D and 50 in 3D. `form_gradient`,
the derivative of sum_k a_k^T K b_k with respect to the densities, uses this:
each needed diagonal of A B^T is one contiguous row-wise dot product over
all DOFs, and every element reads its pairs through an index cached with
the scatter map. It costs O(n_offsets n_dofs k) for k columns, plus one
gather of n_elements x n_pairs values. It reads a row-major block (the
blocked sweep's) in place and copies any other to (k, n_dofs) rows.

A failed Cholesky is not a complete positive definiteness test: on a
singular K (a structure with no fixed DOFs), round-off can leave a zero
pivot slightly positive, and LAPACK accepts it. That happens for 2D
floating structures, so `factorize` also rejects squared pivots below
n * eps * max|K_ii|.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import blas, lapack

from .errors import NotPositiveDefiniteError
from .mesh import GroundMesh, Material

_GAUSS_1D = np.array([-1.0, 1.0]) / np.sqrt(3.0)  # weights are 1
# (i, j) axis pairs of the engineering shear strains, in Voigt order:
# xy in 2D; yz, xz, xy in 3D
_SHEAR_PAIRS = {2: [(0, 1)], 3: [(1, 2), (0, 2), (0, 1)]}


@dataclass(frozen=True)
class _BandLayout:
    """Where each element's upper-triangle entries land in band storage.

    For element e, rho_e * Ke[rows[k], cols[k]] is added at flat position
    index[e * n_pairs + k] of the column-major (width + 1, n_dofs) band,
    so `np.bincount`'s flat output is the band without a copy. Entries that
    touch a fixed DOF go to a spill slot one past the end.

    The same pairs, read back: the DOF offset j - i of local pair k is one
    of `offsets`, and pairs[e, k] is the flat position of (i, j) in an
    (n_offsets, n_dofs) array whose row o holds the o-th offset's diagonal
    at column j, with the spill slot at n_offsets * n_dofs.
    """

    width: int
    rows: np.ndarray
    cols: np.ndarray
    index: np.ndarray
    fixed: np.ndarray
    offsets: np.ndarray
    pairs: np.ndarray


def _elastic_matrix(material: Material, dim: int) -> np.ndarray:
    """Constitutive matrix: plane stress (3x3) or isotropic 3D (6x6)."""
    E, nu = material.youngs_modulus, material.poissons_ratio
    if dim == 2:
        return E / (1.0 - nu**2) * np.array(
            [[1.0, nu, 0.0],
             [nu, 1.0, 0.0],
             [0.0, 0.0, (1.0 - nu) / 2.0]]
        )
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = E / (2.0 * (1.0 + nu))
    D = np.zeros((6, 6))
    D[:3, :3] = lam
    D[np.arange(3), np.arange(3)] += 2.0 * mu
    D[np.arange(3, 6), np.arange(3, 6)] = mu
    return D


def _shape_gradients(corners: np.ndarray, point: np.ndarray) -> np.ndarray:
    """d N_i / d xi_j at a local point, for multilinear shape functions."""
    n_corner, dim = corners.shape
    grads = np.empty((n_corner, dim))
    for j in range(dim):
        factors = (1.0 + corners * point) / 2.0
        factors[:, j] = corners[:, j] / 2.0
        grads[:, j] = np.prod(factors, axis=1)
    return grads


def _strain_matrix(dNdx: np.ndarray) -> np.ndarray:
    """B such that strain (Voigt) = B @ u_e, u_e ordered (x, y[, z]) per node."""
    n_corner, dim = dNdx.shape
    pairs = _SHEAR_PAIRS[dim]
    B = np.zeros((dim + len(pairs), dim * n_corner))
    for i in range(dim):
        B[i, i::dim] = dNdx[:, i]
    for row, (i, j) in enumerate(pairs, start=dim):
        B[row, i::dim] = dNdx[:, j]
        B[row, j::dim] = dNdx[:, i]
    return B


def element_stiffness(mesh: GroundMesh, material: Material) -> np.ndarray:
    """Stiffness matrix of one fully solid element (8x8 in 2D, 24x24 in 3D).

    The mesh's elements are axis-aligned squares/cubes of side h, so the
    Jacobian is (h/2) I everywhere and the quadrature is exact for the
    multilinear shape functions.
    """
    dim = mesh.dim
    h = mesh.element_size
    corners = 2.0 * mesh.corner_offsets() - 1.0  # local coordinates in [-1, 1]^dim
    D = _elastic_matrix(material, dim)
    n_dof = corners.shape[0] * dim
    Ke = np.zeros((n_dof, n_dof))
    detJ = (h / 2.0) ** dim
    grids = np.meshgrid(*([_GAUSS_1D] * dim), indexing="ij")
    for point in np.stack([g.ravel() for g in grids], axis=1):
        dNdx = _shape_gradients(corners, point) * (2.0 / h)
        B = _strain_matrix(dNdx)
        Ke += B.T @ D @ B * detJ
    if dim == 2:
        Ke *= mesh.thickness
    return 0.5 * (Ke + Ke.T)


def half_bandwidth(mesh: GroundMesh) -> int:
    """The half-bandwidth u of K, read off the first element's DOFs.

    Every element's DOFs are one offset pattern shifted by a constant, so
    one element's DOF span is every element's."""
    nodes = mesh.node_id_array(*mesh.corner_offsets().T)
    return int(mesh.dim * (nodes.max() - nodes.min()) + mesh.dim - 1)


def analysis_bytes(mesh: GroundMesh, k: int) -> tuple[int, int]:
    """(band bytes, estimated peak bytes) of one analysis solving k columns.

    The peak adds one (u + 1) x n_dofs band of doubles (`assemble`'s band,
    which `StiffnessSystem.factorize` overwrites with the factor), the
    scatter index and assembly weights (about 3 n_elements n_pairs
    eight-byte values, n_pairs the upper triangle of one element
    stiffness) and two n_dofs x k blocks of solves (the solved block and
    the weighted copy the gradient reads, or the last design point's
    solves while the next one is solved)."""
    n_element_dofs = mesh.dim * 2**mesh.dim
    n_pairs = n_element_dofs * (n_element_dofs + 1) // 2
    band = 8 * (half_bandwidth(mesh) + 1) * mesh.n_dofs
    return band, band + 8 * (3 * mesh.n_elements * n_pairs + 2 * mesh.n_dofs * k)


def physical_memory_bytes() -> int:
    """The machine's physical memory (`os.sysconf`); a cgroup limit is not read."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _band_layout(mesh: GroundMesh) -> _BandLayout:
    """The mesh's scatter map into band storage, built once and cached."""
    layout = mesh._cache.get("band_layout")
    if layout is None:
        edof = mesh.element_dof_map()
        width = half_bandwidth(mesh)
        # one element decides which local pairs land on or above the diagonal
        rows, cols = np.nonzero(edof[0][:, None] <= edof[0][None, :])
        i, j = edof[:, rows], edof[:, cols]
        n = mesh.n_dofs
        index = width + i + width * j  # (width + i - j, j), column-major
        offsets, slot = np.unique(edof[0, cols] - edof[0, rows], return_inverse=True)
        pairs = slot[None, :] * n + j
        fixed = np.array(sorted(mesh.fixed_dofs), dtype=np.int64)
        free = np.ones(n, dtype=bool)
        free[fixed] = False
        spilled = ~(free[i] & free[j])
        index[spilled] = (width + 1) * n  # one spill slot past the band
        pairs[spilled] = offsets.size * n
        layout = _BandLayout(width, rows, cols, index.ravel(), fixed, offsets, pairs)
        mesh._cache["band_layout"] = layout
    return layout


def assemble(mesh: GroundMesh, Ke: np.ndarray, densities: np.ndarray) -> np.ndarray:
    """Global stiffness K = sum_e rho_e Ke as its upper band, Dirichlet DOFs eliminated.

    Returns `ab` of shape (u + 1, n_dofs) with ab[u + i - j, j] = K[i, j]
    for j - u <= i <= j, the LAPACK upper band layout, column-major as
    `StiffnessSystem.factorize` factors it in place. Elimination is
    symmetric: fixed rows and columns are zero and their diagonal entries
    one, which keeps the matrix SPD whenever the free block is.
    """
    densities = np.asarray(densities, dtype=float)
    if densities.shape != (mesh.n_elements,):
        raise ValueError(
            f"densities must have shape ({mesh.n_elements},), got {densities.shape}"
        )
    layout = _band_layout(mesh)
    shape = (layout.width + 1, mesh.n_dofs)
    weights = densities[:, None] * Ke[layout.rows, layout.cols][None, :]
    ab = np.bincount(layout.index, weights.ravel(), minlength=shape[0] * shape[1] + 1)
    ab = ab[:-1].reshape(shape, order="F")
    ab[-1, layout.fixed] = 1.0
    return ab


def form_gradient(mesh: GroundMesh, Ke: np.ndarray, A: np.ndarray,
                  B: np.ndarray) -> np.ndarray:
    """g_e = d/d rho_e of sum_k a_k^T K b_k, over the columns of A and B.

    That is g_e = sum_ab Ke[a, b] M[d_a, d_b] with M = A B^T and d the
    DOFs of element e, for a symmetric M (the sum runs over the upper
    pairs, each off-diagonal one counted twice). Pairs that touch a fixed
    DOF are left out: those entries of the assembled K do not depend on
    rho.

    Row-major (n_dofs, k) blocks, as the blocked sweep returns them, are
    read in place, k contiguous values per DOF. Any other layout is copied
    to (k, n_dofs) rows first, so that each diagonal is a contiguous
    row-wise dot product: for the few columns of the SVD route that is the
    faster of the two.
    """
    layout = _band_layout(mesh)
    n = mesh.n_dofs
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    At, Bt = A.T, B.T
    if not (A.flags.c_contiguous and B.flags.c_contiguous):
        At, Bt = np.ascontiguousarray(At), np.ascontiguousarray(Bt)
    diagonals = np.zeros(layout.offsets.size * n + 1)  # spill slot stays 0
    rows = diagonals[:-1].reshape(layout.offsets.size, n)
    for row, d in zip(rows, layout.offsets):
        np.einsum("ki,ki->i", At[:, :n - d], Bt[:, d:], out=row[d:])
    coef = np.where(layout.rows == layout.cols, 1.0, 2.0) * Ke[layout.rows, layout.cols]
    return diagonals[layout.pairs] @ coef


# A right-hand side block of k columns on a band of half-width u goes to
# the blocked sweep when k >= max(_BLOCKED_SWEEP_MIN_K, u // 3); narrower
# blocks go to LAPACK's column sweep. Building the blocked sweep's
# operators costs O(n u^2) per solve, so the crossover grows with u.
# Medians of 31, 1 OpenBLAS thread, 2-core x86-64 VM: it lies at
# k = 30-33 for u = 25 (20x10), k = 36-40 for u = 45 (80x20) and
# k = 48-52 for u = 173 (16x6x6), where 24 columns took 6.7 ms by column
# and 17.5 ms blocked.
_BLOCKED_SWEEP_MIN_K = 36


def _blocked_sweep_min_columns(u: int) -> int:
    """The fewest columns that go to the blocked sweep on half-bandwidth u."""
    return max(_BLOCKED_SWEEP_MIN_K, u // 3)


def _sweep_operators(factor: np.ndarray) -> tuple[list, list]:
    """R's inverted diagonal triangles and dense couplings, in blocks of u rows.

    For block I = [b u, b u + u), inverse[b] is T_b^-T for the upper
    triangle T_b = R[I, I], column-major; coupling[b] is the lower
    triangle R[I, I + u] that couples block b to the next one, zero above
    its diagonal, row-major, so that its transpose is column-major. BLAS
    reads both without a copy.

    R[i, j] sits at flat position u + i + u j of the column-major
    (u + 1, n) band, so block starts lie u (u + 1) apart and one strided
    view of the band holds every whole block of one kind, as LAPACK's
    dpbtrf reads them through LDAB - 1. Only the triangle itself is a
    block of R: the other half of such a view holds band entries of
    neighbouring columns, which `np.triu` and `np.tril` zero in their
    copies. A short last block of t < u rows has a t x t triangle and a
    u x t coupling into it.
    """
    u, n = factor.shape[0] - 1, factor.shape[1]
    band = factor.ravel(order="F")
    item = band.itemsize

    def blocks(i, j, count, shape=(u, u)):
        """[b, a, c] = R[i + b u + a, j + b u + c], a view of the band."""
        return as_strided(band[u + i + u * j:], (count, *shape),
                          (item * u * (u + 1), item, item * u), writeable=False)

    n_full, tail = divmod(n, u)
    diagonal = list(np.triu(blocks(0, 0, n_full)))
    coupling = list(np.tril(blocks(0, u, max(n_full - 1, 0))))
    if tail:
        i0 = n_full * u
        diagonal.append(np.triu(blocks(i0, i0, 1, (tail, tail))[0]))
        if n_full:
            coupling.append(np.tril(blocks(i0 - u, i0, 1, (u, tail))[0]))
    # R's pivots are positive (`factorize` checks them), so dtrtri cannot
    # meet a zero on the diagonal
    inverse = [lapack.dtrtri(T.T, lower=1, overwrite_c=1)[0] for T in diagonal]
    return inverse, coupling


class StiffnessSystem:
    """A factorized stiffness matrix: an immutable value, solved many times.

    Built only through `factorize`, so every instance holds a valid
    Cholesky factor and `solve` has no state to check or update.
    """

    def __init__(self, factor: np.ndarray):
        self._factor = factor

    @classmethod
    def factorize(cls, ab: np.ndarray) -> "StiffnessSystem":
        """Banded Cholesky K = R^T R of the upper band `ab` from `assemble`.

        The factor overwrites `ab` when it is a column-major float band,
        as `assemble` returns it; any other band is copied first.

        Raises `NotPositiveDefiniteError` when LAPACK meets a non-positive
        pivot, and also when a squared pivot R_ii^2 falls below
        n * eps * max|K_ii|: a mathematically zero pivot can land at
        round-off level instead, which LAPACK accepts.
        """
        ab = np.asarray(ab, dtype=float)
        # read before the factor overwrites the diagonal
        floor = ab.shape[1] * np.finfo(float).eps * np.max(np.abs(ab[-1]))
        factor, info = lapack.dpbtrf(ab, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"dpbtrf: argument {-info} is invalid")
        if info > 0 or not np.all(factor[-1] ** 2 > floor):
            raise NotPositiveDefiniteError(
                "stiffness matrix is not positive definite; the structure is "
                "likely unsupported (no fixed DOFs) or densities underflowed"
            )
        return cls(factor)

    def solve(self, block: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Solve K X = F for the k columns of F, given on its rows `rows`.

        `block` is (len(rows), k) and holds those rows of F; every other
        row is zero, as in a `ScenarioMatrix`. The rows are scattered
        straight into the sweep's work block, and `block` is left
        untouched.

        Two sweeps give the same solution up to round-off, chosen by the
        width of the block: fewer than `_blocked_sweep_min_columns(u)`
        columns for half-bandwidth u go to a column-major zero block that
        LAPACK's dpbtrs sweeps in place one column at a time (level-2
        BLAS), and that block is returned; a wider block goes to
        `_blocked_solve`, which sweeps it in blocks of u rows with level-3
        BLAS and returns a row-major block. Either way X is (n_dofs, k).
        """
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[0] != len(rows):  # a single row would broadcast
            raise ValueError(f"block must have shape ({len(rows)}, k), got {block.shape}")
        u, n = self._factor.shape[0] - 1, self._factor.shape[1]
        if block.shape[1] >= _blocked_sweep_min_columns(u):
            return self._blocked_solve(block, rows)
        X = np.zeros((n, block.shape[1]), order="F")
        X[rows] = block
        X, info = lapack.dpbtrs(self._factor, X, overwrite_b=1)
        if info < 0:
            raise ValueError(f"dpbtrs: argument {-info} is invalid")
        return X

    def _blocked_solve(self, block: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """R^T R X = F for F's rows `rows` in `block`, in sweeps of u rows.

        Works in place on a row-major (n, k) block Z into which `block` is
        scattered: the rows of block b, transposed, are a column-major
        k x u matrix W_b (k x t for a short last block of t rows) that BLAS
        updates without a copy. The forward sweep solves Y^T R = F^T and
        the backward sweep X^T R^T = Y^T, each block with two calls:

            W_b <- (W_b - W_{b-1} C_{b-1}) T_b^-1      forward
            W_b <- (W_b - W_{b+1} C_b^T) T_b^-T        backward

        a dgemm against the dense coupling C and a dtrmm against the
        inverted diagonal triangle T^-1 (`_sweep_operators`). An explicit
        inverse of a small, well-conditioned triangle is as stable as
        substitution (Du Croz & Higham 1992, IMA J. Numer. Anal. 12) and
        runs at the rate of dtrmm, about twice that of dtrsm. Returns Z.
        """
        u, n = self._factor.shape[0] - 1, self._factor.shape[1]
        inverse, coupling = _sweep_operators(self._factor)
        Z = np.zeros((n, block.shape[1]))
        Z[rows] = block
        W = [Z[i:i + u].T for i in range(0, n, u)]
        n_blocks = len(W)
        for b in range(n_blocks):
            if b:
                blas.dgemm(-1.0, W[b - 1], coupling[b - 1].T, beta=1.0, c=W[b],
                           trans_b=1, overwrite_c=1)
            blas.dtrmm(1.0, inverse[b], W[b], side=1, lower=1, trans_a=1, overwrite_b=1)
        for b in reversed(range(n_blocks)):
            if b + 1 < n_blocks:
                blas.dgemm(-1.0, W[b + 1], coupling[b].T, beta=1.0, c=W[b], overwrite_c=1)
            blas.dtrmm(1.0, inverse[b], W[b], side=1, lower=1, overwrite_b=1)
        return Z
