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
against the inverted diagonal triangle (LAPACK dtrtri), read from
strided views of the factor (Anderson et al., LAPACK Users' Guide, 3rd
ed., 1999; Du Croz & Higham 1992 on the stability of explicit triangular
inverses). The triangles are copied once per solve and inverted in place
in that copy, one band of doubles; each coupling is filled into one
u x u scratch just before its dgemm, so a wide solve holds the factor,
one band of inverses and the work block. A short last block keeps its
short shape.

The same numbering makes the DOF offset j - i of an element's local pairs
take few distinct values: at most 11 in 2D and 50 in 3D. `form_gradient`,
the derivative of sum_k a_k^T K q_k with respect to the densities for
the solves Q and their weighted block A, uses this: each needed diagonal
of A Q^T is one contiguous row-wise dot product over all DOFs, and every
element reads its pairs through an index cached with the scatter map. It
takes Q and its weighting W, a vector (A = Q diag(W), the naive route)
or a k x k matrix (A = Q W, the SVD route), and forms A one tile of DOF
rows at a time: every offset's dot runs over the tile and the rows of Q
just past it while both are in cache (the blocking argument of Goto &
van de Geijn, ACM TOMS 34(3), 2008), and no n_dofs x k weighted block is
allocated. It costs O(n_offsets n_dofs k) for k columns, plus one gather
of n_elements x n_pairs values. It reads a row-major Q (the blocked
sweep's) in place and any other as (k, n_dofs) rows of its transpose.

A failed Cholesky is not a complete positive definiteness test: on a
singular K (a structure with no fixed DOFs), round-off can leave a zero
pivot slightly positive, and LAPACK accepts it. That happens for 2D
floating structures, so `factorize` also rejects squared pivots below
n * eps * max|K_ii|. `assemble` puts 1.0 on every Dirichlet diagonal, so
that floor holds only while the element stiffness is of order one. The
model therefore assembles and factors the unit structure (E = 1, t = 1,
h = 1; `element_stiffness(..., unit=True)`) and carries the stiffness
scale s = E t (2D) or E h (3D) on the `StiffnessSystem`, by which the
compliances and their gradients are divided once: physical units such as
steel in Pa (E = 2.1e11) factor on every mesh size.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable

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


def _elastic_matrix(nu: float, dim: int) -> np.ndarray:
    """Constitutive matrix at unit Young's modulus: plane stress (3x3) or
    isotropic 3D (6x6)."""
    if dim == 2:
        return 1.0 / (1.0 - nu**2) * np.array(
            [[1.0, nu, 0.0],
             [nu, 1.0, 0.0],
             [0.0, 0.0, (1.0 - nu) / 2.0]]
        )
    lam = nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = 1.0 / (2.0 * (1.0 + nu))
    D = np.zeros((6, 6))
    D[:3, :3] = lam
    D[np.arange(3), np.arange(3)] += 2.0 * mu
    D[np.arange(3, 6), np.arange(3, 6)] = mu
    return D


def _shape_gradients(corners: np.ndarray, points: np.ndarray) -> np.ndarray:
    """d N_i / d xi_j at each local point (a row of `points`), for
    multilinear shape functions: (n_points, n_corner, dim)."""
    n_corner, dim = corners.shape
    grads = np.empty((len(points), n_corner, dim))
    for j in range(dim):
        factors = (1.0 + corners * points[:, None, :]) / 2.0
        factors[:, :, j] = corners[:, j] / 2.0
        grads[:, :, j] = np.prod(factors, axis=2)
    return grads


def _strain_matrix(dNdx: np.ndarray) -> np.ndarray:
    """B at each point, such that strain (Voigt) = B @ u_e, u_e ordered
    (x, y[, z]) per node: (n_points, n_strain, dim * n_corner)."""
    n_points, n_corner, dim = dNdx.shape
    pairs = _SHEAR_PAIRS[dim]
    B = np.zeros((n_points, dim + len(pairs), dim * n_corner))
    for i in range(dim):
        B[:, i, i::dim] = dNdx[:, :, i]
    for row, (i, j) in enumerate(pairs, start=dim):
        B[:, row, i::dim] = dNdx[:, :, j]
        B[:, row, j::dim] = dNdx[:, :, i]
    return B


def stiffness_scale(mesh: GroundMesh, material: Material) -> float:
    """s = E t in 2D and E h in 3D: an element's stiffness is s times that
    of the unit element (E = 1, t = 1, h = 1) of the same Poisson's ratio."""
    return material.youngs_modulus * (mesh.thickness if mesh.dim == 2 else mesh.element_size)


def element_stiffness(mesh: GroundMesh, material: Material, unit: bool = False) -> np.ndarray:
    """Stiffness matrix of one fully solid element (8x8 in 2D, 24x24 in 3D).

    The mesh's elements are axis-aligned squares/cubes of side h, so the
    Jacobian is (h/2) I everywhere and the quadrature is exact for the
    multilinear shape functions. The unit element (E = 1, t = 1, h = 1) is
    integrated on the reference cube and scaled by (2/h)^2 (h/2)^dim =
    (1/2)^(dim-2); `unit` returns it. Otherwise it is scaled once more, by
    `stiffness_scale(mesh, material)`: a 2D element does not depend on h,
    and no cancelling power of h overflows.
    """
    dim = mesh.dim
    corners = 2.0 * mesh.corner_offsets() - 1.0  # local coordinates in [-1, 1]^dim
    D = _elastic_matrix(material.poissons_ratio, dim)
    n_dof = corners.shape[0] * dim
    Ke = np.zeros((n_dof, n_dof))
    points = np.array(list(itertools.product(_GAUSS_1D, repeat=dim)))
    for B in _strain_matrix(_shape_gradients(corners, points)):
        Ke += B.T @ D @ B
    Ke *= 0.5 ** (dim - 2)
    Ke = 0.5 * (Ke + Ke.T)
    return Ke if unit else stiffness_scale(mesh, material) * Ke


def half_bandwidth(mesh: GroundMesh) -> int:
    """The half-bandwidth u of K, the DOF span of any one element: its
    corners span one node stride per axis, from its low corner to its high
    one. The strides are Python ints, exact on any mesh."""
    strides = [math.prod(mesh.nodes_per_axis[i + 1:]) for i in range(mesh.dim)]
    return mesh.dim * sum(strides) + mesh.dim - 1


def analysis_bytes(mesh: GroundMesh, k: int) -> tuple[int, int]:
    """(band bytes, estimated peak bytes) of one analysis solving k columns.

    The peak adds one (u + 1) x n_dofs band of doubles (`assemble`'s band,
    which `StiffnessSystem.factorize` overwrites with the factor), the
    scatter index and assembly weights (about 3 n_elements n_pairs
    eight-byte values, n_pairs the upper triangle of one element
    stiffness) and two n_dofs x k blocks of solves. A block of at least
    `_blocked_sweep_min_columns(u)` columns also holds the blocked
    sweep's inverted diagonal triangles, counted as one more band. An MMA
    run holds one block of solves: `form_gradient` weights the solves tile
    by tile, and the memo lets go of its analysis before it analyzes the
    next point. The augmented Lagrangian holds two by design, its current
    point's solves while a trial point is solved, so the estimate counts
    two. It reads the mesh's shape alone, in exact Python ints, and
    allocates nothing."""
    n_element_dofs = mesh.dim * 2**mesh.dim
    n_pairs = n_element_dofs * (n_element_dofs + 1) // 2
    u = half_bandwidth(mesh)
    band = 8 * (u + 1) * mesh.n_dofs
    bands = 2 if k >= _blocked_sweep_min_columns(u) else 1
    return band, bands * band + 8 * (3 * mesh.n_elements * n_pairs + 2 * mesh.n_dofs * k)


def physical_memory_bytes() -> int:
    """The machine's physical memory (`os.sysconf`); a cgroup limit is not read."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _band_layout(mesh: GroundMesh) -> _BandLayout:
    """The mesh's scatter map into band storage, built once and cached."""
    layout = mesh._cache.get("band_layout")
    if layout is None:
        edof = mesh.element_dof_map()
        width = half_bandwidth(mesh)
        # one element decides which local pairs land on or above the diagonal,
        # and the offset j - i of each: every element is congruent to it
        rows, cols = np.nonzero(edof[0][:, None] <= edof[0][None, :])
        offsets, slot = np.unique(edof[0, cols] - edof[0, rows], return_inverse=True)
        n = mesh.n_dofs
        fixed = mesh.fixed_dof_mask()
        local = fixed[edof]  # per element and local DOF
        spilled = local[:, rows] | local[:, cols]
        index = edof[:, cols]  # j, the column of each entry
        pairs = slot * n + index
        # (width + i - j, j), column-major, with i = j - offset, in j's buffer
        index *= width + 1
        index += width - offsets[slot]
        index[spilled] = (width + 1) * n  # one spill slot past the band
        pairs[spilled] = offsets.size * n
        layout = _BandLayout(width, rows, cols, index.ravel(), np.flatnonzero(fixed),
                             offsets, pairs)
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


# `form_gradient` forms the weighted block A one tile of DOF rows at a
# time, about _TILE_BYTES of it, so that the tile and the rows of Q its
# offsets read stay in L2 while every offset's dot runs over them.
# Medians of 31 on 1 OpenBLAS thread, 2-core x86-64 VM, against one
# untiled pass over a whole weighted copy: 7.6 -> 5.4 ms on 80x20 at
# k = 200, 24.5 -> 14.0 ms on 16x6x6 at k = 200 and 176 -> 73 ms there
# at k = 1000.
_TILE_BYTES = 512 * 1024
_MIN_TILE_ROWS = 16


def _tile_rows(k: int) -> int:
    """Rows per tile of `form_gradient` for k columns: 327 at k = 200, 65
    at k = 1000, and 6553 at k = 10, one tile on every benchmark mesh."""
    return max(_MIN_TILE_ROWS, _TILE_BYTES // (8 * k))


def form_gradient(mesh: GroundMesh, Ke: np.ndarray, Q: np.ndarray,
                  W: np.ndarray) -> np.ndarray:
    """g_e = d/d rho_e of sum_k a_k^T K q_k, over the k columns of Q.

    A weights the solves Q: A = Q diag(W) for a vector W of k weights,
    A = Q W for a symmetric k x k matrix W. Then g_e = sum_ab Ke[a, b]
    M[d_a, d_b] with M = A Q^T and d the DOFs of element e, M symmetric
    (the sum runs over the upper pairs, each off-diagonal one counted
    twice). Pairs that touch a fixed DOF are left out: those entries of
    the assembled K do not depend on rho.

    A is formed one tile of `_tile_rows(k)` DOF rows at a time, and every
    offset's row-wise dot runs against Q[i0 + d : i1 + d] while the tile
    is in cache, so no n_dofs x k weighted block is allocated. A
    row-major Q, as the blocked sweep returns it, is read in place, k
    contiguous values per DOF; any other layout is read as (k, n_dofs)
    rows of its transpose, with each tile of A copied to that layout, so
    that each diagonal is a contiguous row-wise dot product: for the few
    columns of the SVD route that is the faster of the two. Each entry's
    sum runs over the k columns in the same order whatever the tile
    height, so tiles do not change a bit of the result.
    """
    layout = _band_layout(mesh)
    n = mesh.n_dofs
    Q, W = np.asarray(Q, dtype=float), np.asarray(W, dtype=float)
    k = Q.shape[1]
    if W.shape not in ((k,), (k, k)):
        raise ValueError(f"W must have shape ({k},) or ({k}, {k}), got {W.shape}")
    row_major = Q.flags.c_contiguous
    Qt = Q.T if row_major else np.ascontiguousarray(Q.T)
    diagonals = np.zeros(layout.offsets.size * n + 1)  # spill slot stays 0
    rows = diagonals[:-1].reshape(layout.offsets.size, n)
    t = _tile_rows(k)
    for i0 in range(0, n, t):
        i1 = min(i0 + t, n)
        A = Q[i0:i1] * W if W.ndim == 1 else Q[i0:i1] @ W
        At = A.T if row_major else np.ascontiguousarray(A.T)
        for row, d in zip(rows, layout.offsets):
            m = min(i1, n - d) - i0  # the tile's rows whose partner i + d exists
            if m > 0:
                j = i0 + d
                np.einsum("ki,ki->i", At[:, :m], Qt[:, j:j + m], out=row[j:j + m])
        del A, At  # so that the next tile is not allocated beside this one
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


def _sweep_operators(factor: np.ndarray) -> tuple[list, Callable[[int], np.ndarray]]:
    """R's inverted diagonal triangles, and its couplings one at a time, in
    blocks of u rows.

    For block I = [b u, b u + u), the lower triangle of inverse[b] is T_b^-T
    for the upper triangle T_b = R[I, I], column-major; coupling(b) is the
    lower triangle R[I, I + u] that couples block b to the next one, zero
    above its diagonal, row-major, so that its transpose is column-major.
    BLAS reads both without a copy.

    R[i, j] sits at flat position u + i + u j of the column-major
    (u + 1, n) band, so block starts lie u (u + 1) apart and one strided
    view of the band holds every whole block of one kind, as LAPACK's
    dpbtrf reads them through LDAB - 1. Only the triangle itself is a
    block of R: the other half of such a view holds band entries of
    neighbouring columns, which dtrtri and dtrmm do not read.

    The diagonal blocks are copied row-major, so that each transpose is a
    column-major matrix that dtrtri inverts in place: the inverses are the
    copy, one band of doubles. The couplings are not copied: coupling(b)
    fills one u x u scratch from the band's view, its lower triangle only,
    so its upper triangle stays zero; it is valid until the next call. A
    short last block of t < u rows has a t x t triangle and a u x t
    coupling into it, copied once (`np.tril`).
    """
    u, n = factor.shape[0] - 1, factor.shape[1]
    band = factor.ravel(order="F")
    item = band.itemsize

    def blocks(i, j, count, shape=(u, u)):
        """[b, a, c] = R[i + b u + a, j + b u + c], a view of the band."""
        return as_strided(band[u + i + u * j:], (count, *shape),
                          (item * u * (u + 1), item, item * u), writeable=False)

    n_full, tail = divmod(n, u)
    diagonal = list(np.array(blocks(0, 0, n_full), order="C"))
    couplings = blocks(0, u, max(n_full - 1, 0))
    last = None
    if tail:
        i0 = n_full * u
        diagonal.append(np.array(blocks(i0, i0, 1, (tail, tail))[0], order="C"))
        if n_full:
            last = np.tril(blocks(i0 - u, i0, 1, (u, tail))[0])
    # R's pivots are positive (`factorize` checks them), so dtrtri cannot
    # meet a zero on the diagonal
    inverse = [lapack.dtrtri(T.T, lower=1, overwrite_c=1)[0] for T in diagonal]
    scratch = np.zeros((u, u))
    lower = np.tri(u, dtype=bool)

    def coupling(b: int) -> np.ndarray:
        if b == len(couplings):
            return last
        np.copyto(scratch, couplings[b], where=lower)
        return scratch

    return inverse, coupling


class StiffnessSystem:
    """A factorized stiffness matrix: an immutable value, solved many times.

    Built only through `factorize`, so every instance holds a valid
    Cholesky factor and `solve` has no state to check or update. The
    matrix is K = scale * K_unit, and the factor is that of K_unit, the
    band `factorize` was given: `solve` returns K_unit^-1 F, `scale` times
    the displacements, and whatever is formed from its solutions is divided
    by `scale` once (`compliance`).
    """

    def __init__(self, factor: np.ndarray, scale: float = 1.0):
        self._factor = factor
        self.scale = scale

    @classmethod
    def factorize(cls, ab: np.ndarray, scale: float = 1.0) -> "StiffnessSystem":
        """Banded Cholesky K_unit = R^T R of the upper band `ab` from
        `assemble`, for K = scale * K_unit.

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
        return cls(factor, scale)

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
        inverted diagonal triangle T^-1 (`_sweep_operators`). The inverses
        are built once per solve, in place in one copy of the diagonal
        blocks; each C is filled into one u x u scratch just before its
        dgemm, in both sweeps. An explicit inverse of a small,
        well-conditioned triangle is as stable as substitution (Du Croz &
        Higham 1992, IMA J. Numer. Anal. 12) and runs at the rate of dtrmm,
        about twice that of dtrsm. Returns Z.
        """
        u, n = self._factor.shape[0] - 1, self._factor.shape[1]
        inverse, coupling = _sweep_operators(self._factor)
        Z = np.zeros((n, block.shape[1]))
        Z[rows] = block
        # each W_b is viewed once per sweep, beside its neighbour's view:
        # no list of n / u views is held
        starts = range(0, n, u)
        for b, i in enumerate(starts):
            W = Z[i:i + u].T
            if b:
                blas.dgemm(-1.0, W_prev, coupling(b - 1).T, beta=1.0, c=W,
                           trans_b=1, overwrite_c=1)
            blas.dtrmm(1.0, inverse[b], W, side=1, lower=1, trans_a=1, overwrite_b=1)
            W_prev = W
        for b in reversed(range(len(starts))):
            W = Z[starts[b]:starts[b] + u].T
            if b + 1 < len(starts):
                blas.dgemm(-1.0, W_next, coupling(b).T, beta=1.0, c=W, overwrite_c=1)
            blas.dtrmm(1.0, inverse[b], W, side=1, lower=1, overwrite_b=1)
            W_next = W
        return Z
