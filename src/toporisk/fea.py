"""Finite element assembly and linear solves on structured meshes.

Q4 plane stress in 2D, H8 in 3D, both with full Gauss quadrature
(2 points per axis). All elements of a `GroundMesh` are congruent, so a
single element stiffness matrix is computed once and scaled per element
by its density during assembly.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NotPositiveDefiniteError
from .mesh import GroundMesh, Material

# corners in local coordinates, same order as GroundMesh.element_node_ids
_CORNERS_2D = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)], dtype=float)
_CORNERS_3D = np.array(
    [(-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1),
     (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1)],
    dtype=float,
)
_GAUSS_1D = np.array([-1.0, 1.0]) / np.sqrt(3.0)  # weights are 1


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


def _strain_matrix(dNdx: np.ndarray, dim: int) -> np.ndarray:
    """B such that strain (Voigt) = B @ u_e, u_e ordered (x, y[, z]) per node."""
    n_corner = dNdx.shape[0]
    if dim == 2:
        B = np.zeros((3, 2 * n_corner))
        B[0, 0::2] = dNdx[:, 0]
        B[1, 1::2] = dNdx[:, 1]
        B[2, 0::2] = dNdx[:, 1]
        B[2, 1::2] = dNdx[:, 0]
        return B
    B = np.zeros((6, 3 * n_corner))
    B[0, 0::3] = dNdx[:, 0]
    B[1, 1::3] = dNdx[:, 1]
    B[2, 2::3] = dNdx[:, 2]
    # shear rows in Voigt order (yz, xz, xy)
    B[3, 1::3] = dNdx[:, 2]
    B[3, 2::3] = dNdx[:, 1]
    B[4, 0::3] = dNdx[:, 2]
    B[4, 2::3] = dNdx[:, 0]
    B[5, 0::3] = dNdx[:, 1]
    B[5, 1::3] = dNdx[:, 0]
    return B


def element_stiffness(mesh: GroundMesh, material: Material) -> np.ndarray:
    """Stiffness matrix of one fully solid element (8x8 in 2D, 24x24 in 3D).

    The mesh's elements are axis-aligned squares/cubes of side h, so the
    Jacobian is (h/2) I everywhere and the quadrature is exact for the
    multilinear shape functions.
    """
    dim = mesh.dim
    h = mesh.element_size
    corners = _CORNERS_2D if dim == 2 else _CORNERS_3D
    D = _elastic_matrix(material, dim)
    n_dof = corners.shape[0] * dim
    Ke = np.zeros((n_dof, n_dof))
    detJ = (h / 2.0) ** dim
    grids = np.meshgrid(*([_GAUSS_1D] * dim), indexing="ij")
    for point in np.stack([g.ravel() for g in grids], axis=1):
        dNdx = _shape_gradients(corners, point) * (2.0 / h)
        B = _strain_matrix(dNdx, dim)
        Ke += B.T @ D @ B * detJ
    if dim == 2:
        Ke *= mesh.thickness
    return 0.5 * (Ke + Ke.T)


def assemble(mesh: GroundMesh, Ke: np.ndarray, densities: np.ndarray) -> sp.csc_matrix:
    """Global stiffness K = sum_e rho_e Ke with Dirichlet DOFs eliminated.

    Elimination is symmetric: fixed rows and columns are zeroed and their
    diagonal entries set to one, which keeps the matrix SPD whenever the
    free block is.
    """
    densities = np.asarray(densities, dtype=float)
    if densities.shape != (mesh.n_elements,):
        raise ValueError(
            f"densities must have shape ({mesh.n_elements},), got {densities.shape}"
        )
    edof = mesh.element_dof_map()
    n_loc = edof.shape[1]
    rows = np.repeat(edof, n_loc, axis=1).ravel()
    cols = np.tile(edof, (1, n_loc)).ravel()
    vals = (densities[:, None] * Ke.ravel()[None, :]).ravel()
    if mesh.fixed_dofs:
        fixed = np.fromiter(mesh.fixed_dofs, dtype=np.int64)
        keep = np.ones(mesh.n_dofs, dtype=bool)
        keep[fixed] = False
        mask = keep[rows] & keep[cols]
        rows, cols, vals = rows[mask], cols[mask], vals[mask]
        rows = np.concatenate([rows, fixed])
        cols = np.concatenate([cols, fixed])
        vals = np.concatenate([vals, np.ones(fixed.size)])
    K = sp.coo_matrix((vals, (rows, cols)), shape=(mesh.n_dofs, mesh.n_dofs))
    return K.tocsc()


class StiffnessSystem:
    """A factorized stiffness matrix: an immutable value, solved many times.

    Built only through `factorize`, so every instance holds a valid
    factorization and `solve` has no state to check or update.
    """

    def __init__(self, K: sp.csc_matrix, lu):
        self._K = K
        self._lu = lu

    @property
    def matrix(self) -> sp.csc_matrix:
        return self._K

    @classmethod
    def factorize(cls, K: sp.spmatrix) -> "StiffnessSystem":
        """Sparse Cholesky-like LU of the SPD stiffness matrix.

        Pivoting is disabled (diagonal pivoting threshold zero, symmetric
        mode) so the factorization doubles as a positive definiteness
        test: any non-positive pivot raises `NotPositiveDefiniteError`.
        A mathematically zero pivot can land at round-off level instead
        of exactly zero, so pivots below n * eps * max|K_ii| count as
        non-positive too.
        """
        K = K.tocsc()
        lu = splu(
            K,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        pivots = lu.U.diagonal()
        floor = K.shape[0] * np.finfo(float).eps * np.max(np.abs(K.diagonal()))
        if not np.all(pivots > floor):
            raise NotPositiveDefiniteError(
                "stiffness matrix has a non-positive pivot; the structure is "
                "likely unsupported (no fixed DOFs) or densities underflowed"
            )
        return cls(K, lu)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve K u = rhs for one RHS vector or a column block."""
        return self._lu.solve(np.asarray(rhs, dtype=float))
