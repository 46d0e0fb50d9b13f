"""Structured ground meshes for density-based topology optimization.

Supports 2D quadrilateral (plane stress) and 3D hexahedral grids of
identical axis-aligned cube/square elements.

Numbering conventions (used consistently by assembly, scenarios and the
exporters):

* nodes:    ``id = ix*(ny+1) + iy`` in 2D and
            ``id = ix*(ny+1)*(nz+1) + iy*(nz+1) + iz`` in 3D,
* elements: ``e = ex*ny + ey`` in 2D and ``e = ex*ny*nz + ey*nz + ez`` in 3D,
* DOFs:     ``node*dim + component`` with components ordered (x, y[, z]).

Axes are (length, height, depth); "down" is the negative y direction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Material:
    """Linear isotropic elastic material.

    Parameters
    ----------
    youngs_modulus : float
        Young's modulus in MPa. Must be positive.
    poissons_ratio : float
        Poisson's ratio, in (-1, 0.5).
    """

    youngs_modulus: float
    poissons_ratio: float

    def __post_init__(self):
        if not self.youngs_modulus > 0:
            raise ValueError(f"youngs_modulus must be > 0, got {self.youngs_modulus}")
        if not -1.0 < self.poissons_ratio < 0.5:
            raise ValueError(
                f"poissons_ratio must lie in (-1, 0.5), got {self.poissons_ratio}"
            )


@dataclass(frozen=True)
class GroundMesh:
    """A structured grid of identical square/cube elements.

    Parameters
    ----------
    dim : int
        2 or 3.
    cells : tuple of int
        Element counts per axis, ``(nx, ny)`` or ``(nx, ny, nz)``.
    element_size : float
        Side length of every element, in mm.
    fixed_dofs : frozenset of int
        DOF indices with homogeneous Dirichlet conditions. An empty set is
        accepted at construction but produces a singular system at
        factorization time.
    thickness : float
        Sheet thickness in mm (2D only; ignored in 3D).
    """

    dim: int
    cells: tuple
    element_size: float
    fixed_dofs: frozenset = field(default_factory=frozenset)
    thickness: float = 1.0
    # arrays derived from the fields above, built on first use
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        cells = tuple(int(c) for c in self.cells)
        if len(cells) != self.dim or any(c < 1 for c in cells):
            raise ValueError(f"cells must be {self.dim} positive ints, got {self.cells}")
        object.__setattr__(self, "cells", cells)
        if not self.element_size > 0:
            raise ValueError(f"element_size must be > 0, got {self.element_size}")
        if self.dim == 2 and not self.thickness > 0:
            raise ValueError(f"thickness must be > 0, got {self.thickness}")
        object.__setattr__(self, "fixed_dofs", frozenset(int(d) for d in self.fixed_dofs))
        if self.fixed_dofs and (min(self.fixed_dofs) < 0 or max(self.fixed_dofs) >= self.n_dofs):
            raise ValueError("fixed_dofs contains an out-of-range DOF index")

    # -- counts ------------------------------------------------------------

    @property
    def nodes_per_axis(self):
        return tuple(c + 1 for c in self.cells)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.nodes_per_axis))

    @property
    def n_dofs(self) -> int:
        return self.dim * self.n_nodes

    @property
    def n_elements(self) -> int:
        return int(np.prod(self.cells))

    # -- numbering ---------------------------------------------------------

    def node_id(self, *grid_index) -> int:
        """Global node id of grid coordinates (ix, iy[, iz])."""
        npa = self.nodes_per_axis
        if self.dim == 2:
            ix, iy = grid_index
            return ix * npa[1] + iy
        ix, iy, iz = grid_index
        return ix * npa[1] * npa[2] + iy * npa[2] + iz

    def node_dofs(self, node: int) -> np.ndarray:
        return np.arange(self.dim) + self.dim * node

    def element_node_ids(self) -> np.ndarray:
        """(n_elements, 4 or 8) array of element corner node ids.

        Local corner order matches the shape functions in `fea`:
        counterclockwise in 2D starting at the low corner; in 3D the bottom
        face first, then the top face, same traversal.
        """
        if self.dim == 2:
            nx, ny = self.cells
            ex, ey = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
            ex, ey = ex.ravel(), ey.ravel()
            corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
            cols = [self.node_id_array(ex + dx, ey + dy) for dx, dy in corners]
        else:
            nx, ny, nz = self.cells
            ex, ey, ez = np.meshgrid(
                np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
            )
            ex, ey, ez = ex.ravel(), ey.ravel(), ez.ravel()
            corners = [
                (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
            ]
            cols = [self.node_id_array(ex + dx, ey + dy, ez + dz) for dx, dy, dz in corners]
        return np.stack(cols, axis=1)

    def node_id_array(self, *grid_index):
        """Vectorized `node_id`."""
        npa = self.nodes_per_axis
        if self.dim == 2:
            ix, iy = grid_index
            return ix * npa[1] + iy
        ix, iy, iz = grid_index
        return ix * npa[1] * npa[2] + iy * npa[2] + iz

    def element_dof_map(self) -> np.ndarray:
        """(n_elements, 8 or 24) global DOF indices per element, read-only.

        Built on the first call and cached on the mesh.
        """
        dofs = self._cache.get("element_dofs")
        if dofs is None:
            nodes = self.element_node_ids()
            n_el, n_corner = nodes.shape
            dofs = np.empty((n_el, n_corner * self.dim), dtype=np.int64)
            for c in range(self.dim):
                dofs[:, c::self.dim] = self.dim * nodes + c
            dofs.flags.writeable = False
            self._cache["element_dofs"] = dofs
        return dofs

    # -- geometry ----------------------------------------------------------

    def element_centroids(self) -> np.ndarray:
        """(n_elements, dim) centroid coordinates in mm."""
        h = self.element_size
        if self.dim == 2:
            nx, ny = self.cells
            ex, ey = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
            return np.column_stack([(ex.ravel() + 0.5) * h, (ey.ravel() + 0.5) * h])
        nx, ny, nz = self.cells
        ex, ey, ez = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
        return np.column_stack(
            [(ex.ravel() + 0.5) * h, (ey.ravel() + 0.5) * h, (ez.ravel() + 0.5) * h]
        )

    def boundary_node_ids(self) -> np.ndarray:
        """Ids of nodes on the outer surface, ascending (lexicographic)."""
        npa = self.nodes_per_axis
        if self.dim == 2:
            ix, iy = np.meshgrid(np.arange(npa[0]), np.arange(npa[1]), indexing="ij")
            on_edge = (ix == 0) | (ix == npa[0] - 1) | (iy == 0) | (iy == npa[1] - 1)
            ids = self.node_id_array(ix[on_edge], iy[on_edge])
        else:
            ix, iy, iz = np.meshgrid(
                np.arange(npa[0]), np.arange(npa[1]), np.arange(npa[2]), indexing="ij"
            )
            on_face = (
                (ix == 0) | (ix == npa[0] - 1)
                | (iy == 0) | (iy == npa[1] - 1)
                | (iz == 0) | (iz == npa[2] - 1)
            )
            ids = self.node_id_array(ix[on_face], iy[on_face], iz[on_face])
        return np.sort(ids)

    def free_surface_dofs(self) -> np.ndarray:
        """All DOFs of surface nodes that carry no Dirichlet condition, ascending."""
        nodes = self.boundary_node_ids()
        dofs = (self.dim * nodes[:, None] + np.arange(self.dim)[None, :]).ravel()
        fixed = np.fromiter(self.fixed_dofs, dtype=np.int64) if self.fixed_dofs else np.empty(0, np.int64)
        return np.setdiff1d(dofs, fixed)


def cantilever_mesh(dim: int, cells, element_size: float = 1.0, thickness: float = 1.0) -> GroundMesh:
    """Cantilever benchmark mesh: every DOF on the x=0 face is fixed."""
    cells = tuple(int(c) for c in cells)
    npa = tuple(c + 1 for c in cells)
    fixed = []
    if dim == 2:
        for iy in range(npa[1]):
            node = 0 * npa[1] + iy
            fixed.extend((2 * node, 2 * node + 1))
    elif dim == 3:
        for iy in range(npa[1]):
            for iz in range(npa[2]):
                node = iy * npa[2] + iz
                fixed.extend((3 * node, 3 * node + 1, 3 * node + 2))
    else:
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    return GroundMesh(dim=dim, cells=cells, element_size=element_size,
                      fixed_dofs=frozenset(fixed), thickness=thickness)
