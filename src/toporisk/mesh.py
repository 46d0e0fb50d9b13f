"""Structured ground meshes for density-based topology optimization.

Supports 2D quadrilateral (plane stress) and 3D hexahedral grids of
identical axis-aligned cube/square elements.

Numbering conventions (used consistently by assembly, scenarios and the
exporters), the same in 2D and 3D:

* nodes:    grid coordinates (ix, iy[, iz]) raveled in C order over
            `nodes_per_axis`, so the last axis runs fastest
            (``id = ix*(ny+1) + iy`` in 2D),
* elements: the lowest corner's grid coordinates raveled in C order
            over `cells` (``e = ex*ny + ey`` in 2D),
* corners:  the local corner order of every element is
            `GroundMesh.corner_offsets`, which the element kernel in
            `fea` reads too,
* DOFs:     ``node*dim + component`` with components ordered (x, y[, z]).

Axes are (length, height, depth); "down" is the negative y direction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import check_fields


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
        check_fields(self)
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
        """Global node id of grid coordinates (ix, iy[, iz]).

        Raises ValueError for a coordinate outside the grid.
        """
        return int(self.node_id_array(*grid_index))

    def node_id_array(self, *grid_index):
        """Vectorized `node_id`."""
        return np.ravel_multi_index(grid_index, self.nodes_per_axis)

    def node_dofs(self, node: int) -> np.ndarray:
        return np.arange(self.dim) + self.dim * node

    def corner_offsets(self) -> np.ndarray:
        """(4 or 8, dim) grid offsets of an element's corners, in local order.

        Counterclockwise in 2D starting at the low corner; in 3D the same
        ring on the bottom face, then on the top face.
        """
        ring = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
        if self.dim == 2:
            return ring
        return np.vstack([np.column_stack([ring, np.full(4, z)]) for z in (0, 1)])

    def _element_origins(self) -> np.ndarray:
        """(dim, n_elements) grid coordinates of each element's low corner."""
        return np.indices(self.cells).reshape(self.dim, -1)

    def element_node_ids(self) -> np.ndarray:
        """(n_elements, 4 or 8) element corner node ids, in `corner_offsets` order."""
        corners = self._element_origins()[:, :, None] + self.corner_offsets().T[:, None, :]
        return self.node_id_array(*corners)

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
        return (self._element_origins().T + 0.5) * self.element_size

    def boundary_node_ids(self) -> np.ndarray:
        """Ids of nodes on the outer surface, ascending."""
        grid = np.indices(self.nodes_per_axis).reshape(self.dim, -1)
        last = np.array(self.nodes_per_axis)[:, None] - 1
        return np.flatnonzero(np.any((grid == 0) | (grid == last), axis=0))

    def free_surface_dofs(self) -> np.ndarray:
        """All DOFs of surface nodes that carry no Dirichlet condition, ascending."""
        nodes = self.boundary_node_ids()
        dofs = (self.dim * nodes[:, None] + np.arange(self.dim)[None, :]).ravel()
        fixed = np.fromiter(self.fixed_dofs, dtype=np.int64) if self.fixed_dofs else np.empty(0, np.int64)
        return np.setdiff1d(dofs, fixed)


def cantilever_mesh(dim: int, cells, element_size: float = 1.0, thickness: float = 1.0) -> GroundMesh:
    """Cantilever benchmark mesh: every DOF on the x=0 face is fixed.

    The x=0 face holds the lowest node ids, so its DOFs are the first
    dim * prod(nodes_per_axis[1:]).
    """
    cells = tuple(int(c) for c in cells)
    n_face_dofs = dim * int(np.prod([c + 1 for c in cells[1:]]))
    return GroundMesh(dim=dim, cells=cells, element_size=element_size,
                      fixed_dofs=frozenset(range(n_face_dofs)), thickness=thickness)
