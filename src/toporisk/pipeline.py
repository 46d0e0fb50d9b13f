"""Design-to-physical density mapping.

The design vector x in [0, 1]^n_E is turned into physical element
densities in four stages, in this order:

1. filter:      y = A x, A the row-stochastic cone filter on a grid stencil,
2. penalize:    y^p (SIMP power law),
3. interpolate: (1 - x_min) y^p + x_min, bounding densities away from 0,
4. project:     regularized Heaviside H_beta.

The projection is H_beta(y) = 1 - exp(-beta*y) + y*exp(-beta), which is
the identity at beta = 0 (exactly, also in floating point) and sharpens
toward a 0/1 step as beta grows. Every stage maps [0, 1] into itself, so
physical densities stay in [x_min, 1].

`DensityPipeline.apply` evaluates the stages and, in the same pass, the
derivative of the three pointwise ones: one chain factor per element
(Andreassen et al. 2011). `DensityPipeline.backward` pulls a gradient with
respect to physical densities back to the design vector through that
factor and the filter's transpose.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import GroundMesh

# offsets per block of `filter_stencil`: bounds its temporaries to a few MB
# whatever the radius
STENCIL_BLOCK = 2**16
# peak bytes per filter entry while `build_filter` runs: its boxes of rows,
# columns and weights, their concatenation, the CSR conversion and the
# normalized copy (measured 68-72 on 2-D and 3-D meshes of 0.6-10 M entries)
FILTER_BUILD_BYTES = 72


def filter_stencil(mesh: GroundMesh, radius: float):
    """Yield (offsets, weights) blocks of the cone filter's stencil.

    The offsets d, in element widths, run over the box the mesh allows in
    lexicographic order. A block keeps those of positive weight
    radius - h |d|: `offsets` holds their components, one int64 array per
    axis, and `weights` their weights. Both readers walk this one
    enumeration: `build_filter` and the memory gate's `filter_entries`.
    """
    h, cells = mesh.element_size, mesh.cells
    reach = [int(min(c - 1, radius // h)) for c in cells]
    shape = tuple(2 * r + 1 for r in reach)
    total = math.prod(shape)
    for start in range(0, total, STENCIL_BLOCK):
        flat = np.arange(start, min(start + STENCIL_BLOCK, total))
        d = [k - r for k, r in zip(np.unravel_index(flat, shape), reach)]
        w = radius - h * np.sqrt(sum(k * k for k in d))
        keep = w > 0
        yield [k[keep] for k in d], w[keep]


def filter_entries(mesh: GroundMesh, radius: float) -> int:
    """Nonzeros of `build_filter(mesh, radius)`, counted from the mesh's
    shape without building it: offset d adds prod_i (cells_i - |d_i|)."""
    count = 0
    for offsets, _ in filter_stencil(mesh, radius):
        boxes = math.prod(c - np.abs(k) for k, c in zip(offsets, mesh.cells))
        count += int(np.sum(boxes))
    return count


def build_filter(mesh: GroundMesh, radius: float) -> sp.csr_matrix:
    """Row-stochastic cone (linearly decaying) density filter.

    Entry (e, i) is proportional to max(0, radius - dist(centroid_e,
    centroid_i)) and each row is normalized to sum to one. A radius at or
    below the element size yields the identity.

    On a structured grid all elements share one stencil of offsets d, in
    element widths, at distance h |d| (Andreassen et al. 2011), so no spatial
    index is searched: each offset of positive weight adds the box of
    elements whose neighbour e + d is in the grid. Offsets run in
    lexicographic order, so rows come out sorted and sum in column order: at
    h = 1 the matrix is bitwise that of a search over centroids.

    The weights are scaled by 2^-e, e the radius's binary exponent, so no
    row sum overflows at any finite radius. A power of two scales exactly
    and the normalization cancels it: wherever the unscaled sums fit, the
    matrix keeps their bits.
    """
    if not radius > 0:
        raise ValueError(f"filter radius must be > 0, got {radius}")
    cells, n = mesh.cells, mesh.n_elements
    ids = np.arange(n).reshape(cells)
    exponent = math.frexp(radius)[1]
    rows, cols, weights = [], [], []
    for offsets, w in filter_stencil(mesh, radius):
        for *d, wd in zip(*(k.tolist() for k in offsets), np.ldexp(w, -exponent)):
            own = ids[tuple(slice(max(0, -k), c - max(0, k)) for k, c in zip(d, cells))].ravel()
            rows.append(own)
            cols.append(own + np.dot(ids.strides, d) // ids.itemsize)
            weights.append(np.full(own.size, wd))
    A = sp.csr_matrix((np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    return sp.diags(1.0 / np.asarray(A.sum(axis=1)).ravel()) @ A


def heaviside(y: np.ndarray, beta: float) -> np.ndarray:
    """Regularized Heaviside projection; identity when beta = 0."""
    return 1.0 - np.exp(-beta * y) + y * np.exp(-beta)


def heaviside_derivative(y: np.ndarray, beta: float) -> np.ndarray:
    return beta * np.exp(-beta * y) + np.exp(-beta)


@dataclass(frozen=True)
class DensityField:
    """One forward pass through the pipeline.

    Attributes
    ----------
    physical : ndarray
        Physical element densities, in [x_min, 1].
    chain : ndarray
        The pointwise stages' derivative at the filtered densities y = A x,
        H'_beta((1 - x_min) y^p + x_min) * (1 - x_min) * p * y^(p-1):
        `backward` multiplies by it before the filter's transpose.
    """

    physical: np.ndarray
    chain: np.ndarray


class DensityPipeline:
    """Applies the filter/penalize/interpolate/project chain on one mesh.

    The filter matrix depends only on the mesh and radius and is built
    once; penalty and beta are per-call so continuation can sweep them
    without rebuilding anything.
    """

    def __init__(self, mesh: GroundMesh, filter_radius: float, x_min: float):
        if not 0.0 < x_min < 1.0:
            raise ValueError(f"x_min must lie in (0, 1), got {x_min}")
        self.mesh = mesh
        self.x_min = float(x_min)
        self.filter_matrix = build_filter(mesh, filter_radius)

    def apply(self, design: np.ndarray, penalty: float, beta: float) -> DensityField:
        design = np.asarray(design, dtype=float)
        if design.shape != (self.mesh.n_elements,):
            raise ValueError(
                f"design must have shape ({self.mesh.n_elements},), got {design.shape}"
            )
        if np.any(design < 0.0) or np.any(design > 1.0):
            raise ValueError("design values must lie in [0, 1]")
        if not penalty >= 1.0:
            raise ValueError(f"penalty must be >= 1, got {penalty}")
        if not beta >= 0.0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        filtered = self.filter_matrix @ design
        interpolated = (1.0 - self.x_min) * filtered**penalty + self.x_min
        # rounding in the projection can overshoot the exact bounds by an
        # ulp; clamp so the documented range [x_min, 1] holds verbatim
        physical = np.clip(heaviside(interpolated, beta), self.x_min, 1.0)
        chain = heaviside_derivative(interpolated, beta) * (1.0 - self.x_min) * penalty
        # at p = 1 this is filtered^0, which is 1.0 for every value, 0 included
        chain = chain * filtered ** (penalty - 1.0)
        return DensityField(physical=physical, chain=chain)

    def backward(self, field: DensityField, grad_physical: np.ndarray) -> np.ndarray:
        """Pull d(obj)/d(physical) back to d(obj)/d(design): A^T (chain * g)."""
        return self.filter_matrix.T @ (field.chain * np.asarray(grad_physical, dtype=float))
