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

`DensityPipeline.backward` pulls a gradient with respect to physical
densities back to the design vector through the chain rule; the filter
contributes its transpose.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import GroundMesh


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
    """
    if not radius > 0:
        raise ValueError(f"filter radius must be > 0, got {radius}")
    h, cells, n = mesh.element_size, mesh.cells, mesh.n_elements
    ids = np.arange(n).reshape(cells)
    reach = [range(-r, r + 1) for r in (int(min(c - 1, radius // h)) for c in cells)]
    rows, cols, weights = [], [], []
    for d in itertools.product(*reach):
        w = radius - h * np.sqrt(np.dot(d, d))
        if w > 0:
            own = ids[tuple(slice(max(0, -k), c - max(0, k)) for k, c in zip(d, cells))].ravel()
            rows.append(own)
            cols.append(own + np.dot(ids.strides, d) // ids.itemsize)
            weights.append(np.full(own.size, w))
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
    """One forward pass through the pipeline, with intermediates kept.

    Attributes
    ----------
    filtered : ndarray
        A x.
    interpolated : ndarray
        (1 - x_min) (A x)^p + x_min, the projection's argument.
    physical : ndarray
        Physical element densities, in [x_min, 1].
    penalty, beta, x_min : float
        Stage parameters the pass used.
    """

    filtered: np.ndarray
    interpolated: np.ndarray
    physical: np.ndarray
    penalty: float
    beta: float
    x_min: float


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
        return DensityField(
            filtered=filtered,
            interpolated=interpolated,
            physical=physical,
            penalty=penalty,
            beta=beta,
            x_min=self.x_min,
        )

    def backward(self, field: DensityField, grad_physical: np.ndarray) -> np.ndarray:
        """Pull d(obj)/d(physical) back to d(obj)/d(design).

        The pointwise stages contribute a diagonal chain factor
        H'_beta(interpolated) * (1 - x_min) * p * filtered^(p-1)
        and the filter contributes A^T.
        """
        grad_physical = np.asarray(grad_physical, dtype=float)
        chain = heaviside_derivative(field.interpolated, field.beta)
        chain = chain * (1.0 - field.x_min) * field.penalty
        # at p = 1 this is filtered^0, which is 1.0 for every value, 0 included
        chain = chain * field.filtered ** (field.penalty - 1.0)
        return self.filter_matrix.T @ (chain * grad_physical)

    def volume_fraction(self, field: DensityField) -> float:
        """Mean physical density."""
        return float(np.mean(field.physical))
