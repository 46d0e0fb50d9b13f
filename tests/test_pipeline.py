"""Density filter, interpolation and projection, with finite-difference adjoints."""
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import toporisk as tr
from toporisk.pipeline import heaviside, heaviside_derivative

from oracles import (csr_arrays, element_centroids, kdtree_filter, product_filter,
                     separate_backward)


def dense_filter(mesh, radius):
    rows, cols, weights = tr.build_filter(mesh, radius)
    A = np.zeros((mesh.n_elements, mesh.n_elements))
    A[rows, cols] = weights
    return A


def test_filter_rows_are_stochastic(mesh_6x3):
    rows, _, weights = tr.build_filter(mesh_6x3, radius=2.0)
    assert weights.min() >= 0.0
    np.testing.assert_allclose(np.bincount(rows, weights), 1.0, rtol=0, atol=1e-14)


def test_filter_support_matches_radius(mesh_6x3):
    radius = 2.0
    A = dense_filter(mesh_6x3, radius)
    cent = element_centroids(mesh_6x3)
    dist = np.linalg.norm(cent[:, None, :] - cent[None, :, :], axis=2)
    # cone weights: positive strictly inside the radius, zero outside
    assert np.all((A > 0) == (dist < radius - 1e-12))


def test_filter_weights_are_cone_shaped(mesh_6x3):
    radius = 2.5
    A = dense_filter(mesh_6x3, radius)
    cent = element_centroids(mesh_6x3)
    e = 7  # an interior element
    dist = np.linalg.norm(cent - cent[e], axis=1)
    inside = dist < radius
    w = np.maximum(radius - dist, 0.0)
    np.testing.assert_allclose(A[e, inside], (w / w.sum())[inside], atol=1e-14)


def test_tiny_radius_gives_identity(mesh_4x2):
    A = dense_filter(mesh_4x2, radius=0.5)
    np.testing.assert_array_equal(A, np.eye(mesh_4x2.n_elements))


@pytest.mark.parametrize("cells,h,radius,exact", [
    ((80, 20), 1.0, 1.5, True),      # the three benchmark meshes
    ((16, 6, 6), 1.0, 1.5, True),
    ((20, 10), 1.0, 1.5, True),
    ((6, 3), 1.0, 2.0, True),        # offsets (2, 0) and (0, 2) on the circle
    ((6, 3), 1.0, 5 ** 0.5, True),   # offset (1, 2) on the circle
    ((5, 4, 3), 1.0, 2.0, True),
    ((4, 2), 1.0, 0.5, True),        # below one element: the identity
    ((4, 2), 1.0, 10.0, True),       # beyond the whole mesh
    ((7, 5), 2.0, 3.1, True),
    ((7, 5), 0.1, 0.25, False),      # centroid differences round at h = 0.1
])
def test_filter_equals_the_kdtree_reference(cells, h, radius, exact):
    mesh = tr.GroundMesh(dim=len(cells), cells=cells, element_size=h)
    (rows, cols, weights), ref = tr.build_filter(mesh, radius), kdtree_filter(mesh, radius)
    ref_rows, ref_cols, ref_weights = csr_arrays(ref)
    np.testing.assert_array_equal(rows, ref_rows)
    np.testing.assert_array_equal(cols, ref_cols)
    if exact:
        np.testing.assert_array_equal(weights, ref_weights)
    else:
        np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-15)


@pytest.mark.parametrize("cells,h", [((6, 3), 1.0), ((80, 20), 1.0), ((5, 4, 3), 1.0),
                                     ((7, 5), 0.1), ((4, 3, 3), 2.0), ((1, 9), 0.37)])
@pytest.mark.parametrize("radius_in_h", [0.5, 1.0, 1.5, 2.0, 3.7, 1e3])
def test_filter_entries_count_the_built_filter(cells, h, radius_in_h):
    mesh = tr.GroundMesh(dim=len(cells), cells=cells, element_size=h)
    radius = radius_in_h * h
    rows, cols, weights = tr.build_filter(mesh, radius)
    assert tr.pipeline.filter_entries(mesh, radius) == rows.size == cols.size == weights.size


@pytest.mark.parametrize("radius,exact", [(1e307, True), (1e308, False),
                                          (float(np.finfo(float).max), False)])
def test_huge_radius_filter_equals_a_spanning_one(mesh_6x3, radius, exact):
    """Weights near the radius used to overflow the row sums to inf and
    leave a zero filter. Every such radius spans the mesh with equal
    weights; their rounding differs with the radius's mantissa."""
    (rows, cols, weights), spanning = (tr.build_filter(mesh_6x3, radius),
                                       tr.build_filter(mesh_6x3, 1e306))
    assert spanning[2].size == 18**2 == tr.pipeline.filter_entries(mesh_6x3, radius)
    np.testing.assert_array_equal(rows, spanning[0])
    np.testing.assert_array_equal(cols, spanning[1])
    if exact:
        np.testing.assert_array_equal(weights, spanning[2])
    else:
        np.testing.assert_allclose(weights, spanning[2], rtol=1e-15, atol=0)


def assert_stored_as_the_product(mesh, radius):
    """The pipeline's filter arrays are the oracle's CSR arrays, and its
    forward and pull-back sum as scipy's A @ x and A.T @ x do, bit for bit."""
    pipe, oracle = tr.DensityPipeline(mesh, radius, x_min=0.5), product_filter(mesh, radius)
    for name, got, want in zip(("rows", "cols", "weights"), pipe.filter, csr_arrays(oracle)):
        np.testing.assert_array_equal(got, want, err_msg=name)
    n = mesh.n_elements
    x = np.random.default_rng(3).uniform(size=n)
    # at p = 2, beta = 0 and x_min = 1/2 the chain factor is A x itself
    np.testing.assert_array_equal(pipe.apply(x, 2.0, 0.0).chain, oracle @ x)
    # at a unit chain factor the pull-back is A^T x
    field = tr.DensityField(physical=x, chain=np.ones(n))
    np.testing.assert_array_equal(pipe.backward(field, x), oracle.T @ x)


@pytest.mark.parametrize("cells", [(6, 3), (80, 20), (13, 7), (5, 4, 3), (4, 3, 3)])
@pytest.mark.parametrize("h", [0.1, 1.0, 2.0])
@pytest.mark.parametrize("radius_in_h", [0.5, 1.0, 1.5, 2.0, 2.5, 3.7, 1e3])
def test_filter_is_stored_as_the_normalizing_product_stored_it(cells, h, radius_in_h):
    """`build_filter` lays out the arrays that sp.diags(1/s) @ A makes:
    each row in descending column order, so that A x sums in that order."""
    assert_stored_as_the_product(tr.cantilever_mesh(len(cells), cells, element_size=h),
                                 radius_in_h * h)


@pytest.mark.parametrize("cells", [(6, 3), (3, 2, 2)])
@pytest.mark.parametrize("radius", [1e300, 1e306, 1e307])
def test_filter_at_huge_radii_is_stored_as_the_product_stored_it(cells, radius):
    assert_stored_as_the_product(tr.cantilever_mesh(len(cells), cells), radius)


def test_filter_rows_are_stored_in_descending_column_order():
    rows, cols, _ = tr.build_filter(tr.cantilever_mesh(2, (80, 20)), 1.5)
    assert cols[rows == 0].tolist() == [21, 20, 1, 0]
    assert np.all(np.diff(rows) >= 0)
    assert np.all(np.diff(cols)[np.diff(rows) == 0] < 0)


@pytest.mark.parametrize("package", ["scipy.spatial", "scipy.sparse"])
def test_import_loads_no_spatial_index(package):
    code = ("import sys, toporisk; "
            f"print(sorted(m for m in sys.modules if m.startswith({package!r})))")
    env = {**os.environ, "PYTHONPATH": str(Path(tr.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "[]"


def test_heaviside_zero_beta_is_exact_identity():
    y = np.linspace(0.0, 1.0, 17)
    out = heaviside(y, 0.0)
    assert np.array_equal(out, y)  # bitwise, not approximately


def test_heaviside_endpoints_and_monotonicity():
    for beta in (0.5, 4.0, 20.0):
        y = np.linspace(0.0, 1.0, 1001)
        h = heaviside(y, beta)
        assert h[0] == 0.0
        assert abs(h[-1] - 1.0) < 1e-15
        assert np.all(np.diff(h) > 0)
        # derivative against central differences
        yc = y[1:-1]
        fd = (heaviside(yc + 1e-7, beta) - heaviside(yc - 1e-7, beta)) / 2e-7
        np.testing.assert_allclose(heaviside_derivative(yc, beta), fd,
                                   rtol=1e-6, atol=1e-9)


def test_apply_validates_inputs(mesh_4x2):
    pipe = tr.DensityPipeline(mesh_4x2, 1.5, x_min=1e-3)
    ok = np.full(mesh_4x2.n_elements, 0.5)
    pipe.apply(ok, 1.0, 0.0)
    with pytest.raises(ValueError):
        pipe.apply(ok[:-1], 1.0, 0.0)
    with pytest.raises(ValueError):
        pipe.apply(ok - 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        pipe.apply(ok, 0.5, 0.0)
    with pytest.raises(ValueError):
        pipe.apply(ok, 1.0, -1.0)
    with pytest.raises(ValueError):
        tr.DensityPipeline(mesh_4x2, 1.5, x_min=0.0)


def test_physical_density_stays_in_range(mesh_6x3):
    pipe = tr.DensityPipeline(mesh_6x3, 2.0, x_min=1e-3)
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.uniform(0.0, 1.0, mesh_6x3.n_elements)
        p = rng.uniform(1.0, 6.0)
        beta = rng.choice([0.0, rng.uniform(0.0, 20.0)])
        rho = pipe.apply(x, p, beta).physical
        assert rho.min() >= 1e-3
        assert rho.max() <= 1.0


def test_full_and_empty_designs_map_to_bounds(mesh_4x2):
    # A is row-stochastic and H_beta(1) = 1, so x = 1 -> rho = 1 at any stage
    pipe = tr.DensityPipeline(mesh_4x2, 1.5, x_min=1e-3)
    n = mesh_4x2.n_elements
    for p, beta in [(1.0, 0.0), (3.0, 4.0), (6.0, 20.0)]:
        top = pipe.apply(np.ones(n), p, beta).physical
        np.testing.assert_allclose(top, 1.0, atol=1e-12)
        bottom = pipe.apply(np.zeros(n), p, beta).physical
        assert np.all(bottom >= 1e-3) and np.all(bottom <= 1e-3 * (1 + 25.0))


def test_pipeline_monotone_in_design(mesh_6x3):
    pipe = tr.DensityPipeline(mesh_6x3, 2.0, x_min=1e-3)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 0.9, mesh_6x3.n_elements)
    higher = np.minimum(x + rng.uniform(0.0, 0.1, x.size), 1.0)
    for p, beta in [(1.0, 0.0), (3.0, 4.0), (6.0, 20.0)]:
        lo = pipe.apply(x, p, beta).physical
        hi = pipe.apply(higher, p, beta).physical
        assert np.all(hi >= lo - 1e-15)


@pytest.mark.parametrize("p,beta", [(1.0, 0.0), (2.5, 0.0), (3.0, 4.0), (6.0, 20.0)])
def test_backward_matches_finite_differences(mesh_6x3, p, beta):
    pipe = tr.DensityPipeline(mesh_6x3, 2.0, x_min=1e-3)
    rng = np.random.default_rng(7)
    n = mesh_6x3.n_elements
    x = rng.uniform(0.2, 0.8, n)
    g = rng.standard_normal(n)  # arbitrary downstream gradient

    field = pipe.apply(x, p, beta)
    grad = pipe.backward(field, g)

    h = 1e-7
    fd = np.zeros(n)
    for i in range(n):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd[i] = (g @ pipe.apply(xp, p, beta).physical
                 - g @ pipe.apply(xm, p, beta).physical) / (2 * h)
    scale = np.max(np.abs(grad))
    np.testing.assert_allclose(grad, fd, atol=1e-6 * scale)


def test_density_field_holds_physical_densities_and_the_chain_factor():
    assert tuple(f.name for f in dataclasses.fields(tr.DensityField)) == ("physical", "chain")


@pytest.mark.parametrize("cells", [(8, 5), (4, 3, 3)])
@pytest.mark.parametrize("p", [1.0, 3.0, 6.0])
@pytest.mark.parametrize("beta", [0.0, 4.0, 20.0])
def test_backward_equals_the_separately_formed_chain_bitwise(cells, p, beta):
    """The factor `apply` forms is the one formed afterwards from the
    intermediate densities, bit for bit, at exact 0 and 1 design entries too."""
    mesh = tr.cantilever_mesh(len(cells), cells)
    pipe = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    rng = np.random.default_rng(3)
    n = mesh.n_elements
    for _ in range(3):
        x = rng.uniform(0.0, 1.0, n)
        x[rng.choice(n, n // 4, replace=False)] = 0.0
        x[rng.choice(n, n // 4, replace=False)] = 1.0
        g = rng.standard_normal(n)
        got = pipe.backward(pipe.apply(x, p, beta), g)
        assert got.tobytes() == separate_backward(pipe, x, p, beta, g).tobytes()
