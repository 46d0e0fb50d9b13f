"""Element stiffness, band assembly and the banded Cholesky solver.

The element matrix oracle below re-derives Ke from scratch: shape function
gradients are formed per quadrature point from the tensor-product definition
and integrated with 3-point Gauss rules (one order higher than needed, so
exactness does not depend on matching the library's rule).
"""
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import toporisk as tr
from toporisk import fea
from toporisk.errors import NotPositiveDefiniteError

from oracles import band_to_dense, dense_stiffness

# local corner coordinates on [-1, 1]^dim, same order as element_node_ids
CORNERS_2D = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
CORNERS_3D = np.array([
    [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
    [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
], dtype=float)


def elastic_matrix_oracle(E, nu, dim):
    if dim == 2:  # plane stress
        return E / (1 - nu**2) * np.array([
            [1, nu, 0], [nu, 1, 0], [0, 0, (1 - nu) / 2],
        ])
    lam = E * nu / ((1 + nu) * (1 - 2 * nu))
    mu = E / (2 * (1 + nu))
    D = np.zeros((6, 6))
    D[:3, :3] = lam
    D[np.arange(3), np.arange(3)] += 2 * mu
    D[np.arange(3, 6), np.arange(3, 6)] = mu
    return D


def element_stiffness_oracle(E, nu, h, dim, thickness=1.0, n_gauss=3):
    """B^T D B integrated with an n_gauss tensor rule, assembled per point."""
    corners = CORNERS_2D if dim == 2 else CORNERS_3D
    n_corner = corners.shape[0]
    D = elastic_matrix_oracle(E, nu, dim)
    pts, wts = leggauss(n_gauss)
    Ke = np.zeros((n_corner * dim, n_corner * dim))
    grids = np.meshgrid(*([pts] * dim), indexing="ij")
    wgrids = np.meshgrid(*([wts] * dim), indexing="ij")
    for flat in range(n_gauss**dim):
        idx = np.unravel_index(flat, (n_gauss,) * dim)
        xi = np.array([g[idx] for g in grids])
        weight = np.prod([w[idx] for w in wgrids])
        # dN_a/dxi_j = (corner_aj / 2^dim) * prod_{k != j} (1 + corner_ak xi_k)
        dN = np.empty((n_corner, dim))
        for a in range(n_corner):
            for j in range(dim):
                val = corners[a, j] / 2**dim
                for k in range(dim):
                    if k != j:
                        val *= 1 + corners[a, k] * xi[k]
                dN[a, j] = val
        dNdx = dN * (2.0 / h)  # physical element is the cube of side h
        n_strain = 3 if dim == 2 else 6
        B = np.zeros((n_strain, n_corner * dim))
        for a in range(n_corner):
            if dim == 2:
                B[0, 2 * a] = dNdx[a, 0]
                B[1, 2 * a + 1] = dNdx[a, 1]
                B[2, 2 * a] = dNdx[a, 1]
                B[2, 2 * a + 1] = dNdx[a, 0]
            else:
                B[0, 3 * a] = dNdx[a, 0]
                B[1, 3 * a + 1] = dNdx[a, 1]
                B[2, 3 * a + 2] = dNdx[a, 2]
                B[3, 3 * a + 1] = dNdx[a, 2]   # yz
                B[3, 3 * a + 2] = dNdx[a, 1]
                B[4, 3 * a] = dNdx[a, 2]       # xz
                B[4, 3 * a + 2] = dNdx[a, 0]
                B[5, 3 * a] = dNdx[a, 1]       # xy
                B[5, 3 * a + 1] = dNdx[a, 0]
        detJ = (h / 2.0) ** dim
        Ke += weight * detJ * (B.T @ D @ B)
    return Ke * (thickness if dim == 2 else 1.0)


@pytest.mark.parametrize("h,thickness", [(1.0, 1.0), (0.5, 2.0)])
def test_element_stiffness_2d_matches_quadrature_oracle(h, thickness):
    mesh = tr.GroundMesh(dim=2, cells=(2, 2), element_size=h,
                         fixed_dofs=frozenset(), thickness=thickness)
    mat = tr.Material(210e3, 0.29)
    Ke = tr.element_stiffness(mesh, mat)
    oracle = element_stiffness_oracle(210e3, 0.29, h, 2, thickness)
    np.testing.assert_allclose(Ke, oracle, rtol=1e-12, atol=1e-9)


def test_element_stiffness_3d_matches_quadrature_oracle():
    mesh = tr.GroundMesh(dim=3, cells=(2, 2, 2), element_size=0.75, fixed_dofs=frozenset())
    mat = tr.Material(1.0, 0.3)
    Ke = tr.element_stiffness(mesh, mat)
    oracle = element_stiffness_oracle(1.0, 0.3, 0.75, 3)
    np.testing.assert_allclose(Ke, oracle, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("dim,n_rigid", [(2, 3), (3, 6)])
def test_element_stiffness_rigid_body_modes(dim, n_rigid):
    cells = (2, 2) if dim == 2 else (2, 2, 2)
    mesh = tr.GroundMesh(dim=dim, cells=cells, element_size=1.0, fixed_dofs=frozenset())
    Ke = tr.element_stiffness(mesh, tr.Material(1.0, 0.3))
    np.testing.assert_allclose(Ke, Ke.T, atol=1e-14)
    eig = np.linalg.eigvalsh(Ke)
    assert np.all(eig > -1e-12)
    assert np.sum(np.abs(eig) < 1e-10) == n_rigid


def test_assembly_matches_dense_loop(mesh_4x2, material):
    Ke = tr.element_stiffness(mesh_4x2, material)
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.2, 1.0, mesh_4x2.n_elements)
    K = band_to_dense(tr.assemble(mesh_4x2, Ke, rho))
    np.testing.assert_allclose(K, dense_stiffness(mesh_4x2, Ke, rho),
                               rtol=1e-14, atol=1e-14)


def test_assembly_matches_dense_loop_3d(mesh_3d, material):
    Ke = tr.element_stiffness(mesh_3d, material)
    rng = np.random.default_rng(4)
    rho = rng.uniform(0.2, 1.0, mesh_3d.n_elements)
    K = band_to_dense(tr.assemble(mesh_3d, Ke, rho))
    np.testing.assert_allclose(K, dense_stiffness(mesh_3d, Ke, rho),
                               rtol=1e-14, atol=1e-14)


def test_dirichlet_rows_are_identity(mesh_4x2, material):
    Ke = tr.element_stiffness(mesh_4x2, material)
    K = band_to_dense(tr.assemble(mesh_4x2, Ke, np.ones(mesh_4x2.n_elements)))
    for d in mesh_4x2.fixed_dofs:
        row = np.zeros(mesh_4x2.n_dofs)
        row[d] = 1.0
        np.testing.assert_array_equal(K[d], row)
        np.testing.assert_array_equal(K[:, d], row)


def test_linear_patch_has_zero_interior_residual(material):
    """A linear displacement field is in equilibrium away from the boundary."""
    mesh = tr.GroundMesh(dim=2, cells=(4, 4), element_size=1.0, fixed_dofs=frozenset())
    Ke = tr.element_stiffness(mesh, material)
    K = band_to_dense(tr.assemble(mesh, Ke, np.ones(mesh.n_elements)))
    nx, ny = mesh.nodes_per_axis
    u = np.zeros(mesh.n_dofs)
    for ix in range(nx):
        for iy in range(ny):
            n = mesh.node_id(ix, iy)
            u[2 * n] = 0.3 * ix - 0.1 * iy
            u[2 * n + 1] = 0.2 * ix + 0.4 * iy
    r = K @ u
    for ix in range(1, nx - 1):
        for iy in range(1, ny - 1):
            n = mesh.node_id(ix, iy)
            assert abs(r[2 * n]) < 1e-12 and abs(r[2 * n + 1]) < 1e-12


def test_solve_residual_and_counter(mesh_6x3, material, solve_spy):
    Ke = tr.element_stiffness(mesh_6x3, material)
    rho = np.ones(mesh_6x3.n_elements)
    system = tr.StiffnessSystem.factorize(tr.assemble(mesh_6x3, Ke, rho))
    rng = np.random.default_rng(0)
    f = np.zeros(mesh_6x3.n_dofs)
    free = mesh_6x3.free_surface_dofs()
    f[free] = rng.standard_normal(free.size)
    every = np.arange(mesh_6x3.n_dofs)
    u = system.solve(f[:, None], rows=every)[:, 0]
    assert sum(solve_spy) == 1
    resid = dense_stiffness(mesh_6x3, Ke, rho) @ u - f
    assert np.max(np.abs(resid)) < 1e-10 * np.max(np.abs(f))
    # fixed DOFs carry the identity rows, so u there equals f there (zero)
    assert all(u[d] == 0.0 for d in mesh_6x3.fixed_dofs)

    U = system.solve(np.column_stack([f, 2 * f, 3 * f]), rows=every)
    assert sum(solve_spy) == 4
    np.testing.assert_allclose(U[:, 2], 3 * u, rtol=1e-12, atol=1e-14)


def test_floating_structure_is_not_positive_definite(material):
    # no Dirichlet constraints: K is singular and the SPD check must fire
    mesh = tr.GroundMesh(dim=2, cells=(3, 2), element_size=1.0, fixed_dofs=frozenset())
    Ke = tr.element_stiffness(mesh, material)
    K = tr.assemble(mesh, Ke, np.ones(mesh.n_elements))
    with pytest.raises(NotPositiveDefiniteError):
        tr.StiffnessSystem.factorize(K)


@pytest.mark.parametrize("dim,cells", [(2, (3, 2)), (2, (4, 4)), (2, (10, 3)), (3, (3, 2, 2))])
def test_floating_structures_are_rejected(dim, cells, material):
    """No fixed DOFs: singular K, rejected in 2D by the pivot floor (LAPACK
    accepts the round-off pivots) and in 3D by LAPACK itself."""
    mesh = tr.GroundMesh(dim=dim, cells=cells, element_size=1.0, fixed_dofs=frozenset())
    K = tr.assemble(mesh, tr.element_stiffness(mesh, material), np.ones(mesh.n_elements))
    with pytest.raises(NotPositiveDefiniteError):
        tr.StiffnessSystem.factorize(K)


@pytest.mark.parametrize("cells,width", [((80, 20), 45), ((20, 10), 25), ((16, 6, 6), 173)])
def test_band_width_follows_the_lexicographic_numbering(cells, width, material):
    mesh = tr.cantilever_mesh(len(cells), cells)
    ab = tr.assemble(mesh, tr.element_stiffness(mesh, material), np.ones(mesh.n_elements))
    assert ab.shape == (width + 1, mesh.n_dofs)
    # read off one element, it is the widest DOF span of all elements
    edof = mesh.element_dof_map()
    assert fea.half_bandwidth(mesh) == np.max(edof.max(axis=1) - edof.min(axis=1)) == width


def test_analysis_bytes_of_a_mesh_larger_than_this_machine():
    # nothing of this size is assembled: one band alone is 5.7 GB
    mesh = tr.cantilever_mesh(3, (64, 32, 32))
    band, peak = fea.analysis_bytes(mesh, 10)
    assert fea.half_bandwidth(mesh) == 3371 and mesh.n_dofs == 212355
    assert band == 8 * 3372 * 212355 and round(band / 1e9, 2) == 5.73
    # one band (factored in place), the scatter index and weights of 300
    # pairs per element, two blocks of 10 solved columns
    assert peak == band + 8 * (3 * 65536 * 300 + 2 * 212355 * 10)


def test_solve_matches_dense_solve_on_3d(mesh_3d, material):
    Ke = tr.element_stiffness(mesh_3d, material)
    rho = np.random.default_rng(5).uniform(1e-3, 1.0, mesh_3d.n_elements)
    system = tr.StiffnessSystem.factorize(tr.assemble(mesh_3d, Ke, rho))
    F = np.random.default_rng(6).standard_normal((mesh_3d.n_dofs, 4))
    expected = np.linalg.solve(dense_stiffness(mesh_3d, Ke, rho), F)
    np.testing.assert_allclose(system.solve(F, rows=np.arange(mesh_3d.n_dofs)), expected,
                               rtol=1e-9, atol=1e-9 * np.max(np.abs(expected)))


def wide_columns(system):
    """The fewest columns that send a block to the blocked sweep."""
    return tr.fea._blocked_sweep_min_columns(system._factor.shape[0] - 1)


@pytest.mark.parametrize("cells,n_dofs,width", [
    ((6, 1), 28, 7),         # 4 whole blocks
    ((2, 2), 18, 9),         # 2 whole blocks
    ((1, 1), 8, 7),          # a block and a 1-row last block
    ((6, 3), 56, 11),        # 5 blocks and a 1-row last block
    ((12, 6), 182, 17),      # 10 blocks and a 12-row last block
    ((7, 3, 4), 480, 80),    # 6 whole blocks
    ((2, 1, 1), 36, 23),     # a block and a 13-row last block
    ((3, 2, 2), 108, 41),    # 2 blocks and a 26-row last block
])
def test_wide_solve_matches_dense_solve(cells, n_dofs, width, material):
    """Blocks wide enough for the blocked sweep, against a dense solve, on
    meshes whose DOF count is and is not a multiple of the half-bandwidth."""
    mesh = tr.cantilever_mesh(len(cells), cells)
    Ke = tr.element_stiffness(mesh, material)
    rho = np.random.default_rng(5).uniform(1e-3, 1.0, mesh.n_elements)
    ab = tr.assemble(mesh, Ke, rho)
    assert ab.shape == (width + 1, n_dofs)
    system = tr.StiffnessSystem.factorize(ab)
    F = np.random.default_rng(6).standard_normal((n_dofs, wide_columns(system)))
    F[sorted(mesh.fixed_dofs)] = 0.0
    before = F.copy()
    every = np.arange(n_dofs)
    U = system.solve(F, rows=every)
    assert np.array_equal(F, before)  # the right-hand side is not touched
    assert U.shape == (n_dofs, F.shape[1])
    expected = np.linalg.solve(dense_stiffness(mesh, Ke, rho), F)
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(U, expected, rtol=0, atol=1e-12 * scale)
    with pytest.raises(ValueError):  # one shape: a vector is not a block
        system.solve(F[:, 0], rows=every)


@pytest.mark.parametrize("cells", [(6, 1), (2, 2), (1, 1), (6, 3), (12, 6),
                                   (7, 3, 4), (2, 1, 1), (3, 2, 2)])
def test_scattered_solve_matches_dense_solve(cells, material):
    """`solve(block, rows=dofs)` on the meshes of the wide-solve test: the
    rows are scattered into the blocked sweep's work block (or LAPACK's
    column block), as the naive route passes a scenario matrix."""
    mesh = tr.cantilever_mesh(len(cells), cells)
    Ke = tr.element_stiffness(mesh, material)
    rho = np.random.default_rng(5).uniform(1e-3, 1.0, mesh.n_elements)
    system = tr.StiffnessSystem.factorize(tr.assemble(mesh, Ke, rho))
    free = np.setdiff1d(np.arange(mesh.n_dofs), sorted(mesh.fixed_dofs))
    rows = free[::2]  # every other free DOF carries load
    block = np.random.default_rng(6).standard_normal((rows.size, wide_columns(system)))
    F = tr.ScenarioMatrix(n_dofs=mesh.n_dofs, dofs=rows, block=block)
    expected = np.linalg.solve(dense_stiffness(mesh, Ke, rho), F.to_dense())
    scale = np.max(np.abs(expected))
    before = F.block.copy()
    for k in (F.n_scenarios, 1):  # the blocked sweep and LAPACK's
        U = system.solve(F.block[:, :k], rows=F.dofs)
        assert np.array_equal(F.block, before) and U.shape == (mesh.n_dofs, k)
        np.testing.assert_allclose(U, expected[:, :k], rtol=0, atol=1e-12 * scale)
    with pytest.raises(ValueError):  # rows and rhs disagree: never broadcast
        system.solve(F.block[:1], rows=F.dofs)


def test_wide_solve_of_a_band_wider_than_the_matrix():
    """n <= u: the blocked sweep is one short block."""
    rng = np.random.default_rng(8)
    n, u = 30, 40
    M = rng.standard_normal((n, n))
    K = M @ M.T + n * np.eye(n)
    ab = np.zeros((u + 1, n))
    for j in range(n):
        for i in range(j + 1):
            ab[u + i - j, j] = K[i, j]
    system = tr.StiffnessSystem.factorize(ab)
    F = rng.standard_normal((n, wide_columns(system)))
    expected = np.linalg.solve(K, F)
    every = np.arange(n)
    np.testing.assert_allclose(system.solve(F, rows=every), expected, rtol=0,
                               atol=1e-12 * np.max(np.abs(expected)))
    for rows in (1, n - 1):  # rejected by both sweeps, never broadcast
        with pytest.raises(ValueError):
            system.solve(F[:rows], rows=every)
        with pytest.raises(ValueError):
            system.solve(F[:rows, :1], rows=every)


@pytest.mark.parametrize("cells", [(20, 10), (4, 2, 2)])
def test_solves_on_either_side_of_the_sweep_switch_agree(cells, material):
    mesh = tr.cantilever_mesh(len(cells), cells)
    Ke = tr.element_stiffness(mesh, material)
    rho = np.random.default_rng(3).uniform(1e-3, 1.0, mesh.n_elements)
    system = tr.StiffnessSystem.factorize(tr.assemble(mesh, Ke, rho))
    k = wide_columns(system)
    F = np.random.default_rng(4).standard_normal((mesh.n_dofs, k))
    F[sorted(mesh.fixed_dofs)] = 0.0
    every = np.arange(mesh.n_dofs)
    wide = system.solve(F, rows=every)
    narrow = system.solve(F[:, :k - 1], rows=every)
    np.testing.assert_allclose(wide[:, :k - 1], narrow, rtol=0,
                               atol=1e-12 * np.max(np.abs(narrow)))


@pytest.mark.parametrize("dim,cells", [(2, (6, 3)), (3, (3, 2, 2))])
def test_form_gradient_is_the_derivative_of_the_assembled_form(dim, cells, material):
    """d/d rho_e of sum_k a_k^T K b_k: K is linear in rho, so the derivative
    is the form of the dense unit-density matrix of element e, without the
    identity rows of the fixed DOFs. A and B are nonzero on fixed DOFs too."""
    mesh = tr.cantilever_mesh(dim, cells)
    Ke = tr.element_stiffness(mesh, material)
    rng = np.random.default_rng(7)
    B = rng.standard_normal((mesh.n_dofs, 5))
    S = rng.standard_normal((5, 5))
    A = B @ (S + S.T)  # A B^T is symmetric
    identity = np.zeros((mesh.n_dofs, mesh.n_dofs))
    fixed = sorted(mesh.fixed_dofs)
    identity[fixed, fixed] = 1.0
    expected = np.empty(mesh.n_elements)
    for e in range(mesh.n_elements):
        dK = dense_stiffness(mesh, Ke, np.eye(mesh.n_elements)[e]) - identity
        expected[e] = np.einsum("ik,ij,jk->", A, dK, B)
    np.testing.assert_allclose(tr.fea.form_gradient(mesh, Ke, A, B), expected,
                               rtol=0, atol=1e-12 * np.max(np.abs(expected)))


@pytest.mark.parametrize("dim,cells,k", [(2, (20, 10), 200), (3, (4, 2, 2), 10)])
def test_form_gradient_reads_either_memory_order(dim, cells, k, material):
    """Row-major blocks, as the blocked sweep returns them, are read in
    place; column-major ones, as LAPACK returns them, row by row of their
    transposes. Both give the same gradient."""
    mesh = tr.cantilever_mesh(dim, cells)
    Ke = tr.element_stiffness(mesh, material)
    rng = np.random.default_rng(9)
    B = rng.standard_normal((mesh.n_dofs, k))
    A = B * rng.uniform(-1.0, 1.0, k)
    row_major = tr.fea.form_gradient(mesh, Ke, A, B)
    column_major = tr.fea.form_gradient(mesh, Ke, np.asfortranarray(A), np.asfortranarray(B))
    np.testing.assert_allclose(row_major, column_major, rtol=0,
                               atol=1e-13 * np.max(np.abs(column_major)))
