"""Compliance statistics and gradients against dense-algebra oracles.

The reference values here never come from the code under test: compliances
are recomputed through numpy.linalg.solve on the dense assembled matrix,
and gradients are checked against central finite differences of that dense
evaluation with respect to the element densities.
"""
import numpy as np
import pytest
from scipy.linalg import cho_solve_banded

import toporisk as tr

from oracles import dense_compliances, dense_stiffness, element_quadratics, random_scenarios


def dense_fd_gradient(mesh, Ke, rho, F, w, h=1e-6):
    """Central differences of w . C over rho, through the dense solve."""
    fd = np.zeros(rho.size)
    for e in range(rho.size):
        rp, rm = rho.copy(), rho.copy()
        rp[e] += h
        rm[e] -= h
        fd[e] = (w @ dense_compliances(mesh, Ke, rp, F)
                 - w @ dense_compliances(mesh, Ke, rm, F)) / (2 * h)
    return fd


def make_system(mesh, material, rho):
    Ke = tr.element_stiffness(mesh, material)
    return Ke, tr.StiffnessSystem.factorize(tr.assemble(mesh, Ke, rho))


def test_compliances_match_dense_inverse(mesh_6x3, material):
    rng = np.random.default_rng(2)
    rho = rng.uniform(0.3, 1.0, mesh_6x3.n_elements)
    F = random_scenarios(mesh_6x3, L=12, rank=5, seed=4)
    Ke, system = make_system(mesh_6x3, material, rho)

    expected = dense_compliances(mesh_6x3, Ke, rho, F)
    stats = tr.compliances_naive(system, F)
    np.testing.assert_allclose(stats.C, expected, rtol=1e-10)

    svd = tr.thin_svd(F)
    stats2 = tr.compliances_svd(system, F, svd)
    np.testing.assert_allclose(stats2.C, expected, rtol=1e-10)
    assert stats.mean == pytest.approx(np.mean(expected), rel=1e-12)
    assert stats2.mean == pytest.approx(np.mean(expected), rel=1e-10)


@pytest.mark.parametrize("cells,L", [((16, 6, 6), 1000), ((80, 20), 200)])
def test_routes_agree_at_benchmark_sizes(cells, L, material):
    """The benchmark workloads' meshes and scenario counts, 3D included."""
    mesh = tr.cantilever_mesh(len(cells), cells)
    F = tr.sample_cantilever_scenarios(mesh, L, seed=0)
    pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    x = np.random.default_rng(8).uniform(0.05, 1.0, mesh.n_elements)
    rho = pipeline.apply(x, 3.0, 4.0).physical
    _, system = make_system(mesh, material, rho)

    naive = tr.compliances_naive(system, F)
    fast = tr.compliances_svd(system, F, tr.thin_svd(F))
    np.testing.assert_allclose(fast.C, naive.C, rtol=1e-9)
    assert fast.mean == pytest.approx(naive.mean, rel=1e-9)
    assert fast.std == pytest.approx(naive.std, rel=1e-9)


def test_routes_agree_on_the_3d_benchmark_at_the_last_schedule_point(material):
    """mean-3d-svd's inputs (16x6x6, L = 1000, seed 0) at p = 6, beta = 20:
    the naive route's 1000 columns take the blocked sweep (u = 173, so
    2499 DOFs end in a 77-row block), and its compliances and std
    gradient match the SVD route's."""
    mesh = tr.cantilever_mesh(3, (16, 6, 6))
    F = tr.sample_cantilever_scenarios(mesh, 1000, seed=0)
    pipeline = tr.DensityPipeline(mesh, 1.5, x_min=1e-3)
    x = np.random.default_rng(0).uniform(0.0, 1.0, mesh.n_elements)
    rho = pipeline.apply(x, 6.0, 20.0).physical
    Ke, system = make_system(mesh, material, rho)
    assert divmod(mesh.n_dofs, system._factor.shape[0] - 1) == (14, 77)

    naive = tr.compliances_naive(system, F)
    fast = tr.compliances_svd(system, F, tr.thin_svd(F))
    assert np.max(np.abs(fast.C - naive.C)) <= 1e-9 * np.max(np.abs(naive.C))
    g_naive = tr.weighted_gradient(naive, tr.weight_vector(naive, "std"), Ke, mesh)
    g_fast = tr.weighted_gradient(fast, tr.weight_vector(fast, "std"), Ke, mesh)
    assert np.max(np.abs(g_fast - g_naive)) <= 1e-9 * np.max(np.abs(g_naive))


def test_naive_route_round_off_at_high_contrast(material):
    """SIMP at p = 6 with densities in [1e-3, 1] on 80x20 and 200 scenarios:
    the blocked sweep (inverted diagonal triangles) against LAPACK's
    dpbtrs on the same factor."""
    mesh = tr.cantilever_mesh(2, (80, 20))
    u = np.random.default_rng(11).uniform(0.0, 1.0, mesh.n_elements)
    rho = 1e-3 + (1.0 - 1e-3) * u**6
    _, system = make_system(mesh, material, rho)
    F = tr.sample_cantilever_scenarios(mesh, 200, seed=0)
    stats = tr.compliances_naive(system, F)
    Q = cho_solve_banded((system._factor, False), F.to_dense())
    C = np.einsum("ki,ki->i", F.block, Q[F.dofs])
    assert np.linalg.norm(stats.Q - Q) <= 1e-12 * np.linalg.norm(Q)
    assert np.max(np.abs(stats.C - C) / np.abs(C)) <= 1e-12


def test_stats_from_hand_worked_values():
    stats = tr.ComplianceStats.from_compliances(np.array([1.0, 2.0, 3.0]))
    assert stats.mean == 2.0
    assert stats.variance == 1.0  # ((1)^2 + 0 + 1^2) / (3 - 1)
    assert stats.std == 1.0

    single = tr.ComplianceStats.from_compliances(np.array([7.0]))
    assert single.variance == 0.0 and single.std == 0.0


def test_weight_vectors_hand_worked():
    stats = tr.ComplianceStats.from_compliances(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(tr.weight_vector(stats, "mean"), [1 / 3] * 3)
    np.testing.assert_allclose(tr.weight_vector(stats, "variance"), [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(tr.weight_vector(stats, "std"), [-0.5, 0.0, 0.5])
    np.testing.assert_allclose(tr.weight_vector(stats, "mean_plus_m_std", m=2.0),
                               [1 / 3 - 1.0, 1 / 3, 1 / 3 + 1.0])
    # m = 0 is the mean objective, bit for bit
    np.testing.assert_array_equal(tr.weight_vector(stats, "mean_plus_m_std", m=0.0),
                                  tr.weight_vector(stats, "mean"))


def test_weight_vector_validation():
    stats = tr.ComplianceStats.from_compliances(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        tr.weight_vector(stats, "mean_plus_m_std")
    with pytest.raises(ValueError):
        tr.weight_vector(stats, "no_such_kind")


def test_degenerate_dispersion_gives_zero_std_weights(mesh_4x2, material):
    # identical scenarios: sigma_C = 0, the std weights must be zero, not NaN
    f = np.zeros(mesh_4x2.n_dofs)
    f[mesh_4x2.free_surface_dofs()[0]] = 1.0
    F = tr.ScenarioMatrix(n_dofs=mesh_4x2.n_dofs,
                          dofs=np.nonzero(f)[0],
                          block=np.ones((1, 4)))
    _, system = make_system(mesh_4x2, material, np.ones(mesh_4x2.n_elements))
    stats = tr.compliances_naive(system, F)
    assert stats.std == 0.0
    w = tr.weight_vector(stats, "std")
    np.testing.assert_array_equal(w, np.zeros(4))
    w = tr.weight_vector(stats, "mean_plus_m_std", m=2.0)
    np.testing.assert_allclose(w, np.full(4, 0.25))
    np.testing.assert_array_equal(tr.weight_vector(stats, "mean_plus_m_std", m=0.0),
                                  tr.weight_vector(stats, "mean"))


def test_naive_and_svd_gradients_agree(mesh_6x3, material):
    rng = np.random.default_rng(6)
    rho = rng.uniform(0.3, 1.0, mesh_6x3.n_elements)
    F = random_scenarios(mesh_6x3, L=20, rank=6, seed=8)
    Ke, system = make_system(mesh_6x3, material, rho)
    svd = tr.thin_svd(F)

    naive = tr.compliances_naive(system, F)
    fast = tr.compliances_svd(system, F, svd)
    w = rng.standard_normal(20)
    g1 = tr.weighted_gradient_naive(naive, w, Ke, mesh_6x3)
    g2 = tr.weighted_gradient_svd(fast, w, Ke, mesh_6x3)
    scale = np.max(np.abs(g1))
    np.testing.assert_allclose(g2, g1, atol=1e-11 * scale)

    m1 = tr.weighted_gradient(naive, tr.weight_vector(naive, "mean"), Ke, mesh_6x3)
    m2 = tr.weighted_gradient(fast, tr.weight_vector(fast, "mean"), Ke, mesh_6x3)
    np.testing.assert_allclose(m2, m1, atol=1e-11 * np.max(np.abs(m1)))
    np.testing.assert_array_equal(tr.weighted_gradient(fast, w, Ke, mesh_6x3), g2)


def test_weighted_gradient_matches_dense_finite_differences(mesh_4x2, material):
    """d(w . C)/d(rho_e) against central differences of the dense solve."""
    rng = np.random.default_rng(10)
    n = mesh_4x2.n_elements
    rho = rng.uniform(0.4, 0.9, n)
    F = random_scenarios(mesh_4x2, L=6, rank=3, seed=12)
    w = rng.standard_normal(6)
    Ke, system = make_system(mesh_4x2, material, rho)
    stats = tr.compliances_naive(system, F)
    grad = tr.weighted_gradient_naive(stats, w, Ke, mesh_4x2)

    fd = dense_fd_gradient(mesh_4x2, Ke, rho, F, w)
    scale = np.max(np.abs(grad))
    np.testing.assert_allclose(grad, fd, atol=1e-5 * scale)


def _route_gradient(route, system, F, w, Ke, mesh):
    if route == "naive":
        stats = tr.compliances_naive(system, F)
    else:
        stats = tr.compliances_svd(system, F, tr.thin_svd(F))
    return tr.weighted_gradient(stats, w, Ke, mesh)


@pytest.mark.parametrize("route", ["naive", "svd"])
@pytest.mark.parametrize("cells", [(6, 3), (3, 2, 2)])
def test_gradient_kernel_matches_element_loop(cells, route, material):
    """Both routes against -sum_i w_i u_e^T Ke u_e with mixed-sign w."""
    mesh = tr.cantilever_mesh(len(cells), cells)
    rng = np.random.default_rng(16)
    rho = rng.uniform(0.3, 1.0, mesh.n_elements)
    F = random_scenarios(mesh, L=9, rank=4, seed=18)
    w = rng.standard_normal(9)
    Ke, system = make_system(mesh, material, rho)

    U = np.linalg.solve(dense_stiffness(mesh, Ke, rho), F.to_dense())
    expected = -element_quadratics(mesh, Ke, U, w)
    grad = _route_gradient(route, system, F, w, Ke, mesh)
    np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))


@pytest.mark.parametrize("route", ["naive", "svd"])
def test_weighted_gradient_matches_dense_finite_differences_3d(route, mesh_3d, material):
    """d(w . C)/d(rho_e) on a 3D mesh against central differences of the dense solve."""
    rng = np.random.default_rng(20)
    n = mesh_3d.n_elements
    rho = rng.uniform(0.4, 0.9, n)
    F = random_scenarios(mesh_3d, L=7, rank=3, seed=22)
    w = rng.standard_normal(7)
    Ke, system = make_system(mesh_3d, material, rho)
    grad = _route_gradient(route, system, F, w, Ke, mesh_3d)

    fd = dense_fd_gradient(mesh_3d, Ke, rho, F, w)
    np.testing.assert_allclose(grad, fd, atol=1e-5 * np.max(np.abs(grad)))


def test_solve_counts(mesh_6x3, material, solve_spy):
    """L solves naive, n_s solves SVD, and gradients add none."""
    rho = np.ones(mesh_6x3.n_elements)
    F = random_scenarios(mesh_6x3, L=25, rank=4, seed=3)
    Ke, system = make_system(mesh_6x3, material, rho)
    svd = tr.thin_svd(F)
    assert svd.n_s == 4

    for evaluate, expected in ((lambda: tr.compliances_naive(system, F), 25),
                               (lambda: tr.compliances_svd(system, F, svd), 4)):
        solve_spy.clear()
        stats = evaluate()
        assert sum(solve_spy) == expected
        assert stats.Q.shape[1] == expected
        tr.weighted_gradient(stats, np.ones(25), Ke, mesh_6x3)
        tr.weighted_gradient(stats, tr.weight_vector(stats, "mean"), Ke, mesh_6x3)
        assert sum(solve_spy) == expected


def test_svd_of_different_matrix_is_rejected(mesh_4x2, material):
    rho = np.ones(mesh_4x2.n_elements)
    F = random_scenarios(mesh_4x2, L=5, rank=2, seed=1)
    other = random_scenarios(mesh_4x2, L=6, rank=2, seed=2)
    _, system = make_system(mesh_4x2, material, rho)
    with pytest.raises(ValueError):
        tr.compliances_svd(system, F, tr.thin_svd(other))


def test_gradient_weight_shape_is_checked(mesh_4x2, material):
    rho = np.ones(mesh_4x2.n_elements)
    F = random_scenarios(mesh_4x2, L=5, rank=2, seed=1)
    Ke, system = make_system(mesh_4x2, material, rho)
    stats = tr.compliances_naive(system, F)
    with pytest.raises(ValueError):
        tr.weighted_gradient_naive(stats, np.ones(6), Ke, mesh_4x2)

