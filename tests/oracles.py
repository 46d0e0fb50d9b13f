"""Dense linear-algebra oracles and a known-rank scenario set, shared by the tests.

  * dense_stiffness     -- assembly by explicit Python loops, no vectorization
  * dense_compliances   -- per-scenario compliances through numpy.linalg.solve
  * band_to_dense       -- the full symmetric matrix of an upper band, by loops
  * element_quadratics  -- g_e = sum_i w_i u_e,i^T Ke u_e,i, element by element
  * random_scenarios    -- a scenario matrix of known rank on the free surface
The first four are deliberately written along a different code path than
the library so agreement is evidence, not tautology. Test modules import
them as `from oracles import ...`.
"""
import numpy as np

import toporisk as tr


def dense_stiffness(mesh, Ke, densities):
    """Assembled global matrix with symmetric Dirichlet elimination, by loops."""
    n = mesh.n_dofs
    K = np.zeros((n, n))
    edof = mesh.element_dof_map()
    for e in range(mesh.n_elements):
        dofs = edof[e]
        for a in range(len(dofs)):
            for b in range(len(dofs)):
                K[dofs[a], dofs[b]] += densities[e] * Ke[a, b]
    for d in sorted(mesh.fixed_dofs):
        K[d, :] = 0.0
        K[:, d] = 0.0
        K[d, d] = 1.0
    return K


def band_to_dense(ab):
    """Full symmetric matrix of LAPACK upper band storage ab[u + i - j, j] = K[i, j]."""
    u, n = ab.shape[0] - 1, ab.shape[1]
    K = np.zeros((n, n))
    for j in range(n):
        for i in range(max(0, j - u), j + 1):
            K[i, j] = K[j, i] = ab[u + i - j, j]
    return K


def element_quadratics(mesh, Ke, U, w):
    """g_e = sum_i w_i U[d_e, i]^T Ke U[d_e, i] over the DOFs d_e of element e, by loops."""
    edof = mesh.element_dof_map()
    g = np.zeros(mesh.n_elements)
    for e in range(mesh.n_elements):
        for i in range(U.shape[1]):
            u = U[edof[e], i]
            g[e] += w[i] * (u @ Ke @ u)
    return g


def dense_compliances(mesh, Ke, densities, F):
    """C_i = f_i^T K^-1 f_i via a dense solve; ground truth for small cases."""
    K = dense_stiffness(mesh, Ke, densities)
    Fd = F.to_dense()
    U = np.linalg.solve(K, Fd)
    return np.einsum("ki,ki->i", Fd, U)


def random_scenarios(mesh, L, rank, seed):
    """Scenario matrix of known rank supported on the free surface DOFs."""
    rng = np.random.default_rng(seed)
    dofs = mesh.free_surface_dofs()
    basis = rng.standard_normal((dofs.size, rank))
    weights = rng.standard_normal((rank, L))
    # boost the leading block so the realized rank is exactly min(rank, L)
    k = min(rank, L)
    weights[:k, :k] += 10.0 * np.eye(k)
    return tr.ScenarioMatrix(n_dofs=mesh.n_dofs, dofs=dofs, block=basis @ weights)
