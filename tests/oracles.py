"""Dense linear-algebra oracles and a known-rank scenario set, shared by the tests.

  * dense_stiffness     -- assembly by explicit Python loops, no vectorization
  * dense_compliances   -- per-scenario compliances through numpy.linalg.solve
  * band_to_dense       -- the full symmetric matrix of an upper band, by loops
  * kdtree_filter       -- the cone filter from a KD-tree search over centroids
  * element_quadratics  -- g_e = sum_i w_i u_e,i^T Ke u_e,i, element by element
  * untiled_form_gradient -- `fea.form_gradient` in one pass over a whole weighted copy
  * separate_backward   -- the pipeline's pull-back with its chain factor formed apart
  * random_scenarios    -- a scenario matrix of known rank on the free surface
  * mma_dual_slope      -- an MMA subproblem's primal point x(eta) and dual slope g(eta)
  * mma_dual_bisection  -- the subproblem's dual root by doubling and bisection
All but `random_scenarios`, `untiled_form_gradient` and `separate_backward`
are deliberately written along a different code path than the library so
agreement is evidence, not tautology. `untiled_form_gradient` and
`separate_backward` are the other way round: the kernel's arithmetic
without its tiles, and the pull-back's chain factor formed from the
intermediate densities after the forward pass, which the library must
match bit for bit. Test
modules import them as `from oracles import ...`.
"""
import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

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


def kdtree_filter(mesh, radius):
    """Row-stochastic cone (linearly decaying) density filter.

    Entry (e, i) is proportional to max(0, radius - dist(centroid_e,
    centroid_i)) and each row is normalized to sum to one. A radius at or
    below the element size yields the identity.
    """
    if not radius > 0:
        raise ValueError(f"filter radius must be > 0, got {radius}")
    centroids = mesh.element_centroids()
    n = mesh.n_elements
    tree = cKDTree(centroids)
    neighbor_lists = tree.query_ball_point(centroids, r=radius)
    counts = np.array([len(lst) for lst in neighbor_lists], dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate([np.asarray(lst, dtype=np.int64) for lst in neighbor_lists])
    owners = np.repeat(np.arange(n), counts)
    dist = np.linalg.norm(centroids[owners] - centroids[indices], axis=1)
    weights = radius - dist
    A = sp.csr_matrix((weights, indices, indptr), shape=(n, n))
    A.eliminate_zeros()
    row_sums = np.asarray(A.sum(axis=1)).ravel()
    return sp.diags(1.0 / row_sums) @ A


def element_quadratics(mesh, Ke, U, w):
    """g_e = sum_i w_i U[d_e, i]^T Ke U[d_e, i] over the DOFs d_e of element e, by loops."""
    edof = mesh.element_dof_map()
    g = np.zeros(mesh.n_elements)
    for e in range(mesh.n_elements):
        for i in range(U.shape[1]):
            u = U[edof[e], i]
            g[e] += w[i] * (u @ Ke @ u)
    return g


def untiled_form_gradient(mesh, Ke, Q, W):
    """The form gradient of A = Q diag(W) (vector W) or Q W (matrix W) against Q,
    from a whole n_dofs x k copy A and one row-wise dot per DOF offset.

    A row-major pair is read in place; any other layout is copied to
    (k, n_dofs) rows first."""
    layout = tr.fea._band_layout(mesh)
    n = mesh.n_dofs
    A = Q * W[None, :] if W.ndim == 1 else Q @ W
    At, Bt = A.T, Q.T
    if not (A.flags.c_contiguous and Q.flags.c_contiguous):
        At, Bt = np.ascontiguousarray(At), np.ascontiguousarray(Bt)
    diagonals = np.zeros(layout.offsets.size * n + 1)
    rows = diagonals[:-1].reshape(layout.offsets.size, n)
    for row, d in zip(rows, layout.offsets):
        np.einsum("ki,ki->i", At[:, :n - d], Bt[:, d:], out=row[d:])
    coef = np.where(layout.rows == layout.cols, 1.0, 2.0) * Ke[layout.rows, layout.cols]
    return diagonals[layout.pairs] @ coef


def separate_backward(pipeline, design, penalty, beta, g):
    """A^T (chain * g), the chain factor formed from A x, the interpolated
    densities, p, beta and x_min in the order of the factor's three stages."""
    A, x_min = pipeline.filter_matrix, pipeline.x_min
    filtered = A @ design
    interpolated = (1.0 - x_min) * filtered**penalty + x_min
    chain = tr.pipeline.heaviside_derivative(interpolated, beta)
    chain = chain * (1.0 - x_min) * penalty
    chain = chain * filtered ** (penalty - 1.0)
    return A.T @ (chain * g)


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


def mma_dual_slope(eta, p0, q0, p1, q1, b1, low, upp, alpha, beta):
    """x(eta) = clip((low sqrt(p) + upp sqrt(q)) / (sqrt(p) + sqrt(q))) with
    p = p0 + eta p1 and q = q0 + eta q1, and the falling dual slope
    g(eta) = sum p1/(upp-x) + q1/(x-low) - b1 of a one-constraint MMA subproblem."""
    sp, sq = np.sqrt(p0 + eta * p1), np.sqrt(q0 + eta * q1)
    x = np.clip((low * sp + upp * sq) / (sp + sq), alpha, beta)
    return x, float(np.sum(p1 / (upp - x) + q1 / (x - low)) - b1)


def mma_dual_bisection(p0, q0, p1, q1, b1, low, upp, alpha, beta):
    """(x, eta) of a one-constraint MMA subproblem, eta the root of g by bisection.

    eta = 0 if g(0) <= 0; else the bracket doubles from 1 to at most 2^61,
    where g > 0 means the constraint is unreachable and that point is
    returned; then 100 halvings, and the feasible end of the bracket.
    """
    def x_and_g(eta):
        return mma_dual_slope(eta, p0, q0, p1, q1, b1, low, upp, alpha, beta)

    x, g = x_and_g(0.0)
    if g <= 0.0:
        return x, 0.0
    lo, hi = 0.0, 1.0
    while x_and_g(hi)[1] > 0.0:
        if hi == 2.0**61:
            return x_and_g(hi)[0], hi
        lo, hi = hi, 2.0 * hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if x_and_g(mid)[1] > 0.0:
            lo = mid
        else:
            hi = mid
    return x_and_g(hi)[0], hi
