"""Dense linear-algebra oracles and a known-rank scenario set, shared by the tests.

  * dense_stiffness     -- assembly by explicit Python loops, no vectorization
  * dense_compliances   -- per-scenario compliances through numpy.linalg.solve
  * band_to_dense       -- the full symmetric matrix of an upper band, by loops
  * kdtree_filter       -- the cone filter from a KD-tree search over centroids
  * product_filter      -- the cone filter normalized by a diagonal-times-sparse product
  * csr_arrays          -- a CSR matrix's (rows, cols, weights) in storage order
  * filter_matrix       -- the CSR matrix of a filter's (rows, cols, weights)
  * element_quadratics  -- g_e = sum_i w_i u_e,i^T Ke u_e,i, element by element
  * untiled_form_gradient -- `fea.form_gradient` in one pass over a whole weighted copy
  * stacked_blocked_solve -- the blocked sweep on copied inverses and a stack of couplings
  * separate_backward   -- the pipeline's pull-back with its chain factor formed apart
  * element_centroids   -- (n_elements, dim) element centroids of a mesh
  * scenario_column     -- one scenario of a ScenarioMatrix as a full n_dofs vector
  * dense_scenarios     -- a ScenarioMatrix as its full (n_dofs, L) matrix
  * random_scenarios    -- a scenario matrix of known rank on the free surface
  * dict_sampled_scenarios -- the cantilever sampler, its point loads placed by a dict
  * mma_dual_slope      -- an MMA subproblem's primal point x(eta) and dual slope g(eta)
  * mma_dual_bisection  -- the subproblem's dual root by doubling and bisection
The five converters (`csr_arrays`, `filter_matrix`, `element_centroids`,
`scenario_column`, `dense_scenarios`) only reshape data; the library has no
such forms. Of the rest, all but `random_scenarios`, `untiled_form_gradient`,
`stacked_blocked_solve`, `separate_backward` and `product_filter` are
deliberately written along a different code path than the library so
agreement is evidence, not tautology. The other four are the other way
round: the kernel's arithmetic without its tiles, the sweep's arithmetic
on operators built whole (each inverse from f2py's own copy of its
triangle, every coupling in one `np.tril` stack), the pull-back's chain
factor formed from the intermediate densities after the forward pass
through scipy's CSR products, and the filter normalized as
sp.diags(1/s) @ A (the stored arrays `build_filter` keeps while it scales
in place), which the library must match bit for bit. Test modules import
them as `from oracles import ...`.
"""
import math

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import blas, lapack
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
    centroids = element_centroids(mesh)
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


def product_filter(mesh, radius):
    """The cone filter of `pipeline.filter_stencil`'s boxes, assembled in
    ascending column order and normalized by the product sp.diags(1/s) @ A,
    which stores each row in descending column order."""
    cells, n = mesh.cells, mesh.n_elements
    ids = np.arange(n).reshape(cells)
    exponent = math.frexp(radius)[1]
    rows, cols, weights = [], [], []
    for offsets, w in tr.pipeline.filter_stencil(mesh, radius):
        for *d, wd in zip(*(k.tolist() for k in offsets), np.ldexp(w, -exponent)):
            own = ids[tuple(slice(max(0, -k), c - max(0, k)) for k, c in zip(d, cells))].ravel()
            rows.append(own)
            cols.append(own + np.dot(ids.strides, d) // ids.itemsize)
            weights.append(np.full(own.size, wd))
    A = sp.csr_matrix((np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    return sp.diags(1.0 / np.asarray(A.sum(axis=1)).ravel()) @ A


def csr_arrays(A):
    """(rows, cols, weights) of CSR matrix A's entries, in its storage order."""
    return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)), A.indices, A.data


def filter_matrix(filt, n):
    """The n x n CSR matrix that stores a filter's (rows, cols, weights) as they lie."""
    rows, cols, weights = filt
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sp.csr_matrix((weights, cols, indptr), shape=(n, n))


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


def stacked_blocked_solve(factor, block, rows):
    """R^T R X = F in sweeps of u rows, as `StiffnessSystem._blocked_solve`,
    on operators built whole before the sweep: the diagonal triangles
    copied in the band view's column-major layout, each inverted by dtrtri
    on f2py's copy of its transpose, and the couplings copied at once into
    one `np.tril` stack."""
    u, n = factor.shape[0] - 1, factor.shape[1]
    band = factor.ravel(order="F")
    item = band.itemsize

    def blocks(i, j, count, shape=(u, u)):
        return as_strided(band[u + i + u * j:], (count, *shape),
                          (item * u * (u + 1), item, item * u), writeable=False)

    n_full, tail = divmod(n, u)
    diagonal = list(np.array(blocks(0, 0, n_full)))
    coupling = list(np.tril(blocks(0, u, max(n_full - 1, 0))))
    if tail:
        i0 = n_full * u
        diagonal.append(np.array(blocks(i0, i0, 1, (tail, tail))[0]))
        if n_full:
            coupling.append(np.tril(blocks(i0 - u, i0, 1, (u, tail))[0]))
    inverse = [lapack.dtrtri(T.T, lower=1, overwrite_c=1)[0] for T in diagonal]
    Z = np.zeros((n, block.shape[1]))
    Z[rows] = block
    W = [Z[i:i + u].T for i in range(0, n, u)]
    for b in range(len(W)):
        if b:
            blas.dgemm(-1.0, W[b - 1], coupling[b - 1].T, beta=1.0, c=W[b],
                       trans_b=1, overwrite_c=1)
        blas.dtrmm(1.0, inverse[b], W[b], side=1, lower=1, trans_a=1, overwrite_b=1)
    for b in reversed(range(len(W))):
        if b + 1 < len(W):
            blas.dgemm(-1.0, W[b + 1], coupling[b].T, beta=1.0, c=W[b], overwrite_c=1)
        blas.dtrmm(1.0, inverse[b], W[b], side=1, lower=1, overwrite_b=1)
    return Z


def separate_backward(pipeline, design, penalty, beta, g):
    """A^T (chain * g), the chain factor formed from A x, the interpolated
    densities, p, beta and x_min in the order of the factor's three stages,
    and both products taken by scipy on the pipeline's filter arrays."""
    A, x_min = filter_matrix(pipeline.filter, pipeline.mesh.n_elements), pipeline.x_min
    filtered = A @ design
    interpolated = (1.0 - x_min) * filtered**penalty + x_min
    chain = tr.pipeline.heaviside_derivative(interpolated, beta)
    chain = chain * (1.0 - x_min) * penalty
    chain = chain * filtered ** (penalty - 1.0)
    return A.T @ (chain * g)


def dense_compliances(mesh, Ke, densities, F):
    """C_i = f_i^T K^-1 f_i via a dense solve; ground truth for small cases."""
    K = dense_stiffness(mesh, Ke, densities)
    Fd = dense_scenarios(F)
    U = np.linalg.solve(K, Fd)
    return np.einsum("ki,ki->i", Fd, U)


def element_centroids(mesh):
    """(n_elements, dim) centroid coordinates in mm."""
    return (np.indices(mesh.cells).reshape(mesh.dim, -1).T + 0.5) * mesh.element_size


def scenario_column(F, i):
    """Scenario i of F as a full n_dofs vector."""
    f = np.zeros(F.n_dofs)
    f[F.dofs] = F.loaded_block()[:, i]
    return f


def dense_scenarios(F):
    """F's full (n_dofs, L) matrix, zero off the loaded rows."""
    dense = np.zeros((F.n_dofs, F.n_scenarios))
    dense[F.dofs, :] = F.loaded_block()
    return dense


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


def dict_sampled_scenarios(mesh, L, seed):
    """`sample_cantilever_scenarios`' draws, with every point-load row found
    through a dict over all free surface DOFs: unit point loads and rattles
    / 7 as the basis, the multipliers s_1..s_10 as the coefficients."""
    rng = np.random.default_rng(seed)
    surface = mesh.free_surface_dofs()
    rattles = rng.standard_normal((7, surface.size))
    s_point = rng.uniform(-2.0, 2.0, size=(3, L))
    s_basis = rng.standard_normal((7, L))
    lookup = {int(d): k for k, d in enumerate(surface)}
    basis = np.zeros((surface.size, 10))
    for k, (dof_ids, direction) in enumerate(tr.scenarios._benchmark_point_loads(mesh)):
        basis[[lookup[int(d)] for d in dof_ids], k] = direction
    basis[:, 3:] = rattles.T / 7.0
    return tr.ScenarioMatrix(n_dofs=mesh.n_dofs, dofs=surface, basis=basis,
                             coefficients=np.vstack([s_point, s_basis]))


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
