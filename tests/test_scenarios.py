"""Scenario sampling, thin SVD and the CSV interchange format."""
import numpy as np
import pytest

import toporisk as tr
from toporisk.errors import ScenarioFormatError, TopoRiskError

from oracles import dense_scenarios, dict_sampled_scenarios, random_scenarios, scenario_column


def basis_load(F, k):
    """Basis load k of a sampled F (the scenario its k-th multiplier alone
    weights by 1) as a full n_dofs vector."""
    f = np.zeros(F.n_dofs)
    f[F.dofs] = F.basis[:, k]
    return f


def test_scenario_matrix_validation():
    with pytest.raises(ValueError):
        tr.ScenarioMatrix(n_dofs=10, dofs=np.array([3, 3]), block=np.ones((2, 1)))
    with pytest.raises(ValueError):
        tr.ScenarioMatrix(n_dofs=10, dofs=np.array([5, 2]), block=np.ones((2, 1)))
    with pytest.raises(ValueError):
        tr.ScenarioMatrix(n_dofs=10, dofs=np.array([5, 12]), block=np.ones((2, 1)))
    with pytest.raises(ValueError):
        tr.ScenarioMatrix(n_dofs=10, dofs=np.array([5]), block=np.ones((2, 1)))


def test_factored_scenario_matrix():
    """F = basis @ coefficients: L from the coefficients, the values held
    counted in that form, no dense `block`, and the loaded block multiplied
    out on request. A matrix is given in exactly one form."""
    basis = np.array([[1.0, 0.0], [2.0, -1.0], [0.0, 3.0]])
    weights = np.array([[1.0, 2.0, 0.5, -1.0], [0.0, 1.0, 2.0, 4.0]])
    F = tr.ScenarioMatrix(n_dofs=9, dofs=np.array([0, 4, 8]), basis=basis,
                          coefficients=weights)
    assert (F.n_loaded, F.n_scenarios, F.size) == (3, 4, 14)
    assert F.block is None
    np.testing.assert_array_equal(F.loaded_block(), basis @ weights)
    np.testing.assert_array_equal(F.loaded_block([2]), basis[[2]] @ weights)
    np.testing.assert_array_equal(dense_scenarios(F)[[0, 4, 8]], basis @ weights)
    with pytest.raises(ValueError):  # r disagrees
        tr.ScenarioMatrix(n_dofs=9, dofs=np.array([0, 4, 8]), basis=basis,
                          coefficients=weights[:1])
    with pytest.raises(ValueError):  # no scenario
        tr.ScenarioMatrix(n_dofs=9, dofs=np.array([0, 4, 8]), basis=basis,
                          coefficients=np.ones((2, 0)))
    for forms in ({}, {"basis": basis}, {"coefficients": weights},
                  {"block": basis @ weights, "coefficients": weights},
                  {"block": basis @ weights, "basis": basis, "coefficients": weights}):
        with pytest.raises(ValueError, match="either block, or basis and coefficients"):
            tr.ScenarioMatrix(n_dofs=9, dofs=np.array([0, 4, 8]), **forms)


def test_column_and_to_dense_agree():
    F = tr.ScenarioMatrix(n_dofs=6, dofs=np.array([1, 4]),
                          block=np.array([[1.0, 2.0], [3.0, 4.0]]))
    dense = dense_scenarios(F)
    assert dense.shape == (6, 2)
    np.testing.assert_array_equal(scenario_column(F, 1), dense[:, 1])
    assert dense[1, 0] == 1.0 and dense[4, 1] == 4.0
    assert np.count_nonzero(dense) == 4


def test_point_load_positions_2d():
    """First basis term alone reproduces the end load at the half-height node."""
    mesh = tr.cantilever_mesh(2, (8, 4))
    f = basis_load(tr.sample_cantilever_scenarios(mesh, 3, seed=0), 0)
    node = mesh.node_id(8, 2)
    assert f[2 * node] == 0.0
    assert f[2 * node + 1] == -1.0
    assert np.count_nonzero(f) == 1


def test_point_load_positions_2d_oblique():
    mesh = tr.cantilever_mesh(2, (8, 4))
    c = 1.0 / np.sqrt(2.0)
    F = tr.sample_cantilever_scenarios(mesh, 1, seed=0)
    node = mesh.node_id(4, 4)  # top face, half length
    f = basis_load(F, 1)
    assert f[2 * node] == c and f[2 * node + 1] == -c

    node = mesh.node_id(6, 0)  # bottom face, three-quarter length
    f = basis_load(F, 2)
    assert f[2 * node] == -c and f[2 * node + 1] == -c


def test_point_load_positions_3d():
    mesh = tr.cantilever_mesh(3, (6, 2, 2))
    f = basis_load(tr.sample_cantilever_scenarios(mesh, 1, seed=0), 0)
    node = mesh.node_id(6, 1, 1)
    assert f[3 * node + 1] == -1.0
    assert np.count_nonzero(f) == 1


def test_random_basis_lives_on_free_surface():
    mesh = tr.cantilever_mesh(2, (8, 4))
    f = basis_load(tr.sample_cantilever_scenarios(mesh, 1, seed=3), 5)
    surface = set(mesh.free_surface_dofs())
    nonzero = set(np.nonzero(f)[0])
    assert nonzero  # the rattle vector is dense on the surface
    assert nonzero <= surface
    for d in mesh.fixed_dofs:
        assert f[d] == 0.0


@pytest.mark.parametrize("cells", [(1, 4), (1, 2, 2)])
def test_sampler_refuses_a_one_cell_long_cantilever(cells):
    # the top-face load at x = round(1 / 2) = 0 would sit on the fixed face
    with pytest.raises(ValueError, match="at least 2 cells along x"):
        tr.sample_cantilever_scenarios(tr.cantilever_mesh(len(cells), cells), 4, seed=0)


@pytest.mark.parametrize("cells", [(2, 1), (2, 3), (10, 5), (80, 20), (2, 1, 1), (2, 2, 3),
                                   (16, 6, 6)])
def test_sampler_places_point_loads_as_a_dict_lookup_does(cells):
    mesh = tr.cantilever_mesh(len(cells), cells)
    F = tr.sample_cantilever_scenarios(mesh, 30, seed=7)
    oracle = dict_sampled_scenarios(tr.cantilever_mesh(len(cells), cells), 30, seed=7)
    np.testing.assert_array_equal(F.dofs, oracle.dofs)
    np.testing.assert_array_equal(F.basis, oracle.basis)
    np.testing.assert_array_equal(F.coefficients, oracle.coefficients)


@pytest.mark.parametrize("dim", [2, 3])
def test_sampler_refuses_a_point_load_off_the_free_surface(dim):
    """A mesh supported at the free end's middle node: the downward load there
    would act on fixed DOFs."""
    cells = (6, 3) if dim == 2 else (4, 2, 2)
    cantilever = tr.cantilever_mesh(dim, cells)
    end = cantilever.node_id(cells[0], *(c // 2 for c in cells[1:]))
    mesh = tr.GroundMesh(dim=dim, cells=cells, element_size=1.0,
                         fixed_dofs=cantilever.fixed_dofs | set(cantilever.node_dofs(end)))
    with pytest.raises(ValueError, match="not all free surface DOFs"):
        tr.sample_cantilever_scenarios(mesh, 4, seed=0)


def test_sampler_is_deterministic():
    mesh = tr.cantilever_mesh(2, (10, 5))
    A = tr.sample_cantilever_scenarios(mesh, 40, seed=123)
    B = tr.sample_cantilever_scenarios(mesh, 40, seed=123)
    assert np.array_equal(A.loaded_block(), B.loaded_block())
    C = tr.sample_cantilever_scenarios(mesh, 40, seed=124)
    assert not np.array_equal(A.loaded_block(), C.loaded_block())


def test_sampler_factors_are_deterministic():
    mesh = tr.cantilever_mesh(3, (16, 6, 6))
    A = tr.sample_cantilever_scenarios(mesh, 1000, seed=5)
    B = tr.sample_cantilever_scenarios(mesh, 1000, seed=5)
    assert A.block is None and A.basis.shape == (A.n_loaded, 10)
    assert np.array_equal(A.basis, B.basis) and np.array_equal(A.coefficients, B.coefficients)


def test_sampler_rank_is_at_most_ten():
    mesh = tr.cantilever_mesh(2, (10, 5))
    F = tr.sample_cantilever_scenarios(mesh, 100, seed=0)
    assert np.linalg.matrix_rank(F.loaded_block(), tol=1e-8) == 10
    assert tr.thin_svd(F).n_s == 10


def test_thin_svd_reconstructs(mesh_6x3):
    F = random_scenarios(mesh_6x3, L=30, rank=4, seed=1)
    svd = tr.thin_svd(F)
    assert svd.n_s == 4
    recon = svd.U @ (svd.S[:, None] * svd.Vt)
    err = np.linalg.norm(recon - F.block) / np.linalg.norm(F.block)
    assert err <= 1e-10
    # orthonormal factors
    np.testing.assert_allclose(svd.U.T @ svd.U, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(svd.Vt @ svd.Vt.T, np.eye(4), atol=1e-12)
    assert np.all(np.diff(svd.S) <= 0) and np.all(svd.S > 0)
    # U holds the loaded DOF rows only
    assert svd.U.shape == (F.n_loaded, 4)
    np.testing.assert_array_equal(svd.dofs, F.dofs)


def _dense(block):
    return tr.ScenarioMatrix(n_dofs=60, dofs=np.arange(block.shape[0]), block=block)


def _factored(basis, coefficients):
    return tr.ScenarioMatrix(n_dofs=60, dofs=np.arange(basis.shape[0]), basis=basis,
                             coefficients=coefficients)


def _with_entry(shape, value):
    array = np.random.default_rng(2).standard_normal(shape)
    array[1, 2] = value
    return array


def test_thin_svd_rejects_bad_inputs():
    zero = tr.ScenarioMatrix(n_dofs=10, dofs=np.array([2]), block=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        tr.thin_svd(zero)
    # a wide block, as a CSV of many scenarios gives it
    zero = tr.ScenarioMatrix(n_dofs=60, dofs=np.arange(60), block=np.zeros((60, 200)))
    with pytest.raises(ValueError, match="identically zero"):
        tr.thin_svd(zero)
    # no loaded rows, in either form: no singular value at all
    for rowless in (_dense(np.zeros((0, 4))), _factored(np.zeros((0, 3)), np.ones((3, 4)))):
        with pytest.raises(ValueError, match="identically zero"):
            tr.thin_svd(rowless)


@pytest.mark.parametrize("F", [
    _dense(_with_entry((5, 4), np.inf)),
    _dense(_with_entry((5, 4), np.nan)),
    _dense(np.full((5, 4), 1e308)),  # finite entries, S_1 = 2e309
    _factored(_with_entry((5, 3), -np.inf), np.ones((3, 4))),
    _factored(np.ones((5, 3)), _with_entry((3, 4), np.nan)),
    _factored(np.full((5, 2), 1e200), np.full((2, 4), 1e200)),  # the product overflows
], ids=["dense-inf", "dense-nan", "dense-s1-overflows", "basis-inf", "coefficients-nan",
        "product-overflows"])
def test_thin_svd_refuses_non_finite_loads(F):
    """No ThinSVD comes of loads that are not finite; they are not taken for
    a zero block either."""
    with pytest.raises(TopoRiskError, match="scenario loads are not finite"):
        tr.thin_svd(F)


def _block_with_spectrum(S, m, L, seed):
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((m, S.size)))
    V, _ = np.linalg.qr(rng.standard_normal((L, S.size)))
    return (U * S) @ V.T


def _sampler_block():
    mesh = tr.cantilever_mesh(2, (40, 10))
    return tr.sample_cantilever_scenarios(mesh, 1000, seed=3).loaded_block()


def _full_rank_block():
    return np.random.default_rng(5).standard_normal((60, 200))


def _cut_block():
    S = np.array([1.0, 0.5, 0.2, 1e-3, 1e-6, 1.01e-10, 0.99e-10])
    return _block_with_spectrum(S, 80, 300, seed=4)


@pytest.mark.parametrize("make,n_s", [
    (_sampler_block, 10),
    (_full_rank_block, 60),
    (_cut_block, 6),
])
def test_thin_svd_truncates_like_the_full_svd(make, n_s):
    """Same n_s and singular values as numpy's SVD of the whole block.

    Singular values are compared to 1e-13 of sigma_1, the absolute accuracy
    any SVD achieves in double precision.
    """
    block = make()
    S_ref = np.linalg.svd(block, compute_uv=False)
    S_ref = S_ref[S_ref >= tr.scenarios.SVD_REL_TOL * S_ref[0]]
    assert S_ref.size == n_s

    F = tr.ScenarioMatrix(n_dofs=block.shape[0], dofs=np.arange(block.shape[0]), block=block)
    result = tr.thin_svd(F)

    assert result.n_s == n_s
    np.testing.assert_allclose(result.S, S_ref, rtol=0, atol=1e-13 * S_ref[0])
    recon = result.U @ (result.S[:, None] * result.Vt)
    Ub, Sb, Vtb = np.linalg.svd(block, full_matrices=False)
    ref = (Ub[:, :n_s] * Sb[:n_s]) @ Vtb[:n_s]
    assert np.linalg.norm(recon - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("cells,L", [((16, 6, 6), 1000), ((20, 10), 50), ((80, 20), 200)])
def test_factored_thin_svd_matches_the_dense_one(cells, L):
    """The benchmark inputs: the thin SVD from the sampler's factors keeps
    the n_s of the dense block's, its singular values to 1e-13 S_1, and
    rebuilds the dense block to 1e-13."""
    mesh = tr.cantilever_mesh(len(cells), cells)
    F = tr.sample_cantilever_scenarios(mesh, L, seed=0)
    block = F.loaded_block()
    dense = tr.thin_svd(tr.ScenarioMatrix(F.n_dofs, F.dofs, block))
    factored = tr.thin_svd(F)
    assert factored.n_s == dense.n_s == 10
    np.testing.assert_allclose(factored.S, dense.S, rtol=0, atol=1e-13 * dense.S[0])
    recon = factored.U @ (factored.S[:, None] * factored.Vt)
    assert np.linalg.norm(recon - block) <= 1e-13 * np.linalg.norm(block)
    np.testing.assert_allclose(factored.U.T @ factored.U, np.eye(10), atol=1e-13)
    np.testing.assert_array_equal(factored.dofs, F.dofs)


def test_factored_thin_svd_truncates_and_rejects_zero():
    """A rank-deficient basis keeps its rank; a zero basis or zero
    coefficients give S_1 = 0, which raises as a zero dense block does."""
    rng = np.random.default_rng(3)
    basis = rng.standard_normal((40, 4))
    basis[:, 3] = basis[:, 0] - 2.0 * basis[:, 1]
    F = tr.ScenarioMatrix(n_dofs=50, dofs=np.arange(40), basis=basis,
                          coefficients=rng.standard_normal((4, 30)))
    assert tr.thin_svd(F).n_s == 3
    for loads, weights in [(np.zeros((40, 4)), np.ones((4, 30))), (basis, np.zeros((4, 30)))]:
        zero = tr.ScenarioMatrix(n_dofs=50, dofs=np.arange(40), basis=loads,
                                 coefficients=weights)
        with pytest.raises(ValueError, match="identically zero"):
            tr.thin_svd(zero)


def test_csv_round_trip_is_bitwise(tmp_path, mesh_6x3):
    F = random_scenarios(mesh_6x3, L=7, rank=3, seed=9)
    path = tmp_path / "scenarios.csv"
    tr.save_scenarios_to_file(F, path)
    G = tr.load_scenarios_from_file(path, n_dofs=mesh_6x3.n_dofs)
    assert G.n_dofs == F.n_dofs
    np.testing.assert_array_equal(dense_scenarios(G), dense_scenarios(F))
    first = path.read_text()
    assert first.startswith("dof,scenario,value\n")
    tr.save_scenarios_to_file(G, path)
    assert path.read_text() == first  # save(load(save(F))) is a fixed point


def test_csv_round_trip_of_a_factored_sample(tmp_path):
    mesh = tr.cantilever_mesh(2, (10, 5))
    F = tr.sample_cantilever_scenarios(mesh, 40, seed=4)
    path = tmp_path / "scenarios.csv"
    tr.save_scenarios_to_file(F, path)
    G = tr.load_scenarios_from_file(path, n_dofs=mesh.n_dofs)
    assert F.block is None and G.basis is None and G.coefficients is None
    np.testing.assert_array_equal(dense_scenarios(G), dense_scenarios(F))


def test_csv_read_in_any_line_order_is_bitwise(tmp_path, mesh_6x3):
    """Entries in shuffled order, with blank lines between them, scatter
    into the same block as the sorted file."""
    F = random_scenarios(mesh_6x3, L=7, rank=3, seed=9)
    path = tmp_path / "scenarios.csv"
    tr.save_scenarios_to_file(F, path)
    header, *entries = path.read_text().splitlines()
    order = np.random.default_rng(2).permutation(len(entries))
    path.write_text("\n".join([header] + [entries[i] + "\n" for i in order]))
    G = tr.load_scenarios_from_file(path, n_dofs=mesh_6x3.n_dofs)
    np.testing.assert_array_equal(G.dofs, F.dofs)
    np.testing.assert_array_equal(G.block, F.block)


def test_csv_read_peak_memory_stays_within_its_gate(tmp_path):
    """tracemalloc's peak while reading 9,600 entries stays within what the
    reader's memory gate counts: `CSV_ENTRY_BYTES` per entry beside the
    dense block. Holding each row as Python objects would take several
    hundred bytes per entry."""
    import tracemalloc

    mesh = tr.cantilever_mesh(2, (10, 5))
    path = tmp_path / "scenarios.csv"
    tr.save_scenarios_to_file(tr.sample_cantilever_scenarios(mesh, 200, seed=0), path)
    tracemalloc.start()
    try:
        F = tr.load_scenarios_from_file(path, n_dofs=mesh.n_dofs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(F.block) == F.block.size == 9600
    assert peak <= tr.scenarios.CSV_ENTRY_BYTES * F.block.size + F.block.nbytes


def test_csv_load_rejects_malformed(tmp_path):
    def load(text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        return tr.load_scenarios_from_file(p, n_dofs=8)

    with pytest.raises(ScenarioFormatError):
        load("")
    with pytest.raises(ScenarioFormatError):
        load("wrong,header,line\n0,0,1.0\n")
    with pytest.raises(ScenarioFormatError):
        load("dof,scenario,value\n0,0\n")
    with pytest.raises(ScenarioFormatError):
        load("dof,scenario,value\nx,0,1.0\n")
    with pytest.raises(ScenarioFormatError):
        load("dof,scenario,value\n-1,0,1.0\n")
    with pytest.raises(ScenarioFormatError):
        load("dof,scenario,value\n0,0,nan\n")
    with pytest.raises(ScenarioFormatError):
        load("dof,scenario,value\n0,0,1.0\n0,0,2.0\n")
    with pytest.raises(ScenarioFormatError):
        load("dof,scenario,value\n")


def test_csv_load_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("dof,scenario,value\n0,0,1.0\n1,0,oops\n")
    with pytest.raises(ScenarioFormatError, match=r"bad\.csv:3"):
        tr.load_scenarios_from_file(p, n_dofs=8)


def test_csv_reports_bad_lines_before_duplicates_and_the_first_repeat_by_line(tmp_path):
    """Each line is checked as it is read and repeated entries after the
    pass: a bad field after a duplicate is what the reader reports. Of two
    duplicates, the one on the earlier line is reported, though the other
    repeats an entry that sorts first."""
    p = tmp_path / "f.csv"
    p.write_text("dof,scenario,value\n3,0,1.0\n3,0,2.0\n5,1,oops\n")
    with pytest.raises(ScenarioFormatError, match=r"f\.csv:4: could not convert"):
        tr.load_scenarios_from_file(p, n_dofs=8)
    p.write_text("dof,scenario,value\n3,0,1.0\n5,1,2.0\n\n3,1,0.5\n5,1,3.0\n3,0,4.0\n")
    with pytest.raises(ScenarioFormatError,
                       match=r"f\.csv:6: duplicate entry for dof 5, scenario 1$"):
        tr.load_scenarios_from_file(p, n_dofs=8)


def test_csv_blank_rows_are_skipped(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("dof,scenario,value\n\n7,0,1.5\n\n3,1,-2.0\n\n")
    F = tr.load_scenarios_from_file(p, n_dofs=8)
    np.testing.assert_array_equal(F.dofs, [3, 7])
    np.testing.assert_array_equal(F.block, [[0.0, -2.0], [1.5, 0.0]])
    p.write_text("dof,scenario,value\n\n7,0,1.5\n1,0,oops\n")
    with pytest.raises(ScenarioFormatError, match=r"f\.csv:4"):  # blank rows keep their numbers
        tr.load_scenarios_from_file(p, n_dofs=8)


def test_csv_n_dofs_validation(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("dof,scenario,value\n7,0,1.5\n")
    assert tr.load_scenarios_from_file(p, n_dofs=8).n_dofs == 8
    with pytest.raises(ScenarioFormatError):
        tr.load_scenarios_from_file(p, n_dofs=7)
