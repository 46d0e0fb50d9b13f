"""Scenario sampling, thin SVD and the CSV interchange format."""
import numpy as np
import pytest

import toporisk as tr
from toporisk.errors import ScenarioFormatError

from oracles import random_scenarios


def unit_multipliers(row, L):
    """Multiplier block that selects a single basis term with weight 1."""
    s = np.zeros((10, L))
    s[row] = 1.0
    return s


def test_scenario_matrix_validation():
    with pytest.raises(ValueError):
        tr.ScenarioMatrix(n_dofs=10, dofs=np.array([3, 3]), block=np.ones((2, 1)))
    with pytest.raises(ValueError):
        tr.ScenarioMatrix(n_dofs=10, dofs=np.array([5, 2]), block=np.ones((2, 1)))
    with pytest.raises(ValueError):
        tr.ScenarioMatrix(n_dofs=10, dofs=np.array([5, 12]), block=np.ones((2, 1)))
    with pytest.raises(ValueError):
        tr.ScenarioMatrix(n_dofs=10, dofs=np.array([5]), block=np.ones((2, 1)))


def test_column_and_to_dense_agree():
    F = tr.ScenarioMatrix(n_dofs=6, dofs=np.array([1, 4]),
                          block=np.array([[1.0, 2.0], [3.0, 4.0]]))
    dense = F.to_dense()
    assert dense.shape == (6, 2)
    np.testing.assert_array_equal(F.column(1), dense[:, 1])
    assert dense[1, 0] == 1.0 and dense[4, 1] == 4.0
    assert np.count_nonzero(dense) == 4


def test_point_load_positions_2d():
    """First basis term alone reproduces the end load at the half-height node."""
    mesh = tr.cantilever_mesh(2, (8, 4))
    L = 3
    F = tr.sample_cantilever_scenarios(mesh, L, seed=0,
                                       multipliers=unit_multipliers(0, L))
    f = F.column(0)
    node = mesh.node_id(8, 2)
    assert f[2 * node] == 0.0
    assert f[2 * node + 1] == -1.0
    assert np.count_nonzero(f) == 1
    # all three scenarios identical under constant multipliers
    np.testing.assert_array_equal(F.column(1), f)


def test_point_load_positions_2d_oblique():
    mesh = tr.cantilever_mesh(2, (8, 4))
    c = 1.0 / np.sqrt(2.0)
    F2 = tr.sample_cantilever_scenarios(mesh, 1, seed=0,
                                        multipliers=unit_multipliers(1, 1))
    node = mesh.node_id(4, 4)  # top face, half length
    f = F2.column(0)
    assert f[2 * node] == c and f[2 * node + 1] == -c

    F3 = tr.sample_cantilever_scenarios(mesh, 1, seed=0,
                                        multipliers=unit_multipliers(2, 1))
    node = mesh.node_id(6, 0)  # bottom face, three-quarter length
    f = F3.column(0)
    assert f[2 * node] == -c and f[2 * node + 1] == -c


def test_point_load_positions_3d():
    mesh = tr.cantilever_mesh(3, (6, 2, 2))
    F = tr.sample_cantilever_scenarios(mesh, 1, seed=0,
                                       multipliers=unit_multipliers(0, 1))
    f = F.column(0)
    node = mesh.node_id(6, 1, 1)
    assert f[3 * node + 1] == -1.0
    assert np.count_nonzero(f) == 1


def test_random_basis_lives_on_free_surface():
    mesh = tr.cantilever_mesh(2, (8, 4))
    F = tr.sample_cantilever_scenarios(mesh, 1, seed=3,
                                       multipliers=unit_multipliers(5, 1))
    f = F.column(0)
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


def test_sampler_is_deterministic():
    mesh = tr.cantilever_mesh(2, (10, 5))
    A = tr.sample_cantilever_scenarios(mesh, 40, seed=123)
    B = tr.sample_cantilever_scenarios(mesh, 40, seed=123)
    assert np.array_equal(A.block, B.block)
    C = tr.sample_cantilever_scenarios(mesh, 40, seed=124)
    assert not np.array_equal(A.block, C.block)


def test_sampler_rank_is_at_most_ten():
    mesh = tr.cantilever_mesh(2, (10, 5))
    F = tr.sample_cantilever_scenarios(mesh, 100, seed=0)
    assert np.linalg.matrix_rank(F.block, tol=1e-8) == 10
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


def test_thin_svd_rejects_bad_inputs():
    zero = tr.ScenarioMatrix(n_dofs=10, dofs=np.array([2]), block=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        tr.thin_svd(zero)
    # large enough for the sketch, which must not hide the zero block
    zero = tr.ScenarioMatrix(n_dofs=60, dofs=np.arange(60), block=np.zeros((60, 200)))
    with pytest.raises(ValueError, match="identically zero"):
        tr.thin_svd(zero)


def _block_with_spectrum(S, m, L, seed):
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((m, S.size)))
    V, _ = np.linalg.qr(rng.standard_normal((L, S.size)))
    return (U * S) @ V.T


def _sampler_block():
    mesh = tr.cantilever_mesh(2, (40, 10))
    return tr.sample_cantilever_scenarios(mesh, 1000, seed=3).block


def _full_rank_block():
    return np.random.default_rng(5).standard_normal((60, 200))


def _cut_block():
    S = np.array([1.0, 0.5, 0.2, 1e-3, 1e-6, 1.01e-10, 0.99e-10])
    return _block_with_spectrum(S, 80, 300, seed=4)


@pytest.mark.parametrize("make,n_s,full", [
    (_sampler_block, 10, False),
    (_full_rank_block, 60, True),
    (_cut_block, 6, False),
])
def test_thin_svd_truncates_like_the_full_svd(make, n_s, full, monkeypatch):
    """Same n_s and singular values as numpy's SVD of the whole block.

    Singular values are compared to 1e-13 of sigma_1, the absolute accuracy
    any SVD achieves in double precision. `full` says whether the block
    needs the full SVD (no sketch can verify a full-rank truncation).
    """
    block = make()
    S_ref = np.linalg.svd(block, compute_uv=False)
    S_ref = S_ref[S_ref >= tr.scenarios.SVD_REL_TOL * S_ref[0]]
    assert S_ref.size == n_s

    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    F = tr.ScenarioMatrix(n_dofs=block.shape[0], dofs=np.arange(block.shape[0]), block=block)
    result = tr.thin_svd(F)
    monkeypatch.undo()

    assert result.n_s == n_s
    np.testing.assert_allclose(result.S, S_ref, rtol=0, atol=1e-13 * S_ref[0])
    recon = result.U @ (result.S[:, None] * result.Vt)
    Ub, Sb, Vtb = np.linalg.svd(block, full_matrices=False)
    ref = (Ub[:, :n_s] * Sb[:n_s]) @ Vtb[:n_s]
    assert np.linalg.norm(recon - ref) <= 1e-12 * np.linalg.norm(ref)
    assert (block.shape in shapes) == full


def test_csv_round_trip_is_bitwise(tmp_path, mesh_6x3):
    F = random_scenarios(mesh_6x3, L=7, rank=3, seed=9)
    path = tmp_path / "scenarios.csv"
    tr.save_scenarios_to_file(F, path)
    G = tr.load_scenarios_from_file(path, n_dofs=mesh_6x3.n_dofs)
    assert G.n_dofs == F.n_dofs
    np.testing.assert_array_equal(G.to_dense(), F.to_dense())
    first = path.read_text()
    assert first.startswith("dof,scenario,value\n")
    tr.save_scenarios_to_file(G, path)
    assert path.read_text() == first  # save(load(save(F))) is a fixed point


def test_csv_load_rejects_malformed(tmp_path):
    def load(text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        return tr.load_scenarios_from_file(p)

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
        tr.load_scenarios_from_file(p)


def test_csv_n_dofs_validation(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("dof,scenario,value\n7,0,1.5\n")
    F = tr.load_scenarios_from_file(p)
    assert F.n_dofs == 8  # inferred: largest index + 1
    with pytest.raises(ScenarioFormatError):
        tr.load_scenarios_from_file(p, n_dofs=7)
