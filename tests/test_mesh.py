"""Mesh numbering and topology, checked against hand-worked small cases."""
import numpy as np
import pytest

import toporisk as tr


def test_material_validation():
    tr.Material(210e3, 0.3)
    with pytest.raises(ValueError):
        tr.Material(0.0, 0.3)
    with pytest.raises(ValueError):
        tr.Material(-1.0, 0.3)
    with pytest.raises(ValueError):
        tr.Material(1.0, 0.5)
    with pytest.raises(ValueError):
        tr.Material(1.0, -1.0)
    with pytest.raises(TypeError, match="poissons_ratio"):
        tr.Material(1.0, "0.3")


def test_mesh_counts_2d():
    mesh = tr.GroundMesh(dim=2, cells=(4, 2), element_size=1.0, fixed_dofs=frozenset())
    assert mesh.n_elements == 8
    assert mesh.n_nodes == 5 * 3
    assert mesh.n_dofs == 30
    assert mesh.nodes_per_axis == (5, 3)


def test_mesh_counts_3d():
    mesh = tr.GroundMesh(dim=3, cells=(3, 2, 2), element_size=1.0, fixed_dofs=frozenset())
    assert mesh.n_elements == 12
    assert mesh.n_nodes == 4 * 3 * 3
    assert mesh.n_dofs == 3 * 36


def test_mesh_validation():
    with pytest.raises(ValueError):
        tr.GroundMesh(dim=4, cells=(2, 2), element_size=1.0, fixed_dofs=frozenset())
    with pytest.raises(ValueError):
        tr.GroundMesh(dim=2, cells=(2,), element_size=1.0, fixed_dofs=frozenset())
    with pytest.raises(ValueError):
        tr.GroundMesh(dim=2, cells=(2, 2), element_size=-1.0, fixed_dofs=frozenset())
    with pytest.raises(ValueError):
        tr.GroundMesh(dim=2, cells=(2, 0), element_size=1.0, fixed_dofs=frozenset())
    with pytest.raises(ValueError):
        tr.GroundMesh(dim=2, cells=(2, 2), element_size=1.0, fixed_dofs=frozenset({999}))


def test_node_numbering_2d():
    # 2x1 cells -> 3x2 nodes, y fastest: id(ix, iy) = ix*2 + iy
    mesh = tr.GroundMesh(dim=2, cells=(2, 1), element_size=1.0, fixed_dofs=frozenset())
    expected = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3, (2, 0): 4, (2, 1): 5}
    for (ix, iy), nid in expected.items():
        assert mesh.node_id(ix, iy) == nid
    assert list(mesh.node_dofs(3)) == [6, 7]


def test_element_nodes_2d():
    # element corners counter-clockwise starting at the lower-left node
    mesh = tr.GroundMesh(dim=2, cells=(2, 1), element_size=1.0, fixed_dofs=frozenset())
    conn = mesh.element_node_ids()
    assert conn.shape == (2, 4)
    assert list(conn[0]) == [0, 2, 3, 1]
    assert list(conn[1]) == [2, 4, 5, 3]


def test_node_id_rejects_coordinates_outside_the_grid():
    # 3x2 nodes: (0, 2) would alias node (1, 0) under a plain ix*2 + iy
    mesh = tr.GroundMesh(dim=2, cells=(2, 1), element_size=1.0, fixed_dofs=frozenset())
    for index in [(0, 2), (3, 0), (-1, 0)]:
        with pytest.raises(ValueError):
            mesh.node_id(*index)


def test_element_nodes_3d_local_order():
    # 3x3x3 nodes, id = ix*9 + iy*3 + iz; the bottom face (z offset 0)
    # counterclockwise from the low corner, then the top face the same way
    mesh = tr.GroundMesh(dim=3, cells=(2, 2, 2), element_size=1.0, fixed_dofs=frozenset())
    conn = mesh.element_node_ids()
    assert conn.shape == (8, 8)
    assert list(conn[0]) == [0, 9, 12, 3, 1, 10, 13, 4]
    assert list(conn[7]) == [13, 22, 25, 16, 14, 23, 26, 17]  # element (1, 1, 1)


def test_element_nodes_cover_unit_cell_3d():
    # whatever the local order, element e must own exactly the 8 grid nodes
    # of its unit cell
    mesh = tr.GroundMesh(dim=3, cells=(2, 2, 2), element_size=1.0, fixed_dofs=frozenset())
    conn = mesh.element_node_ids()
    for e in range(mesh.n_elements):
        ex, rem = divmod(e, 4)
        ey, ez = divmod(rem, 2)
        cell = {
            mesh.node_id(ex + dx, ey + dy, ez + dz)
            for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)
        }
        assert set(conn[e]) == cell


def test_element_dof_map_interleaving(mesh_4x2):
    conn = mesh_4x2.element_node_ids()
    edof = mesh_4x2.element_dof_map()
    assert edof.shape == (8, 8)
    np.testing.assert_array_equal(edof[:, 0::2], 2 * conn)
    np.testing.assert_array_equal(edof[:, 1::2], 2 * conn + 1)


def test_element_dof_map_is_cached_and_read_only(mesh_4x2):
    edof = mesh_4x2.element_dof_map()
    assert mesh_4x2.element_dof_map() is edof
    with pytest.raises(ValueError):
        edof[0, 0] = 1
    # the cache is not part of the mesh's identity
    assert mesh_4x2 == tr.cantilever_mesh(2, (4, 2))
    assert hash(mesh_4x2) == hash(tr.cantilever_mesh(2, (4, 2)))


def test_element_centroids():
    mesh = tr.GroundMesh(dim=2, cells=(2, 1), element_size=0.5, fixed_dofs=frozenset())
    np.testing.assert_allclose(mesh.element_centroids(),
                               [[0.25, 0.25], [0.75, 0.25]])


def test_boundary_nodes_2d():
    mesh = tr.GroundMesh(dim=2, cells=(2, 2), element_size=1.0, fixed_dofs=frozenset())
    boundary = mesh.boundary_node_ids()
    center = mesh.node_id(1, 1)
    assert center not in boundary
    assert boundary.size == mesh.n_nodes - 1
    assert np.all(np.diff(boundary) > 0)


def test_boundary_nodes_3d(mesh_3d):
    boundary = mesh_3d.boundary_node_ids()
    # 4x3x3 grid: only interior nodes are ix in {1,2}, iy=1, iz=1
    assert boundary.size == mesh_3d.n_nodes - 2


def test_cantilever_fixes_left_face():
    mesh = tr.cantilever_mesh(2, (4, 2))
    left = {mesh.node_id(0, iy) for iy in range(3)}
    expected = {2 * n + c for n in left for c in (0, 1)}
    assert mesh.fixed_dofs == frozenset(expected)


def test_cantilever_fixes_left_face_3d():
    mesh = tr.cantilever_mesh(3, (3, 2, 2))
    left = {mesh.node_id(0, iy, iz) for iy in range(3) for iz in range(3)}
    expected = {3 * n + c for n in left for c in (0, 1, 2)}
    assert mesh.fixed_dofs == frozenset(expected)


def test_free_surface_dofs_excludes_fixed():
    mesh = tr.cantilever_mesh(2, (4, 2))
    free = mesh.free_surface_dofs()
    assert np.all(np.diff(free) > 0)
    assert not (set(free) & mesh.fixed_dofs)
    # every free surface DOF belongs to a boundary node
    boundary = set(mesh.boundary_node_ids())
    assert all(d // 2 in boundary for d in free)
    # interior nodes are absent: node (1, 1) of the 5x3 grid is interior
    interior = mesh.node_id(1, 1)
    assert not ({2 * interior, 2 * interior + 1} & set(free))
