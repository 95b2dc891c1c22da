import numpy as np
import pytest

from pssmesh.mesh import TriangleMesh
from pssmesh.adjacency import (build_adjacency, k_ring_vertices_multi,
                               face_connected_components, segment_index)

from conftest import (grid_mesh, icosahedron, two_triangle_strip,
                      brute_force_adjacency, adjacency_pairs, bfs_k_ring)


def test_single_face_empty_adjacency():
    m = TriangleMesh(vertices=np.eye(3), faces=np.array([[0, 1, 2]]))
    adj = build_adjacency(m)
    assert adj.face_neighbors(0).size == 0
    assert len(adj.edge_vertices) == 3
    assert adj.border_edge_mask.all()


def test_quad_grid_interior_face_has_3_neighbors(quad_grid):
    adj = build_adjacency(quad_grid)
    degrees = adj.face_degree()
    assert degrees.max() == 3
    assert sorted(degrees.tolist()).count(3) >= 2


def test_matches_brute_force_on_random_meshes():
    for seed, (nx, ny) in [(0, (7, 7)), (1, (10, 5)), (2, (3, 12))]:
        m = grid_mesh(nx, ny)
        rng = np.random.default_rng(seed)
        m.vertices += rng.standard_normal(m.vertices.shape) * 0.1
        adj = build_adjacency(m)
        assert adjacency_pairs(adj) == brute_force_adjacency(m)


def test_matches_brute_force_on_icosahedron(ico):
    adj = build_adjacency(ico)
    assert adjacency_pairs(adj) == brute_force_adjacency(ico)
    assert not adj.border_edge_mask.any()
    assert np.all(adj.face_degree() == 3)


def test_edge_lengths(quad_grid):
    adj = build_adjacency(quad_grid)
    v = quad_grid.vertices
    for (a, b), ln in zip(adj.edge_vertices, adj.edge_length):
        assert ln == pytest.approx(np.linalg.norm(v[a] - v[b]))


def test_k_ring_zero_is_self(ico):
    adj = build_adjacency(ico)
    assert sorted(k_ring_vertices_multi(adj, [4], 0)) == [4]
    with pytest.raises(ValueError):
        k_ring_vertices_multi(adj, [4], -1)


def test_k_ring_path():
    # path a-b-c-d built from slim triangles sharing consecutive vertices
    verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0],
                      [0.5, 1, 0], [1.5, 1, 0], [2.5, 1, 0]], dtype=float)
    faces = np.array([[0, 1, 4], [1, 2, 5], [2, 3, 6]], dtype=np.int32)
    m = TriangleMesh(vertices=verts, faces=faces)
    adj = build_adjacency(m)
    ring = k_ring_vertices_multi(adj, [0], 2)
    assert {0, 1, 2} <= ring
    assert 3 not in ring


def test_k_ring_icosahedron_one_ring(ico):
    adj = build_adjacency(ico)
    assert len(k_ring_vertices_multi(adj, [0], 1)) == 6    # v plus its 5 neighbors


def test_k_ring_matches_bfs(ico):
    adj = build_adjacency(ico)
    for v in range(ico.n_vertices):
        for k in range(4):
            assert k_ring_vertices_multi(adj, [v], k) == bfs_k_ring(adj, v, k)


def test_k_ring_matches_bfs_grid():
    m = grid_mesh(8, 8)
    adj = build_adjacency(m)
    rng = np.random.default_rng(5)
    for v in rng.integers(0, m.n_vertices, 20):
        for k in (0, 1, 2, 3):
            assert k_ring_vertices_multi(adj, [int(v)], k) == bfs_k_ring(adj, int(v), k)


def test_segment_index_matches_brute_force():
    # open grid (border edges, one unsegmented face) plus a closed
    # icosahedron that forms one segment without cut edges
    grid, ico = grid_mesh(5, 4), icosahedron()
    m = TriangleMesh(vertices=np.vstack([grid.vertices, ico.vertices + 10.0]),
                     faces=np.vstack([grid.faces, ico.faces + grid.n_vertices]))
    rng = np.random.default_rng(3)
    seg = np.concatenate([rng.integers(0, 4, grid.n_faces),
                          np.full(ico.n_faces, 4)])
    seg[7] = -1
    adj = build_adjacency(m)
    edge_side, faces, cuts = segment_index(adj, seg, 5)

    f0, f1 = adj.edge_faces[:, 0], adj.edge_faces[:, 1]
    s0 = seg[f0]
    s1 = np.where(f1 >= 0, seg[np.maximum(f1, 0)], -2)
    assert np.array_equal(edge_side, np.column_stack([s0, s1]))
    assert {-1, -2} <= set(edge_side.ravel().tolist())
    assert len(faces) == len(cuts) == 5
    for k in range(5):
        assert np.array_equal(faces[k], np.flatnonzero(seg == k))
        want = np.flatnonzero((s0 != s1) & ((s0 == k) | (s1 == k)))
        assert np.array_equal(cuts[k], want)
    assert len(cuts[4]) == 0


def test_components_single_label(quad_grid):
    adj = build_adjacency(quad_grid)
    comp = face_connected_components(quad_grid, adj, np.zeros(quad_grid.n_faces, dtype=int))
    assert set(comp.tolist()) == {0}


def test_components_two_islands():
    m = grid_mesh(3, 1)   # 6 faces in a strip, quads 0,1,2
    labels = np.array([0, 0, 1, 1, 0, 0])
    adj = build_adjacency(m)
    comp = face_connected_components(m, adj, labels)
    assert comp[0] == comp[1]
    assert comp[4] == comp[5]
    assert comp[0] != comp[4]
    assert comp[2] == comp[3]
    assert len(set(comp.tolist())) == 3


def test_components_unlabeled_minus_one():
    m = grid_mesh(2, 1)
    labels = np.array([0, -1, 0, 0])
    adj = build_adjacency(m)
    comp = face_connected_components(m, adj, labels)
    assert comp[1] == -1
    assert comp[2] == comp[3]


def test_components_checkerboard_strip():
    m = grid_mesh(6, 1)
    labels = np.tile([0, 1], 6)   # alternate per face along the strip
    adj = build_adjacency(m)
    comp = face_connected_components(m, adj, labels)
    # brute-force flood fill oracle
    def flood(labels):
        comp2 = -np.ones(m.n_faces, dtype=int)
        nid = 0
        for s in range(m.n_faces):
            if comp2[s] >= 0:
                continue
            stack = [s]
            comp2[s] = nid
            while stack:
                f = stack.pop()
                for g in adj.face_neighbors(f):
                    if comp2[g] < 0 and labels[g] == labels[f]:
                        comp2[g] = nid
                        stack.append(int(g))
            nid += 1
        return comp2
    oracle = flood(labels)
    # same partition
    assert len(set(comp.tolist())) == len(set(oracle.tolist()))
    for c in set(comp.tolist()):
        members = np.flatnonzero(comp == c)
        assert len(set(oracle[members].tolist())) == 1


def test_components_idempotent():
    m = grid_mesh(4, 4)
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 3, m.n_faces)
    adj = build_adjacency(m)
    comp1 = face_connected_components(m, adj, labels)
    comp2 = face_connected_components(m, adj, comp1)
    assert np.array_equal(comp1, comp2)


def test_components_permutation_invariant_partition():
    m = grid_mesh(4, 3)
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 2, m.n_faces)
    adj = build_adjacency(m)
    comp = face_connected_components(m, adj, labels)

    perm = rng.permutation(m.n_faces)
    m2 = TriangleMesh(vertices=m.vertices.copy(), faces=m.faces[perm].copy())
    adj2 = build_adjacency(m2)
    comp2 = face_connected_components(m2, adj2, labels[perm])
    # partitions agree after mapping back through the permutation
    back = np.empty_like(comp2)
    back[np.arange(len(perm))] = comp2          # comp2 is already in permuted order
    for c in set(comp.tolist()):
        members = np.flatnonzero(comp == c)
        mapped = {int(comp2[np.flatnonzero(perm == f)[0]]) for f in members}
        assert len(mapped) == 1
