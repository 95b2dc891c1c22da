import numpy as np
import pytest

from pssmesh import repair
from pssmesh.mesh import TriangleMesh
from pssmesh.adjacency import (build_adjacency, face_connected_components,
                               label_components, segment_index, unique_ints)
from pssmesh.metrics import BoundarySet, match_boundaries
from pssmesh.synth import TileParams, synth_tile

from conftest import (grid_mesh, icosahedron, two_triangle_strip,
                      brute_force_adjacency, adjacency_pairs, neighbor_list)
from oracles import (bfs_rings, csgraph_label_components, csr_neighbor_lists,
                     vertex_neighbors)


def test_single_face_empty_adjacency():
    m = TriangleMesh(vertices=np.eye(3), faces=np.array([[0, 1, 2]]))
    adj = build_adjacency(m)
    assert neighbor_list(adj, 0).size == 0
    assert len(adj.edge_vertices) == 3
    assert (adj.edge_faces[:, 1] < 0).all()


def face_degrees(adj):
    return np.array([len(neighbor_list(adj, f)) for f in range(adj.n_faces)])


def test_quad_grid_interior_face_has_3_neighbors(quad_grid):
    adj = build_adjacency(quad_grid)
    degrees = face_degrees(adj)
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
    assert (adj.edge_faces[:, 1] >= 0).all()
    assert np.all(face_degrees(adj) == 3)


def test_edge_lengths(quad_grid):
    adj = build_adjacency(quad_grid)
    v = quad_grid.vertices
    for (a, b), ln in zip(adj.edge_vertices, adj.edge_length):
        assert ln == pytest.approx(np.linalg.norm(v[a] - v[b]))


def odd_welded_mesh(seed):
    """(mesh, twins, collapsed): a noisy grid with holes (so border edges),
    two faces on the same three vertices (each shares all its edges with
    the other) and two collapsed faces, with faces and vertices shuffled
    and each face's corners rotated."""
    rng = np.random.default_rng(seed)
    m = grid_mesh(*rng.integers(2, 7, size=2))
    nv = m.n_vertices
    faces = np.vstack([m.faces[rng.random(m.n_faces) < 0.8],
                       [[nv, nv + 1, nv + 2], [nv, nv + 2, nv + 1]],
                       [[0, 0, 1], [nv, nv, nv]]])
    order = rng.permutation(len(faces))
    shift = rng.integers(0, 3, len(faces))[:, None]
    faces = faces[order][np.arange(len(faces))[:, None],
                         (np.arange(3) + shift) % 3]
    verts = np.vstack([m.vertices + rng.standard_normal(m.vertices.shape)
                       * 0.1, rng.random((3, 3))])
    perm = rng.permutation(nv + 3)
    shuffled = np.empty_like(verts)
    shuffled[perm] = verts
    inv = np.argsort(order)
    n = len(faces)
    mesh = TriangleMesh(vertices=shuffled, faces=perm[faces].astype(np.int32))
    return mesh, inv[[n - 4, n - 3]], inv[[n - 2, n - 1]]


@pytest.mark.parametrize("seed", range(8))
def test_neighbor_table_matches_csr_lists(seed):
    m, twins, collapsed = odd_welded_mesh(seed)
    adj = build_adjacency(m)
    table = adj.face_neighbors
    assert table.shape == (m.n_faces, 3) and table.dtype == np.int32
    assert (adj.edge_faces[:, 1] < 0).any()
    interior = adj.edge_faces[adj.edge_faces[:, 1] >= 0]
    offsets, flat = csr_neighbor_lists(interior, m.n_faces)
    for f in range(m.n_faces):
        # the same faces as the old lists, repeats included
        assert (neighbor_list(adj, f).tolist()
                == flat[offsets[f]:offsets[f + 1]].tolist())
        # entry j lies across corners j and j + 1
        for j, g in enumerate(table[f].tolist()):
            if g >= 0:
                assert g != f
                assert {m.faces[f, j], m.faces[f, (j + 1) % 3]} \
                    <= set(m.faces[g].tolist())
    a, b = twins
    assert table[a].tolist() == [b] * 3 and table[b].tolist() == [a] * 3
    assert (table[collapsed] == -1).all()


# Vertex rings live in metrics.match_boundaries: the zone of a candidate
# edge is the k-ring of its two ends, and a reference edge matches when
# both of its ends lie in that zone.

def edges_of(adj, ids):
    ids = np.asarray(ids, dtype=np.int64)
    return BoundarySet(ids, adj.edge_vertices[ids], adj.edge_length[ids])


def edge_id(adj, a, b):
    return int(np.flatnonzero((adj.edge_vertices == sorted((a, b))).all(1))[0])


def ring_matches(adj, k, refs):
    """(len(refs), E) bool: each row the edges whose k zone holds that ref."""
    every = edges_of(adj, np.arange(len(adj.edge_vertices)))
    return np.array([match_boundaries(every, edges_of(adj, [j]), adj, k)
                     for j in refs])


def bfs_ring_matches(adj, k, refs):
    nbrs = vertex_neighbors(adj)
    zones = [bfs_rings(nbrs, uv, k) for uv in adj.edge_vertices.tolist()]
    return np.array([[a in z and b in z for z in zones]
                     for a, b in adj.edge_vertices[refs].tolist()])


def test_k_ring_zero_is_self(ico):
    adj = build_adjacency(ico)
    assert np.array_equal(ring_matches(adj, 0, range(30)), np.eye(30, dtype=bool))
    with pytest.raises(ValueError):
        match_boundaries(edges_of(adj, [0]), edges_of(adj, [0]), adj, -1)


def test_k_ring_path():
    # path a-b-c-d built from slim triangles sharing consecutive vertices
    verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0],
                      [0.5, 1, 0], [1.5, 1, 0], [2.5, 1, 0]], dtype=float)
    faces = np.array([[0, 1, 4], [1, 2, 5], [2, 3, 6]], dtype=np.int32)
    m = TriangleMesh(vertices=verts, faces=faces)
    adj = build_adjacency(m)
    cand = edges_of(adj, [edge_id(adj, 0, 4)])
    near = edges_of(adj, [edge_id(adj, 1, 2)])        # both ends 2 rings away
    far = edges_of(adj, [edge_id(adj, 2, 3)])         # vertex 3 is 3 away
    assert match_boundaries(cand, near, adj, 2).all()
    assert not match_boundaries(cand, near, adj, 1).any()
    assert not match_boundaries(cand, far, adj, 2).any()
    assert match_boundaries(cand, far, adj, 3).all()


def test_k_ring_icosahedron_one_ring(ico):
    # one ring around an edge: its 8 triangles hold 15 of the 30 edges
    adj = build_adjacency(ico)
    assert np.all(ring_matches(adj, 1, range(30)).sum(axis=0) == 15)


def test_k_ring_matches_bfs(ico):
    adj = build_adjacency(ico)
    for k in range(4):
        assert np.array_equal(ring_matches(adj, k, range(30)),
                              bfs_ring_matches(adj, k, range(30)))


def test_k_ring_matches_bfs_grid():
    m = grid_mesh(8, 8)
    adj = build_adjacency(m)
    refs = np.random.default_rng(5).integers(0, len(adj.edge_vertices), 20)
    for k in (0, 1, 2, 3):
        assert np.array_equal(ring_matches(adj, k, refs),
                              bfs_ring_matches(adj, k, refs))


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
    index = segment_index(m, adj, seg, 5)
    faces, cuts = index.faces, index.cuts

    f0, f1 = adj.edge_faces[:, 0], adj.edge_faces[:, 1]
    s0 = seg[f0]
    s1 = np.where(f1 >= 0, seg[np.maximum(f1, 0)], -2)
    assert {-1, -2} <= set(s0.tolist() + s1.tolist())
    assert len(faces) == len(cuts) == 5
    for k in range(5):
        assert np.array_equal(faces[k], np.flatnonzero(seg == k))
        want = np.flatnonzero((s0 != s1) & ((s0 == k) | (s1 == k)))
        assert np.array_equal(cuts[k], want)
    assert len(cuts[4]) == 0
    assert index.n_segments == 5 and np.array_equal(index.face_segment, seg)


def test_segment_circumference_and_probes_match_definition():
    # the open grid has border edges and one unsegmented face; the closed
    # icosahedron is segment 4, without cut edges; segment 5 owns no face
    grid, ico = grid_mesh(5, 4), icosahedron()
    m = TriangleMesh(vertices=np.vstack([grid.vertices, ico.vertices + 10.0]),
                     faces=np.vstack([grid.faces, ico.faces + grid.n_vertices]))
    rng = np.random.default_rng(4)
    seg = np.concatenate([rng.integers(0, 4, grid.n_faces),
                          np.full(ico.n_faces, 4)])
    seg[7] = -1
    index = segment_index(m, build_adjacency(m), seg, 6)

    faces_of = {}
    for f, (a, b, c) in enumerate(m.faces.tolist()):
        for u, v in ((a, b), (b, c), (c, a)):
            faces_of.setdefault((min(u, v), max(u, v)), []).append(f)
    circumference = np.zeros(6)
    probes = [set() for _ in range(6)]
    border = 0
    for (u, v), fs in faces_of.items():
        sides = [int(seg[f]) for f in fs] + [-2] * (2 - len(fs))
        border += len(fs) == 1
        for k in set(sides) - {-1, -2} if sides[0] != sides[1] else ():
            circumference[k] += np.linalg.norm(m.vertices[u] - m.vertices[v])
            probes[k] |= {u, v}
    probes[4] = set(m.faces[seg == 4].ravel().tolist())
    assert border > 0
    assert np.allclose(index.circumference, circumference, rtol=1e-12,
                       atol=0.0)
    assert index.circumference[4] == index.circumference[5] == 0.0
    for k in range(6):
        assert index.probes[k].tolist() == sorted(probes[k]), k
    assert len(index.probes[4]) == ico.n_vertices
    assert len(index.probes[5]) == 0


def test_segment_vertices_match_per_segment_unique():
    # an open grid and a closed icosahedron, some faces collapsed (repeated
    # corners) and some unsegmented; segment 5 owns no face at all
    rng = np.random.default_rng(11)
    grid, ico = grid_mesh(6, 5), icosahedron()
    faces = np.vstack([grid.faces, ico.faces + grid.n_vertices])
    for f in rng.choice(len(faces), 6, replace=False):
        faces[f, 2] = faces[f, int(rng.integers(0, 2))]
    m = TriangleMesh(vertices=np.vstack([grid.vertices, ico.vertices + 9.0]),
                     faces=faces)
    seg = rng.integers(-1, 5, m.n_faces)
    assert m.degenerate_faces.sum() == 6 and (seg == -1).sum() > 0
    assert (seg[m.degenerate_faces] >= 0).any()
    index = segment_index(m, build_adjacency(m), seg, 6)
    assert len(index.vertices) == 6
    for k in range(6):
        want = unique_ints(m.faces[np.flatnonzero(seg == k)])
        assert index.vertices[k].dtype == np.int64
        assert np.array_equal(index.vertices[k], want), k
    assert len(index.vertices[5]) == 0


def test_segment_index_without_segments():
    m = grid_mesh(2, 2)
    index = segment_index(m, build_adjacency(m), np.full(m.n_faces, -1), 0)
    assert index.n_segments == 0
    assert index.area.shape == index.weight_sum.shape == (0,)
    assert index.mean(m.face_centroid[:, 2]).shape == (0,)


def test_segment_mean_weighs_area_or_one_in_zero_area_segments():
    # segment 0: faces of area 0.5 and 1.5; face 2 has no segment and
    # counts in no mean; segment 1: two collapsed faces
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 2, 0], [0, -1, 0]],
                 dtype=float)
    m = TriangleMesh(vertices=v, faces=[[0, 1, 2], [1, 3, 2], [0, 4, 1],
                                        [0, 0, 1], [2, 2, 2]])
    seg = np.array([0, 0, -1, 1, 1])
    index = segment_index(m, build_adjacency(m), seg, 2)
    x = np.array([1.0, 4.0, 100.0, 3.0, 7.0])
    assert np.array_equal(m.face_area, [0.5, 1.5, 0.5, 0.0, 0.0])
    assert np.array_equal(index.weight[seg >= 0], [0.5, 1.5, 1.0, 1.0])
    assert np.array_equal(index.mean(x), [(0.5 + 6.0) / 2.0, 5.0])
    assert np.array_equal(index.mean(x, x), [(0.5 + 24.0) / 2.0, 29.0])


@pytest.mark.parametrize("face_segment, message", [
    (np.zeros(5, dtype=int), "length"),
    (np.full(8, 2), r"\[-1, 2\)"),
    (np.full(8, -2), r"\[-1, 2\)"),
])
def test_segment_index_rejects_bad_ids(face_segment, message):
    m = grid_mesh(2, 2)
    with pytest.raises(ValueError, match=message):
        segment_index(m, build_adjacency(m), face_segment, 2)


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
                for g in neighbor_list(adj, f):
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


def bfs_components(n, pairs, labels):
    """Plain BFS over linked same-label nodes; -1 for labels below zero."""
    nbrs = [[] for _ in range(n)]
    for a, b in pairs:
        nbrs[a].append(b)
        nbrs[b].append(a)
    comp = [-1] * n
    next_id = 0
    for s in range(n):
        if comp[s] >= 0 or labels[s] < 0:
            continue
        comp[s] = next_id
        queue = [s]
        for u in queue:
            for w in nbrs[u]:
                if comp[w] < 0 and labels[w] == labels[s]:
                    comp[w] = next_id
                    queue.append(w)
        next_id += 1
    return np.array(comp)


def bfs_lowest(n, i, j):
    """Lowest node id of each node's component, by ``bfs_components``."""
    comp = bfs_components(n, zip(np.asarray(i).tolist(),
                                 np.asarray(j).tolist()), np.zeros(n))
    # components are numbered in the order of their lowest node
    _, lowest = np.unique(comp, return_index=True)
    return lowest[comp]


def assert_lowest_ids(n, i, j):
    got = label_components(n, i, j)
    assert got.dtype == np.int64
    assert np.array_equal(got, csgraph_label_components(n, i, j))
    assert np.array_equal(got, bfs_lowest(n, i, j))
    return got


def test_label_components_matches_bfs():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        edges = int(rng.integers(0, 2 * n))
        assert_lowest_ids(n, *rng.integers(0, n, (2, edges)))
    assert len(label_components(0, [], [])) == 0


def test_label_components_matches_csgraph_and_bfs():
    rng = np.random.default_rng(33)
    n = 10_000
    up = np.arange(n - 1)
    shuffled = rng.permutation(n - 1)
    ids = rng.permutation(n)
    cases = {
        "path, ascending edges": (n, up, up + 1),
        "path, descending edges": (n, up[::-1] + 1, up[::-1]),
        "path, shuffled edges": (n, up[shuffled], up[shuffled] + 1),
        "path through shuffled ids": (n, ids[:-1], ids[1:]),
        "star": (n, np.full(n - 1, 4321), np.delete(np.arange(n), 4321)),
        "self loops": (6, [0, 3, 3, 5], [0, 3, 4, 5]),
        "duplicate edges": (5, [4, 1, 4, 1, 2], [1, 4, 1, 4, 2]),
        "isolated nodes": (9, [7, 2], [2, 8]),
        "no edges": (4, [], []),
        "int32 arrays": (n, up[shuffled].astype(np.int32),
                         (up[shuffled] + 1).astype(np.int32)),
    }
    for name, (size, i, j) in cases.items():
        got = assert_lowest_ids(size, i, j)
        assert len(got) == size, name
    assert (label_components(n, up, up + 1) == 0).all()
    assert label_components(9, [7, 2], [2, 8]).tolist() == [
        0, 1, 2, 3, 4, 5, 6, 2, 2]
    assert label_components(0, np.zeros(0, np.int32), []).dtype == np.int64


def test_label_components_on_a_tile_fan_corner_graph(monkeypatch):
    graphs = []

    def recorded(n, i, j):
        graphs.append((n, np.array(i), np.array(j)))
        return label_components(n, i, j)

    monkeypatch.setattr(repair, "label_components", recorded)
    mesh = synth_tile(TileParams(ground_size=16.0, ground_res=32, n_boxes=2,
                                 n_trees=2, n_vehicles=1, seed=0))
    welded, _ = repair.weld_vertices(mesh, 1e-6)
    repair.repair_nonmanifold(welded)
    n, i, j = graphs[-1]                        # _fan_corners' corner graph
    assert n == 3 * mesh.n_faces and len(i) > n // 2
    for n, i, j in graphs:
        assert_lowest_ids(n, i, j)


def test_components_match_bfs_with_unlabeled():
    rng = np.random.default_rng(32)
    for _ in range(40):
        m = grid_mesh(int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        perm = rng.permutation(m.n_faces)     # face order decides the ids
        m = TriangleMesh(vertices=m.vertices, faces=m.faces[perm])
        labels = rng.integers(-1, int(rng.integers(1, 4)), m.n_faces)
        comp = face_connected_components(m, build_adjacency(m), labels)
        want = bfs_components(m.n_faces, brute_force_adjacency(m), labels)
        assert np.array_equal(comp, want)
        assert comp.dtype == np.int32


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_unique_ints_equals_np_unique(dtype):
    rng = np.random.default_rng(13)
    for values in (rng.integers(-5, 5, 1000), rng.integers(0, 10**9, 70000),
                   rng.integers(0, 50, (40, 3)), np.arange(7)[::-1],
                   np.full(4, 3), np.zeros(0), np.zeros((0, 2))):
        values = values.astype(dtype)
        got, want = unique_ints(values), np.unique(values)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
