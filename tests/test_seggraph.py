"""Segment graph construction tests."""

import json

import numpy as np
import pytest

from pssmesh.adjacency import (build_adjacency, face_connected_components,
                               segment_index)
from pssmesh.config import ConfigError, PipelineConfig
from pssmesh.features import FaceFeatures, face_channel_names
from pssmesh.mesh import TriangleMesh
from pssmesh.overseg import NONPLANAR, PLANAR, Segmentation
from pssmesh.segfeatures import compute_segment_features
from pssmesh.seggraph import (
    EDGE_EXMAT,
    EDGE_GROUND,
    EDGE_PARALLEL,
    EDGE_PROXIMITY,
    SegmentGraph,
    _proximity_points,
    build_nodes,
    build_segment_graph,
    compute_edge_features,
    connecting_ground_edges,
    edge_log_ratios,
    exmat_edges,
    export_graph,
    import_graph,
    knn_pairs,
    parallelism_edges,
    proximity_edges,
)
from pssmesh.synth import TileParams, synth_tile

from conftest import grid_mesh


def fit_plane(points):
    mu = points.mean(axis=0)
    centered = points - mu
    evals, evecs = np.linalg.eigh(centered.T @ centered)
    n = evecs[:, 0]
    return np.array([n[0], n[1], n[2], -float(n @ mu)])


def components_segmentation(mesh, adjacency, planar_mask=None):
    """Segmentation whose segments are the labeled components of the mesh."""
    comps = face_connected_components(mesh, adjacency, mesh.face_label)
    n = comps.max() + 1
    types = np.zeros(n, dtype=np.int8)
    planes = np.zeros((n, 4))
    for k in range(n):
        pts = mesh.vertices[np.unique(mesh.faces[comps == k])]
        planes[k] = fit_plane(pts)
        if planar_mask is not None and not planar_mask[k]:
            types[k] = NONPLANAR
    return Segmentation(face_segment=comps.astype(np.int32),
                        segment_type=types, planes=planes)


def index_of(mesh, adjacency, seg):
    """The segment index of a Segmentation."""
    return segment_index(mesh, adjacency, seg.face_segment, seg.n_segments)


def graph_of(nodes, **kwargs):
    """SegmentGraph whose node k is nodes[k] = (type, centroid, plane,
    features)."""
    types, centroids, planes, features = zip(*nodes)
    return SegmentGraph(segment_type=np.array(types, dtype=np.int64),
                        planes=np.array(planes, dtype=np.float64),
                        centroids=np.array(centroids, dtype=np.float64),
                        features=np.array(features, dtype=np.float64),
                        **kwargs)


def plane_node(normal, seg_type=PLANAR, z=0.0):
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    return (seg_type, np.array([0.0, 0.0, z]),
            np.array([n[0], n[1], n[2], -z * n[2]]), np.ones(3))


def fake_features(mesh):
    names = face_channel_names(PipelineConfig())
    vals = np.random.default_rng(0).random((mesh.n_faces, len(names)))
    return FaceFeatures(values=vals, channel_names=names)


# ------------------------------------------------------------- parallelism


def test_parallel_horizontal_roofs():
    g = graph_of([plane_node([0, 0, 1], z=3.0),
                  plane_node([0, 0, 1], z=5.0)])
    assert parallelism_edges(g, 5.0) == 1
    assert g.edges[(0, 1)].types == {EDGE_PARALLEL}


def test_parallel_threshold_blocks_ten_degrees():
    tilted = [np.sin(np.radians(10.0)), 0.0, np.cos(np.radians(10.0))]
    g = graph_of([plane_node([0, 0, 1]), plane_node(tilted)])
    assert parallelism_edges(g, 5.0) == 0
    assert g.n_edges == 0


def test_parallel_sign_folding():
    g = graph_of([plane_node([0, 0, 1]), plane_node([0, 0, -1])])
    assert parallelism_edges(g, 5.0) == 1


def test_parallel_skips_nonplanar():
    g = graph_of([plane_node([0, 0, 1]),
                  plane_node([0, 0, 1], seg_type=NONPLANAR)])
    assert parallelism_edges(g, 5.0) == 0


def test_parallel_idempotent():
    g = graph_of([plane_node([0, 0, 1]), plane_node([0, 0, 1])])
    parallelism_edges(g, 5.0)
    first = {k: set(v.types) for k, v in g.edges.items()}
    parallelism_edges(g, 5.0)
    assert {k: set(v.types) for k, v in g.edges.items()} == first


def test_parallel_matches_all_pairs():
    rng = np.random.default_rng(4)
    for n in (1, 2, 30):
        normals = rng.normal(size=(n, 3))
        normals[n // 2:] = [0.0, 0.0, 1.0]      # many exactly parallel
        types = rng.choice([PLANAR, NONPLANAR], n, p=[0.8, 0.2])
        g = graph_of([plane_node(v, t) for v, t in zip(normals, types)])
        want = {(a, b) for a in range(n) for b in range(a + 1, n)
                if types[a] == types[b] == PLANAR
                and abs(g.planes[a, :3] @ g.planes[b, :3])
                > np.cos(np.radians(5.0))}
        assert parallelism_edges(g, 5.0) == len(want)
        assert set(g.edges) == want


# ---------------------------------------------------------------- nodes


def test_nodes_of_zero_area_segment_weigh_faces_equally():
    base = grid_mesh(2, 2)
    m = TriangleMesh(vertices=base.vertices,
                     faces=np.vstack([base.faces, [0, 0, 1], [4, 8, 8]]))
    seg = np.zeros(m.n_faces, dtype=int)
    seg[-2:] = 1
    centroids = build_nodes(m, segment_index(m, build_adjacency(m), seg, 2))
    area = m.face_area[:-2]
    np.testing.assert_allclose(
        centroids[0], (area[:, None] * m.face_centroid[:-2]).sum(0)
        / area.sum())
    np.testing.assert_allclose(centroids[1],
                               m.face_centroid[-2:].mean(axis=0))


# ------------------------------------------------------- connecting ground


def box_on_ground_scene():
    mesh = synth_tile(TileParams(seed=1, ground_res=16, n_boxes=1, n_trees=0,
                                 n_vehicles=0))
    adj = build_adjacency(mesh)
    seg = components_segmentation(mesh, adj)
    return mesh, adj, seg


def test_box_links_to_ground():
    mesh, adj, seg = box_on_ground_scene()
    g = graph_of([(PLANAR, np.zeros(3), seg.planes[k], np.ones(2))
                  for k in range(seg.n_segments)])
    added = connecting_ground_edges(g, mesh,
                                    index_of(mesh, adj, seg),
                                    radius=30.0)
    assert added >= 1
    assert (0, 1) in g.edges and EDGE_GROUND in g.edges[(0, 1)].types
    assert g.metadata["groundless"] == []


def stacked_slab_mesh(levels):
    verts = []
    faces = []
    labels = []
    for idx, (z, half) in enumerate(levels):
        base = len(verts)
        verts += [[-half, -half, z], [half, -half, z],
                  [-half, half, z], [half, half, z]]
        faces += [[base, base + 1, base + 2], [base + 1, base + 3, base + 2]]
        labels += [idx, idx]
    return TriangleMesh(vertices=np.array(verts, dtype=float),
                        faces=np.array(faces, dtype=np.int32),
                        face_label=np.array(labels, dtype=np.int32))


def test_stacked_slabs_pick_lowest():
    mesh = stacked_slab_mesh([(0.0, 4.0), (2.0, 2.0), (5.0, 1.0)])
    adj = build_adjacency(mesh)
    seg = components_segmentation(mesh, adj)
    g = graph_of([(PLANAR, np.zeros(3), seg.planes[k], np.ones(2))
                  for k in range(seg.n_segments)])
    connecting_ground_edges(g, mesh, index_of(mesh, adj, seg),
                            radius=30.0)
    # the top slab must attach to the lowest slab, not the middle one
    assert (0, 2) in g.edges
    assert (1, 2) not in g.edges


def test_groundless_when_no_planar_candidates():
    mesh, adj, seg = box_on_ground_scene()
    nodes = [(NONPLANAR, np.zeros(3), seg.planes[k], np.ones(2))
             for k in range(seg.n_segments)]
    g = graph_of(nodes)
    assert connecting_ground_edges(g, mesh,
                                   index_of(mesh, adj, seg),
                                   radius=30.0) == 0
    assert g.metadata["groundless"] == [0, 1]


def square(x, y, z, size):
    """Two-face axis-aligned square with its own four vertices."""
    verts = [[x, y, z], [x + size, y, z], [x, y + size, z],
             [x + size, y + size, z]]
    return np.array(verts, dtype=float), np.array([[0, 1, 2], [1, 3, 2]])


def ground_layout(rng):
    """Randomly labeled 6x6 grid plus loose squares; returns mesh and labels.

    Squares sit on integer xy corners at z 0, 1 or 2 with side 1 or 2, so
    mean z and area tie exactly between segments. The last two squares,
    far from the rest, have corners exactly 5 apart in xy (a 3-4-5 step).
    """
    grid = grid_mesh(6, 6)
    verts, faces = [grid.vertices], [grid.faces]
    labels = [rng.integers(-1, 4, grid.n_faces)]
    n_seg = 4
    pieces = [(*rng.integers(-8, 14, 2), rng.integers(0, 3),
               rng.integers(1, 3)) for _ in range(int(rng.integers(4, 10)))]
    pieces += [(99, 99, 0, 1), (103, 104, int(rng.integers(0, 3)), 1)]
    base = grid.n_vertices
    for x, y, z, size in pieces:
        v, f = square(x, y, z, size)
        verts.append(v)
        faces.append(f + base)
        labels.append(np.full(2, n_seg))
        base += 4
        n_seg += 1
    mesh = TriangleMesh(vertices=np.vstack(verts),
                        faces=np.vstack(faces).astype(np.int32))
    return mesh, np.concatenate(labels).astype(np.int32), n_seg


def brute_ground(mesh, adj, face_segment, planar, radius):
    """Ground of every segment (-1: none) by O(n^2) xy distances."""
    n_seg = len(planar)
    faces = [np.flatnonzero(face_segment == k) for k in range(n_seg)]
    verts = [set(mesh.faces[f].ravel().tolist()) for f in faces]
    probes = [set() for _ in range(n_seg)]
    for (u, v), (f0, f1) in zip(adj.edge_vertices.tolist(),
                                adj.edge_faces.tolist()):
        sides = {face_segment[f0], face_segment[f1] if f1 >= 0 else -2}
        if len(sides) == 2:
            for k in sides:
                if k >= 0:
                    probes[k].update((u, v))
    xy = mesh.vertices[:, :2]
    mean_z = [mesh.face_centroid[f, 2].mean() for f in faces]
    area = [mesh.face_area[f].sum() for f in faces]
    ground = []
    ties = set()            # "z": mean z decided by area, "area": by id
    for k in range(n_seg):
        p = xy[sorted(probes[k] or verts[k])]
        cands = [c for c in range(n_seg) if planar[c] and c != k
                 and (np.linalg.norm(p[:, None] - xy[sorted(verts[c])][None],
                                     axis=2) <= radius).any()]
        best = min(cands, key=lambda c: (mean_z[c], -area[c], c),
                   default=-1)
        ground.append(best)
        level = [c for c in cands if mean_z[c] == mean_z[best]]
        if len(level) > 1:
            ties.add("z")
        if sum(area[c] == area[best] for c in level) > 1:
            ties.add("area")
    return ground, ties


def test_ground_matches_brute_force():
    rng = np.random.default_rng(5)
    ties = set()
    for trial in range(40):
        mesh, face_segment, n_seg = ground_layout(rng)
        adj = build_adjacency(mesh)
        planar = rng.random(n_seg) < 0.7
        planar[-1] = True           # the far end of the 3-4-5 step
        seg = Segmentation(face_segment=face_segment,
                           segment_type=np.where(planar, PLANAR, NONPLANAR),
                           planes=np.zeros((n_seg, 4)))
        g = graph_of([(int(seg.segment_type[k]), np.zeros(3), np.zeros(4),
                       np.ones(2)) for k in range(n_seg)])
        added = connecting_ground_edges(g, mesh,
                                        index_of(mesh, adj, seg),
                                        radius=5.0)
        ground, t = brute_ground(mesh, adj, face_segment, planar, 5.0)
        ties |= t
        expect = {(min(k, c), max(k, c)) for k, c in enumerate(ground)
                  if c >= 0}
        assert set(g.edges) == expect, trial
        assert added == sum(c >= 0 for c in ground)
        assert g.metadata["groundless"] == [k for k, c in enumerate(ground)
                                            if c < 0]
        assert ground[n_seg - 2] == n_seg - 1   # found exactly at radius
    assert ties == {"z", "area"}


# ------------------------------------------------------------------- exmat


def facing_walls(gap=2.0, size=4.0, step=0.5):
    """Two vertical square walls whose normals face each other."""
    n = int(size / step)
    verts = []
    faces = []
    labels = []
    for wall, (x, flip) in enumerate([(0.0, False), (gap, True)]):
        base = len(verts)
        for i in range(n + 1):
            for j in range(n + 1):
                verts.append([x, i * step, j * step])
        for i in range(n):
            for j in range(n):
                a = base + i * (n + 1) + j
                b = base + (i + 1) * (n + 1) + j
                tri1 = [a, b, b + 1]
                tri2 = [a, b + 1, a + 1]
                if flip:
                    tri1 = tri1[::-1]
                    tri2 = tri2[::-1]
                faces.append(tri1)
                faces.append(tri2)
                labels += [wall, wall]
    return TriangleMesh(vertices=np.array(verts, dtype=float),
                        faces=np.array(faces, dtype=np.int32),
                        face_label=np.array(labels, dtype=np.int32))


def test_facing_walls_normals():
    mesh = facing_walls()
    nrm = mesh.face_normal
    lab = mesh.face_label
    assert np.allclose(nrm[lab == 0], [1, 0, 0])
    assert np.allclose(nrm[lab == 1], [-1, 0, 0])


def test_exmat_bridges_facing_walls():
    mesh = facing_walls()
    adj = build_adjacency(mesh)
    seg = components_segmentation(mesh, adj)
    g = graph_of([(PLANAR, np.zeros(3), seg.planes[k], np.ones(2))
                  for k in range(seg.n_segments)])
    added = exmat_edges(g, mesh, index_of(mesh, adj, seg), density=10.0,
                        seed=0)
    assert added > 0
    assert (0, 1) in g.edges and EDGE_EXMAT in g.edges[(0, 1)].types


def test_exmat_ball_tangency_between_walls():
    from pssmesh.medial import shrinking_ball_transform
    from pssmesh.sampling import sample_points

    mesh = facing_walls()
    sample = sample_points(mesh, 10.0, 0)
    balls = shrinking_ball_transform(sample.positions, sample.normals,
                                     orientation="exterior")
    touched = balls.kept & (balls.touch_index >= 0)
    assert touched.any()
    for i in np.flatnonzero(touched):
        c = balls.centers[i]
        r = balls.radii[i]
        assert abs(np.linalg.norm(c - sample.positions[i]) - r) < 1e-9 * r
        q = sample.positions[balls.touch_index[i]]
        assert abs(np.linalg.norm(c - q) - r) < 1e-9 * max(r, 1.0)
        # the gap between the walls is 2, so a tangent ball spans at least 1
        assert r >= 1.0 - 1e-9


def test_exmat_isolated_sphere_no_edges():
    from pssmesh.synth import icosphere
    v, f = icosphere(radius=3.0, subdivisions=3)
    mesh = TriangleMesh(vertices=v, faces=f.astype(np.int32))
    comps = np.zeros(mesh.n_faces, dtype=np.int32)
    # split the sphere into two hemisphere segments: still one convex object
    comps[mesh.face_centroid[:, 2] > 0] = 1
    seg = Segmentation(face_segment=comps,
                       segment_type=np.array([NONPLANAR, NONPLANAR],
                                             dtype=np.int8),
                       planes=np.zeros((2, 4)))
    g = graph_of([(NONPLANAR, np.zeros(3), np.zeros(4), np.ones(2))
                  for k in range(2)])
    exmat_edges(g, mesh, index_of(mesh, build_adjacency(mesh), seg),
                density=10.0, seed=0)
    # exterior balls of a convex body never contact a second surface point,
    # so nothing bridges the two hemispheres
    assert g.n_edges == 0


def test_exmat_single_segment_no_edges():
    mesh = grid_mesh(8, 8, dx=0.5)
    adj = build_adjacency(mesh)
    seg = Segmentation(face_segment=np.zeros(mesh.n_faces, dtype=np.int32),
                       segment_type=np.array([PLANAR], dtype=np.int8),
                       planes=np.array([[0.0, 0.0, 1.0, 0.0]]))
    g = graph_of([(PLANAR, np.zeros(3), seg.planes[0], np.ones(2))])
    assert exmat_edges(g, mesh, index_of(mesh, adj, seg), density=10.0,
                       seed=0) == 0
    assert g.n_edges == 0


# --------------------------------------------------------------- proximity


def test_proximity_shared_edge():
    ny = 2
    mesh = grid_mesh(4, ny)
    col = (np.arange(mesh.n_faces) // 2) // ny
    labels = (col >= 2).astype(np.int32)
    seg = Segmentation(face_segment=labels,
                       segment_type=np.zeros(2, dtype=np.int8),
                       planes=np.tile([0.0, 0.0, 1.0, 0.0], (2, 1)))
    g = graph_of([(PLANAR, np.zeros(3), seg.planes[k], np.ones(2))
                  for k in range(2)])
    index = index_of(mesh, build_adjacency(mesh), seg)
    assert proximity_edges(g, mesh, index, k=16, cutoff_factor=16.0) > 0
    assert set(g.edges) == {(0, 1)}
    assert g.metadata == {}


def test_proximity_knn_cutoff_blocks_distant_clusters():
    near = grid_mesh(2, 1)
    far_verts = near.vertices + np.array([1000.0, 0.0, 0.0])
    verts = np.vstack([near.vertices, far_verts])
    faces = np.vstack([near.faces, near.faces + len(near.vertices)])
    mesh = TriangleMesh(vertices=verts, faces=faces.astype(np.int32))
    labels = np.concatenate([np.zeros(near.n_faces, dtype=np.int32),
                             np.ones(near.n_faces, dtype=np.int32)])
    seg = Segmentation(face_segment=labels,
                       segment_type=np.zeros(2, dtype=np.int8),
                       planes=np.tile([0.0, 0.0, 1.0, 0.0], (2, 1)))
    # each cluster has 10 points, so k=16 reaches across; the spacing
    # cutoff is what must reject the 1 km pairs
    g = graph_of([(PLANAR, np.zeros(3), seg.planes[k], np.ones(2))
                  for k in range(2)])
    proximity_edges(g, mesh, index_of(mesh, build_adjacency(mesh), seg),
                    k=16, cutoff_factor=16.0)
    assert (0, 1) not in g.edges


def test_knn_pairs_symmetric():
    rng = np.random.default_rng(2)
    pts = rng.random((40, 3))
    pairs = knn_pairs(pts, np.arange(40), k=4, cutoff_factor=16.0)
    assert all(a < b for a, b in pairs.tolist())


def test_knn_pairs_match_distance_matrix():
    rng = np.random.default_rng(4)
    for n, k, factor in [(40, 4, 1.5), (41, 6, 3.0), (9, 16, 16.0),
                         (60, 3, 1.2)]:
        pts = rng.random((n, 3)) * [8.0, 8.0, 2.0]
        d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        order = np.argsort(d, axis=1)[:, 1:k + 1]    # column 0 is the point
        cutoff = factor * np.median(np.sort(d, axis=1)[:, 1])
        expect = {(min(i, j), max(i, j)) for i in range(n)
                  for j in order[i].tolist() if d[i, j] <= cutoff}
        pairs = knn_pairs(pts, np.arange(n), k=k, cutoff_factor=factor)
        assert pairs.dtype == np.int64 and pairs.shape[1] == 2
        assert set(map(tuple, pairs.tolist())) == expect
        assert len(expect) == len(pairs)                 # rows are distinct
        assert (np.diff(pairs[:, 0] * n + pairs[:, 1]) > 0).all()
        # same-tag pairs are dropped, the rest kept in the same order
        tags = rng.integers(0, 4, n)
        cross = pairs[tags[pairs[:, 0]] != tags[pairs[:, 1]]]
        assert knn_pairs(pts, tags, k=k, cutoff_factor=factor).tobytes() \
            == cross.tobytes()


def test_proximity_points_take_lowest_segmented_face():
    rng = np.random.default_rng(8)
    for _ in range(20):
        mesh = grid_mesh(5, 4)
        mesh.faces = mesh.faces[rng.permutation(mesh.n_faces)]
        face_segment = rng.integers(-1, 4, mesh.n_faces).astype(np.int32)
        points, tags = _proximity_points(mesh, face_segment)
        vert_tag = []
        for v in range(mesh.n_vertices):
            segmented = [f for f in range(mesh.n_faces)
                         if v in mesh.faces[f] and face_segment[f] >= 0]
            vert_tag.append(face_segment[min(segmented)] if segmented else -1)
        all_tags = np.concatenate([vert_tag, face_segment])
        keep = all_tags >= 0
        all_points = np.vstack([mesh.vertices, mesh.face_centroid])
        assert (tags == all_tags[keep]).all()
        assert (points == all_points[keep]).all()


# ----------------------------------------------------------- edge features


def surrounded_cell_scene():
    """Center cell of a 3x3 grid as one segment inside another."""
    ny = 3
    mesh = grid_mesh(3, ny)
    adj = build_adjacency(mesh)
    seg_arr = np.zeros(mesh.n_faces, dtype=np.int32)
    c = 1 * ny + 1
    seg_arr[2 * c] = 1
    seg_arr[2 * c + 1] = 1
    seg = Segmentation(face_segment=seg_arr,
                       segment_type=np.zeros(2, dtype=np.int8),
                       planes=np.tile([0.0, 0.0, 1.0, 0.0], (2, 1)))
    return mesh, adj, seg


def test_edge_features_log_ratio_and_offsets():
    mesh, adj, seg = surrounded_cell_scene()
    g = graph_of([
        (PLANAR, np.zeros(3), seg.planes[0], np.array([2.0, 1.0])),
        (PLANAR, np.zeros(3), seg.planes[1], np.array([1.0, 1.0])),
    ], channel_names=["alpha", "beta"])
    g.add_pairs([[0, 1]], EDGE_PROXIMITY)
    compute_edge_features(g, mesh, index_of(mesh, adj, seg))
    (ratio,) = edge_log_ratios(g)
    assert abs(ratio[0] - np.log((2.0 + 1e-6) / (1.0 + 1e-6))) < 1e-12
    assert ratio[1] == 0.0
    assert np.isfinite(ratio).all() and g.edges[(0, 1)].offset_std >= 0.0


def test_edge_offset_zero_for_enclosed_segment():
    mesh, adj, seg = surrounded_cell_scene()
    g = graph_of([
        (PLANAR, np.zeros(3), seg.planes[0], np.ones(2)),
        (PLANAR, np.zeros(3), seg.planes[1], np.ones(2)),
    ])
    g.add_pairs([[1, 0]], EDGE_PROXIMITY)  # order normalized to (0 -> 1)? no:
    # the pair key is (min, max); offsets run from segment 1's boundary,
    # which is entirely shared with segment 0, only when 1 is the lower id.
    # Here the lower id is 0, whose boundary includes the outer border.
    compute_edge_features(g, mesh, index_of(mesh, adj, seg))
    assert g.edges[(0, 1)].offset_mean > 0.0

    # flip roles: make the enclosed cell the lower id
    seg2 = Segmentation(face_segment=(1 - seg.face_segment).astype(np.int32),
                        segment_type=seg.segment_type, planes=seg.planes)
    g2 = SegmentGraph(segment_type=g.segment_type, planes=g.planes,
                      centroids=g.centroids, features=g.features)
    g2.add_pairs([[0, 1]], EDGE_PROXIMITY)
    compute_edge_features(g2, mesh, index_of(mesh, adj, seg2))
    assert g2.edges[(0, 1)].offset_mean == 0.0
    assert g2.edges[(0, 1)].offset_std == 0.0


def test_negative_channel_shifted_and_flagged():
    mesh, adj, seg = surrounded_cell_scene()
    g = graph_of([
        (PLANAR, np.zeros(3), seg.planes[0], np.array([-0.5, 1.0])),
        (PLANAR, np.zeros(3), seg.planes[1], np.array([0.5, 2.0])),
    ], channel_names=["mean_greenness", "area"])
    g.add_pairs([[0, 1]], EDGE_PROXIMITY)
    compute_edge_features(g, mesh, index_of(mesh, adj, seg))
    assert g.metadata["shifted_channels"] == ["mean_greenness"]
    (ratio,) = edge_log_ratios(g)
    expected = np.log((0.0 + 1e-6 + 1e-6) / (1.0 + 1e-6 + 1e-6))
    assert abs(ratio[0] - expected) < 1e-12
    assert np.isfinite(ratio).all()


def test_self_edge_rejected():
    g = graph_of([plane_node([0, 0, 1])])
    with pytest.raises(ValueError, match="self-edge"):
        g.add_pairs([[0, 0]], EDGE_PARALLEL)


@pytest.mark.parametrize("pair", [[0, 2], [-1, 1]])
def test_node_id_outside_graph_rejected(pair):
    g = graph_of([plane_node([0, 0, 1]), plane_node([0, 0, 1])])
    with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
        g.add_pairs([pair], EDGE_PARALLEL)
    assert g.edges == {}


# ----------------------------------------------------------------- export


def test_export_empty_graph(tmp_path):
    path = tmp_path / "g.json"
    export_graph(SegmentGraph(segment_type=np.zeros(0, dtype=np.int64),
                              planes=np.zeros((0, 4)),
                              centroids=np.zeros((0, 3)),
                              features=np.zeros((0, 0))), path)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc == {"version": 2, "channels": [], "nodes": [], "edges": []}


def same_floats(x, y):
    """Bit-for-bit equality of two float64 arrays, shape included."""
    x, y = np.asarray(x, np.float64), np.asarray(y, np.float64)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def graphs_equal(g1, g2):
    if g1.n_nodes != g2.n_nodes or set(g1.edges) != set(g2.edges):
        return False
    if not np.array_equal(g1.segment_type, g2.segment_type):
        return False
    if not (same_floats(g1.centroids, g2.centroids)
            and same_floats(g1.planes, g2.planes)
            and same_floats(g1.features, g2.features)):
        return False
    for key in g1.edges:
        e1, e2 = g1.edges[key], g2.edges[key]
        if e1.types != e2.types or e1.offset_mean != e2.offset_mean \
                or e1.offset_std != e2.offset_std:
            return False
    if not same_floats(edge_log_ratios(g1), edge_log_ratios(g2)):
        return False
    return g1.metadata == g2.metadata and g1.channel_names == g2.channel_names


def test_export_roundtrip(tmp_path):
    mesh, adj, seg = surrounded_cell_scene()
    g = graph_of([
        (PLANAR, np.array([0.1, 0.2, 0.3]), seg.planes[0],
         np.array([2.0, 1.0])),
        (NONPLANAR, np.array([1.0, 2.0, 3.0]), seg.planes[1],
         np.array([1.0, 4.0])),
    ], channel_names=["alpha", "beta"])
    g.add_pairs([[0, 1]], EDGE_PROXIMITY)
    g.add_pairs([[0, 1]], EDGE_PARALLEL)
    compute_edge_features(g, mesh, index_of(mesh, adj, seg))
    path = tmp_path / "graph.json"
    export_graph(g, path)
    assert graphs_equal(g, import_graph(path))
    doc = json.loads(path.read_text())
    assert doc["channels"] == ["alpha", "beta"]
    assert doc["nodes"][1]["features"] == [1.0, 4.0]
    assert set(doc["edges"][0]) == {"a", "b", "types", "offset_mean",
                                    "offset_std"}


GOOD_GRAPH = {"version": 2, "channels": ["alpha"],
              "nodes": [{"id": 0, "type": 0, "centroid": [0, 0, 0],
                         "plane": [0, 0, 1, 0], "features": [1.0]}],
              "edges": []}
TWO_NODES = [GOOD_GRAPH["nodes"][0], {**GOOD_GRAPH["nodes"][0], "id": 1}]
EDGE = {"a": 0, "b": 1, "types": [EDGE_PARALLEL], "offset_mean": 0.0,
        "offset_std": 0.0}


@pytest.mark.parametrize("text", [
    json.dumps({**GOOD_GRAPH, "version": 1}),
    json.dumps(GOOD_GRAPH)[:40],
    json.dumps([GOOD_GRAPH]),
    json.dumps({k: v for k, v in GOOD_GRAPH.items() if k != "channels"}),
    json.dumps({**GOOD_GRAPH, "edges": [{"a": 0, "b": 1}]}),
    json.dumps({**GOOD_GRAPH, "edges": [
        {"a": -1, "b": 0, "types": [EDGE_PARALLEL], "offset_mean": 0.0,
         "offset_std": 0.0}]}),
    json.dumps({**GOOD_GRAPH, "nodes": [
        {**GOOD_GRAPH["nodes"][0], "id": 3}]}),
    json.dumps({**GOOD_GRAPH, "nodes": TWO_NODES, "edges": [EDGE, EDGE]}),
    *(json.dumps({**GOOD_GRAPH, "nodes": TWO_NODES,
                  "edges": [{**EDGE, "types": types}]})
      for types in ("exmat", [], ["ground"], [EDGE_EXMAT, EDGE_EXMAT])),
    json.dumps({**GOOD_GRAPH, "nodes": [
        {**GOOD_GRAPH["nodes"][0], "type": 9}]}),
    json.dumps({**GOOD_GRAPH, "nodes": [
        {**GOOD_GRAPH["nodes"][0], "id": 0.9}]}),
    json.dumps({**GOOD_GRAPH, "nodes": [
        {**GOOD_GRAPH["nodes"][0], "type": True}]}),
    json.dumps({**GOOD_GRAPH, "nodes": TWO_NODES,
                "edges": [{**EDGE, "a": 0.2}]}),
    json.dumps({**GOOD_GRAPH, "nodes": TWO_NODES,
                "edges": [{**EDGE, "b": "1"}]}),
], ids=["version-1", "truncated", "not-an-object", "missing-channels",
        "missing-edge-key", "edge-id-out-of-range", "node-id-out-of-order",
        "edge-listed-twice", "types-string", "types-empty", "types-unknown",
        "types-repeated", "node-type-9", "node-id-float", "node-type-true",
        "edge-end-float", "edge-end-string"])
def test_import_graph_rejects_bad_file(tmp_path, text):
    path = tmp_path / "graph.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        import_graph(path)
    assert str(err.value).startswith(f"{path}: ")


def test_import_graph_reads_good_file(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(GOOD_GRAPH))
    graph = import_graph(path)
    assert graph.channel_names == ["alpha"] and graph.n_edges == 0
    assert same_floats(graph.features[0], [1.0])
    assert edge_log_ratios(graph).shape == (0, 1)
    path.write_text(json.dumps({**GOOD_GRAPH, "nodes": TWO_NODES,
                                "edges": [EDGE]}))
    assert import_graph(path).edges[0, 1].types == {EDGE_PARALLEL}


def test_graph_counts_on_tile():
    mesh = synth_tile(TileParams(seed=1, ground_res=16, n_boxes=2, n_trees=1,
                                 n_vehicles=1))
    adj = build_adjacency(mesh)
    planar = []
    comps = face_connected_components(mesh, adj, mesh.face_label)
    from pssmesh.synth import CLASS_VEGETATION
    for k in range(comps.max() + 1):
        lab = mesh.face_label[comps == k][0]
        planar.append(lab != CLASS_VEGETATION)
    seg = components_segmentation(mesh, adj, planar_mask=planar)
    index = index_of(mesh, adj, seg)
    feats = compute_segment_features(mesh, adj, index, fake_features(mesh))
    graph = build_segment_graph(mesh, seg, index, feats,
                                PipelineConfig(sampling_density=2.0))
    assert graph.n_nodes == seg.n_segments
    assert graph.n_edges > 0
    assert all(a < b for (a, b) in graph.edges)
    # every box/vehicle node is linked to the ground node 0
    for k in range(1, seg.n_segments):
        if planar[k]:
            assert (0, k) in graph.edges


def test_rebuild_after_segment_removal():
    mesh = synth_tile(TileParams(seed=1, ground_res=8, n_boxes=2, n_trees=0,
                                 n_vehicles=0))
    adj = build_adjacency(mesh)
    seg = components_segmentation(mesh, adj)
    index = index_of(mesh, adj, seg)
    feats = compute_segment_features(mesh, adj, index, fake_features(mesh))
    g_full = build_segment_graph(mesh, seg, index, feats)
    drop = 2
    keep = seg.face_segment != drop
    sub_faces = mesh.faces[keep]
    used = np.unique(sub_faces)
    remap = np.full(mesh.n_vertices, -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    mesh2 = TriangleMesh(vertices=mesh.vertices[used],
                         faces=remap[sub_faces].astype(np.int32),
                         face_label=mesh.face_label[keep])
    adj2 = build_adjacency(mesh2)
    seg2 = components_segmentation(mesh2, adj2)
    index2 = index_of(mesh2, adj2, seg2)
    feats2 = compute_segment_features(mesh2, adj2, index2,
                                      fake_features(mesh2))
    g_sub = build_segment_graph(mesh2, seg2, index2, feats2)
    assert g_sub.n_nodes == g_full.n_nodes - 1
    assert all(drop not in key for key in g_sub.edges)
