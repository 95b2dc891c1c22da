"""Segment-level feature aggregation tests."""

import numpy as np
import pytest

from pssmesh.adjacency import build_adjacency, segment_index
from pssmesh.config import PipelineConfig
from pssmesh.features import FaceFeatures, face_channel_names
from pssmesh.mesh import TriangleMesh
from pssmesh.segfeatures import (
    HIST_BINS,
    _boundary_loops,
    _straightness,
    compute_segment_features,
    segment_channel_names,
)

from conftest import grid_mesh, two_triangle_strip
from oracles import stacked_segment_stds


def fake_face_features(mesh, rng=None, color_missing=False):
    names = face_channel_names(PipelineConfig())
    rng = rng or np.random.default_rng(0)
    vals = rng.random((mesh.n_faces, len(names)))
    h = names.index("color_h")
    vals[:, h] *= 360.0
    return FaceFeatures(values=vals, channel_names=names,
                        color_missing=color_missing)


def segment_features(mesh, adjacency, face_segment, face_features):
    """compute_segment_features of a face -> segment id array."""
    seg = np.asarray(face_segment)
    index = segment_index(mesh, adjacency, seg, int(seg.max()) + 1)
    return compute_segment_features(mesh, adjacency, index, face_features)


def test_channel_layout():
    names = segment_channel_names(face_channel_names(PipelineConfig()))
    assert len(names) == 27 * 2 + 7 + 125
    assert names[0] == "mean_linearity_r0.5"
    assert "compactness" in names and "hsv_hist_4_4_4" in names


def test_unit_square_compactness_and_shape_index():
    mesh = two_triangle_strip()
    adj = build_adjacency(mesh)
    sf = segment_features(mesh, adj, np.zeros(2, dtype=int),
                                  fake_face_features(mesh))
    assert sf.channel("area")[0] == 1.0
    assert sf.channel("circumference")[0] == 4.0
    assert np.isclose(sf.channel("compactness")[0], np.pi / 4.0)
    assert sf.channel("shape_index")[0] == 4.0


def test_planar_segment_zero_plane_distance():
    mesh = grid_mesh(3, 3)
    adj = build_adjacency(mesh)
    sf = segment_features(mesh, adj, np.zeros(mesh.n_faces, dtype=int),
                                  fake_face_features(mesh))
    assert sf.channel("plane_fit_distance")[0] == 0.0
    assert sf.channel("vertical_extent")[0] == 0.0


def test_l_shape_less_compact_than_square():
    # segment 0: four cells as a 2x2 square vs four cells as an L
    ny = 2
    mesh = grid_mesh(3, ny)
    adj = build_adjacency(mesh)
    feats = fake_face_features(mesh)

    def cp(cells):
        seg = np.ones(mesh.n_faces, dtype=int)
        for (i, j) in cells:
            c = i * ny + j
            seg[2 * c] = 0
            seg[2 * c + 1] = 0
        sf = segment_features(mesh, adj, seg, feats)
        assert sf.channel("area")[0] == 4.0
        return sf.channel("compactness")[0]

    square = cp([(0, 0), (0, 1), (1, 0), (1, 1)])
    ell = cp([(0, 0), (1, 0), (2, 0), (0, 1)])
    assert ell < square


def test_circumference_counts_cross_and_border():
    mesh = grid_mesh(2, 1)
    adj = build_adjacency(mesh)
    seg = np.array([0, 0, 1, 1])
    sf = segment_features(mesh, adj, seg, fake_face_features(mesh))
    # each unit cell: 3 border edges plus the shared cross edge
    assert sf.channel("circumference").tolist() == [4.0, 4.0]


def test_aggregation_matches_brute_force():
    rng = np.random.default_rng(7)
    mesh = grid_mesh(5, 4, dx=0.5)
    adj = build_adjacency(mesh)
    feats = fake_face_features(mesh, rng)
    seg = rng.integers(0, 4, mesh.n_faces)
    sf = segment_features(mesh, adj, seg, feats)
    areas = mesh.face_area
    for k in range(4):
        sel = seg == k
        w = areas[sel]
        for c, name in enumerate(feats.channel_names):
            x = feats.values[sel, c]
            mu = (w * x).sum() / w.sum()
            var = (w * (x - mu) ** 2).sum() / w.sum()
            assert abs(sf.channel(f"mean_{name}")[k] - mu) < 1e-9
            assert abs(sf.channel(f"std_{name}")[k] - np.sqrt(var)) < 1e-9


@pytest.mark.parametrize("unsegmented", [False, True])
def test_stds_match_stacked_deviations(unsegmented):
    # one channel at a time gives the bytes of the (F, C) deviation table,
    # faces outside every segment (id -1) included
    rng = np.random.default_rng(9)
    mesh = grid_mesh(6, 5, dx=0.5)
    adj = build_adjacency(mesh)
    feats = fake_face_features(mesh, rng)
    seg = rng.integers(0, 5, mesh.n_faces)
    if unsegmented:
        seg[::4] = -1
    index = segment_index(mesh, adj, seg, 5)
    sf = compute_segment_features(mesh, adj, index, feats)
    stds = sf.values[:, [sf.channel_names.index(f"std_{n}")
                         for n in feats.channel_names]]
    want = stacked_segment_stds(index, feats.values)
    assert stds.tobytes() == want.tobytes()


def test_histogram_normalized_and_placed():
    mesh = two_triangle_strip()
    adj = build_adjacency(mesh)
    names = face_channel_names(PipelineConfig())
    vals = np.zeros((2, len(names)))
    vals[:, names.index("color_h")] = 120.0
    vals[:, names.index("color_s")] = 1.0
    vals[:, names.index("color_v")] = 1.0
    feats = FaceFeatures(values=vals, channel_names=names)
    sf = segment_features(mesh, adj, np.zeros(2, dtype=int), feats)
    hist = sf.values[0, -HIST_BINS ** 3:]
    assert hist.sum() == 1.0
    assert sf.channel("hsv_hist_1_4_4")[0] == 1.0


def test_histogram_missing_colors_all_zero():
    mesh = two_triangle_strip()
    adj = build_adjacency(mesh)
    feats = fake_face_features(mesh, color_missing=True)
    sf = segment_features(mesh, adj, np.zeros(2, dtype=int), feats)
    assert (sf.values[0, -HIST_BINS ** 3:] == 0.0).all()


def test_histogram_invariant_under_face_reordering():
    rng = np.random.default_rng(9)
    mesh = grid_mesh(4, 3)
    adj = build_adjacency(mesh)
    feats = fake_face_features(mesh, rng)
    seg = rng.integers(0, 3, mesh.n_faces)
    sf1 = segment_features(mesh, adj, seg, feats)

    perm = rng.permutation(mesh.n_faces)
    mesh2 = TriangleMesh(vertices=mesh.vertices, faces=mesh.faces[perm])
    adj2 = build_adjacency(mesh2)
    feats2 = FaceFeatures(values=feats.values[perm],
                          channel_names=feats.channel_names)
    sf2 = segment_features(mesh2, adj2, seg[perm], feats2)
    np.testing.assert_allclose(sf1.values[:, -HIST_BINS ** 3:],
                               sf2.values[:, -HIST_BINS ** 3:], atol=1e-12)


def test_straightness_orders_loop_shapes():
    # an elongated segment boundary is straighter than a square one
    ny = 2
    mesh = grid_mesh(8, ny)
    adj = build_adjacency(mesh)
    feats = fake_face_features(mesh)
    thin = np.ones(mesh.n_faces, dtype=int)
    for i in range(8):
        thin[2 * (i * ny)] = 0          # the whole bottom row
        thin[2 * (i * ny) + 1] = 0
    sf_thin = segment_features(mesh, adj, thin, feats)

    square = np.ones(mesh.n_faces, dtype=int)
    for i in (0, 1):
        for j in (0, 1):
            c = i * ny + j
            square[2 * c] = 0
            square[2 * c + 1] = 0
    sf_square = segment_features(mesh, adj, square, feats)
    assert sf_thin.channel("straightness")[0] < sf_square.channel("straightness")[0]


def merge_chains(edges):
    """Vertex sets of edge-connected chains, in order of first appearance.

    Each edge joins the chains holding its ends; the merged chain takes the
    place of the earliest of them.
    """
    chains = []
    for u, v in edges:
        hit = [c for c in chains if u in c or v in c]
        merged = set((u, v)).union(*hit)
        at = chains.index(hit[0]) if hit else len(chains)
        chains = [c for c in chains if c not in hit]
        chains.insert(at, merged)
    return [sorted(c) for c in chains]


def test_boundary_loops_and_straightness_match_oracle():
    rng = np.random.default_rng(41)
    mesh = grid_mesh(10, 10)
    mesh = TriangleMesh(vertices=mesh.vertices
                        + rng.normal(0, 0.3, mesh.vertices.shape),
                        faces=mesh.faces)
    adj = build_adjacency(mesh)
    feats = fake_face_features(mesh)
    f0, f1 = adj.edge_faces.T
    for _ in range(5):
        raw = rng.integers(-1, 30, mesh.n_faces)
        seg = np.full(mesh.n_faces, -1)
        seg[raw >= 0] = np.unique(raw[raw >= 0], return_inverse=True)[1]
        sf = segment_features(mesh, adj, seg, feats)
        side1 = np.where(f1 >= 0, seg[f1], -2)
        for k in range(sf.n_segments):
            cut = ((seg[f0] == k) | (side1 == k)) & (seg[f0] != side1)
            edges = adj.edge_vertices[cut].tolist()
            loops = _boundary_loops(adj.edge_vertices[cut], mesh.vertices)
            want = [mesh.vertices[c] for c in merge_chains(edges)]
            assert len(loops) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(loops, want))
            assert sf.channel("straightness")[k] == _straightness(want)
    assert _boundary_loops(adj.edge_vertices[:0], mesh.vertices) == []


def test_vertical_extent_on_wall():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 2], [1, 0, 2]], dtype=float)
    faces = np.array([[0, 1, 2], [1, 3, 2]], dtype=np.int32)
    mesh = TriangleMesh(vertices=verts, faces=faces)
    adj = build_adjacency(mesh)
    sf = segment_features(mesh, adj, np.zeros(2, dtype=int),
                                  fake_face_features(mesh))
    assert sf.channel("vertical_extent")[0] == 2.0


def test_zero_area_segment_weighs_faces_equally():
    # segment 1 holds only collapsed faces: its means, deviations and
    # histogram weigh its faces equally, while segment 0 stays area-weighted
    base = grid_mesh(2, 2)
    faces = np.vstack([base.faces, [0, 0, 0], [1, 1, 4], [2, 5, 5]])
    mesh = TriangleMesh(vertices=base.vertices, faces=faces)
    adj = build_adjacency(mesh)
    seg = np.zeros(mesh.n_faces, dtype=int)
    seg[-3:] = 1
    ff = fake_face_features(mesh)
    sf = segment_features(mesh, adj, seg, ff)
    n = ff.values.shape[1]
    zero = ff.values[-3:]
    np.testing.assert_allclose(sf.values[1, :n], zero.mean(axis=0),
                               rtol=1e-12)
    np.testing.assert_allclose(sf.values[1, n:2 * n], zero.std(axis=0),
                               rtol=1e-9, atol=1e-12)
    area = mesh.face_area[:-3]
    np.testing.assert_allclose(
        sf.values[0, :n], (area[:, None] * ff.values[:-3]).sum(0) / area.sum(),
        rtol=1e-12)
    assert sf.channel("area")[1] == 0.0
    assert np.isfinite(sf.values).all()
    h, sat, val = (ff.channel(c)[-3:] for c in ("color_h", "color_s",
                                                   "color_v"))
    bins = ((np.minimum((h / 360.0 * HIST_BINS).astype(int), HIST_BINS - 1)
             * HIST_BINS + np.minimum((sat * HIST_BINS).astype(int),
                                      HIST_BINS - 1)) * HIST_BINS
            + np.minimum((val * HIST_BINS).astype(int), HIST_BINS - 1))
    want = np.bincount(bins, minlength=HIST_BINS ** 3) / 3.0
    np.testing.assert_allclose(sf.values[1, -HIST_BINS ** 3:], want)


def test_csv_roundtrip(tmp_path):
    mesh = grid_mesh(2, 2)
    adj = build_adjacency(mesh)
    sf = segment_features(mesh, adj, np.zeros(mesh.n_faces, dtype=int),
                                  fake_face_features(mesh))
    path = tmp_path / "seg.csv"
    sf.to_csv(path)
    import csv as csvmod
    with open(path) as fh:
        rows = list(csvmod.reader(fh))
    assert rows[0][1:] == list(sf.channel_names)
    back = np.array([float(x) for x in rows[1][1:]])
    assert (back == sf.values[0]).all()
