import numpy as np
import pytest

from pssmesh.mesh import TriangleMesh
from pssmesh.features import (FaceFeatureParams, compute_face_features,
                              face_channel_names, eigen_shape_features,
                              elevation_context, cylinder_min_z, rgb_to_hsv_deg)
from scipy.spatial import cKDTree

from conftest import grid_mesh


def test_channel_layout_27():
    names = face_channel_names(FaceFeatureParams())
    assert len(names) == 27
    assert names[0] == "linearity_r0.5"
    assert names[14] == "verticality_r2"
    assert names[15] == "elevation_abs"
    assert names[-1] == "color_v"


def test_flat_plane_channels():
    m = grid_mesh(32, 32, dx=0.25)    # fine grid: near-isotropic neighborhoods
    ff = compute_face_features(m)
    planarity = ff.channel("planarity_r2")
    curvature = ff.channel("curvature_r2")
    vert = ff.channel("verticality_r2")
    # interior faces have symmetric disc neighborhoods
    cent = m.face_centroid
    interior = ((cent[:, 0] > 3) & (cent[:, 0] < 5)
                & (cent[:, 1] > 3) & (cent[:, 1] < 5))
    assert interior.any()
    assert planarity[interior].min() > 0.95
    assert np.abs(curvature).max() < 1e-9
    assert np.abs(vert).max() < 1e-9
    assert np.abs(ff.channel("elevation_abs")).max() < 1e-12
    assert np.abs(ff.channel("elevation_rel")).max() < 1e-12


def test_vertical_wall_verticality():
    m = grid_mesh(6, 6)
    # rotate the plane into the x-z plane: y becomes z
    m.vertices = m.vertices[:, [0, 2, 1]].copy()
    ff = compute_face_features(m)
    assert ff.channel("verticality_r1").max() > 0.999


def test_eigen_ranges():
    rng = np.random.default_rng(0)
    m = grid_mesh(8, 8)
    m.vertices += rng.standard_normal(m.vertices.shape) * 0.2
    ff = compute_face_features(m)
    for r in ("0.5", "1", "2"):
        for ch in ("linearity", "planarity", "sphericity"):
            v = ff.channel(f"{ch}_r{r}")
            assert (v >= -1e-12).all() and (v <= 1 + 1e-12).all()
        c = ff.channel(f"curvature_r{r}")
        assert (c >= -1e-12).all() and (c <= 1 / 3 + 1e-12).all()
        vv = ff.channel(f"verticality_r{r}")
        assert (vv >= -1e-12).all() and (vv <= 1 + 1e-12).all()


def test_eigen_matches_brute_force_covariance():
    rng = np.random.default_rng(3)
    cent = rng.random((40, 3)) * 2
    areas = rng.random(40) + 0.1
    tree = cKDTree(cent)
    radius = 0.9
    out, flagged = eigen_shape_features(cent, areas, None, tree, radius)
    for i in range(40):
        d = np.linalg.norm(cent - cent[i], axis=1)
        nb = np.flatnonzero(d <= radius)
        w = areas[nb]
        mu = (w[:, None] * cent[nb]).sum(0) / w.sum()
        dd = cent[nb] - mu
        cov = (w[:, None, None] * dd[:, :, None] * dd[:, None, :]).sum(0) / w.sum()
        ev, evec = np.linalg.eigh(cov)
        l1, l2, l3 = ev[2], ev[1], ev[0]
        if len(nb) < 3 or l1 <= 1e-18:
            assert flagged[i]
            continue
        assert out[i, 0] == pytest.approx((l1 - l2) / l1, abs=1e-9)
        assert out[i, 1] == pytest.approx((l2 - l3) / l1, abs=1e-9)
        assert out[i, 2] == pytest.approx(l3 / l1, abs=1e-9)
        assert out[i, 3] == pytest.approx(l3 / (l1 + l2 + l3), abs=1e-9)
        assert out[i, 4] == pytest.approx(1 - abs(evec[2, 0]), abs=1e-9)


def test_hemisphere_sphericity():
    rng = np.random.default_rng(1)
    n = 400
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v[:, 2] = np.abs(v[:, 2])
    areas = np.ones(n)
    tree = cKDTree(v)
    out, _ = eigen_shape_features(v, areas, None, tree, 3.0)
    assert out[:, 2].min() > 0.2      # sphericity
    assert out[:, 0].max() < 0.3      # linearity


def test_small_neighborhood_flagged():
    cent = np.array([[0, 0, 0], [10, 0, 0], [20, 0, 0]], dtype=float)
    areas = np.ones(3)
    tree = cKDTree(cent)
    out, flagged = eigen_shape_features(cent, areas, None, tree, 0.5)
    assert flagged.all()
    assert np.all(out == 0)


def test_eigen_invariance_under_z_rotation_and_translation():
    rng = np.random.default_rng(5)
    m = grid_mesh(6, 6)
    m.vertices += rng.standard_normal(m.vertices.shape) * 0.15
    base = compute_face_features(m).values[:, :15]

    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th), 0],
                  [np.sin(th), np.cos(th), 0], [0, 0, 1.0]])
    m2 = m.copy()
    m2.vertices = m.vertices @ R.T + np.array([3.0, -2.0, 5.0])
    m2._face_area = m2._face_centroid = m2._face_normal = None
    rot = compute_face_features(m2).values[:, :15]
    assert np.abs(base - rot).max() < 1e-6


def test_cylinder_min_z_exact():
    rng = np.random.default_rng(2)
    pts = rng.random((300, 3)) * np.array([20, 20, 5])
    queries = pts[:50, :2]
    r = 3.0
    got = cylinder_min_z(pts[:, :2], pts[:, 2], queries, r)
    for i, q in enumerate(queries):
        mask = np.linalg.norm(pts[:, :2] - q, axis=1) <= r
        assert got[i] == pts[mask, 2].min()


def test_elevation_roof():
    ground = grid_mesh(30, 30)
    roof = grid_mesh(8, 8, z=3.0)
    roof.vertices[:, :2] += 11.0
    # open footprint: no ground surface underneath the roof
    gc = ground.face_centroid
    hole = ((gc[:, 0] > 11) & (gc[:, 0] < 19) & (gc[:, 1] > 11) & (gc[:, 1] < 19))
    gfaces = ground.faces[~hole]
    verts = np.vstack([ground.vertices, roof.vertices])
    faces = np.vstack([gfaces, roof.faces + ground.n_vertices])
    m = TriangleMesh(vertices=verts, faces=faces.astype(np.int32))
    rel = elevation_context(m, [10.0, 2.0])
    cent = m.face_centroid
    roof_faces = cent[:, 2] > 1
    assert np.allclose(rel[roof_faces, 0], 3.0)       # sees the ground at r=10
    # central roof face only sees the roof at r=2
    center = np.array([15.0, 15.0])
    d = np.linalg.norm(cent[:, :2] - center, axis=1) + (~roof_faces) * 1e6
    central = int(np.argmin(d))
    assert rel[central, 1] == 0.0
    assert np.allclose(rel[~roof_faces, 0], 0.0)      # ground is its own minimum


def test_color_channels_pure_green():
    m = grid_mesh(2, 2)
    m.face_color = np.tile(np.array([[0, 255, 0]], dtype=np.uint8), (m.n_faces, 1))
    ff = compute_face_features(m)
    assert np.allclose(ff.channel("greenness"), 1.0)
    assert np.allclose(ff.channel("color_h"), 120.0)
    assert np.allclose(ff.channel("color_s"), 1.0)
    assert np.allclose(ff.channel("color_v"), 1.0)
    assert not ff.color_missing


def test_missing_color_flagged():
    m = grid_mesh(2, 2)
    ff = compute_face_features(m)
    assert ff.color_missing
    assert np.all(ff.values[:, -4:] == 0)


def test_rgb_to_hsv_reference():
    import colorsys
    rng = np.random.default_rng(7)
    rgb = rng.integers(0, 256, (100, 3))
    h, s, v = rgb_to_hsv_deg(rgb)
    for i in range(100):
        hh, ss, vv = colorsys.rgb_to_hsv(*(rgb[i] / 255.0))
        assert h[i] == pytest.approx(hh * 360.0, abs=1e-9)
        assert s[i] == pytest.approx(ss, abs=1e-9)
        assert v[i] == pytest.approx(vv, abs=1e-9)


def test_density_channels():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    m = TriangleMesh(vertices=v, faces=np.array([[0, 1, 2]]))
    ff = compute_face_features(m)
    # all 3 vertices and the single centroid lie within 1 m of the centroid
    assert ff.channel("vertex_density")[0] == pytest.approx(3 / np.pi)
    assert ff.channel("face_density")[0] == pytest.approx(1 / np.pi)


def test_csv_export(tmp_path):
    m = grid_mesh(2, 2)
    ff = compute_face_features(m)
    p = tmp_path / "feat.csv"
    ff.to_csv(p)
    lines = p.read_text().strip().splitlines()
    assert lines[0].split(",")[1] == "linearity_r0.5"
    assert len(lines) == m.n_faces + 1
