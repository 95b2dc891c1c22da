import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pssmesh import features
from pssmesh.config import PipelineConfig
from pssmesh.mesh import TriangleMesh
from pssmesh.features import (compute_face_features,
                              face_channel_names, eigen_shape_features,
                              elevation_context, cylinder_min_z, rgb_to_hsv_deg)
from scipy.spatial import cKDTree

from conftest import grid_mesh
from oracles import (bincount_weighted_covariance,
                     global_eigen_shape_features)


def test_channel_layout_27():
    names = face_channel_names(PipelineConfig())
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
    out, flagged, _ = eigen_shape_features(cent, areas, tree, (radius,))
    assert out.shape == (40, 5) and flagged.shape == (40, 1)
    flagged = flagged[:, 0]
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


def eigen_reference(cent, areas, tree, radius):
    """One radius from ``query_ball_point`` lists, summed per face in list
    order: the definition ``eigen_shape_features`` must match bit for bit."""
    nf = len(cent)
    groups = tree.query_ball_point(cent, radius)
    counts = np.array([len(g) for g in groups])
    flat = np.concatenate([np.asarray(g, dtype=np.int64) for g in groups])
    owner = np.repeat(np.arange(nf), counts)
    w = areas[flat]
    wsum = np.bincount(owner, weights=w, minlength=nf)
    mean = np.column_stack([
        np.bincount(owner, weights=w * cent[flat, a], minlength=nf)
        for a in range(3)])
    ok = wsum > 0
    mean[ok] /= wsum[ok, None]
    d = cent[flat] - mean[owner]
    cov = np.zeros((nf, 3, 3))
    for a in range(3):
        for b in range(a, 3):
            cov[:, a, b] = cov[:, b, a] = np.bincount(
                owner, weights=w * d[:, a] * d[:, b], minlength=nf)
    cov[ok] /= wsum[ok][:, None, None]
    evals, evecs = np.linalg.eigh(cov)
    evals = np.clip(evals, 0.0, None)
    l1, l2, l3 = evals[:, 2], evals[:, 1], evals[:, 0]
    flagged = (counts < 3) | (l1 <= 1e-18)
    safe1 = np.where(l1 > 0, l1, 1.0)
    total = l1 + l2 + l3
    out = np.zeros((nf, 5))
    out[:, 0] = (l1 - l2) / safe1
    out[:, 1] = (l2 - l3) / safe1
    out[:, 2] = l3 / safe1
    out[:, 3] = np.where(total > 0, l3 / np.where(total > 0, total, 1.0), 0.0)
    out[:, 4] = 1.0 - np.abs(evecs[:, 2, 0])
    out[flagged] = 0.0
    return out, flagged


def lattice_cloud():
    """0.5 m lattice: many neighbours lie exactly at 0.5, 1 and 2 m."""
    g = np.arange(10) * 0.5
    cent = np.array(np.meshgrid(g, g, g[:4], indexing="ij")).reshape(3, -1).T
    areas = np.random.default_rng(8).random(len(cent)) + 0.1
    return np.ascontiguousarray(cent), areas


def random_cloud():
    rng = np.random.default_rng(9)
    cent = rng.random((700, 3)) * np.array([6.0, 6.0, 2.0])
    cent[::50] = cent[1::50]                # coincident centroids
    return cent, rng.random(700) + 0.1


def shuffled(cloud):
    """The cloud in a random face order: blocks are not spatially compact."""
    def make():
        cent, areas = cloud()
        order = np.random.default_rng(10).permutation(len(cent))
        return np.ascontiguousarray(cent[order]), areas[order]
    return make


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("cloud", [lattice_cloud, random_cloud,
                                   shuffled(lattice_cloud),
                                   shuffled(random_cloud)],
                         ids=["lattice", "random", "lattice-shuffled",
                              "random-shuffled"])
def test_eigen_matches_query_ball_point_reference(cloud, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(features, "EIGEN_FACE_BLOCK", block)
    cent, areas = cloud()
    tree = cKDTree(cent)
    radii = (0.5, 1.0, 2.0)
    out, flagged, _ = eigen_shape_features(cent, areas, tree, radii)
    assert out.shape == (len(cent), 15) and flagged.shape == (len(cent), 3)
    for j, r in enumerate(radii):
        ref, ref_flagged = eigen_reference(cent, areas, tree, r)
        assert out[:, 5 * j:5 * j + 5].tobytes() == ref.tobytes(), r
        assert np.array_equal(flagged[:, j], ref_flagged), r
        if cloud is lattice_cloud:          # neighbours exactly at r exist
            assert len(tree.query_pairs(r)) > len(tree.query_pairs(r * 0.999))
    # the kernel that searched all faces at once gives the same bytes
    want, want_flagged = global_eigen_shape_features(cent, areas, tree, radii)
    assert out.tobytes() == want.tobytes()
    assert flagged.tobytes() == want_flagged.tobytes()


@pytest.mark.parametrize("cloud", [lattice_cloud, random_cloud],
                         ids=["lattice", "random"])
def test_weighted_covariance_matches_bincount_reference(cloud):
    cent, areas = cloud()
    areas = areas.copy()
    areas[::7] = 0.0                        # zero-area faces
    areas[np.linalg.norm(cent - cent[0], axis=1) <= 1.0] = 0.0
    xyz = [np.ascontiguousarray(cent[:, a]) for a in range(3)]
    tree = cKDTree(cent)
    n = 100                                 # owners 0..99 of one block
    pairs = cKDTree(cent[:n]).sparse_distance_matrix(tree, 1.0,
                                                     output_type="ndarray")
    keys = np.sort(pairs["i"] * len(cent) + pairs["j"])
    owner, nb = np.divmod(keys, len(cent))
    owner[owner == 3] = 4                   # an owner without pairs
    got = features._weighted_covariance(owner, nb, xyz, areas, n)
    want = bincount_weighted_covariance(owner, nb, xyz, areas, n)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[1][0] > 1 and not got[0][0].any()    # a ball of no weight
    assert got[1][3] == 0
    empty = features._weighted_covariance(owner[:0], nb[:0], xyz, areas, n)
    assert not empty[0].any() and not empty[1].any()


@pytest.mark.parametrize("radii, count_radius",
                         [((0.5, 1.0, 2.0), 1.0), ((0.5,), 1.0),
                          ((0.5, 1.0), 1.5)])
def test_ball_counts_match_query_ball_point(radii, count_radius,
                                            monkeypatch):
    # on the lattice, neighbours lie exactly at the count radius; the count
    # radius may be inside the eigen radii or beyond them
    monkeypatch.setattr(features, "DENSITY_RADIUS", count_radius)
    cent, areas = lattice_cloud()
    tree = cKDTree(cent)
    assert len(tree.query_pairs(count_radius)) \
        > len(tree.query_pairs(count_radius * 0.999))
    _, _, ball = eigen_shape_features(cent, areas, tree, radii)
    want = tree.query_ball_point(cent, count_radius, return_length=True)
    assert ball.astype(np.int64).tobytes() == want.astype(np.int64).tobytes()


def test_face_density_matches_query_ball_point():
    m = grid_mesh(12, 12, dx=0.5)
    cent = m.face_centroid
    tree = cKDTree(cent)
    r = features.DENSITY_RADIUS
    assert len(tree.query_pairs(r)) > len(tree.query_pairs(r * 0.999))
    want = tree.query_ball_point(cent, r, return_length=True) / (np.pi * r * r)
    got = compute_face_features(m).channel("face_density")
    assert got.tobytes() == want.tobytes()


def test_eigen_peak_memory_does_not_follow_pair_count(monkeypatch):
    # at the larger radius the cloud has about 6x the pairs; one key array
    # of all pairs alone would add 16 bytes per pair, small blocks add
    # next to nothing
    monkeypatch.setattr(features, "EIGEN_FACE_BLOCK", 16)
    monkeypatch.setattr(features, "DENSITY_RADIUS", 0.5)
    rng = np.random.default_rng(11)
    cent = rng.random((6000, 3)) * np.array([10.0, 10.0, 1.0])
    areas = rng.random(6000) + 0.1
    tree = cKDTree(cent)
    peaks, pairs = [], []
    for radius in (0.5, 1.0):
        pairs.append(len(tree.query_pairs(radius, output_type="ndarray")))
        tracemalloc.start()
        eigen_shape_features(cent, areas, tree, (radius,))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert pairs[1] > 5 * pairs[0]
    assert peaks[1] - peaks[0] < 2 * (pairs[1] - pairs[0])


def test_hemisphere_sphericity():
    rng = np.random.default_rng(1)
    n = 400
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v[:, 2] = np.abs(v[:, 2])
    areas = np.ones(n)
    tree = cKDTree(v)
    out, _, _ = eigen_shape_features(v, areas, tree, (3.0,))
    assert out[:, 2].min() > 0.2      # sphericity
    assert out[:, 0].max() < 0.3      # linearity


def test_small_neighborhood_flagged():
    cent = np.array([[0, 0, 0], [10, 0, 0], [20, 0, 0]], dtype=float)
    areas = np.ones(3)
    tree = cKDTree(cent)
    out, flagged, _ = eigen_shape_features(cent, areas, tree, (0.5,))
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
    m2 = replace(m, vertices=m.vertices @ R.T + np.array([3.0, -2.0, 5.0]))
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


def cylinder_oracle(pxy, pz, qxy, radius):
    """O(n * q) definition: lowest z with dx*dx + dy*dy <= radius**2."""
    out = np.full(len(qxy), np.inf)
    for i, q in enumerate(qxy):
        dx = q[0] - pxy[:, 0]
        dy = q[1] - pxy[:, 1]
        hit = dx * dx + dy * dy <= radius * radius
        if hit.any():
            out[i] = pz[hit].min()
    return out


def hilly_cloud(n=3000, size=30.0, seed=4):
    rng = np.random.default_rng(seed)
    xy = rng.random((n, 2)) * size
    z = (3 * np.sin(xy[:, 0] / 4) + 2 * np.cos(xy[:, 1] / 3)
         + 0.05 * xy[:, 0] + 0.3 * rng.random(n))
    return xy, z


@pytest.mark.parametrize("radius", [0.4, 1.0, 3.0, 10.0, 45.0, 400.0])
@pytest.mark.parametrize("shift", [0.0, 4.0e6], ids=["local", "far-origin"])
def test_cylinder_min_z_matches_oracle(radius, shift):
    xy, z = hilly_cloud()
    rng = np.random.default_rng(int(radius * 10))
    # input points, free positions inside the tile and around it
    free = rng.random((300, 2)) * 50.0 - 10.0
    queries = np.vstack([xy[::7], free, [[-200.0, 5.0], [15.0, 900.0]]])
    xy, queries = xy + shift, queries + shift
    got = cylinder_min_z(xy, z, queries, radius)
    want = cylinder_oracle(xy, z, queries, radius)
    assert got.tobytes() == want.tobytes()
    if radius < 30:
        assert np.isinf(want).any() and np.isfinite(want).any()


def test_cylinder_min_z_sparse_and_empty_discs():
    rng = np.random.default_rng(6)
    xy = rng.random((40, 2)) * 200.0        # about 30 m between points
    z = rng.random(40)
    queries = rng.random((500, 2)) * 240.0 - 20.0
    for radius in (2.0, 15.0, 60.0):
        got = cylinder_min_z(xy, z, queries, radius)
        want = cylinder_oracle(xy, z, queries, radius)
        assert got.tobytes() == want.tobytes()
    assert np.isinf(cylinder_min_z(xy, z, queries, 2.0)).sum() > 400
    assert np.all(cylinder_min_z(xy[:0], z[:0], queries, 5.0) == np.inf)
    assert cylinder_min_z(xy, z, queries[:0], 5.0).shape == (0,)


@pytest.mark.parametrize("radius", [1.0, 10.0, 40.0])
def test_cylinder_min_z_far_outlier_keeps_cells_small(radius):
    # one face 10 km from a dense tile must not coarsen the grid: the cells
    # stay radius / 8 and only non-empty ones are stored
    xy, z = hilly_cloud(n=4000)
    xy = np.vstack([xy, [[1.0e4, 12.0]]])
    z = np.append(z, -50.0)
    tracemalloc.start()
    t0 = time.perf_counter()
    got = cylinder_min_z(xy, z, xy, radius)
    seconds = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert got.tobytes() == cylinder_oracle(xy, z, xy, radius).tobytes()
    assert got[-1] == -50.0 and np.all(got[:-1] > -50.0)
    assert peak < 32 * 2 ** 20
    assert seconds < 10.0


def test_cylinder_min_z_rim_batches(monkeypatch):
    # batches of a few point checks give the same minima as one batch
    xy, z = hilly_cloud(n=1500, size=12.0)
    want = cylinder_oracle(xy, z, xy, 2.5)
    monkeypatch.setattr(features, "RIM_BATCH", 5)
    assert cylinder_min_z(xy, z, xy, 2.5).tobytes() == want.tobytes()


def test_cylinder_min_z_rejects_unbounded_grid():
    xy = np.array([[0.0, 0.0], [1.0e20, 1.0e20]])
    with pytest.raises(ValueError, match="cells"):
        cylinder_min_z(xy, np.zeros(2), xy, 1.0)


def test_cylinder_min_z_point_exactly_at_radius():
    # (3, 4) is exactly 5 m from (0, 0) and from (6, 8); the point 1e-9 m
    # above it is just outside the first disc and just inside the second
    pxy = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 4.0 + 1e-9]])
    pz = np.array([5.0, -1.0, -2.0])
    q = np.array([[0.0, 0.0], [6.0, 8.0], [0.0, 10.0]])
    assert cylinder_min_z(pxy, pz, q, 5.0).tolist() == [-1.0, -2.0, np.inf]
    assert cylinder_min_z(pxy, pz, q, 5.0 - 1e-12).tolist() \
        == [5.0, -2.0, np.inf]


def test_cylinder_min_z_rejects_bad_radius():
    for radius in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="radius"):
            cylinder_min_z(np.zeros((1, 2)), np.zeros(1), np.zeros((1, 2)),
                           radius)


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


def test_npy_export(tmp_path):
    m = grid_mesh(2, 2)
    ff = compute_face_features(m)
    p = tmp_path / "face_features.npy"
    ff.to_npy(p)
    table = np.load(p, allow_pickle=False)
    assert table.dtype.names == tuple(face_channel_names())
    assert table.dtype.names[0] == "linearity_r0.5"
    assert len(table) == m.n_faces
