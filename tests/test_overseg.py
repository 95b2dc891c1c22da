import numpy as np
import pytest

from pssmesh.mesh import TriangleMesh
from pssmesh.adjacency import build_adjacency
from pssmesh.forest import ProbabilityMap
from pssmesh.mincut import min_cut_binary
from pssmesh.repair import weld_vertices
from pssmesh.overseg import (GrowthParams, RegionState, PlaneAccumulator,
                             Segmentation, refit_plane, unary_cost,
                             pairwise_cost, frontier_decision, label_frontier,
                             grow_region, oversegment, _add_face)

from conftest import grid_mesh


def flat_probmap(n, planar=True, g_hat=0.5):
    label = np.zeros(n, dtype=np.int32) if planar else np.ones(n, dtype=np.int32)
    g = np.full(n, g_hat)
    return ProbabilityMap(g_log=np.log(g), g_hat=g, label=label,
                          planar_prob=np.where(label == 0, 0.9, 0.1))


def region_with_plane(normal, offset, region_type=0):
    r = RegionState(region_id=0, region_type=region_type)
    r.members = [0]
    r.member_set = {0}
    r.normal = np.asarray(normal, dtype=float)
    r.offset = float(offset)
    return r


def lifted_face_mesh(z):
    v = np.array([[0, 0, z], [1, 0, z / 2], [0, 1, 0]], dtype=float)
    return TriangleMesh(vertices=v, faces=np.array([[0, 1, 2]]))


def test_unary_planar_region():
    m = lifted_face_mesh(0.3)
    region = region_with_plane([0, 0, 1], 0.0, region_type=0)
    pm = flat_probmap(1, planar=False)      # face non-planar, region planar
    c0, c1 = unary_cost(0, region, m, pm, GrowthParams())
    assert c0 == pytest.approx(0.3)
    assert c1 == pytest.approx(0.7)


def test_unary_nonplanar_prior():
    m = lifted_face_mesh(0.5)
    region = region_with_plane([0, 0, 1], 0.0, region_type=1)
    pm = flat_probmap(1, planar=False, g_hat=0.8)
    c0, c1 = unary_cost(0, region, m, pm, GrowthParams(lambda_g=0.9))
    assert c0 == pytest.approx(0.28)        # 1 - 0.9*0.8 beats d=0.5
    assert c1 == pytest.approx(0.72)


def test_unary_coplanar_face():
    m = lifted_face_mesh(0.0)
    region = region_with_plane([0, 0, 1], 0.0)
    pm = flat_probmap(1)
    c0, c1 = unary_cost(0, region, m, pm, GrowthParams())
    assert c0 == 0.0
    assert c1 == 1.0


def test_unary_requires_member():
    m = lifted_face_mesh(0.0)
    region = RegionState(region_id=0, region_type=0)
    with pytest.raises(ValueError, match="no member"):
        unary_cost(0, region, m, flat_probmap(1), GrowthParams())


def test_pairwise_angles():
    m = grid_mesh(1, 1)
    region = region_with_plane([0, 0, 1], 0.0)
    assert pairwise_cost(0, region, m) == pytest.approx(0.0)
    region_side = region_with_plane([1, 0, 0], 0.0)
    assert pairwise_cost(0, region_side, m) == pytest.approx(0.5)
    region_neg = region_with_plane([0, 0, -1], 0.0)
    assert pairwise_cost(0, region_neg, m) == pytest.approx(1.0)  # unfolded


def test_pairwise_degenerate_normal_zero():
    v = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
    m = TriangleMesh(vertices=v, faces=np.array([[0, 1, 2]]))
    region = region_with_plane([0, 0, 1], 0.0)
    assert pairwise_cost(0, region, m) == 0.0


def test_frontier_decision_examples():
    p = GrowthParams(lambda_d=1.0, lambda_m=0.0)
    assert frontier_decision([0.49], [0.51], [0.3], p)[0] == 0
    assert frontier_decision([0.51], [0.49], [0.3], p)[0] == 1
    p2 = GrowthParams(lambda_d=1.0, lambda_m=1.0)
    assert frontier_decision([0.45], [0.55], [0.5], p2)[0] == 0
    # exact tie joins
    assert frontier_decision([0.5], [0.5], [0.0], p)[0] == 0


def frontier_energy_table(c0, c1, phi, params):
    """Energies of all 2^n frontier labelings (region fixed at 0)."""
    n = len(c0)
    rows = np.arange(2 ** n)
    bits = (rows[:, None] >> np.arange(n)) & 1
    unary = (params.lambda_d * np.where(bits == 0, c0, c1)).sum(axis=1)
    pair = (params.lambda_m * (bits * phi)).sum(axis=1)
    return unary + pair, bits


def test_frontier_decision_matches_enumeration_exact():
    # dyadic costs and weights: every energy is exact in float, so ties are
    # genuine and the comparison needs no tolerance
    rng = np.random.default_rng(3)
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    for _ in range(300):
        n = int(rng.integers(1, 10))
        c0 = rng.choice(grid, n)
        c1 = 1.0 - c0
        phi = rng.choice(grid, n)
        params = GrowthParams(lambda_d=float(rng.choice([0.5, 1.0, 2.0])),
                              lambda_m=float(rng.choice([0.0, 0.25, 1.0])))
        got = frontier_decision(c0, c1, phi, params)
        table, bits = frontier_energy_table(c0, c1, phi, params)
        row = int((got.astype(np.int64) << np.arange(n)).sum())
        assert table[row] == table.min()
        minimizers = np.flatnonzero(table == table.min())
        assert (got == 0).sum() == (bits[minimizers] == 0).sum(axis=1).max()


def test_frontier_decision_default_weights_near_exact():
    # non-dyadic default weights: optimal up to accumulated rounding
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        c0 = rng.random(n)
        c1 = 1.0 - c0
        phi = rng.random(n)
        params = GrowthParams()      # 1.2 / 0.1 / 0.9
        got = frontier_decision(c0, c1, phi, params)
        table, _ = frontier_energy_table(c0, c1, phi, params)
        row = int((got.astype(np.int64) << np.arange(n)).sum())
        assert table[row] <= table.min() + 1e-12


def test_label_frontier_direct_equals_mincut():
    rng = np.random.default_rng(5)
    m = grid_mesh(6, 6)
    m.vertices += rng.standard_normal(m.vertices.shape) * 0.15
    m._face_area = m._face_centroid = m._face_normal = None
    adj = build_adjacency(m)
    pm = flat_probmap(m.n_faces)
    region = RegionState(region_id=0, region_type=0)
    _add_face(region, m, 30)
    frontier = sorted(int(x) for x in adj.face_neighbors(30))
    n = len(frontier)
    for lm in (0.0, 0.1, 1.0):
        params = GrowthParams(lambda_m=lm)
        cost0, cost1 = np.array([unary_cost(f, region, m, pm, params)
                                 for f in frontier]).T
        phi = np.array([pairwise_cost(f, region, m) for f in frontier])
        a = label_frontier(region, frontier, m, pm, params)
        # star graph: frontier faces plus the region node, pinned to label 0
        b = min_cut_binary(np.append(params.lambda_d * cost0, 0.0),
                           np.append(params.lambda_d * cost1, np.inf),
                           np.column_stack([np.arange(n), np.full(n, n)]),
                           params.lambda_m * phi)[:n]
        assert np.array_equal(a, b)


def test_refit_three_points_exact():
    r = RegionState(region_id=0, region_type=0)
    r.acc.add(np.array([[0, 0, 1], [1, 0, 1], [0, 1, 1]], dtype=float))
    r.normal_sum = np.array([0, 0, 1.0])
    refit_plane(r)
    assert not r.plane_degenerate
    assert np.allclose(np.abs(r.normal), [0, 0, 1])
    assert r.plane_distance(np.array([[5, 5, 1.0]]))[0] < 1e-12


def test_refit_incremental_equals_batch():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pts = rng.standard_normal((int(rng.integers(3, 40)), 3)) * [3, 2, 0.3]
        acc = PlaneAccumulator()
        for p in pts:
            acc.add(p)
        scatter, mu = acc.scatter()
        batch_mu = pts.mean(axis=0)
        centered = pts - batch_mu
        batch_scatter = centered.T @ centered
        assert np.allclose(mu, batch_mu, atol=1e-9)
        assert np.allclose(scatter, batch_scatter, atol=1e-9)
        ev_i = np.linalg.eigh(scatter)[1][:, 0]
        ev_b = np.linalg.eigh(batch_scatter)[1][:, 0]
        assert abs(abs(ev_i @ ev_b) - 1.0) < 1e-9


def test_refit_collinear_keeps_previous():
    r = RegionState(region_id=0, region_type=0)
    r.acc.add(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float))
    r.normal_sum = np.array([0, 0, 1.0])
    refit_plane(r)
    saved_normal = r.normal.copy()
    saved_offset = r.offset
    r2 = RegionState(region_id=1, region_type=0)
    r2.normal = saved_normal
    r2.offset = saved_offset
    r2.acc.add(np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]], dtype=float))
    refit_plane(r2)
    assert r2.plane_degenerate
    assert np.array_equal(r2.normal, saved_normal)
    assert r2.offset == saved_offset


def test_refit_orientation_follows_face_normals():
    r = RegionState(region_id=0, region_type=0)
    r.acc.add(np.array([[0, 0, 2], [1, 0, 2], [0, 1, 2], [1, 1, 2]], dtype=float))
    r.normal_sum = np.array([0, 0, -3.0])     # faces wound downward
    refit_plane(r)
    assert np.allclose(r.normal, [0, 0, -1])
    assert r.offset == pytest.approx(2.0)


def test_grow_coplanar_patch():
    m = grid_mesh(5, 1)
    adj = build_adjacency(m)
    pm = flat_probmap(m.n_faces)
    region = grow_region(0, m, adj, pm, GrowthParams(lambda_m=0.0))
    assert len(region.members) == m.n_faces == 10
    d = region.plane_distance(m.vertices)
    assert d.max() < 1e-9


def test_grow_stops_at_wall():
    ground = grid_mesh(4, 2)
    wall = grid_mesh(2, 2)
    wv = wall.vertices[:, [2, 0, 1]].copy()        # y-z plane mesh
    wv[:, 0] = 4.0
    verts = np.vstack([ground.vertices, wv])
    faces = np.vstack([ground.faces, wall.faces + ground.n_vertices])
    m, _ = weld_vertices(TriangleMesh(vertices=verts, faces=faces.astype(np.int32)), 1e-9)
    adj = build_adjacency(m)
    pm = flat_probmap(m.n_faces)
    region = grow_region(0, m, adj, pm, GrowthParams())
    ground_faces = set(range(16))
    assert set(region.members) == ground_faces


def test_grow_single_face():
    m = TriangleMesh(vertices=np.eye(3), faces=np.array([[0, 1, 2]]))
    region = grow_region(0, m, build_adjacency(m), flat_probmap(1), GrowthParams())
    assert region.members == [0]


def test_oversegment_two_parallel_planes():
    a = grid_mesh(3, 3)
    b = grid_mesh(3, 3, z=5.0)
    verts = np.vstack([a.vertices, b.vertices])
    faces = np.vstack([a.faces, b.faces + a.n_vertices])
    m = TriangleMesh(vertices=verts, faces=faces.astype(np.int32))
    seg = oversegment(m, build_adjacency(m), flat_probmap(m.n_faces))
    assert seg.n_segments == 2
    assert len(set(seg.face_segment.tolist())) == 2


def test_oversegment_partition_and_connectivity():
    rng = np.random.default_rng(2)
    m = grid_mesh(6, 6)
    m.vertices[:, 2] = 0.3 * np.sin(m.vertices[:, 0]) * np.cos(m.vertices[:, 1])
    m._face_area = m._face_centroid = m._face_normal = None
    adj = build_adjacency(m)
    g = rng.random(m.n_faces)
    pm = ProbabilityMap(g_log=np.log(np.maximum(g, 1e-6)), g_hat=g,
                        label=(g > 0.5).astype(np.int32),
                        planar_prob=1.0 - g)
    seg = oversegment(m, adj, pm)
    assert (seg.face_segment >= 0).all()
    assert seg.n_segments == seg.face_segment.max() + 1
    # every segment edge-connected
    for k in range(seg.n_segments):
        faces = np.flatnonzero(seg.face_segment == k)
        seen = {int(faces[0])}
        stack = [int(faces[0])]
        while stack:
            f = stack.pop()
            for nb in adj.face_neighbors(f):
                if int(nb) in set(faces.tolist()) and int(nb) not in seen:
                    seen.add(int(nb))
                    stack.append(int(nb))
        assert seen == set(faces.tolist())


def test_oversegment_deterministic():
    m = grid_mesh(5, 5)
    rng = np.random.default_rng(0)
    m.vertices[:, 2] = rng.random(m.n_vertices) * 0.3
    m._face_area = m._face_centroid = m._face_normal = None
    adj = build_adjacency(m)
    g = rng.random(m.n_faces)
    pm = ProbabilityMap(g_log=np.log(np.maximum(g, 1e-6)), g_hat=g,
                        label=(g > 0.6).astype(np.int32), planar_prob=1.0 - g)
    s1 = oversegment(m, adj, pm)
    s2 = oversegment(m, adj, pm)
    assert np.array_equal(s1.face_segment, s2.face_segment)
    assert np.array_equal(s1.segment_type, s2.segment_type)
    assert np.array_equal(s1.planes, s2.planes)


def test_growth_params_validation():
    with pytest.raises(ValueError):
        GrowthParams(lambda_d=-0.1)
