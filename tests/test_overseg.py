import numpy as np
import pytest

from pssmesh import overseg
from pssmesh.mesh import TriangleMesh
from pssmesh.adjacency import build_adjacency
from pssmesh.forest import ProbabilityMap
from pssmesh.repair import weld_vertices
from pssmesh.config import PipelineConfig
from pssmesh.synth import CLASS_VEGETATION, TileParams, synth_tile
from pssmesh.overseg import (RegionState, PlaneAccumulator,
                             Segmentation, refit_plane, unary_cost,
                             pairwise_cost, frontier_decision, label_frontier,
                             grow_region, oversegment, _add_faces)

from conftest import grid_mesh, neighbor_list
from mincut import min_cut_binary
from oracles import set_oversegment


def flat_probmap(n, planar=True, g_hat=0.5):
    label = np.zeros(n, dtype=np.int32) if planar else np.ones(n, dtype=np.int32)
    g = np.full(n, g_hat)
    return ProbabilityMap(g_hat=g, label=label,
                          planar_prob=np.where(label == 0, 0.9, 0.1))


def region_with_plane(normal, offset, region_type=0):
    r = RegionState(region_type=region_type)
    r.acc.add(np.zeros(3))                  # the vertex of a member face
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
    c0, c1 = unary_cost(0, region, m, pm, PipelineConfig())
    assert c0 == pytest.approx(0.3)
    assert c1 == pytest.approx(0.7)


def test_unary_nonplanar_prior():
    m = lifted_face_mesh(0.5)
    region = region_with_plane([0, 0, 1], 0.0, region_type=1)
    pm = flat_probmap(1, planar=False, g_hat=0.8)
    c0, c1 = unary_cost(0, region, m, pm, PipelineConfig(lambda_g=0.9))
    assert c0 == pytest.approx(0.28)        # 1 - 0.9*0.8 beats d=0.5
    assert c1 == pytest.approx(0.72)


def test_unary_coplanar_face():
    m = lifted_face_mesh(0.0)
    region = region_with_plane([0, 0, 1], 0.0)
    pm = flat_probmap(1)
    c0, c1 = unary_cost(0, region, m, pm, PipelineConfig())
    assert c0 == 0.0
    assert c1 == 1.0


def test_unary_requires_member():
    m = lifted_face_mesh(0.0)
    region = RegionState(region_type=0)
    with pytest.raises(ValueError, match="no member"):
        unary_cost(0, region, m, flat_probmap(1), PipelineConfig())


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
    p = PipelineConfig(lambda_d=1.0, lambda_m=0.0)
    assert frontier_decision([0.49], [0.51], [0.3], p)[0] == 0
    assert frontier_decision([0.51], [0.49], [0.3], p)[0] == 1
    p2 = PipelineConfig(lambda_d=1.0, lambda_m=1.0)
    assert frontier_decision([0.45], [0.55], [0.5], p2)[0] == 0
    # exact tie joins
    assert frontier_decision([0.5], [0.5], [0.0], p)[0] == 0


def frontier_energy_table(c0, c1, phi, cfg):
    """Energies of all 2^n frontier labelings (region fixed at 0)."""
    n = len(c0)
    rows = np.arange(2 ** n)
    bits = (rows[:, None] >> np.arange(n)) & 1
    unary = (cfg.lambda_d * np.where(bits == 0, c0, c1)).sum(axis=1)
    pair = (cfg.lambda_m * (bits * phi)).sum(axis=1)
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
        cfg = PipelineConfig(lambda_d=float(rng.choice([0.5, 1.0, 2.0])),
                             lambda_m=float(rng.choice([0.0, 0.25, 1.0])))
        got = frontier_decision(c0, c1, phi, cfg)
        table, bits = frontier_energy_table(c0, c1, phi, cfg)
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
        cfg = PipelineConfig()      # 1.2 / 0.1 / 0.9
        got = frontier_decision(c0, c1, phi, cfg)
        table, _ = frontier_energy_table(c0, c1, phi, cfg)
        row = int((got.astype(np.int64) << np.arange(n)).sum())
        assert table[row] <= table.min() + 1e-12


def test_label_frontier_direct_equals_mincut():
    rng = np.random.default_rng(5)
    m = grid_mesh(6, 6)
    m.vertices += rng.standard_normal(m.vertices.shape) * 0.15
    adj = build_adjacency(m)
    pm = flat_probmap(m.n_faces)
    region = RegionState(region_type=0)
    _add_faces(region, m, [30])
    refit_plane(region)
    frontier = sorted(int(x) for x in neighbor_list(adj, 30))
    n = len(frontier)
    for lm in (0.0, 0.1, 1.0):
        cfg = PipelineConfig(lambda_m=lm)
        cost0, cost1 = np.array([unary_cost(f, region, m, pm, cfg)
                                 for f in frontier]).T
        phi = np.array([pairwise_cost(f, region, m) for f in frontier])
        a = label_frontier(region, frontier, m, pm, cfg)
        # star graph: frontier faces plus the region node, pinned to label 0
        b = min_cut_binary(np.append(cfg.lambda_d * cost0, 0.0),
                           np.append(cfg.lambda_d * cost1, np.inf),
                           np.column_stack([np.arange(n), np.full(n, n)]),
                           cfg.lambda_m * phi)[:n]
        assert np.array_equal(a, b)


def frontier_reference(region, frontier, mesh, probmap, cfg):
    """Per-face costs and labels, written out one face at a time; also
    which faces the non-planar prior made cheaper than the plane distance."""
    cost0, phi, labels, prior = [], [], [], []
    for f in frontier:
        d = float(np.abs(mesh.vertices[mesh.faces[f]] @ region.normal
                         + region.offset).max())
        ci = np.inf
        if probmap.label[f] == 1 and region.region_type == 1:
            ci = 1.0 - cfg.lambda_g * float(probmap.g_hat[f])
        c0 = min(d, ci)
        prior.append(ci < d)
        n = mesh.face_normal[f]
        p = 0.0 if not np.any(n) else float(
            np.arccos(np.clip(n @ region.normal, -1.0, 1.0)) / np.pi)
        join = cfg.lambda_d * c0 <= (cfg.lambda_d * (1.0 - c0)
                                     + cfg.lambda_m * p)
        cost0.append(c0)
        phi.append(p)
        labels.append(0 if join else 1)
    return (np.array(cost0), np.array(phi), np.array(labels, dtype=np.uint8),
            np.array(prior))


def test_label_frontier_matches_per_face_definition():
    rng = np.random.default_rng(12)
    m = grid_mesh(10, 10, dx=0.5)
    m.vertices = m.vertices + rng.standard_normal(m.vertices.shape) * 0.2
    m.faces[::9, 2] = m.faces[::9, 1]           # collapsed: zero normal
    g = rng.random(m.n_faces)
    label = (rng.random(m.n_faces) < 0.5).astype(np.int32)
    pm = ProbabilityMap(g_hat=g, label=label, planar_prob=1.0 - g)
    frontier = sorted(rng.choice(m.n_faces, 120, replace=False).tolist())
    relaxed = degenerate = 0
    for trial in range(20):
        region = RegionState(region_type=trial % 2)
        _add_faces(region, m, rng.choice(m.n_faces, 4, replace=False).tolist())
        refit_plane(region)
        cfg = PipelineConfig(lambda_d=rng.uniform(0.5, 2.0),
                             lambda_m=rng.uniform(0.0, 1.0),
                             lambda_g=rng.uniform(0.0, 1.0))
        cost0, phi, labels, prior = frontier_reference(region, frontier, m,
                                                       pm, cfg)
        got0, got1 = unary_cost(frontier, region, m, pm, cfg)
        assert got0.tobytes() == cost0.tobytes()
        assert got1.tobytes() == (1.0 - cost0).tobytes()
        assert pairwise_cost(frontier, region, m).tobytes() == phi.tobytes()
        assert np.array_equal(label_frontier(region, frontier, m, pm, cfg),
                              labels)
        relaxed += int(prior.sum())
        degenerate += int((~m.face_normal[frontier].any(axis=1)).sum())
    assert relaxed > 0 and degenerate > 0
    assert len(label_frontier(region, [], m, pm, cfg)) == 0


def test_refit_three_points_exact():
    r = RegionState(region_type=0)
    r.acc.add(np.array([[0, 0, 1], [1, 0, 1], [0, 1, 1]], dtype=float))
    r.normal_sum = np.array([0, 0, 1.0])
    refit_plane(r)
    assert not r.plane_degenerate
    assert np.allclose(np.abs(r.normal), [0, 0, 1])
    assert r.plane_distance(np.array([[5, 5, 1.0]]))[0] < 1e-12


FAR = np.array([385000.0, 6672000.0, 0.0])     # a national grid's metres


def test_refit_incremental_equals_batch():
    for far in (np.zeros(3), FAR):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pts = rng.standard_normal((int(rng.integers(3, 40)), 3)) \
                * [3, 2, 0.3] + far
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
            # the normals' angle stays below 1e-6 degrees
            assert np.linalg.norm(np.cross(ev_i, ev_b)) < np.radians(1e-6)


def test_refit_collinear_keeps_previous():
    r = RegionState(region_type=0)
    r.acc.add(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float))
    r.normal_sum = np.array([0, 0, 1.0])
    refit_plane(r)
    saved_normal = r.normal.copy()
    saved_offset = r.offset
    r2 = RegionState(region_type=0)
    r2.normal = saved_normal
    r2.offset = saved_offset
    r2.acc.add(np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]], dtype=float))
    refit_plane(r2)
    assert r2.plane_degenerate
    assert np.array_equal(r2.normal, saved_normal)
    assert r2.offset == saved_offset


def test_refit_orientation_follows_face_normals():
    r = RegionState(region_type=0)
    r.acc.add(np.array([[0, 0, 2], [1, 0, 2], [0, 1, 2], [1, 1, 2]], dtype=float))
    r.normal_sum = np.array([0, 0, -3.0])     # faces wound downward
    refit_plane(r)
    assert np.allclose(r.normal, [0, 0, -1])
    assert r.offset == pytest.approx(2.0)


def seeded(n_faces):
    """``face_segment`` before growth from face 0, which holds id 0."""
    face_segment = np.full(n_faces, -1, dtype=np.int32)
    face_segment[0] = 0
    return face_segment


def test_grow_coplanar_patch():
    m = grid_mesh(5, 1)
    adj = build_adjacency(m)
    pm = flat_probmap(m.n_faces)
    face_segment = seeded(m.n_faces)
    region = grow_region(0, m, adj, pm, PipelineConfig(lambda_m=0.0),
                         face_segment)
    assert (face_segment == 0).sum() == m.n_faces == 10
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
    face_segment = seeded(m.n_faces)
    grow_region(0, m, adj, pm, PipelineConfig(), face_segment)
    assert np.flatnonzero(face_segment == 0).tolist() == list(range(16))


def test_grow_single_face():
    m = TriangleMesh(vertices=np.eye(3), faces=np.array([[0, 1, 2]]))
    face_segment = seeded(1)
    grow_region(0, m, build_adjacency(m), flat_probmap(1), PipelineConfig(),
                face_segment)
    assert face_segment.tolist() == [0]


def test_grow_skips_faces_of_earlier_regions():
    m = grid_mesh(5, 1)
    # faces 0-3 belong to region 3; the seed, face 4, starts region 7
    face_segment = np.array([3] * 4 + [7] + [-1] * 5, dtype=np.int32)
    grow_region(4, m, build_adjacency(m), flat_probmap(m.n_faces),
                PipelineConfig(lambda_m=0.0), face_segment)
    assert face_segment.tolist() == [3] * 4 + [7] * 6


def test_oversegment_two_parallel_planes():
    a = grid_mesh(3, 3)
    b = grid_mesh(3, 3, z=5.0)
    verts = np.vstack([a.vertices, b.vertices])
    faces = np.vstack([a.faces, b.faces + a.n_vertices])
    m = TriangleMesh(vertices=verts, faces=faces.astype(np.int32))
    seg = oversegment(m, build_adjacency(m), flat_probmap(m.n_faces))
    assert seg.n_segments == 2
    assert len(set(seg.face_segment.tolist())) == 2


def test_oversegment_zero_area_segment_is_nonplanar():
    # a collapsed face and an isolated collinear sliver each form a
    # segment without area, hence without a plane
    g = grid_mesh(3, 3)
    nv = g.n_vertices
    verts = np.vstack([g.vertices, [[0, 0, 5], [1, 0, 5], [2, 0, 5]]])
    faces = np.vstack([g.faces, [0, 0, 1], [nv, nv + 1, nv + 2]])
    m = TriangleMesh(vertices=verts, faces=faces)
    seg = oversegment(m, build_adjacency(m), flat_probmap(m.n_faces))
    types = seg.segment_type[seg.face_segment]
    assert (types[:g.n_faces] == overseg.PLANAR).all()
    assert (types[g.n_faces:] == overseg.NONPLANAR).all()
    assert seg.n_segments == 3


def test_oversegment_partition_and_connectivity():
    rng = np.random.default_rng(2)
    m = grid_mesh(6, 6)
    m.vertices[:, 2] = 0.3 * np.sin(m.vertices[:, 0]) * np.cos(m.vertices[:, 1])
    adj = build_adjacency(m)
    g = rng.random(m.n_faces)
    pm = ProbabilityMap(g_hat=g, label=(g > 0.5).astype(np.int32),
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
            for nb in neighbor_list(adj, f):
                if int(nb) in set(faces.tolist()) and int(nb) not in seen:
                    seen.add(int(nb))
                    stack.append(int(nb))
        assert seen == set(faces.tolist())


def grow_region_per_face_refit(seed, mesh, adjacency, probmap, cfg,
                               face_segment):
    """``grow_region`` with the plane refit after every accepted face."""
    region_id = face_segment[seed]
    region = RegionState(region_type=int(probmap.label[seed]))
    _add_faces(region, mesh, [seed])
    refit_plane(region)
    if region.plane_degenerate:
        n = mesh.face_normal[seed]
        if np.any(n):
            region.normal = n.copy()
            region.offset = -float(n @ mesh.face_centroid[seed])
    front = [seed]
    while front:
        cand = {int(nb) for f in front for nb in neighbor_list(adjacency, f)}
        cand -= region.visited
        frontier = sorted([f for f in cand if face_segment[f] < 0])
        if not frontier:
            break
        labels = label_frontier(region, frontier, mesh, probmap, cfg)
        front = []
        for f, lab in zip(frontier, labels):
            if lab == 0:
                face_segment[f] = region_id
                _add_faces(region, mesh, [f])
                refit_plane(region)
                front.append(f)
            else:
                region.visited.add(f)
    return region


def same_segmentation(a, b):
    """Equal face segments and types; planes equal up to rounding."""
    return (all(x.dtype == y.dtype and x.shape == y.shape
                and x.tobytes() == y.tobytes()
                for x, y in ((a.face_segment, b.face_segment),
                             (a.segment_type, b.segment_type)))
            and a.planes.shape == b.planes.shape
            and np.allclose(a.planes, b.planes, rtol=0.0, atol=1e-9))


def byte_equal(a, b):
    """Equal face segments, types and planes, dtype and bytes alike."""
    return all(x.dtype == y.dtype and x.shape == y.shape
               and x.tobytes() == y.tobytes()
               for x, y in ((a.face_segment, b.face_segment),
                            (a.segment_type, b.segment_type),
                            (a.planes, b.planes)))


def collinear_strips(rng, n_strips):
    """Chains of zero-area faces on random lines about 1 km to 10 km out.

    Sums of raw coordinates would cancel in the far-off scatter and make a
    refit degenerate or not almost at random.
    """
    verts, faces = [], []
    for _ in range(n_strips):
        n = int(rng.integers(5, 9))
        d = rng.standard_normal(3)
        t = np.sort(rng.uniform(0.0, 10.0, n))
        base = sum(len(v) for v in verts)
        verts.append(rng.uniform(-1.0, 1.0, 3) * 10.0 ** rng.uniform(3, 4)
                     + t[:, None] * d / np.linalg.norm(d))
        i = np.arange(n - 2) + base
        faces.append(np.column_stack([i, i + 1, i + 2]))
    return TriangleMesh(vertices=np.vstack(verts),
                        faces=np.vstack(faces).astype(np.int32))


def test_step_refit_equals_per_face_refit_on_noisy_grids(monkeypatch):
    rng = np.random.default_rng(21)
    for trial in range(8):
        m = grid_mesh(9, 7, dx=0.5)
        m.vertices = m.vertices + rng.standard_normal(m.vertices.shape) \
            * rng.choice([0.01, 0.05, 0.2])
        adj = build_adjacency(m)
        g = rng.random(m.n_faces)
        pm = ProbabilityMap(g_hat=g, label=(g > 0.5).astype(np.int32),
                            planar_prob=1.0 - g)
        cfg = PipelineConfig(lambda_d=rng.uniform(0.5, 3.0),
                             lambda_m=rng.uniform(0.0, 0.5))
        got = oversegment(m, adj, pm, cfg)
        with monkeypatch.context() as mp:
            mp.setattr(overseg, "grow_region", grow_region_per_face_refit)
            want = oversegment(m, adj, pm, cfg)
        assert same_segmentation(got, want)
        assert byte_equal(got, set_oversegment(m, adj, pm, cfg))
        assert got.n_segments < m.n_faces


def test_step_refit_equals_per_face_refit_on_far_off_strips(monkeypatch):
    rng = np.random.default_rng(3)
    m = collinear_strips(rng, 150)
    adj = build_adjacency(m)
    nf = m.n_faces
    # non-planar faces and prior: every face joins whatever the plane is;
    # seeds inside a strip grow both ways, two faces per step
    pm = ProbabilityMap(g_hat=np.ones(nf),
                        label=np.ones(nf, dtype=np.int32),
                        planar_prob=rng.random(nf))
    got = oversegment(m, adj, pm)
    with monkeypatch.context() as mp:
        mp.setattr(overseg, "grow_region", grow_region_per_face_refit)
        want = oversegment(m, adj, pm)
    assert got.n_segments == 150
    assert same_segmentation(got, want)
    assert byte_equal(got, set_oversegment(m, adj, pm))


def test_oversegment_equals_set_based_growth_on_tile():
    mesh = synth_tile(TileParams(seed=1, ground_res=16, n_boxes=2, n_trees=1,
                                 n_vehicles=1))
    adj = build_adjacency(mesh)
    rng = np.random.default_rng(8)
    g = rng.random(mesh.n_faces)
    pm = ProbabilityMap(g_hat=g, planar_prob=1.0 - g, label=(
        mesh.face_label == CLASS_VEGETATION).astype(np.int32))
    got = oversegment(mesh, adj, pm)
    assert 1 < got.n_segments < mesh.n_faces
    assert byte_equal(got, set_oversegment(mesh, adj, pm))


def test_oversegment_same_at_georeferenced_offset():
    # the test_step_refit recipe on larger grids, moved to a national
    # grid's coordinates: the regions must not change
    rng = np.random.default_rng(21)
    for trial in range(40):
        m = grid_mesh(12, 10, dx=0.5)
        m.vertices = m.vertices + rng.standard_normal(m.vertices.shape) \
            * rng.choice([0.01, 0.05, 0.2])
        far = TriangleMesh(vertices=m.vertices + FAR, faces=m.faces)
        g = rng.random(m.n_faces)
        pm = ProbabilityMap(g_hat=g, label=(g > 0.5).astype(np.int32),
                            planar_prob=1.0 - g)
        cfg = PipelineConfig(lambda_d=rng.uniform(0.5, 3.0),
                             lambda_m=rng.uniform(0.0, 0.5))
        near = oversegment(m, build_adjacency(m), pm, cfg)
        moved = oversegment(far, build_adjacency(far), pm, cfg)
        assert np.array_equal(near.face_segment, moved.face_segment), trial


def test_oversegment_deterministic():
    m = grid_mesh(5, 5)
    rng = np.random.default_rng(0)
    m.vertices[:, 2] = rng.random(m.n_vertices) * 0.3
    adj = build_adjacency(m)
    g = rng.random(m.n_faces)
    pm = ProbabilityMap(g_hat=g,
                        label=(g > 0.6).astype(np.int32), planar_prob=1.0 - g)
    s1 = oversegment(m, adj, pm)
    s2 = oversegment(m, adj, pm)
    assert np.array_equal(s1.face_segment, s2.face_segment)
    assert np.array_equal(s1.segment_type, s2.segment_type)
    assert np.array_equal(s1.planes, s2.planes)
