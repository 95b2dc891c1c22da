"""End-to-end acceptance checks; each test prints one verdict line.

Every test covers one numbered requirement and finishes by printing
``criterion NN PASS`` or ``criterion NN FAIL`` with the failing details,
then asserting. Exact comparisons (``==`` on floats) are intentional:
those requirements hold identities, not approximations.
"""

import itertools
import time
from collections import defaultdict

import numpy as np
import pytest

from pssmesh.adjacency import build_adjacency, face_connected_components
from pssmesh.config import PipelineConfig
from pssmesh.forest import ProbabilityMap, save_model
from pssmesh.medial import shrinking_ball_transform
from pssmesh.meshio import save_mesh
from pssmesh.metrics import (
    majority_labels,
    max_achievable,
    object_purity,
    overseg_report,
    semantic_metrics,
)
from pssmesh.overseg import (
    PlaneAccumulator,
    RegionState,
    _add_faces,
    label_frontier,
    oversegment,
    pairwise_cost,
    refit_plane,
    unary_cost,
)
from pssmesh.pipeline import run_pipeline, train_models
from pssmesh.seggraph import EDGE_GROUND, EDGE_PARALLEL
from pssmesh.synth import (
    CLASS_BUILDING,
    CLASS_TERRAIN,
    CLASS_VEHICLE,
    TileParams,
    synth_tile,
)

from conftest import grid_mesh, neighbor_list
from mincut import binary_energy, min_cut_binary


def verdict(n, checks):
    failed = [msg for ok, msg in checks if not ok]
    line = f"criterion {n:02d} " + \
        ("PASS" if not failed else "FAIL: " + "; ".join(failed))
    print(line)
    assert not failed, line


# ------------------------------------------------------- brute-force oracles


def brute_purity(seg, comp, areas):
    total = 0.0
    overlap = defaultdict(lambda: defaultdict(float))
    for f in range(len(seg)):
        if comp[f] >= 0:
            total += areas[f]
            if seg[f] >= 0:
                overlap[seg[f]][comp[f]] += areas[f]
    return sum(max(d.values()) for d in overlap.values()) / total


def brute_confusion(pred, gt, areas, classes):
    pos = {c: i for i, c in enumerate(classes)}
    conf = np.zeros((len(classes), len(classes)))
    for f in range(len(pred)):
        if gt[f] >= 0 and pred[f] >= 0:
            conf[pos[gt[f]], pos[pred[f]]] += areas[f]
    return conf


def brute_majority(seg, gt, areas):
    votes = defaultdict(lambda: defaultdict(float))
    for f in range(len(seg)):
        if seg[f] >= 0 and gt[f] >= 0:
            votes[seg[f]][gt[f]] += areas[f]
    best = {}
    for s, d in votes.items():
        top = max(d.values())
        best[s] = min(c for c, a in d.items() if a == top)
    return np.array([best.get(s, -1) if s >= 0 else -1 for s in seg])


def brute_miou(conf):
    tp = np.diag(conf)
    row = conf.sum(axis=1)
    den = row + conf.sum(axis=0) - tp
    iou = np.zeros_like(tp)
    nz = den > 0
    iou[nz] = tp[nz] / den[nz]
    present = row > 0
    return float(iou[present].mean()) if present.any() else 0.0


def fibonacci_sphere(n, radius=1.0):
    i = np.arange(n, dtype=np.float64)
    phi = np.pi * (3.0 - np.sqrt(5.0))
    y = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - y * y))
    pts = np.column_stack([np.cos(phi * i) * r, y, np.sin(phi * i) * r])
    return pts * radius


def plane_grid(nx, ny, spacing, z=0.0):
    xs = (np.arange(nx) + 0.5) * spacing
    ys = (np.arange(ny) + 0.5) * spacing
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)])


# --------------------------------------------------------- shared end-to-end


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    """Models trained on the seed-0 tile plus finished runs on both tiles."""
    root = tmp_path_factory.mktemp("acceptance")
    paths = {}
    for seed in (0, 1):
        paths[seed] = root / f"tile{seed}.ply"
        save_mesh(synth_tile(TileParams(seed=seed)), paths[seed])
    trained = train_models(PipelineConfig(threads=1), [paths[0]])
    pm_path = root / "planarity.model"
    sm_path = root / "semantic.model"
    save_model(trained.planarity, pm_path)
    save_model(trained.semantic, sm_path)

    def run_cfg(tile, name):
        return PipelineConfig(input_path=str(tile),
                              output_dir=str(root / name),
                              planarity_model=str(pm_path),
                              semantic_model=str(sm_path), threads=1)

    t0 = time.perf_counter()
    run0 = run_pipeline(run_cfg(paths[0], "run0"))
    seconds0 = time.perf_counter() - t0
    run1 = run_pipeline(run_cfg(paths[1], "run1"))
    return {"tile0": paths[0], "run_cfg": run_cfg, "run0": run0,
            "run1": run1, "seconds0": seconds0}


# ---------------------------------------------------------------- criteria


def test_criterion_01_metric_identities():
    t0 = time.perf_counter()
    mesh = synth_tile(TileParams(seed=0))
    adj = build_adjacency(mesh)
    comps = face_connected_components(mesh, adj, mesh.face_label)
    rep = overseg_report(mesh, adj, comps, mesh.face_label, rings=2)
    ub, _ = max_achievable(comps, mesh.face_label, mesh.face_area)
    secs = time.perf_counter() - t0
    verdict(1, [
        (rep.op == 1.0, f"OP={rep.op}"),
        (rep.bp == 1.0, f"BP={rep.bp}"),
        (rep.br == 1.0, f"BR={rep.br}"),
        (ub.miou == 1.0, f"upper-bound mIoU={ub.miou}"),
        (secs < 5.0, f"{secs:.2f}s"),
    ])


def test_criterion_02_metric_oracles():
    rng = np.random.default_rng(2)
    meshes = [grid_mesh(10, 10, dx=0.5), grid_mesh(15, 16, dx=0.5)]
    bad_op = bad_conf = bad_ub = 0
    for i in range(100):
        mesh = meshes[i % 2]
        areas = mesh.face_area
        n = mesh.n_faces
        seg = rng.integers(-1, 12, n)
        comp = rng.integers(-1, 9, n)
        gt = rng.integers(-1, 4, n)
        pred = rng.integers(-1, 4, n)
        if object_purity(seg, comp, areas) != brute_purity(seg, comp, areas):
            bad_op += 1
        rep = semantic_metrics(pred, gt, areas)
        if (rep.confusion
                != brute_confusion(pred, gt, areas, list(rep.classes))).any():
            bad_conf += 1
        ub, induced = max_achievable(seg, gt, areas)
        expect = brute_majority(seg, gt, areas)
        conf = brute_confusion(expect, gt, areas, list(ub.classes))
        if (induced != expect).any() or (ub.confusion != conf).any() \
                or ub.miou != brute_miou(conf):
            bad_ub += 1
    verdict(2, [
        (bad_op == 0, f"{bad_op} OP mismatches"),
        (bad_conf == 0, f"{bad_conf} confusion mismatches"),
        (bad_ub == 0, f"{bad_ub} upper-bound mismatches"),
    ])


def test_criterion_03_split_monotonicity():
    rng = np.random.default_rng(3)
    mesh = grid_mesh(8, 8, dx=0.5)
    areas = mesh.face_area
    violations = done = 0
    while done < 1000:
        seg = rng.integers(0, 6, mesh.n_faces)
        comp = rng.integers(0, 4, mesh.n_faces)
        members = np.flatnonzero(seg == int(rng.integers(0, 6)))
        if len(members) < 2:
            continue
        take = rng.random(len(members)) < 0.5
        if not take.any() or take.all():
            take[0] = ~take[0]
        before = object_purity(seg, comp, areas)
        split = seg.copy()
        split[members[take]] = seg.max() + 1
        violations += object_purity(split, comp, areas) < before
        done += 1
    verdict(3, [(violations == 0, f"{violations} OP drops after a split")])


def test_criterion_04_energy_optimality():
    rng = np.random.default_rng(4)

    def bit_rows(n):
        return (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1

    bad_frontier = 0
    mesh = adj = None
    for trial in range(1000):
        if trial % 250 == 0:
            mesh = grid_mesh(8, 8)
            mesh.vertices = mesh.vertices \
                + rng.standard_normal(mesh.vertices.shape) * 0.2
            adj = build_adjacency(mesh)
        n_faces = mesh.n_faces
        g_hat = rng.uniform(0.2, 1.0, n_faces)
        pm = ProbabilityMap(g_hat=g_hat,
                            label=rng.integers(0, 2, n_faces).astype(np.int32),
                            planar_prob=rng.random(n_faces))
        seed = int(rng.integers(0, n_faces))
        region = RegionState(region_type=int(pm.label[seed]))
        _add_faces(region, mesh, [seed])
        members = [seed]
        for nb in map(int, neighbor_list(adj, seed)):
            if len(members) < 3 and rng.random() < 0.5:
                _add_faces(region, mesh, [nb])
                members.append(nb)
        refit_plane(region)
        frontier = sorted({int(x) for f in members
                           for x in neighbor_list(adj, f)}
                          - set(members))[:12]
        if not frontier:
            continue
        cfg = PipelineConfig(lambda_d=float(rng.choice([0.6, 1.2, 2.4])),
                             lambda_m=float(rng.choice([0.0, 0.1, 1.0])))
        cost0 = np.empty(len(frontier))
        cost1 = np.empty(len(frontier))
        phi = np.empty(len(frontier))
        for i, f in enumerate(frontier):
            cost0[i], cost1[i] = unary_cost(f, region, mesh, pm, cfg)
            phi[i] = pairwise_cost(f, region, mesh)
        stay = cfg.lambda_d * cost1 + cfg.lambda_m * phi
        join = cfg.lambda_d * cost0
        bits = bit_rows(len(frontier))
        table = np.where(bits == 0, join, stay).sum(axis=1)
        best = table.min()
        direct = label_frontier(region, frontier, mesh, pm, cfg)
        # star graph: frontier faces plus the region node, pinned to label 0
        n = len(frontier)
        star = min_cut_binary(np.append(cfg.lambda_d * cost0, 0.0),
                              np.append(cfg.lambda_d * cost1, np.inf),
                              np.column_stack([np.arange(n), np.full(n, n)]),
                              cfg.lambda_m * phi)[:n]
        for lab in (direct, star):
            row = int((lab.astype(np.int64)
                       << np.arange(len(frontier))).sum())
            if table[row] != best:
                bad_frontier += 1

    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    bad_cut = 0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        u0 = rng.choice(grid, n)
        u1 = rng.choice(grid, n)
        edges = rng.integers(0, n, (int(rng.integers(0, 2 * n)), 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        w = rng.choice(grid, len(edges))
        labels = min_cut_binary(u0, u1, edges, w)
        bits = bit_rows(n)
        table = np.where(bits == 0, u0, u1).sum(axis=1)
        for (a, b), wt in zip(edges, w):
            table = table + wt * (bits[:, a] != bits[:, b])
        if binary_energy(u0, u1, edges, w, labels) != table.min():
            bad_cut += 1
    verdict(4, [
        (bad_frontier == 0, f"{bad_frontier} frontier energy gaps"),
        (bad_cut == 0, f"{bad_cut} min-cut energy gaps"),
    ])


def test_criterion_05_incremental_plane_refit():
    # near the origin and at a georeferenced offset (a national grid puts
    # a city mesh millions of metres out); far off, the plane offset is
    # compared relative to the centroid's distance from the origin
    checks = []
    for far in (np.zeros(3), np.array([385000.0, 6672000.0, 0.0])):
        rng = np.random.default_rng(5)
        worst = angle = 0.0
        for _ in range(1000):
            n = int(rng.integers(3, 60))
            scale = [rng.uniform(2.0, 4.0), rng.uniform(0.8, 1.5),
                     rng.uniform(0.05, 0.3)]
            pts = rng.standard_normal((n, 3)) * scale \
                + rng.uniform(-5, 5, 3) + far
            acc = PlaneAccumulator()
            for p in pts:
                acc.add(p)
            scatter, mu = acc.scatter()
            batch_mu = pts.mean(axis=0)
            centered = pts - batch_mu
            ni = np.linalg.eigh(scatter)[1][:, 0]
            nb = np.linalg.eigh(centered.T @ centered)[1][:, 0]
            if ni @ nb < 0.0:
                nb = -nb
            unit = max(1.0, float(np.abs(far).max()))
            worst = max(worst, float(np.abs(ni - nb).max()),
                        abs(-(ni @ mu) - -(nb @ batch_mu)) / unit)
            angle = max(angle, float(np.degrees(np.arctan2(
                np.linalg.norm(np.cross(ni, nb)), ni @ nb))))
        where = f"at offset {far.tolist()}"
        checks += [(worst <= 1e-9, f"max deviation {worst:.3e} {where}"),
                   (angle <= 1e-6, f"normal angle {angle:.3e} deg {where}")]
    verdict(5, checks)


def test_criterion_06_shrinking_ball_radii():
    t0 = time.perf_counter()
    radius = 5.0
    n = int(4 * np.pi * radius * radius * 50.0)
    pts = fibonacci_sphere(n, radius)
    normals = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    balls = shrinking_ball_transform(pts, normals, "interior")
    r = balls.radii[balls.kept]
    sphere_frac = float(((r >= 4.9) & (r <= 5.1)).mean())

    spacing = 1.0 / np.sqrt(50.0)
    a = plane_grid(70, 70, spacing, z=0.0)
    b = plane_grid(70, 70, spacing, z=2.0)
    pts = np.vstack([a, b])
    normals = np.zeros_like(pts)
    normals[:len(a), 2] = 1.0
    normals[len(a):, 2] = -1.0
    balls = shrinking_ball_transform(pts, normals, "exterior")
    r = balls.radii[balls.kept]
    slab_frac = float(((r >= 0.95) & (r <= 1.05)).mean())
    secs = time.perf_counter() - t0
    verdict(6, [
        (sphere_frac >= 0.95, f"sphere fraction {sphere_frac:.3f}"),
        (slab_frac >= 0.95, f"slab fraction {slab_frac:.3f}"),
        (secs < 30.0, f"{secs:.1f}s"),
    ])


def test_criterion_07_weight_trends(e2e):
    mesh = e2e["run0"].mesh
    adj = build_adjacency(mesh)
    pm = e2e["run0"].probmap

    def run(ld, lm):
        seg = oversegment(mesh, adj, pm,
                          PipelineConfig(lambda_d=ld, lambda_m=lm))
        rep = overseg_report(mesh, adj, seg.face_segment, mesh.face_label,
                             rings=2)
        return seg.n_segments, rep.op

    d_counts, d_ops = zip(*(run(ld, 0.1) for ld in (0.6, 1.2, 2.4)))
    m_counts = [run(1.2, lm)[0] for lm in (0.0, 0.1, 1.0)]
    verdict(7, [
        (d_counts[0] <= d_counts[1] <= d_counts[2],
         f"lambda_d counts {d_counts} not non-decreasing"),
        (d_ops[0] <= d_ops[1] <= d_ops[2],
         f"lambda_d OP {d_ops} not non-decreasing"),
        (m_counts[0] >= m_counts[1] >= m_counts[2],
         f"lambda_m counts {m_counts} not non-increasing"),
    ])


def test_criterion_08_end_to_end_quality(e2e):
    run0, run1 = e2e["run0"], e2e["run1"]
    faces = run0.mesh.n_faces
    count = run0.segmentation.n_segments
    verdict(8, [
        (run0.overseg.op >= 0.95, f"OP {run0.overseg.op:.4f}"),
        (count <= faces / 10, f"{count} segments on {faces} faces"),
        (run0.upper_bound.miou >= 0.90,
         f"upper-bound mIoU {run0.upper_bound.miou:.4f}"),
        (run1.semantic.miou >= 0.70,
         f"held-out semantic mIoU {run1.semantic.miou:.4f}"),
        (e2e["seconds0"] < 60.0, f"pipeline took {e2e['seconds0']:.1f}s"),
    ])


def test_criterion_09_boundary_tolerance():
    n = 10
    mesh = grid_mesh(n, 2, dx=1.0)
    adj = build_adjacency(mesh)
    col = (np.arange(mesh.n_faces) // 2) // 2
    gt = (col >= n // 2).astype(int)
    pred = (col >= n // 2 + 1).astype(int)
    at2 = overseg_report(mesh, adj, pred, gt, rings=2)
    at0 = overseg_report(mesh, adj, pred, gt, rings=0)
    verdict(9, [
        (at2.bp == 1.0, f"BP(2)={at2.bp}"),
        (at2.br == 1.0, f"BR(2)={at2.br}"),
        (at0.bp == 0.0, f"BP(0)={at0.bp}"),
        (at0.br == 0.0, f"BR(0)={at0.br}"),
    ])


def test_criterion_10_determinism(e2e):
    again = run_pipeline(e2e["run_cfg"](e2e["tile0"], "run0_repeat"))
    a = e2e["run0"].manifest.outputs
    b = again.manifest.outputs
    differing = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    verdict(10, [(not differing, f"hashes differ: {differing}")])


def test_criterion_11_graph_correctness(e2e):
    run0 = e2e["run0"]
    mesh, seg, graph = run0.mesh, run0.segmentation, run0.graph
    induced = majority_labels(seg.face_segment, mesh.face_label,
                              mesh.face_area)
    maj = np.full(seg.n_segments, -1, dtype=np.int64)
    valid = seg.face_segment >= 0
    maj[seg.face_segment[valid]] = induced[valid]

    def has_type(a, b, kind):
        edge = graph.edges.get((min(a, b), max(a, b)))
        return edge is not None and kind in edge.types

    terrain = np.flatnonzero(maj == CLASS_TERRAIN)
    checks = [(len(terrain) == 1, f"{len(terrain)} ground segments")]
    ground = int(terrain[0]) if len(terrain) else -1
    boxy = [k for k in range(seg.n_segments)
            if maj[k] in (CLASS_BUILDING, CLASS_VEHICLE)]
    no_link = [k for k in boxy if not has_type(k, ground, EDGE_GROUND)]
    checks.append((not no_link, f"no ground link: {no_link}"))

    roofs = [k for k in range(seg.n_segments)
             if maj[k] == CLASS_BUILDING and seg.segment_type[k] == 0
             and abs(seg.planes[k, 2]) > 0.99]
    missing = [(a, b) for a, b in itertools.combinations(roofs, 2)
               if not has_type(a, b, EDGE_PARALLEL)]
    checks.append((len(roofs) >= 2, f"only {len(roofs)} roof planes"))
    checks.append((not missing, f"roof pairs not linked: {missing}"))
    verdict(11, checks)
