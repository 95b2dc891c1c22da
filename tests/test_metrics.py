"""Over-segmentation and semantic metric tests with brute-force oracles."""

from collections import defaultdict

import numpy as np
import pytest

from pssmesh.adjacency import build_adjacency, face_connected_components
from pssmesh.metrics import (
    BoundarySet,
    _matched_score,
    boundary_set,
    majority_labels,
    match_boundaries,
    max_achievable,
    object_purity,
    overseg_report,
    semantic_metrics,
)

from conftest import grid_mesh, icosahedron
from oracles import bfs_match_boundaries
from pssmesh.mesh import TriangleMesh


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


# ---------------------------------------------------------------- purity


def test_purity_identity():
    mesh = grid_mesh(6, 6, dx=0.5)
    comp = np.arange(mesh.n_faces) // 10
    assert object_purity(comp, comp, mesh.face_area) == 1.0


def test_purity_two_components_three_to_one():
    # one segment spans two truth components with areas in ratio 3:1
    areas = np.array([1.0, 1.0, 1.0, 1.0])
    seg = np.zeros(4, dtype=int)
    comp = np.array([0, 0, 0, 1])
    assert object_purity(seg, comp, areas) == 0.75


def test_purity_mixed_overlap():
    # s1 inside g1 (area 4); s2 overlaps g1 (1) and g2 (3) -> (4+3)/8
    areas = np.ones(8)
    seg = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    comp = np.array([0, 0, 0, 0, 0, 1, 1, 1])
    assert object_purity(seg, comp, areas) == 0.875


def test_purity_requires_labeled_truth():
    with pytest.raises(ValueError, match="no labeled ground truth"):
        object_purity([0, 0], [-1, -1], [1.0, 1.0])


def test_purity_unsegmented_faces_lower_score():
    areas = np.ones(4)
    seg = np.array([0, 0, -1, -1])
    comp = np.zeros(4, dtype=int)
    assert object_purity(seg, comp, areas) == 0.5


def test_purity_matches_brute_force_random():
    rng = np.random.default_rng(11)
    mesh = grid_mesh(10, 10, dx=0.5)       # dyadic areas: exact sums
    areas = mesh.face_area
    for _ in range(100):
        seg = rng.integers(-1, 12, mesh.n_faces)
        comp = rng.integers(-1, 9, mesh.n_faces)
        if not (comp >= 0).any():
            continue
        assert object_purity(seg, comp, areas) == brute_purity(seg, comp, areas)


def test_purity_split_monotone_random():
    rng = np.random.default_rng(12)
    mesh = grid_mesh(8, 8, dx=0.5)
    areas = mesh.face_area
    for _ in range(200):
        seg = rng.integers(0, 6, mesh.n_faces)
        comp = rng.integers(0, 4, mesh.n_faces)
        before = object_purity(seg, comp, areas)
        sid = int(rng.integers(0, 6))
        members = np.flatnonzero(seg == sid)
        if len(members) < 2:
            continue
        take = rng.random(len(members)) < 0.5
        if not take.any() or take.all():
            take[0] = ~take[0]
        split = seg.copy()
        split[members[take]] = seg.max() + 1
        assert object_purity(split, comp, areas) >= before


# ---------------------------------------------------------------- boundaries


def test_boundary_uniform_empty():
    mesh = grid_mesh(4, 4)
    adj = build_adjacency(mesh)
    assert len(boundary_set(adj, np.zeros(mesh.n_faces, dtype=int))) == 0


def test_boundary_strip_split():
    # 4x1 quad strip split down the middle: boundary = one vertical edge
    mesh = grid_mesh(4, 1, dx=1.0)
    adj = build_adjacency(mesh)
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    b = boundary_set(adj, labels)
    assert len(b) == 1
    assert b.total_length == 1.0
    u, v = b.vertices[0]
    assert mesh.vertices[u][0] == 2.0 and mesh.vertices[v][0] == 2.0


def test_boundary_every_face_own_segment():
    mesh = grid_mesh(3, 3)
    adj = build_adjacency(mesh)
    b = boundary_set(adj, np.arange(mesh.n_faces))
    interior = int((adj.edge_faces[:, 1] >= 0).sum())
    assert len(b) == interior


def test_boundary_skip_unlabeled():
    mesh = grid_mesh(4, 1)
    adj = build_adjacency(mesh)
    labels = np.array([0, 0, -1, -1, 1, 1, 1, 1])
    strict = boundary_set(adj, labels, skip_unlabeled=True)
    loose = boundary_set(adj, labels)
    assert len(strict) < len(loose)
    f0 = adj.edge_faces[strict.edge_ids, 0]
    f1 = adj.edge_faces[strict.edge_ids, 1]
    assert (labels[f0] >= 0).all() and (labels[f1] >= 0).all()


def test_match_identity_and_empty():
    mesh = grid_mesh(5, 3)
    adj = build_adjacency(mesh)
    labels = (np.arange(mesh.n_faces) // 6) % 3
    b = boundary_set(adj, labels)
    assert match_boundaries(b, b, adj, rings=0).all()
    empty = BoundarySet(np.zeros(0, dtype=np.int64),
                        np.zeros((0, 2), dtype=np.int32), np.zeros(0))
    assert not match_boundaries(b, empty, adj, 2).any()


def offset_strip(n=10):
    """Two labelings of a strip whose split lines sit one column apart."""
    ny = 2
    mesh = grid_mesh(n, ny, dx=1.0)
    adj = build_adjacency(mesh)
    col = (np.arange(mesh.n_faces) // 2) // ny
    a = (col >= n // 2).astype(int)
    b = (col >= n // 2 + 1).astype(int)
    return mesh, adj, a, b


def test_match_offset_by_one():
    mesh, adj, la, lb = offset_strip()
    ba = boundary_set(adj, la)
    bb = boundary_set(adj, lb)
    assert match_boundaries(ba, bb, adj, rings=2).all()
    assert not match_boundaries(ba, bb, adj, rings=0).any()
    # a as the prediction: BP; a as the truth: BR
    assert _matched_score(ba, bb, adj, 2, recall=False)[0] == 1.0
    assert _matched_score(ba, bb, adj, 2, recall=True)[0] == 1.0
    assert _matched_score(ba, bb, adj, 0, recall=False)[0] == 0.0


def test_match_rings_monotone():
    mesh, adj, la, lb = offset_strip()
    ba = boundary_set(adj, la)
    bb = boundary_set(adj, lb)
    prev = -1.0
    for rings in (0, 1, 2, 3):
        bp = _matched_score(ba, bb, adj, rings, recall=False)[0]
        assert bp >= prev
        prev = bp


def open_mesh_with_collapsed_faces(rng):
    """Perturbed open grid plus a closed icosahedron, some faces collapsed."""
    grid = grid_mesh(int(rng.integers(2, 9)), int(rng.integers(1, 7)))
    ico = icosahedron()
    faces = np.vstack([grid.faces, ico.faces + grid.n_vertices])
    for f in rng.choice(len(faces), 3, replace=False):
        faces[f, 2] = faces[f, int(rng.integers(0, 2))]
    verts = np.vstack([grid.vertices, ico.vertices + 20.0])
    verts += rng.normal(0.0, 0.05, verts.shape)
    return TriangleMesh(vertices=verts, faces=faces)


def test_match_equals_bfs_oracle():
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(25):
        mesh = open_mesh_with_collapsed_faces(rng)
        adj = build_adjacency(mesh)
        assert (adj.edge_faces[:, 1] < 0).any()             # border edges
        assert mesh.degenerate_faces.sum() == 3
        pred = rng.integers(0, int(rng.integers(2, 6)), mesh.n_faces)
        gt = rng.integers(-1, int(rng.integers(2, 5)), mesh.n_faces)
        bp = boundary_set(adj, pred)
        bg = boundary_set(adj, gt, skip_unlabeled=True)
        for rings in (0, 1, 2, 3):
            for cand, ref in ((bp, bg), (bg, bp)):
                got = match_boundaries(cand, ref, adj, rings)
                want = bfs_match_boundaries(cand, ref, adj, rings)
                assert np.array_equal(got, want), rings
                checked += int(want.sum()) * int((~want).sum()) > 0
    assert checked > 50      # most cases hold matched and unmatched edges


def test_bp_br_conventions():
    mesh = grid_mesh(3, 3)
    adj = build_adjacency(mesh)
    empty = BoundarySet(np.zeros(0, dtype=np.int64),
                        np.zeros((0, 2), dtype=np.int32), np.zeros(0))
    some = boundary_set(adj, np.arange(mesh.n_faces))
    # BP scores the prediction against the truth, BR the truth against it
    assert _matched_score(empty, empty, adj, 2, recall=False)[0] == 1.0
    assert _matched_score(empty, some, adj, 2, recall=False)[0] == 0.0
    assert _matched_score(empty, some, adj, 2, recall=True)[0] == 1.0
    assert _matched_score(some, empty, adj, 2, recall=True)[0] == 0.0


def test_bp_br_exchange():
    mesh = grid_mesh(6, 4, dx=0.5)
    adj = build_adjacency(mesh)
    rng = np.random.default_rng(5)
    la = rng.integers(0, 3, mesh.n_faces)
    lb = rng.integers(0, 3, mesh.n_faces)
    ab = overseg_report(mesh, adj, la, lb, rings=2)
    ba = overseg_report(mesh, adj, lb, la, rings=2)
    assert ab.bp == ba.br and ab.br == ba.bp


def test_superset_precision():
    # predicted boundary strictly contains the truth boundary
    mesh = grid_mesh(4, 1)
    adj = build_adjacency(mesh)
    gt = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    pred = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    bg = boundary_set(adj, gt)
    bs = boundary_set(adj, pred)
    rep = overseg_report(mesh, adj, pred, gt, rings=0)
    assert rep.br == 1.0
    assert rep.bp == bg.total_length / bs.total_length < 1.0


# ---------------------------------------------------------------- semantic


def test_semantic_identity():
    mesh = grid_mesh(4, 4, dx=0.5)
    gt = np.arange(mesh.n_faces) % 3
    rep = semantic_metrics(gt, gt, mesh.face_area)
    assert rep.oa == 1.0
    assert (rep.iou == 1.0).all()
    assert rep.miou == 1.0 and rep.macc == 1.0


def test_semantic_two_face_hand_case():
    areas = np.array([1.0, 3.0])
    gt = np.array([0, 1])
    pred = np.array([0, 0])
    rep = semantic_metrics(pred, gt, areas)
    assert rep.confusion[0, 0] == 1.0 and rep.confusion[1, 0] == 3.0
    assert rep.oa == 0.25
    assert rep.iou[0] == 0.25 and rep.iou[1] == 0.0
    assert "zero_denominator_precision" in rep.flags


def test_semantic_absent_class_excluded():
    areas = np.ones(4)
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 0, 1, 2])
    rep = semantic_metrics(pred, gt, areas, classes=[0, 1, 2])
    assert rep.miou == (1.0 + 0.5) / 2.0        # class 2 absent from truth


def test_semantic_row_sums_match_gt_areas():
    rng = np.random.default_rng(3)
    mesh = grid_mesh(8, 8, dx=0.5)
    areas = mesh.face_area
    gt = rng.integers(0, 4, mesh.n_faces)
    pred = rng.integers(0, 4, mesh.n_faces)
    rep = semantic_metrics(pred, gt, areas)
    for i, c in enumerate(rep.classes):
        assert rep.confusion[i].sum() == areas[gt == c].sum()


def test_semantic_matches_brute_force_random():
    rng = np.random.default_rng(21)
    mesh = grid_mesh(10, 10, dx=0.5)
    areas = mesh.face_area
    for _ in range(100):
        gt = rng.integers(-1, 4, mesh.n_faces)
        pred = rng.integers(-1, 4, mesh.n_faces)
        if not ((gt >= 0) & (pred >= 0)).any():
            continue
        rep = semantic_metrics(pred, gt, areas)
        oracle = brute_confusion(pred, gt, areas, list(rep.classes))
        assert (rep.confusion == oracle).all()


def test_semantic_unknown_label_rejected():
    with pytest.raises(ValueError, match="not in class table"):
        semantic_metrics([0, 5], [0, 1], [1.0, 1.0], classes=[0, 1])


def test_semantic_unsorted_class_table_keeps_its_order():
    rng = np.random.default_rng(8)
    mesh = grid_mesh(6, 6, dx=0.5)
    gt = rng.integers(-1, 4, mesh.n_faces)
    pred = rng.integers(-1, 4, mesh.n_faces)
    table = [3, 0, 2, 1]
    rep = semantic_metrics(pred, gt, mesh.face_area, classes=table)
    assert rep.classes.tolist() == table
    assert (rep.confusion == brute_confusion(pred, gt, mesh.face_area,
                                             table)).all()
    ref = semantic_metrics(pred, gt, mesh.face_area, classes=[0, 1, 2, 3])
    assert (rep.iou == ref.iou[table]).all()
    assert rep.miou == pytest.approx(ref.miou)
    with pytest.raises(ValueError, match="^label 4 not in class table"):
        semantic_metrics(pred, np.where(gt == 2, 4, gt), mesh.face_area,
                         classes=table)


# ---------------------------------------------------------------- upper bound


def test_majority_tie_lower_class():
    areas = np.array([2.0, 2.0])
    seg = np.array([0, 0])
    gt = np.array([3, 1])
    assert (majority_labels(seg, gt, areas) == 1).all()


def test_majority_zero_area_segment_votes_by_count():
    # segment 0 has area, so its zero-area face has no say; segment 1 has
    # none, so its faces vote equally; segment 2, the highest id, has no
    # labeled face
    seg = np.array([0, 0, 0, 1, 1, 1, 2])
    gt = np.array([3, 1, 3, 2, 0, 2, -1])
    areas = np.array([1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    want = [1, 1, 1, 2, 2, 2, -1]
    assert majority_labels(seg, gt, areas).tolist() == want
    assert max_achievable(seg, gt, areas)[1].tolist() == want


def test_majority_matches_brute_force_random():
    rng = np.random.default_rng(31)
    mesh = grid_mesh(10, 10, dx=0.5)
    areas = mesh.face_area
    for _ in range(100):
        seg = rng.integers(-1, 15, mesh.n_faces)
        gt = rng.integers(-1, 4, mesh.n_faces)
        got = majority_labels(seg, gt, areas)
        assert (got == brute_majority(seg, gt, areas)).all()


def test_max_achievable_identity_on_components():
    mesh = grid_mesh(6, 6, dx=0.5)
    adj = build_adjacency(mesh)
    gt = ((np.arange(mesh.n_faces) // 12) % 3).astype(int)
    comps = face_connected_components(mesh, adj, gt)
    rep, induced = max_achievable(comps, gt, mesh.face_area)
    assert (induced == gt).all()
    assert rep.miou == 1.0 and rep.oa == 1.0


def test_max_achievable_beats_random_segment_labelings():
    rng = np.random.default_rng(41)
    mesh = grid_mesh(8, 8, dx=0.5)
    areas = mesh.face_area
    for _ in range(50):
        seg = rng.integers(0, 10, mesh.n_faces)
        gt = rng.integers(0, 3, mesh.n_faces)
        rep, _ = max_achievable(seg, gt, areas)
        for _ in range(5):
            table = rng.integers(0, 3, 10)
            rand = semantic_metrics(table[seg], gt, areas, classes=rep.classes)
            assert rep.miou >= rand.miou - 1e-12


# ---------------------------------------------------------------- report


def test_overseg_report_identity():
    mesh = grid_mesh(8, 4, dx=0.5)
    adj = build_adjacency(mesh)
    gt = ((np.arange(mesh.n_faces) // 16) % 2).astype(int)
    comps = face_connected_components(mesh, adj, gt)
    rep = overseg_report(mesh, adj, comps, gt, rings=2)
    assert rep.op == 1.0 and rep.bp == 1.0 and rep.br == 1.0
    assert rep.n_segments == len(np.unique(comps))
    assert rep.flags == []


def test_overseg_report_flags():
    mesh = grid_mesh(3, 3)
    adj = build_adjacency(mesh)
    gt = np.zeros(mesh.n_faces, dtype=int)
    rep = overseg_report(mesh, adj, np.zeros(mesh.n_faces, dtype=int), gt,
                         rings=2)
    assert "empty_gt_boundary" in rep.flags
    assert rep.bp == 1.0 and rep.br == 1.0
