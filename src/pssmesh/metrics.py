"""Segmentation quality metrics.

Two families: over-segmentation quality (object purity plus tolerant boundary
precision/recall) and area-weighted semantic classification metrics, together
with the best-case semantic score any labeling constant on each segment could
reach.

All area accounting excludes faces whose ground-truth label is negative;
reports carry flags naming every fallback convention that fired.
"""

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .adjacency import (AdjacencyIndex, area_table, face_connected_components,
                        face_weights, unique_ints)
from .mesh import TriangleMesh


@dataclass
class BoundarySet:
    """Interior mesh edges separating two differently labeled faces."""

    edge_ids: np.ndarray        # (E,) int64 indices into the adjacency edge table
    vertices: np.ndarray        # (E, 2) int32 endpoint pairs
    lengths: np.ndarray         # (E,) float64 edge lengths in metres
    origin: str = "segmentation"

    def __len__(self):
        return len(self.edge_ids)

    @property
    def total_length(self) -> float:
        return float(self.lengths.sum())


@dataclass
class OversegReport:
    """Over-segmentation scores for one labeling against ground truth."""

    op: float
    bp: float
    br: float
    n_segments: int
    matched_pred_length: float      # B_S length matched against B_G
    matched_gt_length: float        # B_G length matched against B_S
    pred_boundary_length: float
    gt_boundary_length: float
    flags: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class SemanticReport:
    """Area-weighted classification scores over mesh faces."""

    classes: np.ndarray         # (C,) int class ids, ascending
    confusion: np.ndarray       # (C, C) m^2; rows = ground truth, cols = predicted
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    iou: np.ndarray
    oa: float
    macc: float
    miou: float
    flags: list = field(default_factory=list)

    def as_dict(self) -> dict:
        per_class = {}
        for i, c in enumerate(self.classes):
            per_class[int(c)] = {
                "precision": float(self.precision[i]),
                "recall": float(self.recall[i]),
                "f1": float(self.f1[i]),
                "iou": float(self.iou[i]),
            }
        return {
            "classes": [int(c) for c in self.classes],
            "confusion": self.confusion.tolist(),
            "per_class": per_class,
            "oa": self.oa, "macc": self.macc, "miou": self.miou,
            "flags": list(self.flags),
        }


def _class_columns(labels, classes) -> np.ndarray:
    """Position of every label in ``classes``; ValueError for a label that
    is not in it."""
    known = np.isin(labels, classes)
    if not known.all():
        raise ValueError(f"label {labels[np.argmin(known)]} not in class "
                         f"table")
    order = np.argsort(classes, kind="stable")
    return order[np.searchsorted(classes[order], labels)]


def object_purity(face_segment, gt_components, face_areas) -> float:
    """Area fraction of each segment lying inside its best ground-truth component.

    Faces with a negative ground-truth component are excluded from both the
    per-segment overlaps and the total area; faces outside every segment
    count toward the total but toward no segment.
    """
    seg = np.asarray(face_segment).reshape(-1)
    comp = np.asarray(gt_components).reshape(-1)
    areas = np.asarray(face_areas, dtype=np.float64).reshape(-1)
    if not (len(seg) == len(comp) == len(areas)):
        raise ValueError("face_segment, gt_components, face_areas lengths differ")
    labeled = comp >= 0
    if not labeled.any() or areas[labeled].sum() == 0.0:
        raise ValueError("no labeled ground truth")
    both = labeled & (seg >= 0)
    leftover = float(areas[labeled & (seg < 0)].sum())
    if not both.any():
        return 0.0
    s, g = seg[both], comp[both]
    # per (segment, component) overlap areas, then the best component per
    # segment; the denominator reuses the same bins so that a segmentation
    # equal to the components scores exactly 1
    overlap = area_table(s, g, int(s.max()) + 1, int(g.max()) + 1,
                         areas[both])
    purity = overlap.max(axis=1).sum()
    total = overlap.sum(axis=1).sum() + leftover
    return float(purity / total)


def boundary_set(adjacency: AdjacencyIndex, labels, *, skip_unlabeled=False,
                 origin="segmentation") -> BoundarySet:
    """Interior edges whose two incident faces carry different labels.

    Mesh-border edges never qualify. With skip_unlabeled, edges touching a
    face labeled below zero are dropped as well (ground-truth convention).
    """
    labels = np.asarray(labels).reshape(-1)
    if len(labels) != adjacency.n_faces:
        raise ValueError("labels length does not match face count")
    f0 = adjacency.edge_faces[:, 0]
    f1 = adjacency.edge_faces[:, 1]
    interior = f1 >= 0
    l0 = labels[f0]
    l1 = np.where(interior, labels[np.where(interior, f1, 0)], 0)
    mask = interior & (l0 != l1)
    if skip_unlabeled:
        mask &= (l0 >= 0) & (l1 >= 0)
    ids = np.flatnonzero(mask).astype(np.int64)
    return BoundarySet(edge_ids=ids,
                       vertices=adjacency.edge_vertices[ids],
                       lengths=adjacency.edge_length[ids].astype(np.float64),
                       origin=origin)


def match_boundaries(candidates: BoundarySet, reference: BoundarySet,
                     adjacency: AdjacencyIndex, rings: int) -> np.ndarray:
    """Boolean mask: candidate edges with a reference edge nearby.

    A candidate edge matches when some reference edge has both endpoints
    inside the union of the two endpoint rings-neighborhoods of the
    candidate. rings=0 demands the exact same vertex pair.

    The zones are one sparse bool (vertex, candidate) matrix, seeded with
    each candidate's two endpoints and grown one ring at a time by a
    product with the vertex adjacency plus self loops.
    """
    if rings < 0:
        raise ValueError("rings must be >= 0")
    matched = np.zeros(len(candidates), dtype=bool)
    if len(candidates) == 0 or len(reference) == 0:
        return matched
    nv, n = adjacency.n_vertices, len(candidates)

    def bool_matrix(rows, cols, shape):
        return csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)),
                          shape=shape)

    e = adjacency.edge_vertices
    loops = np.arange(nv)
    step = bool_matrix(np.concatenate([e[:, 0], e[:, 1], loops]),
                       np.concatenate([e[:, 1], e[:, 0], loops]), (nv, nv))
    zone = bool_matrix(candidates.vertices.T.ravel(), np.tile(np.arange(n), 2),
                       (nv, n))
    for _ in range(rings):
        zone = step @ zone
    # row j: the candidates whose zone holds both ends of reference edge j
    both = zone[reference.vertices[:, 0]].multiply(
        zone[reference.vertices[:, 1]]).tocsr()
    both.eliminate_zeros()
    matched[both.indices] = True
    return matched


def _matched_score(candidates: BoundarySet, reference: BoundarySet,
                   adjacency: AdjacencyIndex, rings: int, recall: bool):
    """(length fraction of candidates near reference, matched length).

    Empty-set conventions: empty truth gives BR = 1; an empty prediction
    gives BP = 1 against an empty truth and 0 otherwise.
    """
    if len(candidates) == 0:
        return (1.0 if recall or len(reference) == 0 else 0.0), 0.0
    lengths = candidates.lengths[
        match_boundaries(candidates, reference, adjacency, rings)]
    return (float(lengths.sum() / candidates.lengths.sum()),
            float(lengths.sum()))


def overseg_report(mesh: TriangleMesh, adjacency: AdjacencyIndex, face_segment,
                   gt_labels, rings: int) -> OversegReport:
    """Full over-segmentation scorecard for one segmentation."""
    face_segment = np.asarray(face_segment).reshape(-1)
    gt_labels = np.asarray(gt_labels).reshape(-1)
    comps = face_connected_components(mesh, adjacency, gt_labels)
    areas = mesh.face_area
    op = object_purity(face_segment, comps, areas)
    pred_b = boundary_set(adjacency, face_segment, origin="segmentation")
    gt_b = boundary_set(adjacency, gt_labels, skip_unlabeled=True,
                        origin="ground_truth")
    flags = []
    if len(pred_b) == 0:
        flags.append("empty_pred_boundary")
    if len(gt_b) == 0:
        flags.append("empty_gt_boundary")
    if (face_segment < 0).any():
        flags.append("unsegmented_faces")
    bp, matched_pred = _matched_score(pred_b, gt_b, adjacency, rings,
                                      recall=False)
    br, matched_gt = _matched_score(gt_b, pred_b, adjacency, rings,
                                    recall=True)
    n_segments = len(unique_ints(face_segment[face_segment >= 0]))
    return OversegReport(op=op, bp=bp, br=br, n_segments=n_segments,
                         matched_pred_length=matched_pred,
                         matched_gt_length=matched_gt,
                         pred_boundary_length=pred_b.total_length,
                         gt_boundary_length=gt_b.total_length,
                         flags=flags)


def semantic_metrics(pred_labels, gt_labels, face_areas,
                     classes=None) -> SemanticReport:
    """Area-weighted confusion matrix and the usual per-class scores.

    Faces with a negative ground-truth label are ignored; faces with a
    labeled ground truth but a negative prediction are dropped from the
    matrix and flagged. Per-class ratios with a zero denominator are
    reported as 0 and flagged. Mean scores average over classes present
    in the ground truth.
    """
    pred = np.asarray(pred_labels).reshape(-1)
    gt = np.asarray(gt_labels).reshape(-1)
    areas = np.asarray(face_areas, dtype=np.float64).reshape(-1)
    if not (len(pred) == len(gt) == len(areas)):
        raise ValueError("pred_labels, gt_labels, face_areas lengths differ")
    flags = []
    labeled = gt >= 0
    valid = labeled & (pred >= 0)
    if (labeled & ~valid).any():
        flags.append("unpredicted_faces_dropped")
    if classes is None:
        classes = unique_ints(np.concatenate([gt[valid], pred[valid]])) \
            if valid.any() else np.zeros(0, dtype=np.int64)
    classes = np.asarray(classes, dtype=np.int64).reshape(-1)
    n_c = len(classes)
    confusion = np.zeros((n_c, n_c), dtype=np.float64)
    if valid.any():
        confusion = area_table(_class_columns(gt[valid], classes),
                               _class_columns(pred[valid], classes),
                               n_c, n_c, areas[valid])
    tp = np.diag(confusion)
    gt_area = confusion.sum(axis=1)
    pred_area = confusion.sum(axis=0)

    def ratio(num, den, name):
        out = np.zeros_like(num)
        nz = den > 0
        out[nz] = num[nz] / den[nz]
        if (~nz).any():
            flags.append(f"zero_denominator_{name}")
        return out

    precision = ratio(tp, pred_area, "precision")
    recall = ratio(tp, gt_area, "recall")
    f1 = ratio(2.0 * precision * recall, precision + recall, "f1")
    iou = ratio(tp, gt_area + pred_area - tp, "iou")
    total = confusion.sum()
    oa = float(tp.sum() / total) if total > 0 else 0.0
    present = gt_area > 0
    macc = float(recall[present].mean()) if present.any() else 0.0
    miou = float(iou[present].mean()) if present.any() else 0.0
    if total == 0:
        flags.append("no_scorable_faces")
    return SemanticReport(classes=classes, confusion=confusion,
                          precision=precision, recall=recall, f1=f1, iou=iou,
                          oa=oa, macc=macc, miou=miou, flags=flags)


def majority_labels(face_segment, gt_labels, face_areas) -> np.ndarray:
    """Per-face labeling giving every segment its area-majority truth label.

    Each face votes with its ``face_weights`` weight, so a segment without
    area takes its faces' plain majority. Votes ignore unlabeled faces; a
    tie goes to the lower class id; segments without any labeled face and
    faces outside every segment come back -1.
    """
    seg = np.asarray(face_segment).reshape(-1)
    gt = np.asarray(gt_labels).reshape(-1)
    out = np.full(len(seg), -1, dtype=np.int64)
    voting = (seg >= 0) & (gt >= 0)
    if not voting.any():
        return out
    n_segments = int(seg.max()) + 1
    weights = face_weights(seg, face_areas, n_segments)
    classes = unique_ints(gt[voting])
    votes = area_table(seg[voting], np.searchsorted(classes, gt[voting]),
                       n_segments, len(classes), weights[voting])
    # argmax scans classes in ascending id order, so ties pick the lower id
    best = classes[np.argmax(votes, axis=1)]
    has_vote = votes.sum(axis=1) > 0
    inside = seg >= 0
    out[inside] = np.where(has_vote, best, -1)[seg[inside]]
    return out


def max_achievable(face_segment, gt_labels, face_areas):
    """Best semantic scores reachable by any segment-constant labeling.

    Returns (SemanticReport, induced per-face labels).
    """
    induced = majority_labels(face_segment, gt_labels, face_areas)
    report = semantic_metrics(induced, gt_labels, face_areas)
    return report, induced
