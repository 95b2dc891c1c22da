"""Per-segment feature vectors built on top of the per-face features.

Each segment gets area-weighted channel statistics, a handful of shape
descriptors (compactness, shape index, boundary straightness, plane fit
distance), global size measures, and an area-weighted HSV color histogram.
The layout is fixed and versioned so downstream models can detect drift.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .adjacency import AdjacencyIndex, segment_index
from .features import FaceFeatures
from .mesh import TriangleMesh

LAYOUT_SEGMENT_V1 = "segment-v1"
HIST_BINS = 5
_EPS = 1e-12


@dataclass
class SegmentFeatures:
    """Fixed-layout feature matrix, one row per segment id."""

    values: np.ndarray          # (K, D) float64
    channel_names: list
    layout_version: str

    @property
    def n_segments(self) -> int:
        return len(self.values)

    def channel(self, name: str) -> np.ndarray:
        return self.values[:, self.channel_names.index(name)]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["segment"] + list(self.channel_names))
            for k, row in enumerate(self.values):
                w.writerow([k] + [repr(float(x)) for x in row])


def segment_channel_names(face_channel_names) -> list:
    """Channel list of the segment layout, in storage order."""
    names = [f"mean_{c}" for c in face_channel_names]
    names += [f"std_{c}" for c in face_channel_names]
    names += ["compactness", "shape_index", "straightness",
              "plane_fit_distance", "area", "circumference",
              "vertical_extent"]
    names += [f"hsv_hist_{h}_{s}_{v}"
              for h in range(HIST_BINS)
              for s in range(HIST_BINS)
              for v in range(HIST_BINS)]
    return names


def segment_circumference(adjacency: AdjacencyIndex, face_segment,
                          n_segments: int) -> np.ndarray:
    """Boundary length per segment.

    An edge counts for a segment when its other side is a different segment,
    an unsegmented face, or the mesh border.
    """
    edge_side = segment_index(adjacency, face_segment, n_segments)[0]
    return _circumference(edge_side, adjacency.edge_length, n_segments)


def _circumference(edge_side, edge_length, n_segments):
    cut = edge_side[:, 0] != edge_side[:, 1]
    length = edge_length[cut]
    out = np.zeros(n_segments, dtype=np.float64)
    for side in edge_side[cut].T:
        np.add.at(out, side[side >= 0], length[side >= 0])
    return out


def _boundary_loops(edge_list, vertices):
    """Split boundary edges into connected chains of vertex positions."""
    from collections import defaultdict
    graph = defaultdict(list)
    for u, v in edge_list:
        graph[u].append(v)
        graph[v].append(u)
    seen = set()
    loops = []
    for start in graph:
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        chain = []
        while stack:
            u = stack.pop()
            chain.append(u)
            for w in graph[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        loops.append(vertices[np.asarray(sorted(chain))])
    return loops


def _straightness(loops) -> float:
    """Mean mid/major eigenvalue ratio of line fits to each boundary chain.

    0 means perfectly straight chains; a closed curving loop scores higher.
    Segments without boundary score 0.
    """
    ratios = []
    for pts in loops:
        if len(pts) < 3:
            ratios.append(0.0)
            continue
        centered = pts - pts.mean(axis=0)
        evals = np.linalg.eigvalsh(centered.T @ centered / len(pts))
        ratios.append(float(evals[1] / evals[2]) if evals[2] > _EPS else 0.0)
    return float(np.mean(ratios)) if ratios else 0.0


def _plane_fit_distance(points) -> float:
    """Mean absolute distance of points to their total-least-squares plane."""
    if len(points) < 3:
        return 0.0
    mu = points.mean(axis=0)
    centered = points - mu
    evals, evecs = np.linalg.eigh(centered.T @ centered / len(points))
    normal = evecs[:, 0]
    return float(np.abs(centered @ normal).mean())


def compute_segment_features(mesh: TriangleMesh, adjacency: AdjacencyIndex,
                             segmentation, face_features: FaceFeatures
                             ) -> SegmentFeatures:
    """Aggregate per-face features and shapes into one row per segment."""
    face_segment = np.asarray(
        getattr(segmentation, "face_segment", segmentation)).reshape(-1)
    if len(face_segment) != mesh.n_faces:
        raise ValueError("face_segment length does not match face count")
    assigned = face_segment >= 0
    if not assigned.any():
        raise ValueError("segmentation has no assigned faces")
    n_seg = int(face_segment.max()) + 1
    areas = mesh.face_area
    seg_area = np.bincount(face_segment[assigned], weights=areas[assigned],
                           minlength=n_seg)
    for k in np.flatnonzero(seg_area == 0.0):
        raise ValueError(f"segment {int(k)} has zero area")

    fvals = face_features.values
    n_chan = fvals.shape[1]
    w = areas[assigned]
    s = face_segment[assigned]
    x = fvals[assigned]
    wsum = seg_area
    means = np.zeros((n_seg, n_chan))
    stds = np.zeros((n_seg, n_chan))
    for c in range(n_chan):
        means[:, c] = np.bincount(s, weights=w * x[:, c],
                                  minlength=n_seg) / wsum
        diff = x[:, c] - means[s, c]
        var = np.bincount(s, weights=w * diff * diff, minlength=n_seg) / wsum
        stds[:, c] = np.sqrt(np.maximum(var, 0.0))

    edge_side, seg_faces, seg_cuts = segment_index(adjacency, face_segment,
                                                   n_seg)
    circumference = _circumference(edge_side, adjacency.edge_length, n_seg)
    straightness = np.zeros(n_seg)
    plane_dist = np.zeros(n_seg)
    vertical = np.zeros(n_seg)
    for k in range(n_seg):
        pts = mesh.vertices[np.unique(mesh.faces[seg_faces[k]])]
        straightness[k] = _straightness(_boundary_loops(
            adjacency.edge_vertices[seg_cuts[k]].tolist(), mesh.vertices))
        plane_dist[k] = _plane_fit_distance(pts)
        vertical[k] = float(pts[:, 2].max() - pts[:, 2].min())

    # isoperimetric ratio; curved or near-closed segments can exceed the
    # planar bound, so clip into (0, 1] with boundary-free segments maximal
    compactness = 4.0 * np.pi * seg_area / np.maximum(circumference, _EPS) ** 2
    compactness = np.minimum(compactness, 1.0)
    compactness[circumference == 0.0] = 1.0
    shape_index = circumference / np.maximum(seg_area, _EPS) ** 0.25

    hist = np.zeros((n_seg, HIST_BINS ** 3))
    if not face_features.color_missing:
        h = face_features.channel("color_h")
        sat = face_features.channel("color_s")
        val = face_features.channel("color_v")
        hb = np.minimum((h / 360.0 * HIST_BINS).astype(np.int64), HIST_BINS - 1)
        sb = np.minimum((sat * HIST_BINS).astype(np.int64), HIST_BINS - 1)
        vb = np.minimum((val * HIST_BINS).astype(np.int64), HIST_BINS - 1)
        flat = (hb * HIST_BINS + sb) * HIST_BINS + vb
        for k, fk in enumerate(seg_faces):
            hist[k] = np.bincount(flat[fk], weights=areas[fk],
                                  minlength=HIST_BINS ** 3)
        sums = hist.sum(axis=1, keepdims=True)
        hist = np.divide(hist, sums, out=np.zeros_like(hist),
                         where=sums > 0)

    values = np.column_stack([
        means, stds,
        compactness, shape_index, straightness, plane_dist,
        seg_area, circumference, vertical,
        hist,
    ])
    names = segment_channel_names(list(face_features.channel_names))
    return SegmentFeatures(values=values, channel_names=names,
                           layout_version=LAYOUT_SEGMENT_V1)
