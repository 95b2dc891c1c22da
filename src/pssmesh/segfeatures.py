"""Per-segment feature vectors built on top of the per-face features.

Each segment gets weighted channel statistics, a handful of shape
descriptors (compactness, shape index, boundary straightness, plane fit
distance), global size measures, and a weighted HSV color histogram.
Faces, cut edges, vertices, area, circumference and face weights come from
the segmentation's ``adjacency.SegmentIndex``. The layout is fixed;
``segment_channel_names`` names its columns, and a model keeps those names
so that ``forest.check_channels`` refuses features in another layout.
"""

import numpy as np

from .adjacency import (AdjacencyIndex, SegmentIndex, area_table,
                        label_components)
from .features import FaceFeatures, FeatureTable
from .mesh import TriangleMesh

HIST_BINS = 5
_EPS = 1e-12


class SegmentFeatures(FeatureTable):
    """Fixed-layout feature matrix, one row per segment id.

    A sibling of ``FaceFeatures``, not a subclass, so setting one class's
    ``to_csv`` never changes the other's.
    """

    ROW = "segment"

    @property
    def n_segments(self) -> int:
        return len(self.values)


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


def _boundary_loops(edges, vertices):
    """Split boundary edges into connected chains of vertex positions.

    ``edges`` holds rows of the adjacency edge table in ascending order, so
    ordering the chains by their lowest vertex orders them by the first
    appearance of any of their vertices. Vertices within a chain ascend.
    """
    if len(edges) == 0:
        return []
    ids, local = np.unique(edges, return_inverse=True)
    local = local.reshape(-1, 2)
    root = label_components(len(ids), local[:, 0], local[:, 1])
    order = np.argsort(root, kind="stable")
    return np.split(vertices[ids[order]],
                    np.flatnonzero(np.diff(root[order])) + 1)


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
    centered = points - points.mean(axis=0)
    _, evecs = np.linalg.eigh(centered.T @ centered / len(points))
    return float(np.abs(centered @ evecs[:, 0]).mean())


def compute_segment_features(mesh: TriangleMesh, adjacency: AdjacencyIndex,
                             index: SegmentIndex, face_features: FaceFeatures
                             ) -> SegmentFeatures:
    """Aggregate per-face features and shapes into one row per segment.

    ``index`` is the segmentation's ``adjacency.segment_index``; channel
    means, deviations and the color histogram weigh faces by its weight.
    """
    face_segment = index.face_segment
    if not (face_segment >= 0).any():
        raise ValueError("segmentation has no assigned faces")
    n_seg = index.n_segments

    x_face = face_features.values
    means = np.column_stack([index.mean(x) for x in x_face.T])
    stds = np.column_stack([np.sqrt(np.maximum(index.mean(d, d), 0.0))
                            for d in (x_face - means[face_segment]).T])

    straightness = np.array([_straightness(_boundary_loops(
        adjacency.edge_vertices[cuts], mesh.vertices)) for cuts in index.cuts])
    pts = [mesh.vertices[v] for v in index.vertices]
    plane_dist = np.array([_plane_fit_distance(p) for p in pts])
    vertical = np.array([np.ptp(p[:, 2]) for p in pts])

    # isoperimetric ratio; curved or near-closed segments can exceed the
    # planar bound, so clip into (0, 1] with boundary-free segments maximal
    circ = index.circumference
    compactness = np.where(circ == 0.0, 1.0, np.minimum(
        4.0 * np.pi * index.area / np.maximum(circ, _EPS) ** 2, 1.0))
    shape_index = circ / np.maximum(index.area, _EPS) ** 0.25

    hist = np.zeros((n_seg, HIST_BINS ** 3))
    if not face_features.color_missing:
        flat = 0                        # bin id (h * B + s) * B + v
        for name, top in (("color_h", 360.0), ("color_s", 1.0),
                          ("color_v", 1.0)):
            x = face_features.channel(name) / top * HIST_BINS
            flat = flat * HIST_BINS + np.minimum(x.astype(np.int64),
                                                 HIST_BINS - 1)
        member = face_segment >= 0
        hist = area_table(face_segment[member], flat[member], n_seg,
                          HIST_BINS ** 3, index.weight[member])
        sums = hist.sum(axis=1, keepdims=True)
        hist = np.divide(hist, sums, out=np.zeros_like(hist),
                         where=sums > 0)

    values = np.column_stack([
        means, stds,
        compactness, shape_index, straightness, plane_dist,
        index.area, circ, vertical,
        hist,
    ])
    names = segment_channel_names(list(face_features.channel_names))
    return SegmentFeatures(values=values, channel_names=names)
