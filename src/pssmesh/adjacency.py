"""Face adjacency, edge lists, segment indexes and connected components.

``build_adjacency`` builds ``AdjacencyIndex``, a mesh's edge table and its
(F, 3) face neighbor table, whole, from one sort of the face edges.
``segment_index`` builds, whole and once per segmentation, the
``SegmentIndex`` that segment features and the segment graph read every
per-segment fact from: faces, cut edges, vertices, probe vertices, area,
circumference and face weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .mesh import TriangleMesh, MeshError


def label_components(n: int, i, j) -> np.ndarray:
    """Connected components of the undirected graph on nodes 0..n-1.

    ``i`` and ``j`` hold the two ends of each edge (lists or int arrays).
    Every node gets the lowest node id of its component as int64, so
    isolated nodes label themselves.

    Each node points at a lower node or at itself (a root), so
    ``label[x] <= x`` throughout. Every round hooks the two roots of each
    edge whose roots differ to the lower of the two (``np.minimum.at``):
    each root with a lower neighbouring root hooks, and only roots that
    are local minima stay roots. Pointers then jump (``label[label]``,
    over all n nodes) until every node points at its root, and only the
    edges whose roots still differ stay, as root pairs. The loop ends once
    no edge joins two trees; each tree's root is then its lowest id.
    """
    label = np.arange(n, dtype=np.int64)
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    while True:
        li, lj = label[i], label[j]
        differ = li != lj
        if not differ.any():
            return label
        i, j = li[differ], lj[differ]
        lo = np.minimum(i, j)
        np.minimum.at(label, i, lo)
        np.minimum.at(label, j, lo)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def face_edges(faces):
    """Sorted vertex pairs of the edges of every non-collapsed face.

    Returns ``(edges, owner)``: rows 3k, 3k+1, 3k+2 of ``edges`` (3F', 2)
    are the corner pairs (0, 1), (1, 2), (2, 0) of the k-th face with three
    distinct vertices, ascending within each row; ``owner`` holds that
    face's id. Collapsed faces (repeated indices) have no edges.
    """
    faces = np.asarray(faces).reshape(-1, 3)
    keep = np.flatnonzero((faces[:, 0] != faces[:, 1])
                          & (faces[:, 1] != faces[:, 2])
                          & (faces[:, 0] != faces[:, 2]))
    f = faces[keep]
    e = np.stack([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=1).reshape(-1, 2)
    e.sort(axis=1)
    return e, np.repeat(keep, 3)


def pair_keys(pairs, n):
    """One int64 key ``u * n + v`` per row (u, v) of ids in [0, n).

    The keys sort in the rows' lexicographic order, so a 1-D ``np.unique``
    over them stands in for ``np.unique(axis=0)``; ``np.divmod(key, n)``
    gives the rows back.
    """
    pairs = np.asarray(pairs).reshape(-1, 2)
    return pairs[:, 0].astype(np.int64) * n + pairs[:, 1]


def unique_ints(values) -> np.ndarray:
    """``np.unique(values)`` of an int array, by one sort and a diff.

    Same values and dtype, flattened and ascending. With numpy 2.4,
    ``np.unique`` of 65k int32 keys took 14 ms and this 0.35 ms (one
    x86-64 core).
    """
    values = np.sort(values, axis=None)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def area_table(rows, cols, n_rows: int, n_cols: int, areas) -> np.ndarray:
    """(n_rows, n_cols) sums of ``areas`` per (row, column) id, in face order."""
    return np.bincount(np.asarray(rows, np.int64) * n_cols + cols,
                       weights=areas, minlength=n_rows * n_cols
                       ).reshape(n_rows, n_cols)


def segment_sums(face_segment, n_segments: int, values) -> np.ndarray:
    """(K,) sum of a per-face value over each segment's faces, in face
    order; faces without a segment (-1) count in no sum."""
    member = face_segment >= 0
    return np.bincount(face_segment[member], minlength=n_segments,
                       weights=np.asarray(values)[member])


def face_weights(face_segment, face_area, n_segments: int) -> np.ndarray:
    """(F,) weight of each face in its segment's means and votes: its area,
    or 1 in a segment whose area is 0, so such a segment weighs its faces
    equally. ``face_segment`` ids lie in [-1, n_segments), -1 unsegmented."""
    seg = np.asarray(face_segment).reshape(-1)
    area = np.asarray(face_area, dtype=np.float64).reshape(-1)
    seg_area = segment_sums(seg, n_segments, area)
    # -1, a face without a segment, picks the appended False
    return np.where(np.append(seg_area == 0.0, False)[seg], 1.0, area)


@dataclass
class AdjacencyIndex:
    """Symmetric face adjacency over shared edges plus the edge table itself.

    ``edge_faces`` holds (face, face) per edge with -1 for the open side of a
    border edge. Row f of ``face_neighbors`` holds the faces across f's
    corner pairs (0, 1), (1, 2) and (2, 0), in that order: -1 across a
    border edge and on every side of a collapsed face, which has no edges.
    """

    n_faces: int
    n_vertices: int
    edge_vertices: np.ndarray          # (E, 2) int32, sorted pairs
    edge_faces: np.ndarray             # (E, 2) int32, -1 = border
    edge_length: np.ndarray            # (E,) float64 meters
    face_neighbors: np.ndarray         # (F, 3) int32, -1 = none


def build_adjacency(mesh: TriangleMesh) -> AdjacencyIndex:
    """Shared-edge face adjacency; raises on edges with >2 incident faces.

    Collapsed faces (repeated indices) contribute no edges, so their
    neighbor rows are all -1.
    """
    nf, nv = mesh.n_faces, mesh.n_vertices
    e, owner = face_edges(mesh.faces)
    keys, inverse, counts = np.unique(pair_keys(e, nv), return_inverse=True,
                                      return_counts=True)
    uniq = np.column_stack(np.divmod(keys, nv))
    if counts.max(initial=0) > 2:
        bad = uniq[int(np.argmax(counts > 2))]
        raise MeshError(
            f"non-manifold edge ({bad[0]}, {bad[1]}) with "
            f"{int(counts.max())} incident faces; run repair_nonmanifold first")

    # owners ascend, so a stable sort lists each edge's faces low to high
    fo = owner[np.argsort(inverse, kind="stable")]
    starts = np.cumsum(counts) - counts
    second = counts == 2
    edge_faces = np.full((len(uniq), 2), -1, dtype=np.int32)
    edge_faces[:, 0] = fo[starts]
    edge_faces[second, 1] = fo[starts[second] + 1]

    # the face across each face-edge row is the end of its edge that is not
    # the row's owner; a border edge's other end is -1
    ends = edge_faces[inverse]
    neighbors = np.full((nf, 3), -1, dtype=np.int32)
    neighbors[owner[::3]] = np.where(ends[:, 0] == owner, ends[:, 1],
                                     ends[:, 0]).reshape(-1, 3)

    length = np.linalg.norm(mesh.vertices[uniq[:, 1]] - mesh.vertices[uniq[:, 0]], axis=1)

    return AdjacencyIndex(nf, nv, uniq.astype(np.int32), edge_faces, length,
                          neighbors)


def _grouped(owner, ids, n_groups: int, n_ids: int) -> list:
    """Ascending distinct ``ids`` (< n_ids) of each group ``owner`` (<
    n_groups), from one sort of the keys ``owner * n_ids + id``."""
    key = unique_ints(pair_keys(np.column_stack([owner, ids]), n_ids))
    group, ids = np.divmod(key, n_ids)
    ends = np.cumsum(np.bincount(group, minlength=n_groups))
    return np.split(ids, ends)[:n_groups]


@dataclass
class SegmentIndex:
    """The per-segment facts of one face segmentation.

    The two sides of an edge are the segments of its faces: -1 for an
    unsegmented face, -2 for the open side of a border edge. An edge is cut
    when its sides differ; it is then in the cut list of each segment on
    either side. ``faces[k]``, ``cuts[k]``, ``vertices[k]`` and
    ``probes[k]`` are segment k's ascending face, cut edge, vertex and probe
    vertex ids (int64); its probes are the vertices of its cut edges, or all
    its vertices when it has none. ``circumference`` sums ``edge_length``
    over each segment's cut edges. ``area`` is ``sums(mesh.face_area)``.
    ``mean`` weighs each face by ``weight``, from ``face_weights``.
    ``weight_sum`` is ``sums(weight)``.
    """

    face_segment: np.ndarray           # (F,) segment id per face, -1 none
    faces: list
    cuts: list
    vertices: list
    probes: list
    area: np.ndarray                   # (K,) float64 m^2
    circumference: np.ndarray          # (K,) float64 m
    weight: np.ndarray                 # (F,) float64
    weight_sum: np.ndarray             # (K,) float64

    @property
    def n_segments(self) -> int:
        return len(self.faces)

    def sums(self, values) -> np.ndarray:
        """``segment_sums`` of a per-face value."""
        return segment_sums(self.face_segment, len(self.faces), values)

    def mean(self, *factors) -> np.ndarray:
        """(K,) weighted mean over each segment's faces of the product of
        the per-face ``factors``, taken as ``weight * factors[0] * ...``."""
        return (self.sums(reduce(np.multiply, factors, self.weight))
                / self.weight_sum)


def segment_index(mesh: TriangleMesh, adjacency: AdjacencyIndex, face_segment,
                  n_segments: int) -> SegmentIndex:
    """``SegmentIndex`` of ``face_segment`` (one id in [-1, n_segments) per
    face, -1 unsegmented); raises ValueError for any other length or id."""
    seg = np.asarray(face_segment).reshape(-1)
    if len(seg) != mesh.n_faces:
        raise ValueError("face_segment length does not match face count")
    if len(seg) and not -1 <= seg.min() <= seg.max() < n_segments:
        raise ValueError(f"segment ids must lie in [-1, {n_segments})")
    f0, f1 = adjacency.edge_faces.T
    edge_side = np.column_stack([seg[f0], np.where(f1 >= 0, seg[f1], -2)])

    member = np.flatnonzero(seg >= 0)
    cut = np.flatnonzero(edge_side[:, 0] != edge_side[:, 1])
    # each cut edge once per segment side: the first sides, then the second
    owner = edge_side[cut].T.ravel()
    keep = owner >= 0
    owner, cut = owner[keep], np.tile(cut, 2)[keep]
    vertices = _grouped(np.repeat(seg[member], 3), mesh.faces[member].ravel(),
                        n_segments, mesh.n_vertices)
    probes = _grouped(np.repeat(owner, 2),
                      adjacency.edge_vertices[cut].ravel(), n_segments,
                      mesh.n_vertices)
    weight = face_weights(seg, mesh.face_area, n_segments)
    return SegmentIndex(
        seg, _grouped(seg[member], member, n_segments, len(seg)),
        _grouped(owner, cut, n_segments, len(f0)), vertices,
        [p if len(p) else v for p, v in zip(probes, vertices)],
        segment_sums(seg, n_segments, mesh.face_area),
        np.bincount(owner, weights=adjacency.edge_length[cut],
                    minlength=n_segments),
        weight, segment_sums(seg, n_segments, weight))


def face_connected_components(mesh: TriangleMesh, adjacency: AdjacencyIndex,
                              labels: np.ndarray) -> np.ndarray:
    """Components of same-label faces linked through shared edges.

    An interior edge links its two faces when they carry the same label.
    Faces labeled below zero get component -1. Component ids are assigned
    in order of each component's lowest face id, starting at 0.
    """
    labels = np.asarray(labels).reshape(-1)
    if len(labels) != mesh.n_faces:
        raise ValueError("labels length does not match face count")
    f0 = adjacency.edge_faces[:, 0]
    f1 = adjacency.edge_faces[:, 1]
    interior = f1 >= 0
    link = interior & (labels[f0] == labels[np.where(interior, f1, 0)])
    root = label_components(mesh.n_faces, f0[link], f1[link])
    comp = np.full(mesh.n_faces, -1, dtype=np.int32)
    member = labels >= 0
    comp[member] = np.unique(root[member], return_inverse=True)[1]
    return comp
