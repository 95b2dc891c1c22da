"""Face adjacency, edge lists, vertex one-rings and related graph queries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import TriangleMesh, MeshError


def _csr(pairs, n):
    """Build (offsets, flat) adjacency from symmetric (a, b) int pairs."""
    if len(pairs) == 0:
        return np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int32)
    a = np.concatenate([pairs[:, 0], pairs[:, 1]])
    b = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    counts = np.bincount(a, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, b.astype(np.int32)


@dataclass
class AdjacencyIndex:
    """Symmetric face adjacency over shared edges plus the edge table itself.

    ``edge_faces`` holds (face, face) per edge with -1 for the open side of a
    border edge. Neighbor lists are ascending.
    """

    n_faces: int
    n_vertices: int
    edge_vertices: np.ndarray          # (E, 2) int32, sorted pairs
    edge_faces: np.ndarray             # (E, 2) int32, -1 = border
    edge_length: np.ndarray            # (E,) float64 meters
    _face_off: np.ndarray = field(repr=False, default=None)
    _face_flat: np.ndarray = field(repr=False, default=None)
    _vert_off: np.ndarray = field(repr=False, default=None)
    _vert_flat: np.ndarray = field(repr=False, default=None)

    def face_neighbors(self, f: int) -> np.ndarray:
        return self._face_flat[self._face_off[f]:self._face_off[f + 1]]

    def vertex_neighbors(self, v: int) -> np.ndarray:
        return self._vert_flat[self._vert_off[v]:self._vert_off[v + 1]]

    @property
    def border_edge_mask(self) -> np.ndarray:
        return self.edge_faces[:, 1] < 0

    def face_degree(self) -> np.ndarray:
        return np.diff(self._face_off)


def build_adjacency(mesh: TriangleMesh) -> AdjacencyIndex:
    """Shared-edge face adjacency; raises on edges with >2 incident faces.

    Collapsed faces (repeated indices) contribute no edges and get empty
    neighbor lists.
    """
    faces = mesh.faces
    nf, nv = mesh.n_faces, mesh.n_vertices
    real = ((faces[:, 0] != faces[:, 1]) & (faces[:, 1] != faces[:, 2])
            & (faces[:, 0] != faces[:, 2]))
    keep = np.flatnonzero(real)
    if len(keep) == 0:
        empty = np.zeros((0, 2), dtype=np.int32)
        idx = AdjacencyIndex(nf, nv, empty, empty.copy(), np.zeros(0))
        idx._face_off, idx._face_flat = _csr(empty, nf)
        idx._vert_off, idx._vert_flat = _csr(empty, nv)
        return idx

    f = faces[keep]
    e = np.stack([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=1).reshape(-1, 2)
    e.sort(axis=1)
    owner = np.repeat(keep, 3)
    uniq, inverse, counts = np.unique(e, axis=0, return_inverse=True, return_counts=True)
    if counts.max(initial=0) > 2:
        bad = uniq[int(np.argmax(counts > 2))]
        raise MeshError(
            f"non-manifold edge ({bad[0]}, {bad[1]}) with "
            f"{int(counts.max())} incident faces; run repair_nonmanifold first")

    ne = len(uniq)
    edge_faces = np.full((ne, 2), -1, dtype=np.int32)
    order = np.argsort(inverse, kind="stable")
    ei = inverse[order]
    fo = owner[order]
    starts = np.searchsorted(ei, np.arange(ne))
    edge_faces[:, 0] = fo[starts]
    second = counts == 2
    edge_faces[second, 1] = fo[starts[second] + 1]
    lo = np.minimum(edge_faces[:, 0], np.where(second, edge_faces[:, 1], edge_faces[:, 0]))
    hi = np.maximum(edge_faces[:, 0], edge_faces[:, 1])
    edge_faces = np.column_stack([lo, np.where(second, hi, -1)]).astype(np.int32)

    length = np.linalg.norm(mesh.vertices[uniq[:, 1]] - mesh.vertices[uniq[:, 0]], axis=1)

    idx = AdjacencyIndex(nf, nv, uniq.astype(np.int32), edge_faces, length)
    pair_mask = second
    face_pairs = edge_faces[pair_mask]
    idx._face_off, idx._face_flat = _csr(face_pairs, nf)
    idx._vert_off, idx._vert_flat = _csr(uniq, nv)
    return idx


def k_ring_vertices_multi(adjacency: AdjacencyIndex, sources, k: int) -> set:
    """Vertices at one-ring graph distance <= k from any source, sources incl."""
    if k < 0:
        raise ValueError("k must be >= 0")
    seen = {int(s) for s in sources}
    frontier = list(seen)
    for _ in range(k):
        nxt = []
        for u in frontier:
            for w in adjacency.vertex_neighbors(u):
                w = int(w)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return seen


def segment_index(adjacency: AdjacencyIndex, face_segment, n_segments: int):
    """Edge sides, faces and cut edges of a face segmentation.

    Returns ``(edge_side, faces, cuts)``. ``edge_side`` (E, 2) holds the
    segment on each side of every edge: -1 for an unsegmented face, -2 for
    the open side of a border edge. An edge is cut when its two sides
    differ; it then belongs to the cut list of every segment on either
    side. ``faces[k]`` and ``cuts[k]`` are the ascending face ids and cut
    edge ids of segment k.
    """
    seg = np.asarray(face_segment).reshape(-1)
    f0 = adjacency.edge_faces[:, 0]
    f1 = adjacency.edge_faces[:, 1]
    edge_side = np.column_stack(
        [seg[f0], np.where(f1 >= 0, seg[np.maximum(f1, 0)], -2)])

    def per_segment(owner, ids):
        ends = np.cumsum(np.bincount(owner, minlength=n_segments))
        return np.split(ids[np.lexsort((ids, owner))], ends)[:n_segments]

    member = np.flatnonzero(seg >= 0)
    cut = np.flatnonzero(edge_side[:, 0] != edge_side[:, 1])
    owner = edge_side[cut].T.ravel()
    eids = np.tile(cut, 2)
    keep = owner >= 0
    return (edge_side, per_segment(seg[member], member),
            per_segment(owner[keep], eids[keep]))


def face_connected_components(mesh: TriangleMesh, adjacency: AdjacencyIndex,
                              labels: np.ndarray) -> np.ndarray:
    """Components of same-label faces linked through shared edges.

    Faces labeled -1 get component -1. Component ids are assigned in order of
    each component's lowest face id, starting at 0.
    """
    labels = np.asarray(labels).reshape(-1)
    if len(labels) != mesh.n_faces:
        raise ValueError("labels length does not match face count")
    comp = np.full(mesh.n_faces, -1, dtype=np.int32)
    next_id = 0
    for start in range(mesh.n_faces):
        if comp[start] >= 0 or labels[start] < 0:
            continue
        lab = labels[start]
        comp[start] = next_id
        stack = [start]
        while stack:
            fc = stack.pop()
            for nb in adjacency.face_neighbors(fc):
                nb = int(nb)
                if comp[nb] < 0 and labels[nb] == lab:
                    comp[nb] = next_id
                    stack.append(nb)
        next_id += 1
    return comp
