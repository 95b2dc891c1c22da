"""Vertex welding and non-manifold topology repair.

Both passes keep every face (faces are never deleted, only reindexed), so
per-face labels survive repair unchanged. Faces collapsed by welding end up
with repeated vertex indices and zero area; they are flagged through
``TriangleMesh.degenerate_faces``. Each pass returns its mesh and the
counts only it knows: ``weld_vertices`` the vertices merged away,
``repair_nonmanifold`` the over-shared edges and the vertices split.
``pipeline.prepare_mesh`` builds the ``RepairReport`` from these.

Welding and the bow-tie split are both connected-component labelings
(``adjacency.label_components``): of vertex pairs within epsilon, and of
face corners that share an edge through their vertex.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .adjacency import face_edges, label_components, pair_keys, unique_ints
from .mesh import TriangleMesh


@dataclass
class RepairReport:
    """The counts of ``repair_report.json``, from ``pipeline.prepare_mesh``."""

    welded_vertices: int
    nonmanifold_edges: int
    split_vertices: int
    degenerate_faces: int

    def as_dict(self):
        return asdict(self)


def weld_vertices(mesh: TriangleMesh, epsilon: float) -> tuple[TriangleMesh, int]:
    """Merge vertices within ``epsilon`` meters of each other, transitively.

    Each group of vertices chained by distances <= ``epsilon`` merges into
    its lowest-index member; surviving vertices keep their relative order.
    ``epsilon == 0`` merges exact duplicates only. Returns the welded mesh
    and the number of vertices merged away.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    V = mesh.vertices
    n = len(V)
    if n == 0:
        return mesh, 0

    pairs = cKDTree(V).query_pairs(epsilon, output_type="ndarray")
    roots = label_components(n, pairs[:, 0], pairs[:, 1])
    reps = np.flatnonzero(roots == np.arange(n))
    new_id = np.searchsorted(reps, roots)

    return (_rebuilt(mesh, reps, new_id[mesh.faces].astype(np.int32)),
            n - len(reps))


def _rebuilt(mesh, source, faces):
    """Mesh on vertices ``mesh.vertices[source]`` with ``faces``.

    Face data is shared with ``mesh``; vertex colors follow ``source``.
    """
    return replace(mesh, vertices=mesh.vertices[source], faces=faces,
                   vertex_color=None if mesh.vertex_color is None
                   else mesh.vertex_color[source])


def _fan_corners(faces):
    """Corner ids of non-collapsed faces and the lowest corner of each fan.

    Corner 3k + j is position j of the k-th face with three distinct
    vertices. Two corners of the same vertex share a fan when their faces
    share an edge through that vertex; fans are the connected groups.
    Returns ``(face, vertex, fan)`` per corner, ``fan`` being the group's
    lowest corner id, i.e. the corner in the fan's lowest face.
    """
    e, owner = face_edges(faces)
    f = faces[owner[::3]]
    order = np.lexsort((e[:, 1], e[:, 0]))
    same = (e[order[1:]] == e[order[:-1]]).all(axis=1)
    p, q = order[:-1][same], order[1:][same]     # face-edges of one edge

    def corner(r, x):
        k = r // 3
        return 3 * k + np.argmax(f[k] == x[:, None], axis=1)

    i = np.concatenate([corner(p, e[p, 0]), corner(p, e[p, 1])])
    j = np.concatenate([corner(q, e[q, 0]), corner(q, e[q, 1])])
    return owner, f.ravel(), label_components(len(e), i, j)


def repair_nonmanifold(mesh: TriangleMesh) -> tuple[TriangleMesh, int, int]:
    """Detach extra faces from over-shared edges and split bow-tie vertices.

    The faces of an edge rank by ascending face id. Every face after the
    first two gets private copies of the edge's two vertices: one copy per
    distinct (face, vertex), numbered in order of first appearance along
    the over-shared edges in ascending vertex-pair order. Copies are
    private to their face, so this one pass leaves no over-shared edge.
    Afterwards a vertex whose incident fan is disconnected is split, one
    copy per fan. No face is deleted. Returns the repaired mesh, the number
    of over-shared edges of ``mesh`` and the number of vertices split.
    """
    nv = mesh.n_vertices
    faces = mesh.faces.copy()
    e, owner = face_edges(faces)
    keys = pair_keys(e, nv)
    order = np.argsort(keys, kind="stable")     # faces ascend within an edge
    rank = np.arange(len(order)) - np.searchsorted(keys[order], keys[order])
    rows = order[rank >= 2]
    face = np.repeat(owner[rows], 2)
    old = e[rows].ravel()
    _, first = np.unique(face * nv + old, return_index=True)
    first.sort()
    face, old = face[first], old[first]
    corner = np.argmax(mesh.faces[face] == old[:, None], axis=1)
    faces[face, corner] = nv + np.arange(len(old))
    # vertex id -> original vertex
    source = np.concatenate([np.arange(nv, dtype=np.int64), old])

    # bow-tie split: every fan but the one in a vertex's lowest face gets a
    # new vertex, numbered in (vertex, lowest face of the fan) order
    face, vertex, fan = _fan_corners(faces)
    fans = unique_ints(fan)
    fans = fans[np.argsort(vertex[fans], kind="stable")]
    moved = fans[1:][vertex[fans[1:]] == vertex[fans[:-1]]]
    split_count = len(unique_ints(vertex[moved]))
    new_id = np.full(len(fan), -1, dtype=np.int64)
    new_id[moved] = len(source) + np.arange(len(moved))
    c = np.flatnonzero(new_id[fan] >= 0)
    faces[face[c], c % 3] = new_id[fan[c]]
    source = np.concatenate([source, source[vertex[moved]]])

    return (_rebuilt(mesh, source, faces), int((rank == 2).sum()),
            split_count)
