"""Shared fixtures and small mesh builders used across the test suite."""

import numpy as np
import pytest

from pssmesh.mesh import TriangleMesh


def grid_mesh(nx, ny, dx=1.0, z=0.0, labels=None):
    """Axis-aligned triangulated grid of nx*ny quads in the z-plane.

    Each quad splits into two triangles; with dx a power of two the face
    areas are exact dyadic rationals, so area sums are exact in float64.
    """
    xs = np.arange(nx + 1) * dx
    ys = np.arange(ny + 1) * dx
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, float(z))])
    faces = []
    for i in range(nx):
        for j in range(ny):
            a = i * (ny + 1) + j
            b = (i + 1) * (ny + 1) + j
            faces.append([a, b, b + 1])
            faces.append([a, b + 1, a + 1])
    m = TriangleMesh(vertices=verts, faces=np.asarray(faces, dtype=np.int32))
    if labels is not None:
        m.face_label = np.asarray(labels, dtype=np.int32)
    return m


def icosahedron(radius=1.0):
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=np.float64)
    v *= radius / np.linalg.norm(v[0])
    f = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int32)
    return TriangleMesh(vertices=v, faces=f)


def two_triangle_strip():
    """Two triangles sharing edge (1, 2)."""
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    faces = np.array([[0, 1, 2], [1, 3, 2]], dtype=np.int32)
    return TriangleMesh(vertices=verts, faces=faces)


def unwelded(mesh):
    """``mesh`` with three vertices of its own per face, as a mesh exported
    face by face is; welding joins them again."""
    return TriangleMesh(vertices=mesh.vertices[mesh.faces].reshape(-1, 3),
                        faces=np.arange(3 * mesh.n_faces).reshape(-1, 3),
                        face_color=mesh.face_color, face_label=mesh.face_label)


def with_fin(mesh):
    """``mesh`` plus one upright face, labelled like face 0, on the lowest
    edge that two faces share: a non-manifold edge of three faces."""
    e = np.sort(mesh.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    edges, counts = np.unique(e, axis=0, return_counts=True)
    a, b = edges[np.argmax(counts == 2)]
    top = mesh.vertices[[a, b]].mean(axis=0) + [0.0, 0.0, 1.0]
    return TriangleMesh(
        vertices=np.vstack([mesh.vertices, top]),
        faces=np.vstack([mesh.faces, [a, b, mesh.n_vertices]]),
        face_color=None if mesh.face_color is None
        else np.vstack([mesh.face_color, mesh.face_color[:1]]),
        face_label=None if mesh.face_label is None
        else np.append(mesh.face_label, mesh.face_label[0]))


def brute_force_adjacency(mesh):
    """O(F^2) shared-edge scan; returns set of unordered face pairs."""
    def edges(f):
        tri = mesh.faces[f]
        if len(set(int(t) for t in tri)) < 3:
            return set()
        return {tuple(sorted((int(tri[i]), int(tri[(i + 1) % 3])))) for i in range(3)}

    pairs = set()
    for a in range(mesh.n_faces):
        ea = edges(a)
        for b in range(a + 1, mesh.n_faces):
            if ea & edges(b):
                pairs.add((a, b))
    return pairs


def neighbor_list(adj, f):
    """Face f's neighbors across its edges, ascending and with repeats
    kept, as ``oracles.csr_neighbor_lists`` lists them."""
    row = adj.face_neighbors[f]
    return np.sort(row[row >= 0])


def adjacency_pairs(adj):
    pairs = set()
    for f in range(adj.n_faces):
        for nb in neighbor_list(adj, f):
            pairs.add(tuple(sorted((f, int(nb)))))
    return pairs


@pytest.fixture
def quad_grid():
    return grid_mesh(2, 2)


@pytest.fixture
def ico():
    return icosahedron()
