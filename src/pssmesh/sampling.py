"""Seeded area-uniform point sampling over triangle meshes.

A sample holds each point's position, source face and that face's normal:
the exterior medial balls of ``seggraph.exmat_edges`` need nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriangleMesh


@dataclass
class PointSample:
    positions: np.ndarray            # (N, 3) float64
    source_face: np.ndarray          # (N,) int64
    normals: np.ndarray              # (N, 3) float64, face normal of source

    def __len__(self):
        return len(self.positions)


def _apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer quotas summing to ``total``, proportional to ``weights``.

    Largest-remainder rounding; remainder ties go to the lower index.
    """
    w = np.asarray(weights, dtype=np.float64)
    s = w.sum()
    if total <= 0 or s <= 0:
        return np.zeros(len(w), dtype=np.int64)
    share = w * (total / s)
    base = np.floor(share).astype(np.int64)
    missing = total - int(base.sum())
    if missing > 0:
        frac = share - base
        order = np.lexsort((np.arange(len(w)), -frac))
        base[order[:missing]] += 1
    return base


def sample_points(mesh: TriangleMesh, density: float, seed: int) -> PointSample:
    """Sample round(total_area * density) points, per-face counts by area.

    Placement is uniform in each triangle (reflected barycentric pairs) and
    fully determined by ``seed``. Zero-area meshes yield an empty sample.
    """
    if density <= 0:
        raise ValueError("density must be > 0")
    areas = mesh.face_area
    total_area = float(areas.sum())
    n_total = int(round(total_area * density))
    if n_total == 0:
        empty3 = np.zeros((0, 3))
        return PointSample(empty3, np.zeros(0, dtype=np.int64), empty3.copy())

    quota = _apportion(areas, n_total)
    src = np.repeat(np.arange(mesh.n_faces, dtype=np.int64), quota)
    rng = np.random.default_rng(seed)
    r = rng.random((n_total, 2))
    flip = r.sum(axis=1) > 1.0
    r[flip] = 1.0 - r[flip]

    tri = mesh.vertices[mesh.faces[src]]
    pos = (tri[:, 0]
           + r[:, :1] * (tri[:, 1] - tri[:, 0])
           + r[:, 1:2] * (tri[:, 2] - tri[:, 0]))
    normals = mesh.face_normal[src]
    return PointSample(pos, src, normals)
