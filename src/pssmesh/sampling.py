"""Seeded area-uniform point sampling over triangle meshes.

A sample holds each point's position, source face and that face's normal:
the exterior medial balls of ``seggraph.exmat_edges`` need nothing else.

The density is in points per square metre, so a mesh in another unit
asks for another number of points: one in millimetres, 1e6 times as many.
``check_sample_size`` rejects a mesh whose sample would exceed
``MAX_SAMPLES_PER_FACE`` (1,000) points per face; the synthetic tiles take
about 1.2 at the default density, and a 16 m tile in millimetres 1.2
million.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .mesh import TriangleMesh, triangle_area_normal

MAX_SAMPLES_PER_FACE = 1000


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


def sample_size(total_area: float, density: float) -> int:
    """Points ``sample_points`` draws from a mesh of ``total_area``."""
    return int(round(total_area * density))


def check_sample_size(mesh: TriangleMesh, density: float, source) -> None:
    """ConfigError naming ``source``, its area and ``density`` when
    ``sample_points`` would draw more than ``MAX_SAMPLES_PER_FACE`` points
    per face of ``mesh``. Caches no geometry on ``mesh``."""
    area = float(triangle_area_normal(mesh.vertices, mesh.faces)[0].sum())
    n = sample_size(area, density)
    if n > MAX_SAMPLES_PER_FACE * mesh.n_faces:
        raise ConfigError(
            f"{source}: area {area:g} m^2 at sampling_density {density:g} "
            f"per m^2 gives {n} exmat samples for {mesh.n_faces} faces, "
            f"more than {MAX_SAMPLES_PER_FACE} per face; is the mesh in "
            f"metres?")


def sample_points(mesh: TriangleMesh, density: float, seed: int) -> PointSample:
    """Sample round(total_area * density) points, per-face counts by area.

    Placement is uniform in each triangle (reflected barycentric pairs) and
    fully determined by ``seed``. Zero-area meshes yield an empty sample.
    """
    if density <= 0:
        raise ValueError("density must be > 0")
    areas = mesh.face_area
    n_total = sample_size(float(areas.sum()), density)
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
