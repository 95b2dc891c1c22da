"""Planarity-sensible over-segmentation by incremental MRF region growing.

Regions grow one at a time from the unassigned face with the highest planar
probability. Each growth step labels the frontier (the distinct faces in the
``face_neighbors`` rows of the current growth front that belong to no
region and were not visited, ascending) with a tiny binary MRF whose region
label is fixed to 0:

    energy = lambda_d * sum_i unary(x_i) + lambda_m * sum_i pairwise * [x_i != 0]

Unary cost for joining uses the distance from the face's farthest vertex to
the region plane, optionally relaxed by the non-planar probability prior when
both the face and the region are non-planar. Because each frontier face
couples only to the fixed region node, the exact optimum decomposes per face
into a closed-form rule. The tests check it against enumeration and against
an exact max-flow min-cut on the star graph.

Faces labeled 1 are "visited" for the current region only and reconsidered by
later regions. A joining face takes its region's id in ``face_segment``, the
one membership record, and is never a frontier face again. The region plane
comes from an incremental second-moment accumulator over the region's unique
vertices, taken about the first vertex added: a georeferenced mesh lies
millions of metres from the coordinate origin, where raw sums would cancel
every digit of the scatter. Only the frontier labeling reads the plane, so
it is refit once after the seed and once after each step that accepted
faces. A refit after every accepted face would give the same plane up to
rounding: a superset's scatter is never smaller than a subset's, so, short
of a step that lengthens the region a millionfold, a step that ends
degenerate had no good refit on the way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjacency import AdjacencyIndex, unique_ints
from .config import PipelineConfig
from .mesh import TriangleMesh

PLANAR, NONPLANAR = 0, 1


class PlaneAccumulator:
    """Incremental second moments of a growing point set for plane refits.

    The sums are taken about ``origin``, the first point added.
    """

    def __init__(self):
        self.n = 0
        self.origin = np.zeros(3)
        self.sum_p = np.zeros(3)
        self.sum_pp = np.zeros((3, 3))

    def add(self, points: np.ndarray):
        points = np.atleast_2d(points)
        if self.n == 0 and len(points):
            self.origin = np.array(points[0], dtype=np.float64)
        points = points - self.origin
        self.n += len(points)
        self.sum_p += points.sum(axis=0)
        self.sum_pp += points.T @ points

    def scatter(self):
        mu = self.sum_p / self.n
        return self.sum_pp - self.n * np.outer(mu, mu), mu + self.origin


@dataclass
class RegionState:
    region_type: int                      # PLANAR or NONPLANAR
    vertex_set: set = field(default_factory=set)
    acc: PlaneAccumulator = field(default_factory=PlaneAccumulator)
    normal_sum: np.ndarray = field(default_factory=lambda: np.zeros(3))
    normal: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    offset: float = 0.0
    plane_degenerate: bool = False
    visited: set = field(default_factory=set)

    def plane_distance(self, points: np.ndarray) -> np.ndarray:
        return np.abs(points @ self.normal + self.offset)


@dataclass
class Segmentation:
    face_segment: np.ndarray              # (F,) int32
    segment_type: np.ndarray              # (K,) int8
    planes: np.ndarray                    # (K, 4) normal xyz + offset

    @property
    def n_segments(self):
        return len(self.segment_type)


def refit_plane(region: RegionState) -> None:
    """TLS plane from the accumulator; keeps the old plane when degenerate.

    Normal is the least eigenvector of the vertex scatter, oriented along the
    accumulated area-weighted face normal.
    """
    if region.acc.n < 3:
        region.plane_degenerate = True
        return
    scatter, mu = region.acc.scatter()
    evals, evecs = np.linalg.eigh(scatter)
    # collinear vertices leave the plane direction undetermined
    if evals[1] <= max(evals[2], 1.0) * 1e-12:
        region.plane_degenerate = True
        return
    n = evecs[:, 0]
    if float(region.normal_sum @ n) < 0:
        n = -n
    region.normal = n
    region.offset = -float(n @ mu)
    region.plane_degenerate = False


def _add_faces(region: RegionState, mesh: TriangleMesh, faces: list) -> None:
    """Add the vertices of joining ``faces`` new to the region, once each in
    order of first appearance, to the accumulator in one update and their
    area-weighted normals face by face. ``refit_plane`` refits."""
    fresh = [v for v in dict.fromkeys(mesh.faces[faces].ravel().tolist())
             if v not in region.vertex_set]
    if fresh:
        region.vertex_set.update(fresh)
        region.acc.add(mesh.vertices[fresh])
    rows = np.vstack([region.normal_sum, mesh.face_area_normal[faces]])
    region.normal_sum = np.cumsum(rows, axis=0)[-1]


def unary_cost(face, region: RegionState, mesh: TriangleMesh,
               probmap, config: PipelineConfig | None = None) -> tuple:
    """(cost for joining, cost for staying out) of frontier faces.

    ``face`` is one face id or an array of them; the costs have its shape.
    """
    if region.acc.n == 0:
        raise ValueError("region has no member faces")
    config = config or PipelineConfig()
    face = np.asarray(face)
    d = region.plane_distance(mesh.vertices[mesh.faces[face]]).max(axis=-1)
    relaxed = ((probmap.label[face] == NONPLANAR)
               & (region.region_type == NONPLANAR))
    ci = np.where(relaxed, 1.0 - config.lambda_g * probmap.g_hat[face],
                  np.inf)
    cost0 = np.minimum(d, ci)
    return cost0, 1.0 - cost0


def pairwise_cost(face, region: RegionState, mesh: TriangleMesh):
    """Normal angle to the region plane in units of pi (0 when degenerate).

    ``face`` is one face id or an array of them; the cost has its shape.
    """
    n_i = mesh.face_normal[np.asarray(face)]
    # one (1, 3) @ (3,) product per face: the arithmetic of n_i @ normal
    cosang = np.clip((n_i[..., None, :] @ region.normal)[..., 0], -1.0, 1.0)
    return np.where(n_i.any(axis=-1), np.arccos(cosang) / np.pi, 0.0)


def frontier_decision(cost0, cost1, phi,
                      config: PipelineConfig | None = None) -> np.ndarray:
    """Vectorized closed-form optimum: join (0) iff it is at least as cheap."""
    config = config or PipelineConfig()
    cost0 = np.asarray(cost0, dtype=np.float64)
    join = config.lambda_d * cost0 <= (config.lambda_d * np.asarray(cost1)
                                       + config.lambda_m * np.asarray(phi))
    return np.where(join, 0, 1).astype(np.uint8)


def label_frontier(region: RegionState, frontier, mesh: TriangleMesh,
                   probmap, config: PipelineConfig | None = None) -> np.ndarray:
    """Binary labels for the frontier faces (0 = join the region)."""
    frontier = np.asarray(frontier, dtype=np.int64)
    if len(frontier) == 0:
        return np.zeros(0, dtype=np.uint8)
    cost0, cost1 = unary_cost(frontier, region, mesh, probmap, config)
    phi = pairwise_cost(frontier, region, mesh)
    return frontier_decision(cost0, cost1, phi, config)


def grow_region(seed: int, mesh: TriangleMesh, adjacency: AdjacencyIndex,
                probmap, config: PipelineConfig | None,
                face_segment: np.ndarray) -> RegionState:
    """Grow one region from a seed face until a step adds nothing.

    ``face_segment[seed]`` holds the new region's id, and every face that
    joins takes it. A face that holds an id (>= 0) belongs to this or an
    earlier region and is never a frontier face.
    """
    region_id = face_segment[seed]
    region = RegionState(region_type=int(probmap.label[seed]))
    _add_faces(region, mesh, [seed])
    refit_plane(region)
    if region.plane_degenerate:
        # collapsed/collinear seed: fall back to the face's own plane
        n = mesh.face_normal[seed]
        if np.any(n):
            region.normal = n.copy()
            region.offset = -float(n @ mesh.face_centroid[seed])
    front = [seed]
    while front:
        cand = unique_ints(adjacency.face_neighbors[front])
        cand = cand[cand >= 0]
        frontier = [f for f in cand[face_segment[cand] < 0].tolist()
                    if f not in region.visited]
        if not frontier:
            break
        labels = label_frontier(region, frontier, mesh, probmap, config)
        front = [f for f, lab in zip(frontier, labels) if lab == 0]
        region.visited.update(f for f, lab in zip(frontier, labels) if lab)
        if front:
            face_segment[front] = region_id
            _add_faces(region, mesh, front)
            refit_plane(region)
    return region


def oversegment(mesh: TriangleMesh, adjacency: AdjacencyIndex, probmap,
                config: PipelineConfig | None = None) -> Segmentation:
    """Segment every face; seeds are picked by descending planar probability.

    The growth weights ``lambda_d``, ``lambda_m`` and ``lambda_g`` come from
    ``config``. A segment of zero area has no plane, so it is NONPLANAR.
    """
    config = config or PipelineConfig()
    nf = mesh.n_faces
    face_segment = np.full(nf, -1, dtype=np.int32)
    order = np.lexsort((np.arange(nf), -np.asarray(probmap.planar_prob)))
    types, planes = [], []
    for seed in order:
        if face_segment[seed] >= 0:
            continue
        face_segment[seed] = len(types)
        region = grow_region(int(seed), mesh, adjacency, probmap, config,
                             face_segment)
        types.append(region.region_type)
        planes.append(np.append(region.normal, region.offset))
    segment_type = np.asarray(types, dtype=np.int8)
    area = np.bincount(face_segment, mesh.face_area, len(types))
    segment_type[area == 0] = NONPLANAR
    return Segmentation(face_segment=face_segment, segment_type=segment_type,
                        planes=np.asarray(planes, dtype=np.float64).reshape(-1, 4))
