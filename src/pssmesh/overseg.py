"""Planarity-sensible over-segmentation by incremental MRF region growing.

Regions grow one at a time from the unassigned face with the highest planar
probability. Each growth step labels the frontier (neighbors of the current
growth front) with a tiny binary MRF whose region label is fixed to 0:

    energy = lambda_d * sum_i unary(x_i) + lambda_m * sum_i pairwise * [x_i != 0]

Unary cost for joining uses the distance from the face's farthest vertex to
the region plane, optionally relaxed by the non-planar probability prior when
both the face and the region are non-planar. Because each frontier face
couples only to the fixed region node, the exact optimum decomposes per face
into a closed-form rule. The tests check it against enumeration and against
an exact max-flow min-cut on the star graph.

Faces labeled 1 are "visited" for the current region only and reconsidered by
later regions. The region plane comes from an incremental second-moment
accumulator over the region's unique vertices. Only the frontier labeling
reads it, so it is refit once after the seed and once after each step that
accepted faces. That equals a refit after every accepted face bit for bit: a
step whose final refit is degenerate is replayed face by face, because a
degenerate refit keeps the last good plane, which an intermediate refit of
that step may have set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjacency import AdjacencyIndex
from .config import PipelineConfig
from .mesh import TriangleMesh

PLANAR, NONPLANAR = 0, 1


class PlaneAccumulator:
    """Incremental second moments of a growing point set for plane refits."""

    def __init__(self):
        self.n = 0
        self.sum_p = np.zeros(3)
        self.sum_pp = np.zeros((3, 3))

    def add(self, points: np.ndarray):
        points = np.atleast_2d(points)
        self.n += len(points)
        self.sum_p += points.sum(axis=0)
        self.sum_pp += points.T @ points

    def copy(self) -> "PlaneAccumulator":
        other = PlaneAccumulator()
        other.n, other.sum_p, other.sum_pp = \
            self.n, self.sum_p.copy(), self.sum_pp.copy()
        return other

    def scatter(self):
        mu = self.sum_p / self.n
        return self.sum_pp - self.n * np.outer(mu, mu), mu


@dataclass
class RegionState:
    region_type: int                      # PLANAR or NONPLANAR
    members: list = field(default_factory=list)
    member_set: set = field(default_factory=set)
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
    ref = region.normal_sum
    if float(ref @ n) < 0:
        n = -n
    region.normal = n
    region.offset = -float(n @ mu)
    region.plane_degenerate = False


def _accumulate(region: RegionState, mesh: TriangleMesh, face: int,
                fresh: list) -> None:
    """Add a face's new vertices and its area-weighted normal to the sums."""
    if fresh:
        region.acc.add(mesh.vertices[fresh])
    region.normal_sum = region.normal_sum + mesh.face_area_normal[face]


def _add_face(region: RegionState, mesh: TriangleMesh, face: int) -> list:
    """Make ``face`` a member; returns its vertices new to the region.

    The plane is not refit; call ``refit_plane`` for that.
    """
    region.members.append(face)
    region.member_set.add(face)
    fresh = [v for v in map(int, mesh.faces[face]) if v not in region.vertex_set]
    region.vertex_set.update(fresh)
    _accumulate(region, mesh, face, fresh)
    return fresh


def _replay_refits(region: RegionState, mesh: TriangleMesh, start: tuple,
                   faces: list, fresh: list) -> None:
    """Redo one step's sums from ``start`` with a refit after every face.

    ``start`` is the (accumulator, normal sum) before the step; the sums end
    where they were, and the plane is the last non-degenerate refit's.
    """
    region.acc, region.normal_sum = start
    for face, new in zip(faces, fresh):
        _accumulate(region, mesh, face, new)
        refit_plane(region)


def unary_cost(face, region: RegionState, mesh: TriangleMesh,
               probmap, config: PipelineConfig | None = None) -> tuple:
    """(cost for joining, cost for staying out) of frontier faces.

    ``face`` is one face id or an array of them; the costs have its shape.
    """
    if not region.members:
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
                assigned: np.ndarray) -> RegionState:
    """Grow one region from a seed face until a step adds nothing.

    Faces set in ``assigned`` (a bool per face) belong to earlier regions
    and are never frontier faces.
    """
    region = RegionState(region_type=int(probmap.label[seed]))
    _add_face(region, mesh, seed)
    refit_plane(region)
    if region.plane_degenerate:
        # collapsed/collinear seed: fall back to the face's own plane
        n = mesh.face_normal[seed]
        if np.any(n):
            region.normal = n.copy()
            region.offset = -float(n @ mesh.face_centroid[seed])
    front = [seed]
    while front:
        cand = set()
        for f in front:
            for nb in adjacency.face_neighbors(f):
                cand.add(int(nb))
        cand -= region.member_set
        cand -= region.visited
        frontier = sorted([f for f in cand if not assigned[f]])
        if not frontier:
            break
        labels = label_frontier(region, frontier, mesh, probmap, config)
        start = (region.acc.copy(), region.normal_sum)
        added = []
        fresh = []
        for f, lab in zip(frontier, labels):
            if lab == 0:
                fresh.append(_add_face(region, mesh, f))
                added.append(f)
            else:
                region.visited.add(f)
        if added:
            refit_plane(region)
            if region.plane_degenerate:
                _replay_refits(region, mesh, start, added, fresh)
        front = added
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
    assigned = np.zeros(nf, dtype=bool)
    order = np.lexsort((np.arange(nf), -np.asarray(probmap.planar_prob)))
    types = []
    planes = []
    k = 0
    for seed in order:
        if assigned[seed]:
            continue
        region = grow_region(int(seed), mesh, adjacency, probmap, config,
                             assigned)
        for f in region.members:
            face_segment[f] = k
            assigned[f] = True
        types.append(region.region_type)
        planes.append(np.append(region.normal, region.offset))
        k += 1
    segment_type = np.asarray(types, dtype=np.int8)
    segment_type[np.bincount(face_segment, mesh.face_area, k) == 0] = NONPLANAR
    return Segmentation(face_segment=face_segment, segment_type=segment_type,
                        planes=np.asarray(planes, dtype=np.float64).reshape(-1, 4))
