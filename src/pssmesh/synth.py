"""Deterministic synthetic urban scenes for tests and benchmarks.

A tile is a flat ground grid plus free-standing labeled objects: boxes
(buildings), noisy icospheres (tree crowns), and small boxes (vehicles).
Every object owns its vertices, so ground-truth components stay disjoint
under edge adjacency, and all randomness flows from one seed.
"""

from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .mesh import TriangleMesh

CLASS_TERRAIN = 0
CLASS_BUILDING = 1
CLASS_VEGETATION = 2
CLASS_VEHICLE = 3

# base face color per class; per-face jitter is added on top
_CLASS_COLOR = {
    CLASS_TERRAIN: (120, 110, 96),
    CLASS_BUILDING: (188, 96, 80),
    CLASS_VEGETATION: (56, 160, 48),
    CLASS_VEHICLE: (70, 90, 170),
}

LAYOUT_ATTEMPTS = 100       # layouts tried before a tile counts as too full


@dataclass
class TileParams:
    """Knobs for one synthetic tile."""

    ground_size: float = 32.0     # side length in metres
    ground_res: int = 64          # ground quads per side
    n_boxes: int = 6
    n_trees: int = 6
    n_vehicles: int = 3
    noise_sigma: float = 0.08     # radial crown noise in metres
    seed: int = 0

    def __post_init__(self):
        if self.ground_size <= 0 or self.ground_res < 1:
            raise ConfigError("ground_size and ground_res must be positive")
        for name in ("n_boxes", "n_trees", "n_vehicles", "noise_sigma",
                     "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


class _Builder:
    """Accumulates vertex/face blocks with index offsets."""

    def __init__(self):
        self.vertices = []
        self.faces = []
        self.labels = []
        self.offset = 0

    def add(self, verts, faces, label):
        verts = np.asarray(verts, dtype=np.float64)
        faces = np.asarray(faces, dtype=np.int64)
        self.vertices.append(verts)
        self.faces.append(faces + self.offset)
        self.labels.append(np.full(len(faces), label, dtype=np.int32))
        self.offset += len(verts)

    def build(self, rng) -> TriangleMesh:
        verts = np.concatenate(self.vertices)
        faces = np.concatenate(self.faces).astype(np.int32)
        labels = np.concatenate(self.labels)
        base = np.array([_CLASS_COLOR[int(c)] for c in labels], dtype=np.float64)
        jitter = rng.integers(-18, 19, size=base.shape)
        colors = np.clip(base + jitter, 0, 255).astype(np.uint8)
        return TriangleMesh(vertices=verts, faces=faces,
                            face_color=colors, face_label=labels)


def ground_grid(size, res, z=0.0):
    """Flat square ground sheet of res x res quads in the z-plane."""
    side = np.linspace(0.0, 1.0, res + 1) * size
    return _sheet(side, side, z, "abc")


def _sheet(avals, bvals, cval, order):
    """Grid sheet over avals x bvals with the third coordinate fixed.

    ``order`` names which xyz slot each of (a, b, c) fills, e.g. "acb"
    puts a on x, the constant on y, and b on z.
    """
    ga, gb = np.meshgrid(avals, bvals, indexing="ij")
    gc = np.full_like(ga, cval)
    slot = {"a": ga, "b": gb, "c": gc}
    verts = np.column_stack([slot[order[0]].ravel(),
                             slot[order[1]].ravel(),
                             slot[order[2]].ravel()])
    # quad (i, j) has corners a = i * (nv + 1) + j and b = a + nv + 1 and
    # splits into triangles (a, b, b + 1) and (a, b + 1, a + 1)
    nv = len(bvals) - 1
    a = (np.arange(len(avals) - 1)[:, None] * (nv + 1)
         + np.arange(nv)[None, :]).ravel()
    b = a + nv + 1
    faces = np.column_stack([a, b, b + 1, a, b + 1, a + 1]).reshape(-1, 3)
    return verts, faces.astype(np.int64)


def box_shell(center_xy, size_xyz, z0=0.0, cell=1.0):
    """Axis-aligned open box: four walls and a roof, no bottom sheet.

    Each side is tessellated at roughly ``cell`` metres. All sides draw
    their coordinates from three shared per-axis arrays, so seam vertices
    coincide bit-exactly and the shell welds into one connected sheet.
    """
    cx, cy = float(center_xy[0]), float(center_xy[1])
    w, d, h = (float(s) for s in size_xyz)

    def axis(lo, length):
        n = max(1, int(round(length / cell)))
        return lo + np.linspace(0.0, 1.0, n + 1) * length

    xs = axis(cx - w / 2.0, w)
    ys = axis(cy - d / 2.0, d)
    zs = axis(z0, h)
    parts = [
        _sheet(xs, ys, zs[-1], "abc"),     # roof
        _sheet(xs, zs, ys[0], "acb"),      # near wall
        _sheet(xs, zs, ys[-1], "acb"),     # far wall
        _sheet(ys, zs, xs[0], "cab"),      # left wall
        _sheet(ys, zs, xs[-1], "cab"),     # right wall
    ]
    verts = []
    faces = []
    off = 0
    for v, f in parts:
        verts.append(v)
        faces.append(f + off)
        off += len(v)
    verts = np.concatenate(verts)
    faces = np.concatenate(faces)
    verts, inverse = np.unique(verts, axis=0, return_inverse=True)
    return verts, inverse[faces]


def icosphere(radius=1.0, subdivisions=2, center=(0.0, 0.0, 0.0)):
    """Geodesic sphere from a subdivided icosahedron."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts[0])
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    for _ in range(subdivisions):
        verts_list = [v for v in verts]
        midpoint = {}

        def mid(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                m = verts_list[a] + verts_list[b]
                m /= np.linalg.norm(m)
                midpoint[key] = len(verts_list)
                verts_list.append(m)
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc],
                          [ab, bc, ca]]
        verts = np.asarray(verts_list)
        faces = np.asarray(new_faces, dtype=np.int64)
    verts = verts * float(radius) + np.asarray(center, dtype=np.float64)
    return verts, faces


def noisy_sphere(radius, center, sigma, rng, subdivisions=3):
    """Icosphere with radial vertex noise, like a rough tree crown."""
    verts, faces = icosphere(radius, subdivisions, center)
    if sigma > 0:
        radial = verts - np.asarray(center)[None]
        radial /= np.linalg.norm(radial, axis=1, keepdims=True)
        verts = verts + radial * rng.normal(0.0, sigma, len(verts))[:, None]
    return verts, faces


class PlacementError(RuntimeError):
    """No free spot for an object on the tile."""


def _place(rng, placed, half_extent, size, margin=1.0, tries=1000):
    """Rejection-sample an object center keeping discs disjoint."""
    for _ in range(tries):
        c = rng.uniform(half_extent + margin, size - half_extent - margin, 2)
        if all(np.hypot(*(c - p)) >= r + half_extent + margin
               for p, r in placed):
            placed.append((c, half_extent))
            return c
    raise PlacementError("could not place object without overlap; "
                         "reduce object counts or grow the tile")


def synth_tile(params: TileParams | None = None) -> TriangleMesh:
    """Build one labeled tile; identical parameters give identical meshes.

    A layout whose objects cannot all be placed starts again from an empty
    tile, drawing on from the same generator, up to ``LAYOUT_ATTEMPTS``
    times; a tile laid out at the first attempt never draws again.
    """
    params = params or TileParams()
    rng = np.random.default_rng(params.seed)
    for _ in range(LAYOUT_ATTEMPTS):
        try:
            b = _layout(params, rng)
        except PlacementError:
            continue
        return b.build(rng)
    raise PlacementError(f"could not place the objects without overlap in "
                         f"{LAYOUT_ATTEMPTS} layouts; reduce object counts "
                         f"or grow the tile")


def _layout(params: TileParams, rng) -> _Builder:
    """Ground and objects of one layout attempt, drawn from ``rng``."""
    b = _Builder()
    b.add(*ground_grid(params.ground_size, params.ground_res),
          CLASS_TERRAIN)
    placed = []
    for _ in range(params.n_boxes):
        w = rng.uniform(3.0, 6.0)
        d = rng.uniform(3.0, 6.0)
        h = rng.uniform(3.0, 8.0)
        c = _place(rng, placed, max(w, d) / 2.0, params.ground_size)
        b.add(*box_shell(c, (w, d, h)), CLASS_BUILDING)
    for _ in range(params.n_trees):
        r = rng.uniform(1.2, 2.0)
        c = _place(rng, placed, r, params.ground_size)
        center = (c[0], c[1], r + rng.uniform(1.0, 2.5))
        b.add(*noisy_sphere(r, center, params.noise_sigma, rng),
              CLASS_VEGETATION)
    for _ in range(params.n_vehicles):
        w = rng.uniform(1.6, 2.0)
        d = rng.uniform(3.5, 4.5)
        h = rng.uniform(1.4, 1.8)
        c = _place(rng, placed, max(w, d) / 2.0, params.ground_size)
        b.add(*box_shell(c, (w, d, h)), CLASS_VEHICLE)
    return b


def expected_component_count(params: TileParams) -> int:
    """Ground-truth components a tile should decompose into."""
    return 1 + params.n_boxes + params.n_trees + params.n_vehicles
