"""Handcrafted per-face features: eigen shape, elevation, density, color, MAT.

Channel layout "face-v1" (27 channels, order fixed):

    linearity/planarity/sphericity/curvature/verticality at radii 0.5, 1, 2 m
    elevation_abs, elevation_rel, elevation_rel_r10/_r20/_r40
    inmat_radius, vertex_density, face_density, greenness, color_h/_s/_v

Eigen channels come from the area-weighted covariance of face centroids in a
ball around each face. ``elevation_rel`` is relative to the scene-wide lowest
centroid; the _rNN variants subtract the lowest centroid inside a vertical
cylinder of that radius. Densities are counts within a 1 m ball divided by
the disc area pi. Color channels use the face color (HSV hue in degrees).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .mesh import TriangleMesh
from .medial import shrinking_ball_transform

EIGEN_NAMES = ("linearity", "planarity", "sphericity", "curvature", "verticality")
LAYOUT_FACE_V1 = "face-v1"


@dataclass
class FaceFeatureParams:
    eigen_radii: tuple = (0.5, 1.0, 2.0)
    elevation_radii: tuple = (10.0, 20.0, 40.0)
    density_radius: float = 1.0
    mat_denoise_angle: float = 30.0
    mat_init_radius: float | None = None


@dataclass
class FaceFeatures:
    values: np.ndarray                 # (F, C) float64
    channel_names: list
    layout_version: str = LAYOUT_FACE_V1
    color_missing: bool = False

    def channel(self, name: str) -> np.ndarray:
        return self.values[:, self.channel_names.index(name)]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["face"] + list(self.channel_names))
            for i, row in enumerate(self.values):
                w.writerow([i] + [repr(float(x)) for x in row])

    def __len__(self):
        return len(self.values)


def face_channel_names(params: FaceFeatureParams) -> list:
    names = []
    for r in params.eigen_radii:
        names += [f"{n}_r{r:g}" for n in EIGEN_NAMES]
    names += ["elevation_abs", "elevation_rel"]
    names += [f"elevation_rel_r{r:g}" for r in params.elevation_radii]
    names += ["inmat_radius", "vertex_density", "face_density",
              "greenness", "color_h", "color_s", "color_v"]
    return names


def eigen_shape_features(centroids, areas, tree, radius):
    """(F, 5) eigen channels + flag for neighborhoods with <3 points.

    Channels per face: linearity, planarity, sphericity, curvature and
    verticality (1 - |z| of the neighborhood's least eigenvector), computed
    from the area-weighted covariance of the centroids within ``radius``.
    """
    nf = len(centroids)
    groups = tree.query_ball_point(centroids, radius)
    counts = np.fromiter((len(g) for g in groups), dtype=np.int64, count=nf)
    flat = np.concatenate([np.asarray(g, dtype=np.int64) for g in groups]) \
        if counts.sum() else np.zeros(0, dtype=np.int64)
    owner = np.repeat(np.arange(nf), counts)

    w = areas[flat]
    wsum = np.bincount(owner, weights=w, minlength=nf)
    mean = np.column_stack([
        np.bincount(owner, weights=w * centroids[flat, a], minlength=nf)
        for a in range(3)])
    ok = wsum > 0
    mean[ok] /= wsum[ok, None]

    d = centroids[flat] - mean[owner]
    cov = np.zeros((nf, 3, 3))
    for a in range(3):
        for b in range(a, 3):
            cab = np.bincount(owner, weights=w * d[:, a] * d[:, b], minlength=nf)
            cov[:, a, b] = cab
            cov[:, b, a] = cab
    cov[ok] /= wsum[ok][:, None, None]

    evals, evecs = np.linalg.eigh(cov)          # ascending
    evals = np.clip(evals, 0.0, None)
    l1, l2, l3 = evals[:, 2], evals[:, 1], evals[:, 0]
    flagged = (counts < 3) | (l1 <= 1e-18)
    safe1 = np.where(l1 > 0, l1, 1.0)
    total = l1 + l2 + l3
    out = np.zeros((nf, 5))
    out[:, 0] = (l1 - l2) / safe1
    out[:, 1] = (l2 - l3) / safe1
    out[:, 2] = l3 / safe1
    out[:, 3] = np.where(total > 0, l3 / np.where(total > 0, total, 1.0), 0.0)
    out[:, 4] = 1.0 - np.abs(evecs[:, 2, 0])    # least eigenvector z component
    out[flagged] = 0.0
    return out, flagged


def cylinder_min_z(points_xy, points_z, query_xy, radius):
    """Exact min z among points whose XY distance to each query is <= radius.

    Scans points in ascending z in blocks, so most queries resolve after a
    few blocks (any low ground point inside the cylinder ends the search).
    Queries with no point in range yield +inf.
    """
    points_xy = np.asarray(points_xy, dtype=np.float64)
    points_z = np.asarray(points_z, dtype=np.float64)
    query_xy = np.asarray(query_xy, dtype=np.float64)
    order = np.argsort(points_z, kind="stable")
    out = np.full(len(query_xy), np.inf)
    unresolved = np.arange(len(query_xy))
    r2 = radius * radius
    block = 256
    for start in range(0, len(order), block):
        if len(unresolved) == 0:
            break
        blk = order[start:start + block]
        d2 = ((query_xy[unresolved][:, None, :] - points_xy[blk][None, :, :]) ** 2).sum(axis=2)
        hit = d2 <= r2
        has = hit.any(axis=1)
        if has.any():
            first = np.argmax(hit[has], axis=1)     # blocks are z-ascending
            out[unresolved[has]] = points_z[blk[first]]
            unresolved = unresolved[~has]
    return out


def rgb_to_hsv_deg(rgb: np.ndarray):
    """Vectorized RGB (0..255) -> hue in degrees, saturation, value in [0,1]."""
    c = np.asarray(rgb, dtype=np.float64) / 255.0
    r, g, b = c[:, 0], c[:, 1], c[:, 2]
    mx = c.max(axis=1)
    mn = c.min(axis=1)
    delta = mx - mn
    h = np.zeros(len(c))
    nz = delta > 0
    rmax = nz & (mx == r)
    gmax = nz & (mx == g) & ~rmax
    bmax = nz & ~rmax & ~gmax
    h[rmax] = ((g - b)[rmax] / delta[rmax]) % 6.0
    h[gmax] = (b - r)[gmax] / delta[gmax] + 2.0
    h[bmax] = (r - g)[bmax] / delta[bmax] + 4.0
    h *= 60.0
    s = np.where(mx > 0, delta / np.where(mx > 0, mx, 1.0), 0.0)
    return h, s, mx


def elevation_context(mesh: TriangleMesh, radii) -> np.ndarray:
    """(F, len(radii)) centroid z minus the cylinder-local minimum centroid z."""
    cent = mesh.face_centroid
    out = np.zeros((mesh.n_faces, len(radii)))
    for j, r in enumerate(radii):
        local_min = cylinder_min_z(cent[:, :2], cent[:, 2], cent[:, :2], r)
        out[:, j] = cent[:, 2] - local_min
    return out


def inmat_radii(mesh: TriangleMesh, params: FaceFeatureParams) -> np.ndarray:
    """Interior shrinking-ball radius per face (0 for degenerate faces)."""
    good = ~mesh.degenerate_faces
    out = np.zeros(mesh.n_faces)
    if good.sum() >= 2:
        balls = shrinking_ball_transform(
            mesh.face_centroid[good], mesh.face_normal[good],
            orientation="interior", init_radius=params.mat_init_radius,
            denoise_angle=params.mat_denoise_angle)
        out[np.flatnonzero(good)] = balls.radii
    return out


def compute_face_features(mesh: TriangleMesh,
                          params: FaceFeatureParams | None = None) -> FaceFeatures:
    """Fixed-layout per-face feature table; see module docstring for channels."""
    params = params or FaceFeatureParams()
    names = face_channel_names(params)
    nf = mesh.n_faces
    vals = np.zeros((nf, len(names)))
    if nf == 0:
        return FaceFeatures(vals, names)

    cent = mesh.face_centroid
    areas = mesh.face_area
    tree = cKDTree(cent)

    col = 0
    for r in params.eigen_radii:
        vals[:, col:col + 5] = eigen_shape_features(cent, areas, tree, r)[0]
        col += 5

    z = cent[:, 2]
    vals[:, col] = z
    col += 1
    vals[:, col] = z - z.min()
    col += 1
    vals[:, col:col + len(params.elevation_radii)] = elevation_context(mesh, params.elevation_radii)
    col += len(params.elevation_radii)

    vals[:, col] = inmat_radii(mesh, params)
    col += 1
    vtree = cKDTree(mesh.vertices)
    disc_area = np.pi * params.density_radius ** 2
    vals[:, col] = vtree.query_ball_point(cent, params.density_radius,
                                          return_length=True) / disc_area
    col += 1
    vals[:, col] = tree.query_ball_point(cent, params.density_radius,
                                         return_length=True) / disc_area
    col += 1

    color_missing = False
    if mesh.face_color is not None:
        rgb = mesh.face_color.astype(np.float64)
    elif mesh.vertex_color is not None:
        rgb = mesh.vertex_color[mesh.faces].astype(np.float64).mean(axis=1)
    else:
        rgb = None
        color_missing = True
    if rgb is None:
        col += 4
    else:
        r8, g8, b8 = rgb[:, 0], rgb[:, 1], rgb[:, 2]
        vals[:, col] = np.clip((2.0 * g8 - r8 - b8) / 510.0, -1.0, 1.0)
        col += 1
        h, s, v = rgb_to_hsv_deg(rgb)
        vals[:, col] = h
        vals[:, col + 1] = s
        vals[:, col + 2] = v
        col += 3

    return FaceFeatures(vals, names, color_missing=color_missing)
