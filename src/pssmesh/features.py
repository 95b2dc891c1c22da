"""Handcrafted per-face features: eigen shape, elevation, density, color, MAT.

Channel layout "face-v1" (27 channels, order fixed):

    linearity/planarity/sphericity/curvature/verticality at radii 0.5, 1, 2 m
    elevation_abs, elevation_rel, elevation_rel_r10/_r20/_r40
    inmat_radius, vertex_density, face_density, greenness, color_h/_s/_v

Eigen channels come from the area-weighted covariance of face centroids in a
ball around each face (``dx*dx + dy*dy + dz*dz <= r*r``, the face itself
included). Faces are searched one block at a time, at the largest eigen
radius or ``DENSITY_RADIUS``, whichever is larger; that one search gives
every eigen radius and the face density, and each face's neighbours are
summed in ascending index order.
``elevation_rel`` is relative to the scene-wide lowest centroid; the _rNN
variants subtract the lowest centroid inside a vertical cylinder of that
radius, found exactly on an xy grid of per-cell minima (``cylinder_min_z``).
``inmat_radius`` is the interior shrinking-ball radius of each face centroid
(``medial``, with its fixed denoise angle and the bounding-box diagonal as
the first radius). Densities are vertex and centroid counts within a
``DENSITY_RADIUS`` (1 m) ball divided by the disc area pi. Color channels
use the face color (HSV hue in degrees).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.spatial import cKDTree

from .config import PipelineConfig
from .medial import shrinking_ball_transform
from .mesh import TriangleMesh

EIGEN_NAMES = ("linearity", "planarity", "sphericity", "curvature", "verticality")
LAYOUT_FACE_V1 = "face-v1"
EIGEN_FACE_BLOCK = 256          # faces searched and summed at once
CELLS_PER_RADIUS = 8            # cylinder_min_z grid cells per radius
RIM_BATCH = 1 << 18             # cylinder_min_z point checks held at once
DENSITY_RADIUS = 1.0            # metres, ball of the two density channels


def write_csv(path, header, rows) -> None:
    """Write a table with the bytes ``csv.writer`` gives it.

    ``rows`` yields sequences of Python ints and floats (``ndarray.tolist()``
    gives them); each value is written as its ``repr``, joined by commas
    with a ``\r\n`` line end. None of these needs quoting.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


@dataclass
class FaceFeatures:
    values: np.ndarray                 # (F, C) float64
    channel_names: list
    layout_version: str = LAYOUT_FACE_V1
    color_missing: bool = False

    def channel(self, name: str) -> np.ndarray:
        return self.values[:, self.channel_names.index(name)]

    def to_csv(self, path):
        write_csv(path, ["face"] + list(self.channel_names),
                  ([i, *row] for i, row in
                   enumerate(np.asarray(self.values, np.float64).tolist())))

    def __len__(self):
        return len(self.values)


def face_channel_names(config: PipelineConfig | None = None) -> list:
    """Channel names for ``config.eigen_radii`` and ``elevation_radii``."""
    config = config or PipelineConfig()
    names = []
    for r in config.eigen_radii:
        names += [f"{n}_r{r:g}" for n in EIGEN_NAMES]
    names += ["elevation_abs", "elevation_rel"]
    names += [f"elevation_rel_r{r:g}" for r in config.elevation_radii]
    names += ["inmat_radius", "vertex_density", "face_density",
              "greenness", "color_h", "color_s", "color_v"]
    return names


def eigen_shape_features(centroids, areas, tree, radii):
    """Eigen channels, their flags and ball counts of every face.

    Returns (F, 5 * len(radii)) channels, (F, len(radii)) flags and (F,)
    the number of centroids within ``DENSITY_RADIUS``. Channels per face
    and radius, five per radius in the order of ``radii``: linearity,
    planarity, sphericity, curvature and verticality (1 - |z| of the
    neighbourhood's least eigenvector), computed from the area-weighted
    covariance of the centroids within the radius. A face is flagged (and
    its channels are 0) when fewer than 3 centroids or no spread lie in
    its ball.

    Face j is a neighbour of face i at radius r when dx*dx + dy*dy + dz*dz
    <= r*r (the rule ``cKDTree`` applies itself); every face is its own
    neighbour. Faces are processed in blocks of ``EIGEN_FACE_BLOCK``: one
    ``sparse_distance_matrix`` between the block and ``tree`` at the
    largest of ``radii`` and ``DENSITY_RADIUS`` finds the block's
    neighbours, so memory follows the block's pairs, not all pairs. Each
    face's neighbours are summed in ascending index order, the order
    ``query_ball_point`` lists them in.
    """
    nf = len(centroids)
    xyz = [np.ascontiguousarray(centroids[:, a], dtype=np.float64)
           for a in range(3)]
    search = max(*radii, DENSITY_RADIUS)
    cov = np.zeros((len(radii), nf, 3, 3))
    counts = np.zeros((len(radii), nf), dtype=np.int64)
    ball = np.zeros(nf, dtype=np.int64)
    for f0 in range(0, nf, EIGEN_FACE_BLOCK):
        f1 = min(f0 + EIGEN_FACE_BLOCK, nf)
        pairs = cKDTree(centroids[f0:f1]).sparse_distance_matrix(
            tree, search, output_type="ndarray")
        keys = pairs["i"] * nf + pairs["j"]
        del pairs
        keys.sort()
        owner, nb = np.divmod(keys, nf)
        del keys
        d2 = _squared_distances(xyz, owner + f0, nb)
        ball[f0:f1] = np.bincount(
            owner[d2 <= DENSITY_RADIUS * DENSITY_RADIUS], minlength=f1 - f0)
        for j, r in enumerate(radii):
            near = d2 <= r * r
            cov[j, f0:f1], counts[j, f0:f1] = _weighted_covariance(
                owner[near], nb[near], xyz, areas, f1 - f0)
    out = np.zeros((nf, 5 * len(radii)))
    flagged = np.zeros((nf, len(radii)), dtype=bool)
    for j in range(len(radii)):
        out[:, 5 * j:5 * j + 5], flagged[:, j] = _shape_channels(cov[j],
                                                                 counts[j])
    return out, flagged, ball


def _squared_distances(xyz, i, j):
    """dx*dx + dy*dy + dz*dz between points i and j, summed left to right."""
    d2 = xyz[0][i] - xyz[0][j]
    d2 *= d2
    for c in xyz[1:]:
        t = c[i] - c[j]
        t *= t
        d2 += t
    return d2


def _weighted_covariance(owner, nb, xyz, areas, n):
    """(n, 3, 3) area-weighted covariance per owner and the ball sizes.

    ``owner`` is sorted. Two passes (weighted mean, then centred products),
    each a product with the (n, pairs) matrix that has a 1 at (owner, pair):
    ``csr_matvec`` sums each owner's entries in array order, starting from
    0, the additions ``np.bincount`` makes.
    """
    cnt = np.bincount(owner, minlength=n)
    # int32 index arrays, which scipy keeps instead of copying; one block
    # has far fewer than 2**31 pairs
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(cnt, out=indptr[1:])
    total = csr_array((np.ones(len(owner)),
                       np.arange(len(owner), dtype=np.int32), indptr),
                      shape=(n, len(owner)))
    w = areas[nb]
    wsum = total @ w
    ok = wsum > 0
    dev = []
    for c in xyz:
        col = c[nb]
        mean = total @ (w * col)
        mean[ok] /= wsum[ok]
        col -= np.repeat(mean, cnt)
        dev.append(col)
    cov = np.empty((n, 3, 3))
    for a in range(3):
        wd = w * dev[a]
        for b in range(a, 3):
            cab = total @ (wd * dev[b])
            cov[:, a, b] = cab
            cov[:, b, a] = cab
    cov[ok] /= wsum[ok][:, None, None]
    return cov, cnt


def _shape_channels(cov, counts):
    """(F, 5) eigen channels and flags from per-face covariances."""
    evals, evecs = np.linalg.eigh(cov)          # ascending
    evals = np.clip(evals, 0.0, None)
    l1, l2, l3 = evals[:, 2], evals[:, 1], evals[:, 0]
    flagged = (counts < 3) | (l1 <= 1e-18)
    safe1 = np.where(l1 > 0, l1, 1.0)
    total = l1 + l2 + l3
    out = np.zeros((len(cov), 5))
    out[:, 0] = (l1 - l2) / safe1
    out[:, 1] = (l2 - l3) / safe1
    out[:, 2] = l3 / safe1
    out[:, 3] = np.where(total > 0, l3 / np.where(total > 0, total, 1.0), 0.0)
    out[:, 4] = 1.0 - np.abs(evecs[:, 2, 0])    # least eigenvector z component
    out[flagged] = 0.0
    return out, flagged


def cylinder_min_z(points_xy, points_z, query_xy, radius):
    """Exact min z among points whose XY distance to each query is <= radius.

    A point is in range when dx*dx + dy*dy <= radius*radius, with dx and dy
    the query's minus the point's coordinates. Queries with no point in
    range yield +inf.

    Points are binned into square cells of side ``radius /
    CELLS_PER_RADIUS``; only non-empty cells are indexed, as sorted int64
    cell keys with each cell's points in ascending z, so memory follows the
    number of points however far apart they lie. A cell that lies inside
    the disc wherever a query sits in its own cell answers with its lowest
    z: per column of the stencil those cells form one key range, read with
    one range minimum. A cell that may cross the circle is visited nearest
    first, and only its points below the lowest z found so far are checked
    point by point, in batches of about ``RIM_BATCH`` point checks. Points
    and queries spread over more than 2**62 cells (2.7e6 km square at
    radius 10) raise ValueError.
    """
    pxy = np.asarray(points_xy, dtype=np.float64)
    pz = np.asarray(points_z, dtype=np.float64)
    qxy = np.asarray(query_xy, dtype=np.float64)
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"cylinder radius must be finite and > 0: {radius}")
    if len(pz) == 0 or len(qxy) == 0:
        return np.full(len(qxy), np.inf)
    r2 = radius * radius
    cell = radius / CELLS_PER_RADIUS
    # no point in range lies more than `reach` cells from the query's cell
    reach = int(np.ceil(radius / cell)) + 1
    lo = np.minimum(pxy.min(axis=0), qxy.min(axis=0))
    pc = np.floor((pxy - lo) / cell) + reach
    qc = np.floor((qxy - lo) / cell) + reach
    nx, ny = np.maximum(pc.max(axis=0), qc.max(axis=0)) + reach + 1
    if nx * ny >= 2.0 ** 62:
        raise ValueError(f"points and queries span too many cells of "
                         f"radius / {CELLS_PER_RADIUS} for radius {radius}")
    ny = int(ny)
    # slack for rounding in the cell assignment and in the distances
    tol = 1e-9 * (radius + max(float(np.abs(pxy).max()),
                               float(np.abs(qxy).max())))

    # key x * ny + y: the cells of one stencil column are one key range
    pkey = pc[:, 0].astype(np.int64) * ny + pc[:, 1].astype(np.int64)
    order = np.lexsort((pz, pkey))              # by cell, then by z
    pkey = pkey[order]
    px, py, pz = pxy[order, 0], pxy[order, 1], pz[order]
    keys, start = np.unique(pkey, return_index=True)
    start = np.append(start, len(pz))
    cell_min = np.append(pz[start[:-1]], np.inf)
    # `rank` grows along the sorted points, so one search finds the points
    # of a cell below a given z: cell index * (n + 1) + points with lower z
    zs = np.sort(pz)
    rank = (np.repeat(np.arange(len(keys)), np.diff(start)) * (len(pz) + 1)
            + np.searchsorted(zs, pz))

    qkey = qc[:, 0].astype(np.int64) * ny + qc[:, 1].astype(np.int64)
    qcells, qinv = np.unique(qkey, return_inverse=True)

    # per-axis distance bounds between points of two cells `a` cells apart
    a = np.arange(-reach, reach + 1)
    far = (np.abs(a) + 1) * cell + tol
    near = np.maximum((np.abs(a) - 1) * cell - tol, 0.0)
    inside = far[:, None] ** 2 + far[None, :] ** 2 <= r2
    gap2 = near[:, None] ** 2 + near[None, :] ** 2
    rim = (gap2 <= r2) & ~inside

    cell_best = np.full(len(qcells), np.inf)
    for col, n_inside in zip(a, inside.sum(axis=1)):
        if n_inside == 0:
            continue
        half = n_inside // 2                    # inside: |row| <= half
        base = qcells + col * ny
        i0 = np.searchsorted(keys, base - half)
        i1 = np.searchsorted(keys, base + half, side="right")
        span = np.minimum.reduceat(cell_min, np.column_stack((i0, i1)).ravel())
        np.minimum(cell_best, np.where(i1 > i0, span[::2], np.inf),
                   out=cell_best)
    best = cell_best[qinv]

    rim_offsets = (a[:, None] * ny + a[None, :])[rim]
    for off in rim_offsets[np.argsort(gap2[rim], kind="stable")]:
        want = qcells + off
        t = np.searchsorted(keys, want)
        t[keys[np.minimum(t, len(keys) - 1)] != want] = len(keys)  # empty
        t = t[qinv]
        sel = np.flatnonzero(cell_min[t] < best)
        if len(sel) == 0:
            continue
        t = t[sel]
        first = start[t]
        below = np.searchsorted(zs, best[sel])
        cnt = np.searchsorted(rank, t * (len(pz) + 1) + below) - first
        ends = np.cumsum(cnt)
        i = 0
        while i < len(sel):
            j = max(i + 1, int(np.searchsorted(
                ends, ends[i] - cnt[i] + RIM_BATCH, side="right")))
            c = cnt[i:j]
            group = np.cumsum(c) - c
            q = np.repeat(sel[i:j], c)
            p = np.repeat(first[i:j] - group, c) + np.arange(int(c.sum()))
            dx = qxy[q, 0] - px[p]
            dy = qxy[q, 1] - py[p]
            z = np.where(dx * dx + dy * dy <= r2, pz[p], np.inf)
            best[sel[i:j]] = np.minimum(best[sel[i:j]],
                                        np.minimum.reduceat(z, group))
            i = j
    return best


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


def inmat_radii(mesh: TriangleMesh) -> np.ndarray:
    """Interior shrinking-ball radius per face (0 for degenerate faces)."""
    good = ~mesh.degenerate_faces
    out = np.zeros(mesh.n_faces)
    if good.sum() >= 2:
        balls = shrinking_ball_transform(
            mesh.face_centroid[good], mesh.face_normal[good],
            orientation="interior")
        out[np.flatnonzero(good)] = balls.radii
    return out


def compute_face_features(mesh: TriangleMesh,
                          config: PipelineConfig | None = None) -> FaceFeatures:
    """Fixed-layout per-face feature table; see module docstring for channels."""
    config = config or PipelineConfig()
    names = face_channel_names(config)
    nf = mesh.n_faces
    vals = np.zeros((nf, len(names)))
    if nf == 0:
        return FaceFeatures(vals, names)

    cent = mesh.face_centroid
    areas = mesh.face_area
    tree = cKDTree(cent)

    col = 5 * len(config.eigen_radii)
    vals[:, :col], _, ball = eigen_shape_features(cent, areas, tree,
                                                  config.eigen_radii)

    z = cent[:, 2]
    vals[:, col] = z
    col += 1
    vals[:, col] = z - z.min()
    col += 1
    n_elev = len(config.elevation_radii)
    vals[:, col:col + n_elev] = elevation_context(mesh, config.elevation_radii)
    col += n_elev

    vals[:, col] = inmat_radii(mesh)
    col += 1
    vtree = cKDTree(mesh.vertices)
    disc_area = np.pi * DENSITY_RADIUS ** 2
    vals[:, col] = vtree.query_ball_point(cent, DENSITY_RADIUS,
                                          return_length=True) / disc_area
    col += 1
    vals[:, col] = ball / disc_area
    col += 1

    rgb = None
    if mesh.face_color is not None:
        rgb = mesh.face_color.astype(np.float64)
    elif mesh.vertex_color is not None:
        rgb = mesh.vertex_color[mesh.faces].astype(np.float64).mean(axis=1)
    if rgb is not None:                 # else the four color channels stay 0
        r8, g8, b8 = rgb[:, 0], rgb[:, 1], rgb[:, 2]
        vals[:, col] = np.clip((2.0 * g8 - r8 - b8) / 510.0, -1.0, 1.0)
        vals[:, col + 1:col + 4] = np.column_stack(rgb_to_hsv_deg(rgb))
    return FaceFeatures(vals, names, color_missing=rgb is None)
