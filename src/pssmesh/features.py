"""Handcrafted per-face features: eigen shape, elevation, density, color, MAT.

Channel layout at the default radii (27 channels, order fixed; models keep
the names, see ``face_channel_names``):

    linearity/planarity/sphericity/curvature/verticality at radii 0.5, 1, 2 m
    elevation_abs, elevation_rel, elevation_rel_r10/_r20/_r40
    inmat_radius, vertex_density, face_density, greenness, color_h/_s/_v

Eigen channels come from the area-weighted covariance of face centroids in a
ball around each face (``dx*dx + dy*dy + dz*dz <= r*r``, the face itself
included). Faces are searched one block at a time, at the largest eigen
radius or ``DENSITY_RADIUS``, whichever is larger; that one search gives
every eigen radius and the face density, and each face's neighbours are
summed in ascending index order. Each block turns its covariances into
channels before the next block starts, so memory follows the block, not
faces x radii. A block is ``EIGEN_FACE_BLOCK`` = 64 faces. The densest
256-face block of a 24 m synthetic tile held 130,591 neighbour pairs
(median 49,819), and its scratch arrays, about 100 bytes per pair, set
the peak memory of a whole pipeline run. At 64 faces the densest block
holds 32,973 pairs and the eigen step takes about the same time (0.38 s
against 0.43 s on that tile, 0.20 against 0.18 s on a 16 m one); 32-face
blocks were 15-20% slower than 64.
``elevation_rel`` is relative to the scene-wide lowest centroid; the _rNN
variants subtract the lowest centroid inside a vertical cylinder of that
radius around the face, the face itself included, found exactly on an xy
grid of per-cell minima (``cylinder_min_z``).
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

from .config import PipelineConfig, radius_tag
from .medial import shrinking_ball_transform
from .mesh import TriangleMesh

EIGEN_NAMES = ("linearity", "planarity", "sphericity", "curvature", "verticality")
# faces searched and summed at once: 64 keeps a dense block's pairs near
# 33k (130k at 256) at about the same speed; 32 is 15-20% slower
EIGEN_FACE_BLOCK = 64
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


def write_npy(path, columns) -> None:
    """Write named columns as one structured ``.npy`` array.

    ``columns`` yields (name, 1-D array) pairs of equal length; each becomes
    a field of that name and of the array's dtype, in the order given, so
    the file's own header holds the column names once. The row number is
    the row index. Read it back with ``np.load(path, allow_pickle=False)``
    and a column with ``table[name]``, or the whole table as a matrix with
    ``numpy.lib.recfunctions.structured_to_unstructured``.

    Columns that are not 1-D and of one length are a ValueError, so a
    one-row column does not broadcast.
    """
    columns = [(name, np.asarray(col)) for name, col in columns]
    n = len(columns[0][1])
    if any(col.shape != (n,) for _, col in columns):
        raise ValueError("write_npy: columns differ in shape: " + ", ".join(
            f"{name} {col.shape}" for name, col in columns))
    rec = np.empty(n, dtype=[(name, col.dtype) for name, col in columns])
    for name, col in columns:
        rec[name] = col
    with open(path, "wb") as fh:
        np.save(fh, rec, allow_pickle=False)


@dataclass
class FeatureTable:
    """Feature matrix with named columns, one row per item.

    ``to_csv`` writes a header of ``ROW`` and the channel names, then one
    line per row: its index and its values; ``segment_features.csv`` is
    written this way. Face features are written by ``FaceFeatures.to_npy``
    instead, as one float64 field per channel.
    """

    ROW = "row"

    values: np.ndarray                 # (N, C) float64
    channel_names: list

    def channel(self, name: str) -> np.ndarray:
        return self.values[:, self.channel_names.index(name)]

    def to_csv(self, path):
        write_csv(path, [self.ROW] + list(self.channel_names),
                  ([i, *row] for i, row in
                   enumerate(np.asarray(self.values, np.float64).tolist())))


@dataclass
class FaceFeatures(FeatureTable):
    """One row per face."""

    ROW = "face"

    color_missing: bool = False

    def __len__(self):
        return len(self.values)

    def to_npy(self, path):
        write_npy(path, zip(self.channel_names,
                            np.asarray(self.values, np.float64).T))


def face_channel_names(config: PipelineConfig | None = None) -> list:
    """Channel names for ``config.eigen_radii`` and ``elevation_radii``."""
    config = config or PipelineConfig()
    names = []
    for r in config.eigen_radii:
        names += [f"{n}_{radius_tag(r)}" for n in EIGEN_NAMES]
    names += ["elevation_abs", "elevation_rel"]
    names += [f"elevation_rel_{radius_tag(r)}"
              for r in config.elevation_radii]
    names += ["inmat_radius", "vertex_density", "face_density",
              "greenness", "color_h", "color_s", "color_v"]
    return names


def eigen_shape_features(centroids, areas, radii):
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
    ``sparse_distance_matrix`` between the block and a tree of all faces at
    the largest of ``radii`` and ``DENSITY_RADIUS`` finds the block's
    neighbours, and the block's covariances become its channels before the
    next block starts, so memory follows the block's pairs, not all pairs
    and not faces x radii. Each face's neighbours are summed in ascending
    index order, the order ``query_ball_point`` lists them in.
    """
    nf = len(centroids)
    tree = cKDTree(centroids)
    xyz = [np.ascontiguousarray(centroids[:, a], dtype=np.float64)
           for a in range(3)]
    search = max(*radii, DENSITY_RADIUS)
    out = np.zeros((nf, 5 * len(radii)))
    flagged = np.zeros((nf, len(radii)), dtype=bool)
    ball = np.zeros(nf, dtype=np.int64)
    for f0 in range(0, nf, EIGEN_FACE_BLOCK):
        f1 = min(f0 + EIGEN_FACE_BLOCK, nf)
        pairs = cKDTree(centroids[f0:f1]).sparse_distance_matrix(
            tree, search, output_type="ndarray")
        owner = np.repeat(np.arange(f1 - f0),
                          np.bincount(pairs["i"], minlength=f1 - f0))
        nb = pairs["i"] * nf + pairs["j"]
        del pairs
        nb.sort()
        nb %= nf
        d2 = _squared_distances(xyz, owner + f0, nb)
        ball[f0:f1] = np.bincount(
            owner[d2 <= DENSITY_RADIUS * DENSITY_RADIUS], minlength=f1 - f0)
        for j, r in enumerate(radii):
            near = d2 <= r * r
            out[f0:f1, 5 * j:5 * j + 5], flagged[f0:f1, j] = _shape_channels(
                *_weighted_covariance(owner[near], nb[near], xyz, areas,
                                      f1 - f0))
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


def cylinder_min_z(points_xy, points_z, radius):
    """Exact min z among the points within XY ``radius`` of each point.

    Point j is in range of point i when dx*dx + dy*dy <= radius*radius,
    with dx and dy point i's minus point j's coordinates. Every point is in
    its own range, so no result is +inf.

    Points are binned into square cells of side ``radius /
    CELLS_PER_RADIUS``; only non-empty cells are indexed, as sorted int64
    cell keys with each cell's points in ascending z, so memory follows the
    number of points however far apart they lie. Each point answers from
    its own cell. A cell that lies inside the disc wherever a point sits in
    its own cell answers with its lowest z: per column of the stencil those
    cells form one key range, read with one range minimum. A cell that may
    cross the circle is visited nearest first, and only its points below
    the lowest z found so far are checked point by point, in batches of
    about ``RIM_BATCH`` point checks. Points spread over more than 2**62
    cells (2.7e6 km square at radius 10) raise ValueError.
    """
    pxy = np.asarray(points_xy, dtype=np.float64)
    pz = np.asarray(points_z, dtype=np.float64)
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"cylinder radius must be finite and > 0: {radius}")
    if len(pz) == 0:
        return np.zeros(0)
    r2 = radius * radius
    cell = radius / CELLS_PER_RADIUS
    # no point in range lies more than `reach` cells from the point's cell
    reach = int(np.ceil(radius / cell)) + 1
    pc = np.floor((pxy - pxy.min(axis=0)) / cell) + reach
    nx, ny = pc.max(axis=0) + reach + 1
    if nx * ny >= 2.0 ** 62:
        raise ValueError(f"points span too many cells of radius / "
                         f"{CELLS_PER_RADIUS} for radius {radius}")
    ny = int(ny)
    # slack for rounding in the cell assignment and in the distances
    tol = 1e-9 * (radius + float(np.abs(pxy).max()))

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
    own = np.repeat(np.arange(len(keys)), np.diff(start))   # cell index
    rank = own * (len(pz) + 1) + np.searchsorted(zs, pz)
    point_cell = np.empty(len(pz), dtype=np.int64)  # own, in input order
    point_cell[order] = own

    # per-axis distance bounds between points of two cells `a` cells apart
    a = np.arange(-reach, reach + 1)
    far = (np.abs(a) + 1) * cell + tol
    near = np.maximum((np.abs(a) - 1) * cell - tol, 0.0)
    inside = far[:, None] ** 2 + far[None, :] ** 2 <= r2
    gap2 = near[:, None] ** 2 + near[None, :] ** 2
    rim = (gap2 <= r2) & ~inside

    cell_best = np.full(len(keys), np.inf)
    for col, n_inside in zip(a, inside.sum(axis=1)):
        if n_inside == 0:
            continue
        half = n_inside // 2                    # inside: |row| <= half
        base = keys + col * ny
        i0 = np.searchsorted(keys, base - half)
        i1 = np.searchsorted(keys, base + half, side="right")
        span = np.minimum.reduceat(cell_min, np.column_stack((i0, i1)).ravel())
        np.minimum(cell_best, np.where(i1 > i0, span[::2], np.inf),
                   out=cell_best)
    best = cell_best[point_cell]

    rim_offsets = (a[:, None] * ny + a[None, :])[rim]
    for off in rim_offsets[np.argsort(gap2[rim], kind="stable")]:
        want = keys + off
        t = np.searchsorted(keys, want)
        t[keys[np.minimum(t, len(keys) - 1)] != want] = len(keys)  # empty
        t = t[point_cell]
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
            dx = pxy[q, 0] - px[p]
            dy = pxy[q, 1] - py[p]
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
        local_min = cylinder_min_z(cent[:, :2], cent[:, 2], r)
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
    if nf == 0:                         # z.min() needs a face
        return FaceFeatures(np.zeros((0, len(names))), names)

    cent = mesh.face_centroid
    eigen, _, ball = eigen_shape_features(cent, mesh.face_area,
                                          config.eigen_radii)
    z = cent[:, 2]
    vertex_ball = cKDTree(mesh.vertices).query_ball_point(
        cent, DENSITY_RADIUS, return_length=True)
    disc_area = np.pi * DENSITY_RADIUS ** 2

    rgb = None
    if mesh.face_color is not None:
        rgb = mesh.face_color.astype(np.float64)
    elif mesh.vertex_color is not None:
        rgb = mesh.vertex_color[mesh.faces].astype(np.float64).mean(axis=1)
    color = np.zeros((nf, 4))           # stays 0 without a color
    if rgb is not None:
        r8, g8, b8 = rgb[:, 0], rgb[:, 1], rgb[:, 2]
        color = np.column_stack((
            np.clip((2.0 * g8 - r8 - b8) / 510.0, -1.0, 1.0),
            *rgb_to_hsv_deg(rgb)))

    values = np.column_stack((
        eigen, z, z - z.min(), elevation_context(mesh, config.elevation_radii),
        inmat_radii(mesh), vertex_ball / disc_area, ball / disc_area, color))
    return FaceFeatures(values, names, color_missing=not mesh.has_color)
