"""Shrinking-ball medial axis transform over oriented point sets.

One ball per input point: start with a huge radius, repeatedly find the
nearest other point inside the ball and shrink so the ball stays tangent at
the surface point, until the radius settles. Interior balls are pushed along
-normal, exterior along +normal. Balls whose final touching pair subtends a
small angle at the center are noise (near-tangent contacts) and get discarded,
keeping the last accepted radius.

Fixed settings: a ball is noise when its touching pair subtends less than
``DENOISE_ANGLE_DEG`` (30 degrees); a radius has settled when one step
changes it by less than ``REL_TOL`` (1e-4) of itself; a ball still moving
after ``MAX_ITER`` (30) steps keeps its last radius and stays unconverged.
The point tree has ``LEAF_SIZE`` (64) points per leaf: the first balls are
as wide as the bounding box, and their centres lie about as far from very
many points, which larger leaves check in fewer, longer runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

DENOISE_ANGLE_DEG = 30.0
MAX_ITER = 30
REL_TOL = 1e-4
LEAF_SIZE = 64


@dataclass
class MedialBalls:
    """Per-point shrinking-ball results (arrays indexed by surface point)."""

    centers: np.ndarray                # (N, 3)
    radii: np.ndarray                  # (N,)
    touch_index: np.ndarray            # (N,) index of touching point, -1 = none
    converged: np.ndarray              # (N,) bool
    discarded: np.ndarray              # (N,) bool, denoised away

    @property
    def kept(self) -> np.ndarray:
        """Balls that converged and survived denoising."""
        return self.converged & ~self.discarded

    def __len__(self):
        return len(self.radii)


def shrinking_ball_transform(points: np.ndarray, normals: np.ndarray,
                             orientation: str = "interior",
                             init_radius: float | None = None) -> MedialBalls:
    """Medial ball per oriented point; see module docstring.

    ``init_radius`` defaults to the bounding-box diagonal of ``points``.
    Normals must be unit length.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    normals = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
    if len(points) != len(normals):
        raise ValueError("points and normals must have equal length")
    n = len(points)
    if orientation not in ("interior", "exterior"):
        raise ValueError(f"orientation must be interior or exterior, got {orientation!r}")
    if n == 0:
        z3 = np.zeros((0, 3))
        z = np.zeros(0)
        return MedialBalls(z3, z, np.zeros(0, dtype=np.int64),
                           np.zeros(0, dtype=bool), np.zeros(0, dtype=bool))
    lens = np.linalg.norm(normals, axis=1)
    if np.abs(lens - 1.0).max() > 1e-6:
        bad = int(np.argmax(np.abs(lens - 1.0)))
        raise ValueError(f"normal {bad} is not unit length (|n|={lens[bad]:.6f})")

    if init_radius is None:
        lo, hi = points.min(axis=0), points.max(axis=0)
        init_radius = float(np.linalg.norm(hi - lo))
        if init_radius <= 0:
            init_radius = 1.0
    direction = normals if orientation == "exterior" else -normals
    cos_limit = np.cos(np.deg2rad(DENOISE_ANGLE_DEG))

    tree = cKDTree(points, leafsize=LEAF_SIZE)
    radii = np.full(n, float(init_radius))
    touch = np.full(n, -1, dtype=np.int64)
    converged = np.zeros(n, dtype=bool)
    discarded = np.zeros(n, dtype=bool)
    active = np.arange(n)

    for _ in range(MAX_ITER):
        if len(active) == 0:
            break
        p = points[active]
        m = direction[active]
        r = radii[active]
        c = p + r[:, None] * m
        dist, idx = tree.query(c, k=2)
        # drop the surface point itself from the candidates
        self_hit = idx[:, 0] == active
        q_idx = np.where(self_hit, idx[:, 1], idx[:, 0])
        q_dist = np.where(self_hit, dist[:, 1], dist[:, 0])

        no_neighbor = ~np.isfinite(q_dist) | (q_idx >= n)
        empty = q_dist >= r * (1.0 - 1e-9)
        stop_conv = empty & ~no_neighbor

        q = points[np.clip(q_idx, 0, n - 1)]
        pq = q - p
        denom = 2.0 * (pq * m).sum(axis=1)
        bad_side = denom <= 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            r_new = (pq * pq).sum(axis=1) / denom
        r_new = np.where(np.isfinite(r_new), r_new, 0.0)   # masked rows only

        c_new = p + r_new[:, None] * m
        v1 = p - c_new
        v2 = q - c_new
        nv = np.linalg.norm(v1, axis=1) * np.linalg.norm(v2, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cosang = (v1 * v2).sum(axis=1) / np.where(nv > 0, nv, 1.0)
        noisy = cosang > cos_limit          # separation angle below threshold

        live = ~(no_neighbor | stop_conv | bad_side)
        converged[active[stop_conv | (bad_side & ~no_neighbor)]] = True
        discard_now = live & noisy
        discarded[active[discard_now]] = True
        converged[active[discard_now]] = True    # terminated on purpose

        accept = live & ~noisy
        acc_ids = active[accept]
        settled = np.abs(r_new[accept] - r[accept]) < REL_TOL * r[accept]
        radii[acc_ids] = r_new[accept]
        touch[acc_ids] = q_idx[accept]
        converged[acc_ids[settled]] = True

        active = acc_ids[~settled]

    centers = points + radii[:, None] * direction
    return MedialBalls(centers, radii, touch, converged, discarded)
