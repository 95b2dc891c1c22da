import numpy as np
import pytest

from pssmesh import medial
from pssmesh.medial import shrinking_ball_transform


def fibonacci_sphere(n, radius=1.0):
    i = np.arange(n, dtype=np.float64)
    phi = np.pi * (3.0 - np.sqrt(5.0))
    y = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - y * y))
    pts = np.column_stack([np.cos(phi * i) * r, y, np.sin(phi * i) * r])
    return pts * radius


def plane_grid(nx, ny, spacing, z=0.0):
    xs = (np.arange(nx) + 0.5) * spacing
    ys = (np.arange(ny) + 0.5) * spacing
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)])


def test_sphere_interior_radii():
    R = 5.0
    density = 50.0
    n = int(4 * np.pi * R * R * density)
    pts = fibonacci_sphere(n, R)
    normals = pts / np.linalg.norm(pts, axis=1, keepdims=True)   # outward
    balls = shrinking_ball_transform(pts, normals, "interior")
    kept = balls.kept
    assert kept.mean() > 0.5
    inside = (balls.radii[kept] >= 4.9) & (balls.radii[kept] <= 5.1)
    assert inside.mean() >= 0.95


def test_sphere_error_shrinks_with_density():
    R = 5.0
    errs = []
    for density in (10.0, 40.0):
        n = int(4 * np.pi * R * R * density)
        pts = fibonacci_sphere(n, R)
        normals = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        balls = shrinking_ball_transform(pts, normals, "interior")
        errs.append(np.median(np.abs(balls.radii[balls.kept] - R)))
    assert errs[1] <= errs[0] / 2.0


def test_slab_exterior_radii():
    spacing = 1.0 / np.sqrt(50.0)
    a = plane_grid(70, 70, spacing, z=0.0)
    b = plane_grid(70, 70, spacing, z=2.0)
    pts = np.vstack([a, b])
    normals = np.zeros_like(pts)
    normals[:len(a), 2] = 1.0      # bottom plane faces up into the gap
    normals[len(a):, 2] = -1.0     # top plane faces down
    balls = shrinking_ball_transform(pts, normals, "exterior")
    kept = balls.kept
    assert kept.mean() > 0.5
    r = balls.radii[kept]
    assert ((r >= 0.95) & (r <= 1.05)).mean() >= 0.95


def test_isolated_point_unconverged():
    pts = np.array([[1.0, 2.0, 3.0]])
    nrm = np.array([[0.0, 0.0, 1.0]])
    balls = shrinking_ball_transform(pts, nrm, "interior", init_radius=7.5)
    assert balls.radii[0] == 7.5
    assert not balls.converged[0]
    assert balls.touch_index[0] == -1


def test_two_point_exterior_ball():
    pts = np.array([[0, 0, 0], [0, 0, 1.0]])
    nrm = np.array([[0, 0, 1.0], [0, 0, -1.0]])
    balls = shrinking_ball_transform(pts, nrm, "exterior", init_radius=100.0)
    assert balls.converged[0]
    assert not balls.discarded[0]
    assert balls.radii[0] == pytest.approx(0.5)
    assert balls.touch_index[0] == 1
    assert np.allclose(balls.centers[0], [0, 0, 0.5])


def test_denoise_discards_grazing_contact():
    # second point nearly in the surface plane: tiny separation angle
    pts = np.array([[0, 0, 0], [0.1, 0, 0.001], [50, 50, 50]])
    nrm = np.tile([0.0, 0.0, 1.0], (3, 1))
    balls = shrinking_ball_transform(pts, nrm, "exterior", init_radius=200.0)
    assert balls.discarded[0]
    # shrank once onto the far point (r=75), then hit the grazing contact:
    # reported radius is the last accepted one, not the noisy candidate
    assert balls.radii[0] == pytest.approx(75.0)


def test_tangency_invariant():
    pts = fibonacci_sphere(2000, 3.0)
    normals = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    balls = shrinking_ball_transform(pts, normals, "interior")
    touched = balls.kept & (balls.touch_index >= 0)
    c = balls.centers[touched]
    p = pts[touched]
    q = pts[balls.touch_index[touched]]
    r = balls.radii[touched]
    assert np.abs(np.linalg.norm(c - p, axis=1) - r).max() <= 1e-6 * r.max()
    assert np.abs(np.linalg.norm(c - q, axis=1) - r).max() <= 1e-6 * r.max()


def test_non_unit_normal_rejected():
    with pytest.raises(ValueError, match="unit"):
        shrinking_ball_transform(np.zeros((1, 3)), np.array([[0, 0, 2.0]]))


def test_orientation_validated():
    with pytest.raises(ValueError, match="orientation"):
        shrinking_ball_transform(np.zeros((1, 3)), np.array([[0, 0, 1.0]]),
                                 orientation="sideways")


def cube_lattice(n=8, spacing=0.5):
    """Surface points of a cube on an n x n grid per side, outward normals.

    An edge or corner point appears once, with the normal of the first
    side that holds it. Many balls find several points at exactly the same
    distance from their centre.
    """
    side = (n - 1) * spacing
    g = np.arange(n) * spacing
    a, b = (x.ravel() for x in np.meshgrid(g, g, indexing="ij"))
    pts, nrm = [], []
    for axis in range(3):
        u, v = (i for i in range(3) if i != axis)
        for sign, level in ((-1.0, 0.0), (1.0, side)):
            p = np.zeros((len(a), 3))
            p[:, axis], p[:, u], p[:, v] = level, a, b
            m = np.zeros((len(a), 3))
            m[:, axis] = sign
            pts.append(p)
            nrm.append(m)
    pts, nrm = np.vstack(pts), np.vstack(nrm)
    _, first = np.unique(pts, axis=0, return_index=True)
    first.sort()
    return pts[first], nrm[first]


@pytest.mark.parametrize("orientation", ["interior", "exterior"])
def test_leaf_size_matches_leafsize_16_on_exact_ties(orientation,
                                                     monkeypatch):
    # two cubes 1 m apart: interior balls and exterior balls in the gap
    # meet points on lattice planes
    pts, nrm = cube_lattice()
    pts = np.vstack([pts, pts + [4.5, 0.0, 0.0]])
    nrm = np.vstack([nrm, nrm])
    got = shrinking_ball_transform(pts, nrm, orientation)
    monkeypatch.setattr(medial, "LEAF_SIZE", 16)
    ref = shrinking_ball_transform(pts, nrm, orientation)
    for name in ("centers", "radii", "converged", "discarded"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
    # among points exactly as far from the centre, another tree shape may
    # name another one as the touching point
    touched = np.flatnonzero(ref.touch_index >= 0)
    c = ref.centers[touched]
    d_got = ((pts[got.touch_index[touched]] - c) ** 2).sum(axis=1)
    d_ref = ((pts[ref.touch_index[touched]] - c) ** 2).sum(axis=1)
    assert d_got.tobytes() == d_ref.tobytes()
    # the lattice has such ties: many balls touch several points at once
    d_all = ((pts[None, :, :] - c[:, None, :]) ** 2).sum(axis=2)
    assert ((d_all == d_ref[:, None]).sum(axis=1) > 1).sum() > 50
