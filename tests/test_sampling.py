import numpy as np
import pytest

from pssmesh.config import ConfigError
from pssmesh.mesh import TriangleMesh
from pssmesh.sampling import (MAX_SAMPLES_PER_FACE, _apportion,
                              check_sample_size, sample_points)

from conftest import grid_mesh


def test_count_area_times_density():
    m = grid_mesh(5, 2)    # area 10
    s = sample_points(m, 10.0, seed=0)
    assert len(s) == 100


def test_sample_size_check_at_the_limit():
    m = grid_mesh(5, 2)    # area 10, 20 faces: the limit is 20,000 points
    limit = MAX_SAMPLES_PER_FACE * m.n_faces
    check_sample_size(m, limit / 10.0, "grid")
    with pytest.raises(ConfigError, match="grid: area 10 m\\^2 at "
                                          "sampling_density 2000.1"):
        check_sample_size(m, (limit + 1) / 10.0, "grid")
    assert "face_area" not in vars(m)     # the check caches no geometry


def test_small_face_rounding():
    v = np.array([[0, 0, 0], [0.2, 0, 0], [0, 1, 0]], dtype=float)
    m = TriangleMesh(vertices=v, faces=np.array([[0, 1, 2]]))
    assert m.face_area.sum() == pytest.approx(0.1)
    s = sample_points(m, 10.0, seed=1)
    assert len(s) == 1


def test_determinism():
    m = grid_mesh(4, 4)
    a = sample_points(m, 25.0, seed=42)
    b = sample_points(m, 25.0, seed=42)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.source_face, b.source_face)
    c = sample_points(m, 25.0, seed=43)
    assert not np.array_equal(a.positions, c.positions)


def test_points_lie_in_source_triangle():
    m = grid_mesh(3, 3)
    rng = np.random.default_rng(1)
    m.vertices += rng.standard_normal(m.vertices.shape) * 0.05
    s = sample_points(m, 40.0, seed=7)
    tri = m.vertices[m.faces[s.source_face]]
    v0, v1, v2 = tri[:, 0], tri[:, 1], tri[:, 2]
    # solve barycentric coordinates, check all within [0,1]
    d1, d2 = v1 - v0, v2 - v0
    rel = s.positions - v0
    a11 = (d1 * d1).sum(1); a12 = (d1 * d2).sum(1); a22 = (d2 * d2).sum(1)
    b1 = (rel * d1).sum(1); b2 = (rel * d2).sum(1)
    det = a11 * a22 - a12 ** 2
    u = (a22 * b1 - a12 * b2) / det
    v = (a11 * b2 - a12 * b1) / det
    assert (u >= -1e-9).all() and (v >= -1e-9).all()
    assert (u + v <= 1 + 1e-9).all()
    # and points are on the face plane
    n = m.face_normal[s.source_face]
    assert np.abs(((s.positions - v0) * n).sum(1)).max() < 1e-9


def test_apportion_exact_and_proportional():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = rng.random(rng.integers(1, 30)) + 1e-9
        total = int(rng.integers(0, 500))
        q = _apportion(w, total)
        assert q.sum() == total
        assert (q >= 0).all()
        share = w / w.sum() * total
        assert np.all(np.abs(q - share) < 1.0 + 1e-9)


def test_degenerate_faces_get_no_points():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]], dtype=float)
    f = np.array([[0, 1, 2], [0, 1, 3]], dtype=np.int32)   # second is collinear
    m = TriangleMesh(vertices=v, faces=f)
    s = sample_points(m, 100.0, seed=0)
    assert (s.source_face == 0).all()


def test_zero_area_faces_never_sampled_and_normals_unit():
    # collapsed (repeated corner) and collinear faces mixed into random
    # meshes: every sample comes from a positive-area face, so every
    # sample normal is a unit vector
    rng = np.random.default_rng(5)
    for _ in range(300):
        nv = int(rng.integers(3, 12))
        v = rng.uniform(-2.0, 2.0, (nv, 3))
        f = rng.integers(0, nv, (int(rng.integers(1, 20)), 3))
        line = rng.random(len(f)) < 0.3
        v = np.vstack([v, v[0] + np.outer([1.0, 2.0, 3.0], v[1] - v[0])])
        f[line] = [nv, nv + 1, nv + 2]                # collinear corners
        collapsed = rng.random(len(f)) < 0.3
        f[collapsed, 2] = f[collapsed, 0]
        m = TriangleMesh(vertices=v, faces=f)
        s = sample_points(m, float(rng.uniform(0.5, 20.0)),
                          seed=int(rng.integers(1000)))
        assert (m.face_area[s.source_face] > 0).all()
        np.testing.assert_allclose(np.linalg.norm(s.normals, axis=1), 1.0,
                                   rtol=0, atol=1e-12)


def test_zero_area_mesh_empty():
    v = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
    m = TriangleMesh(vertices=v, faces=np.array([[0, 1, 2]]))
    s = sample_points(m, 10.0, seed=0)
    assert len(s) == 0
