import numpy as np
import pytest

from pssmesh.mesh import TriangleMesh, MeshError

from conftest import grid_mesh, two_triangle_strip


def test_derived_caches_single_triangle():
    m = TriangleMesh(
        vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
        faces=np.array([[0, 1, 2]], dtype=np.int32))
    assert m.face_area[0] == pytest.approx(0.5)
    assert np.allclose(m.face_centroid[0], [1 / 3, 1 / 3, 0])
    assert np.allclose(m.face_normal[0], [0, 0, 1])


def test_out_of_range_index_rejected():
    with pytest.raises(MeshError, match="face 0"):
        TriangleMesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 7]]))


def test_collapsed_face_is_degenerate_not_error():
    m = TriangleMesh(
        vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
        faces=np.array([[0, 0, 1], [0, 1, 2]], dtype=np.int32))
    assert m.degenerate_faces.tolist() == [True, False]
    assert m.face_area[0] == 0.0
    assert np.all(m.face_normal[0] == 0.0)


def test_zero_area_collinear_face_flagged():
    m = TriangleMesh(
        vertices=np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float),
        faces=np.array([[0, 1, 2]], dtype=np.int32))
    assert m.degenerate_faces[0]
    assert np.linalg.norm(m.face_normal[0]) == 0.0


def test_normals_unit_for_regular_faces():
    m = grid_mesh(3, 3)
    norms = np.linalg.norm(m.face_normal, axis=1)
    assert np.allclose(norms, 1.0)


def test_label_length_mismatch():
    with pytest.raises(MeshError):
        TriangleMesh(vertices=np.eye(3), faces=np.array([[0, 1, 2]]),
                     face_label=np.array([1, 2]))


def test_total_area_and_bbox():
    m = grid_mesh(4, 2, dx=0.5)
    assert m.total_area() == pytest.approx(4 * 2 * 0.25)
    lo, hi = m.bounding_box()
    assert np.allclose(lo, [0, 0, 0])
    assert np.allclose(hi, [2.0, 1.0, 0])
    assert m.bbox_diagonal() == pytest.approx(np.sqrt(5.0))


def test_copy_is_deep():
    m = two_triangle_strip()
    m.face_label = np.array([1, 2], dtype=np.int32)
    c = m.copy()
    c.vertices[0, 0] = 99.0
    c.face_label[0] = 7
    assert m.vertices[0, 0] == 0.0
    assert m.face_label[0] == 1
