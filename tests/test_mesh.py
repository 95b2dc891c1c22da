from dataclasses import replace

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


def test_face_area_sum():
    m = grid_mesh(4, 2, dx=0.5)
    assert m.face_area.sum() == 4 * 2 * 0.25


GEOMETRY = ("face_area", "face_centroid", "face_normal", "face_area_normal")


def test_replace_reports_new_geometry_and_keeps_old():
    # geometry is cached per mesh, so a moved mesh is a new mesh: reading
    # the old one first must neither leak into the new one nor change
    m = two_triangle_strip()
    old = {name: getattr(m, name).copy() for name in GEOMETRY}
    # stand the strip up in the x-z plane, twice as large, shifted
    moved = m.vertices[:, [0, 2, 1]] * 2.0 + [5.0, 0.0, 1.0]
    m2 = replace(m, vertices=moved)
    fresh = TriangleMesh(vertices=moved, faces=m.faces)
    for name in GEOMETRY:
        assert np.array_equal(getattr(m2, name), getattr(fresh, name)), name
        assert not np.array_equal(getattr(m2, name), old[name]), name
        assert np.array_equal(getattr(m, name), old[name]), name
    assert np.shares_memory(m2.faces, m.faces)


def test_face_index_checked_before_int32_cast():
    # 2**32 + 1 wraps to 1 in int32; the check sees the index as given
    faces = np.array([[0, 1, 2**32 + 1]], dtype=np.int64)
    with pytest.raises(MeshError, match="face 0: vertex index out of range"):
        TriangleMesh(vertices=np.zeros((3, 3)), faces=faces)


@pytest.mark.parametrize("label", [2**32 + 3, 2**31, -2**31 - 1],
                         ids=["wraps-to-3", "int32-max-plus-1",
                              "int32-min-minus-1"])
def test_face_label_checked_before_int32_cast(label):
    with pytest.raises(MeshError,
                       match=f"face 1: label {label} outside the int32 range"):
        TriangleMesh(vertices=np.zeros((3, 3)),
                     faces=np.array([[0, 1, 2], [0, 1, 2]]),
                     face_label=np.array([0, label], dtype=np.int64))


@pytest.mark.parametrize("label", [0.5, np.nan, np.inf],
                         ids=["fraction", "nan", "inf"])
def test_float_face_label_must_be_integral(label):
    with pytest.raises(MeshError, match=f"face 1: label {label} is not an "
                                        f"integer"):
        TriangleMesh(vertices=np.zeros((3, 3)),
                     faces=np.array([[0, 1, 2], [0, 1, 2]]),
                     face_label=[2.0, label])


def test_integral_float_face_labels_kept():
    m = TriangleMesh(vertices=np.zeros((3, 3)),
                     faces=np.array([[0, 1, 2], [0, 1, 2]]),
                     face_label=[2.0, -1.0])
    assert m.face_label.dtype == np.int32
    assert m.face_label.tolist() == [2, -1]


def test_face_label_int32_extremes_kept():
    m = TriangleMesh(vertices=np.zeros((3, 3)),
                     faces=np.array([[0, 1, 2], [0, 1, 2]]),
                     face_label=np.array([2**31 - 1, -2**31], dtype=np.int64))
    assert m.face_label.dtype == np.int32
    assert m.face_label.tolist() == [2**31 - 1, -2**31]
