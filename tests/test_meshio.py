import numpy as np
import pytest

from pssmesh.meshio import load_mesh, save_mesh, MeshParseError
from pssmesh.adjacency import build_adjacency
from pssmesh.mesh import TriangleMesh

from conftest import grid_mesh


SINGLE_TRI_PLY = """ply
format ascii 1.0
element vertex 3
property double x
property double y
property double z
element face 1
property list uchar int vertex_indices
property int label
end_header
0 0 0
1 0 0
0 1 0
3 0 1 2 3
"""


def test_ascii_single_triangle_with_label(tmp_path):
    p = tmp_path / "tri.ply"
    p.write_text(SINGLE_TRI_PLY)
    m = load_mesh(p)
    assert m.n_faces == 1
    assert m.face_label.tolist() == [3]
    assert np.allclose(m.vertices[1], [1, 0, 0])


def test_out_of_range_face_index(tmp_path):
    p = tmp_path / "bad.ply"
    p.write_text(SINGLE_TRI_PLY.replace("3 0 1 2 3", "3 0 1 7 3"))
    with pytest.raises(MeshParseError, match="index out of range"):
        load_mesh(p)


def test_truncated_payload(tmp_path):
    p = tmp_path / "trunc.ply"
    lines = SINGLE_TRI_PLY.strip().splitlines()
    p.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(MeshParseError, match="line|byte"):
        load_mesh(p)


def test_bad_header_keyword(tmp_path):
    p = tmp_path / "bad.ply"
    p.write_text("ply\nformat ascii 1.0\nbogus 3\nend_header\n")
    with pytest.raises(MeshParseError, match="line 3"):
        load_mesh(p)


def test_binary_two_faces_adjacent(tmp_path):
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    faces = np.array([[0, 1, 2], [1, 3, 2]], dtype=np.int32)
    m = TriangleMesh(vertices=verts, faces=faces)
    p = tmp_path / "two.ply"
    save_mesh(m, p, binary=True)
    m2 = load_mesh(p)
    adj = build_adjacency(m2)
    assert adj.face_neighbors(0).tolist() == [1]
    assert adj.face_neighbors(1).tolist() == [0]


@pytest.mark.parametrize("binary", [False, True])
def test_round_trip_full(tmp_path, binary):
    rng = np.random.default_rng(0)
    m = grid_mesh(8, 8, dx=0.5)
    m.face_label = rng.integers(-1, 5, m.n_faces).astype(np.int32)
    m.face_color = rng.integers(0, 256, (m.n_faces, 3)).astype(np.uint8)
    m.vertex_color = rng.integers(0, 256, (m.n_vertices, 3)).astype(np.uint8)
    m.vertices += rng.standard_normal(m.vertices.shape) * 0.01
    p = tmp_path / "rt.ply"
    save_mesh(m, p, binary=binary)
    m2 = load_mesh(p)
    assert np.array_equal(m.faces, m2.faces)
    assert np.array_equal(m.face_label, m2.face_label)
    assert np.array_equal(m.face_color, m2.face_color)
    assert np.array_equal(m.vertex_color, m2.vertex_color)
    if binary:
        assert np.array_equal(m.vertices, m2.vertices)   # bit-exact
    else:
        assert np.allclose(m.vertices, m2.vertices, rtol=0, atol=0)


def test_round_trip_extra_face_props(tmp_path):
    m = grid_mesh(2, 2)
    m.extra_face_props["segment_id"] = np.arange(m.n_faces, dtype=np.int32)
    m.extra_face_props["segment_type"] = np.zeros(m.n_faces, dtype=np.uint8)
    p = tmp_path / "seg.ply"
    save_mesh(m, p, binary=True)
    m2 = load_mesh(p)
    assert np.array_equal(m2.extra_face_props["segment_id"], m.extra_face_props["segment_id"])
    assert m2.extra_face_props["segment_type"].dtype == np.uint8


def test_no_label_omits_property(tmp_path):
    m = grid_mesh(1, 1)
    p = tmp_path / "nolabel.ply"
    save_mesh(m, p, binary=False)
    text = p.read_text()
    assert "label" not in text
    assert load_mesh(p).face_label is None


def test_large_label_round_trip(tmp_path):
    m = grid_mesh(70, 70)   # 9800 faces
    rng = np.random.default_rng(3)
    m.face_label = rng.integers(-1, 12, m.n_faces).astype(np.int32)
    p = tmp_path / "big.ply"
    save_mesh(m, p, binary=True)
    assert np.array_equal(load_mesh(p).face_label, m.face_label)


def test_ascii_round_trip_exact_repr(tmp_path):
    # repr() emission keeps doubles exact through ascii too
    m = TriangleMesh(
        vertices=np.array([[0.1, 0.2, 0.30000000000000004],
                           [1, 0, 0], [0, 1, 0]]),
        faces=np.array([[0, 1, 2]], dtype=np.int32))
    p = tmp_path / "a.ply"
    save_mesh(m, p, binary=False)
    m2 = load_mesh(p)
    assert np.array_equal(m.vertices, m2.vertices)


def test_obj_reader(tmp_path):
    p = tmp_path / "m.obj"
    p.write_text("# comment\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    m = load_mesh(p)
    assert m.n_vertices == 3 and m.n_faces == 1
    assert m.faces.tolist() == [[0, 1, 2]]


def test_obj_rejects_quads(tmp_path):
    p = tmp_path / "q.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(MeshParseError, match="line 5"):
        load_mesh(p)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_mesh("/nonexistent/mesh.ply")


def test_non_finite_vertex_rejected(tmp_path):
    p = tmp_path / "nan.ply"
    p.write_text(SINGLE_TRI_PLY.replace("1 0 0", "nan 0 0"))
    with pytest.raises(MeshParseError, match="vertex 1: non-finite"):
        load_mesh(p)


def test_unsupported_extension_is_parse_error(tmp_path):
    p = tmp_path / "tri.stl"
    p.write_text("solid tri\nendsolid tri\n")
    with pytest.raises(MeshParseError, match="unsupported mesh format 'stl'"):
        load_mesh(p)


def test_parse_error_names_file(tmp_path):
    p = tmp_path / "short.ply"
    p.write_text("ply\nformat ascii 1.0\n")
    with pytest.raises(MeshParseError) as exc:
        load_mesh(p)
    assert str(exc.value) == f"{p}: unexpected end of file inside PLY header"
