import re
import struct

import numpy as np
import pytest

from pssmesh import meshio
from pssmesh.meshio import load_mesh, save_mesh, MeshParseError
from pssmesh.adjacency import build_adjacency
from pssmesh.mesh import TriangleMesh

from conftest import grid_mesh, neighbor_list


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
    save_mesh(m, p)
    m2 = load_mesh(p)
    adj = build_adjacency(m2)
    assert neighbor_list(adj, 0).tolist() == [1]
    assert neighbor_list(adj, 1).tolist() == [0]


def test_round_trip_full(tmp_path):
    rng = np.random.default_rng(0)
    m = grid_mesh(8, 8, dx=0.5)
    m.face_label = rng.integers(-1, 5, m.n_faces).astype(np.int32)
    m.face_color = rng.integers(0, 256, (m.n_faces, 3)).astype(np.uint8)
    m.vertex_color = rng.integers(0, 256, (m.n_vertices, 3)).astype(np.uint8)
    m.vertices += rng.standard_normal(m.vertices.shape) * 0.01
    p = tmp_path / "rt.ply"
    save_mesh(m, p)
    m2 = load_mesh(p)
    assert np.array_equal(m.faces, m2.faces)
    assert np.array_equal(m.face_label, m2.face_label)
    # labels are their own int32 array, not a view of the file's records
    assert m2.face_label.dtype == np.int32
    assert m2.face_label.flags.writeable and m2.face_label.flags.c_contiguous
    assert np.array_equal(m.face_color, m2.face_color)
    assert np.array_equal(m.vertex_color, m2.vertex_color)
    assert np.array_equal(m.vertices, m2.vertices)   # bit-exact


ASCII_FULL_PLY = """ply
format ascii 1.0
element vertex 4
property double x
property double y
property double z
property uchar red
property uchar green
property uchar blue
element face 2
property list uchar int vertex_indices
property uchar red
property uchar green
property uchar blue
property int label
end_header
0.1 0.2 0.30000000000000004 255 0 7
1 0 0 1 2 3
0 1 0 4 5 6
1 1 0.5 7 8 9
3 0 1 2 10 20 30 -1
3 1 3 2 40 50 60 4
"""


def test_ascii_full_properties(tmp_path):
    p = tmp_path / "full.ply"
    p.write_text(ASCII_FULL_PLY)
    m = load_mesh(p)
    assert m.faces.tolist() == [[0, 1, 2], [1, 3, 2]]
    assert m.face_label.tolist() == [-1, 4]
    assert m.face_color.tolist() == [[10, 20, 30], [40, 50, 60]]
    assert m.vertex_color.tolist() == [[255, 0, 7], [1, 2, 3], [4, 5, 6],
                                       [7, 8, 9]]
    assert m.vertices.tolist() == [[0.1, 0.2, 0.1 + 0.2], [1, 0, 0],
                                   [0, 1, 0], [1, 1, 0.5]]
    # the binary writer keeps everything the ascii file held
    save_mesh(m, tmp_path / "full_binary.ply")
    m2 = load_mesh(tmp_path / "full_binary.ply")
    for name in ("vertices", "faces", "face_label", "face_color",
                 "vertex_color"):
        assert np.array_equal(getattr(m, name), getattr(m2, name)), name


def test_round_trip_extra_face_props(tmp_path):
    m = grid_mesh(2, 2)
    m.extra_face_props["segment_id"] = np.arange(m.n_faces, dtype=np.int32)
    m.extra_face_props["segment_type"] = np.zeros(m.n_faces, dtype=np.uint8)
    p = tmp_path / "seg.ply"
    save_mesh(m, p)
    m2 = load_mesh(p)
    assert np.array_equal(m2.extra_face_props["segment_id"], m.extra_face_props["segment_id"])
    assert m2.extra_face_props["segment_type"].dtype == np.uint8


def test_save_mesh_writes_ply_names_only(tmp_path):
    m = grid_mesh(1, 1)
    for name in ("tile.obj", "tile.ply.txt", "tile"):
        path = tmp_path / name
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ")):
            save_mesh(m, path)
        assert not path.exists()
    save_mesh(m, tmp_path / "TILE.PLY")
    assert load_mesh(tmp_path / "TILE.PLY").n_faces == 2


def test_no_label_omits_property(tmp_path):
    m = grid_mesh(1, 1)
    p = tmp_path / "nolabel.ply"
    save_mesh(m, p)
    assert b"label" not in p.read_bytes().split(b"end_header")[0]
    assert load_mesh(p).face_label is None
    p.write_text(SINGLE_TRI_PLY.replace("property int label\n", "")
                 .replace("3 0 1 2 3", "3 0 1 2"))
    assert load_mesh(p).face_label is None


def test_large_label_round_trip(tmp_path):
    m = grid_mesh(70, 70)   # 9800 faces
    rng = np.random.default_rng(3)
    m.face_label = rng.integers(-1, 12, m.n_faces).astype(np.int32)
    p = tmp_path / "big.ply"
    save_mesh(m, p)
    assert np.array_equal(load_mesh(p).face_label, m.face_label)


def test_ascii_round_trip_exact_repr(tmp_path):
    # the repr() text of a double reads back as that same double
    p = tmp_path / "a.ply"
    p.write_text(SINGLE_TRI_PLY.replace(
        "0 0 0\n", f"{0.1!r} {0.2!r} {0.1 + 0.2!r}\n", 1))
    assert load_mesh(p).vertices[0].tolist() == [0.1, 0.2, 0.1 + 0.2]


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


# ------------------------------------------------------- header and ASCII


@pytest.mark.parametrize("fmt, lines, message", [
    ("binary_little_endian", ["element vertex -1", "property double x"],
     "line 3: negative element count -1"),
    ("ascii", ["element vertex 3", "property double x", "property double x"],
     "line 5: repeated property 'x' in element 'vertex'"),
    ("ascii", ["element vertex 3", "property"], "line 4: malformed property"),
], ids=["negative-count", "repeated-property", "bare-property"])
def test_malformed_header_names_line(tmp_path, fmt, lines, message):
    p = tmp_path / "bad.ply"
    p.write_text("\n".join(["ply", f"format {fmt} 1.0", *lines,
                            "end_header", ""]))
    with pytest.raises(MeshParseError, match=f"^{p}: {message}$"):
        load_mesh(p)


@pytest.mark.parametrize("old, new, message", [
    ("3 0 1 2 10 20 30 -1", "3 0 1 2 10 20 30 99999999999",
     "line 21: malformed 'face' row (property 'label')"),
    ("1 0 0 1 2 3", "1 0 0 300 2 3",
     "line 18: malformed 'vertex' row (property 'red')"),
    ("1 0 0 1 2 3", "1 0 0 -5 2 3",
     "line 18: malformed 'vertex' row (property 'red')"),
], ids=["int-label", "uchar-300", "uchar-minus-5"])
def test_ascii_integer_outside_its_type_rejected(tmp_path, old, new, message):
    p = tmp_path / "wrap.ply"
    p.write_text(ASCII_FULL_PLY.replace(old, new))
    with pytest.raises(MeshParseError, match=re.escape(message)):
        load_mesh(p)


def test_ascii_columns_keep_declared_type(tmp_path):
    p = tmp_path / "typed.ply"
    p.write_text(SINGLE_TRI_PLY.replace(
        "property int label\n", "property int label\nproperty ushort flag\n"
        "property float weight\n").replace("3 0 1 2 3", "3 0 1 2 3 65535 0.5"))
    m = load_mesh(p)
    assert m.extra_face_props["flag"].dtype == np.uint16
    assert m.extra_face_props["flag"].tolist() == [65535]
    assert m.extra_face_props["weight"].dtype == np.float64


def test_ascii_error_gives_file_line(tmp_path):
    # a 9-line header: the second vertex is file line 11
    text = SINGLE_TRI_PLY.replace("property int label\n", "").replace(
        "3 0 1 2 3", "3 0 1 2")
    p = tmp_path / "line.ply"
    p.write_text(text.replace("1 0 0\n", "1 zero 0\n"))
    with pytest.raises(MeshParseError, match=(
            r"line 11: malformed 'vertex' row \(property 'y'\)")):
        load_mesh(p)
    # blank lines hold no row but still count
    p.write_text(text.replace("1 0 0\n", "\n\n1 zero 0\n"))
    with pytest.raises(MeshParseError, match="line 13: malformed"):
        load_mesh(p)


@pytest.mark.parametrize("old, new, message", [
    ("1 0 0\n", "1 0 0 7 7\n", "line 12: malformed 'vertex' row"),
    ("3 0 1 2 3\n", "3 0 1 2 3 5 5\n", "line 14: malformed 'face' row"),
    ("3 0 1 2 3\n", "3 0 1 2 3 5\n", "line 14: malformed 'face' row"),
], ids=["vertex", "face", "face-one"])
def test_ascii_extra_values_in_row_rejected(tmp_path, old, new, message):
    # a header that omits a property must not drop its column silently
    p = tmp_path / "extra.ply"
    p.write_text(SINGLE_TRI_PLY.replace(old, new))
    with pytest.raises(MeshParseError, match="^" + re.escape(
            f"{p}: {message} (values after its last property)") + "$"):
        load_mesh(p)


# ------------------------------------------------------------ binary rows


VERTS = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
VERTEX_HEADER = ["element vertex 4", "property double x", "property double y",
                 "property double z"]


def binary_ply(path, header, payload):
    """Write a binary PLY whose vertex element holds ``VERTS``."""
    text = "\n".join(["ply", "format binary_little_endian 1.0",
                      *VERTEX_HEADER, *header, "end_header", ""])
    path.write_bytes(text.encode() + VERTS.astype("<f8").tobytes() + payload)
    return path


@pytest.fixture
def walked(monkeypatch):
    """Row counts of every ``_walk_rows`` call; a record read walks its
    first row only."""
    counts = []
    walk = meshio._walk_rows

    def counting(cursor, element, n_rows):
        counts.append((element.name, n_rows))
        return walk(cursor, element, n_rows)

    monkeypatch.setattr(meshio, "_walk_rows", counting)
    return counts


def test_binary_second_face_list_read_as_records(tmp_path, walked):
    header = ["element face 2", "property list uchar int vertex_indices",
              "property list uchar float texcoord", "property int label"]
    uv = [0.0, 0.0, 1.0, 0.0, 0.0, 1.0]
    payload = (struct.pack("<B3iB6fi", 3, 0, 1, 2, 6, *uv, 7)
               + struct.pack("<B3iB6fi", 3, 1, 3, 2, 6, *uv, -1))
    m = load_mesh(binary_ply(tmp_path / "uv.ply", header, payload))
    assert m.faces.tolist() == [[0, 1, 2], [1, 3, 2]]
    assert m.face_label.tolist() == [7, -1]
    assert all(n <= 1 for _, n in walked)


def test_binary_scalar_before_index_list(tmp_path, walked):
    header = ["element face 2", "property uchar flags",
              "property list uchar int vertex_indices"]
    payload = (struct.pack("<BB3i", 5, 3, 0, 1, 2)
               + struct.pack("<BB3i", 6, 3, 1, 3, 2))
    m = load_mesh(binary_ply(tmp_path / "flags.ply", header, payload))
    assert m.faces.tolist() == [[0, 1, 2], [1, 3, 2]]
    assert m.extra_face_props["flags"].tolist() == [5, 6]
    assert m.extra_face_props["flags"].dtype == np.uint8
    assert all(n <= 1 for _, n in walked)


def test_binary_varying_list_lengths_walked(tmp_path, walked):
    header = ["element polyline 2", "property list uchar int ids",
              "element face 1", "property list uchar int vertex_indices"]
    payload = (struct.pack("<B2i", 2, 0, 1) + struct.pack("<B3i", 3, 1, 2, 3)
               + struct.pack("<B3i", 3, 0, 1, 2))
    m = load_mesh(binary_ply(tmp_path / "lines.ply", header, payload))
    assert m.faces.tolist() == [[0, 1, 2]]
    assert ("polyline", 2) in walked
    assert ("face", 1) in walked and ("face", 2) not in walked


def test_binary_quad_rejected(tmp_path):
    header = ["element face 1", "property list uchar int vertex_indices"]
    p = binary_ply(tmp_path / "quad.ply", header,
                   struct.pack("<B4i", 4, 0, 1, 3, 2))
    with pytest.raises(MeshParseError,
                       match="face 0: expected 3 vertices, got 4"):
        load_mesh(p)


def test_binary_cut_inside_face_rows(tmp_path):
    header = ["element face 2", "property list uchar int vertex_indices",
              "property int label"]
    payload = struct.pack("<B3ii", 3, 0, 1, 2, 0) + struct.pack("<B3i", 3, 1, 3, 2)
    p = binary_ply(tmp_path / "cut.ply", header, payload)
    with pytest.raises(MeshParseError,
                       match="byte 126: truncated or malformed 'face' row 1 "
                             r"\(property 'label'\)"):
        load_mesh(p)


def test_binary_uint_label_outside_int32_rejected(tmp_path):
    # 4294967295 wrapped to -1 (unlabeled) in the int32 cast
    header = ["element face 2", "property list uchar int vertex_indices",
              "property uint label"]
    payload = (struct.pack("<B3iI", 3, 0, 1, 2, 2)
               + struct.pack("<B3iI", 3, 1, 3, 2, 4294967295))
    p = binary_ply(tmp_path / "uint.ply", header, payload)
    with pytest.raises(MeshParseError, match=(
            f"^{re.escape(str(p))}: face 1: label 4294967295 outside the "
            f"int32 range$")):
        load_mesh(p)


@pytest.mark.parametrize("value", ["2.7", "nan"])
def test_ascii_float_label_not_integral_rejected(tmp_path, value):
    # 2.7 truncated to 2 and nan became -2147483648 in the int32 cast
    p = tmp_path / "flabel.ply"
    p.write_text(SINGLE_TRI_PLY.replace("property int label",
                                        "property float label")
                 .replace("3 0 1 2 3", f"3 0 1 2 {value}"))
    with pytest.raises(MeshParseError, match=(
            f"^{re.escape(str(p))}: face 0: label {value} is not an "
            f"integer$")):
        load_mesh(p)


def test_ascii_float_label_integral_kept(tmp_path):
    p = tmp_path / "flabel.ply"
    p.write_text(SINGLE_TRI_PLY.replace("property int label",
                                        "property float label")
                 .replace("3 0 1 2 3", "3 0 1 2 2.0"))
    assert load_mesh(p).face_label.tolist() == [2]


def test_binary_trailing_bytes_rejected(tmp_path):
    header = ["element face 1", "property list uchar int vertex_indices"]
    p = binary_ply(tmp_path / "tail.ply", header,
                   struct.pack("<B3i", 3, 0, 1, 2) + b"\x01\x02")
    with pytest.raises(MeshParseError, match="2 unexpected trailing bytes"):
        load_mesh(p)
