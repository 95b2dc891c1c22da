"""PLY reader (ascii and binary little-endian), PLY writer and OBJ reader.

The writer writes binary little-endian PLY in this layout:

    element vertex: double x,y,z [+ uchar red,green,blue]
    element face:   list uchar int vertex_indices [+ uchar red,green,blue]
                    [+ int label] [+ one scalar property per extra face prop]

``label`` is a signed 32-bit semantic class id (-1 = unlabeled). Any other
scalar face property round-trips through ``TriangleMesh.extra_face_props``.
Binary round-trips are bit-exact because vertices are stored as doubles.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path

import numpy as np

from .config import read_bytes
from .mesh import MeshError, TriangleMesh


class MeshParseError(ValueError):
    """Malformed mesh file; message carries a line number or byte offset."""


_PLY_TYPES = {
    "char": np.int8, "int8": np.int8,
    "uchar": np.uint8, "uint8": np.uint8,
    "short": np.int16, "int16": np.int16,
    "ushort": np.uint16, "uint16": np.uint16,
    "int": np.int32, "int32": np.int32,
    "uint": np.uint32, "uint32": np.uint32,
    "float": np.float32, "float32": np.float32,
    "double": np.float64, "float64": np.float64,
}

# PLY type -> its short name, which the writer uses
_TYPE_NAMES = {np.dtype(t): name for name, t in _PLY_TYPES.items()
               if not name[-1].isdigit()}


class _Property:
    def __init__(self, name, dtype, is_list=False, count_dtype=None):
        self.name = name
        self.dtype = np.dtype(dtype)
        self.is_list = is_list
        self.count_dtype = None if count_dtype is None else np.dtype(count_dtype)


class _Element:
    def __init__(self, name, count):
        self.name = name
        self.count = count
        self.properties: list[_Property] = []


def _parse_ply_header(lines):
    """Parse header text lines (already split, 'ply' first) into elements."""
    if not lines or lines[0].strip() != "ply":
        raise MeshParseError("line 1: not a PLY file (missing 'ply' magic)")
    fmt = None
    elements = []
    for ln, raw in enumerate(lines[1:], start=2):
        tok = raw.strip().split()
        if not tok or tok[0] == "comment" or tok[0] == "obj_info":
            continue
        if tok[0] == "format":
            if len(tok) < 2 or tok[1] not in ("ascii", "binary_little_endian"):
                raise MeshParseError(f"line {ln}: unsupported PLY format {tok[1:] or '?'}")
            fmt = tok[1]
        elif tok[0] == "element":
            if len(tok) != 3:
                raise MeshParseError(f"line {ln}: malformed element declaration")
            try:
                count = int(tok[2])
            except ValueError:
                raise MeshParseError(f"line {ln}: bad element count {tok[2]!r}") from None
            if count < 0:
                raise MeshParseError(f"line {ln}: negative element count {count}")
            elements.append(_Element(tok[1], count))
        elif tok[0] == "property":
            if not elements:
                raise MeshParseError(f"line {ln}: property before any element")
            if tok[1:2] == ["list"]:
                if len(tok) != 5 or tok[2] not in _PLY_TYPES or tok[3] not in _PLY_TYPES:
                    raise MeshParseError(f"line {ln}: malformed list property")
                prop = _Property(tok[4], _PLY_TYPES[tok[3]], is_list=True,
                                 count_dtype=_PLY_TYPES[tok[2]])
            else:
                if len(tok) != 3 or tok[1] not in _PLY_TYPES:
                    raise MeshParseError(f"line {ln}: malformed property")
                prop = _Property(tok[2], _PLY_TYPES[tok[1]])
            if any(p.name == prop.name for p in elements[-1].properties):
                raise MeshParseError(f"line {ln}: repeated property {prop.name!r} "
                                     f"in element {elements[-1].name!r}")
            elements[-1].properties.append(prop)
        elif tok[0] == "end_header":
            if fmt is None:
                raise MeshParseError(f"line {ln}: end_header before format line")
            return fmt, elements, ln
        else:
            raise MeshParseError(f"line {ln}: unknown header keyword {tok[0]!r}")
    raise MeshParseError("unexpected end of file inside PLY header")


class _TextCursor:
    """ASCII payload: each row is one non-empty line, read token by token;
    an integer in its declared type, a float as float64. A row must hold
    exactly its properties' values."""

    def __init__(self, text, first_line):
        lines = text.splitlines()
        self.rows = iter([(ln, line.split()) for ln, line
                          in enumerate(lines, start=first_line) if line.strip()])
        self.end_line = first_line + len(lines)

    def row(self, element, i):
        self.line, self.tokens = next(self.rows, (self.end_line, None))
        if self.tokens is None:
            raise MeshParseError(f"line {self.line}: truncated payload, "
                                 f"expected {element.count} '{element.name}' rows")
        self.pos, self.element = 0, element

    def end_row(self):
        if self.pos != len(self.tokens):
            raise MeshParseError(
                f"line {self.line}: malformed '{self.element.name}' row "
                f"(values after its last property)")

    def take(self, prop, dtype, n):
        tokens = self.tokens[self.pos:self.pos + n]
        self.pos += n
        try:
            if n < 0 or len(tokens) != n:
                raise ValueError
            if dtype.kind == "f":
                return np.array([float(t) for t in tokens])
            values = [int(t) for t in tokens]
            info = np.iinfo(dtype)
            if not all(info.min <= v <= info.max for v in values):
                raise ValueError
            return np.array(values, dtype=dtype)
        except ValueError:
            raise MeshParseError(
                f"line {self.line}: malformed '{self.element.name}' row "
                f"(property {prop.name!r})") from None


class _ByteCursor:
    """Binary little-endian payload, read from a byte offset onwards."""

    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def row(self, element, i):
        self.element, self.i = element, i

    def end_row(self):
        pass                        # a binary row has no end of its own

    def take(self, prop, dtype, n):
        end = self.pos + dtype.itemsize * n
        if not self.pos <= end <= len(self.buf):      # n < 0 or past the end
            raise MeshParseError(f"byte {self.pos}: truncated or malformed "
                                 f"'{self.element.name}' row {self.i} "
                                 f"(property {prop.name!r})")
        out = np.frombuffer(self.buf, dtype=dtype.newbyteorder("<"), count=n,
                            offset=self.pos)
        self.pos = end
        return out


def _walk_rows(cursor, element, n_rows):
    """Read ``n_rows`` rows of ``element`` from ``cursor`` one by one.

    Returns {property name: column}: one array of a scalar property's
    values, one array per row for a list property.
    """
    cols = {p.name: [] for p in element.properties}
    for i in range(n_rows):
        cursor.row(element, i)
        for p in element.properties:
            n = int(cursor.take(p, p.count_dtype, 1)[0]) if p.is_list else 1
            cols[p.name].append(cursor.take(p, p.dtype, n))
        cursor.end_row()
    # the empty array gives the column's type when there are no rows
    return {p.name: cols[p.name] if p.is_list
            else np.concatenate([np.zeros(0, p.dtype), *cols[p.name]])
            for p in element.properties}


def _read_records(cursor, element):
    """Columns of a binary element, read as one structured array.

    Each list property takes its length from the element's first row; a
    list column is then one (rows, length) array. When a later row's list
    length differs, ``_walk_rows`` reads the element instead.
    """
    start = cursor.pos
    first = _walk_rows(cursor, element, min(element.count, 1))
    cursor.pos = start
    fields = []
    for p in element.properties:
        dtype = p.dtype.newbyteorder("<")
        if p.is_list:
            n = len(first[p.name][0]) if element.count else 0
            # property names hold no spaces, so this name is free
            fields += [(p.name + " n", p.count_dtype.newbyteorder("<")),
                       (p.name, dtype, (n,))]
        else:
            fields.append((p.name, dtype))
    rec = np.dtype(fields)
    end = start + rec.itemsize * element.count
    if end <= len(cursor.buf):
        arr = np.frombuffer(cursor.buf, dtype=rec, count=element.count,
                            offset=start)
        if all((arr[p.name + " n"] == rec[p.name].shape[0]).all()
               for p in element.properties if p.is_list):
            cursor.pos = end
            return {p.name: np.asarray(arr[p.name]) for p in element.properties}
    return _walk_rows(cursor, element, element.count)


def _mesh_from_ply(elements, data):
    face_el = next((e for e in elements if e.name == "face"), None)
    if "vertex" not in data:
        raise MeshParseError("PLY has no 'vertex' element")

    vs = data["vertex"]
    for c in ("x", "y", "z"):
        if c not in vs:
            raise MeshParseError(f"vertex element lacks property {c!r}")
    verts = np.column_stack([vs["x"], vs["y"], vs["z"]]).astype(np.float64)
    vertex_color = None
    if all(c in vs for c in ("red", "green", "blue")):
        vertex_color = np.column_stack([vs["red"], vs["green"], vs["blue"]]).astype(np.uint8)

    if face_el is None or face_el.count == 0:
        faces = np.zeros((0, 3), dtype=np.int32)
        return TriangleMesh(vertices=verts, faces=faces, vertex_color=vertex_color)

    fs = data["face"]
    idx_name = next((p.name for p in face_el.properties
                     if p.is_list and p.name in ("vertex_indices", "vertex_index")), None)
    if idx_name is None:
        raise MeshParseError("face element lacks a vertex_indices list property")
    rows = fs[idx_name]
    # a record column has every row at the first row's length
    lengths = [len(r) for r in rows] if isinstance(rows, list) else [rows.shape[1]]
    for i, n in enumerate(lengths):
        if n != 3:
            raise MeshParseError(f"face {i}: expected 3 vertices, got {n}")

    face_color = None
    if all(c in fs for c in ("red", "green", "blue")):
        face_color = np.column_stack([fs["red"], fs["green"], fs["blue"]]).astype(np.uint8)
    # a copy in the file's type: TriangleMesh checks its range, then casts
    face_label = np.array(fs["label"]) if "label" in fs else None

    extra = {p.name: np.asarray(fs[p.name]) for p in face_el.properties
             if not p.is_list and p.name not in ("red", "green", "blue", "label")}

    return TriangleMesh(vertices=verts, faces=np.array(rows).reshape(-1, 3),
                        face_color=face_color, vertex_color=vertex_color,
                        face_label=face_label, extra_face_props=extra)


def _load_ply(raw: bytes) -> TriangleMesh:
    end = raw.find(b"end_header")
    if end < 0:
        raise MeshParseError("unexpected end of file inside PLY header")
    nl = raw.find(b"\n", end)
    if nl < 0:
        raise MeshParseError(f"byte {len(raw)}: missing newline after end_header")
    header_text = raw[:nl].decode("ascii", errors="replace")
    fmt, elements, last = _parse_ply_header(header_text.splitlines())
    body = raw[nl + 1:]
    if fmt == "ascii":
        cursor = _TextCursor(body.decode("ascii", errors="replace"), last + 1)
        return _mesh_from_ply(elements, {el.name: _walk_rows(cursor, el, el.count)
                                         for el in elements})
    cursor = _ByteCursor(body)
    data = {el.name: _read_records(cursor, el) for el in elements}
    # trailing garbage is tolerated only if whitespace
    if body[cursor.pos:].strip():
        raise MeshParseError(f"byte {cursor.pos}: {len(body) - cursor.pos} "
                             f"unexpected trailing bytes")
    return _mesh_from_ply(elements, data)


def _load_obj(raw: bytes) -> TriangleMesh:
    verts = []
    faces = []
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8",
                          errors="replace") as fh:
        for ln, line in enumerate(fh, start=1):
            tok = line.split()
            if not tok or tok[0].startswith("#"):
                continue
            if tok[0] == "v":
                if len(tok) < 4:
                    raise MeshParseError(f"line {ln}: malformed vertex")
                try:
                    verts.append([float(tok[1]), float(tok[2]), float(tok[3])])
                except ValueError:
                    raise MeshParseError(f"line {ln}: malformed vertex coordinate") from None
            elif tok[0] == "f":
                if len(tok) != 4:
                    raise MeshParseError(f"line {ln}: only triangular faces are supported "
                                         f"({len(tok) - 1} vertices)")
                row = []
                for t in tok[1:]:
                    base = t.split("/")[0]
                    try:
                        i = int(base)
                    except ValueError:
                        raise MeshParseError(f"line {ln}: malformed face index {t!r}") from None
                    row.append(i - 1 if i > 0 else len(verts) + i)
                faces.append(row)
    return TriangleMesh(vertices=np.asarray(verts, dtype=np.float64),
                        faces=np.asarray(faces, dtype=np.int64))


def load_mesh(path) -> TriangleMesh:
    """Load a PLY (ascii or binary little-endian) or OBJ triangle mesh.

    The file extension picks the format. Per-face ``label`` and
    ``red/green/blue`` PLY properties map to ``face_label``/``face_color``.
    Bad input, non-finite vertex coordinates and a mesh without faces
    included, raises MeshParseError with the path in front of the message;
    a file it cannot read raises as ``config.read_bytes`` says.
    """
    path = Path(path)
    raw = read_bytes(path, "mesh")
    fmt = path.suffix.lstrip(".").lower()
    try:
        if fmt == "ply":
            mesh = _load_ply(raw)
        elif fmt == "obj":
            mesh = _load_obj(raw)
        else:
            raise MeshParseError(
                f"unsupported mesh format {fmt!r} (expected ply or obj)")
        mesh.check_usable()
    except (MeshParseError, MeshError) as exc:
        raise MeshParseError(f"{path}: {exc}") from None
    return mesh


def save_mesh(mesh: TriangleMesh, path):
    """Write a mesh as binary PLY; ``load_mesh`` reads back the same content.

    Colors/labels/extra face properties are emitted only when present. A
    ``path`` whose suffix is not ``.ply`` (in any case) raises ValueError,
    as ``load_mesh`` would read such a file as another format.
    """
    path = Path(path)
    if path.suffix.lower() != ".ply":
        raise ValueError(f"{path}: save_mesh writes binary PLY; the file "
                         f"name must end in .ply")

    face_props = []          # (name, dtype, column)
    if mesh.face_color is not None:
        for i, c in enumerate(("red", "green", "blue")):
            face_props.append((c, np.uint8, mesh.face_color[:, i]))
    if mesh.face_label is not None:
        face_props.append(("label", np.int32, mesh.face_label))
    for name, col in mesh.extra_face_props.items():
        col = np.asarray(col)
        if np.dtype(col.dtype) not in _TYPE_NAMES:
            col = col.astype(np.int32)
        face_props.append((name, col.dtype, col))

    header = ["ply",
              "format binary_little_endian 1.0",
              f"element vertex {mesh.n_vertices}",
              "property double x", "property double y", "property double z"]
    if mesh.vertex_color is not None:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    header += [f"element face {mesh.n_faces}",
               "property list uchar int vertex_indices"]
    for name, dt, _ in face_props:
        header.append(f"property {_TYPE_NAMES[np.dtype(dt)]} {name}")
    header.append("end_header")

    out = bytearray("\n".join(header).encode("ascii") + b"\n")
    vfields = [("x", "<f8"), ("y", "<f8"), ("z", "<f8")]
    if mesh.vertex_color is not None:
        vfields += [("red", "u1"), ("green", "u1"), ("blue", "u1")]
    vrec = np.zeros(mesh.n_vertices, dtype=np.dtype(vfields))
    vrec["x"], vrec["y"], vrec["z"] = mesh.vertices.T
    if mesh.vertex_color is not None:
        vrec["red"], vrec["green"], vrec["blue"] = mesh.vertex_color.T
    out += vrec.tobytes()
    ffields = [("_n", "u1"), ("_v", "<i4", (3,))]
    ffields += [(name, np.dtype(dt).newbyteorder("<")) for name, dt, _ in face_props]
    frec = np.zeros(mesh.n_faces, dtype=np.dtype(ffields))
    frec["_n"] = 3
    frec["_v"] = mesh.faces
    for name, dt, col in face_props:
        frec[name] = col
    out += frec.tobytes()
    path.write_bytes(bytes(out))
