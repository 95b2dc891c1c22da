"""PLY (ascii + binary little-endian) reader/writer and OBJ reader.

PLY layout used by the writer:

    element vertex: double x,y,z [+ uchar red,green,blue]
    element face:   list uchar int vertex_indices [+ uchar red,green,blue]
                    [+ int label] [+ one scalar property per extra face prop]

``label`` is a signed 32-bit semantic class id (-1 = unlabeled). Any other
scalar face property round-trips through ``TriangleMesh.extra_face_props``.
Binary round-trips are bit-exact because vertices are stored as doubles.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .mesh import TriangleMesh


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

_TYPE_NAMES = {
    np.dtype(np.int8): "char", np.dtype(np.uint8): "uchar",
    np.dtype(np.int16): "short", np.dtype(np.uint16): "ushort",
    np.dtype(np.int32): "int", np.dtype(np.uint32): "uint",
    np.dtype(np.float32): "float", np.dtype(np.float64): "double",
}


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
                elements.append(_Element(tok[1], int(tok[2])))
            except ValueError:
                raise MeshParseError(f"line {ln}: bad element count {tok[2]!r}") from None
        elif tok[0] == "property":
            if not elements:
                raise MeshParseError(f"line {ln}: property before any element")
            if tok[1] == "list":
                if len(tok) != 5 or tok[2] not in _PLY_TYPES or tok[3] not in _PLY_TYPES:
                    raise MeshParseError(f"line {ln}: malformed list property")
                elements[-1].properties.append(
                    _Property(tok[4], _PLY_TYPES[tok[3]], is_list=True, count_dtype=_PLY_TYPES[tok[2]]))
            else:
                if len(tok) != 3 or tok[1] not in _PLY_TYPES:
                    raise MeshParseError(f"line {ln}: malformed property")
                elements[-1].properties.append(_Property(tok[2], _PLY_TYPES[tok[1]]))
        elif tok[0] == "end_header":
            if fmt is None:
                raise MeshParseError(f"line {ln}: end_header before format line")
            return fmt, elements, ln
        else:
            raise MeshParseError(f"line {ln}: unknown header keyword {tok[0]!r}")
    raise MeshParseError("unexpected end of file inside PLY header")


def _read_ascii_element(lines, start_line, element):
    """Returns (columns dict, list columns dict, next line index)."""
    scalars = {p.name: [] for p in element.properties if not p.is_list}
    lists = {p.name: [] for p in element.properties if p.is_list}
    li = start_line
    for i in range(element.count):
        if li >= len(lines):
            raise MeshParseError(f"line {li + 1}: truncated payload, "
                                 f"expected {element.count} '{element.name}' rows")
        tok = lines[li].split()
        pos = 0
        for p in element.properties:
            try:
                if p.is_list:
                    n = int(tok[pos]); pos += 1
                    vals = [float(t) if p.dtype.kind == "f" else int(t) for t in tok[pos:pos + n]]
                    if len(vals) != n:
                        raise IndexError
                    pos += n
                    lists[p.name].append(vals)
                else:
                    t = tok[pos]; pos += 1
                    scalars[p.name].append(float(t) if p.dtype.kind == "f" else int(t))
            except (IndexError, ValueError):
                raise MeshParseError(
                    f"line {li + 1}: malformed '{element.name}' row "
                    f"(property {p.name!r})") from None
        li += 1
    return scalars, lists, li


def _read_binary_element(buf, offset, element):
    scalars = {}
    lists = {p.name: [] for p in element.properties if p.is_list}
    props = element.properties
    if not any(p.is_list for p in props):
        rec = np.dtype([(p.name, p.dtype.newbyteorder("<")) for p in props])
        need = rec.itemsize * element.count
        if offset + need > len(buf):
            raise MeshParseError(f"byte {len(buf)}: truncated payload, element "
                                 f"'{element.name}' needs {need} bytes at byte {offset}")
        arr = np.frombuffer(buf, dtype=rec, count=element.count, offset=offset)
        for p in props:
            scalars[p.name] = np.asarray(arr[p.name])
        return scalars, lists, offset + need

    # Fast path: single fixed-count list (triangles) with scalar trailers.
    list_props = [p for p in props if p.is_list]
    if len(list_props) == 1 and element.count > 0:
        lp = list_props[0]
        first = np.frombuffer(buf, dtype=lp.count_dtype.newbyteorder("<"), count=1, offset=offset)
        if first.size and int(first[0]) == 3 and props[0] is lp:
            fields = [("_n", lp.count_dtype.newbyteorder("<")),
                      ("_v", lp.dtype.newbyteorder("<"), (3,))]
            fields += [(p.name, p.dtype.newbyteorder("<")) for p in props[1:]]
            rec = np.dtype(fields)
            need = rec.itemsize * element.count
            if offset + need <= len(buf):
                arr = np.frombuffer(buf, dtype=rec, count=element.count, offset=offset)
                if (arr["_n"] == 3).all():
                    lists[lp.name] = np.asarray(arr["_v"])
                    for p in props[1:]:
                        scalars[p.name] = np.asarray(arr[p.name])
                    return scalars, lists, offset + need

    # General sequential path.
    scalars = {p.name: [] for p in props if not p.is_list}
    pos = offset
    for i in range(element.count):
        for p in props:
            if p.is_list:
                csz = p.count_dtype.itemsize
                if pos + csz > len(buf):
                    raise MeshParseError(f"byte {pos}: truncated list count in '{element.name}' row {i}")
                n = int(np.frombuffer(buf, dtype=p.count_dtype.newbyteorder("<"), count=1, offset=pos)[0])
                pos += csz
                vsz = p.dtype.itemsize * n
                if pos + vsz > len(buf):
                    raise MeshParseError(f"byte {pos}: truncated list payload in '{element.name}' row {i}")
                lists[p.name].append(np.frombuffer(buf, dtype=p.dtype.newbyteorder("<"), count=n, offset=pos))
                pos += vsz
            else:
                sz = p.dtype.itemsize
                if pos + sz > len(buf):
                    raise MeshParseError(f"byte {pos}: truncated '{element.name}' row {i}")
                scalars[p.name].append(np.frombuffer(buf, dtype=p.dtype.newbyteorder("<"), count=1, offset=pos)[0])
                pos += sz
    scalars = {k: np.asarray(v) for k, v in scalars.items()}
    return scalars, lists, pos


def _mesh_from_ply(fmt, elements, payload):
    vertex_el = next((e for e in elements if e.name == "vertex"), None)
    face_el = next((e for e in elements if e.name == "face"), None)
    if vertex_el is None:
        raise MeshParseError("PLY has no 'vertex' element")

    data = {}
    if fmt == "ascii":
        lines = payload
        li = 0
        for el in elements:
            scalars, lists, li = _read_ascii_element(lines, li, el)
            data[el.name] = ({k: np.asarray(v) for k, v in scalars.items()}, lists)
    else:
        buf = payload
        off = 0
        for el in elements:
            scalars, lists, off = _read_binary_element(buf, off, el)
            data[el.name] = (scalars, lists)
        if off != len(buf):
            # trailing garbage is tolerated only if whitespace
            if buf[off:].strip():
                raise MeshParseError(f"byte {off}: {len(buf) - off} unexpected trailing bytes")

    vs, _ = data["vertex"]
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

    fs, fl = data["face"]
    idx_name = next((p.name for p in face_el.properties
                     if p.is_list and p.name in ("vertex_indices", "vertex_index")), None)
    if idx_name is None:
        raise MeshParseError("face element lacks a vertex_indices list property")
    rows = fl[idx_name]
    if isinstance(rows, np.ndarray):
        faces = rows.astype(np.int64)
    else:
        for i, r in enumerate(rows):
            if len(r) != 3:
                raise MeshParseError(f"face {i}: expected 3 vertices, got {len(r)}")
        faces = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    if faces.size and (faces.min() < 0 or faces.max() >= len(verts)):
        bad = int(np.argmax((faces < 0).any(axis=1) | (faces >= len(verts)).any(axis=1)))
        raise MeshParseError(f"face {bad}: vertex index out of range (V={len(verts)})")

    face_color = None
    if all(c in fs for c in ("red", "green", "blue")):
        face_color = np.column_stack([fs["red"], fs["green"], fs["blue"]]).astype(np.uint8)
    face_label = fs["label"].astype(np.int32) if "label" in fs else None

    known = {"red", "green", "blue", "label"}
    extra = {}
    for p in face_el.properties:
        if p.is_list or p.name in known:
            continue
        extra[p.name] = np.asarray(fs[p.name])

    return TriangleMesh(vertices=verts, faces=faces.astype(np.int32),
                        face_color=face_color, vertex_color=vertex_color,
                        face_label=face_label, extra_face_props=extra)


def _load_ply(path: Path) -> TriangleMesh:
    raw = path.read_bytes()
    end = raw.find(b"end_header")
    if end < 0:
        raise MeshParseError("unexpected end of file inside PLY header")
    nl = raw.find(b"\n", end)
    if nl < 0:
        raise MeshParseError(f"byte {len(raw)}: missing newline after end_header")
    header_text = raw[:nl].decode("ascii", errors="replace")
    fmt, elements, _ = _parse_ply_header(header_text.splitlines())
    body = raw[nl + 1:]
    if fmt == "ascii":
        lines = [ln for ln in body.decode("ascii", errors="replace").splitlines()
                 if ln.strip()]
        return _mesh_from_ply(fmt, elements, lines)
    return _mesh_from_ply(fmt, elements, body)


def _load_obj(path: Path) -> TriangleMesh:
    verts = []
    faces = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for ln, raw in enumerate(fh, start=1):
            tok = raw.split()
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
    v = np.asarray(verts, dtype=np.float64).reshape(-1, 3)
    f = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if f.size and (f.min() < 0 or f.max() >= len(v)):
        bad = int(np.argmax((f < 0).any(axis=1) | (f >= len(v)).any(axis=1)))
        raise MeshParseError(f"face {bad}: vertex index out of range (V={len(v)})")
    return TriangleMesh(vertices=v, faces=f.astype(np.int32))


def load_mesh(path, format=None) -> TriangleMesh:
    """Load a PLY (ascii or binary little-endian) or OBJ triangle mesh.

    ``format`` defaults to the file extension. Per-face ``label`` and
    ``red/green/blue`` PLY properties map to ``face_label``/``face_color``.
    Bad input, non-finite vertex coordinates included, raises
    MeshParseError with the path in front of the message.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"mesh file not found: {path}")
    fmt = (format or path.suffix.lstrip(".")).lower()
    try:
        if fmt == "ply":
            mesh = _load_ply(path)
        elif fmt == "obj":
            mesh = _load_obj(path)
        else:
            raise MeshParseError(
                f"unsupported mesh format {fmt!r} (expected ply or obj)")
        bad = ~np.isfinite(mesh.vertices).all(axis=1)
        if bad.any():
            raise MeshParseError(
                f"vertex {int(np.argmax(bad))}: non-finite coordinate")
    except MeshParseError as exc:
        raise MeshParseError(f"{path}: {exc}") from None
    return mesh


def _ascii_scalar(v, dtype):
    if np.dtype(dtype).kind == "f":
        return repr(float(v))
    return str(int(v))


def save_mesh(mesh: TriangleMesh, path, format="ply", binary=True):
    """Write a mesh as PLY; ``load_mesh(save_mesh(m))`` reproduces the content.

    Colors/labels/extra face properties are emitted only when present.
    """
    if format != "ply":
        raise ValueError("only PLY output is supported")
    path = Path(path)

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
              f"format {'binary_little_endian' if binary else 'ascii'} 1.0",
              f"element vertex {mesh.n_vertices}",
              "property double x", "property double y", "property double z"]
    if mesh.vertex_color is not None:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    header += [f"element face {mesh.n_faces}",
               "property list uchar int vertex_indices"]
    for name, dt, _ in face_props:
        header.append(f"property {_TYPE_NAMES[np.dtype(dt)]} {name}")
    header.append("end_header")

    if binary:
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
    else:
        lines = list(header)
        for i in range(mesh.n_vertices):
            row = [repr(float(c)) for c in mesh.vertices[i]]
            if mesh.vertex_color is not None:
                row += [str(int(c)) for c in mesh.vertex_color[i]]
            lines.append(" ".join(row))
        for i in range(mesh.n_faces):
            row = ["3"] + [str(int(v)) for v in mesh.faces[i]]
            for name, dt, col in face_props:
                row.append(_ascii_scalar(col[i], dt))
            lines.append(" ".join(row))
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
