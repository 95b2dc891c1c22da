"""Triangle mesh value with derived per-face geometry."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class MeshError(ValueError):
    """Raised for structurally invalid mesh data."""


@dataclass
class TriangleMesh:
    """Indexed triangle surface with optional per-face color and semantic label.

    Positions are in meters. ``face_label`` uses -1 for unlabeled faces.
    A mesh is a value: no stage writes one of its arrays in place, and a
    changed mesh is a new one, ``dataclasses.replace(mesh, vertices=...)``,
    which shares the arrays it does not replace. Face areas, centroids and
    normals are computed on first access and cached for the mesh's life, so
    assigning to ``vertices`` or ``faces`` of a mesh whose geometry was
    read leaves that geometry stale. Degenerate (zero-area) faces are kept
    but flagged; their normal is the zero vector.
    """

    vertices: np.ndarray                       # (V, 3) float64
    faces: np.ndarray                          # (F, 3) int32
    face_color: np.ndarray | None = None       # (F, 3) uint8
    vertex_color: np.ndarray | None = None     # (V, 3) uint8
    face_label: np.ndarray | None = None       # (F,) int32, -1 = unlabeled
    extra_face_props: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        if self.face_color is not None:
            self.face_color = np.asarray(self.face_color, dtype=np.uint8).reshape(-1, 3)
        if self.vertex_color is not None:
            self.vertex_color = np.asarray(self.vertex_color, dtype=np.uint8).reshape(-1, 3)
        # check indices and labels as given: the int32 cast wraps or truncates
        if self.face_label is not None:
            self.face_label = np.asarray(self.face_label).reshape(-1)
        self.faces = np.asarray(self.faces).reshape(-1, 3)
        self.validate()
        self.faces = self.faces.astype(np.int32, copy=False)
        if self.face_label is not None:
            self.face_label = self.face_label.astype(np.int32, copy=False)

    def validate(self):
        nv = len(self.vertices)
        f = self.faces
        if f.size:
            if f.min() < 0 or f.max() >= nv:
                bad = int(np.argmax((f < 0).any(axis=1) | (f >= nv).any(axis=1)))
                raise MeshError(f"face {bad}: vertex index out of range (V={nv})")
            # Faces with repeated indices (e.g. collapsed by vertex welding)
            # are legal: they have zero area and show up in degenerate_faces.
        if self.face_label is not None:
            label = self.face_label
            if len(label) != len(f):
                raise MeshError("face_label length does not match face count")
            if label.dtype.kind == "f":
                whole = np.isfinite(label) & (label == np.floor(label))
                if not whole.all():
                    bad = int(np.argmin(whole))
                    raise MeshError(f"face {bad}: label {label[bad]} is not "
                                    f"an integer")
            i32 = np.iinfo(np.int32)
            if label.size and (label.min() < i32.min or label.max() > i32.max):
                bad = int(np.argmax((label < i32.min) | (label > i32.max)))
                raise MeshError(f"face {bad}: label {label[bad]} outside the "
                                f"int32 range")
        if self.face_color is not None and len(self.face_color) != len(f):
            raise MeshError("face_color length does not match face count")
        if self.vertex_color is not None and len(self.vertex_color) != nv:
            raise MeshError("vertex_color length does not match vertex count")

    def check_usable(self):
        """Reject a mesh no stage can use: a non-finite vertex or no faces.

        ``validate`` allows both. ``load_mesh``, ``run_pipeline`` and
        ``train_models`` call this before they write anything.
        """
        bad = ~np.isfinite(self.vertices).all(axis=1)
        if bad.any():
            raise MeshError(
                f"vertex {int(np.argmax(bad))}: non-finite coordinate")
        if self.n_faces == 0:
            raise MeshError("no faces")

    @property
    def has_ground_truth(self) -> bool:
        """A label column with at least one label >= 0 (-1 is unlabeled)."""
        return self.face_label is not None and bool((self.face_label >= 0).any())

    # -- derived geometry --------------------------------------------------

    @cached_property
    def _area_and_normal(self) -> tuple[np.ndarray, np.ndarray]:
        tri = self.vertices[self.faces]                      # (F, 3, 3)
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        norm = np.linalg.norm(cross, axis=1)
        normals = np.zeros_like(cross)
        ok = norm > 0
        normals[ok] = cross[ok] / norm[ok, None]
        return 0.5 * norm, normals

    @cached_property
    def face_area(self) -> np.ndarray:
        return self._area_and_normal[0]

    @cached_property
    def face_centroid(self) -> np.ndarray:
        return self.vertices[self.faces].mean(axis=1)

    @cached_property
    def face_normal(self) -> np.ndarray:
        """Unit normals from stored winding; zero vector for degenerate faces."""
        return self._area_and_normal[1]

    @cached_property
    def face_area_normal(self) -> np.ndarray:
        """``face_area[:, None] * face_normal``: area-weighted normals."""
        return self.face_area[:, None] * self.face_normal

    @property
    def degenerate_faces(self) -> np.ndarray:
        """Boolean mask of zero-area faces (kept in the mesh, flagged here)."""
        return self.face_area == 0.0

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)
