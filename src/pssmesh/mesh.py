"""Triangle mesh container with derived per-face caches."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MeshError(ValueError):
    """Raised for structurally invalid mesh data."""


@dataclass
class TriangleMesh:
    """Indexed triangle surface with optional per-face color and semantic label.

    Positions are in meters. ``face_label`` uses -1 for unlabeled faces.
    Derived caches (areas, centroids, normals) are computed lazily on first
    access and invalidated never: meshes are treated as immutable once built.
    Degenerate (zero-area) faces are kept but flagged; their normal is the
    zero vector.
    """

    vertices: np.ndarray                       # (V, 3) float64
    faces: np.ndarray                          # (F, 3) int32
    face_color: np.ndarray | None = None       # (F, 3) uint8
    vertex_color: np.ndarray | None = None     # (V, 3) uint8
    face_label: np.ndarray | None = None       # (F,) int32, -1 = unlabeled
    extra_face_props: dict = field(default_factory=dict)

    _face_area: np.ndarray | None = field(default=None, repr=False)
    _face_centroid: np.ndarray | None = field(default=None, repr=False)
    _face_normal: np.ndarray | None = field(default=None, repr=False)
    _face_area_normal: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int32).reshape(-1, 3)
        if self.face_color is not None:
            self.face_color = np.asarray(self.face_color, dtype=np.uint8).reshape(-1, 3)
        if self.vertex_color is not None:
            self.vertex_color = np.asarray(self.vertex_color, dtype=np.uint8).reshape(-1, 3)
        if self.face_label is not None:
            self.face_label = np.asarray(self.face_label, dtype=np.int32).reshape(-1)
        self.validate()

    def validate(self):
        nv = len(self.vertices)
        f = self.faces
        if f.size:
            if f.min() < 0 or f.max() >= nv:
                bad = int(np.argmax((f < 0).any(axis=1) | (f >= nv).any(axis=1)))
                raise MeshError(f"face {bad}: vertex index out of range (V={nv})")
            # Faces with repeated indices (e.g. collapsed by vertex welding)
            # are legal: they have zero area and show up in degenerate_faces.
        if self.face_label is not None and len(self.face_label) != len(f):
            raise MeshError("face_label length does not match face count")
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

    # -- derived caches ----------------------------------------------------

    def _compute_derived(self):
        tri = self.vertices[self.faces]                      # (F, 3, 3)
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        norm = np.linalg.norm(cross, axis=1)
        self._face_area = 0.5 * norm
        self._face_centroid = tri.mean(axis=1)
        normals = np.zeros_like(cross)
        ok = norm > 0
        normals[ok] = cross[ok] / norm[ok, None]
        self._face_normal = normals

    @property
    def face_area(self) -> np.ndarray:
        if self._face_area is None:
            self._compute_derived()
        return self._face_area

    @property
    def face_centroid(self) -> np.ndarray:
        if self._face_centroid is None:
            self._compute_derived()
        return self._face_centroid

    @property
    def face_normal(self) -> np.ndarray:
        """Unit normals from stored winding; zero vector for degenerate faces."""
        if self._face_normal is None:
            self._compute_derived()
        return self._face_normal

    @property
    def face_area_normal(self) -> np.ndarray:
        """``face_area[:, None] * face_normal``: area-weighted normals."""
        if self._face_area_normal is None:
            self._face_area_normal = self.face_area[:, None] * self.face_normal
        return self._face_area_normal

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

    def copy(self) -> "TriangleMesh":
        return TriangleMesh(
            vertices=self.vertices.copy(),
            faces=self.faces.copy(),
            face_color=None if self.face_color is None else self.face_color.copy(),
            vertex_color=None if self.vertex_color is None else self.vertex_color.copy(),
            face_label=None if self.face_label is None else self.face_label.copy(),
            extra_face_props={k: np.array(v) for k, v in self.extra_face_props.items()},
        )

