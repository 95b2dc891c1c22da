"""Planarity-sensible over-segmentation and segment graphs for urban triangle meshes.

The package is organized around a linear pipeline:

    meshio.load_mesh -> repair.weld_vertices/repair_nonmanifold
    -> adjacency.build_adjacency -> features.compute_face_features
    -> forest (planar/non-planar probability) -> overseg.oversegment
    -> segfeatures.compute_segment_features -> seggraph.build_segment_graph
    -> metrics (object purity, boundary precision/recall, IoU reports)

A run builds one `adjacency.SegmentIndex` per segmentation, right after
oversegmentation: segment features and the segment graph both take it and
read each segment's faces, cut edges and vertices from it, so neither
derives them again. Each stage is usable on its own;
the `pipeline` module wires them together and the `cli` module exposes the
whole chain as subcommands.
"""

__version__ = "0.1.0"

from .mesh import TriangleMesh
from .adjacency import AdjacencyIndex, SegmentIndex, segment_index

__all__ = ["TriangleMesh", "AdjacencyIndex", "SegmentIndex", "segment_index",
           "__version__"]
