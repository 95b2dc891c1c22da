"""Planarity-sensible over-segmentation and segment graphs for urban triangle meshes.

The package is organized around a linear pipeline:

    meshio.load_mesh -> repair.weld_vertices/repair_nonmanifold
    -> adjacency.build_adjacency -> features.compute_face_features
    -> forest (planar/non-planar probability) -> overseg.oversegment
    -> segfeatures.compute_segment_features -> seggraph.build_segment_graph
    -> metrics (object purity, boundary precision/recall, IoU reports)

Segment features and the segment graph read each segment's faces and cut
edges from one `adjacency.segment_index`. Each stage is usable on its own;
the `pipeline` module wires them together and the `cli` module exposes the
whole chain as subcommands.
"""

__version__ = "0.1.0"

from .mesh import TriangleMesh
from .adjacency import AdjacencyIndex, segment_index

__all__ = ["TriangleMesh", "AdjacencyIndex", "segment_index", "__version__"]
