"""Typed relational graph over mesh segments.

Nodes are segments with their feature vectors; edges come from four
independent constructors: near-parallel planar pairs, segment-to-local-ground
links, exterior medial-ball bridges, and spatial proximity. Several
constructors can connect the same pair; the edge record keeps the set of
contributing types. Edge features are elementwise log-ratios of the two node
feature vectors plus boundary offset statistics.
"""

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree

from .adjacency import AdjacencyIndex, segment_index
from .medial import shrinking_ball_transform
from .mesh import TriangleMesh
from .overseg import PLANAR
from .sampling import sample_points
from .segfeatures import SegmentFeatures

RATIO_EPS = 1e-6

EDGE_PARALLEL = "parallelism"
EDGE_GROUND = "connecting_ground"
EDGE_EXMAT = "exmat"
EDGE_PROXIMITY = "spatial_proximity"


@dataclass
class GraphParams:
    """Thresholds of the four edge constructors."""

    parallel_angle_deg: float = 5.0
    ground_radius: float = 30.0
    proximity_mode: str = "knn"          # "knn" or "delaunay"
    knn_k: int = 16
    knn_cutoff_factor: float = 16.0      # times the median neighbor spacing
    exmat_density: float = 10.0          # sample points per square metre
    exmat_denoise_angle: float = 30.0
    seed: int = 0

    def __post_init__(self):
        if self.proximity_mode not in ("knn", "delaunay"):
            raise ValueError(f"unknown proximity mode {self.proximity_mode!r}")
        if self.parallel_angle_deg <= 0 or self.ground_radius <= 0:
            raise ValueError("thresholds must be positive")


@dataclass
class GraphNode:
    node_id: int
    segment_type: int
    centroid: np.ndarray            # (3,) area-weighted face centroid mean
    plane: np.ndarray               # (4,) unit normal + offset
    features: np.ndarray            # (D,) segment feature row


@dataclass
class GraphEdge:
    a: int                          # lower node id
    b: int                          # higher node id
    types: set = field(default_factory=set)
    log_ratio: np.ndarray | None = None
    offset_mean: float = 0.0
    offset_std: float = 0.0


@dataclass
class SegmentGraph:
    nodes: list
    edges: dict                     # (a, b) -> GraphEdge, a < b
    channel_names: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def add_pair(self, a: int, b: int, edge_type: str):
        """Record one typed link; parallel discoveries accumulate."""
        a, b = int(a), int(b)
        if a == b:
            raise ValueError(f"self-edge on node {a}")
        if a > b:
            a, b = b, a
        edge = self.edges.get((a, b))
        if edge is None:
            edge = GraphEdge(a=a, b=b)
            self.edges[(a, b)] = edge
        edge.types.add(edge_type)

    def neighbor_ids(self, node_id: int) -> list:
        out = [b if a == node_id else a
               for (a, b) in self.edges if node_id in (a, b)]
        return sorted(out)


# ------------------------------------------------------------- construction


def _probe_vertex_ids(mesh, adjacency, seg_faces, seg_cuts):
    """Vertices on each segment's cut edges, ascending.

    Boundary-free (closed) segments fall back to all their vertices.
    """
    return [np.unique(adjacency.edge_vertices[cuts]) if len(cuts)
            else np.unique(mesh.faces[faces])
            for faces, cuts in zip(seg_faces, seg_cuts)]


def build_nodes(mesh: TriangleMesh, segmentation,
                seg_features: SegmentFeatures, seg_faces) -> list:
    """One node per segment; ``seg_faces[k]`` lists segment k's face ids."""
    areas = mesh.face_area
    cent = mesh.face_centroid
    nodes = []
    for k, faces in enumerate(seg_faces):
        w = areas[faces]
        c = (cent[faces] * w[:, None]).sum(axis=0) / max(w.sum(), 1e-300)
        nodes.append(GraphNode(
            node_id=k,
            segment_type=int(segmentation.segment_type[k]),
            centroid=c,
            plane=np.asarray(segmentation.planes[k], dtype=np.float64),
            features=np.asarray(seg_features.values[k], dtype=np.float64)))
    return nodes


def parallelism_edges(graph: SegmentGraph,
                      angle_deg: float = 5.0) -> int:
    """Link planar segment pairs whose planes are nearly parallel.

    The inter-normal angle is folded into [0, 90] degrees first, so an
    opposite-facing pair counts as parallel.
    """
    planar = [n for n in graph.nodes if n.segment_type == PLANAR]
    if len(planar) < 2:
        return 0
    normals = np.array([n.plane[:3] for n in planar])
    ids = np.array([n.node_id for n in planar])
    cos_thresh = np.cos(np.radians(angle_deg))
    added = 0
    dots = np.abs(normals @ normals.T)
    iu, ju = np.triu_indices(len(planar), k=1)
    hits = dots[iu, ju] > cos_thresh
    for i, j in zip(iu[hits], ju[hits]):
        graph.add_pair(ids[i], ids[j], EDGE_PARALLEL)
        added += 1
    return added


def connecting_ground_edges(graph: SegmentGraph, mesh: TriangleMesh,
                            adjacency: AdjacencyIndex, segmentation,
                            radius: float = 30.0) -> int:
    """Link every segment to its local ground plane.

    The local ground is the planar segment with the lowest mean face-centroid
    z (ties to the larger area) among segments with any vertex within
    ``radius`` in xy of any boundary vertex of the segment. Segments with no
    candidate are recorded in metadata as groundless.
    """
    n_seg = segmentation.n_segments
    _, seg_faces, seg_cuts = segment_index(
        adjacency, segmentation.face_segment, n_seg)
    cent_z = mesh.face_centroid[:, 2]
    mean_z = np.array([cent_z[faces].mean() for faces in seg_faces])
    seg_area = np.array([mesh.face_area[faces].sum() for faces in seg_faces])
    probes = _probe_vertex_ids(mesh, adjacency, seg_faces, seg_cuts)

    planar_ids = [n.node_id for n in graph.nodes if n.segment_type == PLANAR]
    if not planar_ids:
        graph.metadata["groundless"] = sorted(range(n_seg))
        return 0
    tagged_xy = []
    tags = []
    for k in planar_ids:
        xy = mesh.vertices[np.unique(mesh.faces[seg_faces[k]]), :2]
        tagged_xy.append(xy)
        tags.append(np.full(len(xy), k))
    tree = cKDTree(np.concatenate(tagged_xy))
    tags = np.concatenate(tags)

    groundless = []
    added = 0
    for k in range(n_seg):
        probe_xy = mesh.vertices[probes[k], :2]
        hits = tree.query_ball_point(probe_xy, radius)
        cand = set()
        for h in hits:
            cand.update(int(tags[i]) for i in h)
        cand.discard(k)
        if not cand:
            groundless.append(k)
            continue
        cands = sorted(cand)
        zs = mean_z[cands]
        best = np.flatnonzero(zs == zs.min())
        if len(best) > 1:
            byarea = seg_area[np.asarray(cands)[best]]
            ground = cands[best[int(np.argmax(byarea))]]
        else:
            ground = cands[best[0]]
        graph.add_pair(k, ground, EDGE_GROUND)
        added += 1
    graph.metadata["groundless"] = groundless
    return added


def exmat_edges(graph: SegmentGraph, mesh: TriangleMesh, segmentation,
                density: float = 10.0, denoise_angle: float = 30.0,
                seed: int = 0) -> int:
    """Link segments bridged by exterior medial balls.

    The mesh is point-sampled, exterior shrinking balls are grown along the
    face normals, and every kept ball whose surface and touching points come
    from different segments contributes an edge.
    """
    face_segment = np.asarray(segmentation.face_segment).reshape(-1)
    sample = sample_points(mesh, density, seed)
    if len(sample) < 2:
        return 0
    norms = np.linalg.norm(sample.normals, axis=1)
    ok = norms > 0.5       # degenerate source faces give zero normals
    pts = sample.positions[ok]
    balls = shrinking_ball_transform(pts, sample.normals[ok],
                                     orientation="exterior",
                                     denoise_angle=denoise_angle)
    src = sample.source_face[ok]
    added = 0
    for i in np.flatnonzero(balls.kept):
        j = int(balls.touch_index[i])
        if j < 0:
            continue
        sa = int(face_segment[src[i]])
        sb = int(face_segment[src[j]])
        if sa != sb and sa >= 0 and sb >= 0:
            graph.add_pair(sa, sb, EDGE_EXMAT)
            added += 1
    return added


def _proximity_points(mesh, face_segment):
    """Vertices plus face centroids, each tagged with one segment id."""
    n_v = mesh.n_vertices
    vert_tag = np.full(n_v, -1, dtype=np.int64)
    # a vertex takes the segment of its lowest-id incident face
    for f in range(mesh.n_faces - 1, -1, -1):
        if face_segment[f] >= 0:
            vert_tag[mesh.faces[f]] = face_segment[f]
    points = np.vstack([mesh.vertices, mesh.face_centroid])
    tags = np.concatenate([vert_tag, face_segment])
    keep = tags >= 0
    return points[keep], tags[keep]


def _pairs_to_edges(graph, tags, pairs, edge_type):
    added = 0
    for i, j in pairs:
        a, b = int(tags[i]), int(tags[j])
        if a != b:
            graph.add_pair(a, b, edge_type)
            added += 1
    return added


def delaunay_pairs(points) -> set:
    """Point index pairs connected in the 3D Delaunay triangulation.

    Raises QhullError (or ValueError) for inputs Qhull cannot triangulate.
    """
    tri = Delaunay(np.asarray(points, dtype=np.float64),
                   qhull_options="QJ")
    pairs = set()
    for simplex in tri.simplices:
        s = sorted(int(x) for x in simplex)
        for x in range(len(s)):
            for y in range(x + 1, len(s)):
                pairs.add((s[x], s[y]))
    return pairs


def knn_pairs(points, k: int = 16, cutoff_factor: float = 16.0) -> set:
    """Symmetric k-nearest-neighbor pairs within a spacing-scaled cutoff."""
    points = np.asarray(points, dtype=np.float64)
    tree = cKDTree(points)
    kq = min(k + 1, len(points))
    dist, idx = tree.query(points, k=kq)
    cutoff = cutoff_factor * float(np.median(dist[:, 1]))
    pairs = set()
    for i in range(len(points)):
        for col in range(1, kq):
            j = int(idx[i, col])
            if dist[i, col] <= cutoff:
                pairs.add((min(i, j), max(i, j)))
    return pairs


def proximity_edges(graph: SegmentGraph, mesh: TriangleMesh, segmentation,
                    mode: str = "knn", k: int = 16,
                    cutoff_factor: float = 16.0) -> int:
    """Link segments whose points are spatial neighbors.

    The point set is the mesh vertices plus face centroids, each tagged
    with a segment. knn mode joins candidates from a symmetric k-nearest-
    neighbor graph, cut off at ``cutoff_factor`` times the median nearest-
    neighbor spacing. delaunay mode uses the 3D Delaunay edges and falls
    back to knn (with a warning) on degenerate input.
    """
    if mode not in ("knn", "delaunay"):
        raise ValueError(f"unknown proximity mode {mode!r}")
    face_segment = np.asarray(segmentation.face_segment).reshape(-1)
    points, tags = _proximity_points(mesh, face_segment)
    if len(points) < 2:
        return 0
    if mode == "delaunay":
        try:
            pairs = delaunay_pairs(points)
        except (QhullError, ValueError):
            warnings.warn("degenerate input for 3D Delaunay; "
                          "falling back to knn proximity")
            mode = "knn"
        else:
            graph.metadata["proximity_mode"] = "delaunay"
            return _pairs_to_edges(graph, tags, sorted(pairs),
                                   EDGE_PROXIMITY)
    graph.metadata["proximity_mode"] = "knn"
    pairs = knn_pairs(points, k, cutoff_factor)
    return _pairs_to_edges(graph, tags, sorted(pairs), EDGE_PROXIMITY)


# ------------------------------------------------------------ edge features


def shifted_feature_matrix(graph: SegmentGraph):
    """Node features with negative-capable channels moved into [eps, 1+eps].

    Returns the matrix and the list of shifted channel names.
    """
    feats = np.array([n.features for n in graph.nodes], dtype=np.float64)
    shifted = []
    if feats.size == 0:
        return feats, shifted
    for c in range(feats.shape[1]):
        col = feats[:, c]
        if (col < 0.0).any():
            lo, hi = col.min(), col.max()
            span = hi - lo
            col = (col - lo) / span if span > 0 else np.zeros_like(col)
            feats[:, c] = col + RATIO_EPS
            shifted.append(graph.channel_names[c]
                           if graph.channel_names else str(c))
    return feats, shifted


def compute_edge_features(graph: SegmentGraph, mesh: TriangleMesh,
                          adjacency: AdjacencyIndex, segmentation) -> None:
    """Fill per-edge log-ratio vectors and boundary offset statistics.

    Ratios divide the lower-id node by the higher-id node, with a small
    epsilon guard; offsets are closest-point distances from each boundary
    vertex of the lower-id segment to the higher-id segment's boundary,
    falling back to all segment vertices for boundary-free segments.
    """
    feats, shifted = shifted_feature_matrix(graph)
    if shifted:
        graph.metadata["shifted_channels"] = shifted
    _, seg_faces, seg_cuts = segment_index(
        adjacency, segmentation.face_segment, segmentation.n_segments)
    probes = _probe_vertex_ids(mesh, adjacency, seg_faces, seg_cuts)
    trees = {}

    def tree_of(k):
        if k not in trees:
            trees[k] = cKDTree(mesh.vertices[probes[k]])
        return trees[k]

    for (a, b), edge in sorted(graph.edges.items()):
        edge.log_ratio = np.log((feats[a] + RATIO_EPS)
                                / (feats[b] + RATIO_EPS))
        dists, _ = tree_of(b).query(mesh.vertices[probes[a]])
        dists = np.atleast_1d(dists)
        edge.offset_mean = float(dists.mean())
        edge.offset_std = float(dists.std())


def build_segment_graph(mesh: TriangleMesh, adjacency: AdjacencyIndex,
                        segmentation, seg_features: SegmentFeatures,
                        params: GraphParams | None = None) -> SegmentGraph:
    """Run all four edge constructors and the edge feature pass."""
    params = params or GraphParams()
    seg_faces = segment_index(adjacency, segmentation.face_segment,
                              segmentation.n_segments)[1]
    graph = SegmentGraph(nodes=build_nodes(mesh, segmentation, seg_features,
                                           seg_faces),
                         edges={},
                         channel_names=list(seg_features.channel_names))
    parallelism_edges(graph, params.parallel_angle_deg)
    connecting_ground_edges(graph, mesh, adjacency, segmentation,
                            params.ground_radius)
    exmat_edges(graph, mesh, segmentation, params.exmat_density,
                params.exmat_denoise_angle, params.seed)
    proximity_edges(graph, mesh, segmentation, params.proximity_mode,
                    params.knn_k, params.knn_cutoff_factor)
    compute_edge_features(graph, mesh, adjacency, segmentation)
    return graph


# ------------------------------------------------------------------ export


def export_graph(graph: SegmentGraph, path) -> None:
    """Serialize to JSON with deterministic ordering; see import_graph."""
    doc = {"version": 1, "nodes": [], "edges": []}
    if graph.metadata:
        doc["metadata"] = {k: graph.metadata[k]
                           for k in sorted(graph.metadata)}
    names = graph.channel_names
    for n in sorted(graph.nodes, key=lambda n: n.node_id):
        doc["nodes"].append({
            "id": n.node_id,
            "type": n.segment_type,
            "centroid": [float(x) for x in n.centroid],
            "plane": [float(x) for x in n.plane],
            "features": {names[i] if names else str(i): float(v)
                         for i, v in enumerate(n.features)},
        })
    for (a, b) in sorted(graph.edges):
        e = graph.edges[(a, b)]
        entry = {"a": a, "b": b, "types": sorted(e.types),
                 "features": {"offset_mean": e.offset_mean,
                              "offset_std": e.offset_std}}
        if e.log_ratio is not None:
            entry["features"].update(
                {f"log_ratio_{names[i] if names else i}": float(v)
                 for i, v in enumerate(e.log_ratio)})
        doc["edges"].append(entry)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def import_graph(path) -> SegmentGraph:
    """Rebuild a graph exported by export_graph."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != 1:
        raise ValueError(f"unsupported graph file version {doc.get('version')}")
    names = None
    nodes = []
    for n in doc["nodes"]:
        feat_names = list(n["features"].keys())
        if names is None:
            names = feat_names
        nodes.append(GraphNode(
            node_id=int(n["id"]), segment_type=int(n["type"]),
            centroid=np.asarray(n["centroid"], dtype=np.float64),
            plane=np.asarray(n["plane"], dtype=np.float64),
            features=np.asarray([n["features"][k] for k in feat_names])))
    edges = {}
    for e in doc["edges"]:
        a, b = int(e["a"]), int(e["b"])
        feats = dict(e["features"])
        mean = feats.pop("offset_mean")
        std = feats.pop("offset_std")
        ratio = np.asarray(list(feats.values()), dtype=np.float64) \
            if feats else None
        edges[(a, b)] = GraphEdge(a=a, b=b, types=set(e["types"]),
                                  log_ratio=ratio,
                                  offset_mean=float(mean),
                                  offset_std=float(std))
    return SegmentGraph(nodes=nodes, edges=edges,
                        channel_names=names or [],
                        metadata=doc.get("metadata", {}))
