"""Typed relational graph over mesh segments.

Nodes are the segments of one ``adjacency.SegmentIndex``; ``SegmentGraph``
holds them as arrays indexed by segment id (type, plane, centroid, feature
row), and every per-segment fact the graph reads comes from that index.
Edges come from four independent constructors: near-parallel planar
pairs, segment-to-local-ground links, exterior medial-ball bridges, and
spatial proximity (k nearest neighbors, the one proximity rule). Each
constructor computes its segment pairs as one (M, 2) id array and records
them with ``SegmentGraph.add_pairs``. Several constructors can connect the
same pair; the edge record keeps the set of contributing types. Edge
features are elementwise log-ratios of the two node feature vectors, which
``edge_log_ratios`` computes when asked for, plus boundary offset
statistics, which each edge stores.

``export_graph`` writes version 2 of ``graph.json``: a top-level ``channels``
list names the feature channels once; each node holds ``id``, ``type``,
``centroid``, ``plane`` and ``features`` (a plain list in channel order); each
edge holds only ``a``, ``b``, ``types``, ``offset_mean`` and ``offset_std``;
``metadata`` holds the graph's metadata. Log-ratios are not stored, since the
node features determine them.
"""

from dataclasses import dataclass, field
from functools import cache

import numpy as np
from scipy.spatial import cKDTree

from .adjacency import SegmentIndex, pair_keys, unique_ints
from .config import (ConfigError, PipelineConfig, load_versioned_json,
                     save_json)
from .medial import shrinking_ball_transform
from .mesh import TriangleMesh
from .overseg import NONPLANAR, PLANAR
from .sampling import sample_points
from .segfeatures import SegmentFeatures

RATIO_EPS = 1e-6

EDGE_PARALLEL = "parallelism"
EDGE_GROUND = "connecting_ground"
EDGE_EXMAT = "exmat"
EDGE_PROXIMITY = "spatial_proximity"
EDGE_FAMILIES = (EDGE_PARALLEL, EDGE_GROUND, EDGE_EXMAT, EDGE_PROXIMITY)


@dataclass
class GraphEdge:
    types: set = field(default_factory=set)
    offset_mean: float = 0.0
    offset_std: float = 0.0


@dataclass
class SegmentGraph:
    """Nodes as arrays over segment ids 0..K-1, edges as typed pairs."""

    segment_type: np.ndarray        # (K,) PLANAR / NONPLANAR
    planes: np.ndarray              # (K, 4) float64 unit normal + offset
    centroids: np.ndarray           # (K, 3) float64 area-weighted centroid
    features: np.ndarray            # (K, D) float64 segment feature rows
    edges: dict = field(default_factory=dict)   # (a, b) -> GraphEdge, a < b
    channel_names: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.features)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def add_pairs(self, pairs, edge_type: str) -> int:
        """Record one typed link per row of an (M, 2) node id array.

        Row order does not matter; each distinct pair is stored once under
        (lower, higher) and accumulates the types that found it. Ids must
        lie in [0, n_nodes). Returns M.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any():
            raise ValueError(f"self-edge on node {pairs[np.argmax(loops), 0]}")
        if len(pairs) and (pairs.min() < 0 or pairs.max() >= self.n_nodes):
            raise ValueError(f"node id outside [0, {self.n_nodes})")
        for a, b in _unique_pairs(pairs[:, 0], pairs[:, 1],
                                  self.n_nodes).tolist():
            edge = self.edges.get((a, b))
            if edge is None:
                edge = self.edges[(a, b)] = GraphEdge()
            edge.types.add(edge_type)
        return len(pairs)


# ------------------------------------------------------------- construction


def build_nodes(mesh: TriangleMesh, index: SegmentIndex) -> np.ndarray:
    """(K, 3) mean face centroid of every segment, weighted as
    ``SegmentIndex.mean`` weighs faces (by area, or equally if none)."""
    return np.column_stack([index.mean(c) for c in mesh.face_centroid.T])


def parallelism_edges(graph: SegmentGraph, angle_deg: float) -> int:
    """Link planar segment pairs whose planes are nearly parallel.

    The inter-normal angle is folded into [0, 90] degrees first, so an
    opposite-facing pair counts as parallel.
    """
    ids = np.flatnonzero(graph.segment_type == PLANAR)
    normals = graph.planes[ids, :3]
    cos_thresh = np.cos(np.radians(angle_deg))
    iu, ju = np.nonzero(np.triu(np.abs(normals @ normals.T) > cos_thresh, 1))
    return graph.add_pairs(np.column_stack([ids[iu], ids[ju]]),
                           EDGE_PARALLEL)


def connecting_ground_edges(graph: SegmentGraph, mesh: TriangleMesh,
                            index: SegmentIndex, radius: float) -> int:
    """Link every segment to its local ground plane.

    The candidates of a segment are the other planar segments with any
    vertex within ``radius`` (inclusive) in xy of any of the segment's
    ``index.probes`` (its boundary vertices). Its local ground is the
    candidate with the lowest mean face-centroid z, then the larger area,
    then the lower id. Segments with no candidate are recorded in metadata
    as groundless.
    """
    n_seg = index.n_segments
    mean_z = (index.sums(mesh.face_centroid[:, 2])
              / np.maximum([len(f) for f in index.faces], 1))
    probe_seg = np.repeat(np.arange(n_seg), [len(p) for p in index.probes])
    probe_xy = mesh.vertices[
        np.concatenate([np.zeros(0, np.int64), *index.probes]), :2]

    planar = np.flatnonzero(graph.segment_type == PLANAR)
    ground = np.full(n_seg, -1, dtype=np.int64)
    # visit the planar segments in preference order; the first hit wins
    for g in planar[np.lexsort((planar, -index.area[planar], mean_z[planar]))]:
        open_ = (ground[probe_seg] < 0) & (probe_seg != g)
        if not open_.any():
            break
        tree = cKDTree(mesh.vertices[index.vertices[g], :2])
        near = tree.query_ball_point(probe_xy[open_], radius,
                                     return_length=True) > 0
        ground[probe_seg[open_][near]] = g
    linked = np.flatnonzero(ground >= 0)
    graph.metadata["groundless"] = np.flatnonzero(ground < 0).tolist()
    return graph.add_pairs(np.column_stack([linked, ground[linked]]),
                           EDGE_GROUND)


def exmat_edges(graph: SegmentGraph, mesh: TriangleMesh, index: SegmentIndex,
                density: float, seed: int) -> int:
    """Link segments bridged by exterior medial balls.

    The mesh is point-sampled, exterior shrinking balls are grown along the
    face normals, and every kept ball whose surface and touching points come
    from different segments contributes an edge. ``sample_points`` gives
    zero-area faces no samples, so every sample has a unit normal.
    """
    sample = sample_points(mesh, density, seed)
    if len(sample) < 2:
        return 0
    balls = shrinking_ball_transform(sample.positions, sample.normals,
                                     orientation="exterior")
    point_seg = index.face_segment[sample.source_face]
    i = np.flatnonzero(balls.kept & (balls.touch_index >= 0))
    pairs = np.column_stack([point_seg[i], point_seg[balls.touch_index[i]]])
    keep = (pairs[:, 0] != pairs[:, 1]) & (pairs >= 0).all(axis=1)
    return graph.add_pairs(pairs[keep], EDGE_EXMAT)


def _proximity_points(mesh, face_segment):
    """Vertices plus face centroids, each tagged with one segment id."""
    # a vertex takes the segment of its lowest-id segmented face; the
    # sentinel id n_faces tags vertices without one as -1
    segmented = np.flatnonzero(face_segment >= 0)
    first_face = np.full(mesh.n_vertices, mesh.n_faces, dtype=np.int64)
    np.minimum.at(first_face, mesh.faces[segmented].ravel(),
                  np.repeat(segmented, 3))
    vert_tag = np.append(face_segment, -1)[first_face]
    points = np.vstack([mesh.vertices, mesh.face_centroid])
    tags = np.concatenate([vert_tag, face_segment])
    keep = tags >= 0
    return points[keep], tags[keep]


def _unique_pairs(i, j, n):
    """Distinct (min, max) rows of the index pairs (i, j), ascending."""
    key = unique_ints(pair_keys(np.sort(np.column_stack([i, j]), axis=1), n))
    return np.column_stack(np.divmod(key, n))


def knn_pairs(points, tags, k: int, cutoff_factor: float) -> np.ndarray:
    """Symmetric k-nearest-neighbor pairs of points with different ``tags``
    (an array) within a spacing-scaled cutoff.

    Returns the distinct pairs as an ascending (M, 2) int64 array, each row
    (lower, higher).
    """
    points = np.asarray(points, dtype=np.float64)
    tree = cKDTree(points)
    kq = min(k + 1, len(points))
    dist, idx = tree.query(points, k=kq)
    cutoff = cutoff_factor * float(np.median(dist[:, 1]))
    idx = idx[:, 1:]
    near = (dist[:, 1:] <= cutoff) & (tags[idx] != tags[:, None])
    rows = np.broadcast_to(np.arange(len(points))[:, None], near.shape)
    return _unique_pairs(rows[near], idx[near], len(points))


def proximity_edges(graph: SegmentGraph, mesh: TriangleMesh,
                    index: SegmentIndex, k: int, cutoff_factor: float) -> int:
    """Link segments whose points are spatial neighbors.

    The point set is the mesh vertices plus face centroids, each tagged
    with a segment. Candidates come from ``knn_pairs``: a symmetric
    k-nearest-neighbor graph, cut off at ``cutoff_factor`` times the median
    nearest-neighbor spacing. Returns the number of cross-segment pairs.
    """
    points, tags = _proximity_points(mesh, index.face_segment)
    if len(points) < 2:
        return 0
    pairs = knn_pairs(points, tags, k, cutoff_factor)
    return graph.add_pairs(tags[pairs], EDGE_PROXIMITY)


# ------------------------------------------------------------ edge features


def shifted_feature_matrix(graph: SegmentGraph):
    """Node features with negative-capable channels moved into [eps, 1+eps].

    Returns the matrix and the list of shifted channel names.
    """
    feats = np.array(graph.features, dtype=np.float64)
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


def edge_log_ratios(graph: SegmentGraph) -> np.ndarray:
    """(M, D) log-ratio of every edge, rows in ``sorted(graph.edges)`` order.

    Ratios divide the lower-id node's row of ``shifted_feature_matrix`` by
    the higher-id node's row, each with a small epsilon guard.
    """
    feats, _ = shifted_feature_matrix(graph)
    a, b = np.array(sorted(graph.edges), dtype=np.int64).reshape(-1, 2).T
    return np.log((feats[a] + RATIO_EPS) / (feats[b] + RATIO_EPS))


def compute_edge_features(graph: SegmentGraph, mesh: TriangleMesh,
                          index: SegmentIndex) -> None:
    """Fill per-edge boundary offset statistics.

    Records the channels ``shifted_feature_matrix`` shifts in metadata.
    Offsets are closest-point distances from each probe of the lower-id
    segment to the higher-id segment's probes (``index.probes``: its
    boundary vertices, or all its vertices when it has no boundary).
    """
    _, shifted = shifted_feature_matrix(graph)
    if shifted:
        graph.metadata["shifted_channels"] = shifted
    tree_of = cache(lambda k: cKDTree(mesh.vertices[index.probes[k]]))

    for (a, b), edge in sorted(graph.edges.items()):
        dists, _ = tree_of(b).query(mesh.vertices[index.probes[a]])
        dists = np.atleast_1d(dists)
        edge.offset_mean = float(dists.mean())
        edge.offset_std = float(dists.std())


def build_segment_graph(mesh: TriangleMesh, segmentation, index: SegmentIndex,
                        seg_features: SegmentFeatures,
                        config: PipelineConfig | None = None) -> SegmentGraph:
    """Run all four edge constructors and the edge feature pass.

    ``index`` is the ``adjacency.segment_index`` of ``segmentation``. The
    constructors take their thresholds from ``config``; exmat sampling
    uses ``config.sampling_density`` points per square metre and
    ``config.seed``.
    """
    config = config or PipelineConfig()
    graph = SegmentGraph(
        segment_type=np.asarray(segmentation.segment_type),
        planes=np.asarray(segmentation.planes, dtype=np.float64),
        centroids=build_nodes(mesh, index),
        features=np.asarray(seg_features.values, dtype=np.float64),
        channel_names=list(seg_features.channel_names))
    parallelism_edges(graph, config.parallel_angle_deg)
    connecting_ground_edges(graph, mesh, index, config.ground_radius)
    exmat_edges(graph, mesh, index, config.sampling_density, config.seed)
    proximity_edges(graph, mesh, index, config.knn_k,
                    config.knn_cutoff_factor)
    compute_edge_features(graph, mesh, index)
    return graph


# ------------------------------------------------------------------ export


def export_graph(graph: SegmentGraph, path) -> None:
    """Write graph.json version 2 (module docstring); see import_graph."""
    rows = zip(np.asarray(graph.segment_type).tolist(),
               *(np.asarray(a, np.float64).tolist()
                 for a in (graph.centroids, graph.planes, graph.features)))
    doc = {"version": 2, "channels": list(graph.channel_names),
           "nodes": [{"id": k, "type": t, "centroid": c, "plane": p,
                      "features": f} for k, (t, c, p, f) in enumerate(rows)],
           "edges": [{"a": a, "b": b, "types": sorted(e.types),
                      "offset_mean": float(e.offset_mean),
                      "offset_std": float(e.offset_std)}
                     for (a, b), e in sorted(graph.edges.items())]}
    if graph.metadata:
        doc["metadata"] = dict(sorted(graph.metadata.items()))
    save_json(doc, path)


def import_graph(path) -> SegmentGraph:
    """Rebuild a graph written by export_graph.

    Bad content (invalid JSON, not an object, another version, a missing
    key, malformed values, a node id, node type or edge end that is not a
    JSON integer, node ids out of order, a node type other than PLANAR or
    NONPLANAR, a node whose centroid, plane or features do not
    hold 3, 4 or one value per channel, an edge that is not a (lower,
    higher) pair of node ids or is listed twice, edge types that are not a
    non-empty list of distinct ``EDGE_FAMILIES`` names) raises ConfigError
    with the path in front of the message.
    """
    doc = load_versioned_json(path, 2, "graph")
    try:
        nodes = doc["nodes"]
        channels = list(doc["channels"])

        def rows(key, width):
            return np.array([n[key] for n in nodes],
                            np.float64).reshape(len(nodes), width)

        def ints(values, what):
            if any(type(v) is not int for v in values):
                raise ValueError(f"{what} must be integers, not {values}")
            return values

        if ints([n["id"] for n in nodes], "node ids") \
                != list(range(len(nodes))):
            raise ValueError("node ids are not 0, 1, 2, ... in order")
        node_types = ints([n["type"] for n in nodes], "node types")
        if not set(node_types) <= {PLANAR, NONPLANAR}:
            raise ValueError(f"node types must be {PLANAR} (planar) or "
                             f"{NONPLANAR} (non-planar)")
        edges = {}
        for e in doc["edges"]:
            pair = ints((e["a"], e["b"]), "edge ends")
            families = e["types"]
            if pair in edges:
                raise ValueError(f"edge {pair} is listed twice")
            if not (isinstance(families, list) and families
                    and len(set(families)) == len(families)
                    and set(families) <= set(EDGE_FAMILIES)):
                raise ValueError(f"edge {pair}: types must be a non-empty "
                                 f"list of distinct names of {EDGE_FAMILIES}")
            edges[pair] = GraphEdge(types=set(families),
                                    offset_mean=float(e["offset_mean"]),
                                    offset_std=float(e["offset_std"]))
        graph = SegmentGraph(
            segment_type=np.array(node_types, dtype=np.int64),
            planes=rows("plane", 4),
            centroids=rows("centroid", 3),
            features=rows("features", len(channels)),
            edges=edges,
            channel_names=channels,
            metadata=dict(doc.get("metadata", {})))
        for a, b in graph.edges:
            if not 0 <= a < b < graph.n_nodes:
                raise ValueError(f"edge ({a}, {b}) is not (lower, higher) "
                                 f"node ids in [0, {graph.n_nodes})")
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return graph
