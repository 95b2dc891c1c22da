"""Per-layer tracing of pssmesh from outside the library.

The package binds names with ``from .x import y``, so a wrapper only takes
effect where the caller looks the name up: ``pssmesh.pipeline.oversegment``,
not ``pssmesh.overseg.oversegment``. ``CALL_SITES`` lists every call site the
benchmark wraps. Each wrapper records one span (name, start, end, parent) in
memory and, where the layer returns something countable, adds counts taken
from the return value.

Unit conventions of the per-layer metrics:

- ``<layer>.<step>_s``: wall seconds summed over calls, children included.
- ``self.<layer>_s``: the layer's self time, i.e. its spans minus the part
  their child spans cover. The self times of all layers plus
  ``unattributed_s`` (time of the operation that no span covers) add up to
  ``trace.wall_s``, the traced operation's wall time.

Not measured, on purpose:

- ``mincut``: the pipeline runs ``oversegment`` with ``method="direct"``, so
  ``min_cut_binary`` is never called.
- ``cli``: the benchmark calls the library directly.
- ``metrics.match_boundaries``: the synthetic tiles have an empty
  ground-truth boundary, so it never runs and BP/BR are pinned (BP = 0,
  BR = 1). The boundary sizes are reported as counts and not gated.

The recorder is not thread-safe. No wrapped function runs inside the
forest's tree thread pool (``train_forest`` is wrapped around the pool,
not inside it).
"""

import importlib
import time
from collections import defaultdict

from pssmesh.overseg import PLANAR
from pssmesh.seggraph import (EDGE_EXMAT, EDGE_GROUND, EDGE_PARALLEL,
                              EDGE_PROXIMITY)

EDGE_FAMILIES = (EDGE_PARALLEL, EDGE_GROUND, EDGE_EXMAT, EDGE_PROXIMITY)
ROOT = "op"
LAYERS = ("meshio", "repair", "adjacency", "features", "medial", "forest",
          "overseg", "segfeatures", "sampling", "seggraph", "metrics",
          "pipeline")


class Tracer:
    """Span stack plus counters, kept in memory for one operation."""

    def __init__(self):
        self.spans = []         # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; return its result."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()


# ------------------------------------------------------------ count hooks
# Each hook gets (counts, args, kwargs, result) of one wrapped call.


def _count_features(c, args, kwargs, res):
    c["features.faces"] += len(res)


def _count_medial(c, args, kwargs, res):
    c["medial.points"] += len(res)
    c["medial.kept"] += int(res.kept.sum())


def _count_fit(c, args, kwargs, res):
    c["forest.fit_samples"] += len(args[0])


def _count_frontier(c, args, kwargs, res):
    c["overseg.steps"] += 1
    c["overseg.frontier_faces"] += len(res)
    c["overseg.joined"] += int((res == 0).sum())


def _count_segments(c, args, kwargs, res):
    c["overseg.segments"] += res.n_segments
    c["overseg.planar_segments"] += int((res.segment_type == PLANAR).sum())


def _count_sample(c, args, kwargs, res):
    c["sampling.points"] += len(res)


def _count_added(c, args, kwargs, res):
    c["seggraph.added"] += int(res)


def _count_graph(c, args, kwargs, res):
    c["seggraph.edges"] += len(res.edges)
    for edge in res.edges.values():
        for family in edge.types:
            c[f"seggraph.edges.{family}"] += 1
    c["seggraph.groundless"] += len(res.metadata.get("groundless", ()))


def _count_boundary(c, args, kwargs, res):
    side = "gt" if kwargs.get("origin") == "ground_truth" else "pred"
    c[f"metrics.{side}_boundary_edges"] += len(res)


# (module, attribute path, span name, count hook)
CALL_SITES = [
    ("pssmesh.pipeline", "load_mesh", "meshio.load", None),
    ("pssmesh.pipeline", "save_mesh", "meshio.save", None),
    ("pssmesh.pipeline", "weld_vertices", "repair.weld", None),
    ("pssmesh.pipeline", "repair_nonmanifold", "repair.nonmanifold", None),
    ("pssmesh.pipeline", "build_adjacency", "adjacency.build", None),
    ("pssmesh.pipeline", "compute_face_features", "features.total",
     _count_features),
    ("pssmesh.features", "eigen_shape_features", "features.eigen", None),
    ("pssmesh.features", "elevation_context", "features.elevation", None),
    ("pssmesh.features", "inmat_radii", "features.inmat", None),
    ("pssmesh.features", "shrinking_ball_transform", "medial.shrink",
     _count_medial),
    ("pssmesh.seggraph", "shrinking_ball_transform", "medial.shrink",
     _count_medial),
    ("pssmesh.forest", "predict_proba", "forest.predict", None),
    ("pssmesh.pipeline", "train_forest", "forest.fit", _count_fit),
    ("pssmesh.pipeline", "load_model", "forest.io", None),
    ("pssmesh.forest", "save_model", "forest.io", None),
    ("pssmesh.pipeline", "oversegment", "overseg.total", _count_segments),
    ("pssmesh.overseg", "label_frontier", "overseg.frontier",
     _count_frontier),
    ("pssmesh.pipeline", "compute_segment_features", "segfeatures.total",
     None),
    ("pssmesh.seggraph", "sample_points", "sampling.sample", _count_sample),
    ("pssmesh.pipeline", "build_segment_graph", "seggraph.total",
     _count_graph),
    ("pssmesh.seggraph", "build_nodes", "seggraph.nodes", None),
    ("pssmesh.seggraph", "parallelism_edges", "seggraph.parallel",
     _count_added),
    ("pssmesh.seggraph", "connecting_ground_edges", "seggraph.ground",
     _count_added),
    ("pssmesh.seggraph", "exmat_edges", "seggraph.exmat", _count_added),
    ("pssmesh.seggraph", "proximity_edges", "seggraph.proximity",
     _count_added),
    ("pssmesh.seggraph", "compute_edge_features", "seggraph.edge_features",
     None),
    ("pssmesh.pipeline", "overseg_report", "metrics.overseg", None),
    ("pssmesh.metrics", "boundary_set", "metrics.boundary_set",
     _count_boundary),
    ("pssmesh.pipeline", "max_achievable", "metrics.upper_bound", None),
    ("pssmesh.pipeline", "semantic_metrics", "metrics.semantic", None),
    # artifact writers and hashing
    ("pssmesh.pipeline", "file_sha256", "pipeline.write", None),
    ("pssmesh.pipeline", "save_json", "pipeline.write", None),
    ("pssmesh.pipeline", "save_segmentation", "pipeline.write", None),
    ("pssmesh.pipeline", "save_planarity", "pipeline.write", None),
    ("pssmesh.pipeline", "save_segment_predictions", "pipeline.write", None),
    ("pssmesh.pipeline", "save_face_predictions", "pipeline.write", None),
    ("pssmesh.pipeline", "save_metrics_row", "pipeline.write", None),
    ("pssmesh.pipeline", "export_graph", "pipeline.write", None),
    ("pssmesh.pipeline", "RunManifest.save", "pipeline.write", None),
    ("pssmesh.features", "FaceFeatures.to_csv", "pipeline.write", None),
    ("pssmesh.segfeatures", "SegmentFeatures.to_csv", "pipeline.write",
     None),
]


def resolve(module, path):
    """(owner object, attribute name) of a dotted path inside a module."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def _wrap(tracer, name, fn, hook):
    def wrapper(*args, **kwargs):
        res = tracer.span(name, fn, *args, **kwargs)
        if hook is not None:
            hook(tracer.counts, args, kwargs, res)
        return res
    return wrapper


def install(tracer, sites=CALL_SITES):
    """Patch every call site; return a function that restores them."""
    saved = []
    for module, path, name, hook in sites:
        owner, attr = resolve(module, path)
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, _wrap(tracer, name, fn, hook))

    def restore():
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
    return restore


# --------------------------------------------------------- derived metrics

# step metric -> span name; the value is the span's summed wall time
STEP_SPANS = {
    "meshio.load_s": "meshio.load",
    "meshio.save_s": "meshio.save",
    "repair.weld_s": "repair.weld",
    "repair.nonmanifold_s": "repair.nonmanifold",
    "adjacency.build_s": "adjacency.build",
    "features.total_s": "features.total",
    "features.eigen_s": "features.eigen",
    "features.elevation_s": "features.elevation",
    "features.inmat_s": "features.inmat",
    "medial.shrink_s": "medial.shrink",
    "forest.predict_s": "forest.predict",
    "forest.fit_s": "forest.fit",
    "forest.io_s": "forest.io",
    "overseg.total_s": "overseg.total",
    "overseg.frontier_s": "overseg.frontier",
    "segfeatures.total_s": "segfeatures.total",
    "sampling.sample_s": "sampling.sample",
    "seggraph.total_s": "seggraph.total",
    "seggraph.nodes_s": "seggraph.nodes",
    "seggraph.parallel_s": "seggraph.parallel",
    "seggraph.ground_s": "seggraph.ground",
    "seggraph.exmat_s": "seggraph.exmat",
    "seggraph.proximity_s": "seggraph.proximity",
    "seggraph.edge_features_s": "seggraph.edge_features",
    "metrics.overseg_s": "metrics.overseg",
    "metrics.upper_bound_s": "metrics.upper_bound",
    "metrics.semantic_s": "metrics.semantic",
    "pipeline.write_s": "pipeline.write",
}

COUNT_METRICS = (
    "features.faces", "medial.points", "forest.fit_samples",
    "overseg.steps", "overseg.frontier_faces", "overseg.segments",
    "overseg.planar_segments", "sampling.points", "seggraph.edges",
    *(f"seggraph.edges.{f}" for f in EDGE_FAMILIES), "seggraph.groundless",
    "metrics.pred_boundary_edges", "metrics.gt_boundary_edges",
)


# Which end-to-end metric, on which workload, each layer's metrics should
# move; written into every traced report.
MOVES = {
    "meshio": "wall_s on tile-small",
    "repair": "wall_s on tile-wide and train",
    "adjacency": "wall_s on tile-wide and train",
    "features": "elevation_s: wall_s/faces_per_s on tile-wide most, also "
                "train and setup_s; eigen_s: wall_s on train, peak_rss_mb "
                "on tile-wide",
    "medial": "wall_s on tile-wide",
    "forest": "fit_s: wall_s on train, setup_s elsewhere; predict_s: "
              "wall_s on tile-small",
    "overseg": "wall_s on train and tile-small",
    "segfeatures": "wall_s on tile-wide (grows with segment count)",
    "sampling": "wall_s on tile-wide",
    "seggraph": "ground_s: wall_s on tile-wide and tile-small; nothing on "
                "train",
    "metrics": "nothing yet: the synthetic ground-truth boundary is empty",
    "pipeline": "wall_s on tile-small",
    "synth": "setup_s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def span_times(spans):
    """(summed wall per span name, summed self time per span name)."""
    wall = defaultdict(float)
    self_time = defaultdict(float)
    for name, start, end, _ in spans:
        wall[name] += end - start
        self_time[name] += end - start
    for name, start, end, parent in spans:
        if parent >= 0:
            self_time[spans[parent][0]] -= end - start
    return wall, self_time


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced operation whose root span is ROOT."""
    wall, self_time = span_times(spans)
    out = {m: wall.get(s, 0.0) for m, s in STEP_SPANS.items()}
    out["features.other_s"] = self_time.get("features.total", 0.0)
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    out["medial.kept_ratio"] = _ratio(counts.get("medial.kept", 0),
                                      counts.get("medial.points", 0))
    out["overseg.join_ratio"] = _ratio(counts.get("overseg.joined", 0),
                                       counts.get("overseg.frontier_faces", 0))
    out["seggraph.distinct_ratio"] = _ratio(counts.get("seggraph.edges", 0),
                                            counts.get("seggraph.added", 0))
    layer_self = defaultdict(float)
    for name, t in self_time.items():
        if name != ROOT:
            layer_self[name.split(".", 1)[0]] += t
    for layer in LAYERS:
        out[f"self.{layer}_s"] = layer_self.get(layer, 0.0)
    out["unattributed_s"] = self_time.get(ROOT, 0.0)
    out["trace.wall_s"] = wall.get(ROOT, 0.0)
    return out
