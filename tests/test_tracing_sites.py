"""The benchmark's tracer wraps library functions by name; keep them there."""

import importlib.util
from pathlib import Path

import numpy as np

from pssmesh import pipeline
from pssmesh.adjacency import build_adjacency
from pssmesh.config import PipelineConfig
from pssmesh.features import FaceFeatures, FeatureTable
from pssmesh.overseg import Segmentation
from pssmesh.segfeatures import SegmentFeatures, compute_segment_features
from pssmesh.seggraph import (SegmentGraph,
                              connecting_ground_edges, exmat_edges,
                              parallelism_edges, proximity_edges)
from pssmesh.synth import TileParams, synth_tile

from test_seggraph import (components_segmentation, fake_features, graph_of,
                           index_of)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_call_site_resolves():
    tracing = load_tracing()
    assert tracing.CALL_SITES
    for module, path, _, _ in tracing.CALL_SITES:
        owner, attr = tracing.resolve(module, path)
        assert callable(getattr(owner, attr, None)), f"{module}.{path}"


def test_traced_graph_counts_match_graph():
    tracing = load_tracing()
    mesh = synth_tile(TileParams(seed=1, ground_res=16, n_boxes=2, n_trees=1,
                                 n_vehicles=1))
    adj = build_adjacency(mesh)
    seg = components_segmentation(mesh, adj)
    index = index_of(mesh, adj, seg)
    feats = compute_segment_features(mesh, adj, index, fake_features(mesh))
    cfg = PipelineConfig(sampling_density=2.0)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        graph = pipeline.build_segment_graph(mesh, seg, index, feats, cfg)
    finally:
        restore()
    spans = {s[0] for s in tracer.spans}
    assert {"seggraph.total", "seggraph.nodes", "seggraph.parallel",
            "seggraph.ground", "seggraph.exmat", "seggraph.proximity",
            "seggraph.edge_features"} <= spans
    c = tracer.counts
    assert c["seggraph.edges"] == graph.n_edges > 0
    for family in tracing.EDGE_FAMILIES:
        n = sum(family in e.types for e in graph.edges.values())
        assert c[f"seggraph.edges.{family}"] == n > 0, family
    assert c["seggraph.groundless"] == len(graph.metadata["groundless"])

    fresh = SegmentGraph(segment_type=graph.segment_type, planes=graph.planes,
                         centroids=graph.centroids, features=graph.features)
    added = (parallelism_edges(fresh, cfg.parallel_angle_deg)
             + connecting_ground_edges(fresh, mesh, index, cfg.ground_radius)
             + exmat_edges(fresh, mesh, index, cfg.sampling_density, cfg.seed)
             + proximity_edges(fresh, mesh, index, cfg.knn_k,
                               cfg.knn_cutoff_factor))
    assert c["seggraph.added"] == added
    assert {k: e.types for k, e in fresh.edges.items()} \
        == {k: e.types for k, e in graph.edges.items()}


def test_traced_face_features_spans():
    tracing = load_tracing()
    mesh = synth_tile(TileParams(seed=2, ground_res=12, n_boxes=1, n_trees=1,
                                 n_vehicles=0))
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        feats = pipeline.compute_face_features(mesh)
    finally:
        restore()
    spans = tracer.spans
    total = [i for i, s in enumerate(spans) if s[0] == "features.total"]
    assert len(total) == 1
    for name in ("features.eigen", "features.elevation"):
        inner = [s for s in spans if s[0] == name]
        assert len(inner) == 1, name
        assert inner[0][3] == total[0], name
    assert tracer.counts["features.faces"] == mesh.n_faces == len(feats)


def test_traced_feature_tables_write_once_each(tmp_path):
    tracing = load_tracing()
    tables = [cls(values=np.ones((2, 1)), channel_names=["x"])
              for cls in (FaceFeatures, SegmentFeatures)]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        for i, table in enumerate(tables):
            table.to_csv(tmp_path / f"{i}.csv")
    finally:
        restore()
    writes = [s for s in tracer.spans if s[0] == "pipeline.write"]
    assert len(writes) == 2
    assert all(s[3] == -1 for s in writes)         # neither inside another
    # restoring leaves no wrapper behind on either class
    assert FaceFeatures.to_csv is SegmentFeatures.to_csv \
        is FeatureTable.to_csv
    for i, table in enumerate(tables):
        header = (tmp_path / f"{i}.csv").read_text().splitlines()[0]
        assert header == f"{table.ROW},x"


def test_traced_json_writers_write_once_each(tmp_path):
    # the writers share config.save_json; none may call the traced
    # pipeline.save_json, which would time its write a second time
    tracing = load_tracing()
    seg = Segmentation(face_segment=np.array([0, 1], dtype=np.int32),
                       segment_type=np.zeros(2, dtype=np.int8),
                       planes=np.zeros((2, 4)))
    manifest = pipeline.RunManifest(version="0", config={},
                                    input_sha256=None, stage_seconds={},
                                    outputs={})
    graph = graph_of([(0, np.zeros(3), np.zeros(4), np.ones(1))])
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        pipeline.save_segmentation(seg, tmp_path / "segmentation.json")
        manifest.save(tmp_path / "manifest.json")
        pipeline.export_graph(graph, tmp_path / "graph.json")
    finally:
        restore()
    writes = [s for s in tracer.spans if s[0] == "pipeline.write"]
    assert len(writes) == 3
    assert all(s[3] == -1 for s in writes)         # none inside another
