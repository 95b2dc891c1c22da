"""Staged pipeline runner, artifact files, manifest, and training tests."""

import csv
import json
import multiprocessing
import os
import re

import numpy as np
import pytest

from pssmesh import pipeline
from pssmesh.config import (DEFAULT_CLASSES, ConfigError, PipelineConfig,
                            override_config)
from pssmesh.features import (FaceFeatures, compute_face_features,
                              face_channel_names)
from pssmesh.forest import (ProbabilityMap, planarity_map, save_model,
                            train_forest)
from pssmesh.mesh import MeshError, TriangleMesh
from pssmesh.meshio import load_mesh, save_mesh
from pssmesh.pipeline import (
    ARTIFACTS,
    STAGES,
    StageError,
    file_sha256,
    load_face_predictions,
    load_segmentation,
    resolve_threads,
    run_pipeline,
    save_face_predictions,
    save_metrics_row,
    save_planarity,
    save_segment_predictions,
    save_segmentation,
    train_models,
)
from pssmesh.metrics import OversegReport
from pssmesh.overseg import Segmentation
from pssmesh.segfeatures import SegmentFeatures
from pssmesh.seggraph import import_graph
from pssmesh.synth import TileParams, synth_tile

from test_seggraph import graphs_equal

SMALL = TileParams(seed=0, ground_res=16, n_boxes=2, n_trees=1, n_vehicles=1)
HELD_OUT = TileParams(seed=1, ground_res=16, n_boxes=2, n_trees=1,
                      n_vehicles=1)

FULL_RUN_FILES = [
    "repaired.ply", "repair_report.json", "face_features.csv",
    "planarity.csv", "segmentation.json", "segment_features.csv",
    "graph.json", "segment_predictions.csv", "face_predictions.csv",
    "labeled.ply", "overseg_metrics.json", "metrics_row.csv",
    "upper_bound.json", "semantic_metrics.json",
]


@pytest.fixture(scope="module")
def tile_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiles") / "tile0.ply"
    save_mesh(synth_tile(SMALL), path)
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, tile_path):
    out = tmp_path_factory.mktemp("models")
    cfg = PipelineConfig(trees=10, threads=1)
    result = train_models(cfg, [tile_path])
    save_model(result.planarity, out / "planarity.model")
    save_model(result.semantic, out / "semantic.model")
    return {"dir": out, "result": result,
            "planarity": out / "planarity.model",
            "semantic": out / "semantic.model"}


def make_config(tile_path, trained, out_dir, **overrides):
    cfg = PipelineConfig(input_path=str(tile_path), output_dir=str(out_dir),
                         planarity_model=str(trained["planarity"]),
                         semantic_model=str(trained["semantic"]),
                         trees=10, threads=1)
    return override_config(cfg, **overrides) if overrides else cfg


def test_full_run_writes_every_artifact(tile_path, trained, tmp_path):
    result = run_pipeline(make_config(tile_path, trained, tmp_path / "run"))
    run_dir = result.run_dir
    for name in FULL_RUN_FILES:
        assert (run_dir / name).is_file(), name
    man = result.manifest
    assert sorted(man.outputs) == sorted(FULL_RUN_FILES)
    for name, digest in man.outputs.items():
        assert file_sha256(run_dir / name) == digest
    assert list(man.stage_seconds) == list(STAGES)
    assert man.notes == []
    assert man.input_sha256 == file_sha256(tile_path)
    with open(run_dir / "manifest.json") as fh:
        assert json.load(fh) == man.as_dict()


def test_stop_after_preprocess(tile_path, trained, tmp_path):
    cfg = make_config(tile_path, trained, tmp_path / "run",
                      planarity_model=None, semantic_model=None)
    result = run_pipeline(cfg, stop_after="preprocess")
    names = sorted(p.name for p in result.run_dir.iterdir())
    assert names == ["manifest.json", "repair_report.json", "repaired.ply"]
    assert result.segmentation is None


def test_stop_after_unknown_stage(tile_path, trained, tmp_path):
    with pytest.raises(ValueError, match="warp"):
        run_pipeline(make_config(tile_path, trained, tmp_path),
                     stop_after="warp")


def test_output_dir_required(tile_path, trained):
    cfg = make_config(tile_path, trained, "x", output_dir=None)
    with pytest.raises(ConfigError, match="output_dir"):
        run_pipeline(cfg)


def test_missing_input_names_path(trained, tmp_path):
    cfg = make_config("no/such/mesh.ply", trained, tmp_path)
    with pytest.raises(FileNotFoundError, match="no/such/mesh.ply"):
        run_pipeline(cfg)


def test_missing_planarity_model(tile_path, trained, tmp_path):
    cfg = make_config(tile_path, trained, tmp_path,
                      planarity_model=str(tmp_path / "gone.model"))
    with pytest.raises(FileNotFoundError, match="gone.model"):
        run_pipeline(cfg)


def test_planarity_model_required_for_segmentation(tile_path, trained,
                                                   tmp_path):
    cfg = make_config(tile_path, trained, tmp_path, planarity_model=None)
    with pytest.raises(ConfigError, match="planarity_model"):
        run_pipeline(cfg)


def test_semantic_model_optional(tile_path, trained, tmp_path):
    cfg = make_config(tile_path, trained, tmp_path / "run",
                      semantic_model=None)
    result = run_pipeline(cfg)
    assert any("no semantic model" in n for n in result.manifest.notes)
    assert not (result.run_dir / "segment_predictions.csv").exists()
    assert not (result.run_dir / "semantic_metrics.json").exists()
    assert (result.run_dir / "upper_bound.json").is_file()
    assert result.semantic is None and result.upper_bound is not None


def test_two_runs_identical_hashes(tile_path, trained, tmp_path):
    a = run_pipeline(make_config(tile_path, trained, tmp_path / "a"))
    b = run_pipeline(make_config(tile_path, trained, tmp_path / "b"))
    assert a.manifest.outputs == b.manifest.outputs


@pytest.fixture(scope="module")
def wrong_kind(tmp_path_factory):
    """A readable model of the wrong kind: three classes over the face
    channels, so it passes the input checks and fails inside the planarity
    stage."""
    X = np.random.default_rng(0).random((60, len(face_channel_names())))
    path = tmp_path_factory.mktemp("wrong") / "three_class.model"
    save_model(train_forest(X, np.arange(60) % 3, PipelineConfig(trees=2)),
               path)
    return str(path)


def test_stage_failure_keeps_partials(tile_path, trained, wrong_kind,
                                      tmp_path):
    cfg = make_config(tile_path, trained, tmp_path / "run",
                      planarity_model=wrong_kind)
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "planarity"
    assert "planarity" in str(err.value)
    run_dir = tmp_path / "run"
    assert (run_dir / "repaired.ply.partial").is_file()
    assert (run_dir / "face_features.csv.partial").is_file()
    assert not (run_dir / "repaired.ply").exists()
    assert not (run_dir / "manifest.json").exists()


@pytest.mark.parametrize("key, value, bad", [
    ("eigen_radii", (1.0, 2.0), "planarity"),
    ("planarity_model", "semantic", "semantic"),
    ("semantic_model", "planarity", "planarity"),
], ids=["radii", "semantic-as-planarity", "planarity-as-semantic"])
def test_model_feature_count_is_input_error(tile_path, trained, tmp_path,
                                            key, value, bad):
    if key != "eigen_radii":
        value = str(trained[value])
    cfg = make_config(tile_path, trained, tmp_path / "run", **{key: value})
    with pytest.raises(ConfigError, match="features") as err:
        run_pipeline(cfg)
    assert str(trained[bad]) in str(err.value)
    assert not (tmp_path / "run").exists()


def test_rerun_failure_leaves_no_stale_manifest(tile_path, trained,
                                                 wrong_kind, tmp_path):
    run_dir = tmp_path / "run"
    first = run_pipeline(make_config(tile_path, trained, run_dir))
    (run_dir / "notes.txt").write_text("not an artifact")
    cfg = make_config(tile_path, trained, run_dir,
                      planarity_model=wrong_kind)
    with pytest.raises(StageError):
        run_pipeline(cfg)
    names = sorted(p.name for p in run_dir.iterdir())
    assert names == ["face_features.csv.partial", "notes.txt",
                     "repair_report.json.partial", "repaired.ply.partial"]
    assert set(first.manifest.outputs) == set(FULL_RUN_FILES)


def test_successful_rerun_leaves_no_partials(tile_path, trained, wrong_kind,
                                             tmp_path):
    run_dir = tmp_path / "run"
    run_pipeline(make_config(tile_path, trained, run_dir))
    with pytest.raises(StageError):
        run_pipeline(make_config(tile_path, trained, run_dir,
                                 planarity_model=wrong_kind))
    assert (run_dir / "face_features.csv.partial").is_file()
    result = run_pipeline(make_config(tile_path, trained, run_dir))
    assert sorted(p.name for p in run_dir.iterdir()) \
        == sorted(FULL_RUN_FILES + ["manifest.json"])
    assert set(result.manifest.outputs) == set(FULL_RUN_FILES)


def test_shorter_rerun_deletes_partials_it_does_not_write(tile_path, trained,
                                                         wrong_kind,
                                                         tmp_path):
    run_dir = tmp_path / "run"
    with pytest.raises(StageError):
        run_pipeline(make_config(tile_path, trained, run_dir,
                                 planarity_model=wrong_kind))
    assert (run_dir / "face_features.csv.partial").is_file()
    run_pipeline(make_config(tile_path, trained, run_dir),
                 stop_after="preprocess")
    assert sorted(p.name for p in run_dir.iterdir()) \
        == ["manifest.json", "repair_report.json", "repaired.ply"]


def test_every_written_name_is_listed(tile_path, trained, tmp_path):
    result = run_pipeline(make_config(tile_path, trained, tmp_path / "run"))
    assert list(result.manifest.outputs) == sorted(FULL_RUN_FILES)
    assert set(FULL_RUN_FILES) <= set(ARTIFACTS)
    assert len(set(ARTIFACTS)) == len(ARTIFACTS)


@pytest.fixture(scope="module")
def vehicles_as_4(tmp_path_factory):
    """A tile whose vehicles carry class 4 and a semantic model trained on it."""
    out = tmp_path_factory.mktemp("class4")
    mesh = synth_tile(SMALL)
    mesh.face_label[mesh.face_label == 3] = 4
    save_mesh(mesh, out / "tile4.ply")
    cfg = PipelineConfig(trees=5, threads=1,
                         classes={**DEFAULT_CLASSES, 4: "vehicle_4"})
    result = train_models(cfg, [mesh])
    assert 4 in result.semantic.classes
    save_model(result.semantic, out / "semantic4.model")
    return {"tile": out / "tile4.ply", "semantic": out / "semantic4.model"}


def test_model_class_outside_config_is_input_error(tile_path, trained,
                                                   vehicles_as_4, tmp_path):
    model = str(vehicles_as_4["semantic"])
    cfg = make_config(tile_path, trained, tmp_path / "run",
                      semantic_model=model)
    with pytest.raises(ConfigError, match=f"{model}: model class 4 "):
        run_pipeline(cfg)
    assert not (tmp_path / "run").exists()


def test_truth_label_outside_config_is_input_error(trained, vehicles_as_4,
                                                   tmp_path):
    tile = str(vehicles_as_4["tile"])
    cfg = make_config(tile, trained, tmp_path / "run")
    with pytest.raises(ConfigError, match=f"{tile}: ground-truth label 4 "):
        run_pipeline(cfg)
    assert not (tmp_path / "run").exists()
    with pytest.raises(ConfigError, match="^input mesh: ground-truth label 4 "):
        run_pipeline(cfg, mesh=load_mesh(tile))
    assert not (tmp_path / "run").exists()
    # without the semantic metrics the labels are never scored
    result = run_pipeline(cfg, stop_after="classify")
    assert result.face_classes is not None


def test_rerun_deletes_only_plain_names(tile_path, trained, tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    outside = tmp_path / "keep.txt"
    outside.write_text("outside the run directory")
    (run_dir / "sub").mkdir()
    (run_dir / "sub" / "keep.txt").write_text("in a subdirectory")
    (run_dir / "manifest.json").write_text(json.dumps({"outputs": {
        "../keep.txt": "", "sub/keep.txt": "", "sub": "", "old.csv": ""}}))
    (run_dir / "old.csv").write_text("stale")
    cfg = make_config(tile_path, trained, run_dir,
                      planarity_model=None, semantic_model=None)
    run_pipeline(cfg, stop_after="preprocess")
    assert outside.is_file() and (run_dir / "sub" / "keep.txt").is_file()
    assert not (run_dir / "old.csv").exists()
    assert json.loads((run_dir / "manifest.json").read_text())["outputs"] \
        .keys() == {"repaired.ply", "repair_report.json"}


def unusable_meshes():
    nan = synth_tile(SMALL)
    nan.vertices[3, 1] = np.nan
    empty = TriangleMesh(vertices=np.zeros((3, 3)), faces=np.zeros((0, 3)),
                         face_label=np.zeros(0, dtype=np.int32))
    return {"non-finite-vertex": (nan, "vertex 3: non-finite"),
            "no-faces": (empty, "no faces")}


@pytest.mark.parametrize("kind", ["non-finite-vertex", "no-faces"])
def test_run_pipeline_checks_mesh_object(tile_path, trained, tmp_path, kind):
    mesh, message = unusable_meshes()[kind]
    cfg = make_config(tile_path, trained, tmp_path / "run", input_path=None)
    with pytest.raises(MeshError, match=message):
        run_pipeline(cfg, mesh=mesh)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kind", ["non-finite-vertex", "no-faces"])
def test_train_models_checks_mesh_object(kind):
    mesh, message = unusable_meshes()[kind]
    with pytest.raises(MeshError, match=message):
        train_models(PipelineConfig(trees=5), [mesh])


def test_graph_file_round_trip(tile_path, trained, tmp_path):
    result = run_pipeline(make_config(tile_path, trained, tmp_path / "run"),
                          stop_after="graph")
    path = result.run_dir / "graph.json"
    assert "log_ratio" not in path.read_text()
    assert result.graph.n_edges > 0 and result.graph.channel_names
    assert graphs_equal(result.graph, import_graph(path))


def test_unlabeled_mesh_skips_metrics(tile_path, trained, tmp_path):
    mesh = synth_tile(SMALL)
    mesh.face_label = None
    cfg = make_config(tile_path, trained, tmp_path / "run", input_path=None)
    result = run_pipeline(cfg, mesh=mesh)
    assert any("no ground-truth labels" in n for n in result.manifest.notes)
    assert not (result.run_dir / "overseg_metrics.json").exists()
    assert result.manifest.input_sha256 is None
    assert (result.run_dir / "labeled.ply").is_file()


def test_segmentation_round_trip(tile_path, trained, tmp_path):
    result = run_pipeline(make_config(tile_path, trained, tmp_path / "run"),
                          stop_after="oversegment")
    seg = result.segmentation
    again = load_segmentation(result.run_dir / "segmentation.json")
    assert (again.face_segment == seg.face_segment).all()
    assert (again.segment_type == seg.segment_type).all()
    np.testing.assert_allclose(again.planes, seg.planes, rtol=0, atol=0)


def test_segmentation_version_check(tmp_path):
    path = tmp_path / "seg.json"
    path.write_text('{"version": 9}')
    with pytest.raises(ValueError, match="version 9"):
        load_segmentation(path)


def test_face_predictions_round_trip(tmp_path):
    path = tmp_path / "pred.csv"
    save_face_predictions(np.array([3, 1, 0, 2]), path)
    assert (load_face_predictions(path) == [3, 1, 0, 2]).all()


SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-05, 1e16, 0.1,
                  1.0 / 3.0, -2.5e-300, 5e-324, 1.7976931348623157e308]


def csv_reference(path, header, rows):
    """The tables as ``csv.writer`` wrote them, cell by cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)
    return path.read_bytes()


def odd_floats(rng, shape, dtype=np.float64):
    """Values of every magnitude with each special float planted."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 18, shape)
    flat = x.reshape(-1)
    flat[:len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
    with np.errstate(over="ignore"):        # float32: large values to inf
        return x.astype(dtype)


def test_table_writers_match_csv_writer(tmp_path):
    rng = np.random.default_rng(9)
    names = [f"c{i}_r0.5" for i in range(7)]
    got, want = tmp_path / "got", tmp_path / "want"

    values = odd_floats(rng, (40, 7))
    FaceFeatures(values=values, channel_names=names).to_csv(got)
    assert got.read_bytes() == csv_reference(
        want, ["face"] + names,
        ([i] + [repr(float(x)) for x in row] for i, row in enumerate(values)))

    SegmentFeatures(values=values, channel_names=names,
                    layout_version="segment-v1").to_csv(got)
    assert got.read_bytes() == csv_reference(
        want, ["segment"] + names,
        ([k] + [repr(float(x)) for x in row] for k, row in enumerate(values)))

    pp, g = odd_floats(rng, 30), odd_floats(rng, 30, np.float32)
    label = rng.integers(0, 2, 30).astype(np.int32)
    save_planarity(ProbabilityMap(g_log=np.zeros(30), g_hat=g,
                                  label=label, planar_prob=pp), got)
    assert got.read_bytes() == csv_reference(
        want, ["face", "planar_prob", "nonplanar_geo", "label"],
        ([i, repr(float(pp[i])), repr(float(g[i])), int(label[i])]
         for i in range(30)))

    classes = np.array([3, 0, 7, 1, 2, 2, 5, 0, 1, 6, 4, 3])
    proba = odd_floats(rng, (12, 4))
    save_segment_predictions(classes, proba, [0, 1, 3, 7], got)
    assert got.read_bytes() == csv_reference(
        want, ["segment", "class", "p_0", "p_1", "p_3", "p_7"],
        ([k, int(classes[k])] + [repr(float(p)) for p in proba[k]]
         for k in range(12)))

    report = OversegReport(op=float(rng.random()), bp=1.0, br=0.0,
                           n_segments=0, matched_pred_length=0.0,
                           matched_gt_length=0.0, pred_boundary_length=0.0,
                           gt_boundary_length=0.0)
    save_metrics_row(17, report, got)
    assert got.read_bytes() == csv_reference(
        want, ["segments", "op", "bp", "br"],
        [[17, repr(report.op), "1.0", "0.0"]])

    face_classes = rng.integers(-1, 9, 25).astype(np.int32)
    save_face_predictions(face_classes, got)
    assert got.read_bytes() == csv_reference(
        want, ["face", "class"],
        ([i, int(c)] for i, c in enumerate(face_classes)))

    seg = Segmentation(face_segment=rng.integers(-1, 5, 20).astype(np.int32),
                       segment_type=rng.integers(0, 2, 5).astype(np.int8),
                       planes=odd_floats(rng, (5, 4)))
    save_segmentation(seg, got)
    doc = {"version": 1,
           "face_segment": [int(k) for k in seg.face_segment],
           "segment_type": [int(t) for t in seg.segment_type],
           "planes": [[float(x) for x in row] for row in seg.planes]}
    assert got.read_text() == json.dumps(doc, indent=1) + "\n"


def test_face_predictions_header_check(tmp_path):
    path = tmp_path / "pred.csv"
    path.write_text("foo,bar\n0,1\n")
    with pytest.raises(ValueError, match="face prediction"):
        load_face_predictions(path)


def test_resolve_threads(monkeypatch):
    assert resolve_threads(3) == 3
    monkeypatch.setenv("PSSNET_THREADS", "5")
    assert resolve_threads(0) == 5
    monkeypatch.setenv("PSSNET_THREADS", "0")
    assert resolve_threads(0) >= 1
    monkeypatch.setenv("PSSNET_THREADS", "lots")
    with pytest.raises(ConfigError, match="PSSNET_THREADS"):
        resolve_threads(0)
    monkeypatch.delenv("PSSNET_THREADS")
    assert resolve_threads(0) >= 1


def test_train_report_contents(trained):
    report = trained["result"].report
    assert report["n_meshes"] == 1
    assert report["planarity_classes"] == [0, 1]
    assert report["n_face_samples"] > 0
    assert report["n_segment_samples"] > 0
    assert set(report["semantic_classes"]) <= {0, 1, 2, 3}


def test_trained_planarity_generalizes(trained):
    mesh = synth_tile(HELD_OUT)
    from pssmesh.repair import repair_nonmanifold, weld_vertices
    mesh, _ = weld_vertices(mesh, 1e-6)
    mesh, _ = repair_nonmanifold(mesh)
    feats = compute_face_features(mesh)
    pm = planarity_map(trained["result"].planarity, feats)
    truth = np.isin(mesh.face_label, (2,)).astype(np.int64)
    accuracy = float(np.mean(pm.label == truth))
    assert accuracy >= 0.9


def test_train_models_rejects_empty():
    with pytest.raises(ConfigError, match="no training meshes"):
        train_models(PipelineConfig(), [])


def test_train_models_missing_path():
    with pytest.raises(FileNotFoundError, match="lost.ply"):
        train_models(PipelineConfig(), ["lost.ply"])


def test_train_models_requires_labels():
    mesh = synth_tile(SMALL)
    mesh.face_label = None
    with pytest.raises(ConfigError,
                       match="^training mesh 0: no ground-truth labels"):
        train_models(PipelineConfig(trees=5), [mesh])


def test_training_label_outside_config_is_input_error(vehicles_as_4,
                                                      monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a forest was fitted")

    monkeypatch.setattr(pipeline, "train_forest", no_fit)
    cfg = PipelineConfig(trees=5, threads=1)
    tile = str(vehicles_as_4["tile"])
    with pytest.raises(ConfigError,
                       match=f"^{re.escape(tile)}: training label 4 "):
        train_models(cfg, [tile])
    with pytest.raises(ConfigError,
                       match="^training mesh 1: training label 4 "):
        train_models(cfg, [synth_tile(SMALL), load_mesh(tile)])


def test_training_deterministic(tile_path, tmp_path):
    cfg = PipelineConfig(trees=5, threads=1)
    a = train_models(cfg, [tile_path])
    b = train_models(cfg, [tile_path])
    for name, ma, mb in (("p", a.planarity, b.planarity),
                         ("s", a.semantic, b.semantic)):
        pa, pb = tmp_path / f"{name}a.bin", tmp_path / f"{name}b.bin"
        save_model(ma, pa)
        save_model(mb, pb)
        assert file_sha256(pa) == file_sha256(pb)


def test_training_same_at_every_thread_count(tmp_path, monkeypatch):
    # three meshes: with 2 workers one worker prepares and segments two,
    # with 3 each mesh has a worker of its own
    tiles = [synth_tile(TileParams(seed=s, ground_res=16, n_boxes=1,
                                   n_trees=1, n_vehicles=1))
             for s in range(3)]
    # a forked worker cannot add to a set of this process: it appends its
    # process id to a file
    log = tmp_path / "pids"
    features = pipeline.compute_face_features

    def recorded(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return features(*args, **kwargs)

    monkeypatch.setattr(pipeline, "compute_face_features", recorded)
    runs = []
    for threads in (1, 2, 3):
        log.write_text("")
        result = train_models(PipelineConfig(trees=5, threads=threads),
                              tiles)
        assert multiprocessing.active_children() == []
        files = []
        for model in (result.planarity, result.semantic):
            path = tmp_path / f"{threads}-{len(files)}.model"
            save_model(model, path)
            files.append(path.read_bytes())
        runs.append((files, result.report))
        pids = log.read_text().split()
        assert len(pids) == 3               # once per mesh
        workers = set(map(int, pids))
        if threads == 1:
            assert workers == {os.getpid()}
        else:               # prepared in the pool
            assert os.getpid() not in workers
            assert 1 <= len(workers) <= threads
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert runs[0][1]["n_meshes"] == 3


def test_training_failure_in_a_worker_reaches_the_caller(monkeypatch):
    tiles = [synth_tile(TileParams(seed=s, ground_res=16, n_boxes=1,
                                   n_trees=1, n_vehicles=1))
             for s in range(2)]

    def broken(*args, **kwargs):
        raise ValueError(f"segment features failed in {os.getpid()}")

    monkeypatch.setattr(pipeline, "compute_segment_features", broken)
    with pytest.raises(ValueError, match="^segment features failed in ") \
            as info:
        train_models(PipelineConfig(trees=3, threads=2), tiles)
    assert not str(info.value).endswith(f" {os.getpid()}")
    assert multiprocessing.active_children() == []


def test_manifest_config_snapshot(tile_path, trained, tmp_path):
    cfg = make_config(tile_path, trained, tmp_path / "run", lambda_d=2.0)
    result = run_pipeline(cfg, stop_after="preprocess")
    with open(result.run_dir / "manifest.json") as fh:
        doc = json.load(fh)
    assert doc["config"]["lambda_d"] == 2.0
    assert doc["config"]["input_path"] == str(tile_path)
