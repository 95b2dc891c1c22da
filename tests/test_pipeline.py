"""Staged pipeline runner, artifact files, manifest, and training tests."""

import csv
import json
import mmap
import multiprocessing
import os
import re
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.recfunctions import structured_to_unstructured

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
    prepare_mesh,
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

from conftest import unwelded, with_fin
from test_seggraph import graphs_equal

SMALL = TileParams(seed=0, ground_res=16, n_boxes=2, n_trees=1, n_vehicles=1)
HELD_OUT = TileParams(seed=1, ground_res=16, n_boxes=2, n_trees=1,
                      n_vehicles=1)

FULL_RUN_FILES = [
    "repaired.ply", "repair_report.json", "face_features.npy",
    "planarity.npy", "segmentation.json", "segment_features.csv",
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


def test_planarity_model_required_for_planarity_stage(tile_path, trained,
                                                      tmp_path):
    cfg = make_config(tile_path, trained, tmp_path / "run",
                      planarity_model=None)
    with pytest.raises(ConfigError, match="planarity_model"):
        run_pipeline(cfg, stop_after="planarity")
    assert not (tmp_path / "run").exists()


def test_missing_semantic_model_names_file(tile_path, trained, tmp_path):
    cfg = make_config(tile_path, trained, tmp_path / "run",
                      semantic_model=str(tmp_path / "gone.model"))
    with pytest.raises(FileNotFoundError,
                       match=f"model file not found: {tmp_path}/gone.model"):
        run_pipeline(cfg)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("build", [unwelded, with_fin])
def test_repaired_mesh_is_prepare_mesh(tile_path, trained, tmp_path, build):
    # the copies give welding and the non-manifold repair work to do
    path = tmp_path / "input.ply"
    save_mesh(build(load_mesh(tile_path)), path)
    cfg = make_config(path, trained, tmp_path / "run")
    result = run_pipeline(cfg, stop_after="preprocess")
    rep = result.repair_report
    if build is unwelded:
        assert rep.welded_vertices > 0
    else:
        assert rep.nonmanifold_edges == 1
    repaired, report, _ = prepare_mesh(load_mesh(path), cfg)
    save_mesh(repaired, tmp_path / "want.ply")
    assert (result.run_dir / "repaired.ply").read_bytes() \
        == (tmp_path / "want.ply").read_bytes()
    assert report == rep


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
    for name in ("face_features.npy", "planarity.npy"):
        assert (a.run_dir / name).read_bytes() \
            == (b.run_dir / name).read_bytes()


def load_table(path):
    table = np.load(path, allow_pickle=False)
    assert table.ndim == 1
    return table


def test_face_tables_hold_the_run_values(tile_path, trained, tmp_path):
    cfg = make_config(tile_path, trained, tmp_path / "run")
    result = run_pipeline(cfg, stop_after="planarity")
    feats = load_table(result.run_dir / "face_features.npy")
    names = face_channel_names(cfg)
    assert len(names) == 27
    assert feats.dtype.names == tuple(names)
    assert all(feats.dtype[n] == np.float64 for n in names)
    assert structured_to_unstructured(feats).tobytes() \
        == result.face_features.values.tobytes()

    plan = load_table(result.run_dir / "planarity.npy")
    assert plan.dtype == np.dtype([("planar_prob", "<f8"),
                                   ("nonplanar_geo", "<f8"),
                                   ("label", "<i4")])
    pm = result.probmap
    assert len(plan) == len(pm) == result.mesh.n_faces
    assert plan["planar_prob"].tobytes() \
        == np.asarray(pm.planar_prob, np.float64).tobytes()
    assert plan["nonplanar_geo"].tobytes() \
        == np.asarray(pm.g_hat, np.float64).tobytes()
    assert (plan["label"] == pm.label).all()


@pytest.fixture(scope="module")
def wrong_kind(tmp_path_factory):
    """A readable model of the wrong kind: three classes over the face
    channels, so it passes the input checks and fails inside the planarity
    stage."""
    names = face_channel_names()
    X = np.random.default_rng(0).random((60, len(names)))
    path = tmp_path_factory.mktemp("wrong") / "three_class.model"
    save_model(train_forest(X, np.arange(60) % 3, names,
                            PipelineConfig(trees=2)), path)
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
    assert (run_dir / "face_features.npy.partial").is_file()
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


def test_model_channel_names_are_input_error(tile_path, trained, tmp_path):
    # radii (1, 2, 4) give as many face channels as the default (0.5, 1, 2)
    cfg = make_config(tile_path, trained, tmp_path / "run",
                      eigen_radii=(1.0, 2.0, 4.0))
    assert len(face_channel_names(cfg)) \
        == trained["result"].planarity.n_features
    with pytest.raises(ConfigError) as err:
        run_pipeline(cfg)
    assert str(err.value).startswith(
        f"{trained['planarity']}: channel 0 is 'linearity_r0.5' in the "
        f"model but 'linearity_r1' in the features")
    assert not (tmp_path / "run").exists()


def count_segment_index(monkeypatch):
    """List of the argument tuples of every ``adjacency.segment_index``
    call, under every name a pssmesh module imported it as."""
    from pssmesh import adjacency
    original = adjacency.segment_index
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pssmesh" \
                and getattr(module, "segment_index", None) is original:
            monkeypatch.setattr(module, "segment_index", counted)
    return calls


def test_segment_index_derived_once_per_segmentation(tile_path, trained,
                                                     tmp_path, monkeypatch):
    calls = count_segment_index(monkeypatch)
    result = run_pipeline(make_config(tile_path, trained, tmp_path / "run"),
                          stop_after="graph")
    assert result.graph.n_nodes == result.segmentation.n_segments
    assert len(calls) == 1
    _, _, face_segment, n_segments = calls[0]
    assert np.array_equal(face_segment, result.segmentation.face_segment)
    assert n_segments == result.segmentation.n_segments

    # training segments each mesh once, in this process at threads=1
    calls.clear()
    result = train_models(PipelineConfig(trees=3, threads=1),
                          [synth_tile(SMALL), synth_tile(HELD_OUT)])
    assert len(calls) == 2
    assert sum(n_segments for *_, n_segments in calls) \
        == result.report["n_segments"]


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
    assert names == ["face_features.npy.partial", "notes.txt",
                     "repair_report.json.partial", "repaired.ply.partial"]
    assert set(first.manifest.outputs) == set(FULL_RUN_FILES)


def test_successful_rerun_leaves_no_partials(tile_path, trained, wrong_kind,
                                             tmp_path):
    run_dir = tmp_path / "run"
    run_pipeline(make_config(tile_path, trained, run_dir))
    with pytest.raises(StageError):
        run_pipeline(make_config(tile_path, trained, run_dir,
                                 planarity_model=wrong_kind))
    assert (run_dir / "face_features.npy.partial").is_file()
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
    assert (run_dir / "face_features.npy.partial").is_file()
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


def unlabeled(mesh):
    """``mesh`` without a label column, and with every face labeled -1."""
    return [replace(mesh, face_label=label)
            for label in (None, np.full(mesh.n_faces, -1))]


def test_unlabeled_mesh_skips_metrics(tile_path, trained, tmp_path):
    for i, mesh in enumerate(unlabeled(synth_tile(SMALL))):
        cfg = make_config(tile_path, trained, tmp_path / f"run{i}",
                          input_path=None)
        result = run_pipeline(cfg, mesh=mesh)
        assert "metrics skipped: no ground-truth labels" \
            in result.manifest.notes
        assert not (result.run_dir / "overseg_metrics.json").exists()
        assert not list(result.run_dir.glob("*.partial"))
        assert (result.run_dir / "manifest.json").is_file()
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


def test_segmentation_of_no_segments_loads(tmp_path):
    path = tmp_path / "seg.json"
    path.write_text('{"version": 1, "face_segment": [-1, -1], '
                    '"segment_type": [], "planes": []}')
    seg = load_segmentation(path)
    assert seg.n_segments == 0 and seg.planes.shape == (0, 4)


def test_segmentation_reads_nan_and_infinity_planes(tmp_path):
    # the tokens json writes for those floats are JSON numbers here
    path = tmp_path / "seg.json"
    path.write_text('{"version": 1, "face_segment": [0, 1], '
                    '"segment_type": [0, 1], "planes": '
                    '[[0, 0, 1, -Infinity], [NaN, NaN, NaN, NaN]]}')
    planes = load_segmentation(path).planes
    assert planes[0, 3] == -np.inf and np.isnan(planes[1]).all()


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


def npy_parts(path):
    """Format version, (shape, fortran order, dtype) and the data bytes of
    an ``.npy`` file, read by the format's own rules."""
    with open(path, "rb") as fh:
        version = np.lib.format.read_magic(fh)
        header = np.lib.format.read_array_header_1_0(fh)
        return version, header, fh.read()


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

    SegmentFeatures(values=values, channel_names=names).to_csv(got)
    assert got.read_bytes() == csv_reference(
        want, ["segment"] + names,
        ([k] + [repr(float(x)) for x in row] for k, row in enumerate(values)))

    pp, g = odd_floats(rng, 30), odd_floats(rng, 30, np.float32)
    label = rng.integers(0, 2, 30).astype(np.int32)
    save_planarity(ProbabilityMap(g_hat=g,
                                  label=label, planar_prob=pp), got)
    assert npy_parts(got) == (
        (1, 0),
        ((30,), False, np.dtype([("planar_prob", "<f8"),
                                 ("nonplanar_geo", "<f8"), ("label", "<i4")])),
        b"".join(struct.pack("<ddi", pp[i], g[i], label[i])
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


def test_face_tables_round_trip_bit_for_bit(tmp_path):
    rng = np.random.default_rng(11)
    names = face_channel_names()
    values = odd_floats(rng, (50, len(names)))
    assert np.isnan(values[0, 0]) and np.signbit(values[0, 3])
    path = tmp_path / "face_features.npy"
    FaceFeatures(values=values, channel_names=names).to_npy(path)
    table = load_table(path)
    assert table.dtype == np.dtype([(n, "<f8") for n in names])
    assert structured_to_unstructured(table).tobytes() == values.tobytes()
    assert npy_parts(path) == (
        (1, 0), ((50,), False, np.dtype([(n, "<f8") for n in names])),
        b"".join(struct.pack(f"<{len(names)}d", *row) for row in values))

    # a float32 g_hat widens exactly, its own subnormals included
    g = odd_floats(rng, 40, np.float32)
    g[-1] = np.finfo(np.float32).smallest_subnormal
    pp = odd_floats(rng, 40)
    label = rng.integers(0, 2, 40)
    save_planarity(ProbabilityMap(g_hat=g, label=label, planar_prob=pp), path)
    table = load_table(path)
    assert table.dtype.names == ("planar_prob", "nonplanar_geo", "label")
    assert table["planar_prob"].tobytes() == pp.tobytes()
    assert table["nonplanar_geo"].tobytes() == g.astype(np.float64).tobytes()
    assert table["nonplanar_geo"].astype(np.float32).tobytes() == g.tobytes()
    assert table["label"].dtype == np.int32
    assert (table["label"] == label).all()


def test_face_predictions_header_check(tmp_path):
    path = tmp_path / "pred.csv"
    path.write_text("foo,bar\n0,1\n")
    with pytest.raises(ValueError, match="face prediction"):
        load_face_predictions(path)


def test_resolve_threads(monkeypatch):
    assert resolve_threads(3) == 3
    # the CPUs this process may run on, not all the machine has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert resolve_threads(0) == 3
    # a platform without affinity masks
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert resolve_threads(0) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)   # unknown count
    assert resolve_threads(0) == 1


def test_train_models_gives_column_major_face_samples(monkeypatch):
    meshes = [synth_tile(SMALL), synth_tile(HELD_OUT)]
    config = PipelineConfig(trees=3, threads=1)
    samples = []

    def recording(X, *args, **kwargs):
        samples.append(X)
        return train_forest(X, *args, **kwargs)

    monkeypatch.setattr(pipeline, "train_forest", recording)
    train_models(config, meshes)
    want = np.vstack([compute_face_features(prepare_mesh(m, config)[0],
                                            config).values for m in meshes])
    # the planarity matrix, then the semantic one; with every face
    # labelled the forest reads the shared matrix itself
    assert len(samples) == 2 and samples[0].flags.f_contiguous
    assert isinstance(samples[0].base, mmap.mmap)
    assert np.array_equal(samples[0], want)


def test_unlabelled_faces_are_no_planarity_samples(monkeypatch):
    # the first tile's vehicle faces are unlabelled (-1)
    meshes = [synth_tile(SMALL), synth_tile(HELD_OUT)]
    meshes[0].face_label = np.where(meshes[0].face_label == 3, -1,
                                    meshes[0].face_label).astype(np.int32)
    config = PipelineConfig(trees=3, threads=1)
    fits = []

    def recording(X, y, *args, **kwargs):
        fits.append((X, y))
        return train_forest(X, y, *args, **kwargs)

    monkeypatch.setattr(pipeline, "train_forest", recording)
    result = train_models(config, meshes)
    label = np.concatenate([m.face_label for m in meshes])
    labelled = label >= 0
    assert 0 < (~labelled).sum() < meshes[0].n_faces
    want = np.vstack([compute_face_features(prepare_mesh(m, config)[0],
                                            config).values for m in meshes])
    X, y = fits[0]
    assert X.flags.f_contiguous
    assert np.array_equal(X, want[labelled])
    assert np.array_equal(y, np.isin(label[labelled], (2,)))
    assert result.report["n_face_samples"] == labelled.sum()


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
    mesh, _, _ = repair_nonmanifold(mesh)
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
    for mesh in unlabeled(synth_tile(SMALL)):
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


def test_single_class_training_data_is_input_error(tile_path, monkeypatch):
    fits = []
    fit = pipeline.train_forest
    monkeypatch.setattr(pipeline, "train_forest",
                        lambda *a, **k: fits.append(1) or fit(*a, **k))
    # class 9 is in the class table, but no face carries it
    cfg = PipelineConfig(trees=3, threads=1, nonplanar_classes=(9,),
                         classes={**DEFAULT_CLASSES, 9: "unused"})
    with pytest.raises(ConfigError, match=(
            f"^{re.escape(str(tile_path))}: every face is planar with "
            r"nonplanar_classes \[9\]")):
        train_models(cfg, [tile_path])
    assert not fits
    # every 29th face is terrain and the rest vegetation: the planarity
    # forest sees both sides, and every kept segment's majority is 2
    mesh = synth_tile(SMALL)
    mesh.face_label = np.full(mesh.n_faces, 2, dtype=np.int32)
    mesh.face_label[::29] = 0
    with pytest.raises(ConfigError, match=(
            r"^training mesh 0: the kept segments have majority labels "
            r"\[2\]")):
        train_models(PipelineConfig(trees=3, threads=1), [mesh])
    assert len(fits) == 1           # the planarity forest only


@pytest.mark.parametrize("ids", [(2, 9), (9,)])
def test_unknown_nonplanar_class_is_config_error(monkeypatch, ids):
    def no_prepare(*args, **kwargs):
        raise AssertionError("a mesh was prepared")

    monkeypatch.setattr(pipeline, "parallel_map", no_prepare)
    cfg = PipelineConfig(trees=3, threads=1, nonplanar_classes=ids)
    with pytest.raises(ConfigError, match=(
            r"^nonplanar_classes: class id 9 is not in the config's "
            r"classes \[0, 1, 2, 3\]")):
        train_models(cfg, [synth_tile(SMALL)])


@pytest.mark.parametrize("ids", [
    np.array([9, 3, 7, 9, 0], dtype=np.int32), [9, 3, 7], (7, 9)])
def test_check_classes_names_lowest_unknown_id(ids):
    with pytest.raises(ConfigError, match=r"^labels\.ply: label 7 is not "):
        pipeline.check_classes(ids, PipelineConfig(), "labels.ply", "label")
    pipeline.check_classes(np.array([3, 0, 3], dtype=np.int32),
                           PipelineConfig(), "labels.ply", "label")
    pipeline.check_classes([], PipelineConfig(), "labels.ply", "label")


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
