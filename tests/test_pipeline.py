"""Staged pipeline runner, artifact files, manifest, and training tests."""

import json

import numpy as np
import pytest

from pssmesh.config import ConfigError, PipelineConfig, override_config
from pssmesh.features import compute_face_features
from pssmesh.forest import planarity_map, save_model
from pssmesh.meshio import load_mesh, save_mesh
from pssmesh.pipeline import (
    STAGES,
    StageError,
    file_sha256,
    load_face_predictions,
    load_manifest,
    load_segmentation,
    resolve_threads,
    run_pipeline,
    save_face_predictions,
    save_segmentation,
    train_models,
)
from pssmesh.synth import TileParams, synth_tile

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
    reloaded = load_manifest(run_dir / "manifest.json")
    assert reloaded.as_dict() == man.as_dict()


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


def test_stage_failure_keeps_partials(tile_path, trained, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_bytes(b"not a model")
    cfg = make_config(tile_path, trained, tmp_path / "run",
                      planarity_model=str(bad))
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "planarity"
    assert "planarity" in str(err.value)
    run_dir = tmp_path / "run"
    assert (run_dir / "repaired.ply.partial").is_file()
    assert (run_dir / "face_features.csv.partial").is_file()
    assert not (run_dir / "repaired.ply").exists()
    assert not (run_dir / "manifest.json").exists()


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
    with pytest.raises(ConfigError, match="labels"):
        train_models(PipelineConfig(trees=5), [mesh])


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


def test_manifest_config_snapshot(tile_path, trained, tmp_path):
    cfg = make_config(tile_path, trained, tmp_path / "run", lambda_d=2.0)
    result = run_pipeline(cfg, stop_after="preprocess")
    with open(result.run_dir / "manifest.json") as fh:
        doc = json.load(fh)
    assert doc["config"]["lambda_d"] == 2.0
    assert doc["config"]["input_path"] == str(tile_path)
