"""Command-line interface tests; every call runs in-process via main()."""

import json

import pytest

from pssmesh.cli import main
from pssmesh.config import PipelineConfig
from pssmesh.meshio import load_mesh
from pssmesh.pipeline import load_manifest, run_pipeline


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with two tiles, trained models, and one finished run."""
    root = tmp_path_factory.mktemp("cliws")
    assert main(["synth", "--out", str(root), "--name", "tile.ply",
                 "--seed", "0", "--ground-res", "16", "--boxes", "2",
                 "--trees", "1", "--vehicles", "1"]) == 0
    assert main(["synth", "--out", str(root), "--name", "micro.ply",
                 "--seed", "2", "--ground-res", "8", "--boxes", "1",
                 "--trees", "0", "--vehicles", "0"]) == 0
    models = root / "models"
    assert main(["train", "--inputs", str(root / "tile.ply"),
                 "--out", str(models), "--trees", "10",
                 "--threads", "1"]) == 0
    run = root / "run"
    assert main(["pipeline", "--input", str(root / "tile.ply"),
                 "--out", str(run),
                 "--planarity-model", str(models / "planarity.model"),
                 "--semantic-model", str(models / "semantic.model"),
                 "--threads", "1"]) == 0
    return {"root": root, "tile": root / "tile.ply",
            "micro": root / "micro.ply", "models": models, "run": run}


def test_synth_reports_tile(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path), "--seed", "4",
                 "--ground-res", "8", "--boxes", "1", "--trees", "0",
                 "--vehicles", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "tile.ply").is_file()
    assert "wrote" in out and "2 ground-truth components" in out


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_no_command_is_usage_error():
    assert main([]) == 2


def test_unknown_command_is_usage_error():
    assert main(["warp"]) == 2


def test_unknown_flag_is_usage_error():
    assert main(["synth", "--out", "x", "--does-not-exist"]) == 2


def test_missing_input_exit_2(ws, tmp_path, capsys):
    code = main(["pipeline", "--input", "/nope/mesh.ply",
                 "--out", str(tmp_path),
                 "--planarity-model",
                 str(ws["models"] / "planarity.model")])
    assert code == 2
    assert "/nope/mesh.ply" in capsys.readouterr().err


def test_missing_model_exit_2(ws, tmp_path, capsys):
    code = main(["segment", "--input", str(ws["tile"]),
                 "--out", str(tmp_path),
                 "--planarity-model", str(tmp_path / "gone.model")])
    assert code == 2
    assert "gone.model" in capsys.readouterr().err


def test_required_flag_named_in_error(ws, tmp_path, capsys):
    code = main(["segment", "--input", str(ws["tile"]),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "--planarity-model" in capsys.readouterr().err


def test_broken_model_is_internal_error(ws, tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_bytes(b"junk")
    code = main(["segment", "--input", str(ws["tile"]),
                 "--out", str(tmp_path / "run"),
                 "--planarity-model", str(bad)])
    assert code == 1
    assert "planarity" in capsys.readouterr().err


def test_preprocess_manifold_unchanged(ws, tmp_path, capsys):
    code = main(["preprocess", "--input", str(ws["tile"]),
                 "--out", str(tmp_path / "run")])
    out = capsys.readouterr().out
    assert code == 0
    assert "welded 0 vertices" in out
    before = load_mesh(ws["tile"])
    after = load_mesh(tmp_path / "run" / "repaired.ply")
    assert after.n_faces == before.n_faces
    assert after.n_vertices == before.n_vertices


def test_pipeline_prints_scores(ws, capsys):
    run2 = ws["root"] / "run_again"
    code = main(["pipeline", "--input", str(ws["tile"]),
                 "--out", str(run2),
                 "--planarity-model", str(ws["models"] / "planarity.model"),
                 "--semantic-model", str(ws["models"] / "semantic.model")])
    out = capsys.readouterr().out
    assert code == 0
    assert "OP=" in out and "upper bound:" in out and "semantic:" in out


def test_cli_matches_library(ws, tmp_path):
    cfg = PipelineConfig(
        input_path=str(ws["tile"]), output_dir=str(tmp_path / "lib"),
        planarity_model=str(ws["models"] / "planarity.model"),
        semantic_model=str(ws["models"] / "semantic.model"))
    lib = run_pipeline(cfg)
    cli = load_manifest(ws["run"] / "manifest.json")
    assert cli.outputs == lib.manifest.outputs


def test_segment_prints_count(ws, tmp_path, capsys):
    code = main(["segment", "--input", str(ws["tile"]),
                 "--out", str(tmp_path / "run"),
                 "--planarity-model",
                 str(ws["models"] / "planarity.model")])
    out = capsys.readouterr().out
    assert code == 0
    assert "segments=" in out
    assert (tmp_path / "run" / "segmentation.json").is_file()
    assert not (tmp_path / "run" / "graph.json").exists()


def test_graph_prints_sizes(ws, tmp_path, capsys):
    code = main(["graph", "--input", str(ws["tile"]),
                 "--out", str(tmp_path / "run"),
                 "--planarity-model",
                 str(ws["models"] / "planarity.model")])
    out = capsys.readouterr().out
    assert code == 0
    assert "graph:" in out and "edges" in out
    assert (tmp_path / "run" / "graph.json").is_file()


def test_classify_prints_count(ws, tmp_path, capsys):
    code = main(["classify", "--input", str(ws["tile"]),
                 "--out", str(tmp_path / "run"),
                 "--planarity-model", str(ws["models"] / "planarity.model"),
                 "--semantic-model", str(ws["models"] / "semantic.model")])
    out = capsys.readouterr().out
    assert code == 0
    assert "classified" in out
    assert (tmp_path / "run" / "face_predictions.csv").is_file()


def test_eval_overseg(ws, tmp_path, capsys):
    code = main(["eval-overseg", "--input", str(ws["tile"]),
                 "--out", str(tmp_path),
                 "--segmentation", str(ws["run"] / "segmentation.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "OP=" in out
    with open(tmp_path / "overseg_metrics.json") as fh:
        doc = json.load(fh)
    assert 0.0 <= doc["op"] <= 1.0


def test_eval_overseg_co_index_error(ws, tmp_path, capsys):
    code = main(["eval-overseg", "--input", str(ws["micro"]),
                 "--out", str(tmp_path),
                 "--segmentation", str(ws["run"] / "segmentation.json")])
    assert code == 2
    assert "meshes not co-indexed" in capsys.readouterr().err


def test_eval_semantic_csv(ws, tmp_path, capsys):
    code = main(["eval-semantic",
                 "--pred", str(ws["run"] / "face_predictions.csv"),
                 "--gt", str(ws["tile"]), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "mIoU=" in out
    assert (tmp_path / "semantic_metrics.json").is_file()


def test_eval_semantic_mesh_pred(ws, tmp_path, capsys):
    code = main(["eval-semantic", "--pred", str(ws["run"] / "labeled.ply"),
                 "--gt", str(ws["tile"]), "--out", str(tmp_path)])
    assert code == 0
    assert "mIoU=" in capsys.readouterr().out


def test_eval_semantic_co_index_error(ws, tmp_path, capsys):
    code = main(["eval-semantic",
                 "--pred", str(ws["run"] / "face_predictions.csv"),
                 "--gt", str(ws["micro"]), "--out", str(tmp_path)])
    assert code == 2
    assert "meshes not co-indexed" in capsys.readouterr().err


def test_upper_bound_cmd(ws, tmp_path, capsys):
    code = main(["upper-bound", "--input", str(ws["tile"]),
                 "--out", str(tmp_path),
                 "--segmentation", str(ws["run"] / "segmentation.json")])
    assert code == 0
    assert "upper bound:" in capsys.readouterr().out
    assert (tmp_path / "upper_bound.json").is_file()


def test_train_requires_inputs():
    assert main(["train", "--inputs"]) == 2


def test_threads_env_must_be_integer(ws, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PSSNET_THREADS", "many")
    code = main(["train", "--inputs", str(ws["micro"]),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "PSSNET_THREADS" in capsys.readouterr().err


def test_config_file_with_flag_override(ws, tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "input_path": str(ws["tile"]),
        "planarity_model": str(ws["models"] / "planarity.model"),
        "lambda_d": 0.9}))
    code = main(["segment", "--config", str(cfg_path),
                 "--out", str(tmp_path / "run")])
    assert code == 0
    man = load_manifest(tmp_path / "run" / "manifest.json")
    assert man.config["lambda_d"] == 0.9
    assert man.config["output_dir"] == str(tmp_path / "run")


def test_bad_config_file_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text("{broken")
    code = main(["segment", "--config", str(cfg_path),
                 "--input", "x", "--out", "y"])
    assert code == 2
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [
    ("nan.obj", "v 0 0 0\nv nan 0 0\nv 0 1 0\nf 1 2 3\n"),
    ("tri.stl", "solid tri\nendsolid tri\n"),
], ids=["non-finite-vertex", "stl"])
def test_bad_mesh_input_exit_2(tmp_path, capsys, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    code = main(["preprocess", "--input", str(bad),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert str(bad) in capsys.readouterr().err
