"""Command-line interface tests; every call runs in-process via main()."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pssmesh.cli import build_parser, main, resolved_config
from pssmesh.config import DEFAULTS, PipelineConfig
from pssmesh.forest import load_model, save_model
from pssmesh.mesh import TriangleMesh
from pssmesh.meshio import load_mesh, save_mesh
from pssmesh.overseg import NONPLANAR
from pssmesh.pipeline import (load_segmentation, prepare_mesh, run_pipeline,
                              write_overseg_scores, write_upper_bound)
from pssmesh.synth import TileParams, synth_tile

from conftest import grid_mesh, unwelded, with_fin


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


def test_synth_unset_flags_keep_tile_defaults(tmp_path):
    assert main(["synth", "--out", str(tmp_path), "--ground-res", "8",
                 "--boxes", "1", "--trees", "0", "--vehicles", "0"]) == 0
    save_mesh(synth_tile(TileParams(ground_res=8, n_boxes=1, n_trees=0,
                                    n_vehicles=0)), tmp_path / "want.ply")
    assert (tmp_path / "tile.ply").read_bytes() \
        == (tmp_path / "want.ply").read_bytes()


def test_proximity_flag_and_config_key_are_usage_errors(ws, tmp_path,
                                                        capsys):
    # knn is the only proximity rule: no flag or config key picks another
    argv = ["graph", "--input", str(ws["tile"]), "--out",
            str(tmp_path / "run"), "--planarity-model",
            str(ws["models"] / "planarity.model")]
    assert main(argv + ["--proximity", "knn"]) == 2
    assert "unrecognized arguments: --proximity knn" \
        in capsys.readouterr().err
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text('{"proximity_mode": "knn"}')
    assert main(argv + ["--config", str(cfg_path)]) == 2
    assert f"config {cfg_path}: unknown config key 'proximity_mode'" \
        in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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


@pytest.fixture(scope="module")
def millimetre_tile(tmp_path_factory):
    """A 16 m tile with its vertices in millimetres: 5,188 faces asking
    for about 6.1e9 exmat samples at the default density."""
    mesh = synth_tile(TileParams(ground_size=16.0, ground_res=32, n_boxes=2,
                                 n_trees=2, n_vehicles=1, seed=0))
    path = tmp_path_factory.mktemp("mm") / "tile-mm.ply"
    save_mesh(replace(mesh, vertices=mesh.vertices * 1e3), path)
    return path


@pytest.mark.parametrize("command", ["pipeline", "graph"])
def test_mesh_in_millimetres_exit_2(ws, millimetre_tile, tmp_path, capsys,
                                    command):
    # rejected with the input checks, before any stage runs, not by the
    # graph stage's request for 6e9 sample points
    code = main([command, "--input", str(millimetre_tile),
                 "--out", str(tmp_path / "run"),
                 "--planarity-model", str(ws["models"] / "planarity.model")])
    assert code == 2
    err = capsys.readouterr().err
    area = load_mesh(millimetre_tile).face_area.sum()
    assert str(millimetre_tile) in err and f"area {area:g} m^2" in err
    assert "sampling_density 10 per m^2" in err and "is the mesh in metres" \
        in err
    assert not (tmp_path / "run").exists()


def test_mesh_in_millimetres_preprocesses(millimetre_tile, tmp_path):
    # the check guards the graph stage only: preprocess draws no sample
    assert main(["preprocess", "--input", str(millimetre_tile),
                 "--out", str(tmp_path / "run")]) == 0


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


def tree0_field(good, field):
    """Byte offset of field ("feature" or "left") of node 0 of tree 0."""
    nlay = int.from_bytes(good[8:12], "little")
    ncls = int.from_bytes(good[20 + nlay:24 + nlay], "little")
    tree0 = 24 + nlay + 4 * ncls + 8
    n = int.from_bytes(good[tree0:tree0 + 4], "little")
    return tree0 + 4 + {"feature": 0, "left": 12 * n}[field]


def set_tree0(good, field, value):
    at = tree0_field(good, field)
    return good[:at] + value.to_bytes(4, "little", signed=True) + good[at + 4:]


def resaved(good, change):
    """The model file ``good``, loaded, passed through ``change`` and saved
    again: a model ``save_model`` writes but ``train_forest`` never makes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.model"
        path.write_bytes(good)
        save_model(change(load_model(path)), path)
        return path.read_bytes()


def one_class(model):
    return replace(model, classes=model.classes[:1], trees=[
        replace(t, proba=np.ones((len(t.feature), 1))) for t in model.trees])


BAD_MODELS = {
    "child-out-of-tree": lambda good: set_tree0(good, "left", 10**6),
    "feature-out-of-range": lambda good: set_tree0(good, "feature", 10**6),
    "bad-leaf-mark": lambda good: set_tree0(good, "feature", -2),
    "bad-magic": lambda good: b"junk",
    "empty": lambda good: b"",
    "truncated": lambda good: good[:len(good) // 2],
    "wrong-version": lambda good: good[:4] + (99).to_bytes(4, "little")
    + good[8:],
    "trailing-bytes": lambda good: good + b"\x00",
    # a planarity model without trees made every g_hat NaN, and a
    # one-class semantic model gave every segment its class
    "no-trees": lambda good: resaved(good, lambda m: replace(m, trees=[])),
    "one-class": lambda good: resaved(good, one_class),
}


@pytest.mark.parametrize("which", ["planarity", "semantic"])
@pytest.mark.parametrize("kind", list(BAD_MODELS))
def test_bad_model_exit_2(ws, tmp_path, capsys, kind, which):
    models = {name: ws["models"] / f"{name}.model"
              for name in ("planarity", "semantic")}
    bad = tmp_path / "bad.model"
    bad.write_bytes(BAD_MODELS[kind](models[which].read_bytes()))
    models[which] = bad
    code = main(["pipeline", "--input", str(ws["tile"]),
                 "--out", str(tmp_path / "run"),
                 "--planarity-model", str(models["planarity"]),
                 "--semantic-model", str(models["semantic"]),
                 "--threads", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "byte offset" in err
    assert not (tmp_path / "run").exists()      # no stage ran


def test_model_of_other_radii_exit_2(ws, tmp_path, capsys):
    # radii (1, 2, 4) give the 27 channels of the default radii, named
    # otherwise
    model = ws["models"] / "planarity.model"
    code = main(["pipeline", "--input", str(ws["tile"]),
                 "--out", str(tmp_path / "run"),
                 "--planarity-model", str(model),
                 "--semantic-model", str(ws["models"] / "semantic.model"),
                 "--eigen-radii", "1", "2", "4", "--threads", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(model) in err and "'linearity_r1'" in err
    assert not (tmp_path / "run").exists()      # no stage ran


def test_preprocess_manifold_unchanged(ws, tmp_path, capsys):
    code = main(["preprocess", "--input", str(ws["tile"]),
                 "--out", str(tmp_path / "run")])
    out = capsys.readouterr().out
    assert code == 0
    assert "welded 0 vertices, repaired 0 non-manifold edges, split 0" in out
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
    cli = json.loads((ws["run"] / "manifest.json").read_text())
    assert cli["outputs"] == lib.manifest.outputs


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


def test_eval_semantic_upper_case_csv_suffix(ws, tmp_path):
    lower = ws["run"] / "face_predictions.csv"
    upper = tmp_path / "PRED.CSV"
    upper.write_bytes(lower.read_bytes())
    for pred, out in ((lower, "lower"), (upper, "upper")):
        assert main(["eval-semantic", "--pred", str(pred), "--gt",
                     str(ws["tile"]), "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "upper" / "semantic_metrics.json").read_bytes() \
        == (tmp_path / "lower" / "semantic_metrics.json").read_bytes()


def test_eval_semantic_mesh_pred(ws, tmp_path, capsys):
    code = main(["eval-semantic", "--pred", str(ws["run"] / "labeled.ply"),
                 "--gt", str(ws["tile"]), "--out", str(tmp_path)])
    assert code == 0
    assert "mIoU=" in capsys.readouterr().out


@pytest.mark.parametrize("which", ["pred", "gt"])
def test_eval_semantic_label_outside_classes_exit_2(ws, tmp_path, capsys,
                                                    which):
    mesh = load_mesh(ws["tile"])
    mesh.face_label[5] = 7
    odd = tmp_path / "odd.ply"
    save_mesh(mesh, odd)
    paths = {"pred": ws["tile"], "gt": ws["tile"], which: odd}
    code = main(["eval-semantic", "--pred", str(paths["pred"]),
                 "--gt", str(paths["gt"]), "--out", str(tmp_path / "ev")])
    assert code == 2
    what = "predicted" if which == "pred" else "ground-truth"
    assert f"{odd}: {what} label 7 is not in the config's classes" \
        in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def test_eval_semantic_csv_class_outside_classes_exit_2(ws, tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    rows = (ws["run"] / "face_predictions.csv").read_text().splitlines()
    rows[1] = rows[1].split(",")[0] + ",7"
    pred.write_text("\n".join(rows) + "\n")
    code = main(["eval-semantic", "--pred", str(pred), "--gt", str(ws["tile"]),
                 "--out", str(tmp_path / "ev")])
    assert code == 2
    assert f"{pred}: predicted label 7 is not in the config's classes" \
        in capsys.readouterr().err


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


@pytest.fixture(scope="module")
def scored_runs(ws):
    """case -> (input mesh, its pipeline run) for the workspace tile, an
    unwelded copy and a copy with a non-manifold fin."""
    mesh = load_mesh(ws["tile"])
    runs = {"plain": (ws["tile"], ws["run"])}
    for case, copy in (("unwelded", unwelded(mesh)), ("fin", with_fin(mesh))):
        path, run = ws["root"] / f"{case}.ply", ws["root"] / f"run-{case}"
        save_mesh(copy, path)
        assert main(["pipeline", "--input", str(path), "--out", str(run),
                     *model_flags(ws), "--threads", "1"]) == 0
        runs[case] = (path, run)
    return runs


SCORE_FILES = {"eval-overseg": ["overseg_metrics.json", "metrics_row.csv"],
               "upper-bound": ["upper_bound.json"],
               "eval-semantic": ["semantic_metrics.json"]}


@pytest.mark.parametrize("source", ["input", "repaired"])
@pytest.mark.parametrize("case", ["plain", "unwelded", "fin"])
def test_eval_commands_write_the_run_scores(scored_runs, tmp_path, case,
                                            source):
    # the eval commands score the welded and repaired mesh, as the run does
    path, run = scored_runs[case]
    mesh = str(path if source == "input" else run / "repaired.ply")
    seg = ["--input", mesh, "--segmentation", str(run / "segmentation.json")]
    args = {"eval-overseg": seg, "upper-bound": seg,
            "eval-semantic": ["--gt", mesh, "--pred",
                              str(run / "face_predictions.csv")]}
    for command, names in SCORE_FILES.items():
        out = tmp_path / command
        assert main([command, *args[command], "--out", str(out)]) == 0
        for name in names:
            assert (out / name).read_bytes() == (run / name).read_bytes(), \
                (command, name)


def test_eval_commands_take_weld_eps(ws, tmp_path):
    # a wide weld radius moves vertices, and so face areas and scores
    cfg = PipelineConfig(weld_epsilon=0.3)
    mesh, _, adjacency = prepare_mesh(load_mesh(ws["tile"]), cfg)
    seg = load_segmentation(ws["run"] / "segmentation.json")
    want = tmp_path / "want"
    want.mkdir()

    def emit(name, writer):
        writer(want / name)

    write_overseg_scores(emit, mesh, adjacency, seg, cfg)
    write_upper_bound(emit, mesh, seg)
    for command in ("eval-overseg", "upper-bound"):
        assert main([command, "--input", str(ws["tile"]), "--segmentation",
                     str(ws["run"] / "segmentation.json"), "--weld-eps",
                     "0.3", "--out", str(tmp_path / "ev")]) == 0
    for name in ("overseg_metrics.json", "metrics_row.csv",
                 "upper_bound.json"):
        assert (tmp_path / "ev" / name).read_bytes() \
            == (want / name).read_bytes(), name
    assert (want / "upper_bound.json").read_bytes() \
        != (ws["run"] / "upper_bound.json").read_bytes()


@pytest.fixture(scope="module")
def unlabeled_tile(ws):
    """The workspace tile with every face labeled -1."""
    mesh = load_mesh(ws["tile"])
    path = ws["root"] / "unlabeled.ply"
    save_mesh(replace(mesh, face_label=np.full(mesh.n_faces, -1)), path)
    return path


@pytest.mark.parametrize("command", ["eval-overseg", "upper-bound",
                                     "eval-semantic", "train"])
def test_all_unlabeled_ground_truth_exit_2(ws, unlabeled_tile, tmp_path,
                                           capsys, command):
    seg = ["--input", str(unlabeled_tile),
           "--segmentation", str(ws["run"] / "segmentation.json")]
    args = {"eval-overseg": seg, "upper-bound": seg,
            "eval-semantic": ["--gt", str(unlabeled_tile), "--pred",
                              str(ws["run"] / "face_predictions.csv")],
            "train": ["--inputs", str(unlabeled_tile), "--trees", "5"]}
    code = main([command, *args[command], "--out", str(tmp_path / "ev")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(unlabeled_tile) in err and "no ground-truth labels" in err
    assert not (tmp_path / "ev").exists()


def test_all_unlabeled_prediction_scores(ws, unlabeled_tile, tmp_path,
                                         capsys):
    # a predicted mesh may label no face: it scores, it is no input error
    code = main(["eval-semantic", "--pred", str(unlabeled_tile),
                 "--gt", str(ws["tile"]), "--out", str(tmp_path)])
    assert code == 0
    assert json.loads((tmp_path / "semantic_metrics.json").read_text())[
        "miou"] == 0.0


def test_train_requires_inputs():
    assert main(["train", "--inputs"]) == 2


def test_single_class_training_data_exit_2(ws, tmp_path, capsys):
    # class 9 is in the class table, but no face carries it
    classes = {**{str(k): v for k, v in DEFAULTS["classes"].items()},
               "9": "unused"}
    code = main(["train", "--nonplanar-classes", "9", "--trees", "3",
                 "--classes", json.dumps(classes),
                 "--inputs", str(ws["micro"]), "--out", str(tmp_path / "m")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(ws["micro"]) in err and "nonplanar_classes [9]" in err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("ids", [["2", "9"], ["9"]])
def test_unknown_nonplanar_class_exit_2(ws, tmp_path, capsys, ids):
    code = main(["train", "--nonplanar-classes", *ids, "--trees", "3",
                 "--inputs", str(ws["micro"]), "--out", str(tmp_path / "m")])
    assert code == 2
    assert "nonplanar_classes: class id 9 is not in the config's classes" \
        in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("command", ["train", "pipeline"])
def test_radii_naming_one_channel_twice_exit_2(ws, tmp_path, capsys, command):
    code = main([command, "--eigen-radii", "1", "1.0000001",
                 "--inputs" if command == "train" else "--input",
                 str(ws["micro"]), "--out", str(tmp_path / "run"),
                 "--planarity-model", str(ws["models"] / "planarity.model")])
    assert code == 2
    assert "eigen_radii gives two channels the suffix '_r1'" \
        in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_file_with_flag_override(ws, tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "input_path": str(ws["tile"]),
        "planarity_model": str(ws["models"] / "planarity.model"),
        "lambda_d": 0.9}))
    code = main(["segment", "--config", str(cfg_path),
                 "--out", str(tmp_path / "run")])
    assert code == 0
    man = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert man["config"]["lambda_d"] == 0.9
    assert man["config"]["output_dir"] == str(tmp_path / "run")


def test_bad_config_file_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text("{broken")
    code = main(["segment", "--config", str(cfg_path),
                 "--input", "x", "--out", "y"])
    assert code == 2
    assert "JSON" in capsys.readouterr().err


# field -> (flag and its arguments, the value the config gets)
FLAG_VALUES = {
    "input_path": (["--input", "in.ply"], "in.ply"),
    "output_dir": (["--out", "run"], "run"),
    "planarity_model": (["--planarity-model", "p.model"], "p.model"),
    "semantic_model": (["--semantic-model", "s.model"], "s.model"),
    "weld_epsilon": (["--weld-eps", "2e-5"], 2e-5),
    "eigen_radii": (["--eigen-radii", "0.25", "4"], (0.25, 4.0)),
    "elevation_radii": (["--elevation-radii", "5"], (5.0,)),
    "trees": (["--trees", "7"], 7),
    "min_leaf": (["--min-leaf", "3"], 3),
    "max_depth": (["--max-depth", "9"], 9),
    "lambda_d": (["--lambda-d", "0.7"], 0.7),
    "lambda_m": (["--lambda-m", "0.3"], 0.3),
    "lambda_g": (["--lambda-g", "0.4"], 0.4),
    "parallel_angle_deg": (["--parallel-angle-deg", "7.5"], 7.5),
    "ground_radius": (["--ground-radius-m", "12"], 12.0),
    "knn_k": (["--knn-k", "8"], 8),
    "knn_cutoff_factor": (["--knn-cutoff-factor", "4.5"], 4.5),
    "sampling_density": (["--sampling-density", "3"], 3.0),
    "boundary_rings": (["--rings", "1"], 1),
    "nonplanar_classes": (["--nonplanar-classes", "2", "3"], (2, 3)),
    "seed": (["--seed", "11"], 11),
    "threads": (["--threads", "2"], 2),
    "classes": (["--classes", '{"0": "ground", "7": "roof"}'],
                {0: "ground", 7: "roof"}),
}


@pytest.mark.parametrize("command", [
    ["preprocess"], ["segment"], ["graph"], ["classify"], ["pipeline"],
    ["train", "--inputs", "a.ply"],
    ["eval-overseg", "--segmentation", "s.json"],
    ["eval-semantic", "--pred", "p.csv", "--gt", "g.ply"],
    ["upper-bound", "--segmentation", "s.json"],
], ids=lambda c: c[0])
def test_every_config_field_has_a_flag(command):
    assert set(FLAG_VALUES) == set(DEFAULTS)
    argv = command + [a for flag, _ in FLAG_VALUES.values() for a in flag]
    cfg = resolved_config(build_parser().parse_args(argv))
    for name, (_, value) in FLAG_VALUES.items():
        assert getattr(cfg, name) == value, name


def run_config(run_dir):
    return json.loads((run_dir / "manifest.json").read_text())["config"]


def test_graph_and_train_take_weld_eps(ws, tmp_path):
    assert main(["graph", "--input", str(ws["tile"]),
                 "--out", str(tmp_path / "run"),
                 "--planarity-model", str(ws["models"] / "planarity.model"),
                 "--weld-eps", "1e-5"]) == 0
    assert run_config(tmp_path / "run")["weld_epsilon"] == 1e-5
    assert main(["train", "--inputs", str(ws["tile"]),
                 "--out", str(tmp_path / "models"), "--trees", "3",
                 "--threads", "1", "--weld-eps", "1e-5"]) == 0
    assert (tmp_path / "models" / "semantic.model").is_file()


def test_new_flags_reach_manifest(ws, tmp_path):
    classes = {"0": "ground", "1": "roof", "2": "tree", "3": "car"}
    assert main(["pipeline", "--input", str(ws["tile"]),
                 "--out", str(tmp_path / "run"),
                 "--planarity-model", str(ws["models"] / "planarity.model"),
                 "--semantic-model", str(ws["models"] / "semantic.model"),
                 "--eigen-radii", "0.5", "1", "2", "--knn-k", "8",
                 "--classes", json.dumps(classes), "--threads", "1"]) == 0
    cfg = run_config(tmp_path / "run")
    assert cfg["eigen_radii"] == [0.5, 1.0, 2.0]
    assert cfg["knn_k"] == 8 and cfg["classes"] == classes


def test_model_feature_count_mismatch_exit_2(ws, tmp_path, capsys):
    code = main(["pipeline", "--input", str(ws["tile"]),
                 "--out", str(tmp_path / "run"),
                 "--planarity-model", str(ws["models"] / "planarity.model"),
                 "--eigen-radii", "1", "2"])
    assert code == 2
    assert str(ws["models"] / "planarity.model") in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value", [
    ("trees", "many"), ("trees", 2.5), ("seed", True), ("lambda_d", None),
    ("lambda_d", False), ("eigen_radii", 2.0), ("eigen_radii", ["a"]),
    ("nonplanar_classes", [2.5]), ("classes", [1, 2]),
    ("classes", {"x": "a"}), ("classes", {"1": 2}), ("input_path", 3),
    ("eigen_radii", []),
])
def test_wrongly_typed_config_value_exit_2(ws, tmp_path, capsys, key, value):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({key: value}))
    code = main(["segment", "--config", str(cfg_path),
                 "--input", str(ws["tile"]), "--out", str(tmp_path / "run"),
                 "--planarity-model", str(ws["models"] / "planarity.model")])
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and str(cfg_path) in err
    assert not (tmp_path / "run").exists()


TRI_PLY = ("ply\nformat ascii 1.0\nelement vertex 3\nproperty double x\n"
           "property double y\nproperty double z\nelement face 1\n"
           "property list uchar int vertex_indices\n{label}end_header\n"
           "{vertex}\n1 0 0\n0 1 0\n3 0 1 2{face}\n")


@pytest.mark.parametrize("name, text", [
    ("nan.obj", "v 0 0 0\nv nan 0 0\nv 0 1 0\nf 1 2 3\n"),
    ("tri.stl", "solid tri\nendsolid tri\n"),
    ("verts.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\n"),
    ("bare.ply", "ply\nformat ascii 1.0\nelement vertex 3\nproperty\n"
                 "end_header\n"),
    ("extra.ply", TRI_PLY.format(label="", vertex="0 0 0 7 7", face="")),
    ("uint.ply", TRI_PLY.format(label="property uint label\n",
                                vertex="0 0 0", face=" 4294967295")),
], ids=["non-finite-vertex", "stl", "no-faces", "bare-property",
        "extra-values", "uint-label"])
def test_bad_mesh_input_exit_2(tmp_path, capsys, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    code = main(["preprocess", "--input", str(bad),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval-overseg", "upper-bound"])
@pytest.mark.parametrize("text", [
    '{"version": 1, "face_segment": [0, 1',
    '{"version": 1, "segment_type": [0], "planes": [[0, 0, 1, 0]]}',
    '{"version": 2, "face_segment": [0], "segment_type": [0], "planes": []}',
    '{"version": 1, "face_segment": [0, 0.5], "segment_type": [0], '
    '"planes": [[0, 0, 1, 0]]}',
    '{"version": 1, "face_segment": [0, 1, 2, 3, 4], "segment_type": [0, 0], '
    '"planes": [[0, 0, 1, 0]]}',
    '{"version": 1, "face_segment": [0, 1], "segment_type": [0, 0], '
    '"planes": [[0, 0, 1, 0]]}',
    # 4 rows of 3 hold 12 numbers, as 3 rows of 4 do
    '{"version": 1, "face_segment": [0, 1, 2], "segment_type": [0, 0, 1], '
    '"planes": [[0, 0, 1], [0, 0, 1], [0, 0, 1], [0, 0, 1]]}',
    '{"version": 1, "face_segment": [0, 1], "segment_type": [0, 2], '
    '"planes": [[0, 0, 1, 0], [0, 0, 1, 0]]}',
    # a plane value must be a JSON number: null, "0" and true are not
    *('{"version": 1, "face_segment": [0], "segment_type": [0], '
      f'"planes": [[{v}, 0, 1, 0]]}}' for v in ("null", '"0"', "true")),
], ids=["truncated", "missing-key", "version", "non-integer",
        "ids-beyond-types", "planes-not-one-per-type", "planes-rows-of-3",
        "segment-type-2", "plane-null", "plane-string", "plane-true"])
def test_bad_segmentation_exit_2(ws, tmp_path, capsys, command, text):
    bad = tmp_path / "seg.json"
    bad.write_text(text)
    code = main([command, "--input", str(ws["tile"]),
                 "--segmentation", str(bad), "--out", str(tmp_path / "ev")])
    assert code == 2
    assert str(bad) in capsys.readouterr().err


def test_eval_overseg_scores_move_with_the_segmentation(tmp_path, capsys):
    # an 8 x 8 grid of 0.5 m quads whose 4 x 4-quad corner block is label 1:
    # a ground truth with a boundary, which no synthetic tile has (each of
    # its objects is a shell of its own)
    quad = np.arange(64)
    labels = np.repeat(((quad // 8 < 4) & (quad % 8 < 4)).astype(int), 2)
    sheet = tmp_path / "sheet.ply"
    save_mesh(grid_mesh(8, 8, dx=0.5, labels=labels), sheet)

    def scores(name, face_segment):
        k = int(face_segment.max()) + 1
        seg = tmp_path / f"{name}.json"
        seg.write_text(json.dumps({
            "version": 1, "face_segment": face_segment.tolist(),
            "segment_type": [0] * k, "planes": [[0, 0, 1, 0]] * k}))
        assert main(["eval-overseg", "--input", str(sheet), "--segmentation",
                     str(seg), "--out", str(tmp_path / name)]) == 0
        return json.loads(
            (tmp_path / name / "overseg_metrics.json").read_text())

    truth = scores("truth", labels)
    merged = scores("merged", np.zeros(128, dtype=int))
    faces = scores("faces", np.arange(128))
    assert (truth["op"], truth["bp"], truth["br"]) == (1.0, 1.0, 1.0)
    assert "empty_gt_boundary" not in truth["flags"]
    assert merged["op"] < truth["op"] and merged["br"] < truth["br"]
    assert faces["bp"] < truth["bp"]
    assert faces["op"] == faces["br"] == 1.0


@pytest.mark.parametrize("rows", [
    "0,1\n-1,3\n", "0,1\n2,3\n", "0,1\n0,3\n", "0,1\n1,x\n",
], ids=["negative-id", "out-of-range-id", "repeated-id", "non-integer"])
def test_bad_face_predictions_exit_2(tmp_path, capsys, rows):
    gt = tmp_path / "gt.ply"
    save_mesh(TriangleMesh(vertices=np.eye(4, 3), faces=[[0, 1, 2], [1, 3, 2]],
                           face_label=np.array([1, 3], dtype=np.int32)), gt)
    pred = tmp_path / "pred.csv"
    pred.write_text("face,class\n" + rows)
    code = main(["eval-semantic", "--pred", str(pred), "--gt", str(gt),
                 "--out", str(tmp_path / "ev")])
    assert code == 2
    assert f"{pred}: row 3" in capsys.readouterr().err


# an input file the command cannot read -> (file name, the bytes it holds
# or None for a directory, command and the flag that names the file, what
# the message names after the path)
UNREADABLE = {
    "config-not-utf8": ("run.json", b'{"lambda_d": 1.0,\n "trees": "\xff"}',
                        "segment --config", ": line 2: not UTF-8"),
    "pred-not-utf8": ("pred.csv", b"face,class\n0,1\n1,\xff\n",
                      "eval-semantic --pred", ": line 3: not UTF-8"),
    "pred-class-beyond-int64": ("pred.csv",
                                b"face,class\n0,1\n1,99999999999999999999\n",
                                "eval-semantic --pred", ": row 3: class id"),
    "segmentation-directory": ("seg.json", None, "eval-overseg --segmentation",
                               ": is a directory"),
    "pred-directory": ("pred.csv", None, "eval-semantic --pred",
                       ": is a directory"),
    "config-directory": ("run.json", None, "segment --config",
                         ": is a directory"),
    "mesh-directory": ("tile.ply", None, "preprocess --input",
                       ": is a directory"),
    "model-directory": ("planarity.model", None, "segment --planarity-model",
                        ": is a directory"),
}


def run_with_input(tmp_path, bad, call):
    """Exit code of ``call``, a command and the flag given ``bad``, with a
    labeled mesh for its other inputs, and the ``--out`` path it got."""
    gt = tmp_path / "gt.ply"
    save_mesh(TriangleMesh(vertices=np.eye(4, 3), faces=[[0, 1, 2], [1, 3, 2]],
                           face_label=np.array([1, 3], dtype=np.int32)), gt)
    command, flag = call.split()
    others = {"--config": ["--input", str(gt)], "--pred": ["--gt", str(gt)],
              "--segmentation": ["--input", str(gt)], "--input": [],
              "--planarity-model": ["--input", str(gt)]}[flag]
    out = tmp_path / "out"
    return main([command, flag, str(bad), *others, "--out", str(out)]), out


@pytest.mark.parametrize("case", list(UNREADABLE))
def test_unreadable_input_file_exit_2(tmp_path, capsys, case):
    name, data, call, message = UNREADABLE[case]
    bad = tmp_path / name
    if data is None:
        bad.mkdir()
    else:
        bad.write_bytes(data)
    code, out = run_with_input(tmp_path, bad, call)
    assert code == 2
    assert f"{bad}{message}" in capsys.readouterr().err
    assert not out.exists()


def test_input_file_without_read_permission_exit_2(tmp_path, capsys,
                                                   monkeypatch):
    # file modes do not stop every user from reading, so the error is made
    bad = tmp_path / "run.json"
    bad.write_text("{}")
    read_bytes = Path.read_bytes

    def denied(self):
        if self == bad:
            raise PermissionError(13, "Permission denied", str(self))
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", denied)
    code, out = run_with_input(tmp_path, bad, "segment --config")
    assert code == 2
    assert f"{bad}: cannot read: Permission denied" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("call, kind", [
    ("eval-overseg --segmentation", "segmentation"),
    ("eval-semantic --pred", "prediction"),
], ids=["segmentation", "pred"])
def test_missing_input_file_named_exit_2(tmp_path, capsys, call, kind):
    # named like any missing input, not by the operating system's error text
    bad = tmp_path / "missing.csv"
    code, out = run_with_input(tmp_path, bad, call)
    assert code == 2
    assert capsys.readouterr().err == f"error: {kind} file not found: {bad}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, seed", [
    ("train", "-1"), ("train", str(2 ** 63)), ("pipeline", "-1"),
    ("pipeline", str(2 ** 63)), ("synth", "-1"),
])
def test_seed_outside_int64_exit_2(ws, tmp_path, capsys, command, seed):
    # model files hold the seed as an int64, and numpy's generators take no
    # negative seed; both used to fail deep inside a run, after writing
    args = {"train": ["--inputs", str(ws["micro"]), "--trees", "3"],
            "pipeline": ["--input", str(ws["micro"]), "--planarity-model",
                         str(ws["models"] / "planarity.model")],
            "synth": ["--ground-res", "8"]}[command]
    code = main([command, "--seed", seed, "--out", str(tmp_path / "run"),
                 *args])
    assert code == 2
    assert "seed must" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags, message", [
    (["--ground-res", "0"], "ground_size and ground_res must be positive"),
    (["--ground-size", "8", "--boxes", "20"],
     "cannot place 20 boxes, 6 trees and 3 vehicles apart on a 8 m tile"),
    (["--name", "tile.obj"], "--name tile.obj: synth writes .ply only"),
], ids=["ground-res-0", "crowded", "obj-name"])
def test_synth_usage_errors_exit_2(tmp_path, capsys, flags, message):
    code = main(["synth", "--out", str(tmp_path / "data"), *flags])
    assert code == 2
    err = capsys.readouterr().err
    # a usage error, not "error: ValueError: ..." or "RuntimeError: ..."
    assert message in err and "Error:" not in err
    assert not (tmp_path / "data").exists()


def parallel_edges(run):
    graph = json.loads((run / "graph.json").read_text())
    return sum("parallelism" in e["types"] for e in graph["edges"])


@pytest.fixture(scope="module")
def tile16(ws, tmp_path_factory):
    """The seed-0 16 m tile and the parallelism edges of its pipeline run."""
    root = tmp_path_factory.mktemp("tile16")
    mesh = synth_tile(TileParams(ground_size=16.0, ground_res=32, n_boxes=2,
                                 n_trees=2, n_vehicles=1, seed=0))
    assert main(["pipeline", "--input", str(save_ply(mesh, root / "t.ply")),
                 "--out", str(root / "run"), *model_flags(ws),
                 "--threads", "1"]) == 0
    return mesh, parallel_edges(root / "run")


def save_ply(mesh, path):
    save_mesh(mesh, path)
    return path


def model_flags(ws):
    return ["--planarity-model", str(ws["models"] / "planarity.model"),
            "--semantic-model", str(ws["models"] / "semantic.model")]


def with_zero_area_face(mesh, case):
    """``mesh`` plus one face without area, labelled 0: a repeated corner,
    three collinear corners, or two corners that welding joins."""
    nv = mesh.n_vertices
    new_vertices, face = {
        "collapsed": ([], [0, 0, 1]),
        "collinear": ([[1, 1, 10], [2, 1, 10], [3, 1, 10]],
                      [nv, nv + 1, nv + 2]),
        "weld-collapsed": ([[5, 5, 10], [5, 5, 10 + 1e-9], [6, 5, 10]],
                           [nv, nv + 1, nv + 2]),
    }[case]
    return TriangleMesh(
        vertices=np.vstack([mesh.vertices, np.reshape(new_vertices, (-1, 3))]),
        faces=np.vstack([mesh.faces, face]),
        face_color=np.vstack([mesh.face_color, [[90, 90, 90]]]),
        face_label=np.append(mesh.face_label, 0))


@pytest.mark.parametrize("case", ["collapsed", "collinear", "weld-collapsed"])
def test_zero_area_face_runs_through(ws, tile16, tmp_path, case):
    # the face forms a NONPLANAR segment of its own and adds no
    # parallelism edge
    mesh, want_parallel = tile16
    path = save_ply(with_zero_area_face(mesh, case), tmp_path / "bad.ply")
    assert main(["train", "--inputs", str(path), "--out",
                 str(tmp_path / "models"), "--trees", "5",
                 "--threads", "1"]) == 0
    run = tmp_path / "run"
    assert main(["pipeline", "--input", str(path), "--out", str(run),
                 *model_flags(ws), "--threads", "1"]) == 0
    seg = json.loads((run / "segmentation.json").read_text())
    last = seg["face_segment"][-1]
    assert seg["face_segment"].count(last) == 1
    assert seg["segment_type"][last] == NONPLANAR
    assert parallel_edges(run) == want_parallel


def test_zero_area_segment_is_a_training_sample(tile16, tmp_path):
    # the collapsed face's segment votes by face count, so it gets its
    # face's label and training keeps every segment
    path = save_ply(with_zero_area_face(tile16[0], "collapsed"),
                    tmp_path / "bad.ply")
    assert main(["train", "--inputs", str(path), "--out",
                 str(tmp_path / "models"), "--threads", "1"]) == 0
    report = json.loads((tmp_path / "models" / "train_report.json").read_text())
    assert report["n_segment_samples"] == report["n_segments"] == 19
