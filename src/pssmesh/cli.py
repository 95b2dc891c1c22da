"""Command-line interface over the library pipeline.

Every subcommand but ``synth`` resolves its settings the same way:
built-in defaults, then an optional JSON config file, then explicit flags.
Each takes one flag per ``PipelineConfig`` field and ignores those its
stages never read, as it ignores such keys in a config file. All outputs
land under ``--out`` with fixed filenames, byte-identical to calling the
library with the same configuration; the eval commands prepare their mesh
and write their scores through ``pipeline``, as a run does. Exit codes: 0
success, 1 internal error, 2 usage or input error.
"""

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .config import (DEFAULTS, ConfigError, PipelineConfig, load_config,
                     override_config)
from .forest import save_model
from .meshio import MeshParseError, load_mesh, save_mesh
from .pipeline import (StageError, check_classes, file_sha256,
                       load_face_predictions, load_segmentation, prepare_mesh,
                       run_pipeline, save_json, train_models,
                       write_overseg_scores, write_semantic_scores,
                       write_upper_bound)
from .synth import TileParams, expected_component_count, synth_tile

# config fields whose flag is not "--" plus the field name with dashes
_FLAG_NAMES = {"input_path": "--input", "output_dir": "--out",
               "weld_epsilon": "--weld-eps", "boundary_rings": "--rings",
               "ground_radius": "--ground-radius-m"}
# synth flags named after a TileParams field set it; unset ones keep its default
_TILE_FIELDS = tuple(f.name for f in fields(TileParams))


def _flag(name: str) -> str:
    return _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))


def _add_config_flags(p) -> None:
    """``--config`` and a flag per PipelineConfig field, typed by its default.

    A tuple field takes one or more values of its element type, the class
    table a JSON object; every value is checked by PipelineConfig itself.
    """
    p.add_argument("--config", help="JSON config file; flags override it")
    for name, default in DEFAULTS.items():
        if isinstance(default, tuple):
            kind = {"nargs": "+", "type": type(default[0])}
        elif isinstance(default, dict):
            kind = {"type": json.loads, "metavar": "JSON"}
        else:
            kind = {"type": str if default is None else type(default)}
        p.add_argument(_flag(name), dest=name, **kind,
                       help=f"config {name}" + ("" if default is None
                                                else f" (default {default})"))


def resolved_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    overrides = {name: getattr(args, name) for name in DEFAULTS
                 if getattr(args, name) is not None}
    return override_config(cfg, **overrides) if overrides else cfg


def _require(cfg: PipelineConfig, *names) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{_flag(name)} (or config {name}) is required")


def _out_dir(cfg) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(cfg):
    """The score writers' ``emit``: each file goes under ``--out``."""
    return lambda name, writer: writer(_out_dir(cfg) / name)


def _print_overseg(report, n_segments):
    print(f"segments={n_segments} OP={report.op:.6f} "
          f"BP={report.bp:.6f} BR={report.br:.6f}")


def _print_semantic(tag, report):
    print(f"{tag}: OA={report.oa:.6f} mAcc={report.macc:.6f} "
          f"mIoU={report.miou:.6f}")


# -------------------------------------------------------------- subcommands


def cmd_synth(args) -> int:
    if Path(args.name).suffix.lower() != ".ply":
        raise ConfigError(f"--name {args.name}: synth writes .ply only")
    params = TileParams(**{name: getattr(args, name) for name in _TILE_FIELDS
                           if getattr(args, name) is not None})
    try:
        mesh = synth_tile(params)
    except RuntimeError:                # synth._place found no free spot
        raise ConfigError(
            f"cannot place {params.n_boxes} boxes, {params.n_trees} trees and "
            f"{params.n_vehicles} vehicles apart on a {params.ground_size:g} "
            f"m tile; lower the counts or raise --ground-size") from None
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / args.name
    save_mesh(mesh, path)
    print(f"wrote {path}: {mesh.n_faces} faces, "
          f"{expected_component_count(params)} ground-truth components")
    return 0


def cmd_train(args) -> int:
    cfg = resolved_config(args)
    _require(cfg, "output_dir")
    result = train_models(cfg, args.inputs)
    out = _out_dir(cfg)
    save_model(result.planarity, out / "planarity.model")
    save_model(result.semantic, out / "semantic.model")
    report = dict(result.report)
    report["planarity_sha256"] = file_sha256(out / "planarity.model")
    report["semantic_sha256"] = file_sha256(out / "semantic.model")
    save_json(report, out / "train_report.json")
    print(f"trained on {report['n_face_samples']} faces / "
          f"{report['n_segment_samples']} segments from "
          f"{report['n_meshes']} meshes")
    return 0


def cmd_run(args) -> int:
    """preprocess, segment, graph, classify and pipeline: ``run_pipeline``
    through ``args.stop_after``, then every part of the result it holds."""
    cfg = resolved_config(args)
    _require(cfg, "input_path", "output_dir")
    if args.stop_after != "preprocess":
        _require(cfg, "planarity_model")
    result = run_pipeline(cfg, stop_after=args.stop_after)
    rep = result.repair_report
    print(f"welded {rep.welded_vertices} vertices, "
          f"split {rep.split_vertices}, "
          f"non-manifold edges {rep.nonmanifold_edges_before} -> "
          f"{rep.nonmanifold_edges_after}")
    for stage, secs in result.manifest.stage_seconds.items():
        print(f"{stage}: {secs:.2f}s")
    for note in result.manifest.notes:
        print(f"note: {note}")
    if result.overseg is not None:
        _print_overseg(result.overseg, result.segmentation.n_segments)
    elif result.segmentation is not None:
        print(f"segments={result.segmentation.n_segments}")
    if result.graph is not None:
        print(f"graph: {result.graph.n_nodes} nodes, "
              f"{result.graph.n_edges} edges")
    if result.segment_classes is not None:
        print(f"classified {len(result.segment_classes)} segments")
    if result.upper_bound is not None:
        _print_semantic("upper bound", result.upper_bound)
    if result.semantic is not None:
        _print_semantic("semantic", result.semantic)
    return 0


def _load_labeled(path):
    """The mesh at ``path``, which must have a face label >= 0."""
    mesh = load_mesh(path)
    if not mesh.has_ground_truth:
        raise ConfigError(f"{path} has no ground-truth labels")
    return mesh


def _check_coindexed(n, what, mesh) -> None:
    if n != mesh.n_faces:
        raise ConfigError(f"meshes not co-indexed: {n} {what} vs "
                          f"{mesh.n_faces} faces")


def _labeled_segmentation(args):
    """Config, labeled input mesh (checked, then prepared), its adjacency
    and the segmentation co-indexed with it."""
    cfg = resolved_config(args)
    _require(cfg, "input_path", "output_dir")
    mesh = _load_labeled(cfg.input_path)
    seg = load_segmentation(args.segmentation)
    _check_coindexed(len(seg.face_segment), "segment entries", mesh)
    mesh, _, adjacency = prepare_mesh(mesh, cfg)
    return cfg, mesh, adjacency, seg


def cmd_eval_overseg(args) -> int:
    cfg, mesh, adjacency, seg = _labeled_segmentation(args)
    _print_overseg(write_overseg_scores(_emit(cfg), mesh, adjacency, seg, cfg),
                   seg.n_segments)
    return 0


def cmd_eval_semantic(args) -> int:
    cfg = resolved_config(args)
    _require(cfg, "output_dir")
    gt = _load_labeled(args.gt)
    if Path(args.pred).suffix.lower() == ".csv":
        pred = load_face_predictions(args.pred)
    else:
        pred = load_mesh(args.pred).face_label
        if pred is None:
            raise ConfigError(f"{args.pred} has no predicted labels")
    _check_coindexed(len(pred), "predictions", gt)
    for path, labels, what in ((args.gt, gt.face_label, "ground-truth label"),
                               (args.pred, pred, "predicted label")):
        check_classes(labels[labels >= 0].tolist(), cfg, path, what)
    gt, _, _ = prepare_mesh(gt, cfg)
    _print_semantic("semantic",
                    write_semantic_scores(_emit(cfg), pred, gt, cfg))
    return 0


def cmd_upper_bound(args) -> int:
    cfg, mesh, _, seg = _labeled_segmentation(args)
    _print_semantic("upper bound", write_upper_bound(_emit(cfg), mesh, seg))
    return 0


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pssmesh",
        description="Planarity-sensible over-segmentation of textured "
                    "urban triangle meshes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic tile")
    p.add_argument("--out", dest="output_dir", required=True)
    p.add_argument("--name", default="tile.ply", help="file name, *.ply")
    p.add_argument("--seed", type=int)
    p.add_argument("--ground-size", type=float)
    p.add_argument("--ground-res", type=int)
    p.add_argument("--boxes", dest="n_boxes", type=int)
    p.add_argument("--trees", dest="n_trees", type=int)
    p.add_argument("--vehicles", dest="n_vehicles", type=int)
    p.add_argument("--noise-sigma", type=float)
    p.set_defaults(func=cmd_synth)

    def config_sub(name, help_, func, **defaults):
        p = sub.add_parser(name, help=help_)
        _add_config_flags(p)
        p.set_defaults(func=func, **defaults)
        return p

    for name, help_, stop_after in (
            ("preprocess", "weld and repair a mesh", "preprocess"),
            ("segment", "run through oversegmentation", "oversegment"),
            ("graph", "run through segment graph export", "graph"),
            ("classify", "run through segment classification", "classify"),
            ("pipeline", "run every stage", None)):
        config_sub(name, help_, cmd_run, stop_after=stop_after)

    config_sub("train", "fit the planarity and segment classifiers",
               cmd_train).add_argument("--inputs", nargs="+", required=True,
                                       help="labeled training meshes")
    for name, help_, func in (
            ("eval-overseg", "score a segmentation against ground truth",
             cmd_eval_overseg),
            ("upper-bound", "best labeling reachable from a segmentation",
             cmd_upper_bound)):
        config_sub(name, help_, func).add_argument(
            "--segmentation", required=True,
            help="segmentation.json from a run")
    p = config_sub("eval-semantic",
                   "score per-face predictions against ground truth",
                   cmd_eval_semantic)
    p.add_argument("--pred", required=True,
                   help="predicted mesh or face_predictions.csv")
    p.add_argument("--gt", required=True, help="ground-truth mesh")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args) or 0
    except (ConfigError, FileNotFoundError, MeshParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:                      # noqa: BLE001
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
