"""Command-line interface over the library pipeline.

Every subcommand resolves its settings the same way: built-in defaults,
then an optional JSON config file, then explicit flags. All outputs land
under the run directory given by ``--out`` with fixed filenames, and every
result is byte-identical to calling the library directly with the same
configuration. Exit codes: 0 success, 1 internal error, 2 usage or input
error.
"""

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .adjacency import build_adjacency
from .config import (ConfigError, PipelineConfig, load_config,
                     override_config)
from .forest import save_model
from .meshio import MeshParseError, load_mesh, save_mesh
from .metrics import max_achievable, overseg_report, semantic_metrics
from .pipeline import (StageError, file_sha256, load_face_predictions,
                       load_segmentation, run_pipeline, save_json,
                       save_metrics_row, train_models)
from .synth import TileParams, expected_component_count, synth_tile

# flags whose argparse dest is a config field override that field
_CONFIG_DESTS = tuple(f.name for f in fields(PipelineConfig))
# synth flags named after a TileParams field set it; unset ones keep its default
_TILE_FIELDS = tuple(f.name for f in fields(TileParams))


def resolved_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) \
        else PipelineConfig()
    overrides = {name: getattr(args, name)
                 for name in _CONFIG_DESTS
                 if getattr(args, name, None) is not None}
    return override_config(cfg, **overrides) if overrides else cfg


def _require(cfg: PipelineConfig, *names) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            flag = {"input_path": "--input", "output_dir": "--out",
                    "planarity_model": "--planarity-model",
                    "semantic_model": "--semantic-model"}[name]
            raise ConfigError(f"{flag} (or config {name}) is required")


def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int,
                   help="worker threads, 0 = auto (env PSSNET_THREADS)")


def _add_io(p):
    p.add_argument("--input", dest="input_path", help="input mesh (PLY/OBJ)")
    p.add_argument("--out", dest="output_dir", help="run directory")


def _add_growth(p):
    p.add_argument("--lambda-d", dest="lambda_d", type=float,
                   help="fitting-cost weight")
    p.add_argument("--lambda-m", dest="lambda_m", type=float,
                   help="boundary-smoothness weight")
    p.add_argument("--lambda-g", dest="lambda_g", type=float,
                   help="non-planar probability weight")


def _add_graph(p):
    p.add_argument("--parallel-angle-deg", dest="parallel_angle_deg",
                   type=float, help="max angle for parallel plane edges")
    p.add_argument("--ground-radius-m", dest="ground_radius", type=float,
                   help="search radius for the local ground link")
    p.add_argument("--proximity", dest="proximity_mode",
                   help="knn or delaunay")
    p.add_argument("--sampling-density", dest="sampling_density", type=float,
                   help="surface samples per square metre")


def _add_forest(p):
    p.add_argument("--trees", type=int, help="trees per forest")
    p.add_argument("--min-leaf", dest="min_leaf", type=int)
    p.add_argument("--max-depth", dest="max_depth", type=int)


def _add_models(p, semantic=True):
    p.add_argument("--planarity-model", dest="planarity_model")
    if semantic:
        p.add_argument("--semantic-model", dest="semantic_model")


def _print_overseg(report, n_segments):
    print(f"segments={n_segments} OP={report.op:.6f} "
          f"BP={report.bp:.6f} BR={report.br:.6f}")


def _print_semantic(tag, report):
    print(f"{tag}: OA={report.oa:.6f} mAcc={report.macc:.6f} "
          f"mIoU={report.miou:.6f}")


# -------------------------------------------------------------- subcommands


def cmd_synth(args) -> int:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = TileParams(**{name: getattr(args, name) for name in _TILE_FIELDS
                           if getattr(args, name) is not None})
    mesh = synth_tile(params)
    path = out / args.name
    save_mesh(mesh, path)
    print(f"wrote {path}: {mesh.n_faces} faces, "
          f"{expected_component_count(params)} ground-truth components")
    return 0


def cmd_preprocess(args) -> int:
    cfg = resolved_config(args)
    _require(cfg, "input_path", "output_dir")
    result = run_pipeline(cfg, stop_after="preprocess")
    rep = result.repair_report
    print(f"welded {rep.welded_vertices} vertices, "
          f"split {rep.split_vertices}, "
          f"non-manifold edges {rep.nonmanifold_edges_before} -> "
          f"{rep.nonmanifold_edges_after}")
    return 0


def cmd_train(args) -> int:
    cfg = resolved_config(args)
    _require(cfg, "output_dir")
    result = train_models(cfg, args.inputs)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
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


def _staged(args, stop_after: str) -> int:
    cfg = resolved_config(args)
    _require(cfg, "input_path", "output_dir", "planarity_model")
    result = run_pipeline(cfg, stop_after=stop_after)
    if result.segmentation is not None:
        print(f"segments={result.segmentation.n_segments}")
    if result.graph is not None:
        print(f"graph: {result.graph.n_nodes} nodes, "
              f"{result.graph.n_edges} edges")
    if result.segment_classes is not None:
        print(f"classified {len(result.segment_classes)} segments")
    return 0


def cmd_segment(args) -> int:
    return _staged(args, "oversegment")


def cmd_graph(args) -> int:
    return _staged(args, "graph")


def cmd_classify(args) -> int:
    return _staged(args, "classify")


def cmd_pipeline(args) -> int:
    cfg = resolved_config(args)
    _require(cfg, "input_path", "output_dir", "planarity_model")
    result = run_pipeline(cfg)
    for stage, secs in result.manifest.stage_seconds.items():
        print(f"{stage}: {secs:.2f}s")
    for note in result.manifest.notes:
        print(f"note: {note}")
    if result.overseg is not None:
        _print_overseg(result.overseg, result.segmentation.n_segments)
    if result.upper_bound is not None:
        _print_semantic("upper bound", result.upper_bound)
    if result.semantic is not None:
        _print_semantic("semantic", result.semantic)
    return 0


def _load_coindexed(mesh_path, n_expected=None):
    mesh = load_mesh(mesh_path)
    if mesh.face_label is None:
        raise ConfigError(f"{mesh_path} has no ground-truth labels")
    if n_expected is not None and mesh.n_faces != n_expected:
        raise ConfigError("meshes not co-indexed: "
                          f"{mesh.n_faces} faces vs {n_expected}")
    return mesh


def _load_coindexed_segmentation(path, mesh):
    seg = load_segmentation(path)
    if len(seg.face_segment) != mesh.n_faces:
        raise ConfigError("meshes not co-indexed: "
                          f"{len(seg.face_segment)} segment entries vs "
                          f"{mesh.n_faces} faces")
    return seg


def cmd_eval_overseg(args) -> int:
    cfg = resolved_config(args)
    _require(cfg, "input_path", "output_dir")
    mesh = _load_coindexed(cfg.input_path)
    seg = _load_coindexed_segmentation(args.segmentation, mesh)
    adjacency = build_adjacency(mesh)
    report = overseg_report(mesh, adjacency, seg.face_segment,
                            mesh.face_label, rings=cfg.boundary_rings)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_json(report.as_dict(), out / "overseg_metrics.json")
    save_metrics_row(seg.n_segments, report, out / "metrics_row.csv")
    _print_overseg(report, seg.n_segments)
    return 0


def cmd_eval_semantic(args) -> int:
    cfg = resolved_config(args)
    _require(cfg, "output_dir")
    gt = _load_coindexed(args.gt)
    pred_path = Path(args.pred)
    if pred_path.suffix == ".csv":
        pred = load_face_predictions(pred_path)
    else:
        pred_mesh = load_mesh(pred_path)
        if pred_mesh.face_label is None:
            raise ConfigError(f"{pred_path} has no predicted labels")
        pred = pred_mesh.face_label
    if len(pred) != gt.n_faces:
        raise ConfigError("meshes not co-indexed: "
                          f"{len(pred)} predictions vs {gt.n_faces} faces")
    report = semantic_metrics(pred, gt.face_label, gt.face_area,
                              classes=sorted(cfg.classes))
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_json(report.as_dict(), out / "semantic_metrics.json")
    _print_semantic("semantic", report)
    return 0


def cmd_upper_bound(args) -> int:
    cfg = resolved_config(args)
    _require(cfg, "input_path", "output_dir")
    mesh = _load_coindexed(cfg.input_path)
    seg = _load_coindexed_segmentation(args.segmentation, mesh)
    report, _ = max_achievable(seg.face_segment, mesh.face_label,
                               mesh.face_area)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_json(report.as_dict(), out / "upper_bound.json")
    _print_semantic("upper bound", report)
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
    p.add_argument("--name", default="tile.ply")
    p.add_argument("--seed", type=int)
    p.add_argument("--ground-size", type=float)
    p.add_argument("--ground-res", type=int)
    p.add_argument("--boxes", dest="n_boxes", type=int)
    p.add_argument("--trees", dest="n_trees", type=int)
    p.add_argument("--vehicles", dest="n_vehicles", type=int)
    p.add_argument("--noise-sigma", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="weld and repair a mesh")
    _add_common(p)
    _add_io(p)
    p.add_argument("--weld-eps", dest="weld_epsilon", type=float)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train",
                       help="fit the planarity and segment classifiers")
    _add_common(p)
    p.add_argument("--inputs", nargs="+", required=True,
                   help="labeled training meshes")
    p.add_argument("--out", dest="output_dir")
    _add_forest(p)
    _add_growth(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="run through oversegmentation")
    _add_common(p)
    _add_io(p)
    _add_models(p, semantic=False)
    _add_growth(p)
    p.add_argument("--weld-eps", dest="weld_epsilon", type=float)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("graph", help="run through segment graph export")
    _add_common(p)
    _add_io(p)
    _add_models(p, semantic=False)
    _add_growth(p)
    _add_graph(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("classify", help="run through segment classification")
    _add_common(p)
    _add_io(p)
    _add_models(p)
    _add_growth(p)
    _add_graph(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("pipeline", help="run every stage")
    _add_common(p)
    _add_io(p)
    _add_models(p)
    p.add_argument("--weld-eps", dest="weld_epsilon", type=float)
    _add_growth(p)
    _add_graph(p)
    p.add_argument("--rings", dest="boundary_rings", type=int)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("eval-overseg",
                       help="score a segmentation against ground truth")
    _add_common(p)
    _add_io(p)
    p.add_argument("--segmentation", required=True,
                   help="segmentation.json from a run")
    p.add_argument("--rings", dest="boundary_rings", type=int)
    p.set_defaults(func=cmd_eval_overseg)

    p = sub.add_parser("eval-semantic",
                       help="score per-face predictions against ground truth")
    _add_common(p)
    p.add_argument("--pred", required=True,
                   help="predicted mesh or face_predictions.csv")
    p.add_argument("--gt", required=True, help="ground-truth mesh")
    p.add_argument("--out", dest="output_dir")
    p.set_defaults(func=cmd_eval_semantic)

    p = sub.add_parser("upper-bound",
                       help="best labeling reachable from a segmentation")
    _add_common(p)
    _add_io(p)
    p.add_argument("--segmentation", required=True)
    p.set_defaults(func=cmd_upper_bound)

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
