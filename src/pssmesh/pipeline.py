"""End-to-end run driver: staged execution, artifacts, and the manifest.

A run reads one mesh, executes the stages in a fixed order, and writes every
artifact under a single run directory with fixed filenames. The manifest
records a config snapshot, the input content hash, per-stage wall times, and
a content hash per output file, so two runs can be compared file by file.
On a stage failure the artifacts written so far are renamed with a
``.partial`` suffix and the error names the failing stage.
"""

import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .adjacency import build_adjacency
from .config import ConfigError, PipelineConfig
from .features import compute_face_features
from .forest import (ForestModel, classify_segments, load_model,
                     planarity_map, train_forest)
from .meshio import load_mesh, save_mesh
from .metrics import majority_labels, max_achievable, overseg_report, \
    semantic_metrics
from .overseg import Segmentation, oversegment
from .repair import repair_nonmanifold, weld_vertices
from .segfeatures import compute_segment_features
from .seggraph import build_segment_graph, export_graph

STAGES = ("preprocess", "face_features", "planarity", "oversegment",
          "segment_features", "graph", "classify", "metrics")


class StageError(RuntimeError):
    """A pipeline stage raised; carries the stage name for reporting."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


def resolve_threads(requested: int) -> int:
    """Worker count: explicit value, else PSSNET_THREADS, else cpu count."""
    if requested > 0:
        return requested
    env = os.environ.get("PSSNET_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ConfigError(f"PSSNET_THREADS is not an integer: {env!r}")
        if n > 0:
            return n
    return os.cpu_count() or 1


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    version: str
    config: dict
    input_sha256: str | None
    stage_seconds: dict
    outputs: dict                       # filename -> sha256
    notes: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"version": self.version,
                "config": self.config,
                "input_sha256": self.input_sha256,
                "stage_seconds": self.stage_seconds,
                "outputs": self.outputs,
                "notes": self.notes}

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=1)
            fh.write("\n")


def load_manifest(path) -> RunManifest:
    with open(path) as fh:
        d = json.load(fh)
    return RunManifest(version=d["version"], config=d["config"],
                       input_sha256=d["input_sha256"],
                       stage_seconds=d["stage_seconds"],
                       outputs=d["outputs"], notes=d.get("notes", []))


# ----------------------------------------------------------- artifact files


def save_segmentation(segmentation: Segmentation, path) -> None:
    doc = {"version": 1,
           "face_segment": [int(s) for s in segmentation.face_segment],
           "segment_type": [int(t) for t in segmentation.segment_type],
           "planes": [[float(x) for x in row] for row in segmentation.planes]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_segmentation(path) -> Segmentation:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != 1:
        raise ValueError(
            f"unsupported segmentation file version {doc.get('version')}")
    return Segmentation(
        face_segment=np.asarray(doc["face_segment"], dtype=np.int32),
        segment_type=np.asarray(doc["segment_type"], dtype=np.int8),
        planes=np.asarray(doc["planes"], dtype=np.float64).reshape(-1, 4))


def save_planarity(probmap, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["face", "planar_prob", "nonplanar_geo", "label"])
        for i in range(len(probmap.label)):
            w.writerow([i, repr(float(probmap.planar_prob[i])),
                        repr(float(probmap.g_hat[i])),
                        int(probmap.label[i])])


def save_segment_predictions(classes, proba, class_ids, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["segment", "class"] + [f"p_{c}" for c in class_ids])
        for k in range(len(classes)):
            w.writerow([k, int(classes[k])]
                       + [repr(float(p)) for p in proba[k]])


def save_face_predictions(face_classes, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["face", "class"])
        for i, c in enumerate(face_classes):
            w.writerow([i, int(c)])


def load_face_predictions(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:2] != ["face", "class"]:
        raise ValueError(f"{path} is not a face prediction table")
    out = np.full(len(rows) - 1, -1, dtype=np.int64)
    for face, cls in (r[:2] for r in rows[1:]):
        out[int(face)] = int(cls)
    return out


def save_metrics_row(n_segments: int, report, path) -> None:
    """One CSV row for segment-count curves: count and the three scores."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["segments", "op", "bp", "br"])
        w.writerow([int(n_segments), repr(report.op), repr(report.bp),
                    repr(report.br)])


def save_json(data: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


# ------------------------------------------------------------------- runner


@dataclass
class PipelineResult:
    config: PipelineConfig
    run_dir: Path
    mesh: object = None
    repair_report: object = None
    face_features: object = None
    probmap: object = None
    segmentation: Segmentation | None = None
    segment_features: object = None
    graph: object = None
    segment_classes: np.ndarray | None = None
    segment_proba: np.ndarray | None = None
    face_classes: np.ndarray | None = None
    overseg: object = None
    upper_bound: object = None
    semantic: object = None
    manifest: RunManifest | None = None


def run_pipeline(config: PipelineConfig, mesh=None,
                 stop_after: str | None = None) -> PipelineResult:
    """Execute the staged pipeline; see the module docstring.

    ``mesh`` bypasses the input file; ``stop_after`` names the last stage to
    run. The planarity model is required from the oversegmentation stage on;
    the semantic model and ground-truth labels are optional and their stages
    are skipped with a manifest note when absent.
    """
    if stop_after is not None and stop_after not in STAGES:
        raise ValueError(f"unknown stage {stop_after!r}")
    if config.output_dir is None:
        raise ConfigError("output_dir is required")
    wanted = STAGES if stop_after is None \
        else STAGES[:STAGES.index(stop_after) + 1]
    needs_model = "oversegment" in wanted
    if needs_model:
        if config.planarity_model is None:
            raise ConfigError("planarity_model is required to segment")
        if not Path(config.planarity_model).is_file():
            raise FileNotFoundError(
                f"planarity model not found: {config.planarity_model}")
    if "classify" in wanted and config.semantic_model is not None \
            and not Path(config.semantic_model).is_file():
        raise FileNotFoundError(
            f"semantic model not found: {config.semantic_model}")

    input_sha = None
    if mesh is None:
        if config.input_path is None:
            raise ConfigError("input_path is required")
        path = Path(config.input_path)
        if not path.is_file():
            raise FileNotFoundError(f"input mesh not found: {path}")
        input_sha = file_sha256(path)
        mesh = load_mesh(path)

    run_dir = Path(config.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    result = PipelineResult(config=config, run_dir=run_dir)
    written = []
    stage_seconds = {}
    notes = []
    current = "preprocess"

    def emit(name, writer):
        path = run_dir / name
        writer(path)
        written.append(path)

    def tick(name):
        nonlocal current
        current = name
        stage_seconds[name] = time.perf_counter()

    def tock(name):
        stage_seconds[name] = time.perf_counter() - stage_seconds[name]

    try:
        tick("preprocess")
        welded, rep1 = weld_vertices(mesh, config.weld_epsilon)
        mesh2, rep2 = repair_nonmanifold(welded)
        result.mesh = mesh2
        result.repair_report = rep1.combined(rep2)
        adjacency = build_adjacency(mesh2)
        emit("repaired.ply", lambda p: save_mesh(mesh2, p))
        emit("repair_report.json",
             lambda p: save_json(result.repair_report.as_dict(), p))
        tock("preprocess")

        if "face_features" in wanted:
            tick("face_features")
            feats = compute_face_features(mesh2,
                                          params=config.face_feature_params())
            result.face_features = feats
            emit("face_features.csv", feats.to_csv)
            tock("face_features")

        if "planarity" in wanted:
            tick("planarity")
            model = load_model(config.planarity_model) \
                if config.planarity_model else None
            if model is None:
                notes.append("planarity skipped: no model")
            else:
                result.probmap = planarity_map(model, feats)
                emit("planarity.csv",
                     lambda p: save_planarity(result.probmap, p))
            tock("planarity")

        if "oversegment" in wanted:
            tick("oversegment")
            seg = oversegment(mesh2, adjacency, result.probmap,
                              config.growth_params())
            result.segmentation = seg
            emit("segmentation.json", lambda p: save_segmentation(seg, p))
            tock("oversegment")

        if "segment_features" in wanted:
            tick("segment_features")
            sf = compute_segment_features(mesh2, adjacency,
                                          result.segmentation, feats)
            result.segment_features = sf
            emit("segment_features.csv", sf.to_csv)
            tock("segment_features")

        if "graph" in wanted:
            tick("graph")
            graph = build_segment_graph(mesh2, adjacency, result.segmentation,
                                        sf, config.graph_params())
            result.graph = graph
            emit("graph.json", lambda p: export_graph(graph, p))
            tock("graph")

        if "classify" in wanted:
            tick("classify")
            if config.semantic_model is None:
                notes.append("classification skipped: no semantic model")
            else:
                sem_model = load_model(config.semantic_model)
                cls, proba = classify_segments(sem_model,
                                               result.segment_features)
                result.segment_classes = cls
                result.segment_proba = proba
                face_cls = cls[result.segmentation.face_segment]
                result.face_classes = face_cls
                emit("segment_predictions.csv",
                     lambda p: save_segment_predictions(
                         cls, proba, sem_model.classes, p))
                emit("face_predictions.csv",
                     lambda p: save_face_predictions(face_cls, p))
                labeled = mesh2.copy()
                labeled.face_label = face_cls.astype(np.int32)
                emit("labeled.ply", lambda p: save_mesh(labeled, p))
            tock("classify")

        if "metrics" in wanted:
            tick("metrics")
            if mesh2.face_label is None:
                notes.append("metrics skipped: no ground-truth labels")
            else:
                areas = mesh2.face_area
                seg = result.segmentation
                rep = overseg_report(mesh2, adjacency, seg.face_segment,
                                     mesh2.face_label,
                                     rings=config.boundary_rings)
                result.overseg = rep
                emit("overseg_metrics.json",
                     lambda p: save_json(rep.as_dict(), p))
                emit("metrics_row.csv",
                     lambda p: save_metrics_row(seg.n_segments, rep, p))
                ub, _ = max_achievable(seg.face_segment, mesh2.face_label,
                                       areas)
                result.upper_bound = ub
                emit("upper_bound.json",
                     lambda p: save_json(ub.as_dict(), p))
                if result.face_classes is not None:
                    sem = semantic_metrics(result.face_classes,
                                           mesh2.face_label, areas,
                                           classes=sorted(config.classes))
                    result.semantic = sem
                    emit("semantic_metrics.json",
                         lambda p: save_json(sem.as_dict(), p))
            tock("metrics")
    except Exception as exc:
        for path in written:
            path.rename(path.with_name(path.name + ".partial"))
        raise StageError(current, exc) from exc

    outputs = {p.name: file_sha256(p)
               for p in sorted(written, key=lambda p: p.name)}
    manifest = RunManifest(version=__version__, config=config.as_dict(),
                           input_sha256=input_sha,
                           stage_seconds=stage_seconds,
                           outputs=outputs, notes=notes)
    manifest.save(run_dir / "manifest.json")
    result.manifest = manifest
    return result


# ----------------------------------------------------------------- training


@dataclass
class TrainResult:
    planarity: ForestModel
    semantic: ForestModel
    report: dict


def _segment_majority(segmentation: Segmentation, gt_labels,
                      areas) -> np.ndarray:
    induced = majority_labels(segmentation.face_segment, gt_labels, areas)
    out = np.full(segmentation.n_segments, -1, dtype=np.int64)
    seg = segmentation.face_segment
    valid = seg >= 0
    out[seg[valid]] = induced[valid]
    return out


def train_models(config: PipelineConfig, meshes) -> TrainResult:
    """Fit the planarity forest, then the segment classifier on its output.

    ``meshes`` holds TriangleMesh objects or file paths; every mesh must
    carry ground-truth face labels. Faces of the classes listed in
    ``config.nonplanar_classes`` form the non-planar planarity class. The
    segment classifier trains on segments produced by running the freshly
    fitted planarity model through oversegmentation, labeled by area
    majority.
    """
    loaded = []
    for m in meshes:
        if not hasattr(m, "faces"):
            path = Path(m)
            if not path.is_file():
                raise FileNotFoundError(f"training mesh not found: {path}")
            m = load_mesh(path)
        if m.face_label is None:
            raise ConfigError("training mesh has no ground-truth labels")
        loaded.append(m)
    if not loaded:
        raise ConfigError("no training meshes given")

    n_jobs = resolve_threads(config.threads)
    prepared = []
    face_rows = []
    face_labels = []
    for mesh in loaded:
        welded, _ = weld_vertices(mesh, config.weld_epsilon)
        mesh2, _ = repair_nonmanifold(welded)
        adjacency = build_adjacency(mesh2)
        feats = compute_face_features(mesh2,
                                      params=config.face_feature_params())
        y = np.isin(mesh2.face_label, config.nonplanar_classes)
        prepared.append((mesh2, adjacency, feats))
        face_rows.append(feats.values)
        face_labels.append(y.astype(np.int32))

    X_face = np.vstack(face_rows)
    y_face = np.concatenate(face_labels)
    layout_face = prepared[0][2].layout_version
    planarity = train_forest(X_face, y_face, config.forest_params(),
                             seed=config.seed, layout_version=layout_face,
                             n_jobs=n_jobs)

    seg_rows = []
    seg_labels = []
    n_segments = 0
    layout_seg = ""
    for mesh2, adjacency, feats in prepared:
        probmap = planarity_map(planarity, feats)
        seg = oversegment(mesh2, adjacency, probmap, config.growth_params())
        sf = compute_segment_features(mesh2, adjacency, seg, feats)
        layout_seg = sf.layout_version
        n_segments += seg.n_segments
        labels = _segment_majority(seg, mesh2.face_label, mesh2.face_area)
        keep = labels >= 0
        seg_rows.append(sf.values[keep])
        seg_labels.append(labels[keep])

    X_seg = np.vstack(seg_rows)
    y_seg = np.concatenate(seg_labels)
    semantic = train_forest(X_seg, y_seg, config.forest_params(),
                            seed=config.seed, layout_version=layout_seg,
                            n_jobs=n_jobs)

    report = {"n_meshes": len(loaded),
              "n_face_samples": int(len(y_face)),
              "n_segment_samples": int(len(y_seg)),
              "n_segments": int(n_segments),
              "planarity_classes": [int(c) for c in planarity.classes],
              "semantic_classes": [int(c) for c in semantic.classes]}
    return TrainResult(planarity=planarity, semantic=semantic, report=report)
