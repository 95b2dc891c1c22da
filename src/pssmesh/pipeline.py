"""End-to-end run driver: staged execution, artifacts, and the manifest.

A run reads one mesh, executes the stages in a fixed order, and writes every
artifact under a single run directory with fixed filenames. The manifest
records a config snapshot, the input content hash, per-stage wall times, and
a content hash per output file, so two runs can be compared file by file.
On a stage failure the artifacts written so far are renamed with a
``.partial`` suffix and the error names the failing stage. A rerun into the
same directory first deletes the earlier manifest, the outputs it lists and
the ``<name>.partial`` of every name in ``ARTIFACTS``, so no manifest is left
beside files it does not describe.
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
from .config import ConfigError, PipelineConfig, load_versioned_json
from .features import compute_face_features, face_channel_names, write_csv
from .forest import (ForestModel, classify_segments, load_model,
                     parallel_map, planarity_map, train_forest)
from .meshio import load_mesh, save_mesh
from .metrics import majority_labels, max_achievable, overseg_report, \
    semantic_metrics
from .overseg import Segmentation, oversegment
from .repair import repair_nonmanifold, weld_vertices
from .segfeatures import compute_segment_features, segment_channel_names
from .seggraph import build_segment_graph, export_graph

STAGES = ("preprocess", "face_features", "planarity", "oversegment",
          "segment_features", "graph", "classify", "metrics")

# every file name a run writes, in stage order
ARTIFACTS = ("repaired.ply", "repair_report.json", "face_features.csv",
             "planarity.csv", "segmentation.json", "segment_features.csv",
             "graph.json", "segment_predictions.csv", "face_predictions.csv",
             "labeled.ply", "overseg_metrics.json", "metrics_row.csv",
             "upper_bound.json", "semantic_metrics.json")


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


# ----------------------------------------------------------- artifact files


def _floats(values) -> list:
    return np.asarray(values, dtype=np.float64).tolist()


def _ints(values) -> list:
    return np.asarray(values, dtype=np.int64).tolist()


def save_segmentation(segmentation: Segmentation, path) -> None:
    doc = {"version": 1,
           "face_segment": _ints(segmentation.face_segment),
           "segment_type": _ints(segmentation.segment_type),
           "planes": _floats(segmentation.planes)}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_segmentation(path) -> Segmentation:
    """Read a segmentation file written by ``save_segmentation``.

    Bad content (invalid JSON, a missing key, another version, ids that are
    not integers) raises ConfigError with the path in front of the message.
    """
    def bad(message):
        return ConfigError(f"{path}: {message}")

    doc = load_versioned_json(path, 1, "segmentation")
    for key in ("face_segment", "segment_type", "planes"):
        if key not in doc:
            raise bad(f"missing key {key!r}")
    for key in ("face_segment", "segment_type"):
        if not (isinstance(doc[key], list)
                and all(type(i) is int for i in doc[key])):
            raise bad(f"{key} must be a list of integers")
    try:
        return Segmentation(
            face_segment=np.asarray(doc["face_segment"], dtype=np.int32),
            segment_type=np.asarray(doc["segment_type"], dtype=np.int8),
            planes=np.asarray(doc["planes"], dtype=np.float64).reshape(-1, 4))
    except (ValueError, TypeError, OverflowError) as exc:
        raise bad(exc) from None


def save_planarity(probmap, path) -> None:
    label = _ints(probmap.label)
    write_csv(path, ["face", "planar_prob", "nonplanar_geo", "label"],
              zip(range(len(label)), _floats(probmap.planar_prob),
                  _floats(probmap.g_hat), label))


def save_segment_predictions(classes, proba, class_ids, path) -> None:
    write_csv(path, ["segment", "class"] + [f"p_{c}" for c in class_ids],
              ([k, c, *p] for k, (c, p) in
               enumerate(zip(_ints(classes), _floats(proba)))))


def save_face_predictions(face_classes, path) -> None:
    write_csv(path, ["face", "class"], enumerate(_ints(face_classes)))


def load_face_predictions(path) -> np.ndarray:
    """Read a face prediction table written by ``save_face_predictions``.

    A wrong header, a cell that is not an integer, and a face id outside
    [0, rows) or listed twice raise ConfigError naming the path and row.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:2] != ["face", "class"]:
        raise ConfigError(f"{path} is not a face prediction table")
    out = np.full(len(rows) - 1, -1, dtype=np.int64)
    seen = np.zeros(len(out), dtype=bool)
    for line, cells in enumerate(rows[1:], start=2):
        try:
            face, cls = (int(c) for c in cells[:2])
        except ValueError:
            raise ConfigError(f"{path}: row {line}: expected integer face "
                              f"and class, got {cells!r}") from None
        if not 0 <= face < len(out):
            raise ConfigError(f"{path}: row {line}: face id {face} outside "
                              f"[0, {len(out)})")
        if seen[face]:
            raise ConfigError(f"{path}: row {line}: face id {face} repeated")
        seen[face] = True
        out[face] = cls
    return out


def save_metrics_row(n_segments: int, report, path) -> None:
    """One CSV row for segment-count curves: count and the three scores."""
    write_csv(path, ["segments", "op", "bp", "br"],
              [[int(n_segments), report.op, report.bp, report.br]])


def save_json(data: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


# ------------------------------------------------------------------- runner


def clear_previous_run(run_dir: Path) -> None:
    """Delete an earlier run's manifest, its outputs and every ``.partial``.

    The manifest goes first, so it can never describe files that are gone.
    Only plain file names inside ``run_dir`` are deleted: the names the
    manifest lists and ``<name>.partial`` for each name in ``ARTIFACTS``.
    """
    path = run_dir / "manifest.json"
    names = []
    if path.is_file():
        try:
            names = list(json.loads(path.read_text())["outputs"])
        except (ValueError, KeyError, TypeError):
            pass
        path.unlink()
    names += [name + ".partial" for name in ARTIFACTS]
    for name in names:
        if isinstance(name, str) and name == Path(name).name \
                and (run_dir / name).is_file():
            (run_dir / name).unlink()


def _check_classes(ids, config: PipelineConfig, source, what) -> None:
    """ConfigError naming ``source`` unless every id is in config.classes."""
    unknown = sorted(set(ids) - set(config.classes))
    if unknown:
        raise ConfigError(f"{source}: {what} {unknown[0]} is not in the "
                          f"config's classes {sorted(config.classes)}")


def _check_n_features(model: ForestModel, names, path) -> None:
    """ConfigError naming ``path`` unless the model reads ``len(names)``."""
    if model.n_features != len(names):
        raise ConfigError(f"{path}: model reads {model.n_features} features, "
                          f"the config's feature radii give {len(names)}")


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

    ``mesh`` bypasses the input file but not the input checks;
    ``stop_after`` names the last stage to run. The planarity model is
    required from the oversegmentation stage on; the semantic model and
    ground-truth labels are optional and their stages are skipped with a
    manifest note when absent. Both models and the mesh are checked before
    the first stage, so a bad model file or mesh raises ConfigError,
    MeshParseError or MeshError and writes nothing. A model whose feature
    count differs from the config's channel count and a semantic model
    class outside ``config.classes`` are such input errors, and so is a
    ground-truth label >= 0 outside it when the semantic metrics will run.
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
    model = sem_model = None
    face_names = face_channel_names(config)
    if "planarity" in wanted and config.planarity_model:
        model = load_model(config.planarity_model)
        _check_n_features(model, face_names, config.planarity_model)
    if "classify" in wanted and config.semantic_model is not None:
        sem_model = load_model(config.semantic_model)
        _check_n_features(sem_model, segment_channel_names(face_names),
                          config.semantic_model)
        _check_classes(sem_model.classes.tolist(), config,
                       config.semantic_model, "model class")

    input_sha = None
    if mesh is None:
        if config.input_path is None:
            raise ConfigError("input_path is required")
        mesh = load_mesh(config.input_path)
        input_sha = file_sha256(config.input_path)
    else:
        mesh.check_usable()
    if sem_model is not None and "metrics" in wanted \
            and mesh.face_label is not None:
        _check_classes(mesh.face_label[mesh.face_label >= 0].tolist(), config,
                       config.input_path if input_sha else "input mesh",
                       "ground-truth label")

    run_dir = Path(config.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    clear_previous_run(run_dir)
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
            feats = compute_face_features(mesh2, config)
            result.face_features = feats
            emit("face_features.csv", feats.to_csv)
            tock("face_features")

        if "planarity" in wanted:
            tick("planarity")
            if model is None:
                notes.append("planarity skipped: no model")
            else:
                result.probmap = planarity_map(model, feats)
                emit("planarity.csv",
                     lambda p: save_planarity(result.probmap, p))
            tock("planarity")

        if "oversegment" in wanted:
            tick("oversegment")
            seg = oversegment(mesh2, adjacency, result.probmap, config)
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
                                        sf, config)
            result.graph = graph
            emit("graph.json", lambda p: export_graph(graph, p))
            tock("graph")

        if "classify" in wanted:
            tick("classify")
            if sem_model is None:
                notes.append("classification skipped: no semantic model")
            else:
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
    majority. A label >= 0 outside ``config.classes`` raises ConfigError
    naming the mesh file (``training mesh <i>`` for an in-memory mesh)
    before the first fit.

    The meshes are prepared (weld, repair, adjacency, face features) and,
    once the planarity forest is fitted, segmented by ``parallel_map`` in
    ``resolve_threads(config.threads)`` forked worker processes, the pool
    the forests' trees are built in. Each pass hands its inputs to the
    workers through fork and pickles only its results back; results are
    gathered in mesh order, so the models are the same at every worker
    count. No worker is left running when this returns or raises.
    """
    loaded = []
    for i, m in enumerate(meshes):
        if hasattr(m, "faces"):
            m.check_usable()
            source = f"training mesh {i}"
        else:
            source = m
            m = load_mesh(m)
        if m.face_label is None:
            raise ConfigError(f"{source}: no ground-truth labels")
        _check_classes(m.face_label[m.face_label >= 0].tolist(), config,
                       source, "training label")
        loaded.append(m)
    if not loaded:
        raise ConfigError("no training meshes given")

    n_jobs = resolve_threads(config.threads)

    def prepare(mesh):
        welded, _ = weld_vertices(mesh, config.weld_epsilon)
        mesh2, _ = repair_nonmanifold(welded)
        adjacency = build_adjacency(mesh2)
        return mesh2, adjacency, compute_face_features(mesh2, config)

    prepared = parallel_map(n_jobs, prepare, loaded)
    X_face = np.vstack([feats.values for _, _, feats in prepared])
    y_face = np.concatenate([
        np.isin(mesh2.face_label, config.nonplanar_classes).astype(np.int32)
        for mesh2, _, _ in prepared])
    planarity = train_forest(X_face, y_face, config,
                             layout_version=prepared[0][2].layout_version,
                             n_jobs=n_jobs)

    def segment(item):
        mesh2, adjacency, feats = item
        probmap = planarity_map(planarity, feats)
        seg = oversegment(mesh2, adjacency, probmap, config)
        sf = compute_segment_features(mesh2, adjacency, seg, feats)
        labels = _segment_majority(seg, mesh2.face_label, mesh2.face_area)
        keep = labels >= 0
        return seg.n_segments, sf.layout_version, sf.values[keep], labels[keep]

    n_segs, layouts, seg_rows, seg_labels = zip(
        *parallel_map(n_jobs, segment, prepared))
    X_seg = np.vstack(seg_rows)
    y_seg = np.concatenate(seg_labels)
    semantic = train_forest(X_seg, y_seg, config, layout_version=layouts[0],
                            n_jobs=n_jobs)

    report = {"n_meshes": len(loaded),
              "n_face_samples": int(len(y_face)),
              "n_segment_samples": int(len(y_seg)),
              "n_segments": int(sum(n_segs)),
              "planarity_classes": [int(c) for c in planarity.classes],
              "semantic_classes": [int(c) for c in semantic.classes]}
    return TrainResult(planarity=planarity, semantic=semantic, report=report)
