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

``train_models`` and the CLI's eval commands prepare meshes as a run does
(``prepare_mesh``), and the eval commands write through the run's score
writers (``write_*``), so every score refers to the repaired mesh.

Two face-scale tables no stage reads back, ``face_features.npy`` and
``planarity.npy``, are binary ``.npy`` files holding one structured array
with a named field per column (``features.write_npy``); every other table
is CSV.
"""

import csv
import hashlib
import io
import json
import mmap
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .adjacency import build_adjacency, segment_index, unique_ints
from .config import (ConfigError, PipelineConfig, json_numbers,
                     load_versioned_json, read_text, save_json)
# the writers that a traced run times call the untraced name: one span each
from .config import save_json as _save_json
from .features import (FaceFeatures, compute_face_features,
                       face_channel_names, write_csv, write_npy)
from .forest import (ForestModel, check_channels, classify_segments,
                     load_model, parallel_map, planarity_map, train_forest)
from .meshio import load_mesh, save_mesh
from .metrics import majority_labels, max_achievable, overseg_report, \
    semantic_metrics
from .overseg import NONPLANAR, PLANAR, Segmentation, oversegment
from .repair import RepairReport, repair_nonmanifold, weld_vertices
from .sampling import check_sample_size
from .segfeatures import compute_segment_features, segment_channel_names
from .seggraph import build_segment_graph, export_graph

STAGES = ("preprocess", "face_features", "planarity", "oversegment",
          "segment_features", "graph", "classify", "metrics")

# every file name a run writes, in stage order
ARTIFACTS = ("repaired.ply", "repair_report.json", "face_features.npy",
             "planarity.npy", "segmentation.json", "segment_features.csv",
             "graph.json", "segment_predictions.csv", "face_predictions.csv",
             "labeled.ply", "overseg_metrics.json", "metrics_row.csv",
             "upper_bound.json", "semantic_metrics.json")


class StageError(RuntimeError):
    """A pipeline stage raised; carries the stage name for reporting."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


def resolve_threads(requested: int) -> int:
    """Worker count: ``requested`` if > 0, else the number of CPUs this
    process may run on (its affinity mask where the platform has one)."""
    if requested > 0:
        return requested
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
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
        return asdict(self)

    def save(self, path) -> None:
        _save_json(self.as_dict(), path)


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
    _save_json(doc, path)


def load_segmentation(path) -> Segmentation:
    """Read a segmentation file written by ``save_segmentation``.

    Bad content (invalid JSON, a missing key, another version, ids that are
    not integers, a ``segment_type`` other than PLANAR or NONPLANAR, a
    ``face_segment`` id outside [-1, K) or a ``planes`` table that is not K
    rows of 4 JSON numbers, for the K entries of ``segment_type``) raises
    ConfigError with the path in front of the message.
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
    if not set(doc["segment_type"]) <= {PLANAR, NONPLANAR}:
        raise bad(f"segment_type values must be {PLANAR} (planar) or "
                  f"{NONPLANAR} (non-planar)")
    try:
        seg = Segmentation(
            face_segment=np.asarray(doc["face_segment"], dtype=np.int32),
            segment_type=np.asarray(doc["segment_type"], dtype=np.int8),
            planes=np.asarray(json_numbers(doc["planes"], "planes"),
                              dtype=np.float64))
    except (ValueError, TypeError, OverflowError) as exc:
        raise bad(exc) from None
    k, ids = seg.n_segments, seg.face_segment
    if len(ids) and not -1 <= ids.min() <= ids.max() < k:
        raise bad(f"face_segment ids must lie in [-1, {k}) for {k} "
                  f"segment types")
    if seg.planes.shape == (0,):            # [] is the table of no planes
        seg.planes = seg.planes.reshape(0, 4)
    if seg.planes.shape != (k, 4):
        raise bad(f"planes must be {k} rows of 4 for {k} segment types, "
                  f"got shape {seg.planes.shape}")
    return seg


def save_planarity(probmap, path) -> None:
    """Fields ``planar_prob`` and ``nonplanar_geo`` (float64) and ``label``
    (int32), one row per face."""
    write_npy(path, [
        ("planar_prob", np.asarray(probmap.planar_prob, np.float64)),
        ("nonplanar_geo", np.asarray(probmap.g_hat, np.float64)),
        ("label", np.asarray(probmap.label, np.int32))])


def save_segment_predictions(classes, proba, class_ids, path) -> None:
    write_csv(path, ["segment", "class"] + [f"p_{c}" for c in class_ids],
              ([k, c, *p] for k, (c, p) in
               enumerate(zip(_ints(classes), _floats(proba)))))


def save_face_predictions(face_classes, path) -> None:
    write_csv(path, ["face", "class"], enumerate(_ints(face_classes)))


def load_face_predictions(path) -> np.ndarray:
    """Read a face prediction table written by ``save_face_predictions``.

    A directory or text that is not UTF-8 (see ``read_text``), a wrong
    header, a cell that is not an integer, a face id outside [0, rows) or
    listed twice and a class id outside int64 raise ConfigError naming the
    path and, where it has one, the row; a missing file raises
    FileNotFoundError.
    """
    text = read_text(path, "prediction")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows or rows[0][:2] != ["face", "class"]:
        raise ConfigError(f"{path} is not a face prediction table")
    out = np.full(len(rows) - 1, -1, dtype=np.int64)
    seen = np.zeros(len(out), dtype=bool)
    i64 = np.iinfo(out.dtype)
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
        if not i64.min <= cls <= i64.max:
            raise ConfigError(f"{path}: row {line}: class id {cls} outside "
                              f"int64")
        seen[face] = True
        out[face] = cls
    return out


def save_metrics_row(n_segments: int, report, path) -> None:
    """One CSV row for segment-count curves: count and the three scores."""
    write_csv(path, ["segments", "op", "bp", "br"],
              [[int(n_segments), report.op, report.bp, report.br]])


def write_overseg_scores(emit, mesh, adjacency, segmentation, config):
    """Write OP, BP and BR within ``config.boundary_rings`` through
    ``emit(name, writer)``, which calls ``writer(path)``; return them."""
    report = overseg_report(mesh, adjacency, segmentation.face_segment,
                            mesh.face_label, rings=config.boundary_rings)
    emit("overseg_metrics.json", lambda p: save_json(report.as_dict(), p))
    emit("metrics_row.csv",
         lambda p: save_metrics_row(segmentation.n_segments, report, p))
    return report


def write_upper_bound(emit, mesh, segmentation):
    """Write the best scores of a labeling constant on each segment through
    ``emit``; return the report."""
    report, _ = max_achievable(segmentation.face_segment, mesh.face_label,
                               mesh.face_area)
    emit("upper_bound.json", lambda p: save_json(report.as_dict(), p))
    return report


def write_semantic_scores(emit, face_classes, mesh, config):
    """Write the area-weighted scores of ``face_classes`` over
    ``config.classes`` through ``emit``; return the report."""
    report = semantic_metrics(face_classes, mesh.face_label, mesh.face_area,
                              classes=sorted(config.classes))
    emit("semantic_metrics.json", lambda p: save_json(report.as_dict(), p))
    return report


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


def check_classes(ids, config: PipelineConfig, source, what) -> None:
    """ConfigError naming ``source`` and the lowest unknown id unless every
    id (an int array or sequence) is in config.classes."""
    ids = unique_ints(ids)
    unknown = ids[~np.isin(ids, list(config.classes))]
    if len(unknown):
        raise ConfigError(f"{source}: {what} {unknown[0]} is not in the "
                          f"config's classes {sorted(config.classes)}")


def prepare_mesh(mesh, config: PipelineConfig):
    """``(mesh, RepairReport, AdjacencyIndex)``: ``mesh`` welded within
    ``config.weld_epsilon`` and repaired, its faces in order with their
    labels, and the repaired mesh's adjacency. No edge of the repaired
    mesh has more than two faces, or ``build_adjacency`` would raise."""
    welded, welded_count = weld_vertices(mesh, config.weld_epsilon)
    repaired, nonmanifold, split_count = repair_nonmanifold(welded)
    adjacency = build_adjacency(repaired)
    return repaired, RepairReport(
        welded_vertices=welded_count, nonmanifold_edges=nonmanifold,
        split_vertices=split_count,
        degenerate_faces=int(repaired.degenerate_faces.sum())), adjacency


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
    required from the planarity stage on; the semantic model and
    ground-truth labels are optional and their stages are skipped with a
    manifest note when absent; a label column without a label >= 0 counts
    as absent (``TriangleMesh.has_ground_truth``). Both models and the mesh
    are checked before the first stage, so a missing or bad model file or
    mesh raises FileNotFoundError, ConfigError, MeshParseError or MeshError
    and writes nothing. A model whose channel names differ from the ones
    the config gives (``check_channels``) and a semantic model class
    outside ``config.classes`` are such input errors, and so is a
    ground-truth label >= 0 outside it when the semantic metrics will run,
    and so is a mesh whose exmat sample would exceed
    ``sampling.MAX_SAMPLES_PER_FACE`` points per face when the graph will
    be built (``check_sample_size``; a mesh in millimetres, say).
    The segment features and the graph read one ``adjacency.segment_index``,
    built right after oversegmentation.
    """
    if stop_after is not None and stop_after not in STAGES:
        raise ValueError(f"unknown stage {stop_after!r}")
    if config.output_dir is None:
        raise ConfigError("output_dir is required")
    wanted = STAGES if stop_after is None \
        else STAGES[:STAGES.index(stop_after) + 1]
    model = sem_model = None
    face_names = face_channel_names(config)
    if "planarity" in wanted:
        if config.planarity_model is None:
            raise ConfigError("planarity_model is required for planarity")
        model = load_model(config.planarity_model)
        check_channels(model, face_names, config.planarity_model)
    if "classify" in wanted and config.semantic_model is not None:
        sem_model = load_model(config.semantic_model)
        check_channels(sem_model, segment_channel_names(face_names),
                       config.semantic_model)
        check_classes(sem_model.classes, config,
                      config.semantic_model, "model class")

    input_sha = None
    if mesh is None:
        if config.input_path is None:
            raise ConfigError("input_path is required")
        mesh = load_mesh(config.input_path)
        input_sha = file_sha256(config.input_path)
    else:
        mesh.check_usable()
    source = config.input_path if input_sha else "input mesh"
    if sem_model is not None and "metrics" in wanted \
            and mesh.has_ground_truth:
        check_classes(mesh.face_label[mesh.face_label >= 0], config, source,
                      "ground-truth label")
    if "graph" in wanted:
        check_sample_size(mesh, config.sampling_density, source)

    run_dir = Path(config.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    clear_previous_run(run_dir)
    result = PipelineResult(config=config, run_dir=run_dir)
    written = []
    stage_seconds = {}
    notes = []
    current, started = None, 0.0

    def emit(name, writer):
        path = run_dir / name
        writer(path)
        written.append(path)

    def stage(name):
        """Stop the running stage's clock; start ``name``'s if it runs."""
        nonlocal current, started
        now = time.perf_counter()
        if current is not None:
            stage_seconds[current] = now - started
        current, started = (name if name in wanted else None), now
        return current is not None

    try:
        stage("preprocess")
        mesh2, result.repair_report, adjacency = prepare_mesh(mesh, config)
        result.mesh = mesh2
        emit("repaired.ply", lambda p: save_mesh(mesh2, p))
        emit("repair_report.json",
             lambda p: save_json(result.repair_report.as_dict(), p))

        if stage("face_features"):
            feats = compute_face_features(mesh2, config)
            result.face_features = feats
            emit("face_features.npy", feats.to_npy)

        if stage("planarity"):
            result.probmap = planarity_map(model, feats)
            emit("planarity.npy", lambda p: save_planarity(result.probmap, p))

        if stage("oversegment"):
            seg = oversegment(mesh2, adjacency, result.probmap, config)
            result.segmentation = seg
            index = segment_index(mesh2, adjacency, seg.face_segment,
                                  seg.n_segments)
            emit("segmentation.json", lambda p: save_segmentation(seg, p))

        if stage("segment_features"):
            sf = compute_segment_features(mesh2, adjacency, index, feats)
            result.segment_features = sf
            emit("segment_features.csv", sf.to_csv)

        if stage("graph"):
            graph = build_segment_graph(mesh2, seg, index, sf, config)
            result.graph = graph
            emit("graph.json", lambda p: export_graph(graph, p))

        if stage("classify"):
            if sem_model is None:
                notes.append("classification skipped: no semantic model")
            else:
                cls, proba = classify_segments(sem_model, sf)
                result.segment_classes = cls
                result.segment_proba = proba
                face_cls = cls[seg.face_segment]
                result.face_classes = face_cls
                emit("segment_predictions.csv",
                     lambda p: save_segment_predictions(
                         cls, proba, sem_model.classes, p))
                emit("face_predictions.csv",
                     lambda p: save_face_predictions(face_cls, p))
                labeled = replace(mesh2, face_label=face_cls)
                emit("labeled.ply", lambda p: save_mesh(labeled, p))

        if stage("metrics"):
            if not mesh2.has_ground_truth:
                notes.append("metrics skipped: no ground-truth labels")
            else:
                result.overseg = write_overseg_scores(emit, mesh2, adjacency,
                                                      seg, config)
                result.upper_bound = write_upper_bound(emit, mesh2, seg)
                if result.face_classes is not None:
                    result.semantic = write_semantic_scores(
                        emit, result.face_classes, mesh2, config)
        stage(None)
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


def train_models(config: PipelineConfig, meshes) -> TrainResult:
    """Fit the planarity forest, then the segment classifier on its output.

    ``meshes`` holds TriangleMesh objects or file paths; every mesh must
    carry ground-truth face labels, at least one of them >= 0. Faces of the
    classes listed in ``config.nonplanar_classes`` form the non-planar
    planarity class. The segment classifier trains on segments produced by
    running the freshly fitted planarity model through oversegmentation,
    labeled by area majority. A ``config.nonplanar_classes`` id outside ``config.classes``
    raises ConfigError naming the key before any mesh is read, and a label
    >= 0 outside it one naming the mesh file (``training mesh <i>`` for an
    in-memory mesh) before the first fit. So does training data with a
    single class, before the forest that would need two: every face on one
    side of ``config.nonplanar_classes``, or one majority label on every
    kept segment.

    Faces labelled -1 are not planarity samples: the report's
    ``n_face_samples`` counts the faces labelled >= 0.

    The planarity samples live in one column-major (faces, channels)
    matrix, allocated once over a shared anonymous ``mmap`` (so the trees
    read each feature column without a copy). ``parallel_map`` runs two
    passes in ``resolve_threads(config.threads)`` forked worker processes,
    the pool the forests' trees are built in. The first prepares each mesh
    (``prepare_mesh``, which keeps every face in order with its label),
    computes its face features and writes them into the mesh's rows of the
    shared matrix. Once the planarity forest is fitted, the second prepares
    each mesh again and segments it, reading its face features from its
    rows. So the parent holds no prepared mesh and no per-mesh feature
    table, and only the segment samples are pickled back. Results are
    gathered in mesh order, so the models are the same at every worker
    count. No worker is left running when this returns or raises.
    """
    check_classes(config.nonplanar_classes, config, "nonplanar_classes",
                  "class id")
    loaded, sources = [], []
    for i, m in enumerate(meshes):
        if hasattr(m, "faces"):
            m.check_usable()
            source = f"training mesh {i}"
        else:
            source = m
            m = load_mesh(m)
        if not m.has_ground_truth:
            raise ConfigError(f"{source}: no ground-truth labels")
        check_classes(m.face_label[m.face_label >= 0], config,
                      source, "training label")
        loaded.append(m)
        sources.append(str(source))
    if not loaded:
        raise ConfigError("no training meshes given")

    label = np.concatenate([m.face_label for m in loaded])
    labelled = label >= 0
    y_face = np.isin(label[labelled],
                     config.nonplanar_classes).astype(np.int32)
    if y_face.min() == y_face.max():
        side = "non-planar" if y_face[0] else "planar"
        raise ConfigError(
            f"{', '.join(sources)}: every face is {side} with "
            f"nonplanar_classes {list(config.nonplanar_classes)}; the "
            f"planarity forest needs both")

    n_jobs = resolve_threads(config.threads)
    names = face_channel_names(config)
    rows = np.cumsum([0] + [m.n_faces for m in loaded])
    # MAP_SHARED: the rows the forked workers write are the parent's
    X_face = np.ndarray((rows[-1], len(names)), order="F", buffer=mmap.mmap(
        -1, int(rows[-1]) * len(names) * 8))

    def featurize(i):
        mesh2, _, _ = prepare_mesh(loaded[i], config)
        X_face[rows[i]:rows[i + 1]] = compute_face_features(mesh2,
                                                            config).values

    parallel_map(n_jobs, featurize, range(len(loaded)))
    samples = X_face
    if not labelled.all():      # one column-major copy, a column at a time
        samples = np.empty((len(y_face), len(names)), order="F")
        for j, column in enumerate(X_face.T):
            samples[:, j] = column[labelled]
    planarity = train_forest(samples, y_face, names, config, n_jobs=n_jobs)
    del samples

    def segment(i):
        mesh2, _, adjacency = prepare_mesh(loaded[i], config)
        feats = FaceFeatures(np.ascontiguousarray(X_face[rows[i]:rows[i + 1]]),
                             names, color_missing=not mesh2.has_color)
        probmap = planarity_map(planarity, feats)
        seg = oversegment(mesh2, adjacency, probmap, config)
        index = segment_index(mesh2, adjacency, seg.face_segment,
                              seg.n_segments)
        sf = compute_segment_features(mesh2, adjacency, index, feats)
        # every face of a segment carries the segment's majority label
        labels = majority_labels(seg.face_segment, mesh2.face_label,
                                 mesh2.face_area)[[f[0] for f in index.faces]]
        keep = labels >= 0
        return seg.n_segments, sf.values[keep], labels[keep]

    n_segs, seg_rows, seg_labels = zip(
        *parallel_map(n_jobs, segment, range(len(loaded))))
    X_seg = np.vstack(seg_rows)
    y_seg = np.concatenate(seg_labels)
    seg_classes = np.unique(y_seg).tolist()
    if len(seg_classes) < 2:
        raise ConfigError(
            f"{', '.join(sources)}: the kept segments have majority labels "
            f"{seg_classes}; the semantic forest needs two classes")
    semantic = train_forest(X_seg, y_seg, segment_channel_names(names),
                            config, n_jobs=n_jobs)

    report = {"n_meshes": len(loaded),
              "n_face_samples": int(len(y_face)),
              "n_segment_samples": int(len(y_seg)),
              "n_segments": int(sum(n_segs)),
              "planarity_classes": [int(c) for c in planarity.classes],
              "semantic_classes": [int(c) for c in semantic.classes]}
    return TrainResult(planarity=planarity, semantic=semantic, report=report)
