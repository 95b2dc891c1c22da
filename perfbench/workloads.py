"""Workloads of the pssmesh benchmark: inputs from a seed, set-up, operation.

Tiles are built like ``synth_tile`` builds them (0.5 m ground cells, boxes,
noisy crowns, vehicles), but with fixed object sizes; see ``make_tile``.
Each tile role draws from its own generator seeded with (workload seed,
role), so the same workload seed always gives the same files and the input
never doubles as a training tile.

Why the tiles are smaller than the library's 32 m default: one pipeline
run on the default tile takes about 20 s on a 2-CPU machine and one on a
48 m tile about 70 s, and each benchmark run must repeat its set-up and
its operation within a fixed time budget. The 16 m and 24 m tiles keep the
2.25x area ratio of the default and 48 m tiles at about the same object
density.
"""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from pssmesh import forest, synth
from pssmesh.config import PipelineConfig
from pssmesh.meshio import save_mesh
from pssmesh.pipeline import run_pipeline, train_models

SMALL = dict(ground_size=16.0, ground_res=32, n_boxes=2, n_trees=2,
             n_vehicles=1)
WIDE = dict(ground_size=24.0, ground_res=48, n_boxes=4, n_trees=4,
            n_vehicles=2)

BOX = (4.5, 4.5, 5.5)           # building width, depth, height in metres
VEHICLE = (1.8, 4.0, 1.6)
BOX_HALF = max(BOX[:2]) / 2.0   # placement radius
VEHICLE_HALF = max(VEHICLE[:2]) / 2.0
CROWN_RADIUS = 1.6
CROWN_LIFT = 1.75               # crown bottom above the ground
NOISE_SIGMA = 0.08

# generator streams, one per tile role
INPUT, TRAIN_A, TRAIN_B = 0, 1, 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # "pipeline" or "train"
    tile: dict              # TileParams fields of the timed input tile
    train_tile: dict        # TileParams fields of the training tiles
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("tile-small", "pipeline", SMALL, SMALL,
             "run_pipeline, all 8 stages, both models, threads=1, on a 16 m "
             "tile (ground_res 32; 2 boxes, 2 trees, 1 vehicle; 5120 faces): "
             "fixed per-face costs and artifact I/O show"),
    Workload("tile-wide", "pipeline", WIDE, SMALL,
             "same pipeline on a 24 m tile (ground_res 48; 4 boxes, 4 trees, "
             "2 vehicles; 10752 faces), 2.25x the area: the kernels that grow "
             "faster than linearly weigh more"),
    Workload("train", "train", SMALL, SMALL,
             "train_models on two 16 m tiles with threads = nproc: forest "
             "fitting and its thread pool; seggraph, metrics and pipeline "
             "artifact I/O do no work"),
)}


def make_tile(params: dict, seed: int, stream: int):
    """A ``synth_tile``-style tile with fixed object sizes.

    Positions, crown noise and colours come from generator (seed, stream).
    ``synth_tile`` draws every object size too, and with two or four
    objects per class that swings the work per tile: crowns of radius 1.2
    or 2 m change the 2 m eigen neighbourhoods, and run time and peak
    memory of one 16 m tile varied by about 20% across seeds. Sizes here
    sit at the middle of ``synth_tile``'s ranges. All objects are placed
    before any is built, so a layout that does not fit costs little.
    """
    size = params["ground_size"]
    rng = np.random.default_rng([seed, stream])
    kinds = ([(BOX_HALF, synth.CLASS_BUILDING)] * params["n_boxes"]
             + [(CROWN_RADIUS, synth.CLASS_VEGETATION)] * params["n_trees"]
             + [(VEHICLE_HALF, synth.CLASS_VEHICLE)] * params["n_vehicles"])
    for _ in range(100):
        placed = []
        try:
            centers = [synth._place(rng, placed, half, size)
                       for half, _ in kinds]
        except RuntimeError:            # objects could not all be placed
            continue
        b = synth._Builder()
        b.add(*synth.ground_grid(size, params["ground_res"]),
              synth.CLASS_TERRAIN)
        for c, (_, label) in zip(centers, kinds):
            if label == synth.CLASS_VEGETATION:
                center = (c[0], c[1], CROWN_RADIUS + CROWN_LIFT)
                b.add(*synth.noisy_sphere(CROWN_RADIUS, center, NOISE_SIGMA,
                                          rng), label)
            else:
                dims = BOX if label == synth.CLASS_BUILDING else VEHICLE
                b.add(*synth.box_shell(c, dims), label)
        return b.build(rng)
    raise RuntimeError(f"no placeable tile for seed {seed}, stream {stream}")


def setup(w: Workload, seed: int, dest: Path) -> int:
    """Write the workload's input files into ``dest``; return input faces.

    Pipeline workloads get ``input.ply`` plus both models trained on a
    second tile. The train workload gets its two training tiles and a
    held-out tile to score the models it produces.
    """
    dest.mkdir(parents=True, exist_ok=True)
    tile = make_tile(w.tile, seed, INPUT)
    train = make_tile(w.train_tile, seed, TRAIN_A)
    if w.kind == "train":
        second = make_tile(w.train_tile, seed, TRAIN_B)
        save_mesh(tile, dest / "heldout.ply")
        save_mesh(train, dest / "train_a.ply")
        save_mesh(second, dest / "train_b.ply")
        return train.n_faces + second.n_faces
    save_mesh(tile, dest / "input.ply")
    models = train_models(PipelineConfig(threads=1), [train])
    forest.save_model(models.planarity, dest / "planarity.model")
    forest.save_model(models.semantic, dest / "semantic.model")
    return tile.n_faces


def run(kind: str, inputs: Path, out: Path, threads: int) -> None:
    """The timed operation of a workload kind; its artifacts go to ``out``."""
    if kind == "pipeline":
        run_pipeline(PipelineConfig(
            input_path=str(inputs / "input.ply"), output_dir=str(out),
            planarity_model=str(inputs / "planarity.model"),
            semantic_model=str(inputs / "semantic.model"), threads=1))
        return
    out.mkdir(parents=True, exist_ok=True)
    models = train_models(PipelineConfig(threads=threads),
                          [inputs / "train_a.ply", inputs / "train_b.ply"])
    # looked up on the module so a traced run sees the wrapped writer
    forest.save_model(models.planarity, out / "planarity.model")
    forest.save_model(models.semantic, out / "semantic.model")


def score(w: Workload, inputs: Path, out: Path, scratch: Path) -> dict:
    """Object purity and held-out mIoU of one operation's result.

    A pipeline run scores itself; the models a train run produced are
    scored by a pipeline run on the held-out tile.
    """
    if w.kind == "train":
        run_pipeline(PipelineConfig(
            input_path=str(inputs / "heldout.ply"), output_dir=str(scratch),
            planarity_model=str(out / "planarity.model"),
            semantic_model=str(out / "semantic.model"), threads=1))
        out = scratch
    op = json.loads((out / "overseg_metrics.json").read_text())["op"]
    miou = json.loads((out / "semantic_metrics.json").read_text())["miou"]
    return {"op": float(op), "miou": float(miou)}


def sha256(path: Path) -> str:
    """File digest, computed apart from the ``file_sha256`` it checks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def artifact_hashes(out: Path) -> dict:
    """sha256 of every artifact, the manifest (it holds timings) excepted."""
    return {p.name: sha256(p) for p in sorted(out.iterdir())
            if p.is_file() and p.name != "manifest.json"}


def manifest_errors(out: Path) -> list:
    """Files whose hash disagrees with the manifest beside them."""
    path = out / "manifest.json"
    if not path.is_file():
        return ["manifest.json"]
    listed = json.loads(path.read_text())["outputs"]
    return [name for name, digest in sorted(listed.items())
            if not (out / name).is_file() or sha256(out / name) != digest]
