"""The golden run and the script that rewrites its digests.

    PYTHONPATH=src python3 tests/golden/regen.py

The golden run trains both models on one synthetic tile (``trees=10``,
``threads=1``) and runs the full pipeline on another. ``digests.json``
holds the sha256 of the input tile, of both model files and of every run
artifact except ``manifest.json`` (it records timings), with the Python
minor version and the numpy and scipy versions the digests were made with.
``tests/test_golden.py`` reruns the golden run and compares; a change that
alters outputs on purpose reruns this script and says so.
"""

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from pssmesh.config import PipelineConfig
from pssmesh.forest import save_model
from pssmesh.meshio import save_mesh
from pssmesh.pipeline import file_sha256, run_pipeline, train_models
from pssmesh.synth import TileParams, synth_tile

DIGESTS = Path(__file__).with_name("digests.json")
TRAIN_TILE = TileParams(seed=0, ground_res=16, n_boxes=2, n_trees=1,
                        n_vehicles=1)
INPUT_TILE = replace(TRAIN_TILE, seed=1)


def versions() -> dict:
    """The versions whose arithmetic the digests depend on."""
    return {"python": "%d.%d" % sys.version_info[:2],
            "numpy": np.__version__, "scipy": scipy.__version__}


def golden_digests(work: Path) -> dict:
    """File name -> sha256 of the golden run's files, written under ``work``."""
    work = Path(work)
    cfg = PipelineConfig(trees=10, threads=1)
    models = train_models(cfg, [synth_tile(TRAIN_TILE)])
    save_model(models.planarity, work / "planarity.model")
    save_model(models.semantic, work / "semantic.model")
    save_mesh(synth_tile(INPUT_TILE), work / "input.ply")
    run = run_pipeline(replace(
        cfg, input_path=str(work / "input.ply"), output_dir=str(work / "run"),
        planarity_model=str(work / "planarity.model"),
        semantic_model=str(work / "semantic.model")))
    files = [work / name for name in
             ("input.ply", "planarity.model", "semantic.model")]
    files += sorted(p for p in run.run_dir.iterdir()
                    if p.name != "manifest.json")
    return {str(p.relative_to(work)): file_sha256(p) for p in files}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_digests(Path(tmp))
    DIGESTS.write_text(json.dumps({"versions": versions(), "digests": digests},
                                  indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
