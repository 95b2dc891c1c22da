"""Traced heap peaks of training and of a full run on 16 m tiles.

``tracemalloc`` counts the arrays numpy allocates, so these peaks are the
working memory of the library's own kernels. On this tile (5,188 faces)
the scratch arrays of one eigen block once set both peaks, at 20.8 and
19.1 MB with 256-face blocks; with 64-face blocks, blocked k-NN queries
and segment deviations taken one channel at a time they are near 6.7 and
6.1 MB.

Every ``pssmesh`` process pays for the modules it imports: a fresh
interpreter that imports the command line and runs the pipeline must not
load ``scipy.sparse.csgraph`` (once 3.2 MB resident, for a single call).
"""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from pssmesh.config import PipelineConfig
from pssmesh.forest import save_model
from pssmesh.pipeline import run_pipeline, train_models
from pssmesh.synth import TileParams, synth_tile

TILE = dict(ground_size=16.0, ground_res=32, n_boxes=2, n_trees=2,
            n_vehicles=1)
PEAK_BOUND = 8 * 2 ** 20


def traced_peak(fn, *args):
    """(result, traced heap peak in bytes) of ``fn(*args)``."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def trained_16m(tmp_path_factory):
    out = tmp_path_factory.mktemp("models16")
    result, peak = traced_peak(train_models, PipelineConfig(threads=1),
                               [synth_tile(TileParams(seed=0, **TILE))])
    save_model(result.planarity, out / "planarity.model")
    save_model(result.semantic, out / "semantic.model")
    return out, peak


def test_training_peak_memory(trained_16m):
    _, peak = trained_16m
    assert peak <= PEAK_BOUND, peak


def test_training_peak_does_not_grow_with_tile_count():
    """Training on four tiles peaks near training on one.

    The planarity samples of every tile live in one shared matrix, an
    ``mmap`` outside the traced heap, so the bound covers everything else:
    no prepared mesh or per-tile feature table outlives its worker's task.
    Four tiles once peaked at 1.9x one, when the parent kept each prepared
    mesh and its features and stacked them into a second copy.
    """
    tiles = [synth_tile(TileParams(seed=s, **TILE)) for s in (0, 1, 3, 5)]
    config = PipelineConfig(trees=5, threads=1)
    _, one = traced_peak(train_models, config, tiles[:1])
    _, four = traced_peak(train_models, config, tiles)
    assert four <= 1.25 * one, (one, four)


def test_pipeline_peak_memory(trained_16m, tmp_path):
    models, _ = trained_16m
    config = PipelineConfig(threads=1, output_dir=str(tmp_path / "run"),
                            planarity_model=str(models / "planarity.model"),
                            semantic_model=str(models / "semantic.model"))
    mesh = synth_tile(TileParams(seed=1, **TILE))
    _, peak = traced_peak(run_pipeline, config, mesh)
    assert (tmp_path / "run" / "graph.json").is_file()
    assert peak <= PEAK_BOUND, peak


def test_run_does_not_import_csgraph(trained_16m, tmp_path):
    # a fresh interpreter: test oracles import csgraph into this one
    models, _ = trained_16m
    code = textwrap.dedent(f"""
        import sys
        import pssmesh.cli
        from pssmesh.config import PipelineConfig
        from pssmesh.pipeline import run_pipeline
        from pssmesh.synth import TileParams, synth_tile
        assert "scipy.sparse.csgraph" not in sys.modules, "on import"
        config = PipelineConfig(
            threads=1, output_dir={str(tmp_path / "run")!r},
            planarity_model={str(models / "planarity.model")!r},
            semantic_model={str(models / "semantic.model")!r})
        run_pipeline(config, synth_tile(TileParams(
            ground_size=12.0, ground_res=12, n_boxes=1, n_trees=1,
            n_vehicles=0, seed=2)))
        assert "scipy.sparse.csgraph" not in sys.modules, "after a run"
        """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "graph.json").is_file()
