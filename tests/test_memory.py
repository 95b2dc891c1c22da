"""Traced heap peaks of training and of a full run on one 16 m tile.

``tracemalloc`` counts the arrays numpy allocates, so these peaks are the
working memory of the library's own kernels. On this tile (5,188 faces)
the scratch arrays of one eigen block once set both peaks, at 20.8 and
19.1 MB with 256-face blocks; with 64-face blocks, blocked k-NN queries
and segment deviations taken one channel at a time they are near 6.7 and
6.1 MB.
"""

import tracemalloc

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


def test_pipeline_peak_memory(trained_16m, tmp_path):
    models, _ = trained_16m
    config = PipelineConfig(threads=1, output_dir=str(tmp_path / "run"),
                            planarity_model=str(models / "planarity.model"),
                            semantic_model=str(models / "semantic.model"))
    mesh = synth_tile(TileParams(seed=1, **TILE))
    _, peak = traced_peak(run_pipeline, config, mesh)
    assert (tmp_path / "run" / "graph.json").is_file()
    assert peak <= PEAK_BOUND, peak
