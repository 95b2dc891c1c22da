"""Configuration loading, validation, and override tests."""

import json

import numpy as np
import pytest

from pssmesh.adjacency import build_adjacency
from pssmesh.config import (
    ConfigError,
    PipelineConfig,
    config_from_dict,
    load_config,
    override_config,
)
from pssmesh.features import EIGEN_NAMES, face_channel_names
from pssmesh.forest import train_forest
from pssmesh.overseg import frontier_decision
from pssmesh.segfeatures import compute_segment_features
from pssmesh.seggraph import (EDGE_EXMAT, EDGE_PROXIMITY, SegmentGraph,
                              build_segment_graph, exmat_edges,
                              proximity_edges)
from pssmesh.synth import TileParams, synth_tile

from test_seggraph import components_segmentation, fake_features, index_of


def test_defaults_round_trip_through_dict():
    cfg = PipelineConfig()
    again = config_from_dict(cfg.as_dict())
    assert again == cfg


def test_save_load_round_trip(tmp_path):
    cfg = PipelineConfig(lambda_d=2.5, trees=7, seed=11,
                         classes={0: "a", 3: "b"})
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg.as_dict()))
    assert load_config(path) == cfg


def test_json_lists_become_tuples(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eigen_radii": [1, 2],
                                "nonplanar_classes": [2, 3]}))
    cfg = load_config(path)
    assert cfg.eigen_radii == (1.0, 2.0)
    assert cfg.nonplanar_classes == (2, 3)


def test_class_keys_coerced_to_int():
    cfg = config_from_dict({"classes": {"0": "ground", "5": "roof"}})
    assert cfg.classes == {0: "ground", 5: "roof"}


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="lambda_x"):
        config_from_dict({"lambda_x": 1.0})


def test_override_unknown_key_rejected():
    with pytest.raises(ConfigError, match="no_such_field"):
        override_config(PipelineConfig(), no_such_field=3)


def test_override_changes_only_named_fields():
    cfg = PipelineConfig(trees=50)
    out = override_config(cfg, lambda_m=0.5, seed=9)
    assert out.lambda_m == 0.5 and out.seed == 9
    assert out.trees == 50
    assert cfg.lambda_m == 0.1


def test_missing_file():
    with pytest.raises(FileNotFoundError, match="no/such/cfg.json"):
        load_config("no/such/cfg.json")


def test_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_non_object_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(path)


@pytest.mark.parametrize("field,value", [
    ("lambda_d", -0.1),
    ("trees", 0),
    ("min_leaf", 0),
    ("ground_radius", 0.0),
    ("sampling_density", -1.0),
    ("knn_k", 0),
    ("boundary_rings", -1),
    ("threads", -2),
    ("knn_cutoff_factor", 0.0),
    ("eigen_radii", (1.0, -2.0)),
    ("classes", {}),
    ("eigen_radii", ()),
])
def test_validation_rejects(field, value):
    with pytest.raises(ConfigError):
        PipelineConfig(**{field: value})


@pytest.mark.parametrize("seed", [-1, 2 ** 63, 2 ** 64 + 5])
def test_seed_outside_int64_rejected(seed):
    # model files store the seed as an int64, and numpy's generators take
    # no negative seed
    with pytest.raises(ConfigError, match=r"^seed must lie in \[0, 2\*\*63\)"):
        PipelineConfig(seed=seed)


@pytest.mark.parametrize("seed", [0, 2 ** 63 - 1])
def test_seed_int64_extremes_kept(seed):
    assert PipelineConfig(seed=seed).seed == seed


@pytest.mark.parametrize("field,radii,suffix", [
    ("eigen_radii", (1.0, 1.0), "r1"),
    ("eigen_radii", (0.5, 1.0, 1.0000001), "r1"),
    ("elevation_radii", (10.0, 20.0, 10.0), "r10"),
])
def test_radii_naming_one_channel_twice_rejected(field, radii, suffix):
    # both give channels such as linearity_r1 twice, which the face
    # feature table cannot hold
    with pytest.raises(ConfigError, match=f"^{field} gives two channels "
                                          f"the suffix '_{suffix}'$"):
        PipelineConfig(**{field: radii})


def test_empty_elevation_radii_allowed():
    assert PipelineConfig(elevation_radii=()).elevation_radii == ()


def test_int_accepted_for_float():
    cfg = config_from_dict({"lambda_d": 2, "ground_radius": 7})
    assert type(cfg.lambda_d) is float and cfg.lambda_d == 2.0
    assert type(cfg.ground_radius) is float


def test_stages_read_the_config():
    cfg = PipelineConfig(eigen_radii=(0.5,), elevation_radii=(5.0, 9.0),
                         trees=3, seed=4, lambda_d=2.0, lambda_m=0.3,
                         sampling_density=2.0, knn_k=4)
    names = face_channel_names(cfg)
    assert names[:5] == [f"{n}_r0.5" for n in EIGEN_NAMES]
    assert names[5:9] == ["elevation_abs", "elevation_rel",
                          "elevation_rel_r5", "elevation_rel_r9"]
    assert len(names) == 16

    X = np.random.default_rng(0).random((60, 3))
    columns = ["c0", "c1", "c2"]
    model = train_forest(X, X[:, 0] > 0.5, columns, cfg)
    assert len(model.trees) == cfg.trees and model.seed == cfg.seed
    seed0 = train_forest(X, X[:, 0] > 0.5, columns,
                         override_config(cfg, seed=0))
    assert model.trees[0].threshold[0] != seed0.trees[0].threshold[0]

    # join iff lambda_d * 0.6 <= lambda_d * 0.4 + lambda_m * 0.5
    assert frontier_decision([0.6], [0.4], [0.5], cfg)[0] == 1
    assert frontier_decision([0.6], [0.4], [0.5],
                             override_config(cfg, lambda_m=1.0))[0] == 0

    mesh = synth_tile(TileParams(seed=1, ground_res=16, n_boxes=2, n_trees=1,
                                 n_vehicles=1))
    adj = build_adjacency(mesh)
    seg = components_segmentation(mesh, adj)
    index = index_of(mesh, adj, seg)
    feats = compute_segment_features(mesh, adj, index, fake_features(mesh))
    graph = build_segment_graph(mesh, seg, index, feats, cfg)
    for family, add in ((EDGE_EXMAT, lambda g: exmat_edges(
                            g, mesh, index, cfg.sampling_density, cfg.seed)),
                        (EDGE_PROXIMITY, lambda g: proximity_edges(
                            g, mesh, index, cfg.knn_k,
                            cfg.knn_cutoff_factor))):
        fresh = SegmentGraph(segment_type=graph.segment_type,
                             planes=graph.planes, centroids=graph.centroids,
                             features=graph.features)
        assert add(fresh) > 0
        assert {k for k, e in graph.edges.items() if family in e.types} \
            == set(fresh.edges), family


def test_as_dict_is_json_safe():
    text = json.dumps(PipelineConfig().as_dict())
    assert "terrain" in text
