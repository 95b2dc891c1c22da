"""Synthetic tile generator tests."""

import numpy as np
import pytest

from pssmesh.adjacency import build_adjacency, face_connected_components
from pssmesh.config import ConfigError
from pssmesh.metrics import overseg_report
from pssmesh.synth import (
    CLASS_BUILDING,
    CLASS_TERRAIN,
    CLASS_VEGETATION,
    CLASS_VEHICLE,
    PlacementError,
    TileParams,
    expected_component_count,
    ground_grid,
    icosphere,
    synth_tile,
)

from conftest import grid_mesh


def test_tile_deterministic():
    a = synth_tile(TileParams(seed=0, ground_res=16, n_boxes=2, n_trees=2,
                              n_vehicles=1))
    b = synth_tile(TileParams(seed=0, ground_res=16, n_boxes=2, n_trees=2,
                              n_vehicles=1))
    assert (a.vertices == b.vertices).all()
    assert (a.faces == b.faces).all()
    assert (a.face_color == b.face_color).all()
    assert (a.face_label == b.face_label).all()


def test_tile_seed_changes_geometry():
    p = dict(ground_res=16, n_boxes=2, n_trees=2, n_vehicles=1)
    a = synth_tile(TileParams(seed=0, **p))
    b = synth_tile(TileParams(seed=1, **p))
    assert a.vertices.shape != b.vertices.shape or not (a.vertices == b.vertices).all()


def test_tile_component_count():
    params = TileParams(seed=3, ground_res=16, n_boxes=3, n_trees=2,
                        n_vehicles=2)
    mesh = synth_tile(params)
    adj = build_adjacency(mesh)
    comps = face_connected_components(mesh, adj, mesh.face_label)
    assert comps.max() + 1 == expected_component_count(params)


def test_tile_classes_present_and_objects_above_ground():
    mesh = synth_tile(TileParams(seed=0, ground_res=16, n_boxes=1, n_trees=1,
                                 n_vehicles=1))
    labels = mesh.face_label
    for c in (CLASS_TERRAIN, CLASS_BUILDING, CLASS_VEGETATION, CLASS_VEHICLE):
        assert (labels == c).any()
    z = mesh.face_centroid[:, 2]
    assert (z[labels == CLASS_TERRAIN] == 0.0).all()
    assert z[labels == CLASS_VEGETATION].min() > 0.0


def test_every_seed_of_the_16m_tile_builds():
    # half the seeds once raised: a layout that does not fit starts again
    # from an empty tile, so a seed sweep over this tile can run
    p = dict(ground_size=16.0, ground_res=32, n_boxes=2, n_trees=2,
             n_vehicles=1)
    digests = set()
    for seed in range(16):
        params = TileParams(seed=seed, **p)
        mesh = synth_tile(params)
        adj = build_adjacency(mesh)
        comps = face_connected_components(mesh, adj, mesh.face_label)
        assert comps.max() + 1 == expected_component_count(params), seed
        digests.add(mesh.vertices.tobytes())
    assert len(digests) == 16


def test_crowded_tile_raises_placement_error():
    with pytest.raises(PlacementError, match="reduce object counts"):
        synth_tile(TileParams(ground_size=8.0, ground_res=8, n_boxes=20))


def test_tile_default_size():
    mesh = synth_tile(TileParams(seed=0))
    assert 15000 <= mesh.n_faces <= 30000


def test_gt_components_score_perfectly():
    mesh = synth_tile(TileParams(seed=2, ground_res=16, n_boxes=2, n_trees=1,
                                 n_vehicles=1))
    adj = build_adjacency(mesh)
    comps = face_connected_components(mesh, adj, mesh.face_label)
    rep = overseg_report(mesh, adj, comps, mesh.face_label, rings=2)
    assert rep.op == 1.0 and rep.bp == 1.0 and rep.br == 1.0


def test_icosphere_radius():
    verts, faces = icosphere(radius=2.5, subdivisions=2, center=(1.0, 2.0, 3.0))
    r = np.linalg.norm(verts - np.array([1.0, 2.0, 3.0]), axis=1)
    assert np.allclose(r, 2.5, atol=1e-12)
    assert len(faces) == 20 * 4 ** 2


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        TileParams(ground_size=-1.0)
    with pytest.raises(ValueError):
        TileParams(noise_sigma=-0.1)
    for bad in ({"ground_res": 0}, {"n_trees": -1}, {"seed": -1}):
        with pytest.raises(ConfigError):
            TileParams(**bad)
    with pytest.raises(TypeError):
        synth_tile(TileParams(), seed=1)


def test_ground_grid_triangulation():
    verts, faces = ground_grid(4.0, 4, z=1.5)
    ref = grid_mesh(4, 4, dx=1.0, z=1.5)
    assert np.array_equal(faces, ref.faces)
    assert np.array_equal(verts, ref.vertices)
    assert faces.dtype == np.int64
