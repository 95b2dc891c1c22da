from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from pssmesh import adjacency as adjacency_module, repair as repair_module
from pssmesh.mesh import TriangleMesh
from pssmesh.repair import weld_vertices, repair_nonmanifold
from pssmesh.adjacency import build_adjacency
from pssmesh.config import PipelineConfig
from pssmesh.pipeline import prepare_mesh
from pssmesh.synth import TileParams, synth_tile

from conftest import (grid_mesh, brute_force_adjacency, adjacency_pairs,
                      neighbor_list, unwelded, with_fin)
from oracles import count_nonmanifold_edges, dict_detach_overshared


def test_weld_two_coincident_vertices():
    m = TriangleMesh(
        vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0]], dtype=float),
        faces=np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int32))
    out, welded = weld_vertices(m, 1e-6)
    assert out.n_vertices == 3
    assert welded == 1


def test_weld_eps_zero_identity():
    m = grid_mesh(3, 3)
    out, welded = weld_vertices(m, 0.0)
    assert welded == 0
    assert np.array_equal(out.vertices, m.vertices)
    assert np.array_equal(out.faces, m.faces)


def test_weld_eps_zero_merges_exact_duplicates():
    m = TriangleMesh(
        vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                           [0, 0, 0], [1, 0, 0], [1, -1, 0]], dtype=float),
        faces=np.array([[0, 1, 2], [3, 5, 4]], dtype=np.int32))
    out, welded = weld_vertices(m, 0.0)
    assert welded == 2
    assert out.n_vertices == 4
    adj = build_adjacency(out)
    assert neighbor_list(adj, 0).tolist() == [1]


def test_weld_seam_makes_quads_adjacent():
    # two abutting quads stored with their own seam vertices
    a = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    b = np.array([[1, 0, 0], [2, 0, 0], [2, 1, 0], [1, 1, 0]], dtype=float)
    verts = np.vstack([a, b])
    faces = np.array([[0, 1, 2], [0, 2, 3], [4, 5, 6], [4, 6, 7]], dtype=np.int32)
    m = TriangleMesh(vertices=verts, faces=faces)
    before = adjacency_pairs(build_adjacency(m))
    assert (0, 2) not in before
    out, welded = weld_vertices(m, 1e-6)
    assert welded == 2
    adj = build_adjacency(out)
    assert adjacency_pairs(adj) == brute_force_adjacency(out)
    cross = {p for p in adjacency_pairs(adj) if (p[0] < 2) != (p[1] < 2)}
    assert cross == {(0, 3)}     # the faces actually carrying the seam edge


def test_weld_area_invariant():
    rng = np.random.default_rng(11)
    m = grid_mesh(5, 5, dx=0.5)
    dup = m.vertices.copy() + rng.standard_normal(m.vertices.shape) * 1e-9
    verts = np.vstack([m.vertices, dup])
    faces = np.vstack([m.faces, m.faces + m.n_vertices]).astype(np.int32)
    mm = TriangleMesh(vertices=verts, faces=faces)
    area_before = mm.face_area.sum()
    out, welded = weld_vertices(mm, 1e-6)
    keep = ~out.degenerate_faces
    assert welded == m.n_vertices
    assert abs(out.face_area[keep].sum() - area_before) <= 1e-9 * area_before


def test_weld_collapse_flags_degenerate():
    # a sliver whose two ends weld together collapses one face
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1e-8, 0], [0, 1, 0]], dtype=float)
    faces = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int32)
    m = TriangleMesh(vertices=verts, faces=faces)
    out, _ = weld_vertices(m, 1e-6)
    assert out.n_faces == 2          # nothing dropped
    assert out.degenerate_faces.sum() == 1
    assert out.degenerate_faces.tolist() == [True, False]


def test_repair_three_fan_edge():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0],
                      [0.5, -1, 0], [0.5, 0, 1]], dtype=float)
    faces = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]], dtype=np.int32)
    m = TriangleMesh(vertices=verts, faces=faces)
    out, edges, _ = repair_nonmanifold(m)
    assert edges == count_nonmanifold_edges(m.faces) == 1
    assert prepare_mesh(m, PipelineConfig())[1].nonmanifold_edges == 1
    assert out.n_faces == 3
    assert count_nonmanifold_edges(out.faces) == 0
    build_adjacency(out)    # must not raise


def test_repair_manifold_identity():
    m = grid_mesh(4, 4)
    out, edges, split = repair_nonmanifold(m)
    assert prepare_mesh(m, PipelineConfig())[1].nonmanifold_edges == 0
    assert edges == 0 and split == 0
    assert np.array_equal(out.faces, m.faces)
    assert out.n_vertices == m.n_vertices


def test_repair_bowtie_vertex_split():
    m = bowtie_mesh()
    out, _, split = repair_nonmanifold(m)
    assert split == 1
    assert out.n_vertices == 6
    assert out.n_faces == 2
    # fans now disjoint in vertex terms but geometry unchanged
    assert len(set(out.faces[0]) & set(out.faces[1])) == 0
    assert np.allclose(out.vertices[out.faces[0]].mean(0),
                       m.vertices[m.faces[0]].mean(0))


def test_adjacency_rejects_nonmanifold():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0],
                      [0.5, -1, 0], [0.5, 0, 1]], dtype=float)
    faces = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]], dtype=np.int32)
    m = TriangleMesh(vertices=verts, faces=faces)
    try:
        build_adjacency(m)
        raised = False
    except Exception as e:
        raised = True
        assert "repair_nonmanifold" in str(e)
    assert raised



def weld_oracle(V, eps):
    """Vertices chained by pairwise distance <= eps form one group, O(n^2).

    Returns the lowest member of every group, ascending, and the new id of
    each vertex.
    """
    n = len(V)
    near = ((V[:, None, :] - V[None, :, :]) ** 2).sum(axis=2) <= eps * eps
    group = list(range(n))
    for s in range(n):
        if group[s] != s:
            continue
        todo = [s]
        while todo:
            u = todo.pop()
            for w in np.flatnonzero(near[u]):
                if w > s and group[w] == w:
                    group[w] = s
                    todo.append(w)
    reps = sorted(set(group))
    return reps, np.array([reps.index(g) for g in group])


def test_weld_matches_pairwise_oracle():
    # coordinates on a 1/8 grid make every squared distance exact, so the
    # eps = 0.125 runs test the inclusive "<= eps" rule
    rng = np.random.default_rng(21)
    for trial in range(40):
        n = int(rng.integers(2, 40))
        V = rng.integers(0, 5, (n, 3)) * 0.125
        faces = rng.integers(0, n, (n, 3)).astype(np.int32)
        colors = rng.integers(0, 256, (n, 3))
        m = TriangleMesh(vertices=V, faces=faces, vertex_color=colors)
        for eps in (0.0, 0.1, 0.125, 0.2):
            out, welded = weld_vertices(m, eps)
            reps, new_id = weld_oracle(m.vertices, eps)
            assert np.array_equal(out.vertices, m.vertices[reps])
            assert np.array_equal(out.vertex_color, m.vertex_color[reps])
            assert np.array_equal(out.faces, new_id[m.faces])
            assert welded == n - len(reps)


def bowtie_oracle(n_vertices, faces):
    """Split each vertex into its fans: faces linked by edges through it.

    Returns the new faces, the original vertex of every output vertex and
    the number of split vertices. The fan holding the vertex's lowest face
    keeps it; every other fan gets a new vertex, numbered in (vertex,
    lowest face of the fan) order.
    """
    faces = faces.copy()
    source = list(range(n_vertices))
    split = 0
    for v in range(n_vertices):
        left = [f for f in range(len(faces))
                if v in faces[f] and len(set(faces[f].tolist())) == 3]
        fans = []
        while left:
            fan, todo = [], [left[0]]
            while todo:
                f = todo.pop()
                if f not in fan:
                    fan.append(f)
                    todo += [g for g in left if g not in fan and len(
                        set(faces[f].tolist()) & set(faces[g].tolist())) >= 2]
            left = [f for f in left if f not in fan]
            fans.append(fan)
        split += len(fans) > 1
        for fan in fans[1:]:
            source.append(v)
            for f in fan:
                faces[f][faces[f] == v] = len(source) - 1
    return faces, source, split


def test_bowtie_split_matches_fan_oracle():
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 300:
        nv = int(rng.integers(3, 9))
        faces = rng.integers(0, nv, (int(rng.integers(1, 9)), 3)).astype(np.int32)
        if count_nonmanifold_edges(faces):
            continue
        m = TriangleMesh(vertices=rng.standard_normal((nv, 3)), faces=faces,
                         vertex_color=rng.integers(0, 256, (nv, 3)))
        out, edges, got_split = repair_nonmanifold(m)
        want_faces, source, split = bowtie_oracle(nv, faces)
        assert edges == 0
        assert np.array_equal(out.faces, want_faces)
        assert np.array_equal(out.vertices, m.vertices[source])
        assert np.array_equal(out.vertex_color, m.vertex_color[source])
        assert got_split == split
        checked += 1


def overshared_faces(rng):
    """Fans of 3 to 6 faces on random edges plus random faces, shuffled.

    The random faces may collapse or share edges with the fans; every face
    starts at a random corner, so fan edges sit at any corner pair.
    """
    nv = int(rng.integers(6, 12))
    faces = []
    for _ in range(int(rng.integers(1, 4))):
        u, v = rng.choice(nv, 2, replace=False)
        rest = np.setdiff1d(np.arange(nv), [u, v])
        for w in rng.choice(rest, min(len(rest), int(rng.integers(3, 7))),
                            replace=False):
            faces.append([u, v, w] if rng.random() < 0.5 else [v, u, w])
    faces += rng.integers(0, nv, (int(rng.integers(0, 6)), 3)).tolist()
    faces = np.array(faces)[rng.permutation(len(faces))]
    shift = rng.integers(0, 3, len(faces))
    faces = np.array([np.roll(f, s) for f, s in zip(faces, shift)])
    return nv, faces.astype(np.int32)


def test_repair_matches_dict_detach_oracle():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 300:
        nv, faces = overshared_faces(rng)
        before = count_nonmanifold_edges(faces)
        if before == 0:
            continue
        m = TriangleMesh(vertices=rng.standard_normal((nv, 3)), faces=faces,
                         vertex_color=rng.integers(0, 256, (nv, 3)),
                         face_label=np.arange(len(faces)))
        out, got_edges, got_split = repair_nonmanifold(m)
        assert got_edges == before
        detached, source = dict_detach_overshared(faces, nv)
        assert count_nonmanifold_edges(detached) == 0
        want_faces, fan_source, split = bowtie_oracle(len(source), detached)
        source = source[fan_source]
        assert np.array_equal(out.faces, want_faces)
        assert np.array_equal(out.vertices, m.vertices[source])
        assert np.array_equal(out.vertex_color, m.vertex_color[source])
        assert np.array_equal(out.face_label, m.face_label)
        assert count_nonmanifold_edges(out.faces) == 0
        assert got_split == split
        # random vertices: welding exact duplicates only changes nothing
        prepared, rep, _ = prepare_mesh(m, PipelineConfig(weld_epsilon=0.0))
        assert np.array_equal(prepared.faces, out.faces)
        assert rep.as_dict() == {
            "welded_vertices": 0, "nonmanifold_edges": before,
            "split_vertices": split,
            "degenerate_faces": int(out.degenerate_faces.sum())}
        checked += 1


def mesh_arrays(m):
    return {"vertices": m.vertices, "faces": m.faces,
            "face_color": m.face_color, "vertex_color": m.vertex_color,
            "face_label": m.face_label, **m.extra_face_props}


def fan_mesh():
    """A three-face fan over edge (0, 1) once vertex 7 welds into 1, and a
    bow-tie at vertex 2."""
    verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -1, 0],
                      [0.5, 0, 1], [1.5, 2, 0], [0.5, 2, 0], [1, 0, 0]],
                     dtype=float)
    faces = np.array([[0, 1, 2], [0, 1, 3], [0, 7, 4], [2, 5, 6]])
    return TriangleMesh(vertices=verts, faces=faces)


def test_weld_and_repair_leave_input_unchanged():
    # the fan mesh with every optional column filled
    m = replace(fan_mesh(), face_color=np.arange(12).reshape(4, 3),
                vertex_color=np.arange(24).reshape(8, 3),
                face_label=[0, 1, 2, 3],
                extra_face_props={"flag": np.arange(4, dtype=np.uint8)})
    before = {k: v.copy() for k, v in mesh_arrays(m).items()}
    welded, welded_count = weld_vertices(m, 1e-6)
    out, edges, split = repair_nonmanifold(welded)
    assert welded_count == 1 and edges == 1 and split == 1
    assert count_nonmanifold_edges(welded.faces) == 1
    for k, v in mesh_arrays(m).items():
        assert np.array_equal(v, before[k]), k
    assert np.array_equal(out.face_label, before["face_label"])
    assert np.array_equal(out.vertex_color,
                          before["vertex_color"][[0, 1, 2, 3, 4, 5, 6,
                                                  0, 1, 2]])


def test_weld_empty_mesh_returns_it():
    m = TriangleMesh(vertices=np.zeros((0, 3)),
                     faces=np.zeros((0, 3), dtype=np.int32))
    out, welded = weld_vertices(m, 1e-6)
    assert out is m
    assert welded == 0


def collapsed_face_mesh():
    """Three faces on edge (0, 1) in the input, a bow-tie at vertex 2 and a
    face that welding collapses (vertex 7 duplicates 6)."""
    verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -1, 0],
                      [0.5, 0, 1], [1.5, 2, 0], [0.5, 2, 0], [0.5, 2, 0]],
                     dtype=float)
    faces = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4], [2, 5, 6], [5, 6, 7]])
    return TriangleMesh(vertices=verts, faces=faces)


def tile_16m():
    return synth_tile(TileParams(seed=0, ground_size=16.0, ground_res=32,
                                 n_boxes=2, n_trees=2, n_vehicles=1))


@pytest.mark.parametrize("build, want", [
    (tile_16m, (0, 0, 0, 0)),
    (lambda: unwelded(tile_16m()), (12872, 0, 0, 0)),
    (lambda: with_fin(tile_16m()), (0, 1, 0, 0)),
    (fan_mesh, (1, 1, 1, 0)),
    (collapsed_face_mesh, (1, 1, 1, 1)),
])
def test_prepare_mesh_report(build, want):
    # (welded, non-manifold edges, split, degenerate); the fan mesh's
    # over-shared edge exists only once vertex 7 welds into 1
    mesh = build()
    config = PipelineConfig()
    _, rep, _ = prepare_mesh(mesh, config)
    assert tuple(rep.as_dict().values()) == want
    welded, _ = weld_vertices(mesh, config.weld_epsilon)
    assert rep.nonmanifold_edges == count_nonmanifold_edges(welded.faces)


def bowtie_mesh():
    """Two fans touching only at vertex 2."""
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0],
                      [2, 1, 0], [1, 2, 0]], dtype=float)
    return TriangleMesh(vertices=verts, faces=np.array([[0, 1, 2], [2, 3, 4]]))


@pytest.mark.parametrize("build", [
    fan_mesh, bowtie_mesh, collapsed_face_mesh,
    lambda: unwelded(tile_16m())])
def test_prepare_mesh_keeps_every_face_in_order(build):
    # training writes mesh i's face features to rows that start at the
    # face count of the meshes before it, beside their input labels
    mesh = build()
    if mesh.face_label is None:
        mesh.face_label = np.arange(mesh.n_faces, dtype=np.int32) % 4 - 1
    eps = PipelineConfig().weld_epsilon
    out, _, _ = prepare_mesh(mesh, PipelineConfig())
    assert out.n_faces == mesh.n_faces
    assert np.abs(out.vertices[out.faces]
                  - mesh.vertices[mesh.faces]).max() <= eps
    assert np.array_equal(out.face_label, mesh.face_label)


def test_prepare_mesh_groups_face_edges_three_times(monkeypatch):
    # repair's detach, which also counts the over-shared edges, its fan
    # split, and the adjacency sort; one area pass, of the repaired mesh
    calls = {"face_edges": 0, "area": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (repair_module, adjacency_module):
        monkeypatch.setattr(module, "face_edges",
                            counted(adjacency_module.face_edges, "face_edges"))
    area = cached_property(
        counted(TriangleMesh.__dict__["_area_and_normal"].func, "area"))
    area.__set_name__(TriangleMesh, "_area_and_normal")
    monkeypatch.setattr(TriangleMesh, "_area_and_normal", area)
    mesh = tile_16m()
    calls.update(face_edges=0, area=0)
    out, _, _ = prepare_mesh(mesh, PipelineConfig())
    assert calls == {"face_edges": 3, "area": 1}
    out.face_area                   # the report's areas are the mesh's
    assert calls["area"] == 1
