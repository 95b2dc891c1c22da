"""Plain-Python references for vectorized library code.

``bfs_match_boundaries`` grows every candidate edge's vertex zone with a
breadth-first search over vertex neighbour sets, as ``match_boundaries``
once did. ``dict_detach_overshared`` detaches the extra faces of
over-shared edges round by round through a dict of edge -> faces, as
``repair_nonmanifold`` once did.
"""

from collections import defaultdict

import numpy as np

from pssmesh.adjacency import face_edges


def vertex_neighbors(adjacency):
    """dict vertex -> set of vertices sharing an edge with it."""
    nbrs = defaultdict(set)
    for a, b in adjacency.edge_vertices.tolist():
        nbrs[a].add(b)
        nbrs[b].add(a)
    return nbrs


def bfs_rings(nbrs, sources, k):
    """Vertices at graph distance <= k from any source, sources included."""
    seen = {int(s) for s in sources}
    frontier = list(seen)
    for _ in range(k):
        nxt = []
        for u in frontier:
            for w in nbrs.get(u, ()):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def bfs_match_boundaries(candidates, reference, adjacency, rings):
    """Candidate edges with both ends of a reference edge in their zone."""
    nbrs = vertex_neighbors(adjacency)
    incident = defaultdict(list)
    for j, (a, b) in enumerate(reference.vertices.tolist()):
        incident[a].append(j)
        incident[b].append(j)
    ref = reference.vertices.tolist()
    matched = np.zeros(len(candidates), dtype=bool)
    for i, (u, v) in enumerate(candidates.vertices.tolist()):
        zone = bfs_rings(nbrs, (u, v), rings)
        near = {j for w in zone for j in incident.get(w, ())}
        matched[i] = any(ref[j][0] in zone and ref[j][1] in zone
                         for j in near)
    return matched


def dict_detach_overshared(faces, n_vertices):
    """(faces, source) after detaching the extra faces of over-shared edges.

    Each round lists every edge's faces in ascending face id; on each edge
    with more than two faces, in ascending vertex-pair order, every face
    after the first two gets its own copy of the edge's two vertices, one
    copy per (face, vertex). ``source`` maps every vertex id, old and new,
    to its original vertex.
    """
    faces = np.array(faces, dtype=np.int32)
    source = list(range(n_vertices))
    for _ in range(10):
        e, owner = face_edges(faces)
        lists = {}
        for (u, v), f in zip(map(tuple, e.tolist()), owner.tolist()):
            lists.setdefault((u, v), []).append(f)
        bad = {edge: fs for edge, fs in lists.items() if len(fs) > 2}
        if not bad:
            break
        dup = {}                    # (face, old vertex) -> new vertex id
        for (u, v) in sorted(bad):
            for f in bad[(u, v)][2:]:
                for old in (u, v):
                    if (f, old) not in dup:
                        dup[(f, old)] = len(source)
                        source.append(source[old])
                    faces[f][faces[f] == old] = dup[(f, old)]
    return faces, np.asarray(source, dtype=np.int64)
