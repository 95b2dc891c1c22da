"""Plain-Python references for vectorized library code.

``bfs_match_boundaries`` grows every candidate edge's vertex zone with a
breadth-first search over vertex neighbour sets, as ``match_boundaries``
once did. ``dict_detach_overshared`` detaches the extra faces of
over-shared edges round by round through a dict of edge -> faces, as
``repair_nonmanifold`` once did. ``global_eigen_shape_features`` finds every
face's neighbours with one ``query_pairs`` over the whole cloud, as
``eigen_shape_features`` once did. ``bincount_weighted_covariance`` sums
each owner's pairs with ``np.bincount``, as ``features._weighted_covariance``
once did. ``copy_build_tree`` copies all feature columns of a node's samples
at every node, as ``forest._build_tree`` once did.
"""

from collections import defaultdict

import numpy as np

from pssmesh import features
from pssmesh.adjacency import face_edges
from pssmesh.forest import Tree, _entropy


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


def global_eigen_shape_features(centroids, areas, tree, radii):
    """(channels, flags) from one ``query_pairs`` key array of all faces.

    Both directions of every pair plus the self pairs, as ascending
    ``owner * F + neighbour`` keys, cut into blocks of
    ``features.EIGEN_FACE_BLOCK`` owners.
    """
    nf = len(centroids)
    xyz = [np.ascontiguousarray(centroids[:, a], dtype=np.float64)
           for a in range(3)]
    pairs = tree.query_pairs(max(radii), output_type="ndarray")
    keys = np.concatenate([pairs[:, 0] * nf + pairs[:, 1],
                           pairs[:, 1] * nf + pairs[:, 0],
                           np.arange(nf, dtype=np.int64) * (nf + 1)])
    keys.sort()
    cov = np.zeros((len(radii), nf, 3, 3))
    counts = np.zeros((len(radii), nf), dtype=np.int64)
    for f0 in range(0, nf, features.EIGEN_FACE_BLOCK):
        f1 = min(f0 + features.EIGEN_FACE_BLOCK, nf)
        lo, hi = np.searchsorted(keys, (f0 * nf, f1 * nf))
        owner, nb = np.divmod(keys[lo:hi], nf)
        d2 = features._squared_distances(xyz, owner, nb)
        owner -= f0
        for j, r in enumerate(radii):
            near = d2 <= r * r
            cov[j, f0:f1], counts[j, f0:f1] = features._weighted_covariance(
                owner[near], nb[near], xyz, areas, f1 - f0)
    out = np.zeros((nf, 5 * len(radii)))
    flagged = np.zeros((nf, len(radii)), dtype=bool)
    for j in range(len(radii)):
        out[:, 5 * j:5 * j + 5], flagged[:, j] = features._shape_channels(
            cov[j], counts[j])
    return out, flagged


def bincount_weighted_covariance(owner, nb, xyz, areas, n):
    """``features._weighted_covariance`` with one weighted ``bincount`` per
    sum and ``mean[owner]`` gathers."""
    w = areas[nb]
    wsum = np.bincount(owner, weights=w, minlength=n)
    ok = wsum > 0
    dev = []
    for c in xyz:
        col = c[nb]
        mean = np.bincount(owner, weights=w * col, minlength=n)
        mean[ok] /= wsum[ok]
        col -= mean[owner]
        dev.append(col)
    cov = np.empty((n, 3, 3))
    for a in range(3):
        wd = w * dev[a]
        for b in range(a, 3):
            cab = np.bincount(owner, weights=wd * dev[b], minlength=n)
            cov[:, a, b] = cab
            cov[:, b, a] = cab
    cov[ok] /= wsum[ok][:, None, None]
    return cov, np.bincount(owner, minlength=n)


def copy_build_tree(X, y, sw, n_classes, config, rng):
    """One extremely randomized tree; each node copies ``X[idx]`` whole and
    tests purity with ``np.unique``."""
    k = int(np.ceil(np.sqrt(X.shape[1])))
    feature, threshold, left, right, proba = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        proba.append(None)
        return len(feature) - 1

    def make_leaf(node, idx):
        w = np.bincount(y[idx], weights=sw[idx], minlength=n_classes)
        proba[node] = w / w.sum()

    root = new_node()
    stack = [(np.arange(len(X)), 0, root)]
    while stack:
        idx, depth, node = stack.pop()
        if (depth >= config.max_depth or len(idx) < 2 * config.min_leaf
                or len(np.unique(y[idx])) == 1):
            make_leaf(node, idx)
            continue
        Xn = X[idx]
        cand = rng.choice(X.shape[1], size=k, replace=False)
        parent_w = np.bincount(y[idx], weights=sw[idx], minlength=n_classes)
        parent_h = _entropy(parent_w)
        parent_sum = parent_w.sum()
        best = None
        for f in cand:
            col = Xn[:, f]
            lo, hi = col.min(), col.max()
            if hi <= lo:
                continue
            t = rng.uniform(lo, hi)
            go_left = col <= t
            nl = int(go_left.sum())
            if nl < config.min_leaf or len(idx) - nl < config.min_leaf:
                continue
            wl = np.bincount(y[idx[go_left]], weights=sw[idx[go_left]],
                             minlength=n_classes)
            wr = parent_w - wl
            gain = parent_h - (wl.sum() * _entropy(wl)
                               + wr.sum() * _entropy(wr)) / parent_sum
            if best is None or gain > best[0]:
                best = (gain, int(f), float(t), go_left)
        if best is None:
            make_leaf(node, idx)
            continue
        _, f, t, go_left = best
        feature[node] = f
        threshold[node] = t
        lnode, rnode = new_node(), new_node()
        left[node] = lnode
        right[node] = rnode
        stack.append((idx[~go_left], depth + 1, rnode))
        stack.append((idx[go_left], depth + 1, lnode))

    pr = np.zeros((len(feature), n_classes))
    for i, p in enumerate(proba):
        if p is not None:
            pr[i] = p
    return Tree(np.asarray(feature, dtype=np.int32),
                np.asarray(threshold, dtype=np.float64),
                np.asarray(left, dtype=np.int32),
                np.asarray(right, dtype=np.int32), pr)
