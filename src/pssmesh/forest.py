"""Extremely randomized trees for face planarity and segment classification.

Each node draws k = ceil(sqrt(d)) of the d features as candidates, one
uniform random threshold per candidate inside the node's value range, and
keeps the candidate with the best weighted information gain. Trees see
the full sample (no bootstrap) and read it one feature column at a time,
so column-major samples are read without a copy.
Per-tree randomness derives from ``seed ^ tree_index``, so training is
reproducible bit for bit.

Predicted probabilities aggregate as an epsilon-floored geometric mean over
trees: g = exp(mean_t log max(p_t, 1e-6)), optionally renormalized.

``parallel_map`` is the worker pool of training: trees (and, in
``pipeline.train_models``, whole training meshes) are built in forked
worker processes, since tree building is pure-Python recursion that
threads would only run one at a time under the GIL.
"""

from __future__ import annotations

import multiprocessing
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .config import ConfigError, PipelineConfig, read_bytes

PROB_EPS = 1e-6
MODEL_MAGIC = b"PSSF"
MODEL_VERSION = 2


@dataclass
class Tree:
    feature: np.ndarray        # (n,) int32, -1 for leaves
    threshold: np.ndarray      # (n,) float64
    left: np.ndarray           # (n,) int32
    right: np.ndarray          # (n,) int32
    proba: np.ndarray          # (n, C) float64, zeros on internal nodes

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """(N,) leaf node of every row of X.

        Walks the tree node by node, each node splitting the row indices
        that reach it by ``X[idx, f] <= threshold`` (NaN goes right).
        """
        leaf = np.zeros(len(X), dtype=np.int32)
        stack = [(0, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            f = self.feature[node]
            if f < 0:
                leaf[idx] = node
                continue
            go_left = X[idx, f] <= self.threshold[node]
            for child, rows in ((self.left[node], idx[go_left]),
                                (self.right[node], idx[~go_left])):
                if len(rows):
                    stack.append((child, rows))
        return leaf

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.proba[self.leaves(X)]


@dataclass
class ForestModel:
    trees: list
    classes: np.ndarray            # (C,) int32 original class ids
    channel_names: list            # the feature columns it reads, in order
    seed: int

    @property
    def n_classes(self):
        return len(self.classes)

    @property
    def n_features(self) -> int:
        return len(self.channel_names)


@dataclass
class ForestPrediction:
    proba: np.ndarray              # (N, C) renormalized geometric mean
    geometric: np.ndarray          # (N, C) before renormalization, in [0,1]


@dataclass
class ProbabilityMap:
    """Per-face planarity prediction; index 1 is the non-planar class."""

    g_hat: np.ndarray              # (F,) non-planar geometric mean, in [0,1]
    label: np.ndarray              # (F,) 0 planar / 1 non-planar
    planar_prob: np.ndarray        # (F,) renormalized planar probability

    def __len__(self):
        return len(self.g_hat)


def class_weights(y: np.ndarray) -> np.ndarray:
    """w_c = sqrt(N / n_c) of each class index c in 0..y.max()."""
    return np.sqrt(len(y) / np.bincount(y))


def _entropy(wcounts: np.ndarray) -> float:
    total = wcounts.sum()
    if total <= 0:
        return 0.0
    p = wcounts[wcounts > 0] / total
    return float(-(p * np.log(p)).sum())


def _build_tree(X, y, sw, n_classes, config: PipelineConfig, rng) -> Tree:
    k = int(np.ceil(np.sqrt(X.shape[1])))
    feature, threshold, left, right, proba = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        proba.append(np.zeros(n_classes))
        return len(feature) - 1

    root = new_node()
    stack = [(np.arange(len(X)), 0, root)]
    while stack:
        idx, depth, node = stack.pop()
        yi, si = y[idx], sw[idx]
        # class weights are > 0: the classes present are the nonzero sums
        parent_w = np.bincount(yi, weights=si, minlength=n_classes)
        best = None
        if not (depth >= config.max_depth or len(idx) < 2 * config.min_leaf
                or np.count_nonzero(parent_w) < 2):
            cand = rng.choice(X.shape[1], size=k, replace=False)
            parent_h = _entropy(parent_w)
            parent_sum = parent_w.sum()
            for f in cand:
                col = X[:, f][idx]
                lo, hi = col.min(), col.max()
                if hi <= lo:
                    continue
                t = rng.uniform(lo, hi)
                go_left = col <= t
                nl = np.count_nonzero(go_left)
                if nl < config.min_leaf or len(idx) - nl < config.min_leaf:
                    continue
                wl = np.bincount(yi, weights=si * go_left,
                                 minlength=n_classes)
                wr = parent_w - wl
                gain = parent_h - (wl.sum() * _entropy(wl)
                                   + wr.sum() * _entropy(wr)) / parent_sum
                if best is None or gain > best[0]:
                    best = (gain, int(f), float(t), go_left)
        if best is None:
            proba[node] = parent_w / parent_w.sum()
            continue

        _, f, t, go_left = best
        feature[node] = f
        threshold[node] = t
        lnode, rnode = new_node(), new_node()
        left[node] = lnode
        right[node] = rnode
        stack.append((idx[~go_left], depth + 1, rnode))
        stack.append((idx[go_left], depth + 1, lnode))

    return Tree(np.asarray(feature, dtype=np.int32),
                np.asarray(threshold, dtype=np.float64),
                np.asarray(left, dtype=np.int32),
                np.asarray(right, dtype=np.int32), np.array(proba))


# (fn, items) of the running parallel_map, inherited by its forked workers;
# one call runs at a time
_TASK = None


def _run_task(i):
    fn, items = _TASK
    return fn(items[i])


def parallel_map(n_jobs: int, fn, items) -> list:
    """``[fn(x) for x in items]``, run in up to ``n_jobs`` worker processes.

    The workers are forked, so ``fn`` (a closure is fine) and ``items``
    reach them as the parent holds them: only an item index is sent to a
    worker and only ``fn``'s result is pickled back. Results come back in
    item order whatever the worker count, so callers that combine them in
    that order get the same output at every count. An exception raised by
    ``fn`` reaches the caller with its type and message; a worker that
    dies raises ``BrokenProcessPool``. No worker outlives the call.
    With one job, one item or no ``fork`` start method everything runs in
    the calling process.
    """
    global _TASK
    items = list(items)
    if (n_jobs <= 1 or len(items) <= 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(x) for x in items]
    _TASK = (fn, items)
    workers = min(n_jobs, len(items))
    pool = ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context("fork"))
    try:
        # about four chunks per worker: each result costs a round trip to
        # the parent, and small chunks still even out unequal items
        return list(pool.map(_run_task, range(len(items)),
                             chunksize=max(1, len(items) // (4 * workers))))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        _TASK = None


def train_forest(samples: np.ndarray, labels: np.ndarray, channel_names,
                 config: PipelineConfig | None = None,
                 n_jobs: int = 1) -> ForestModel:
    """Train an extremely randomized forest; see module docstring.

    ``channel_names`` names the columns of ``samples``; the model keeps
    them so ``check_channels`` can refuse features in another layout.
    ``config`` gives ``trees``, ``min_leaf``, ``max_depth`` and ``seed``.

    Each sample is weighted by its class's ``class_weights``, sqrt(N/n_c),
    which ``_build_tree`` needs > 0: a node is pure when one class weighs.
    ``samples`` is taken column-major; a Fortran-ordered float64 matrix
    is not copied. Raises on single-class input and on NaN features.
    ``n_jobs`` > 1 builds trees in that many forked worker processes
    (``parallel_map``); each tree seeds its own generator from
    ``seed ^ tree_index`` and the trees are combined in tree order, so the
    model is identical at any worker count.
    """
    X = np.asfortranarray(samples, dtype=np.float64)
    y_raw = np.asarray(labels).reshape(-1)
    if X.ndim != 2 or len(X) != len(y_raw):
        raise ValueError("samples must be (N, d) with one label per row")
    channel_names = list(channel_names)
    if len(channel_names) != X.shape[1]:
        raise ValueError(f"{len(channel_names)} channel names for "
                         f"{X.shape[1]} feature columns")
    nan_rows = np.isnan(X).any(axis=1)
    if nan_rows.any():
        raise ValueError(f"sample {int(np.argmax(nan_rows))} has NaN features")
    classes, y = np.unique(y_raw, return_inverse=True)
    if len(classes) < 2:
        raise ValueError("training data contains a single class")
    sw = class_weights(y)[y]

    config = config or PipelineConfig()

    def build(t):
        rng = np.random.default_rng(config.seed ^ t)
        return _build_tree(X, y, sw, len(classes), config, rng)

    trees = parallel_map(n_jobs, build, range(config.trees))
    return ForestModel(trees, classes.astype(np.int32), channel_names,
                       config.seed)


def predict_proba(model: ForestModel, samples: np.ndarray) -> ForestPrediction:
    X = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {X.shape[1]}")
    T = len(model.trees)
    logsum = np.zeros((len(X), model.n_classes))
    for tree in model.trees:
        logsum += np.log(np.maximum(tree.proba, PROB_EPS))[tree.leaves(X)]
    geo = np.exp(logsum / T)
    proba = geo / geo.sum(axis=1, keepdims=True)
    return ForestPrediction(proba, geo)


def check_channels(model: ForestModel, names, source) -> None:
    """ConfigError naming ``source`` and the first differing channel unless
    ``model`` reads exactly ``names``, in number and order."""
    for i, (have, want) in enumerate(zip_longest(model.channel_names, names)):
        if have != want:
            raise ConfigError(f"{source}: channel {i} is {have!r} in the "
                              f"model but {want!r} in the features")


def planarity_map(model: ForestModel, face_features) -> ProbabilityMap:
    """Per-face planar(0)/non-planar(1) probabilities for region growing."""
    if model.n_classes != 2:
        raise ValueError("planarity model must be binary (planar/non-planar)")
    check_channels(model, face_features.channel_names, "planarity model")
    pred = predict_proba(model, face_features.values)
    label = np.argmax(pred.geometric, axis=1).astype(np.int32)
    return ProbabilityMap(g_hat=pred.geometric[:, 1],
                          label=label,
                          planar_prob=pred.proba[:, 0])


def classify_segments(model: ForestModel, segment_features) -> tuple:
    """(class id per segment, renormalized probabilities). Ties -> lower id."""
    check_channels(model, segment_features.channel_names, "semantic model")
    pred = predict_proba(model, segment_features.values)
    cls = model.classes[np.argmax(pred.proba, axis=1)]
    return cls, pred.proba


def save_model(model: ForestModel, path):
    """Little-endian versioned binary; round-trips exactly. The channel
    names follow the version as one UTF-8 text, joined by newlines."""
    if any("\n" in name for name in model.channel_names):
        raise ValueError("a channel name holds a newline")
    out = bytearray()
    out += MODEL_MAGIC
    out += struct.pack("<I", MODEL_VERSION)
    names = "\n".join(model.channel_names).encode("utf-8")
    out += struct.pack("<I", len(names)) + names
    out += struct.pack("<q", int(model.seed))
    out += struct.pack("<I", model.n_classes)
    out += model.classes.astype("<i4").tobytes()
    out += struct.pack("<I", int(model.n_features))
    out += struct.pack("<I", len(model.trees))
    for tree in model.trees:
        out += struct.pack("<I", len(tree.feature))
        out += tree.feature.astype("<i4").tobytes()
        out += tree.threshold.astype("<f8").tobytes()
        out += tree.left.astype("<i4").tobytes()
        out += tree.right.astype("<i4").tobytes()
        out += tree.proba.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def load_model(path) -> ForestModel:
    """Read a model written by ``save_model``.

    Bad content (bad magic, another version, channel names that are not
    UTF-8 or not one per feature, fewer than two classes, no trees, a file
    that ends early, bytes after the last tree, a tree without nodes, an
    internal node whose feature id is not in [0, n_features) or whose
    child ids do not lie after it inside the tree, a leaf whose ids are
    not all -1) raises ConfigError naming the path, the tree and the byte
    offset of the bad field; a file it cannot read raises as
    ``config.read_bytes`` says."""
    buf = read_bytes(path, "model")
    pos = 0

    def bad(message, at):
        return ConfigError(f"{path}: {message} at byte offset {at}")

    def take(dtype, count=1):
        nonlocal pos
        dtype = np.dtype(dtype)
        end = pos + dtype.itemsize * count
        if end > len(buf):
            raise bad(f"file ends early ({len(buf)} bytes, field needs "
                      f"{end})", pos)
        arr = np.frombuffer(buf, dtype=dtype, count=count, offset=pos).copy()
        pos = end
        return arr

    if buf[:4] != MODEL_MAGIC:
        raise bad("not a forest model file (bad magic)", 0)
    pos = 4
    version = int(take("<u4")[0])
    if version != MODEL_VERSION:
        raise bad(f"unsupported model file version {version}", 4)
    nnames = int(take("<u4")[0])
    try:
        text = take("u1", nnames).tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise bad("channel names are not UTF-8",
                  pos - nnames + exc.start) from None
    names = text.split("\n") if text else []
    seed = int(take("<i8")[0])
    ncls = int(take("<u4")[0])
    if ncls < 2:
        raise bad(f"{ncls} classes (a forest needs at least 2)", pos - 4)
    classes = take("<i4", ncls)
    nfeat = int(take("<u4")[0])
    if nfeat != len(names):
        raise bad(f"{len(names)} channel names for {nfeat} features",
                  pos - 4)
    ntrees = int(take("<u4")[0])
    if ntrees == 0:
        raise bad("no trees", pos - 4)
    trees = []
    for t in range(ntrees):
        n = int(take("<u4")[0])
        if n == 0:
            raise bad(f"tree {t} has no nodes", pos - 4)
        start = pos
        feature = take("<i4", n)
        thresh = take("<f8", n)
        left = take("<i4", n)
        right = take("<i4", n)
        proba = take("<f8", n * ncls).reshape(n, ncls)
        # children always follow their parent, so prediction cannot cycle
        node = np.arange(n)
        inner = feature >= 0
        for name, values, at, ok in (
                ("feature id", feature, start,
                 (feature >= -1) & (feature < nfeat)),
                ("left child id", left, start + 12 * n,
                 np.where(inner, (left > node) & (left < n), left == -1)),
                ("right child id", right, start + 16 * n,
                 np.where(inner, (right > node) & (right < n), right == -1))):
            if not ok.all():
                i = int(np.argmin(ok))
                raise bad(f"tree {t} node {i}: bad {name} {int(values[i])} "
                          f"(internal nodes: features in [0, {nfeat}), "
                          f"children in ({i}, {n}); leaves: all -1)",
                          at + 4 * i)
        trees.append(Tree(feature.astype(np.int32), thresh,
                          left.astype(np.int32), right.astype(np.int32), proba))
    if pos != len(buf):
        raise bad("trailing bytes after the last tree", pos)
    return ForestModel(trees, classes.astype(np.int32), names, seed)
