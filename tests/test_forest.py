import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from pssmesh.config import ConfigError, PipelineConfig
from pssmesh.forest import (ForestModel, Tree, train_forest,
                            predict_proba, planarity_map, classify_segments,
                            class_weights, save_model, load_model, PROB_EPS,
                            _build_tree, parallel_map)

from oracles import copy_build_tree


def leaf_tree(proba):
    return Tree(feature=np.array([-1], dtype=np.int32),
                threshold=np.zeros(1),
                left=np.array([-1], dtype=np.int32),
                right=np.array([-1], dtype=np.int32),
                proba=np.array([proba], dtype=float))


def names(X):
    """Channel names of the columns of a sample matrix."""
    return [f"x{i}" for i in range(np.shape(X)[1])]


def make_model(leaves, n_features=3, classes=(0, 1)):
    return ForestModel([leaf_tree(p) for p in leaves],
                       np.array(classes, dtype=np.int32),
                       names(np.zeros((0, n_features))), 0)


def separable_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 4))
    keep = np.abs(X[:, 0] - 0.5) > 0.05    # margin around the boundary
    X = X[keep]
    y = (X[:, 0] > 0.5).astype(int)
    return X, y


def test_separable_training_accuracy():
    X, y = separable_data()
    model = train_forest(X, y, names(X), PipelineConfig(trees=20, seed=1))
    pred = predict_proba(model, X)
    acc = (np.argmax(pred.proba, axis=1) == y).mean()
    assert acc == 1.0


def test_deterministic_model_file(tmp_path):
    X, y = separable_data(seed=3)
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    save_model(train_forest(X, y, names(X), PipelineConfig(trees=5, seed=9)),
               a)
    save_model(train_forest(X, y, names(X), PipelineConfig(trees=5, seed=9)),
               b)
    assert a.read_bytes() == b.read_bytes()
    save_model(train_forest(X, y, names(X), PipelineConfig(trees=5, seed=10)),
               b)
    assert a.read_bytes() != b.read_bytes()


def test_model_same_at_every_worker_count(tmp_path):
    X, y = separable_data(seed=4)
    files = []
    for n_jobs in (1, 2, 3, 8):             # 8 workers for 5 trees
        path = tmp_path / f"{n_jobs}.bin"
        save_model(train_forest(X, y, names(X),
                                PipelineConfig(trees=5, seed=9),
                                n_jobs=n_jobs), path)
        files.append(path.read_bytes())
        assert multiprocessing.active_children() == []
    assert files[1:] == files[:1] * 3


def test_parallel_map_runs_items_in_forked_workers():
    parent = os.getpid()
    local = {"offset": 100}                 # reaches workers through fork

    def where(x):
        return x + local["offset"], os.getpid()

    got = parallel_map(3, where, range(7))
    assert [v for v, _ in got] == list(range(100, 107))
    pids = {pid for _, pid in got}
    assert parent not in pids and 1 <= len(pids) <= 3
    assert multiprocessing.active_children() == []
    # one job or one item: the calling process does the work
    assert parallel_map(1, where, range(3)) == [(100, parent), (101, parent),
                                                (102, parent)]
    assert parallel_map(4, where, [5]) == [(105, parent)]


def test_parallel_map_is_serial_without_fork(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    parent = os.getpid()
    assert parallel_map(3, lambda x: (x, os.getpid()), range(3)) == [
        (0, parent), (1, parent), (2, parent)]
    assert multiprocessing.active_children() == []


def test_parallel_map_passes_worker_exception():
    parent = os.getpid()

    def fail(x):
        if x == 2:
            raise ConfigError(f"item {x} failed in {os.getpid()}")
        return x

    with pytest.raises(ConfigError, match=r"^item 2 failed in \d+$") as info:
        parallel_map(2, fail, range(5))
    assert str(info.value) != f"item 2 failed in {parent}"
    assert multiprocessing.active_children() == []


def test_parallel_map_raises_when_a_worker_dies():
    # a pool that waited for the dead worker's result would hang: run it in
    # a child interpreter with a timeout
    code = textwrap.dedent("""
        import multiprocessing, os
        from concurrent.futures.process import BrokenProcessPool
        from pssmesh.forest import parallel_map

        def die(x):
            if x == 1:
                os._exit(3)
            return x

        try:
            parallel_map(2, die, range(4))
        except BrokenProcessPool:
            print("broken", multiprocessing.active_children())
        """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "broken []"


def test_class_weights_formula():
    y = np.array([0] * 90 + [1] * 10)
    w = class_weights(y)
    assert w[0] == pytest.approx(np.sqrt(100 / 90))
    assert w[1] == pytest.approx(np.sqrt(100 / 10))


def test_single_tree_log_average():
    model = make_model([[0.1, 0.9]])
    pred = predict_proba(model, np.zeros((1, 3)))
    assert pred.geometric[0, 1] == pytest.approx(0.9)


def test_two_tree_geometric_mean():
    model = make_model([[0.1, 0.9], [0.6, 0.4]])
    pred = predict_proba(model, np.zeros((1, 3)))
    assert pred.geometric[0, 1] == pytest.approx(np.sqrt(0.9 * 0.4))


def test_certain_class0_floors_at_eps():
    model = make_model([[1.0, 0.0], [1.0, 0.0]])
    pred = predict_proba(model, np.zeros((1, 3)))
    assert pred.geometric[0, 1] == pytest.approx(PROB_EPS)
    assert np.argmax(pred.proba[0]) == 0


def test_proba_normalized_and_finite():
    X, y = separable_data(seed=5)
    model = train_forest(X, y, names(X), PipelineConfig(trees=7, seed=2))
    pred = predict_proba(model, np.random.default_rng(0).random((50, 4)))
    assert np.isfinite(pred.proba).all()
    assert (pred.proba >= 0).all()
    assert np.allclose(pred.proba.sum(axis=1), 1.0)


def test_tree_order_invariance():
    X, y = separable_data(seed=6)
    model = train_forest(X, y, names(X), PipelineConfig(trees=9, seed=3))
    shuffled = ForestModel(model.trees[::-1], model.classes,
                           model.channel_names, model.seed)
    q = np.random.default_rng(1).random((20, 4))
    assert np.allclose(predict_proba(model, q).proba,
                       predict_proba(shuffled, q).proba)


def test_argmax_geometric_equals_argmax_log():
    X, y = separable_data(seed=7)
    model = train_forest(X, y, names(X), PipelineConfig(trees=5, seed=4))
    q = np.random.default_rng(2).random((40, 4))
    log_average = np.mean([np.log(np.maximum(t.predict(q), PROB_EPS))
                           for t in model.trees], axis=0)
    pred = predict_proba(model, q)
    assert np.array_equal(np.argmax(pred.geometric, 1),
                          np.argmax(log_average, 1))


def test_depth_monotone_training_accuracy():
    rng = np.random.default_rng(8)
    X = rng.random((300, 3))
    y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)   # needs depth
    accs = []
    for depth in (2, 6, 40):
        m = train_forest(X, y, names(X),
                         PipelineConfig(trees=15, max_depth=depth))
        accs.append((np.argmax(predict_proba(m, X).proba, 1) == y).mean())
    assert accs[0] <= accs[1] <= accs[2]


def test_min_leaf_respected():
    X, y = separable_data(n=300, seed=9)
    min_leaf = 5
    model = train_forest(X, y, names(X),
                         PipelineConfig(trees=10, min_leaf=min_leaf, seed=1))
    for tree in model.trees:
        # route the training samples and count arrivals under each split
        def count(node, idx):
            if tree.feature[node] < 0:
                return
            go_left = X[idx, tree.feature[node]] <= tree.threshold[node]
            nl, nr = int(go_left.sum()), int((~go_left).sum())
            assert nl >= min_leaf and nr >= min_leaf
            count(tree.left[node], idx[go_left])
            count(tree.right[node], idx[~go_left])
        count(0, np.arange(len(X)))


def test_single_class_rejected():
    X = np.random.default_rng(0).random((20, 3))
    with pytest.raises(ValueError, match="single class"):
        train_forest(X, np.zeros(20, dtype=int), names(X))


def test_nan_feature_rejected():
    X = np.random.default_rng(0).random((20, 3))
    X[7, 1] = np.nan
    y = np.arange(20) % 2
    with pytest.raises(ValueError, match="sample 7"):
        train_forest(X, y, names(X))


def test_model_round_trip(tmp_path):
    X, y = separable_data(seed=11)
    channels = ["höhe_r0.5", "x1", "", "x3"]        # UTF-8 and empty names
    model = train_forest(X, y, channels, PipelineConfig(trees=8, seed=5))
    p = tmp_path / "m.bin"
    save_model(model, p)
    loaded = load_model(p)
    assert loaded.channel_names == channels and loaded.n_features == 4
    assert loaded.seed == 5
    assert np.array_equal(loaded.classes, model.classes)
    q = np.random.default_rng(3).random((1000, 4))
    assert np.array_equal(predict_proba(model, q).proba,
                          predict_proba(loaded, q).proba)


@pytest.mark.parametrize("name", ["gone.model", "."])
def test_missing_model_file_names_it(tmp_path, name):
    # a directory is no model file either
    with pytest.raises(FileNotFoundError,
                       match=f"^model file not found: {tmp_path / name}$"):
        load_model(tmp_path / name)


def test_corrupt_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_model(p)


def test_unsupported_version(tmp_path):
    X, y = separable_data(seed=12)
    model = train_forest(X, y, names(X), PipelineConfig(trees=2))
    p = tmp_path / "m.bin"
    save_model(model, p)
    raw = bytearray(p.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version 99"):
        load_model(p)


def test_every_cut_or_extended_model_names_file_and_offset(tmp_path):
    X, y = separable_data(seed=13)
    model = train_forest(X, y, names(X),
                         PipelineConfig(trees=2, min_leaf=20))
    p = tmp_path / "m.bin"
    save_model(model, p)
    good = p.read_bytes()
    bad = tmp_path / "bad.bin"
    for raw in [good[:n] for n in range(len(good))] + [good + b"\x00"]:
        bad.write_bytes(raw)
        with pytest.raises(ConfigError, match="byte offset") as info:
            load_model(bad)
        assert str(info.value).startswith(f"{bad}: ")


@pytest.mark.parametrize("classes, trees, field", [
    ((0, 1), 0, "ntrees"), ((4,), 1, "ncls"), ((), 1, "ncls")],
    ids=["no-trees", "one-class", "no-class"])
def test_model_train_forest_never_writes_names_count_offset(
        tmp_path, classes, trees, field):
    model = ForestModel([leaf_tree(np.ones(len(classes)))] * trees,
                        np.array(classes, dtype=np.int32), ["x0", "x1"], 0)
    p = tmp_path / "m.bin"
    save_model(model, p)
    # magic, version, name length, "x0\nx1", seed; then the class count,
    # the class ids, the feature count and the tree count
    at = {"ncls": 4 + 4 + 4 + 5 + 8,
          "ntrees": 4 + 4 + 4 + 5 + 8 + 4 + 4 * len(classes) + 4}[field]
    what = "no trees" if field == "ntrees" else f"{len(classes)} classes"
    with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: {what}"
                                          f".* at byte offset {at}$"):
        load_model(p)


def test_planarity_map_requires_binary():
    model = make_model([[0.2, 0.3, 0.5]], classes=(0, 1, 2))

    class FF:
        values = np.zeros((4, 3))
        channel_names = ["x0", "x1", "x2"]
    with pytest.raises(ValueError, match="binary"):
        planarity_map(model, FF())


def test_planarity_map_channel_mismatch():
    model = make_model([[0.5, 0.5]])

    class FF:
        values = np.zeros((4, 3))
        channel_names = ["x0", "y1", "x2"]
    with pytest.raises(ConfigError, match="^planarity model: channel 1 is "
                                          "'x1' in the model but 'y1'"):
        planarity_map(model, FF())
    FF.channel_names = ["x0", "x1"]
    with pytest.raises(ConfigError, match="channel 2 is 'x2' in the model "
                                          "but None"):
        planarity_map(model, FF())


def test_planarity_map_fields():
    model = make_model([[0.7, 0.3]])

    class FF:
        values = np.zeros((5, 3))
        channel_names = ["x0", "x1", "x2"]
    pm = planarity_map(model, FF())
    assert np.allclose(pm.g_hat, 0.3)
    assert len(pm) == 5
    assert np.all(pm.label == 0)
    assert np.allclose(pm.planar_prob, 0.7)


def test_classify_segments_tie_lower_class():
    model = make_model([[0.5, 0.5]], classes=(2, 6))

    class SF:
        values = np.zeros((3, 3))
        channel_names = ["x0", "x1", "x2"]
    cls, proba = classify_segments(model, SF())
    assert np.all(cls == 2)
    assert proba.shape == (3, 2)
    SF.channel_names = ["x0", "x1", "x2", "x3"]
    with pytest.raises(ConfigError, match="^semantic model: channel 3 is "
                                          "None in the model but 'x3'"):
        classify_segments(model, SF())


def test_train_forest_needs_one_name_per_column():
    X, y = separable_data(seed=14)
    with pytest.raises(ValueError, match="3 channel names for 4 feature"):
        train_forest(X, y, names(X)[:3], PipelineConfig(trees=2))


@pytest.mark.parametrize("kind", ["not-utf8", "too-few", "too-many",
                                  "version-1"])
def test_bad_channel_names_name_file_and_offset(tmp_path, kind):
    X, y = separable_data(seed=15)
    p = tmp_path / "m.bin"
    save_model(train_forest(X, y, names(X), PipelineConfig(trees=2)), p)
    good = p.read_bytes()
    # the names follow magic and version as one u32-sized UTF-8 text
    n = int.from_bytes(good[8:12], "little")
    assert good[12:12 + n] == b"x0\nx1\nx2\nx3"
    text = {"not-utf8": b"x0\nx\xff\nx2\nx3", "too-few": b"x0\nx1\nx2",
            "too-many": b"x0\nx1\nx2\nx3\nx4", "version-1": good[12:12 + n]
            }[kind]
    raw = good[:8] + len(text).to_bytes(4, "little") + text + good[12 + n:]
    # the feature count follows the seed, the class count and two classes
    count_at = 12 + len(text) + 8 + 4 + 4 * 2
    message, offset = {
        "not-utf8": ("channel names are not UTF-8", 12 + 4),
        "too-few": ("3 channel names for 4 features", count_at),
        "too-many": ("5 channel names for 4 features", count_at),
        "version-1": ("unsupported model file version 1", 4),
    }[kind]
    if kind == "version-1":
        raw = raw[:4] + (1).to_bytes(4, "little") + raw[8:]
    p.write_bytes(raw)
    with pytest.raises(ConfigError, match=message) as info:
        load_model(p)
    assert str(info.value) == f"{p}: {message} at byte offset {offset}"


def tree_bytes(tree):
    return b"".join(a.tobytes() for a in (tree.feature, tree.threshold,
                                          tree.left, tree.right, tree.proba))


def tree_cases():
    rng = np.random.default_rng(12)
    X = rng.random((300, 9))
    X[:, [2, 5]] = 0.25                         # constant columns
    y = (X[:, 0] + 0.3 * rng.random(300) > 0.6).astype(np.int64)
    yield "constant columns", X, y
    ties = rng.integers(0, 3, (300, 9)).astype(np.float64)
    yield "ties", ties, (ties[:, 1] + ties[:, 4] > 2).astype(np.int64)
    # class 2 sits apart on column 0, so splits soon leave single-class
    # nodes; a few rows repeat with another label
    y3 = np.where(X[:, 0] > 0.8, 2, (X[:, 1] > 0.5).astype(np.int64))
    X3 = np.vstack([X, X[:10]])
    yield "single-class nodes", X3, np.append(y3, (y3[:10] + 1) % 3)
    # H3D's 11 classes: more than numpy's 8-element pairwise sum block
    yield "11 classes", X, (X[:, 0] * 7 + X[:, 3] * 4).astype(np.int64)


@pytest.mark.parametrize("min_leaf, max_depth", [(1, 40), (5, 40), (7, 3),
                                                 (40, 40), (150, 40)])
def test_build_tree_matches_copy_per_node_reference(min_leaf, max_depth):
    config = PipelineConfig(min_leaf=min_leaf, max_depth=max_depth)
    for name, X, y in tree_cases():
        sw = class_weights(y)[y]
        n_classes = int(y.max()) + 1
        for seed in range(3):
            want = copy_build_tree(X, y, sw, n_classes, config,
                                   np.random.default_rng(seed))
            for order in "CF":
                got = _build_tree(np.asarray(X, order=order), y, sw,
                                  n_classes, config,
                                  np.random.default_rng(seed))
                assert tree_bytes(got) == tree_bytes(want), \
                    (name, seed, order)


def test_model_same_for_either_memory_order(tmp_path):
    config = PipelineConfig(trees=3, min_leaf=2, seed=4)
    for name, X, y in tree_cases():
        files = []
        for order in "CF":
            path = tmp_path / f"{order}.bin"
            save_model(train_forest(np.asarray(X, order=order), y, names(X),
                                    config), path)
            files.append(path.read_bytes())
        assert files[0] == files[1], name
