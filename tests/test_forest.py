import numpy as np
import pytest

from pssmesh.config import ConfigError, PipelineConfig
from pssmesh.forest import (ForestModel, Tree, train_forest,
                            predict_proba, planarity_map, classify_segments,
                            class_weights, save_model, load_model, PROB_EPS,
                            _build_tree)

from oracles import copy_build_tree


def leaf_tree(proba):
    return Tree(feature=np.array([-1], dtype=np.int32),
                threshold=np.zeros(1),
                left=np.array([-1], dtype=np.int32),
                right=np.array([-1], dtype=np.int32),
                proba=np.array([proba], dtype=float))


def make_model(leaves, n_features=3, classes=(0, 1)):
    return ForestModel([leaf_tree(p) for p in leaves],
                       np.array(classes, dtype=np.int32), n_features, "", 0)


def separable_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 4))
    keep = np.abs(X[:, 0] - 0.5) > 0.05    # margin around the boundary
    X = X[keep]
    y = (X[:, 0] > 0.5).astype(int)
    return X, y


def test_separable_training_accuracy():
    X, y = separable_data()
    model = train_forest(X, y, PipelineConfig(trees=20, seed=1))
    pred = predict_proba(model, X)
    acc = (np.argmax(pred.proba, axis=1) == y).mean()
    assert acc == 1.0


def test_deterministic_model_file(tmp_path):
    X, y = separable_data(seed=3)
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    save_model(train_forest(X, y, PipelineConfig(trees=5, seed=9)), a)
    save_model(train_forest(X, y, PipelineConfig(trees=5, seed=9)), b)
    assert a.read_bytes() == b.read_bytes()
    save_model(train_forest(X, y, PipelineConfig(trees=5, seed=10)), b)
    assert a.read_bytes() != b.read_bytes()


def test_class_weights_formula():
    y = np.array([0] * 90 + [1] * 10)
    w = class_weights(y)
    assert w[0] == pytest.approx(np.sqrt(100 / 90))
    assert w[1] == pytest.approx(np.sqrt(100 / 10))


def test_weights_help_minority_recall():
    rng = np.random.default_rng(4)
    n0, n1 = 500, 25
    X = np.vstack([rng.normal(0.0, 1.0, (n0, 3)), rng.normal(1.0, 1.0, (n1, 3))])
    y = np.array([0] * n0 + [1] * n1)
    cfg = PipelineConfig(trees=30)
    flat = train_forest(X, y, cfg, weights=np.ones(2))
    bal = train_forest(X, y, cfg, weights=None)   # sqrt(N/n_c)
    ytest = y
    r_flat = (np.argmax(predict_proba(flat, X).proba, 1)[y == 1] == 1).mean()
    r_bal = (np.argmax(predict_proba(bal, X).proba, 1)[y == 1] == 1).mean()
    assert r_bal >= r_flat


def test_single_tree_log_average():
    model = make_model([[0.1, 0.9]])
    pred = predict_proba(model, np.zeros((1, 3)))
    assert pred.log_average[0, 1] == pytest.approx(np.log(0.9))
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
    model = train_forest(X, y, PipelineConfig(trees=7, seed=2))
    pred = predict_proba(model, np.random.default_rng(0).random((50, 4)))
    assert np.isfinite(pred.proba).all()
    assert (pred.proba >= 0).all()
    assert np.allclose(pred.proba.sum(axis=1), 1.0)


def test_tree_order_invariance():
    X, y = separable_data(seed=6)
    model = train_forest(X, y, PipelineConfig(trees=9, seed=3))
    shuffled = ForestModel(model.trees[::-1], model.classes,
                           model.n_features, model.layout_version, model.seed)
    q = np.random.default_rng(1).random((20, 4))
    assert np.allclose(predict_proba(model, q).proba,
                       predict_proba(shuffled, q).proba)


def test_argmax_geometric_equals_argmax_log():
    X, y = separable_data(seed=7)
    model = train_forest(X, y, PipelineConfig(trees=5, seed=4))
    pred = predict_proba(model, np.random.default_rng(2).random((40, 4)))
    assert np.array_equal(np.argmax(pred.geometric, 1), np.argmax(pred.log_average, 1))


def test_depth_monotone_training_accuracy():
    rng = np.random.default_rng(8)
    X = rng.random((300, 3))
    y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)   # needs depth
    accs = []
    for depth in (2, 6, 40):
        m = train_forest(X, y, PipelineConfig(trees=15, max_depth=depth))
        accs.append((np.argmax(predict_proba(m, X).proba, 1) == y).mean())
    assert accs[0] <= accs[1] <= accs[2]


def test_min_leaf_respected():
    X, y = separable_data(n=300, seed=9)
    min_leaf = 5
    model = train_forest(X, y,
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
        train_forest(X, np.zeros(20, dtype=int))


def test_nan_feature_rejected():
    X = np.random.default_rng(0).random((20, 3))
    X[7, 1] = np.nan
    y = np.arange(20) % 2
    with pytest.raises(ValueError, match="sample 7"):
        train_forest(X, y)


def test_model_round_trip(tmp_path):
    X, y = separable_data(seed=11)
    model = train_forest(X, y, PipelineConfig(trees=8, seed=5),
                         layout_version="face-v1")
    p = tmp_path / "m.bin"
    save_model(model, p)
    loaded = load_model(p)
    assert loaded.layout_version == "face-v1"
    assert loaded.seed == 5
    assert np.array_equal(loaded.classes, model.classes)
    q = np.random.default_rng(3).random((1000, 4))
    assert np.array_equal(predict_proba(model, q).proba,
                          predict_proba(loaded, q).proba)


def test_corrupt_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_model(p)


def test_unsupported_version(tmp_path):
    X, y = separable_data(seed=12)
    model = train_forest(X, y, PipelineConfig(trees=2))
    p = tmp_path / "m.bin"
    save_model(model, p)
    raw = bytearray(p.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version 99"):
        load_model(p)


def test_every_cut_or_extended_model_names_file_and_offset(tmp_path):
    X, y = separable_data(seed=13)
    model = train_forest(X, y, PipelineConfig(trees=2, min_leaf=20),
                         layout_version="face-v1")
    p = tmp_path / "m.bin"
    save_model(model, p)
    good = p.read_bytes()
    bad = tmp_path / "bad.bin"
    for raw in [good[:n] for n in range(len(good))] + [good + b"\x00"]:
        bad.write_bytes(raw)
        with pytest.raises(ConfigError, match="byte offset") as info:
            load_model(bad)
        assert str(info.value).startswith(f"{bad}: ")


def test_planarity_map_requires_binary():
    model = make_model([[0.2, 0.3, 0.5]], classes=(0, 1, 2))

    class FF:
        values = np.zeros((4, 3))
        layout_version = ""
    with pytest.raises(ValueError, match="binary"):
        planarity_map(model, FF())


def test_planarity_map_layout_mismatch():
    model = make_model([[0.5, 0.5]])
    model.layout_version = "face-v1"

    class FF:
        values = np.zeros((4, 3))
        layout_version = "face-v2"
    with pytest.raises(ValueError, match="layout"):
        planarity_map(model, FF())


def test_planarity_map_fields():
    model = make_model([[0.7, 0.3]])

    class FF:
        values = np.zeros((5, 3))
        layout_version = ""
    pm = planarity_map(model, FF())
    assert np.allclose(pm.g_hat, 0.3)
    assert np.allclose(np.exp(pm.g_log), pm.g_hat)
    assert np.all(pm.label == 0)
    assert np.allclose(pm.planar_prob, 0.7)


def test_classify_segments_tie_lower_class():
    model = make_model([[0.5, 0.5]], classes=(2, 6))

    class SF:
        values = np.zeros((3, 3))
        layout_version = ""
    cls, proba = classify_segments(model, SF())
    assert np.all(cls == 2)
    assert proba.shape == (3, 2)


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


@pytest.mark.parametrize("min_leaf, max_depth", [(1, 40), (5, 40), (7, 3),
                                                 (40, 40), (150, 40)])
def test_build_tree_matches_copy_per_node_reference(min_leaf, max_depth):
    config = PipelineConfig(min_leaf=min_leaf, max_depth=max_depth)
    for name, X, y in tree_cases():
        sw = class_weights(y)[y]
        n_classes = int(y.max()) + 1
        for seed in range(3):
            got = _build_tree(X, y, sw, n_classes, config,
                              np.random.default_rng(seed))
            want = copy_build_tree(X, y, sw, n_classes, config,
                                   np.random.default_rng(seed))
            assert tree_bytes(got) == tree_bytes(want), (name, seed)
