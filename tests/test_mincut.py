import numpy as np
import pytest

from mincut import min_cut_binary, binary_energy


def enumerate_energies(unary0, unary1, edges, weights):
    """(2^n,) energy table over all labelings; bit i of row r = label of i."""
    n = len(unary0)
    rows = np.arange(2 ** n)
    bits = (rows[:, None] >> np.arange(n)) & 1          # (2^n, n)
    e = np.where(bits == 0, unary0, unary1).sum(axis=1)
    for (a, b), w in zip(edges, weights):
        e = e + w * (bits[:, a] != bits[:, b])
    return e, bits


def test_single_node():
    assert min_cut_binary([0.2], [0.8], [], []).tolist() == [0]
    assert min_cut_binary([0.8], [0.2], [], []).tolist() == [1]


def test_two_node_tie_prefers_zeros():
    labels = min_cut_binary([0.0, 1.0], [1.0, 0.0], [[0, 1]], [10.0])
    assert labels.tolist() == [0, 0]


def test_strong_coupling_agrees():
    labels = min_cut_binary([0.0, 0.9], [1.0, 0.1], [[0, 1]], [5.0])
    # {0,0}: 0.9, {1,1}: 1.1, split: >=5 -> {0,0}
    assert labels.tolist() == [0, 0]


def test_negative_unaries_allowed():
    assert min_cut_binary([-0.5], [0.3], [], []).tolist() == [0]
    assert min_cut_binary([0.3], [-0.5], [], []).tolist() == [1]


def test_infinite_unary_pins_label():
    labels = min_cut_binary([0.0, 0.0], [np.inf, 0.4], [[0, 1]], [1.0])
    assert labels[0] == 0


def test_negative_edge_rejected():
    with pytest.raises(ValueError, match="negative edge"):
        min_cut_binary([0.1], [0.2], [[0, 0]], [-1.0])


def test_matches_enumeration_random_graphs():
    rng = np.random.default_rng(0)
    for trial in range(300):
        n = int(rng.integers(1, 9))
        u0 = rng.uniform(-1, 2, n)
        u1 = rng.uniform(-1, 2, n)
        m = int(rng.integers(0, n * 2))
        edges = rng.integers(0, n, (m, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        w = rng.uniform(0, 2, len(edges))
        labels = min_cut_binary(u0, u1, edges, w)
        table, bits = enumerate_energies(u0, u1, edges, w)
        row = int((labels.astype(np.int64) << np.arange(n)).sum())
        assert table[row] <= table.min() + 1e-9
        # ties resolve toward the labeling with the most zeros
        minimizers = np.flatnonzero(table <= table.min() + 1e-12)
        max_zeros = (bits[minimizers] == 0).sum(axis=1).max()
        assert (labels == 0).sum() >= max_zeros - 0


def test_discrete_costs_exact_ties():
    rng = np.random.default_rng(1)
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    for trial in range(200):
        n = int(rng.integers(1, 7))
        u0 = rng.choice(grid, n)
        u1 = rng.choice(grid, n)
        edges = [[i, j] for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        w = rng.choice(grid, len(edges))
        labels = min_cut_binary(u0, u1, np.array(edges).reshape(-1, 2), w)
        table, bits = enumerate_energies(u0, u1, edges, w)
        row = int((labels.astype(np.int64) << np.arange(n)).sum())
        assert table[row] == table.min()
        minimizers = np.flatnonzero(table == table.min())
        assert (labels == 0).sum() == (bits[minimizers] == 0).sum(axis=1).max()


def test_binary_energy_helper():
    e = binary_energy([1.0, 0.0], [0.0, 2.0], [[0, 1]], [0.5], [1, 0])
    assert e == pytest.approx(0.0 + 0.0 + 0.5)
