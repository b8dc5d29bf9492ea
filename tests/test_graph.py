"""Graph construction tests.

The Pearson and normalization oracles are explicit scalar loops over the
defining formulas, so any vectorization mistake in the library shows up as a
disagreement here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contention.data import Dataset
from contention.errors import ConfigError, ShapeError
from contention.graph import (
    DEFAULT_CORR_THRESHOLD,
    CorrelationMatrix,
    MetricGraph,
    build_graph,
    graph_stats,
    identity_graph,
    normalize_adjacency,
    pearson_from_series,
    pearson_matrix,
)
from contention.rng import RngStream

from conftest import random_dataset, random_graph


def brute_pearson(x):
    """Scalar-loop Pearson with population normalization and dead-metric zeroing."""
    n, d = x.shape
    means = [sum(x[i, j] for i in range(n)) / n for j in range(d)]
    sq = [sum((x[i, j] - means[j]) ** 2 for i in range(n)) for j in range(d)]
    live = [math.sqrt(sq[j] / n) > 1e-12 * max(1.0, abs(means[j])) for j in range(d)]
    out = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            if not (live[a] and live[b]):
                continue
            if a == b:
                out[a, b] = 1.0
                continue
            num = sum((x[i, a] - means[a]) * (x[i, b] - means[b]) for i in range(n))
            out[a, b] = num / math.sqrt(sq[a] * sq[b])
    return np.clip(out, -1.0, 1.0)


def brute_normalize(adj):
    d = adj.shape[0]
    deg = [1.0 + sum(adj[i, j] for j in range(d)) for i in range(d)]
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            out[i, j] = (adj[i, j] + (1.0 if i == j else 0.0)) / math.sqrt(
                deg[i] * deg[j]
            )
    return out


class TestPearson:
    def test_matches_brute_force(self):
        x = RngStream(0, (2,)).generator().normal(size=(40, 6))
        got = pearson_from_series(x).values
        assert np.max(np.abs(got - brute_pearson(x))) <= 1e-10

    def test_perfect_and_anti_correlation(self):
        t = np.linspace(0.0, 1.0, 20)
        x = np.stack([t, 2.0 * t + 3.0, -t], axis=1)
        c = pearson_from_series(x).values
        assert c[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert c[0, 2] == pytest.approx(-1.0, abs=1e-12)
        assert np.all(c <= 1.0) and np.all(c >= -1.0)

    def test_constant_metric_zeroed_including_diagonal(self):
        gen = RngStream(1, (2,)).generator()
        x = gen.normal(size=(30, 4))
        x[:, 2] = 5.0
        c = pearson_from_series(x).values
        assert np.all(c[2, :] == 0.0)
        assert np.all(c[:, 2] == 0.0)
        assert c[2, 2] == 0.0
        for j in (0, 1, 3):
            assert c[j, j] == 1.0

    def test_windows_concatenated(self):
        data = random_dataset(5, 8, 4, seed=3)
        series = np.concatenate([w.values for w in data], axis=0)
        a = pearson_matrix(data).values
        b = pearson_from_series(series).values
        assert a.tobytes() == b.tobytes()

    def test_empty_windows_rejected(self):
        with pytest.raises(ShapeError):
            pearson_matrix(Dataset(np.empty((0, 8, 4)), np.empty(0), "abcd"))

    def test_single_sample_rejected(self):
        with pytest.raises(ShapeError):
            pearson_from_series(np.ones((1, 3)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 8), st.integers(0, 10_000))
    def test_symmetric_bounded_unit_diagonal(self, n, d, seed):
        x = RngStream(seed, (7,)).generator().normal(size=(n, d))
        c = pearson_from_series(x).values
        assert np.array_equal(c, c.T)
        assert np.all(c >= -1.0) and np.all(c <= 1.0)
        # random normal draws essentially never produce a constant column
        assert np.all(np.diag(c) == 1.0)

    def test_dim_property(self):
        c = pearson_from_series(np.random.default_rng(0).normal(size=(10, 5)))
        assert isinstance(c, CorrelationMatrix)
        assert c.dim == 5


class TestNormalize:
    def test_matches_brute_force(self):
        for seed in range(5):
            g = random_graph(7, seed=seed, threshold=0.2)
            assert np.max(np.abs(g.normalized - brute_normalize(g.adjacency))) <= 1e-12

    def test_single_edge_pair(self):
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(normalize_adjacency(adj), 0.5, atol=1e-15)

    def test_empty_adjacency_gives_identity(self):
        assert np.array_equal(normalize_adjacency(np.zeros((4, 4))), np.eye(4))

    def test_isolated_vertex_entry_is_one(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0
        norm = normalize_adjacency(adj)
        assert norm[2, 2] == 1.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            normalize_adjacency(np.zeros((3, 4)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10_000))
    def test_spectrum_within_unit_interval(self, d, seed):
        """Symmetric-normalized operators have eigenvalues in [-1, 1]."""
        g = random_graph(d, seed=seed, threshold=0.3)
        eig = np.linalg.eigvalsh(g.normalized)
        assert eig.max() <= 1.0 + 1e-9
        assert eig.min() >= -1.0 - 1e-9


class TestBuildGraph:
    def test_threshold_semantics(self):
        c = np.eye(3)
        c[0, 1] = c[1, 0] = 0.5
        c[1, 2] = c[2, 1] = -0.5
        c[0, 2] = c[2, 0] = 0.2
        g = build_graph(CorrelationMatrix(c), threshold=0.5)
        want = np.zeros((3, 3))
        want[0, 1] = want[1, 0] = 1.0  # |0.5| >= 0.5
        want[1, 2] = want[2, 1] = 1.0  # |-0.5| >= 0.5
        assert np.array_equal(g.adjacency, want)
        assert g.edge_count == 2

    def test_diagonal_never_an_edge(self):
        c = pearson_from_series(RngStream(9, (2,)).generator().normal(size=(20, 5)))
        g = build_graph(c, threshold=0.0)
        assert np.all(np.diag(g.adjacency) == 0.0)

    def test_threshold_bounds(self):
        c = CorrelationMatrix(np.eye(2))
        for bad in (-0.1, 1.5):
            with pytest.raises(ConfigError, match=r"\[0, 1\]"):
                build_graph(c, threshold=bad)
        build_graph(c, threshold=0.0)
        build_graph(c, threshold=1.0)

    def test_default_threshold(self):
        assert DEFAULT_CORR_THRESHOLD == 0.3

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 10_000))
    def test_monotone_in_threshold(self, d, seed):
        """Raising the threshold can only remove edges."""
        x = RngStream(seed, (8,)).generator().normal(size=(30, d))
        c = pearson_from_series(x)
        prev = None
        for tau in np.linspace(0.0, 0.9, 10):
            g = build_graph(c, threshold=float(tau))
            if prev is not None:
                assert np.all(prev.adjacency >= g.adjacency)
                assert prev.edge_count >= g.edge_count
            prev = g

    def test_adjacency_symmetric_binary(self):
        g = random_graph(8, seed=2, threshold=0.25)
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert set(np.unique(g.adjacency)) <= {0.0, 1.0}


class TestIdentityGraph:
    def test_operator_is_identity(self):
        g = identity_graph(6)
        assert np.array_equal(g.normalized, np.eye(6))
        assert g.edge_count == 0
        assert g.dim == 6

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            identity_graph(0)


class TestGraphStats:
    def test_triangle_plus_isolated(self):
        adj = np.zeros((4, 4))
        for a, b in ((0, 1), (1, 2), (0, 2)):
            adj[a, b] = adj[b, a] = 1.0
        g = MetricGraph(
            adjacency=adj, normalized=normalize_adjacency(adj), threshold=0.5
        )
        stats = graph_stats(g)
        assert stats.edges == 3
        assert stats.density == pytest.approx(0.5)
        assert stats.isolated == 1
        assert stats.degree_histogram == (1, 0, 3)

    def test_edgeless(self):
        stats = graph_stats(identity_graph(3))
        assert stats.edges == 0
        assert stats.density == 0.0
        assert stats.isolated == 3
        assert stats.degree_histogram == (3,)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 10_000))
    def test_handshake_identities(self, d, seed):
        g = random_graph(d, seed=seed, threshold=0.3)
        stats = graph_stats(g)
        degrees = g.adjacency.sum(axis=1).astype(int)
        assert stats.edges * 2 == int(degrees.sum())
        assert sum(stats.degree_histogram) == d
        assert stats.isolated == int((degrees == 0).sum())
        assert 0.0 <= stats.density <= 1.0
