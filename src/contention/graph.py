"""Metric dependency graph: correlation estimation, thresholding, normalization.

The D monitored metrics are the vertices. Edges come from thresholding the
absolute Pearson correlation between metric series over the training split,
standing in for competition/dependency links between resources. The
propagation operator is the usual symmetric normalization of the adjacency
with implicit self-loops, so isolated metrics still see themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from contention.errors import ConfigError, ShapeError

DEFAULT_CORR_THRESHOLD = 0.3

# Relative floor below which a metric is treated as constant.
_VAR_FLOOR = 1e-12


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pearson coefficients between metric dimensions.

    Symmetric with unit diagonal, except that constant (zero-variance)
    metrics get an all-zero row and column, diagonal included, rather than
    NaN: constant metrics do occur in real traces and must stay inert.
    """

    values: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class MetricGraph:
    """Thresholded metric graph plus its normalized propagation operator."""

    adjacency: np.ndarray  # D x D binary, symmetric, zero diagonal
    normalized: np.ndarray  # (A + I) scaled by inverse sqrt degrees
    threshold: float

    @property
    def dim(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2


@dataclass(frozen=True)
class GraphStats:
    edges: int
    density: float
    isolated: int
    degree_histogram: tuple[int, ...]  # index = degree, value = vertex count


def pearson_matrix(data) -> CorrelationMatrix:
    """Correlation between metrics over all rows of all windows of a Dataset.

    Two-pass computation: per-metric means first, then centered products.
    """
    if not len(data):
        raise ShapeError("pearson_matrix needs at least one window")
    return pearson_from_series(data.values.reshape(-1, data.metric_count))


def pearson_from_series(series: np.ndarray) -> CorrelationMatrix:
    """Pearson matrix of an (N, D) sample-by-metric array."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ShapeError(f"need an (N>=2, D) series, got shape {x.shape}")
    n, d = x.shape
    means = x.mean(axis=0)
    centered = x - means
    sq = (centered * centered).sum(axis=0)
    sd = np.sqrt(sq / n)
    live = sd > _VAR_FLOOR * np.maximum(1.0, np.abs(means))
    denom = np.sqrt(np.outer(sq, sq))
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = (centered.T @ centered) / denom
    corr[~live, :] = 0.0
    corr[:, ~live] = 0.0
    corr[np.diag_indices(d)] = np.where(live, 1.0, 0.0)
    corr = np.clip(corr, -1.0, 1.0)
    return CorrelationMatrix(values=corr)


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """(A + I)_ij / sqrt(d_i * d_j) with d_i = 1 + sum_j A_ij.

    The implicit self-loop keeps isolated vertices alive: degree 1, entry 1.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"adjacency must be square, got shape {a.shape}")
    d = 1.0 + a.sum(axis=1)
    inv = 1.0 / np.sqrt(d)
    return (a + np.eye(a.shape[0])) * np.outer(inv, inv)


def build_graph(corr: CorrelationMatrix, threshold: float = DEFAULT_CORR_THRESHOLD) -> MetricGraph:
    """Edge (i, j) iff |corr_ij| >= threshold for i != j."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"correlation threshold must lie in [0, 1], got {threshold}")
    c = corr.values
    adjacency = (np.abs(c) >= threshold).astype(np.float64)
    np.fill_diagonal(adjacency, 0.0)
    return MetricGraph(
        adjacency=adjacency,
        normalized=normalize_adjacency(adjacency),
        threshold=float(threshold),
    )


def identity_graph(dim: int) -> MetricGraph:
    """Edge-free graph whose propagation operator is the identity.

    Used for the no-propagation ablation: with this graph the propagation
    layers degenerate to independent per-metric dense layers.
    """
    if dim < 1:
        raise ShapeError(f"graph needs at least one vertex, got {dim}")
    adjacency = np.zeros((dim, dim))
    return MetricGraph(adjacency=adjacency, normalized=np.eye(dim), threshold=1.0)


def graph_stats(g: MetricGraph) -> GraphStats:
    """Edge count, density, isolated vertices, and degree histogram."""
    degrees = g.adjacency.sum(axis=1).astype(int)
    edges = int(degrees.sum()) // 2
    d = g.dim
    density = 0.0 if d < 2 else 2.0 * edges / (d * (d - 1))
    hist = np.bincount(degrees, minlength=1)
    return GraphStats(
        edges=edges,
        density=density,
        isolated=int((degrees == 0).sum()),
        degree_histogram=tuple(int(c) for c in hist),
    )
