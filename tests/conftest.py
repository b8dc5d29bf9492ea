import math
from collections.abc import Callable

import numpy as np
import pytest

from contention.data import UNLABELED, Dataset
from contention.errors import NumericError, ShapeError
from contention.graph import build_graph
from contention.model import ModelConfig
from contention.rng import RngStream


TINY_T = 8  # window length the tiny_model_cfg tests run at


@pytest.fixture
def tiny_model_cfg():
    """Small widths keep gradient checks and training loops fast."""
    return ModelConfig(
        encoder_hidden=6,
        embed_width=5,
        propagation_width=5,
        head_hidden=4,
    )


def random_graph(dim: int, seed: int, threshold: float = 0.3):
    gen = RngStream(seed, (77,)).generator()
    c = np.clip(gen.normal(scale=0.6, size=(dim, dim)), -1.0, 1.0)
    c = (c + c.T) / 2.0
    np.fill_diagonal(c, 1.0)
    return build_graph(c, threshold)


def random_dataset(n: int, t: int, d: int, seed: int, labeled=True, num_classes=3):
    """n windows of standard normal values; each window draws its values, then its label."""
    gen = RngStream(seed, (88,)).generator()
    values = np.empty((n, t, d))
    labels = np.full(n, UNLABELED)
    for i in range(n):
        values[i] = gen.normal(size=(t, d))
        if labeled:
            labels[i] = gen.integers(num_classes)
    return Dataset(values, labels, tuple(f"m{i}" for i in range(d)), "fixture")


def random_windows(n: int, t: int, d: int, seed: int, labeled=True, num_classes=3):
    """random_dataset as a list of windows, sources "fixture:{i}"."""
    return list(random_dataset(n, t, d, seed, labeled, num_classes))


def finite_diff_check(
    loss_fn: Callable[[np.ndarray], float],
    params: np.ndarray,
    analytic_grad: np.ndarray,
    h: float = 1e-5,
) -> float:
    """Max relative error between an analytic gradient and central differences.

    For each parameter i the numeric slope (L(p_i+h) - L(p_i-h)) / 2h is
    compared with analytic_grad[i]; the relative error uses the guard
    denominator max(1e-8, |analytic| + |numeric|). loss_fn must be
    deterministic and smooth at the evaluation point.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    theta = np.asarray(params, dtype=np.float64).ravel()
    grad = np.asarray(analytic_grad, dtype=np.float64).ravel()
    if theta.shape != grad.shape:
        raise ShapeError(f"params shape {theta.shape} != gradient shape {grad.shape}")
    worst = 0.0
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] = theta[i] + h
        up = float(loss_fn(bumped))
        bumped[i] = theta[i] - h
        down = float(loss_fn(bumped))
        if not (math.isfinite(up) and math.isfinite(down)):
            raise NumericError(f"non-finite loss while perturbing parameter {i}")
        numeric = (up - down) / (2.0 * h)
        denom = max(1e-8, abs(grad[i]) + abs(numeric))
        worst = max(worst, abs(grad[i] - numeric) / denom)
    return worst
