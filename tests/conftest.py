import math
from collections.abc import Callable

import numpy as np
import pytest

from contention.data import GROUP_NAMES, UNLABELED, ContentionClass, Dataset, ScenarioConfig
from contention.errors import DataError, NumericError, ShapeError
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


def _group_series(values: np.ndarray, cols: tuple[int, ...]) -> np.ndarray:
    return values[:, list(cols)].mean(axis=1)


def baseline_predict(values: np.ndarray, cfg: ScenarioConfig) -> int:
    """Hand-written threshold classifier over the group statistics of one (T, D) window.

    Exists to certify scenario learnability independently of the trained
    model. Uses the group-mean level for the plateau and ramp signatures, a
    spike count above the disk group's median for the spike train, and the
    mid-window variance of the net group mean for the zero-mean sinusoid
    (its time average vanishes, so a plain level test cannot see it).
    """
    scale = max(cfg.separation, 1e-12)
    group_map = cfg.group_map
    series = {name: _group_series(values, group_map[name]) for name in GROUP_NAMES}
    cpu_level = float(series["cpu"].mean())
    mem_level = float(series["mem"].mean())
    disk = series["disk"]
    disk_excess = disk - float(np.median(disk))
    spike_count = int((disk_excess > 0.9 * scale).sum())
    quarter = values.shape[0] // 4
    mid = series["net"][quarter : 3 * quarter]
    net_power = float(((mid - mid.mean()) ** 2).mean())

    hot_cpu = cpu_level > 0.43 * scale
    hot_mem = mem_level > 0.25 * scale
    hot_disk = spike_count >= 2
    hot_net = net_power > scale * scale / 6.0
    if hot_cpu and hot_disk:
        return int(ContentionClass.HYBRID)
    if hot_cpu:
        return int(ContentionClass.CPU)
    if hot_disk:
        return int(ContentionClass.IO)
    if hot_mem:
        return int(ContentionClass.MEM)
    if hot_net:
        return int(ContentionClass.NET)
    ratios = {
        ContentionClass.CPU: cpu_level / (0.43 * scale),
        ContentionClass.IO: float(disk_excess.max()) / (0.9 * scale),
        ContentionClass.MEM: mem_level / (0.25 * scale),
        ContentionClass.NET: net_power / (scale * scale / 6.0),
    }
    return int(max(ratios, key=lambda c: ratios[c]))


def baseline_accuracy(data: Dataset, cfg: ScenarioConfig) -> float:
    """Share of a dataset's windows whose label `baseline_predict` gets right;
    unlabeled windows count as misses."""
    if not len(data):
        raise DataError("cannot score an empty dataset")
    hits = sum(1 for values, label in zip(data.values, data.labels)
               if label != UNLABELED and baseline_predict(values, cfg) == label)
    return hits / len(data)
