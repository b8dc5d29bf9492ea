import numpy as np
import pytest

from contention.data import MetricWindow, stack_windows
from contention.graph import CorrelationMatrix, build_graph
from contention.model import ModelConfig
from contention.rng import RngStream


@pytest.fixture
def tiny_model_cfg():
    """Small widths keep gradient checks and training loops fast."""
    return ModelConfig(
        window_len=8,
        num_classes=3,
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
    return build_graph(CorrelationMatrix(values=c), threshold)


def random_windows(n: int, t: int, d: int, seed: int, labeled=True, num_classes=3):
    gen = RngStream(seed, (88,)).generator()
    names = tuple(f"m{i}" for i in range(d))
    out = []
    for i in range(n):
        out.append(
            MetricWindow(
                values=gen.normal(size=(t, d)),
                label=int(gen.integers(num_classes)) if labeled else None,
                source=f"fixture:{i}",
                metric_names=names,
            )
        )
    return out


def random_dataset(n: int, t: int, d: int, seed: int, labeled=True, num_classes=3):
    """random_windows stacked into one Dataset."""
    return stack_windows(random_windows(n, t, d, seed, labeled, num_classes), source="fixture")
