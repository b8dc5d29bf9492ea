"""Per-class binary tasks and the adaptive weighting that balances them.

Each contention class k is a one-vs-rest binary task: its logit is pushed
toward +inf on windows of class k and -inf elsewhere, under a numerically
stable binary cross-entropy on logits. Task weights follow a loss-ratio
rule: tasks whose mean loss fell slowly in the last epoch (ratio near or
above 1) get upweighted relative to tasks that are already improving fast.
Weights are K * softmax(ratio / temperature), so they always sum to K and
equal-ratio tasks land exactly at 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from contention.errors import ConfigError, DataError, ShapeError
from contention.linalg import bce_from_logit, sigmoid

RATIO_FLOOR = 1e-8
DEFAULT_TEMPERATURE = 2.0


def task_losses(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean one-vs-rest binary cross-entropy per class, shape (K,), and its logit gradient.

    Task k treats every window as a binary example: target 1 where the true
    label equals k, else 0. Each task averages over all N windows, so a rare
    class still contributes mostly easy negatives to its own task. The
    gradient d losses[k] / d logits[:, k] has shape (N, K) and equals
    (sigmoid(z) - target) / N.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    if z.ndim != 2:
        raise ShapeError(f"logits must be (N, K), got shape {z.shape}")
    if y.shape != (z.shape[0],):
        raise ShapeError(f"labels must be ({z.shape[0]},), got shape {y.shape}")
    if z.shape[0] == 0:
        raise DataError("cannot compute task losses over zero windows")
    k = z.shape[1]
    bad = np.nonzero((y < 0) | (y >= k))[0]
    if bad.size:
        raise DataError(
            f"label {int(y[bad[0]])} at sample {int(bad[0])} is outside [0, {k - 1}]"
        )
    onehot = (y.astype(np.int64)[:, None] == np.arange(k)[None, :]).astype(np.float64)
    return bce_from_logit(z, onehot).mean(axis=0), (sigmoid(z) - onehot) / z.shape[0]


@dataclass(frozen=True)
class TaskWeightState:
    """Current task weights plus the loss history that produced them.

    history holds the per-task mean epoch losses of up to the two most
    recent completed epochs, newest last. Fewer than two entries means the
    ratio is undefined, so the weights stay at their all-ones cold start.
    """

    weights: np.ndarray  # (K,), positive, sums to K
    history: tuple[np.ndarray, ...] = ()
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if len(self.history) > 2:
            raise ShapeError("history holds at most the two most recent epochs")

    @classmethod
    def initial(cls, num_tasks: int, temperature: float = DEFAULT_TEMPERATURE) -> "TaskWeightState":
        if num_tasks < 1:
            raise ConfigError(f"need at least one task, got {num_tasks}")
        return cls(weights=np.ones(num_tasks), history=(), temperature=temperature)

    @property
    def num_tasks(self) -> int:
        return self.weights.shape[0]


def update_weights(state: TaskWeightState, epoch_losses: np.ndarray) -> TaskWeightState:
    """Fold one epoch's mean task losses into the weighting state.

    The new epoch is pushed onto the history first; the ratio then compares
    the two most recent completed epochs, r_k = L_k(newest) / max(L_k(prev),
    1e-8). With fewer than two epochs recorded the weights are all ones.
    Weights are computed as exp(r/temp - max) rescaled to sum to K, which
    reproduces K * softmax(r/temp) while making the equal-ratio case return
    exactly 1.0 per task.
    """
    losses = np.asarray(epoch_losses, dtype=np.float64)
    k = state.num_tasks
    if losses.shape != (k,):
        raise ShapeError(f"epoch losses must have shape ({k},), got {losses.shape}")
    history = (state.history + (losses.copy(),))[-2:]
    if len(history) < 2:
        weights = np.ones(k)
    else:
        ratios = history[1] / np.maximum(history[0], RATIO_FLOOR)
        scaled = ratios / state.temperature
        e = np.exp(scaled - scaled.max())
        weights = e * (k / e.sum())
    return TaskWeightState(weights=weights, history=history, temperature=state.temperature)


def combine(losses: np.ndarray, state: TaskWeightState) -> float:
    """Scalar training objective: weighted sum of the per-task losses."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape != (state.num_tasks,):
        raise ShapeError(
            f"losses must have shape ({state.num_tasks},), got {losses.shape}"
        )
    return float(np.dot(state.weights, losses))


def combine_grads(logit_grads: np.ndarray, state: TaskWeightState) -> np.ndarray:
    """d combine / d logits: per-task gradients scaled by the task weights."""
    g = np.asarray(logit_grads, dtype=np.float64)
    if g.ndim != 2 or g.shape[1] != state.num_tasks:
        raise ShapeError(f"logit grads must be (N, {state.num_tasks}), got shape {g.shape}")
    return g * state.weights[None, :]
