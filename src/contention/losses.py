"""Per-class binary tasks and the adaptive weighting that balances them.

Each contention class k is a one-vs-rest binary task: its logit is pushed
toward +inf on windows of class k and -inf elsewhere, under a numerically
stable binary cross-entropy on logits, max(z, 0) - z * target + log1p(e):
one e = exp(-|z|) gives it and its gradient. Task weights follow Dynamic
Weight Average (Liu, Johns & Davison 2019), a function of the last two
epochs' mean task losses: tasks whose loss fell slowly (ratio near or above
1) get upweighted relative to tasks that are already improving fast.
Weights are K * softmax(ratio / temperature), so they always sum to K and
equal-ratio tasks land exactly at 1.
"""

from __future__ import annotations

import numpy as np

from contention.errors import DataError, ShapeError

RATIO_FLOOR = 1e-8


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
    e = np.exp(-np.abs(z))
    loss = np.maximum(z, 0.0) - z * onehot + np.log1p(e)
    grad = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e)) - onehot
    return loss.mean(axis=0), grad / z.shape[0]


def update_weights(previous: np.ndarray, latest: np.ndarray, temperature: float) -> np.ndarray:
    """(K,) task weights from the mean task losses of the two newest epochs.

    The ratio is r_k = latest_k / max(previous_k, 1e-8). Weights are
    exp(r/temperature - max) rescaled to sum to K, which reproduces
    K * softmax(r/temperature) while making the equal-ratio case return
    exactly 1.0 per task. Neither input is written to or returned.
    """
    if latest.ndim != 1 or previous.shape != latest.shape:
        raise ShapeError(f"need two equal (K,) loss vectors, got {previous.shape}, {latest.shape}")
    scaled = latest / np.maximum(previous, RATIO_FLOOR) / temperature
    e = np.exp(scaled - scaled.max())
    return e * (latest.size / e.sum())
