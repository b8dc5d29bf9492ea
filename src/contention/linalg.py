"""Dense numeric kernels: softmax, stable losses, initialization.

Everything here operates on float64 numpy arrays. No public function emits
NaN or Inf for finite inputs within its documented range; the softmax and
binary cross-entropy use overflow-safe formulations so that logits of any
practical magnitude stay finite.
"""

from __future__ import annotations

import math

import numpy as np

from contention.errors import ShapeError
from contention.rng import RngStream


def softmax(z) -> np.ndarray:
    """Normalized confidence scores for a logit vector, or for each row of a stack.

    Uses max-subtraction so arbitrarily large logits cannot overflow. Each
    result sums to 1 within 1e-12 and is invariant to adding a constant to
    every logit.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape[-1] == 0:
        raise ShapeError(f"softmax expects nonempty logit vectors, got shape {z.shape}")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(x):
    """Numerically stable logistic function, scalar or elementwise."""
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    return out if out.ndim else float(out)

def bce_from_logit(logit, target):
    """Binary cross-entropy evaluated directly on a logit.

    Stable log(1+exp(.)) form: max(x,0) - x*t + log1p(exp(-|x|)). Accepts
    scalars or same-shaped arrays and never overflows for finite logits.
    """
    x = np.asarray(logit, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    out = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    return out if out.ndim else float(out)


def glorot_init(rows: int, cols: int, rng: RngStream) -> np.ndarray:
    """Uniform(-a, a) weight block with a = sqrt(6 / (rows + cols)).

    Draws from the start of the given stream: pass a distinct substream per
    tensor or successive calls will repeat the same values.
    """
    if rows < 1 or cols < 1:
        raise ShapeError(f"weight block needs positive dims, got {rows}x{cols}")
    a = math.sqrt(6.0 / (rows + cols))
    return rng.generator().uniform(-a, a, size=(rows, cols))
