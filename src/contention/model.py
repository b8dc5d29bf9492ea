"""Forward/backward network for contention classification.

Pipeline per window: a shared two-layer temporal encoder maps each metric's
T-step series to a node embedding, two rounds of normalized-adjacency
propagation mix embeddings along the metric graph, a mean readout pools the
nodes, and K fully parameter-disjoint heads emit one logit per contention
class. None of K, T and D is a setting: K is `data.NUM_CLASSES`, and the
training data gives D to the graph and T to the weights. The weights are
shaped only by T and the layer widths, never by D, so they serve any D;
`ModelParams.layout` is the one table of their blocks.

`forward` is the one body of the pass, for one (T, D) window and an
(N, T, D) stack of windows alike. It builds one `ForwardCache`, and a
window's logits and cache equal a stack of one's bit for bit. `backward`
returns the gradient summed over the stack. All gradients are exact
reverse-mode derivatives, checked against central differences in the test
suite. tanh keeps every layer smooth so those checks are well-defined
everywhere. `init_params` draws Glorot-uniform weights; `softmax` gives the
confidence scores that `predict` writes beside the labels.

Each activation and each tanh derivative is computed in place in a fresh
array, with the same operations in the same order as the textbook
expressions, so the bits match them. `ForwardCache` arrays are never written
after `forward` returns: one cache can serve any number of `backward` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from contention.data import NUM_CLASSES
from contention.errors import ConfigError, ShapeError
from contention.graph import MetricGraph
from contention.rng import RngStream


# Bound on the trainable parameter count, checked before anything is allocated:
# 8 MB per copy of the weights, of which training holds about five.
MAX_PARAMETERS = 1_000_000


@dataclass(frozen=True)
class ModelConfig:
    """Layer widths. T, like D, is no setting: `train` takes it from the data."""

    encoder_hidden: int = 64
    embed_width: int = 32  # node embedding width out of the encoder
    propagation_width: int = 32
    head_hidden: int = 16

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be >= 1, got {getattr(self, f.name)}")


@dataclass(frozen=True, eq=False)
class ModelParams:
    """All trainable weights at T = window_len: one flat float64 buffer, a view per block.

    The blocks are views into `flat`, as `layout` places them: writing into
    a block writes the buffer, and an update of `flat` in place moves every
    block. Building from a flat vector does not copy it.

    Encoder and propagation blocks are shared across every metric and every
    class; each head k owns its block exclusively, so per-class gradients
    touch no other head (verified by the gradient-sparsity tests).
    """

    cfg: ModelConfig
    window_len: int
    flat: np.ndarray

    def __post_init__(self):
        flat = np.ascontiguousarray(self.flat, dtype=np.float64)
        layout = self.layout(self.cfg, self.window_len)
        total = layout[-1][2].stop
        if flat.shape != (total,):
            raise ShapeError(
                f"expected a flat vector of {total} parameters, got shape {flat.shape}")
        object.__setattr__(self, "flat", flat)
        for name, shape, sl in layout:
            object.__setattr__(self, name, flat[sl].reshape(shape))

    @staticmethod
    def layout(cfg: ModelConfig, t: int) -> list[tuple[str, tuple[int, ...], slice]]:
        """(name, shape, slice of `flat`) per block at T = t, in buffer order.

        Over MAX_PARAMETERS, a ConfigError before anything is allocated."""
        dh, de, dp, dd = cfg.encoder_hidden, cfg.embed_width, cfg.propagation_width, cfg.head_hidden
        blocks, offset = [], 0
        for name, shape in (
            ("enc_w1", (t, dh)), ("enc_b1", (dh,)),  # W1.T, so xt @ enc_w1 needs no copy
            ("enc_w2", (de, dh)), ("enc_b2", (de,)),
            ("prop_w1", (de, dp)), ("prop_b1", (dp,)),
            ("prop_w2", (dp, dp)), ("prop_b2", (dp,)),
            ("head_w", (NUM_CLASSES, dd, dp)), ("head_b", (NUM_CLASSES, dd)),
            ("head_u", (NUM_CLASSES, dd)), ("head_c", (NUM_CLASSES,)),
        ):
            end = offset + math.prod(shape)
            blocks.append((name, shape, slice(offset, end)))
            offset = end
        if offset > MAX_PARAMETERS:
            raise ConfigError(
                f"model has {offset} parameters, more than the limit of {MAX_PARAMETERS}"
            )
        return blocks

    @classmethod
    def zeros(cls, cfg: ModelConfig, t: int) -> "ModelParams":
        return cls(cfg, t, np.zeros(cls.layout(cfg, t)[-1][2].stop))

    def copy(self) -> "ModelParams":
        return ModelParams(self.cfg, self.window_len, self.flat.copy())


def glorot_init(rows: int, cols: int, rng: RngStream) -> np.ndarray:
    """Uniform(-a, a) weight block with a = sqrt(6 / (rows + cols)).

    Draws from the start of the given stream: pass a distinct substream per
    tensor or successive calls will repeat the same values.
    """
    if rows < 1 or cols < 1:
        raise ShapeError(f"weight block needs positive dims, got {rows}x{cols}")
    a = math.sqrt(6.0 / (rows + cols))
    return rng.generator().uniform(-a, a, size=(rows, cols))


def init_params(cfg: ModelConfig, t: int, rng: RngStream) -> ModelParams:
    """Glorot-uniform weights for T = t, zero biases. Deterministic given the stream."""
    p = ModelParams.zeros(cfg, t)
    p.enc_w1[...] = glorot_init(cfg.encoder_hidden, t, rng.substream(0)).T
    p.enc_w2[...] = glorot_init(cfg.embed_width, cfg.encoder_hidden, rng.substream(1))
    p.prop_w1[...] = glorot_init(cfg.embed_width, cfg.propagation_width, rng.substream(2))
    p.prop_w2[...] = glorot_init(cfg.propagation_width, cfg.propagation_width, rng.substream(3))
    for i in range(NUM_CLASSES):
        p.head_w[i] = glorot_init(cfg.head_hidden, cfg.propagation_width, rng.substream(4 + 2 * i))
        p.head_u[i] = glorot_init(1, cfg.head_hidden, rng.substream(5 + 2 * i))[0]
    return p


@dataclass(frozen=True, eq=False)
class Prediction:
    """The logits of a window or a stack, and the class each picks."""

    logits: np.ndarray  # (K,) for a window, (N, K) for a stack
    label: int | np.ndarray  # argmax of each logit row, lowest index on ties


@dataclass(slots=True, eq=False)
class ForwardCache:
    """The forward pass's inputs and every intermediate the backward pass reads.

    `forward` builds it once, with every field set. Shapes are those of a
    stack; the arrays of one window lack the leading N.
    """

    x: np.ndarray  # (N, T, D) normalized input
    graph: MetricGraph
    params: ModelParams
    # (N, D, T) transpose of x, the encoder's input rows: a C-contiguous copy for one
    # window too, since a product with a transposed or strided view of x can take
    # another BLAS path, in forward or in backward, and round differently
    xt: np.ndarray
    z1: np.ndarray  # (N, D, encoder_hidden) first encoder activation
    h: np.ndarray  # (N, D, embed_width) encoded nodes
    ah: np.ndarray  # (N, D, embed_width) operator applied to h
    h1: np.ndarray  # (N, D, propagation_width) first propagation activation
    ah1: np.ndarray  # (N, D, propagation_width) operator applied to h1
    ht: np.ndarray  # (N, D, propagation_width) propagated nodes
    r: np.ndarray  # (N, propagation_width) mean readout
    head_tanh: np.ndarray  # (N, K, head_hidden)


def predict(logits: np.ndarray) -> Prediction:
    """Hard label for a logit vector or a stack of them.

    The label is the argmax of the logits with ties broken toward the lowest
    index; softmax is monotone, so this always agrees with argmax of the
    probabilities. One logit vector gives an int label.
    """
    z = np.asarray(logits, dtype=np.float64)
    label = z.argmax(axis=-1)
    return Prediction(logits=z, label=int(label) if z.ndim == 1 else label)


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


def forward(
    values: np.ndarray, g: MetricGraph, params: ModelParams
) -> tuple[Prediction, ForwardCache]:
    """Full pass over a (T, D) window or an (N, T, D) stack, retaining intermediates.

    A window gives (K,) logits and an int label, a stack (N, K) logits and
    (N,) labels. Per window, with A the graph's normalized operator:
    - encoder, shared by every metric column x_i:
      h_i = tanh(W2 tanh(W1 x_i + b1) + b2). The same weights serve every
      metric, which is what makes the model independent of D and
      equivariant to metric permutations;
    - propagation, two hops: h1 = tanh(A h Wp1 + bp1) and
      ht = tanh(A h1 Wp2 + bp2). Two hops let a metric's influence reach the
      neighbours of its neighbours, which is how chained cross-resource
      effects show up in the embedding;
    - readout and heads: r = the mean of ht's node rows, and
      z_k = u_k . tanh(Wh_k r + bh_k) + c_k, so head k's logit depends on no
      other head's parameters.

    One body serves both ranks. Its products go through `np.dot` for a
    window and `np.matmul` for a stack: the same BLAS calls, so a window's
    logits, label and cache equal the [0] of a stack of one bit for bit,
    and `np.dot` dispatches faster on the small 2-D products of batch-1
    scoring. The shape checks all run before the first product.
    """
    x = np.asarray(values, dtype=np.float64)
    window = x.ndim == 2
    if not window and x.ndim != 3:
        raise ShapeError(f"expected a (T, D) window or an (N, T, D) stack, got shape {x.shape}")
    t, d = x.shape[-2:]
    if t != params.window_len:
        raise ShapeError(f"window has {t} timesteps, encoder expects {params.window_len}")
    if g.dim != d:
        raise ShapeError(f"graph has {g.dim} vertices but the embeddings cover {d} metrics")
    mm = np.dot if window else np.matmul
    xt = np.ascontiguousarray(x.swapaxes(-1, -2))
    z1 = mm(xt, params.enc_w1)
    z1 += params.enc_b1
    np.tanh(z1, out=z1)
    h = mm(z1, params.enc_w2.T)
    h += params.enc_b2
    np.tanh(h, out=h)
    a = g.normalized
    ah = mm(a, h)
    h1 = mm(ah, params.prop_w1)
    h1 += params.prop_b1
    np.tanh(h1, out=h1)
    ah1 = mm(a, h1)
    ht = mm(ah1, params.prop_w2)
    ht += params.prop_b2
    np.tanh(ht, out=ht)
    r = np.add.reduce(ht, axis=-2)  # the mean, without np.mean's call overhead
    r /= d
    k, dd, dp = params.head_w.shape
    ta = mm(r, params.head_w.reshape(k * dd, dp).T).reshape(r.shape[:-1] + (k, dd))
    ta += params.head_b
    np.tanh(ta, out=ta)
    z = np.add.reduce(params.head_u * ta, axis=-1)
    z += params.head_c
    label = z.argmax(axis=-1)  # `predict`'s rule, without its call in the batch-1 path
    return (Prediction(z, int(label) if window else label),
            ForwardCache(x, g, params, xt, z1, h, ah, h1, ah1, ht, r, ta))


def _rows(a: np.ndarray) -> np.ndarray:
    """(N, D, width) node rows as one (N * D, width) matrix."""
    return a.reshape(-1, a.shape[-1])


def _through_tanh(upstream: np.ndarray, a: np.ndarray) -> np.ndarray:
    """upstream * (1 - a * a), the gradient through a = tanh(.), in one fresh array."""
    d = a * a
    np.subtract(1.0, d, out=d)
    d *= upstream
    return d


def backward(cache: ForwardCache, dloss_dz: np.ndarray, grads: ModelParams) -> ModelParams:
    """Exact gradients of sum_n dloss_dz[n] . z[n] with respect to every parameter.

    The parameters and the graph are the ones the forward pass used, read
    from the cache. dloss_dz has the shape of the forward pass's logits: (K,)
    for a window, (N, K) for a stack. Every block of `grads` is overwritten,
    so one buffer serves every call; it is returned. Heads whose dloss_dz
    column is zero receive exactly zero gradient, which is what keeps the
    per-class tasks decoupled during training.
    """
    params = cache.params
    if (grads.cfg, grads.window_len) != (params.cfg, params.window_len):
        raise ShapeError(f"gradient buffer is for T={grads.window_len}, {grads.cfg}; "
                         f"parameters for T={params.window_len}, {params.cfg}")
    dz = np.asarray(dloss_dz, dtype=np.float64)
    if dz.shape != cache.head_tanh.shape[:-1]:
        raise ShapeError(
            f"dloss_dz must have the logits' shape {cache.head_tanh.shape[:-1]}, got {dz.shape}"
        )
    arrays = (cache.xt, cache.z1, cache.h, cache.ah, cache.h1, cache.ah1, cache.ht, cache.r,
              cache.head_tanh, dz)
    if cache.x.ndim == 2:  # one window: view its arrays as a stack of one
        arrays = tuple(a[None] for a in arrays)
    xt, z1, h, ah, h1, ah1, ht, r, t, dz = arrays
    n = xt.shape[0]

    grads.head_u[...] = (dz[:, :, None] * t).sum(axis=0)
    grads.head_c[...] = dz.sum(axis=0)
    da = _through_tanh(dz[:, :, None] * params.head_u, t)  # (N, K, head_hidden)
    grads.head_b[...] = da.sum(axis=0)
    da = da.reshape(n, -1)  # (N, K * head_hidden), the row order of head_w's blocks
    grads.head_w[...] = (da.T @ r).reshape(params.head_w.shape)
    dr = da @ params.head_w.reshape(da.shape[1], -1)  # (N, propagation_width)

    a = cache.graph.normalized
    dp2 = _through_tanh((dr / ht.shape[1])[:, None, :], ht)
    grads.prop_w2[...] = _rows(ah1).T @ _rows(dp2)
    grads.prop_b2[...] = dp2.sum(axis=(0, 1))
    dh1 = a.T @ (dp2 @ params.prop_w2.T)

    dp1 = _through_tanh(dh1, h1)
    grads.prop_w1[...] = _rows(ah).T @ _rows(dp1)
    grads.prop_b1[...] = dp1.sum(axis=(0, 1))
    dh = a.T @ (dp1 @ params.prop_w1.T)

    da2 = _through_tanh(dh, h)  # (N, D, embed_width)
    grads.enc_w2[...] = _rows(da2).T @ _rows(z1)
    grads.enc_b2[...] = da2.sum(axis=(0, 1))
    da1 = _through_tanh(da2 @ params.enc_w2, z1)  # (N, D, encoder_hidden)
    grads.enc_w1[...] = (_rows(da1).T @ _rows(xt)).T  # dW1, stored as W1 is
    grads.enc_b1[...] = da1.sum(axis=(0, 1))
    return grads
