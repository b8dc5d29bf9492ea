"""Mini-batch training with Adam and adaptive task weights, plus evaluation.

The loop is deliberately plain: per epoch, a seeded shuffle fixes the batch
membership, each batch runs as one stacked forward/backward pass whose
gradient is summed over its windows, and one Adam step applies per batch.
Evaluation scores windows in stacks of SCORE_CHUNK.
Given the same config and seed the whole trajectory is bit-reproducible,
which the acceptance suite checks at the file level.

Model selection returns the parameters from the epoch with the best
validation macro-F1 (earliest on ties); training stops early once that best
epoch is `patience` epochs behind.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from contention.data import CLASS_NAMES, Dataset
from contention.errors import ConfigError, DataError, NumericError
from contention.graph import MetricGraph, identity_graph
from contention.losses import (
    TaskWeightState,
    combine,
    combine_grads,
    task_losses,
    update_weights,
)
from contention.model import (
    ModelConfig,
    ModelParams,
    Prediction,
    backward,
    forward,
    init_params,
    predict,
)
from contention.rng import RngStream


# Adam moves each weight by about the rate per step, so past this bound the
# first step already drives the tanh units into saturation.
MAX_LEARNING_RATE = 1.0


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    max_epochs: int = 50
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    patience: int = 10  # epochs since the best validation macro-F1
    seed: int = 0
    adaptive_weights: bool = True  # off = static all-ones task weights
    graph_propagation: bool = True  # off = identity operator (ablation)
    dwa_temperature: float = 2.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 < self.learning_rate <= MAX_LEARNING_RATE:
            raise ConfigError(
                f"learning_rate must lie in (0, {MAX_LEARNING_RATE}], got {self.learning_rate}"
            )
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {b}")
        if self.adam_eps <= 0:
            raise ConfigError(f"adam_eps must be positive, got {self.adam_eps}")
        if self.dwa_temperature <= 0:
            raise ConfigError(
                f"dwa_temperature must be positive, got {self.dwa_temperature}"
            )


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(m=np.zeros(size), v=np.zeros(size), step=0)


def adam_step(
    theta: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    cfg: TrainConfig,
    blocks: list[tuple[str, slice]] | None = None,
) -> AdamState:
    """One bias-corrected Adam update, applied in place to the flat parameter vector.

    A non-finite gradient aborts training; when block slices are supplied the
    error names the parameter block that went bad instead of a bare index.
    """
    if theta.shape != grad.shape:
        raise ConfigError(f"theta shape {theta.shape} != grad shape {grad.shape}")
    finite = np.isfinite(grad)
    if not finite.all():
        bad = int(np.nonzero(~finite)[0][0])
        where = f"parameter index {bad}"
        if blocks:
            for name, sl in blocks:
                if sl.start <= bad < sl.stop:
                    where = f"parameter block '{name}' (flat index {bad})"
                    break
        raise NumericError(f"non-finite gradient in {where}")
    t = state.step + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * grad * grad
    m_hat = m / (1.0 - cfg.beta1 ** t)
    v_hat = v / (1.0 - cfg.beta2 ** t)
    theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    return AdamState(m=m, v=v, step=t)


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: np.ndarray  # (K, K) counts, rows = true class, cols = predicted
    precision: np.ndarray  # (K,) per class, the macro scores are their means
    recall: np.ndarray  # (K,)
    f1: np.ndarray  # (K,)

    @property
    def support(self) -> np.ndarray:
        """(K,) true windows per class."""
        return self.confusion.sum(axis=1)


METRIC_FIELDS = ("accuracy", "macro_precision", "macro_recall", "macro_f1")


def confusion_matrix(labels, predictions, num_classes: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64)
    p = np.asarray(predictions, dtype=np.int64)
    if y.shape != p.shape or y.ndim != 1:
        raise DataError(f"labels {y.shape} and predictions {p.shape} must be equal 1-D")
    if y.size == 0:
        raise DataError("cannot evaluate zero windows")
    for arr, kind in ((y, "label"), (p, "prediction")):
        bad = np.nonzero((arr < 0) | (arr >= num_classes))[0]
        if bad.size:
            raise DataError(
                f"{kind} {int(arr[bad[0]])} at sample {int(bad[0])} is outside "
                f"[0, {num_classes - 1}]"
            )
    c = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(c, (y, p), 1)
    return c


def metrics_from_confusion(c: np.ndarray) -> EvalMetrics:
    """Macro scores with the 0-when-undefined convention per class.

    precision_k and recall_k are 0 when their denominators are 0, and F1_k
    is 0 when P_k + R_k = 0, so a class absent from both truth and
    predictions drags macro scores down rather than being skipped.
    """
    c = np.asarray(c)
    diag = np.diag(c).astype(np.float64)
    col = c.sum(axis=0).astype(np.float64)
    row = c.sum(axis=1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(col > 0, diag / np.where(col > 0, col, 1.0), 0.0)
        recall = np.where(row > 0, diag / np.where(row > 0, row, 1.0), 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    return EvalMetrics(
        accuracy=float(diag.sum() / c.sum()),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        confusion=c,
        precision=precision,
        recall=recall,
        f1=f1,
    )


def effective_graph(graph: MetricGraph, cfg: TrainConfig) -> MetricGraph:
    """The propagation operator the run actually uses: the built graph, or an
    edgeless stand-in when graph propagation is ablated away."""
    return graph if cfg.graph_propagation else identity_graph(graph.dim)


def _check_labeled(data: Dataset, what: str) -> np.ndarray:
    if not len(data):
        raise DataError(f"{what} set is empty")
    unlabeled = np.flatnonzero(data.labels < 0)
    if unlabeled.size:
        raise DataError(f"{what} window {int(unlabeled[0])} has no label")
    return data.labels


# Windows per forward pass when scoring. One pass over a whole dataset would
# keep every window's intermediates alive at once, about 25 kB per window;
# stacks of 64 score as fast per window as larger ones.
SCORE_CHUNK = 64


def score(params: ModelParams, graph: MetricGraph, data: Dataset) -> Prediction:
    """Logits and labels of every window, SCORE_CHUNK windows per pass."""
    x = data.values
    logits = [forward(x[i : i + SCORE_CHUNK], graph, params)[0].logits
              for i in range(0, len(x), SCORE_CHUNK)]
    return predict(np.concatenate(logits))


def evaluate(params: ModelParams, graph: MetricGraph, data: Dataset) -> EvalMetrics:
    labels = _check_labeled(data, "evaluation")
    preds = score(params, graph, data).label
    return metrics_from_confusion(confusion_matrix(labels, preds, params.cfg.num_classes))


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    task_losses: np.ndarray  # (K,) epoch-mean per task
    weights: np.ndarray  # (K,) weights in effect during this epoch
    combined_loss: float
    val: EvalMetrics


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1


def train(
    train_data: Dataset,
    val_data: Dataset,
    graph: MetricGraph,
    cfg: TrainConfig,
    model_cfg: ModelConfig,
) -> tuple[ModelParams, TrainHistory]:
    """Optimize the multitask objective; returns best-validation parameters.

    Splits arrive already normalized and the graph already built from the
    training split alone; this function never touches raw statistics.
    """
    train_labels = _check_labeled(train_data, "training")
    _check_labeled(val_data, "validation")
    g = effective_graph(graph, cfg)
    if g.dim != train_data.metric_count:
        raise ConfigError(
            f"graph covers {g.dim} metrics, windows carry {train_data.metric_count}"
        )
    rng = RngStream(cfg.seed)
    params = init_params(model_cfg, rng.substream(0))
    blocks = ModelParams.block_slices(model_cfg)
    grads = ModelParams.zeros(model_cfg)  # every batch's backward overwrites it
    adam = AdamState.zeros(params.flat.size)
    state = TaskWeightState.initial(model_cfg.num_classes, cfg.dwa_temperature)
    history = TrainHistory()
    best_params = params.copy()
    best_f1 = -1.0
    n = len(train_data)

    for epoch in range(cfg.max_epochs):
        order = np.arange(n)
        rng.substream(1 + epoch).generator().shuffle(order)
        loss_sum = np.zeros(model_cfg.num_classes)
        for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
            batch = order[start : start + cfg.batch_size]
            pred, cache = forward(train_data.values[batch], g, params)
            batch_losses, dlogits = task_losses(pred.logits, train_labels[batch])
            combined = combine(batch_losses, state)
            if not np.isfinite(combined):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch}, batch {batch_index}"
                )
            backward(cache, combine_grads(dlogits, state), grads)
            adam = adam_step(params.flat, grads.flat, adam, cfg, blocks)
            loss_sum += batch_losses * batch.size
        epoch_losses = loss_sum / n
        val_metrics = evaluate(params, g, val_data)
        history.records.append(
            EpochRecord(
                epoch=epoch,
                task_losses=epoch_losses,
                weights=state.weights.copy(),
                combined_loss=combine(epoch_losses, state),
                val=val_metrics,
            )
        )
        if cfg.adaptive_weights:
            state = update_weights(state, epoch_losses)
        if val_metrics.macro_f1 > best_f1:
            best_f1 = val_metrics.macro_f1
            best_params = params.copy()
            history.best_epoch = epoch
        elif epoch - history.best_epoch >= cfg.patience:
            break
    return best_params, history


def write_history_csv(history: TrainHistory, path: str | Path) -> None:
    """One row per epoch; floats via repr so identical runs write identical bytes."""
    path = Path(path)
    k = len(history.records[0].task_losses) if history.records else len(CLASS_NAMES)
    names = CLASS_NAMES if k == len(CLASS_NAMES) else tuple(f"task{i}" for i in range(k))
    header = (
        ["epoch"]
        + [f"loss_{c}" for c in names]
        + [f"weight_{c}" for c in names]
        + ["combined_loss"]
        + [f"val_{m}" for m in METRIC_FIELDS]
    )
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in history.records:
            row = [rec.epoch]
            row += [repr(float(x)) for x in rec.task_losses]
            row += [repr(float(x)) for x in rec.weights]
            row.append(repr(float(rec.combined_loss)))
            row += [repr(float(getattr(rec.val, m))) for m in METRIC_FIELDS]
            writer.writerow(row)
