"""Mini-batch training with Adam and adaptive task weights, plus evaluation.

The loop is deliberately plain: per epoch, a seeded shuffle fixes the batch
membership, each batch runs as one stacked forward/backward pass whose
gradient is summed over its windows, and one Adam step applies per batch.
The objective is `weights @ task_losses`, all ones until two epochs have
completed and then, with adaptive weighting on, `update_weights` of the last
two epochs' mean task losses. The learning rate is a setting; Adam's other
constants and the DWA temperature are fixed. The run propagates over the
graph it is given (the no-propagation ablation gives it the identity graph).
Initialization and shuffles draw from the seed's training streams (see the
stream map in rng.py). Evaluation scores windows in stacks of SCORE_CHUNK,
which data.py owns, since its block reader cuts blocks at multiples of it.
Given the same config and seed the whole trajectory is bit-reproducible,
which the acceptance suite checks at the file level.

Model selection returns the parameters from the epoch with the best
validation macro-F1 (earliest on ties); training stops early once that best
epoch is `patience` epochs behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from contention.data import CLASS_NAMES, NUM_CLASSES, SCORE_CHUNK, Dataset
from contention.errors import ConfigError, DataError, NumericError
from contention.graph import MetricGraph
from contention.losses import task_losses, update_weights
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
# Kingma & Ba's defaults for the moment decays and the denominator's epsilon
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Liu, Johns & Davison's (2019) softmax temperature for Dynamic Weight Average
DWA_TEMPERATURE = 2.0


@dataclass(frozen=True)
class TrainConfig:
    """The settings of a training run."""

    batch_size: int = 64
    max_epochs: int = 50
    learning_rate: float = 1e-3
    patience: int = 10  # epochs since the best validation macro-F1
    seed: int = 0
    adaptive_weights: bool = True  # off = static all-ones task weights

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


@dataclass(eq=False)
class AdamState:
    """Adam's two moment estimates and the count of steps taken."""

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
    layout: list[tuple[str, tuple[int, ...], slice]] | None = None,
) -> AdamState:
    """One bias-corrected Adam update, applied in place to the flat parameter vector.

    The new moments and the step are built in fresh arrays with in-place
    operations, in the order of the textbook expressions, so the bits match
    them; `state` is never written. A non-finite gradient aborts training;
    given the `ModelParams.layout` of theta, the error names the parameter
    block that went bad instead of a bare index.
    """
    if theta.shape != grad.shape:
        raise ConfigError(f"theta shape {theta.shape} != grad shape {grad.shape}")
    finite = np.isfinite(grad)
    if not finite.all():
        bad = int(np.nonzero(~finite)[0][0])
        block = [name for name, _, sl in layout or () if sl.start <= bad < sl.stop]
        where = (f"parameter block '{block[0]}' (flat index {bad})" if block
                 else f"parameter index {bad}")
        raise NumericError(f"non-finite gradient in {where}")
    t = state.step + 1
    scratch = np.multiply(grad, 1.0 - BETA1)
    m = np.multiply(state.m, BETA1)
    m += scratch  # BETA1 * m + (1 - BETA1) * g
    np.multiply(grad, 1.0 - BETA2, out=scratch)
    scratch *= grad
    v = np.multiply(state.v, BETA2)
    v += scratch  # BETA2 * v + ((1 - BETA2) * g) * g
    np.divide(v, 1.0 - BETA2 ** t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS  # sqrt(v_hat) + eps
    step = np.divide(m, 1.0 - BETA1 ** t)
    step *= cfg.learning_rate
    step /= scratch  # (lr * m_hat) / (sqrt(v_hat) + eps)
    theta -= step
    return AdamState(m=m, v=v, step=t)


@dataclass(frozen=True, eq=False)
class EvalMetrics:
    """Accuracy, macro and per-class scores, and the confusion matrix they come from."""

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


def check_labeled(labels: np.ndarray, what: str) -> np.ndarray:
    """labels, once checked to name at least one window and a class for each."""
    if not labels.size:
        raise DataError(f"{what} set is empty")
    unlabeled = np.flatnonzero(labels < 0)
    if unlabeled.size:
        raise DataError(f"{what} window {int(unlabeled[0])} has no label")
    return labels


def score(params: ModelParams, graph: MetricGraph, data: Dataset) -> Prediction:
    """Logits and labels of every window, SCORE_CHUNK windows per pass."""
    x = data.values
    logits = [forward(x[i : i + SCORE_CHUNK], graph, params)[0].logits
              for i in range(0, len(x), SCORE_CHUNK)]
    return predict(np.concatenate(logits))


def evaluate(params: ModelParams, graph: MetricGraph, data: Dataset) -> EvalMetrics:
    labels = check_labeled(data.labels, "evaluation")
    preds = score(params, graph, data).label
    return metrics_from_confusion(confusion_matrix(labels, preds, NUM_CLASSES))


@dataclass(frozen=True, eq=False)
class EpochRecord:
    """One epoch of training: its mean task losses, the weights it ran with and val's scores."""

    epoch: int
    task_losses: np.ndarray  # (K,) epoch-mean per task
    weights: np.ndarray  # (K,) weights in effect during this epoch
    combined_loss: float
    val: EvalMetrics


@dataclass
class TrainHistory:
    """Every epoch run, and the one whose parameters train returns."""

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
    train_labels = check_labeled(train_data.labels, "training")
    check_labeled(val_data.labels, "validation")
    if graph.dim != train_data.metric_count:
        raise ConfigError(
            f"graph covers {graph.dim} metrics, windows carry {train_data.metric_count}"
        )
    rng = RngStream(cfg.seed, (3,))  # training's own prefix in rng.py's stream map
    params = init_params(model_cfg, train_data.window_len, rng.substream(0))  # T from the data
    layout = ModelParams.layout(model_cfg, params.window_len)
    grads = ModelParams.zeros(model_cfg, params.window_len)  # every batch's backward overwrites it
    adam = AdamState.zeros(params.flat.size)
    weights = np.ones(NUM_CLASSES)  # rebound each epoch, never written in place
    previous = None  # the last epoch's mean task losses
    history = TrainHistory()
    best_params = params.copy()
    best_f1 = -1.0
    n = len(train_data)

    for epoch in range(cfg.max_epochs):
        order = np.arange(n)
        rng.substream(1 + epoch).generator().shuffle(order)
        loss_sum = np.zeros(NUM_CLASSES)
        for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
            batch = order[start : start + cfg.batch_size]
            pred, cache = forward(train_data.values[batch], graph, params)
            batch_losses, dlogits = task_losses(pred.logits, train_labels[batch])
            if not np.isfinite(np.dot(weights, batch_losses)):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch}, batch {batch_index}"
                )
            backward(cache, dlogits * weights, grads)
            adam = adam_step(params.flat, grads.flat, adam, cfg, layout)
            loss_sum += batch_losses * batch.size
        epoch_losses = loss_sum / n
        val_metrics = evaluate(params, graph, val_data)
        history.records.append(
            EpochRecord(
                epoch=epoch,
                task_losses=epoch_losses,
                weights=weights,
                combined_loss=float(np.dot(weights, epoch_losses)),
                val=val_metrics,
            )
        )
        if cfg.adaptive_weights and previous is not None:
            weights = update_weights(previous, epoch_losses, DWA_TEMPERATURE)
        previous = epoch_losses
        if val_metrics.macro_f1 > best_f1:
            best_f1 = val_metrics.macro_f1
            best_params = params.copy()
            history.best_epoch = epoch
        elif epoch - history.best_epoch >= cfg.patience:
            break
    return best_params, history


def csv_text(rows) -> str:
    """Rows of string cells as CSV text, each line ended by LF. Callers pass repr of a Python
    float, its shortest round-trip string, and str of an int."""
    return "".join(",".join(row) + "\n" for row in rows)


def write_history_csv(history: TrainHistory, path: str | Path) -> None:
    """One row per epoch."""
    header = ["epoch", *(f"loss_{c}" for c in CLASS_NAMES), *(f"weight_{c}" for c in CLASS_NAMES),
              "combined_loss", *(f"val_{m}" for m in METRIC_FIELDS)]
    rows = [
        [str(rec.epoch)]
        + [repr(float(x)) for x in (*rec.task_losses, *rec.weights, rec.combined_loss)]
        + [repr(float(getattr(rec.val, m))) for m in METRIC_FIELDS]
        for rec in history.records
    ]
    Path(path).write_text(csv_text([header, *rows]))
