"""End-to-end glue: a dataset in, trained model and test metrics out.

Keeps the leakage rules in one place: normalization statistics and the
metric graph both come from the training split only, and the validation and
test splits are transformed with those frozen artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from contention.data import (
    Dataset,
    NormStats,
    ScenarioConfig,
    apply_norm,
    fit_norm,
    generate,
    split,
)
from contention.graph import DEFAULT_CORR_THRESHOLD, MetricGraph, build_graph, pearson_matrix
from contention.model import ModelConfig, ModelParams
from contention.rng import RngStream
from contention.train import (
    EvalMetrics,
    TrainConfig,
    TrainHistory,
    effective_graph,
    evaluate,
    train,
)

DEFAULT_SPLIT = (0.7, 0.15, 0.15)


@dataclass
class PreparedData:
    train: Dataset
    val: Dataset
    test: Dataset
    norm: NormStats
    graph: MetricGraph


def prepare(
    data: Dataset,
    fractions: tuple[float, float, float],
    corr_threshold: float,
    split_rng: RngStream,
) -> PreparedData:
    """Split, normalize, and build the metric graph from the train split."""
    return prepare_parts(data, split(data.labels, fractions, split_rng), corr_threshold)


def prepare_parts(
    data: Dataset,
    parts: tuple[np.ndarray, np.ndarray, np.ndarray],
    corr_threshold: float,
) -> PreparedData:
    """Normalize the train, val and test windows at the given indices of `data`
    and build the graph from the train part.

    Each part is gathered and then normalized, and its raw copy dropped
    before the next step, so at most one raw part is alive at a time.
    """
    train_i, val_i, test_i = parts
    train_d = data.subset(train_i)
    norm = fit_norm(train_d)
    train_d = apply_norm(train_d, norm)
    graph = build_graph(pearson_matrix(train_d), corr_threshold)
    return PreparedData(
        train=train_d,
        val=apply_norm(data.subset(val_i), norm),
        test=apply_norm(data.subset(test_i), norm),
        norm=norm,
        graph=graph,
    )


@dataclass
class RunResult:
    params: ModelParams
    history: TrainHistory
    val_metrics: EvalMetrics
    test_metrics: EvalMetrics
    prepared: PreparedData
    graph_used: MetricGraph  # identity when propagation is ablated off


def run_synthetic(
    scenario: ScenarioConfig,
    n_windows: int,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    data_seed: int,
    fractions: tuple[float, float, float] = DEFAULT_SPLIT,
    corr_threshold: float = DEFAULT_CORR_THRESHOLD,
) -> RunResult:
    """Generate, prepare, train, and score one synthetic experiment.

    data_seed drives generation and splitting through separate substreams;
    train_cfg.seed independently drives initialization and batch order, so
    data and optimization randomness can be varied apart.
    """
    rng = RngStream(data_seed)
    data = generate(scenario, n_windows, rng.substream(0))
    prepared = prepare(data, fractions, corr_threshold, rng.substream(1))
    return run_prepared(prepared, model_cfg, train_cfg)


def run_prepared(
    prepared: PreparedData, model_cfg: ModelConfig, train_cfg: TrainConfig
) -> RunResult:
    params, history = train(prepared.train, prepared.val, prepared.graph, train_cfg, model_cfg)
    g = effective_graph(prepared.graph, train_cfg)
    return RunResult(
        params=params,
        history=history,
        val_metrics=history.records[history.best_epoch].val,
        test_metrics=evaluate(params, g, prepared.test),
        prepared=prepared,
        graph_used=g,
    )
