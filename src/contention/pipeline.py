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
    fit_norm,
    generate,
    norm_in_place,
    split,
)
from contention.graph import DEFAULT_CORR_THRESHOLD, MetricGraph, build_graph, pearson_matrix
from contention.model import ModelConfig, ModelParams
from contention.rng import RngStream
from contention.train import EvalMetrics, TrainConfig, TrainHistory, evaluate, train

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
    """Normalize the train, val and test windows at the given index arrays of
    `data` and build the graph from the train part. `data` is not written.

    The three parts are gathered into new arrays and normalized in place, so
    `data` and one copy of its windows are alive, plus one temporary of the
    train part's size while the statistics and the graph are computed.
    """
    return prepare_gathered(*(data.subset(i) for i in parts), corr_threshold)


def prepare_gathered(
    train_d: Dataset, val_d: Dataset, test_d: Dataset, corr_threshold: float
) -> PreparedData:
    """Normalize the train, val and test parts in place with statistics of the
    train part, and build the graph from the normalized train part.

    Each part's values are written, so each must be an array no one else
    holds, such as the new one Dataset.subset gathers.
    """
    norm = fit_norm(train_d)
    train_d, val_d, test_d = (norm_in_place(d, norm) for d in (train_d, val_d, test_d))
    graph = build_graph(pearson_matrix(train_d), corr_threshold)
    return PreparedData(train=train_d, val=val_d, test=test_d, norm=norm, graph=graph)


@dataclass
class RunResult:
    params: ModelParams
    history: TrainHistory
    val_metrics: EvalMetrics
    test_metrics: EvalMetrics
    prepared: PreparedData


def prepare_synthetic(scenario: ScenarioConfig, n_windows: int, data_seed: int,
                      fractions: tuple[float, float, float], corr_threshold: float) -> PreparedData:
    """Generate and prepare one synthetic dataset; data_seed drives generation
    and splitting through separate substreams."""
    rng = RngStream(data_seed)
    data = generate(scenario, n_windows, rng.substream(0))
    return prepare(data, fractions, corr_threshold, rng.substream(1))


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

    train_cfg.seed drives initialization and batch order independently of
    data_seed, so data and optimization randomness can be varied apart.
    """
    prepared = prepare_synthetic(scenario, n_windows, data_seed, fractions, corr_threshold)
    return run_prepared(prepared, model_cfg, train_cfg)


def run_prepared(
    prepared: PreparedData, model_cfg: ModelConfig, train_cfg: TrainConfig
) -> RunResult:
    params, history = train(prepared.train, prepared.val, prepared.graph, train_cfg, model_cfg)
    return RunResult(
        params=params,
        history=history,
        val_metrics=history.records[history.best_epoch].val,
        test_metrics=evaluate(params, prepared.graph, prepared.test),
        prepared=prepared,
    )
