"""End-to-end glue: a dataset in, trained model and test metrics out.

One path, for `contention train` and every sweep cell: split_parts, then
prepare, then run_prepared. It keeps the leakage rules in one place:
normalization statistics and the metric graph both come from the training
split only, and the validation and test splits are transformed with those
frozen artifacts.

It also keeps the memory near one copy of the dataset: split_parts gathers
the three parts from the dataset file a block at a time (`contention train`)
or from the generated array (sweeps), and prepare normalizes the parts in
place and reduces the train part a block of rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from contention.data import (
    Dataset,
    NormStats,
    ScenarioConfig,
    fit_norm,
    generate,
    norm_in_place,
    read_parts,
    split,
)
from contention.graph import MetricGraph, build_graph, pearson_matrix
from contention.model import ModelConfig, ModelParams
from contention.rng import RngStream
from contention.train import EvalMetrics, TrainConfig, TrainHistory, check_labeled, evaluate, train


@dataclass
class PreparedData:
    """Three normalized parts, with the statistics and graph fitted on the train part."""

    train: Dataset
    val: Dataset
    test: Dataset
    norm: NormStats
    graph: MetricGraph


def split_parts(source: Dataset | str | Path,
                split_rng: RngStream) -> tuple[Dataset, Dataset, Dataset]:
    """The train, val and test parts of a stratified split of a Dataset, or of
    the dataset file at a path, each gathered into a new array. The labels are
    checked (a window without one is named by its index in the set) and split
    first: a file's come from its manifest, before any value is read
    (`read_parts`), so the whole set never exists in memory. A Dataset is not
    written, and one no caller keeps is freed on return."""
    def part_index(labels):
        return split(check_labeled(labels, "training"), split_rng)

    if isinstance(source, Dataset):
        return tuple(source.subset(part) for part in part_index(source.labels))
    return tuple(read_parts(source, part_index))


def prepare(train_d: Dataset, val_d: Dataset, test_d: Dataset) -> PreparedData:
    """Normalize the parts with the train part's statistics and build the graph
    from the normalized train part. Writes its parts, in place: pass arrays no
    one else holds, such as split_parts returns."""
    norm = fit_norm(train_d)
    train_d, val_d, test_d = (norm_in_place(d, norm) for d in (train_d, val_d, test_d))
    graph = build_graph(pearson_matrix(train_d))
    return PreparedData(train=train_d, val=val_d, test=test_d, norm=norm, graph=graph)


@dataclass
class RunResult:
    """A trained model, its history, its scores on val and test, and the data it ran on."""

    params: ModelParams
    history: TrainHistory
    val_metrics: EvalMetrics
    test_metrics: EvalMetrics
    prepared: PreparedData


def prepare_synthetic(scenario: ScenarioConfig, n_windows: int, data_seed: int) -> PreparedData:
    """Generate and prepare one synthetic dataset, as `contention gen` then
    `contention train` do at seed data_seed: substream 0 drives generation
    and substream 1 the split."""
    rng = RngStream(data_seed)
    return prepare(*split_parts(generate(scenario, n_windows, rng.substream(0)),
                                rng.substream(1)))


def run_prepared(
    prepared: PreparedData, model_cfg: ModelConfig, train_cfg: TrainConfig
) -> RunResult:
    """Train, keep the best epoch on val and score test; train_cfg.seed drives
    initialization and batch order, apart from the data seed."""
    params, history = train(prepared.train, prepared.val, prepared.graph, train_cfg, model_cfg)
    return RunResult(
        params=params,
        history=history,
        val_metrics=history.records[history.best_epoch].val,
        test_metrics=evaluate(params, prepared.graph, prepared.test),
        prepared=prepared,
    )
