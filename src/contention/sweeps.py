"""Sensitivity harnesses: batch size, training-set size, metric dimensionality.

Each sweep trains a fresh model per (setting, seed) cell and reports the
mean and standard deviation of the four test metrics per setting. Trend
shapes are recorded for inspection, never asserted: they are dataset
properties, not contracts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from contention.data import ScenarioConfig, generate, stratified_shuffle
from contention.errors import ConfigError
from contention.graph import DEFAULT_CORR_THRESHOLD
from contention.model import ModelConfig
from contention.pipeline import DEFAULT_SPLIT, RunResult, prepare, run_prepared, run_synthetic
from contention.rng import RngStream
from contention.train import METRIC_FIELDS, EvalMetrics, TrainConfig

BATCH_SIZES = (16, 32, 64, 128)
DATA_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
METRIC_DIMS = (8, 12, 16, 24)
DEFAULT_SWEEP_SEEDS = (0, 1, 2)


@dataclass(frozen=True)
class SweepSpec:
    """Base experiment shared by every cell of a sweep."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    n_windows: int = 1000
    model_cfg: ModelConfig = field(default_factory=ModelConfig)
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    fractions: tuple[float, float, float] = DEFAULT_SPLIT
    corr_threshold: float = DEFAULT_CORR_THRESHOLD


@dataclass
class SweepRow:
    setting: float
    per_seed: list[EvalMetrics]

    def mean(self, metric: str) -> float:
        return float(np.mean([getattr(m, metric) for m in self.per_seed]))

    def std(self, metric: str) -> float:
        return float(np.std([getattr(m, metric) for m in self.per_seed]))


@dataclass
class SweepTable:
    kind: str
    setting_name: str
    seeds: tuple[int, ...]
    rows: list[SweepRow]


def _cell(spec: SweepSpec, train_cfg: TrainConfig, seed: int) -> RunResult:
    return run_synthetic(
        spec.scenario,
        spec.n_windows,
        spec.model_cfg,
        train_cfg,
        data_seed=seed,
        fractions=spec.fractions,
        corr_threshold=spec.corr_threshold,
    )


def sweep_batch(
    spec: SweepSpec,
    sizes: tuple[int, ...] = BATCH_SIZES,
    seeds: tuple[int, ...] = DEFAULT_SWEEP_SEEDS,
) -> SweepTable:
    rows = []
    for size in sizes:
        per_seed = [
            _cell(spec, replace(spec.train_cfg, batch_size=size, seed=seed), seed).test_metrics
            for seed in seeds
        ]
        rows.append(SweepRow(setting=float(size), per_seed=per_seed))
    return SweepTable(kind="batch", setting_name="batch_size", seeds=tuple(seeds), rows=rows)


def subsample_stratified(labels: np.ndarray, fraction: float, rng: RngStream) -> np.ndarray:
    """Seeded per-class subsample of windows by their labels, as ascending indices.

    Each class contributes round(fraction * count) windows (at least one),
    chosen by a seeded shuffle; the survivors keep their original relative
    order, so fraction 1.0 selects every window.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"train fraction must lie in (0, 1], got {fraction}")
    keep = [idx[: max(1, int(np.floor(fraction * idx.size + 0.5)))]
            for idx in stratified_shuffle(labels, rng)]
    return np.sort(np.concatenate(keep))


def sweep_datasize(
    spec: SweepSpec,
    fractions: tuple[float, ...] = DATA_FRACTIONS,
    seeds: tuple[int, ...] = DEFAULT_SWEEP_SEEDS,
) -> SweepTable:
    """Vary only the training split size; validation and test stay fixed."""
    prepared_by_seed = {}
    for seed in seeds:
        rng = RngStream(seed)
        data = generate(spec.scenario, spec.n_windows, rng.substream(0))
        prepared_by_seed[seed] = prepare(
            data, spec.fractions, spec.corr_threshold, rng.substream(1)
        )
    rows = []
    for fraction in fractions:
        per_seed = []
        for seed in seeds:
            prepared = prepared_by_seed[seed]
            keep = subsample_stratified(
                prepared.train.labels, fraction, RngStream(seed).substream(2)
            )
            trimmed = replace(prepared, train=prepared.train.subset(keep))
            result = run_prepared(trimmed, spec.model_cfg, replace(spec.train_cfg, seed=seed))
            per_seed.append(result.test_metrics)
        rows.append(SweepRow(setting=float(fraction), per_seed=per_seed))
    return SweepTable(
        kind="datasize", setting_name="train_fraction", seeds=tuple(seeds), rows=rows
    )


def sweep_dim(
    spec: SweepSpec,
    dims: tuple[int, ...] = METRIC_DIMS,
    seeds: tuple[int, ...] = DEFAULT_SWEEP_SEEDS,
) -> SweepTable:
    """Regenerate data per metric count; the model config never changes,
    exercising the D-independence of the parameterization."""
    rows = []
    for dim in dims:
        scenario = replace(spec.scenario, metric_count=dim, groups=None)
        per_seed = []
        for seed in seeds:
            sub_spec = replace(spec, scenario=scenario)
            per_seed.append(
                _cell(sub_spec, replace(spec.train_cfg, seed=seed), seed).test_metrics
            )
        rows.append(SweepRow(setting=float(dim), per_seed=per_seed))
    return SweepTable(kind="dim", setting_name="metric_count", seeds=tuple(seeds), rows=rows)


def write_sweep_csv(table: SweepTable, path: str | Path) -> None:
    header = [table.setting_name, "n_seeds"]
    for metric in METRIC_FIELDS:
        header += [f"mean_{metric}", f"std_{metric}"]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in table.rows:
            out = [repr(row.setting), len(row.per_seed)]
            for metric in METRIC_FIELDS:
                out += [repr(row.mean(metric)), repr(row.std(metric))]
            writer.writerow(out)
