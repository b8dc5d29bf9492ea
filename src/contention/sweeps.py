"""Sweeps over one run config: batch size, training-set size, metric count, ablation arm.

Each sweep trains a fresh model per (setting, seed) cell, the seed driving
both data and training so that one seed's cells are paired, and reports the
mean and standard deviation of the four test metrics per setting. Trend
shapes are recorded for inspection, never asserted: they are dataset
properties, not contracts.

Every cell trains through `run_prepared`. The batch, datasize and ablation
sweeps prepare each seed's data once: a batch cell sets its batch size, a
datasize cell trims its training split, the no-propagation arm replaces its
graph with the identity graph, and the static-weights arm turns task
weighting off. The dim sweep prepares new data for each (dim, seed) cell.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from contention.config import RunConfig
from contention.data import stratified_shuffle
from contention.errors import ConfigError
from contention.graph import identity_graph
from contention.pipeline import PreparedData, RunResult, prepare_synthetic, run_prepared
from contention.rng import RngStream
from contention.train import METRIC_FIELDS, EvalMetrics, csv_text

BATCH_SIZES = (16, 32, 64, 128)
DATA_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
METRIC_DIMS = (8, 12, 16, 24)
DEFAULT_SWEEP_SEEDS = (0, 1, 2)
# the two mechanisms the paper credits, each switched off on its own
ABLATION_ARMS = ("full", "no-propagation", "static-weights")


@dataclass
class SweepRow:
    """One setting of a sweep and its test metrics, one per seed."""

    setting: float | str  # an arm name in the ablation sweep
    per_seed: list[EvalMetrics]

    @property
    def label(self) -> str:
        return self.setting if isinstance(self.setting, str) else f"{self.setting:g}"

    def mean(self, metric: str) -> float:
        return float(np.mean([getattr(m, metric) for m in self.per_seed]))

    def std(self, metric: str) -> float:
        return float(np.std([getattr(m, metric) for m in self.per_seed]))


@dataclass
class SweepTable:
    """A sweep: one row per setting, each over the same seeds."""

    kind: str
    setting_name: str
    seeds: tuple[int, ...]
    rows: list[SweepRow]


def _grid(kind: str, setting_name: str, settings: Sequence, seeds: Sequence[int],
          cell: Callable[..., RunResult]) -> SweepTable:
    """One row per setting, one cell(setting, seed) run per seed in it."""
    seeds = tuple(seeds)
    rows = [SweepRow(setting if isinstance(setting, str) else float(setting),
                     [cell(setting, seed).test_metrics for seed in seeds])
            for setting in settings]
    return SweepTable(kind=kind, setting_name=setting_name, seeds=seeds, rows=rows)


def _prepare_seeds(cfg: RunConfig, seeds: Sequence[int]) -> dict[int, PreparedData]:
    """Each seed's synthetic data at cfg, prepared as gen then train at that seed prepare it."""
    return {seed: prepare_synthetic(cfg.scenario, cfg.n_windows, seed) for seed in seeds}


def sweep_batch(cfg: RunConfig, sizes: Sequence[int] = BATCH_SIZES,
                seeds: Sequence[int] = DEFAULT_SWEEP_SEEDS) -> SweepTable:
    prepared = _prepare_seeds(cfg, seeds)
    return _grid("batch", "batch_size", sizes, seeds, lambda size, seed: run_prepared(
        prepared[seed], cfg.model, replace(cfg.train, seed=seed, batch_size=size)))


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


def sweep_datasize(cfg: RunConfig, fractions: Sequence[float] = DATA_FRACTIONS,
                   seeds: Sequence[int] = DEFAULT_SWEEP_SEEDS) -> SweepTable:
    """Vary only the training split size; validation and test stay fixed."""
    prepared = _prepare_seeds(cfg, seeds)

    def cell(fraction: float, seed: int) -> RunResult:
        full = prepared[seed]
        keep = subsample_stratified(full.train.labels, fraction, RngStream(seed).substream(2))
        trimmed = replace(full, train=full.train.subset(keep))
        return run_prepared(trimmed, cfg.model, replace(cfg.train, seed=seed))

    return _grid("datasize", "train_fraction", fractions, seeds, cell)


def sweep_dim(cfg: RunConfig, dims: Sequence[int] = METRIC_DIMS,
              seeds: Sequence[int] = DEFAULT_SWEEP_SEEDS) -> SweepTable:
    """Regenerate data per metric count; the model config never changes,
    exercising the D-independence of the parameterization."""
    def cell(dim: int, seed: int) -> RunResult:
        data = prepare_synthetic(replace(cfg.scenario, metric_count=dim), cfg.n_windows, seed)
        return run_prepared(data, cfg.model, replace(cfg.train, seed=seed))

    return _grid("dim", "metric_count", dims, seeds, cell)


def sweep_ablation(cfg: RunConfig, arms: Sequence[str] = ABLATION_ARMS,
                   seeds: Sequence[int] = DEFAULT_SWEEP_SEEDS) -> SweepTable:
    """Train each named arm of ABLATION_ARMS on every seed's data split and initialization."""
    unknown = [arm for arm in arms if arm not in ABLATION_ARMS]
    if unknown:
        raise ConfigError(f"unknown ablation arm {unknown[0]!r}, expected one of {ABLATION_ARMS}")
    prepared = _prepare_seeds(cfg, seeds)

    def cell(arm: str, seed: int) -> RunResult:
        data = prepared[seed]
        if arm == "no-propagation":
            data = replace(data, graph=identity_graph(data.graph.dim))
        train_cfg = replace(cfg.train, seed=seed, adaptive_weights=arm != "static-weights")
        return run_prepared(data, cfg.model, train_cfg)

    return _grid("ablation", "arm", arms, seeds, cell)


SWEEPS = {"batch": sweep_batch, "datasize": sweep_datasize, "dim": sweep_dim,
          "ablation": sweep_ablation}


def write_sweep_csv(table: SweepTable, path: str | Path) -> None:
    header = [table.setting_name, "n_seeds",
              *(f"{stat}_{m}" for m in METRIC_FIELDS for stat in ("mean", "std"))]
    rows = [[str(row.setting), str(len(row.per_seed))]  # str of a float is its repr
            + [repr(stat(m)) for m in METRIC_FIELDS for stat in (row.mean, row.std)]
            for row in table.rows]
    Path(path).write_text(csv_text([header, *rows]))
