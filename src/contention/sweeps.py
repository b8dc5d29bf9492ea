"""Sweeps over one run config: batch size, training-set size, metric count, ablation arm.

Each sweep trains a fresh model per (setting, seed) cell, the seed driving both data and
training so that one seed's cells are paired, and keeps each cell's four test metrics and
the epochs it trained. Trend shapes are recorded for inspection, never asserted.

Every cell trains through `run_prepared`. The batch, datasize and ablation sweeps prepare
each seed's data once, and an ablation cell runs its arm's row of `ARMS` with adaptive
weights on. The dim sweep prepares new data for each (dim, seed) cell.
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
from contention.model import ModelConfig
from contention.pipeline import PreparedData, RunResult, prepare_synthetic, run_prepared
from contention.rng import RngStream
from contention.train import METRIC_FIELDS, EvalMetrics, TrainConfig, csv_text

BATCH_SIZES = (16, 32, 64, 128)
DATA_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
METRIC_DIMS = (8, 12, 16, 24)
DEFAULT_SWEEP_SEEDS = (0, 1, 2)
# an ablation arm's cell from the seed's prepared data, the model config and the cell's train
# config, adaptive weights on; each arm after `full` switches off one mechanism the paper credits
ARMS: dict[str, Callable[[PreparedData, ModelConfig, TrainConfig], RunResult]] = {
    "full": lambda data, model_cfg, train_cfg: run_prepared(data, model_cfg, train_cfg),
    "no-propagation": lambda data, model_cfg, train_cfg: run_prepared(
        replace(data, graph=identity_graph(data.graph.dim)), model_cfg, train_cfg),
    "static-weights": lambda data, model_cfg, train_cfg: run_prepared(
        data, model_cfg, replace(train_cfg, adaptive_weights=False)),
}
ABLATION_ARMS = tuple(ARMS)


@dataclass
class SweepRow:
    """One setting of a sweep and, per seed, its test metrics and the epochs it trained."""

    setting: float | str  # an arm name in the ablation sweep
    per_seed: list[EvalMetrics]
    epochs_run: list[int]

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
    def kept(result: RunResult) -> tuple[EvalMetrics, int]:  # a dim cell's data goes with it
        return result.test_metrics, len(result.history.records)

    seeds = tuple(seeds)
    rows = []
    for setting in settings:  # each cell's RunResult goes before the next cell runs
        runs = [kept(cell(setting, seed)) for seed in seeds]
        rows.append(SweepRow(setting if isinstance(setting, str) else float(setting),
                             [m for m, _ in runs], [epochs for _, epochs in runs]))
    return SweepTable(kind=kind, setting_name=setting_name, seeds=seeds, rows=rows)


def _seeded_grid(kind: str, setting_name: str, settings: Sequence, cfg: RunConfig,
                 seeds: Sequence[int], run: Callable[..., RunResult]) -> SweepTable:
    """_grid whose cell is run(setting, the seed's data at cfg prepared once, cfg.train at seed)."""
    prepared = {seed: prepare_synthetic(cfg.scenario, cfg.n_windows, seed) for seed in seeds}
    return _grid(kind, setting_name, settings, seeds, lambda setting, seed: run(
        setting, prepared[seed], replace(cfg.train, seed=seed)))


def sweep_batch(cfg: RunConfig, sizes: Sequence[int] = BATCH_SIZES,
                seeds: Sequence[int] = DEFAULT_SWEEP_SEEDS) -> SweepTable:
    return _seeded_grid("batch", "batch_size", sizes, cfg, seeds, lambda size, data, train_cfg:
                        run_prepared(data, cfg.model, replace(train_cfg, batch_size=size)))


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
    def cell(fraction: float, data: PreparedData, train_cfg: TrainConfig) -> RunResult:
        keep = subsample_stratified(data.train.labels, fraction,
                                    RngStream(train_cfg.seed).substream(2))
        return run_prepared(replace(data, train=data.train.subset(keep)), cfg.model, train_cfg)

    return _seeded_grid("datasize", "train_fraction", fractions, cfg, seeds, cell)


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
    """Train each named arm of ARMS on every seed's data split and initialization."""
    if unknown := [arm for arm in arms if arm not in ARMS]:
        raise ConfigError(f"unknown ablation arm {unknown[0]!r}, expected one of {tuple(ARMS)}")
    return _seeded_grid("ablation", "arm", arms, cfg, seeds, lambda arm, data, train_cfg:
                        ARMS[arm](data, cfg.model, replace(train_cfg, adaptive_weights=True)))


SWEEPS = {"batch": sweep_batch, "datasize": sweep_datasize, "dim": sweep_dim,
          "ablation": sweep_ablation}


def sweep_csv_names(kind: str) -> tuple[str, str]:
    """The file names of a sweep's summary and of its per-seed rows."""
    return f"sweep_{kind}.csv", f"sweep_{kind}_seeds.csv"


def write_sweep_csv(table: SweepTable, out_dir: str | Path) -> Path:
    """Write sweep_csv_names(table.kind) in out_dir, the summary one row per setting and the
    other one per setting and seed, its test metrics and epochs trained; return the summary."""
    summary, seeds_path = (Path(out_dir) / name for name in sweep_csv_names(table.kind))
    header = [table.setting_name, "n_seeds",
              *(f"{stat}_{m}" for m in METRIC_FIELDS for stat in ("mean", "std"))]
    rows = [[str(row.setting), str(len(row.per_seed))]  # str of a float is its repr
            + [repr(stat(m)) for m in METRIC_FIELDS for stat in (row.mean, row.std)]
            for row in table.rows]
    summary.write_text(csv_text([header, *rows]))
    per_seed = [[str(row.setting), str(seed), *(repr(float(getattr(m, f))) for f in METRIC_FIELDS),
                 str(epochs)] for row in table.rows
                for seed, m, epochs in zip(table.seeds, row.per_seed, row.epochs_run)]
    seeds_path.write_text(csv_text([[table.setting_name, "seed", *METRIC_FIELDS, "epochs_run"],
                                    *per_seed]))
    return summary
