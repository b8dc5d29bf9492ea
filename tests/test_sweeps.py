"""Pipeline and sensitivity-harness tests on deliberately small runs.

These runs are sized for speed, not accuracy: two epochs on a hundred tiny
windows. The contracts under test are wiring contracts (who gets normalized
with whose statistics, which rows reproduce the unswept run, table shape),
not score quality.
"""

import numpy as np
import pytest

from contention.data import ScenarioConfig, apply_norm, fit_norm, generate
from contention.errors import ConfigError
from contention.graph import build_graph, pearson_matrix
from contention.model import ModelConfig
from contention.pipeline import (
    DEFAULT_SPLIT,
    prepare,
    prepare_parts,
    run_prepared,
    run_synthetic,
)
from contention.rng import RngStream
from contention.sweeps import (
    BATCH_SIZES,
    DATA_FRACTIONS,
    DEFAULT_SWEEP_SEEDS,
    METRIC_DIMS,
    SweepRow,
    SweepSpec,
    subsample_stratified,
    sweep_batch,
    sweep_datasize,
    sweep_dim,
    write_sweep_csv,
)
from contention.train import METRIC_FIELDS, EvalMetrics, TrainConfig

from conftest import random_dataset

TINY_SCENARIO = ScenarioConfig(
    metric_count=4, window_len=8, separation=3.0, noise_std=0.1, leak_lag=2
)
TINY_MODEL = ModelConfig(
    window_len=8, num_classes=5, encoder_hidden=8,
    embed_width=6, propagation_width=6, head_hidden=4,
)
TINY_TRAIN = TrainConfig(batch_size=16, max_epochs=2, patience=5, seed=0)
def _generated(n, rng):
    return generate(TINY_SCENARIO, n, rng)


TINY_SPEC = SweepSpec(
    scenario=TINY_SCENARIO,
    n_windows=120,
    model_cfg=TINY_MODEL,
    train_cfg=TINY_TRAIN,
)


class TestPrepare:
    def test_norm_comes_from_train_split_only(self):
        data = _generated(90, RngStream(0, (60,)))
        prepared = prepare(data, (0.6, 0.2, 0.2), 0.3, RngStream(1, (60,)))
        stacked = prepared.train.values.reshape(-1, 4)
        assert np.max(np.abs(stacked.mean(axis=0))) <= 1e-10
        assert np.max(np.abs(stacked.std(axis=0) - 1.0)) <= 1e-10
        # val/test were scaled with the train statistics, so they are close
        # to standardized but not exactly
        other = prepared.val.values.reshape(-1, 4)
        assert 0.0 < np.max(np.abs(other.mean(axis=0))) < 1.0

    def test_graph_built_from_normalized_train(self):
        data = _generated(90, RngStream(2, (60,)))
        prepared = prepare(data, (0.6, 0.2, 0.2), 0.3, RngStream(3, (60,)))
        want = build_graph(pearson_matrix(prepared.train), 0.3)
        assert np.array_equal(prepared.graph.adjacency, want.adjacency)
        assert prepared.graph.threshold == 0.3

    def test_prepare_parts_respects_given_split(self):
        data = _generated(62, RngStream(4, (60,)))
        parts = (np.arange(22, 62), np.arange(10), np.arange(10, 22))
        prepared = prepare_parts(data, parts, corr_threshold=0.3)
        assert len(prepared.train) == 40
        assert len(prepared.val) == 10
        assert len(prepared.test) == 12
        raw_norm = fit_norm(data.subset(parts[0]))
        assert np.array_equal(prepared.norm.mean, raw_norm.mean)
        assert np.array_equal(prepared.norm.std, raw_norm.std)
        assert np.array_equal(prepared.val.values, apply_norm(data.subset(parts[1]), raw_norm).values)

    def test_split_sizes_follow_fractions(self):
        data = _generated(100, RngStream(7, (60,)))
        prepared = prepare(data, DEFAULT_SPLIT, 0.3, RngStream(8, (60,)))
        assert len(prepared.train) + len(prepared.val) + len(prepared.test) == 100
        assert abs(len(prepared.train) - 70) <= 3


class TestRunSynthetic:
    def test_deterministic(self):
        a = run_synthetic(TINY_SCENARIO, 100, TINY_MODEL, TINY_TRAIN, data_seed=5)
        b = run_synthetic(TINY_SCENARIO, 100, TINY_MODEL, TINY_TRAIN, data_seed=5)
        assert np.array_equal(a.params.flat, b.params.flat)
        assert a.test_metrics.accuracy == b.test_metrics.accuracy
        assert a.test_metrics.macro_f1 == b.test_metrics.macro_f1

    def test_data_seed_changes_data_not_init(self):
        a = run_synthetic(TINY_SCENARIO, 100, TINY_MODEL, TINY_TRAIN, data_seed=0)
        b = run_synthetic(TINY_SCENARIO, 100, TINY_MODEL, TINY_TRAIN, data_seed=1)
        assert not np.array_equal(a.prepared.train.values[0], b.prepared.train.values[0])

    def test_val_metrics_are_best_epoch(self):
        result = run_synthetic(TINY_SCENARIO, 100, TINY_MODEL, TINY_TRAIN, data_seed=2)
        best = result.history.records[result.history.best_epoch]
        assert result.val_metrics.macro_f1 == best.val.macro_f1

    def test_ablated_run_uses_identity_operator(self):
        cfg = TrainConfig(batch_size=16, max_epochs=2, graph_propagation=False, seed=0)
        result = run_synthetic(TINY_SCENARIO, 100, TINY_MODEL, cfg, data_seed=3)
        assert np.array_equal(result.graph_used.normalized, np.eye(4))
        # the prepared graph itself is still the thresholded one
        assert result.prepared.graph.edge_count >= 0


class TestSubsample:
    def test_fraction_one_is_identity(self):
        labels = random_dataset(30, 8, 4, seed=0, num_classes=5).labels
        out = subsample_stratified(labels, 1.0, RngStream(1, (61,)))
        assert np.array_equal(out, np.arange(30))

    def test_per_class_rounded_count(self):
        # 10 windows of one class at fraction 0.25: floor(2.5 + 0.5) = 3 keep
        labels = random_dataset(10, 8, 4, seed=1, num_classes=1).labels
        out = subsample_stratified(labels, 0.25, RngStream(2, (61,)))
        assert len(out) == 3

    def test_rare_class_never_vanishes(self):
        labels = np.append(random_dataset(40, 8, 4, seed=2, num_classes=2).labels, 4)
        out = subsample_stratified(labels, 0.1, RngStream(3, (61,)))
        assert 40 in out

    def test_preserves_original_order(self):
        labels = random_dataset(50, 8, 4, seed=4, num_classes=3).labels
        out = subsample_stratified(labels, 0.5, RngStream(4, (61,)))
        assert out.tolist() == sorted(set(out.tolist()))

    def test_deterministic(self):
        labels = random_dataset(40, 8, 4, seed=5, num_classes=3).labels
        a = subsample_stratified(labels, 0.4, RngStream(6, (61,)))
        b = subsample_stratified(labels, 0.4, RngStream(6, (61,)))
        assert np.array_equal(a, b)

    def test_fraction_bounds(self):
        labels = random_dataset(10, 8, 4, seed=6).labels
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError, match="fraction"):
                subsample_stratified(labels, bad, RngStream(0))


class TestSweeps:
    def test_default_grids(self):
        assert BATCH_SIZES == (16, 32, 64, 128)
        assert DATA_FRACTIONS == (0.25, 0.5, 0.75, 1.0)
        assert METRIC_DIMS == (8, 12, 16, 24)
        assert DEFAULT_SWEEP_SEEDS == (0, 1, 2)

    def _check_table(self, table, kind, name, settings, seeds):
        assert table.kind == kind
        assert table.setting_name == name
        assert table.seeds == seeds
        assert [row.setting for row in table.rows] == [float(s) for s in settings]
        for row in table.rows:
            assert len(row.per_seed) == len(seeds)
            for metrics in row.per_seed:
                for field in METRIC_FIELDS:
                    assert 0.0 <= getattr(metrics, field) <= 1.0

    def test_sweep_batch(self):
        table = sweep_batch(TINY_SPEC, sizes=(16, 32), seeds=(0, 1))
        self._check_table(table, "batch", "batch_size", (16, 32), (0, 1))

    def test_sweep_datasize_and_full_fraction_reproduces_unswept(self):
        table = sweep_datasize(TINY_SPEC, fractions=(0.5, 1.0), seeds=(0, 1))
        self._check_table(table, "datasize", "train_fraction", (0.5, 1.0), (0, 1))
        full_row = table.rows[1]
        for i, seed in enumerate((0, 1)):
            from dataclasses import replace

            unswept = run_synthetic(
                TINY_SPEC.scenario,
                TINY_SPEC.n_windows,
                TINY_SPEC.model_cfg,
                replace(TINY_SPEC.train_cfg, seed=seed),
                data_seed=seed,
            )
            assert full_row.per_seed[i].accuracy == unswept.test_metrics.accuracy
            assert full_row.per_seed[i].macro_f1 == unswept.test_metrics.macro_f1

    def test_sweep_dim_reuses_one_model_config(self):
        table = sweep_dim(TINY_SPEC, dims=(4, 8), seeds=(0,))
        self._check_table(table, "dim", "metric_count", (4, 8), (0,))

    def test_row_statistics(self):
        def fake(acc):
            return EvalMetrics(
                accuracy=acc,
                macro_precision=acc,
                macro_recall=acc,
                macro_f1=acc,
                confusion=np.zeros((2, 2), dtype=np.int64),
                precision=np.full(2, acc),
                recall=np.full(2, acc),
                f1=np.full(2, acc),
            )

        row = SweepRow(setting=1.0, per_seed=[fake(0.5), fake(0.7), fake(0.9)])
        assert row.mean("accuracy") == pytest.approx(0.7)
        assert row.std("accuracy") == pytest.approx(np.std([0.5, 0.7, 0.9]))


class TestSweepCsv:
    def test_header_and_shape(self, tmp_path):
        table = sweep_batch(TINY_SPEC, sizes=(16,), seeds=(0,))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "batch_size,n_seeds,mean_accuracy,std_accuracy,"
            "mean_macro_precision,std_macro_precision,"
            "mean_macro_recall,std_macro_recall,mean_macro_f1,std_macro_f1"
        )
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert float(cells[0]) == 16.0
        assert cells[1] == "1"
        for cell in cells[2:]:
            value = float(cell)
            assert 0.0 <= value <= 1.0

    def test_deterministic_bytes(self, tmp_path):
        table = sweep_datasize(TINY_SPEC, fractions=(1.0,), seeds=(0,))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(table, a)
        write_sweep_csv(table, b)
        assert a.read_bytes() == b.read_bytes()
