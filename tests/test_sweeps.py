"""Pipeline and sensitivity-harness tests on deliberately small runs.

These runs are sized for speed, not accuracy: two epochs (four in the
ablation) on a hundred tiny windows. The contracts under test are wiring
contracts (who gets normalized with whose statistics, which rows reproduce
the unswept run, table shape), not score quality.
"""

import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from contention.config import RunConfig
from contention.data import ScenarioConfig, apply_norm, fit_norm, generate
from contention import sweeps
from contention.errors import ConfigError
from contention.graph import (
    CORR_THRESHOLD,
    build_graph,
    graph_stats,
    identity_graph,
    pearson_matrix,
)
from contention.model import ModelConfig
from contention.pipeline import (
    prepare,
    prepare_synthetic,
    run_prepared,
    split_parts,
)
from contention.rng import RngStream
from contention.sweeps import (
    ABLATION_ARMS,
    BATCH_SIZES,
    DATA_FRACTIONS,
    DEFAULT_SWEEP_SEEDS,
    METRIC_DIMS,
    SweepRow,
    subsample_stratified,
    sweep_ablation,
    sweep_batch,
    sweep_csv_names,
    sweep_datasize,
    sweep_dim,
    write_sweep_csv,
)
from contention.train import METRIC_FIELDS, EvalMetrics, TrainConfig

from conftest import random_dataset

# leakage 0.8 lifts the largest train-split |corr| of 100 to 120 windows from
# about 0.22, at the default leakage, to 0.41-0.45: over CORR_THRESHOLD, so
# propagation has edges to work over
TINY_SCENARIO = ScenarioConfig(
    metric_count=4, window_len=8, separation=3.0, leakage=0.8, noise_std=0.1, leak_lag=2
)
TINY_MODEL = ModelConfig(encoder_hidden=8, embed_width=6, propagation_width=6, head_hidden=4)
TINY_TRAIN = TrainConfig(batch_size=16, max_epochs=2, patience=5, seed=0)
def _generated(n, rng):
    return generate(TINY_SCENARIO, n, rng)


TINY_CFG = RunConfig(scenario=TINY_SCENARIO, n_windows=120, model=TINY_MODEL, train=TINY_TRAIN)
# task weights first move in the third epoch; four epochs at a faster rate
# let them change the test metrics of a seed
ABLATION_CFG = replace(TINY_CFG, train=replace(TINY_TRAIN, max_epochs=4, learning_rate=1e-2))


class TestPrepare:
    def test_norm_comes_from_train_split_only(self):
        data = _generated(90, RngStream(0, (60,)))
        prepared = prepare(*split_parts(data, RngStream(1, (60,))))
        stacked = prepared.train.values.reshape(-1, 4)
        assert np.max(np.abs(stacked.mean(axis=0))) <= 1e-10
        assert np.max(np.abs(stacked.std(axis=0) - 1.0)) <= 1e-10
        # val/test were scaled with the train statistics, so they are close
        # to standardized but not exactly
        other = prepared.val.values.reshape(-1, 4)
        assert 0.0 < np.max(np.abs(other.mean(axis=0))) < 1.0

    def test_graph_built_from_normalized_train(self):
        data = _generated(90, RngStream(2, (60,)))
        prepared = prepare(*split_parts(data, RngStream(3, (60,))))
        want = build_graph(pearson_matrix(prepared.train), CORR_THRESHOLD)
        assert np.array_equal(prepared.graph.adjacency, want.adjacency)

    def test_prepare_respects_given_parts(self):
        data = _generated(62, RngStream(4, (60,)))
        parts = (np.arange(22, 62), np.arange(10), np.arange(10, 22))
        prepared = prepare(*(data.subset(i) for i in parts))
        assert len(prepared.train) == 40
        assert len(prepared.val) == 10
        assert len(prepared.test) == 12
        raw_norm = fit_norm(data.subset(parts[0]))
        assert np.array_equal(prepared.norm.mean, raw_norm.mean)
        assert np.array_equal(prepared.norm.std, raw_norm.std)
        assert np.array_equal(prepared.val.values, apply_norm(data.subset(parts[1]), raw_norm).values)

    def test_prepare_writes_no_caller_values(self):
        """prepare writes only the parts split_parts gathers, never the set they
        came from, and normalizes them in place bit for bit as apply_norm
        normalizes a copy."""
        data = _generated(62, RngStream(4, (60,)))
        before = data.values.tobytes()
        parts = (np.arange(22, 62), np.arange(10), np.arange(10, 22))
        prepared = prepare(*(data.subset(i) for i in parts))
        prepare(*split_parts(data, RngStream(1, (60,))))
        assert data.values.tobytes() == before
        for part, index in zip((prepared.train, prepared.val, prepared.test), parts):
            want = apply_norm(data.subset(index), prepared.norm).values
            assert part.values.tobytes() == want.tobytes()
        with pytest.raises(IndexError):  # a slice part would be a view of `data`
            data.subset(slice(22, 62))
        assert data.values.tobytes() == before

    def test_split_sizes_follow_fractions(self):
        data = _generated(100, RngStream(7, (60,)))
        prepared = prepare(*split_parts(data, RngStream(8, (60,))))
        assert len(prepared.train) + len(prepared.val) + len(prepared.test) == 100
        assert abs(len(prepared.train) - 70) <= 3


def _tiny_run(data_seed):
    prepared = prepare_synthetic(TINY_SCENARIO, 100, data_seed)
    return run_prepared(prepared, TINY_MODEL, TINY_TRAIN)


class TestRunSynthetic:
    def test_deterministic(self):
        a, b = _tiny_run(5), _tiny_run(5)
        assert graph_stats(a.prepared.graph).edges > 0
        assert np.array_equal(a.params.flat, b.params.flat)
        assert a.test_metrics.accuracy == b.test_metrics.accuracy
        assert a.test_metrics.macro_f1 == b.test_metrics.macro_f1

    def test_data_seed_changes_data_not_init(self):
        a, b = _tiny_run(0), _tiny_run(1)
        assert not np.array_equal(a.prepared.train.values[0], b.prepared.train.values[0])

    def test_val_metrics_are_best_epoch(self):
        result = _tiny_run(2)
        best = result.history.records[result.history.best_epoch]
        assert result.val_metrics.macro_f1 == best.val.macro_f1


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
            assert len(row.per_seed) == len(row.epochs_run) == len(seeds)
            assert all(1 <= epochs <= TINY_TRAIN.max_epochs for epochs in row.epochs_run)
            for metrics in row.per_seed:
                for field in METRIC_FIELDS:
                    assert 0.0 <= getattr(metrics, field) <= 1.0

    def test_sweep_batch(self):
        table = sweep_batch(TINY_CFG, sizes=(16, 32), seeds=(0, 1))
        self._check_table(table, "batch", "batch_size", (16, 32), (0, 1))

    def test_sweep_datasize_and_full_fraction_reproduces_unswept(self):
        table = sweep_datasize(TINY_CFG, fractions=(0.5, 1.0), seeds=(0, 1))
        self._check_table(table, "datasize", "train_fraction", (0.5, 1.0), (0, 1))
        full_row = table.rows[1]
        for i, seed in enumerate((0, 1)):
            unswept = run_prepared(
                prepare_synthetic(TINY_CFG.scenario, TINY_CFG.n_windows, seed),
                TINY_CFG.model,
                replace(TINY_CFG.train, seed=seed),
            )
            assert full_row.per_seed[i].accuracy == unswept.test_metrics.accuracy
            assert full_row.per_seed[i].macro_f1 == unswept.test_metrics.macro_f1
            assert full_row.epochs_run[i] == len(unswept.history.records)

    def test_sweep_dim_reuses_one_model_config(self):
        table = sweep_dim(TINY_CFG, dims=(4, 8), seeds=(0,))
        self._check_table(table, "dim", "metric_count", (4, 8), (0,))

    def test_sweep_ablation_arms_reproduce_flagged_runs(self):
        """Each arm is run_prepared on its seed's prepared data: no-propagation
        over the identity graph, static-weights with adaptive weighting off."""
        arms = ("static-weights", "full", "no-propagation")
        table = sweep_ablation(ABLATION_CFG, arms=arms, seeds=(0, 1))
        assert table.kind == "ablation"
        assert table.setting_name == "arm"
        assert table.seeds == (0, 1)
        assert [row.setting for row in table.rows] == list(arms)
        static, full = table.rows[0].per_seed, table.rows[1].per_seed
        assert any(getattr(s, field) != getattr(f, field)  # task weighting is seen
                   for s, f in zip(static, full) for field in METRIC_FIELDS)
        for i, seed in enumerate((0, 1)):
            rng = RngStream(seed)
            data = generate(TINY_SCENARIO, ABLATION_CFG.n_windows, rng.substream(0))
            prepared = prepare(*split_parts(data, rng.substream(1)))
            assert graph_stats(prepared.graph).edges > 0  # so the identity graph changes the run
            train_cfg = replace(ABLATION_CFG.train, seed=seed)
            runs = {
                "full": run_prepared(prepared, TINY_MODEL, train_cfg),
                "no-propagation": run_prepared(
                    replace(prepared, graph=identity_graph(4)), TINY_MODEL, train_cfg),
                "static-weights": run_prepared(
                    prepared, TINY_MODEL, replace(train_cfg, adaptive_weights=False)),
            }
            for row in table.rows:
                want = runs[row.setting].test_metrics
                for field in METRIC_FIELDS:
                    assert getattr(row.per_seed[i], field) == getattr(want, field)
                assert np.array_equal(row.per_seed[i].confusion, want.confusion)

    def test_ablation_arms_switch_one_mechanism_each(self, monkeypatch):
        """Against `full`, no-propagation changes only the graph and
        static-weights only the task weighting."""
        assert ABLATION_ARMS == tuple(sweeps.ARMS) == ("full", "no-propagation", "static-weights")
        calls = []

        def recording(prepared, model_cfg, train_cfg):
            calls.append((prepared, train_cfg))
            return run_prepared(prepared, model_cfg, train_cfg)

        monkeypatch.setattr(sweeps, "run_prepared", recording)
        sweep_ablation(ABLATION_CFG, seeds=(3,))
        (full, full_cfg), (flat, flat_cfg), (static, static_cfg) = calls
        assert full_cfg == flat_cfg == replace(ABLATION_CFG.train, seed=3)
        assert static_cfg == replace(full_cfg, adaptive_weights=False)
        # adaptive weights stay on in full and no-propagation whatever the run config says
        calls.clear()
        static_run = replace(ABLATION_CFG, train=replace(ABLATION_CFG.train, adaptive_weights=False))
        sweep_ablation(static_run, seeds=(3,))
        assert [cfg.adaptive_weights for _, cfg in calls] == [True, True, False]
        assert [cfg for _, cfg in calls[:2]] == [full_cfg, full_cfg]
        assert graph_stats(full.graph).edges > 0
        assert graph_stats(flat.graph).edges == 0
        assert np.array_equal(flat.graph.normalized, np.eye(4))
        assert static.graph is full.graph
        for part in ("train", "val", "test", "norm"):
            assert getattr(flat, part) is getattr(full, part)
            assert getattr(static, part) is getattr(full, part)

    def test_no_cell_result_outlives_its_cell(self, monkeypatch):
        """A row keeps each cell's metrics and epochs, not its RunResult, so a dim
        cell's regenerated data is freed before the next cell runs."""
        results = []

        def recording(prepared, model_cfg, train_cfg):
            assert all(ref() is None for ref in results)
            result = run_prepared(prepared, model_cfg, train_cfg)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(sweeps, "run_prepared", recording)
        table = sweep_dim(TINY_CFG, dims=(4, 8), seeds=(0, 1))
        assert len(results) == 4 and all(len(row.epochs_run) == 2 for row in table.rows)

    def test_unknown_ablation_arm_rejected(self):
        with pytest.raises(ConfigError, match=re.escape(
                "unknown ablation arm 'no-graph', expected one of "
                "('full', 'no-propagation', 'static-weights')")):
            sweep_ablation(TINY_CFG, arms=("full", "no-graph"), seeds=(0,))

    def test_an_arm_added_to_the_table_is_run_and_written(self, monkeypatch, tmp_path):
        """A new row of ARMS needs no other edit: sweep_ablation runs it through
        run_prepared and write_sweep_csv writes its rows."""
        def one_epoch(prepared, model_cfg, train_cfg):
            return sweeps.run_prepared(prepared, model_cfg, replace(train_cfg, max_epochs=1))

        monkeypatch.setitem(sweeps.ARMS, "one-epoch", one_epoch)
        table = sweep_ablation(TINY_CFG, arms=("one-epoch", "full"), seeds=(0, 1))
        assert [row.epochs_run for row in table.rows] == [[1, 1], [2, 2]]
        assert write_sweep_csv(table, tmp_path) == tmp_path / "sweep_ablation.csv"
        summary = (tmp_path / "sweep_ablation.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in summary[1:]] == [["one-epoch", "2"], ["full", "2"]]
        per_seed = [line.split(",") for line in
                    (tmp_path / "sweep_ablation_seeds.csv").read_text().splitlines()[1:]]
        assert [[r[0], r[1], r[-1]] for r in per_seed] == [
            ["one-epoch", "0", "1"], ["one-epoch", "1", "1"],
            ["full", "0", "2"], ["full", "1", "2"]]

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

        row = SweepRow(setting=1.0, per_seed=[fake(0.5), fake(0.7), fake(0.9)],
                       epochs_run=[2, 2, 2])
        assert row.mean("accuracy") == pytest.approx(0.7)
        assert row.std("accuracy") == pytest.approx(np.std([0.5, 0.7, 0.9]))


class TestSweepCsv:
    def test_header_and_shape(self, tmp_path):
        table = sweep_batch(TINY_CFG, sizes=(16,), seeds=(0,))
        path = write_sweep_csv(table, tmp_path)
        assert path == tmp_path / "sweep_batch.csv"
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

    def test_summary_is_the_mean_and_std_of_the_per_seed_rows(self, tmp_path):
        """Each summary row's n_seeds counts its per-seed rows, and each mean and std
        is np.mean and np.std (ddof 0) of their cells, bit for bit; epochs_run counts
        the epochs trained, with early stopping."""
        cfg = replace(TINY_CFG, train=replace(TINY_TRAIN, max_epochs=6, patience=1))
        table = sweep_batch(cfg, sizes=(16, 32), seeds=(0, 1, 2))
        write_sweep_csv(table, tmp_path)
        header, *rows = [line.split(",") for line in
                         (tmp_path / "sweep_batch.csv").read_text().splitlines()]
        seed_header, *seed_rows = [line.split(",") for line in
                                   (tmp_path / "sweep_batch_seeds.csv").read_text().splitlines()]
        assert seed_header == ["batch_size", "seed", *METRIC_FIELDS, "epochs_run"]
        assert [r[:2] for r in seed_rows] == [[size, seed] for size in ("16.0", "32.0")
                                              for seed in ("0", "1", "2")]
        epochs = [int(r[-1]) for r in seed_rows]
        assert epochs == [e for row in table.rows for e in row.epochs_run]
        assert min(epochs) >= 1 and max(epochs) < 6  # patience 1 stops each of these runs early
        for row in rows:
            mine = [r for r in seed_rows if r[0] == row[0]]
            assert row[1] == str(len(mine)) == "3"
            for i, metric in enumerate(METRIC_FIELDS, start=2):
                values = [float(r[i]) for r in mine]
                assert row[header.index(f"mean_{metric}")] == repr(float(np.mean(values)))
                assert row[header.index(f"std_{metric}")] == repr(float(np.std(values)))

    def test_deterministic_bytes(self, tmp_path):
        table = sweep_datasize(TINY_CFG, fractions=(1.0,), seeds=(0,))
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir in (a, b):
            out_dir.mkdir()
            write_sweep_csv(table, out_dir)
        for name in sweep_csv_names("datasize"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
