"""Optimizer, metrics, and training-loop tests.

The Adam oracle is a three-step scalar trace recomputed at 50-digit
precision and frozen below; the metric oracle is the hand-counted
four-window fixture; the training loop is exercised end to end on a small,
strongly separated synthetic problem.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contention.data import UNLABELED, ScenarioConfig, generate
from contention.errors import ConfigError, DataError, NumericError
from contention.graph import build_graph, identity_graph, pearson_matrix
from contention.model import ModelConfig, ModelParams, forward, init_params
from contention.rng import RngStream
from contention.train import (
    ADAM_EPS,
    BETA1,
    BETA2,
    METRIC_FIELDS,
    SCORE_CHUNK,
    AdamState,
    TrainConfig,
    adam_step,
    confusion_matrix,
    evaluate,
    metrics_from_confusion,
    score,
    train,
    write_history_csv,
)

# theta after each of three Adam steps from 0.5 with gradients
# (0.3, -0.2, 0.1) at the default hyperparameters; 50-digit computation
# rounded to the nearest doubles.
ADAM_THETAS = (0.49900000003333334, 0.498855479509286, 0.498576970608346)
ADAM_MS = (0.03, 0.007, 0.0163)
ADAM_VS = (9e-05, 0.00012991, 0.00013978009)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 64
        assert cfg.max_epochs == 50
        assert cfg.learning_rate == 1e-3
        assert cfg.patience == 10
        assert cfg.adaptive_weights

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"max_epochs": 0},
            {"patience": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -1e-3},
            {"learning_rate": float("nan")},
            {"learning_rate": 1.5},
            {"learning_rate": 1e300},
            {"learning_rate": float("inf")},
            {"max_epochs": -1},
            {"patience": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestAdam:
    def test_frozen_scalar_trace(self):
        cfg = TrainConfig()
        theta = np.array([0.5])
        state = AdamState.zeros(1)
        for step, g in enumerate((0.3, -0.2, 0.1)):
            state = adam_step(theta, np.array([g]), state, cfg)
            assert state.step == step + 1
            assert abs(theta[0] - ADAM_THETAS[step]) <= 1e-15
            assert abs(state.m[0] - ADAM_MS[step]) <= 1e-16
            assert abs(state.v[0] - ADAM_VS[step]) <= 1e-17

    def test_zero_gradient_is_a_fixed_point(self):
        cfg = TrainConfig()
        theta = np.array([1.0, -2.0])
        state = adam_step(theta, np.zeros(2), AdamState.zeros(2), cfg)
        assert np.array_equal(theta, [1.0, -2.0])
        assert np.all(state.m == 0.0) and np.all(state.v == 0.0)

    def test_first_step_size_is_learning_rate(self):
        """Bias correction makes the first update ~lr regardless of scale."""
        cfg = TrainConfig(learning_rate=0.05)
        for scale in (1e-3, 1.0, 1e3):
            theta = np.array([0.0])
            adam_step(theta, np.array([scale]), AdamState.zeros(1), cfg)
            assert theta[0] == pytest.approx(-0.05, rel=1e-4)

    def test_nonfinite_gradient_names_index(self):
        grad = np.array([0.0, np.nan, 0.0])
        with pytest.raises(NumericError, match="parameter index 1"):
            adam_step(np.zeros(3), grad, AdamState.zeros(3), TrainConfig())

    def test_nonfinite_gradient_names_block(self):
        cfg = ModelConfig(encoder_hidden=4, embed_width=3, propagation_width=3, head_hidden=2)
        params = init_params(cfg, 8, RngStream(0))
        layout = ModelParams.layout(cfg, 8)
        grad = np.zeros(params.flat.size)
        sl = {name: sl for name, _, sl in layout}["prop_w1"]
        grad[sl.start] = np.inf
        message = rf"parameter block 'prop_w1' \(flat index {sl.start}\)"
        with pytest.raises(NumericError, match=message):
            adam_step(params.flat, grad, AdamState.zeros(grad.size), TrainConfig(), layout)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            adam_step(np.zeros(3), np.zeros(2), AdamState.zeros(3), TrainConfig())

    def test_matches_the_textbook_formula_bit_for_bit(self):
        cfg = TrainConfig(learning_rate=0.01)
        gen = RngStream(5, (41,)).generator()
        theta = gen.normal(size=200)
        expected = theta.copy()
        state = AdamState.zeros(theta.size)
        m, v = np.zeros(theta.size), np.zeros(theta.size)
        for t in range(1, 6):
            grad = gen.normal(size=theta.size)
            old, m_in, v_in, grad_in = state, state.m.copy(), state.v.copy(), grad.copy()
            state = adam_step(theta, grad, old, cfg)
            m = BETA1 * m + (1.0 - BETA1) * grad
            v = BETA2 * v + (1.0 - BETA2) * grad * grad
            m_hat = m / (1.0 - BETA1 ** t)
            v_hat = v / (1.0 - BETA2 ** t)
            expected -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            assert state.step == t
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
            assert np.array_equal(theta, expected)
            # neither the gradient nor the previous moments are written
            assert np.array_equal(grad, grad_in)
            assert np.array_equal(old.m, m_in) and np.array_equal(old.v, v_in)

    def test_state_not_mutated(self):
        state = AdamState.zeros(1)
        adam_step(np.array([0.1]), np.array([0.7]), state, TrainConfig())
        assert state.step == 0 and state.m[0] == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 10))
    def test_update_bounded_by_corrected_lr(self, seed, size):
        """|update| <= lr * (1 + margin) holds under bias correction."""
        cfg = TrainConfig()
        gen = RngStream(seed, (40,)).generator()
        theta = gen.normal(size=size)
        state = AdamState.zeros(size)
        for _ in range(3):
            grad = gen.normal(scale=10.0, size=size)
            before = theta.copy()
            state = adam_step(theta, grad, state, cfg)
            assert np.max(np.abs(theta - before)) <= cfg.learning_rate * 1.2


class TestConfusion:
    def test_hand_counted(self):
        c = confusion_matrix([0, 1, 2, 2], [0, 1, 1, 2], num_classes=3)
        want = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 1]])
        assert np.array_equal(c, want)

    def test_entries_sum_to_count(self):
        labels = [0, 0, 1, 2, 2, 2]
        preds = [1, 0, 1, 2, 0, 2]
        c = confusion_matrix(labels, preds, num_classes=3)
        assert c.sum() == 6

    def test_errors(self):
        with pytest.raises(DataError):
            confusion_matrix([], [], num_classes=3)
        with pytest.raises(DataError):
            confusion_matrix([0, 1], [0], num_classes=3)
        with pytest.raises(DataError, match="label 3 at sample 1"):
            confusion_matrix([0, 3], [0, 0], num_classes=3)
        with pytest.raises(DataError, match="prediction -1 at sample 0"):
            confusion_matrix([0, 1], [-1, 0], num_classes=3)


def brute_metrics(c):
    k = c.shape[0]
    precision, recall, f1 = [], [], []
    for i in range(k):
        col = sum(c[j, i] for j in range(k))
        row = sum(c[i, j] for j in range(k))
        p = c[i, i] / col if col > 0 else 0.0
        r = c[i, i] / row if row > 0 else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(2 * p * r / (p + r) if p + r > 0 else 0.0)
    total = c.sum()
    acc = sum(c[i, i] for i in range(k)) / total
    return acc, np.mean(precision), np.mean(recall), np.mean(f1)


class TestMetrics:
    def test_perfect_predictor(self):
        c = np.diag([3, 2, 4])
        m = metrics_from_confusion(c)
        assert m.accuracy == m.macro_precision == m.macro_recall == m.macro_f1 == 1.0

    def test_hand_counted_fixture(self):
        """predictions [0,1,1,2] against labels [0,1,2,2]."""
        c = confusion_matrix([0, 1, 2, 2], [0, 1, 1, 2], num_classes=3)
        m = metrics_from_confusion(c)
        assert m.accuracy == 0.75
        assert m.macro_precision == pytest.approx((1.0 + 0.5 + 1.0) / 3, abs=1e-15)
        assert m.macro_recall == pytest.approx((1.0 + 1.0 + 0.5) / 3, abs=1e-15)
        assert abs(m.macro_f1 - 7.0 / 9.0) <= 1e-15

    def test_absent_class_scores_zero(self):
        """A class with no truth and no predictions drags the macro mean."""
        c = np.array([[2, 0], [0, 0]])
        m = metrics_from_confusion(c)
        assert m.accuracy == 1.0
        assert m.macro_precision == 0.5
        assert m.macro_recall == 0.5
        assert m.macro_f1 == 0.5

    def test_per_class_scores_hand_counted(self):
        """Class 1 is absent from truth and predictions; class 2 is never predicted."""
        c = np.array([[3, 0, 0, 1], [0, 0, 0, 0], [1, 0, 0, 1], [0, 0, 0, 2]])
        m = metrics_from_confusion(c)
        assert m.precision.tolist() == [0.75, 0.0, 0.0, 0.5]
        assert m.recall.tolist() == [0.75, 0.0, 0.0, 1.0]
        assert m.f1.tolist() == [0.75, 0.0, 0.0, 2.0 * 0.5 / 1.5]
        assert m.support.tolist() == [4, 0, 2, 2]
        assert m.macro_precision == float(m.precision.mean())
        assert m.macro_recall == float(m.recall.mean())
        assert m.macro_f1 == float(m.f1.mean())

    def test_constant_predictor(self):
        """Everything predicted as class 0 over a balanced 5-class set."""
        labels = np.repeat(np.arange(5), 4)
        preds = np.zeros(20, dtype=int)
        m = metrics_from_confusion(confusion_matrix(labels, preds, 5))
        assert m.accuracy == pytest.approx(0.2)
        assert m.macro_precision == pytest.approx(0.04)  # 0.2 for class 0, else 0
        assert m.macro_recall == pytest.approx(0.2)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10_000))
    def test_matches_brute_force(self, k, seed):
        gen = RngStream(seed, (41,)).generator()
        c = gen.integers(0, 8, size=(k, k)).astype(np.int64)
        if c.sum() == 0:
            c[0, 0] = 1
        m = metrics_from_confusion(c)
        acc, mp_, mr, mf = brute_metrics(c)
        assert m.accuracy == pytest.approx(acc, abs=1e-12)
        assert m.macro_precision == pytest.approx(mp_, abs=1e-12)
        assert m.macro_recall == pytest.approx(mr, abs=1e-12)
        assert m.macro_f1 == pytest.approx(mf, abs=1e-12)
        for name in METRIC_FIELDS:
            assert 0.0 <= getattr(m, name) <= 1.0

    def test_micro_consistency(self):
        """accuracy == micro recall == trace/N by construction."""
        gen = RngStream(3, (42,)).generator()
        labels = gen.integers(0, 4, size=60)
        preds = gen.integers(0, 4, size=60)
        c = confusion_matrix(labels, preds, 4)
        m = metrics_from_confusion(c)
        assert m.accuracy == np.trace(c) / c.sum()
        assert m.confusion.sum() == 60


def _toy_problem(n=60, seed=0):
    """Well-separated 5-class windows at T=8, D=4 plus their graph."""
    cfg = ScenarioConfig(
        metric_count=4, window_len=8, separation=3.0, noise_std=0.1, leak_lag=2
    )
    data = generate(cfg, n, RngStream(seed, (50,)))
    cut = int(0.8 * n)
    train_w, val_w = data.subset(np.arange(cut)), data.subset(np.arange(cut, n))
    graph = build_graph(pearson_matrix(train_w), threshold=0.3)
    return train_w, val_w, graph


TINY_TRAIN_MODEL = ModelConfig(encoder_hidden=8, embed_width=6, propagation_width=6, head_hidden=4)


class TestEvaluate:
    def test_agrees_with_manual_loop(self):
        train_w, val_w, graph = _toy_problem(30, seed=2)
        params = init_params(TINY_TRAIN_MODEL, 8, RngStream(1))
        m = evaluate(params, graph, val_w)
        preds = [forward(x, graph, params)[0].label for x in val_w.values]
        want = metrics_from_confusion(confusion_matrix(val_w.labels, preds, 5))
        assert m.accuracy == want.accuracy
        assert np.array_equal(m.confusion, want.confusion)

    def test_unlabeled_window_named(self):
        train_w, _, graph = _toy_problem(20, seed=3)
        labels = train_w.labels.copy()
        labels[3] = UNLABELED
        params = init_params(TINY_TRAIN_MODEL, 8, RngStream(1))
        with pytest.raises(DataError, match="evaluation window 3 has no label"):
            evaluate(params, graph, replace(train_w, labels=labels))

    def test_empty_rejected(self):
        train_w, _, graph = _toy_problem(20, seed=3)
        params = init_params(TINY_TRAIN_MODEL, 8, RngStream(1))
        with pytest.raises(DataError, match="empty"):
            evaluate(params, graph, train_w.subset(np.arange(0)))


def _reference_score(params, graph, windows):
    """The per-window path score replaced: each chunk stacked from its windows."""
    chunks = (windows[i : i + SCORE_CHUNK] for i in range(0, len(windows), SCORE_CHUNK))
    return np.concatenate([forward(np.stack(c), graph, params)[0].logits for c in chunks])


class TestScore:
    def test_slices_equal_stacked_windows_bit_for_bit(self):
        """Slices of the dataset's array give the bits of chunks stacked window by
        window, also for a chunk that starts mid-array and for a partial last one."""
        data = generate(ScenarioConfig(), 3 * SCORE_CHUNK + 17, RngStream(0, (51,)))
        params = init_params(ModelConfig(), 32, RngStream(2))
        graph = build_graph(pearson_matrix(data), threshold=0.3)
        got = score(params, graph, data).logits
        assert got.tobytes() == _reference_score(params, graph, list(data.values)).tobytes()
        tail = data.subset(np.arange(5, len(data)))
        assert (score(params, graph, tail).logits.tobytes()
                == _reference_score(params, graph, list(tail.values)).tobytes())
        # against one window at a time the matmul shapes differ, so the last bits may
        for x, logits in zip(data.values, got):
            one = forward(x, graph, params)[0]
            assert np.max(np.abs(one.logits - logits)) <= 1e-12
            assert one.label == int(np.argmax(logits))


class TestTrainLoop:
    def test_deterministic(self):
        train_w, val_w, graph = _toy_problem(50, seed=4)
        cfg = TrainConfig(batch_size=16, max_epochs=3, patience=5, seed=7)
        p1, h1 = train(train_w, val_w, graph, cfg, TINY_TRAIN_MODEL)
        p2, h2 = train(train_w, val_w, graph, cfg, TINY_TRAIN_MODEL)
        assert np.array_equal(p1.flat, p2.flat)
        assert len(h1.records) == len(h2.records)
        for r1, r2 in zip(h1.records, h2.records):
            assert np.array_equal(r1.task_losses, r2.task_losses)
            assert np.array_equal(r1.weights, r2.weights)
            assert r1.combined_loss == r2.combined_loss
            assert r1.val.macro_f1 == r2.val.macro_f1

    def test_seed_changes_trajectory(self):
        train_w, val_w, graph = _toy_problem(50, seed=4)
        p1, _ = train(train_w, val_w, graph, TrainConfig(max_epochs=2, seed=0), TINY_TRAIN_MODEL)
        p2, _ = train(train_w, val_w, graph, TrainConfig(max_epochs=2, seed=1), TINY_TRAIN_MODEL)
        assert not np.array_equal(p1.flat, p2.flat)

    def test_weight_schedule(self):
        """All-ones weights for the first two epochs, sum K afterwards."""
        train_w, val_w, graph = _toy_problem(50, seed=5)
        cfg = TrainConfig(batch_size=16, max_epochs=5, patience=10, seed=1)
        _, history = train(train_w, val_w, graph, cfg, TINY_TRAIN_MODEL)
        records = history.records
        assert len(records) == 5
        assert np.all(records[0].weights == 1.0)
        assert np.all(records[1].weights == 1.0)
        for rec in records[2:]:
            assert abs(rec.weights.sum() - 5.0) <= 1e-9
            assert np.all(rec.weights > 0.0)
        # adaptation should actually move the weights off the cold start
        assert any(np.max(np.abs(r.weights - 1.0)) > 1e-6 for r in records[2:])

    def test_static_weights_when_disabled(self):
        train_w, val_w, graph = _toy_problem(40, seed=6)
        cfg = TrainConfig(batch_size=16, max_epochs=4, adaptive_weights=False, seed=1)
        _, history = train(train_w, val_w, graph, cfg, TINY_TRAIN_MODEL)
        for rec in history.records:
            assert np.all(rec.weights == 1.0)

    def test_history_bookkeeping(self):
        train_w, val_w, graph = _toy_problem(40, seed=7)
        cfg = TrainConfig(batch_size=16, max_epochs=3, seed=2)
        _, history = train(train_w, val_w, graph, cfg, TINY_TRAIN_MODEL)
        for i, rec in enumerate(history.records):
            assert rec.epoch == i
            assert rec.task_losses.shape == (5,)
            assert np.all(rec.task_losses >= 0.0)
            assert rec.combined_loss == pytest.approx(
                float(np.dot(rec.weights, rec.task_losses)), abs=1e-12
            )
            assert 0.0 <= rec.val.macro_f1 <= 1.0
        assert 0 <= history.best_epoch < len(history.records)

    def test_returns_best_epoch_params(self):
        train_w, val_w, graph = _toy_problem(50, seed=8)
        cfg = TrainConfig(batch_size=16, max_epochs=4, seed=3)
        params, history = train(train_w, val_w, graph, cfg, TINY_TRAIN_MODEL)
        best = history.records[history.best_epoch]
        again = evaluate(params, graph, val_w)
        assert again.macro_f1 == best.val.macro_f1
        best_f1 = max(r.val.macro_f1 for r in history.records)
        assert best.val.macro_f1 == best_f1
        # earliest epoch wins ties
        first_at_best = next(
            r.epoch for r in history.records if r.val.macro_f1 == best_f1
        )
        assert history.best_epoch == first_at_best

    def test_learns_the_toy_problem(self):
        train_w, val_w, graph = _toy_problem(80, seed=9)
        cfg = TrainConfig(
            batch_size=16, max_epochs=40, patience=40, learning_rate=0.01, seed=0
        )
        params, history = train(train_w, val_w, graph, cfg, TINY_TRAIN_MODEL)
        assert history.records[history.best_epoch].val.macro_f1 >= 0.8

    def test_early_stopping(self):
        train_w, val_w, graph = _toy_problem(80, seed=10)
        cfg = TrainConfig(batch_size=16, max_epochs=60, patience=3, seed=0)
        _, history = train(train_w, val_w, graph, cfg, TINY_TRAIN_MODEL)
        last = history.records[-1].epoch
        assert last < 59, "run should stop early once validation stalls"
        assert last - history.best_epoch == 3

    def test_dim_mismatch_rejected(self):
        train_w, val_w, _ = _toy_problem(20, seed=11)
        with pytest.raises(ConfigError, match="metrics"):
            train(train_w, val_w, identity_graph(7), TrainConfig(max_epochs=1), TINY_TRAIN_MODEL)

    def test_unlabeled_training_window_rejected(self):
        train_w, val_w, graph = _toy_problem(20, seed=12)
        labels = train_w.labels.copy()
        labels[0] = UNLABELED
        train_w = replace(train_w, labels=labels)
        with pytest.raises(DataError, match="training window 0 has no label"):
            train(train_w, val_w, graph, TrainConfig(max_epochs=1), TINY_TRAIN_MODEL)


class TestHistoryCsv:
    def _history(self, seed=13):
        train_w, val_w, graph = _toy_problem(40, seed=seed)
        cfg = TrainConfig(batch_size=16, max_epochs=3, seed=4)
        _, history = train(train_w, val_w, graph, cfg, TINY_TRAIN_MODEL)
        return history

    def test_header_and_rows(self, tmp_path):
        history = self._history()
        path = tmp_path / "history.csv"
        write_history_csv(history, path)
        lines = path.read_text().splitlines()
        want_header = (
            "epoch,loss_CPU,loss_IO,loss_MEM,loss_NET,loss_HYBRID,"
            "weight_CPU,weight_IO,weight_MEM,weight_NET,weight_HYBRID,"
            "combined_loss,val_accuracy,val_macro_precision,val_macro_recall,val_macro_f1"
        )
        assert lines[0] == want_header
        assert len(lines) == 1 + len(history.records)
        first = lines[1].split(",")
        assert first[0] == "0"
        rec = history.records[0]
        assert float(first[1]) == rec.task_losses[0]
        assert float(first[11]) == rec.combined_loss
        assert float(first[15]) == rec.val.macro_f1

    def test_write_is_deterministic(self, tmp_path):
        history = self._history()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_history_csv(history, a)
        write_history_csv(history, b)
        assert a.read_bytes() == b.read_bytes()

    def test_metric_fields_constant(self):
        assert METRIC_FIELDS == (
            "accuracy", "macro_precision", "macro_recall", "macro_f1",
        )
