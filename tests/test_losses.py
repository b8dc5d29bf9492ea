"""Per-task loss and adaptive weighting tests.

Loss values are checked against scalar loops; gradients against central
finite differences of the loss functions themselves; the ratio-based weight
update against a frozen two-task example computed at 50-digit precision:
with loss ratios (0.5, 1.0) and temperature 2, the weights are
2 * softmax([0.25, 0.5]) = [0.8756469982284038, 1.1243530017715962].
The cold start, all ones until two epochs have completed, belongs to the
training loop and is checked on a two-epoch run.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contention.data import ScenarioConfig, generate
from contention.errors import DataError, ShapeError
from contention.graph import identity_graph
from contention.losses import RATIO_FLOOR, task_losses, update_weights
from contention.model import ModelConfig
from contention.rng import RngStream
from contention.train import TrainConfig, train

LN2 = 0.6931471805599453
FROZEN_WEIGHTS = (0.8756469982284038, 1.1243530017715962)


def _scalar_bce(x, t):
    return max(x, 0.0) - x * t + math.log1p(math.exp(-abs(x)))


def brute_task_losses(z, y):
    n, k = z.shape
    out = np.zeros(k)
    for task in range(k):
        total = 0.0
        for i in range(n):
            target = 1.0 if y[i] == task else 0.0
            total += _scalar_bce(z[i, task], target)
        out[task] = total / n
    return out


def _random_case(n, k, seed):
    gen = RngStream(seed, (30,)).generator()
    z = gen.normal(scale=2.0, size=(n, k))
    y = gen.integers(0, k, size=n)
    return z, y


class TestTaskLosses:
    def test_zero_logits_give_ln2_everywhere(self):
        got = task_losses(np.zeros((1, 2)), np.array([0]))[0]
        assert np.max(np.abs(got - LN2)) <= 1e-15

    def test_matches_scalar_loop(self):
        z, y = _random_case(13, 4, seed=0)
        got = task_losses(z, y)[0]
        assert np.max(np.abs(got - brute_task_losses(z, y))) <= 1e-12

    def test_confident_correct_is_near_zero(self):
        z = np.full((6, 3), -40.0)
        y = np.array([0, 1, 2, 0, 1, 2])
        for i, label in enumerate(y):
            z[i, label] = 40.0
        assert np.max(task_losses(z, y)[0]) <= 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError, match="zero windows"):
            task_losses(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_label_out_of_range_names_sample(self):
        z = np.zeros((3, 2))
        with pytest.raises(DataError, match="label 2 at sample 1"):
            task_losses(z, np.array([0, 2, 1]))
        with pytest.raises(DataError, match="label -1 at sample 0"):
            task_losses(z, np.array([-1, 0, 1]))

    def test_bad_shapes(self):
        with pytest.raises(ShapeError):
            task_losses(np.zeros(4), np.zeros(4, dtype=int))
        with pytest.raises(ShapeError):
            task_losses(np.zeros((4, 2)), np.zeros(3, dtype=int))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 6), st.integers(0, 10_000))
    def test_nonnegative_finite(self, n, k, seed):
        z, y = _random_case(n, k, seed)
        losses = task_losses(z, y)[0]
        assert losses.shape == (k,)
        assert np.all(losses >= 0.0) and np.all(np.isfinite(losses))


def two_exp_task_losses(z, y):
    """The loss and gradient as two separate kernels compute them, each with its
    own exp(-|z|): the oracle for task_losses sharing one."""
    onehot = (y[:, None] == np.arange(z.shape[1])[None, :]).astype(np.float64)
    loss = np.maximum(z, 0.0) - z * onehot + np.log1p(np.exp(-np.abs(z)))
    t = np.exp(-np.abs(z))
    sig = np.where(z >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    return loss.mean(axis=0), (sig - onehot) / z.shape[0]


_LOGITS = st.one_of(
    st.sampled_from([0.0, -0.0, 800.0, -800.0, 1e300, -1e300]),
    st.floats(-1e300, 1e300, allow_nan=False),
    st.floats(-50.0, 50.0),
)


class TestTaskLogitGrads:
    """The gradient that task_losses returns beside the losses."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 5), st.data())
    def test_bitwise_equal_to_two_exp_oracle(self, n, k, data):
        z = np.array(data.draw(st.lists(_LOGITS, min_size=n * k, max_size=n * k))).reshape(n, k)
        y = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        for got, want in zip(task_losses(z, y), two_exp_task_losses(z, y)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_zero_logits_closed_form(self):
        got = task_losses(np.zeros((2, 2)), np.array([0, 1]))[1]
        want = (0.5 - np.array([[1.0, 0.0], [0.0, 1.0]])) / 2.0
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_matches_finite_differences(self):
        z, y = _random_case(4, 3, seed=1)
        grads = task_losses(z, y)[1]
        h = 1e-6
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                numeric = (
                    task_losses(zp, y)[0].sum() - task_losses(zm, y)[0].sum()
                ) / (2 * h)
                assert abs(grads[i, j] - numeric) <= 1e-8

    def test_task_gradient_is_columnwise(self):
        """Task k's loss only moves with column k of the logits."""
        z, y = _random_case(5, 3, seed=2)
        h = 1e-6
        for k in range(3):
            for j in range(3):
                zp, zm = z.copy(), z.copy()
                zp[:, j] += h
                zm[:, j] -= h
                slope = (task_losses(zp, y)[0][k] - task_losses(zm, y)[0][k]) / (2 * h)
                if j != k:
                    assert abs(slope) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 15), st.integers(1, 5), st.integers(0, 10_000))
    def test_bounded_by_inverse_n(self, n, k, seed):
        z, y = _random_case(n, k, seed)
        g = task_losses(z, y)[1]
        assert g.shape == (n, k)
        assert np.max(np.abs(g)) <= 1.0 / n + 1e-15


class TestUpdateWeights:
    def test_cold_start_stays_all_ones(self):
        """Training weighs every task 1 until two epochs have completed."""
        data = generate(ScenarioConfig(metric_count=4, window_len=8), 20, RngStream(0, (32,)))
        model = ModelConfig(encoder_hidden=4, embed_width=3, propagation_width=3, head_hidden=2)
        cfg = TrainConfig(batch_size=8, max_epochs=2, seed=0)
        _, history = train(data, data, identity_graph(4), cfg, model)
        assert [r.epoch for r in history.records] == [0, 1]
        assert all(np.array_equal(r.weights, np.ones(5)) for r in history.records)

    def test_frozen_two_task_example(self):
        """Ratios (0.5, 1.0) at temperature 2 give the frozen weights."""
        weights = update_weights(np.array([0.4, 0.3]), np.array([0.2, 0.3]), 2.0)
        assert np.max(np.abs(weights - np.array(FROZEN_WEIGHTS))) <= 1e-15

    def test_equal_ratios_give_exact_ones(self):
        """Every task halving its loss must land on exactly 1.0, not 1 - ulp."""
        weights = update_weights(
            np.array([0.8, 0.6, 0.4, 0.2]), np.array([0.4, 0.3, 0.2, 0.1]), 2.0
        )
        assert np.all(weights == 1.0)

    def test_slower_task_weighs_more(self):
        # task 0 stalled
        weights = update_weights(np.array([0.5, 0.5]), np.array([0.45, 0.25]), 2.0)
        assert weights[0] > 1.0 > weights[1]

    def test_zero_previous_loss_is_floored(self):
        weights = update_weights(np.array([0.0, 1.0]), np.array([1e-6, 1.0]), 2.0)
        assert np.all(np.isfinite(weights))
        # 1e-6 / max(0, floor) = 100 >> 1, so the stalled task dominates
        assert weights[0] > weights[1]
        assert RATIO_FLOOR == 1e-8

    def test_input_not_aliased(self):
        """The inputs are neither written to nor handed back, so a caller may
        record both loss vectors and the weights side by side."""
        previous, latest = np.array([1.0, 2.0]), np.array([0.5, 2.0])
        weights = update_weights(previous, latest, 2.0)
        assert previous.tolist() == [1.0, 2.0] and latest.tolist() == [0.5, 2.0]
        assert not np.shares_memory(weights, previous)
        assert not np.shares_memory(weights, latest)

    def test_wrong_shape(self):
        with pytest.raises(ShapeError):
            update_weights(np.ones(3), np.ones(2), 2.0)
        with pytest.raises(ShapeError):
            update_weights(np.ones((2, 2)), np.ones((2, 2)), 2.0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(0, 10_000),
        st.floats(0.25, 8.0),
    )
    def test_weights_positive_and_sum_to_k(self, k, seed, temperature):
        gen = RngStream(seed, (31,)).generator()
        previous, latest = gen.uniform(0.01, 2.0, size=(2, k))
        weights = update_weights(previous, latest, temperature)
        assert np.all(weights > 0.0)
        assert abs(weights.sum() - k) <= 1e-12 * k

    def test_high_temperature_flattens(self):
        losses_a = np.array([1.0, 1.0])
        losses_b = np.array([0.9, 0.3])
        sharp = update_weights(losses_a, losses_b, 0.5)
        flat = update_weights(losses_a, losses_b, 50.0)
        assert abs(flat[0] - 1.0) < abs(sharp[0] - 1.0)


class TestCombine:
    def test_combined_gradient_consistency(self):
        """d (weights @ task_losses) / d logits == task logit grads * weights."""
        z, y = _random_case(5, 3, seed=3)
        weights = update_weights(np.array([0.5, 0.6, 0.7]), np.array([0.45, 0.3, 0.6]), 2.0)
        grads = task_losses(z, y)[1] * weights
        h = 1e-6
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                numeric = (
                    weights @ task_losses(zp, y)[0] - weights @ task_losses(zm, y)[0]
                ) / (2 * h)
                assert abs(grads[i, j] - numeric) <= 1e-8
