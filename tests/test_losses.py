"""Per-task loss and adaptive weighting tests.

Loss values are checked against scalar loops; gradients against central
finite differences of the loss functions themselves; the ratio-based weight
update against a frozen two-task example computed at 50-digit precision:
with loss ratios (0.5, 1.0) and temperature 2, the weights are
2 * softmax([0.25, 0.5]) = [0.8756469982284038, 1.1243530017715962].
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contention.errors import ConfigError, DataError, ShapeError
from contention.losses import (
    DEFAULT_TEMPERATURE,
    RATIO_FLOOR,
    TaskWeightState,
    combine,
    combine_grads,
    task_losses,
    update_weights,
)
from contention.rng import RngStream

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


class TestTaskLogitGrads:
    """The gradient that task_losses returns beside the losses."""

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


class TestWeightState:
    def test_initial(self):
        state = TaskWeightState.initial(5)
        assert np.array_equal(state.weights, np.ones(5))
        assert state.history == ()
        assert state.temperature == DEFAULT_TEMPERATURE == 2.0
        assert state.num_tasks == 5

    def test_rejects_bad_temperature(self):
        with pytest.raises(ConfigError, match="temperature"):
            TaskWeightState.initial(3, temperature=0.0)

    def test_rejects_zero_tasks(self):
        with pytest.raises(ConfigError):
            TaskWeightState.initial(0)

    def test_rejects_long_history(self):
        with pytest.raises(ShapeError):
            TaskWeightState(
                weights=np.ones(2),
                history=(np.ones(2), np.ones(2), np.ones(2)),
            )


class TestUpdateWeights:
    def test_cold_start_stays_all_ones(self):
        state = TaskWeightState.initial(3)
        state = update_weights(state, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(state.weights, np.ones(3))
        assert len(state.history) == 1

    def test_frozen_two_task_example(self):
        """Ratios (0.5, 1.0) at temperature 2 give the frozen weights."""
        state = TaskWeightState.initial(2)
        state = update_weights(state, np.array([0.4, 0.3]))
        state = update_weights(state, np.array([0.2, 0.3]))
        assert np.max(np.abs(state.weights - np.array(FROZEN_WEIGHTS))) <= 1e-15

    def test_equal_ratios_give_exact_ones(self):
        """Every task halving its loss must land on exactly 1.0, not 1 - ulp."""
        state = TaskWeightState.initial(4)
        state = update_weights(state, np.array([0.8, 0.6, 0.4, 0.2]))
        state = update_weights(state, np.array([0.4, 0.3, 0.2, 0.1]))
        assert np.all(state.weights == 1.0)

    def test_slower_task_weighs_more(self):
        state = TaskWeightState.initial(2)
        state = update_weights(state, np.array([0.5, 0.5]))
        state = update_weights(state, np.array([0.45, 0.25]))  # task 0 stalled
        assert state.weights[0] > 1.0 > state.weights[1]

    def test_history_keeps_two_newest(self):
        state = TaskWeightState.initial(2)
        first = np.array([3.0, 3.0])
        second = np.array([2.0, 2.0])
        third = np.array([1.0, 1.0])
        state = update_weights(state, first)
        state = update_weights(state, second)
        state = update_weights(state, third)
        assert len(state.history) == 2
        assert np.array_equal(state.history[0], second)
        assert np.array_equal(state.history[1], third)

    def test_zero_previous_loss_is_floored(self):
        state = TaskWeightState.initial(2)
        state = update_weights(state, np.array([0.0, 1.0]))
        state = update_weights(state, np.array([1e-6, 1.0]))
        assert np.all(np.isfinite(state.weights))
        # 1e-6 / max(0, floor) = 100 >> 1, so the stalled task dominates
        assert state.weights[0] > state.weights[1]
        assert RATIO_FLOOR == 1e-8

    def test_input_not_aliased(self):
        """Mutating the caller's loss array must not rewrite history."""
        state = TaskWeightState.initial(2)
        losses = np.array([1.0, 2.0])
        state = update_weights(state, losses)
        losses[0] = 99.0
        assert state.history[0][0] == 1.0

    def test_wrong_shape(self):
        with pytest.raises(ShapeError):
            update_weights(TaskWeightState.initial(3), np.ones(2))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(0, 10_000),
        st.floats(0.25, 8.0),
    )
    def test_weights_positive_and_sum_to_k(self, k, seed, temperature):
        gen = RngStream(seed, (31,)).generator()
        state = TaskWeightState.initial(k, temperature=temperature)
        for _ in range(4):
            state = update_weights(state, gen.uniform(0.01, 2.0, size=k))
        assert np.all(state.weights > 0.0)
        assert abs(state.weights.sum() - k) <= 1e-12 * k

    def test_high_temperature_flattens(self):
        losses_a = np.array([1.0, 1.0])
        losses_b = np.array([0.9, 0.3])
        sharp = update_weights(
            update_weights(TaskWeightState.initial(2, temperature=0.5), losses_a),
            losses_b,
        )
        flat = update_weights(
            update_weights(TaskWeightState.initial(2, temperature=50.0), losses_a),
            losses_b,
        )
        assert abs(flat.weights[0] - 1.0) < abs(sharp.weights[0] - 1.0)


class TestCombine:
    def test_dot_product(self):
        state = TaskWeightState(
            weights=np.array([2.0, 0.5]), history=(np.ones(2), np.ones(2))
        )
        assert combine(np.array([1.0, 4.0]), state) == 4.0

    def test_all_ones_is_plain_sum(self):
        losses = np.array([0.3, 0.6, 0.9])
        assert combine(losses, TaskWeightState.initial(3)) == pytest.approx(
            losses.sum(), abs=1e-15
        )

    def test_wrong_shape(self):
        with pytest.raises(ShapeError):
            combine(np.ones(3), TaskWeightState.initial(2))

    def test_combined_gradient_consistency(self):
        """d combine(task_losses) / d logits == combine_grads(logit grads)."""
        z, y = _random_case(5, 3, seed=3)
        state = TaskWeightState.initial(3)
        state = update_weights(state, np.array([0.5, 0.6, 0.7]))
        state = update_weights(state, np.array([0.45, 0.3, 0.6]))
        grads = combine_grads(task_losses(z, y)[1], state)
        h = 1e-6
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                numeric = (
                    combine(task_losses(zp, y)[0], state)
                    - combine(task_losses(zm, y)[0], state)
                ) / (2 * h)
                assert abs(grads[i, j] - numeric) <= 1e-8


class TestCombineGrads:
    def test_scales_columns(self):
        g = np.ones((3, 2))
        state = TaskWeightState(
            weights=np.array([2.0, 0.25]), history=(np.ones(2), np.ones(2))
        )
        out = combine_grads(g, state)
        assert np.all(out[:, 0] == 2.0)
        assert np.all(out[:, 1] == 0.25)

    def test_wrong_shape(self):
        with pytest.raises(ShapeError):
            combine_grads(np.ones((3, 4)), TaskWeightState.initial(2))
