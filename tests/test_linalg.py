"""Numeric kernel tests: softmax and the Glorot init from `model`, the stable
binary cross-entropy and sigmoid inside `losses.task_losses`, and the
finite-difference helper. Oracles are independent scalar formulas and
extended-precision constants frozen from a 50-digit computation.

task_losses computes the sigmoid only as part of its gradient,
(sigmoid(z) - target) / N: on one window whose column has target 0 that
gradient is the sigmoid itself, exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_diff_check
from contention.errors import NumericError, ShapeError
from contention.losses import task_losses
from contention.model import glorot_init, softmax
from contention.rng import RngStream

LN2 = 0.6931471805599453
# softmax([1, 2, 3]) from a 50-digit extended-precision evaluation.
SOFTMAX_123 = (
    0.09003057317038046,
    0.24472847105479765,
    0.6652409557748219,
)


def _rng(seed):
    return RngStream(seed, (1,)).generator()


def loss_of_logit(x, t):
    """task_losses' loss for one logit x with binary target t, as a float."""
    label = 0 if t == 1.0 else 1  # column 0's target is 1 exactly when the label is 0
    return float(task_losses(np.array([[x, 0.0]]), np.array([label]))[0][0])


def sigmoid_of_logit(x):
    """task_losses' sigmoid of one logit x: the gradient of a target-0 column of one window."""
    return float(task_losses(np.array([[x, 0.0]]), np.array([1]))[1][0, 0])


class TestSoftmax:
    def test_constant_vector_is_uniform(self):
        for c in (-7.5, 0.0, 123.0):
            assert np.allclose(softmax(np.full(4, c)), 0.25, atol=1e-15)

    def test_frozen_oracle(self):
        p = softmax(np.array([1.0, 2.0, 3.0]))
        assert np.max(np.abs(p - np.array(SOFTMAX_123))) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            softmax(np.array([]))
        with pytest.raises(ShapeError):
            softmax(np.zeros((2, 0)))

    def test_stack_rows_equal_vector_softmax(self):
        z = _rng(3).normal(scale=10.0, size=(7, 5))
        z[2] += 800.0
        p = softmax(z)
        for row, zi in zip(p, z):
            assert np.array_equal(row, softmax(zi))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10_000))
    def test_simplex_and_argmax(self, k, seed):
        z = _rng(seed).normal(scale=10.0, size=k)
        p = softmax(z)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p > 0) and np.all(p <= 1.0)
        assert int(np.argmax(p)) == int(np.argmax(z))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-100, 100), st.integers(0, 10_000))
    def test_shift_invariance(self, c, seed):
        z = _rng(seed).normal(scale=5.0, size=6)
        assert np.max(np.abs(softmax(z + c) - softmax(z))) <= 1e-12

    def test_huge_logits_stay_finite(self):
        p = softmax(np.array([1000.0, 999.0, -1000.0]))
        assert np.all(np.isfinite(p))


class TestBce:
    def test_symmetry_point(self):
        assert abs(loss_of_logit(0.0, 1.0) - LN2) <= 1e-15
        assert abs(loss_of_logit(0.0, 0.0) - LN2) <= 1e-15

    def test_saturated_positive(self):
        loss = loss_of_logit(500.0, 1.0)
        assert math.isfinite(loss) and 0.0 <= loss <= 1e-12

    def test_saturated_negative(self):
        loss = loss_of_logit(-500.0, 0.0)
        assert math.isfinite(loss) and 0.0 <= loss <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-30, 30), st.sampled_from([0.0, 1.0]))
    def test_matches_direct_form(self, x, t):
        """Scalar oracle -[t log s + (1-t) log(1-s)].

        1 - sigmoid(x) is computed as 1/(1+exp(x)) rather than by literal
        subtraction, which would cancel catastrophically near saturation.
        """
        log_s = -math.log1p(math.exp(-x)) if x > -700 else x
        log_sm = -math.log1p(math.exp(x)) if x < 700 else -x
        want = -(t * log_s + (1.0 - t) * log_sm)
        assert abs(loss_of_logit(x, t) - want) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-700, 700, allow_nan=False), st.sampled_from([0.0, 1.0]))
    def test_nonnegative_and_finite(self, x, t):
        loss = loss_of_logit(x, t)
        assert math.isfinite(loss) and loss >= 0.0


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid_of_logit(0.0) == 0.5

    def test_extremes_stay_finite(self):
        assert sigmoid_of_logit(800.0) == 1.0
        assert sigmoid_of_logit(-800.0) == pytest.approx(0.0, abs=1e-300)
        for x in (800.0, -800.0):
            loss, grad = task_losses(np.array([[x, -x]]), np.array([0]))
            assert np.all(np.isfinite(loss)) and np.all(np.isfinite(grad))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-40, 40))
    def test_complement(self, x):
        """Both columns of one window have target 0, so the gradient row is
        (sigmoid(x), sigmoid(-x))."""
        grad = task_losses(np.array([[x, -x, 0.0]]), np.array([2]))[1]
        assert abs(grad[0, 0] + grad[0, 1] - 1.0) <= 1e-12


class TestFiniteDiffCheck:
    def test_quadratic(self):
        """d/dx x^2 at 3 is 6; central differences are exact on quadratics."""
        err = finite_diff_check(
            lambda p: float(p[0] ** 2), np.array([3.0]), np.array([6.0])
        )
        assert err <= 1e-9

    def test_constant_loss(self):
        err = finite_diff_check(lambda p: 1.25, np.array([0.3, -0.4]), np.zeros(2))
        assert err == 0.0

    def test_wrong_gradient_is_caught(self):
        err = finite_diff_check(
            lambda p: float(p[0] ** 2), np.array([3.0]), np.array([5.0])
        )
        assert err > 1e-2

    def test_nonfinite_loss_names_parameter(self):
        def loss(p):
            return float("inf") if p[1] > 1.0 else float(p.sum())

        with pytest.raises(NumericError, match="parameter 1"):
            finite_diff_check(loss, np.array([0.0, 1.0]), np.ones(2))

    def test_multivariate(self):
        gen = _rng(4)
        w = gen.normal(size=5)

        def loss(p):
            return float(np.sin(p).sum() + w @ p)

        theta = gen.normal(size=5)
        grad = np.cos(theta) + w
        assert finite_diff_check(loss, theta, grad) <= 1e-9


class TestGlorotInit:
    def test_deterministic(self):
        a = glorot_init(7, 5, RngStream(11, (3,)))
        b = glorot_init(7, 5, RngStream(11, (3,)))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = glorot_init(7, 5, RngStream(11, (3,)))
        b = glorot_init(7, 5, RngStream(11, (4,)))
        assert not np.array_equal(a, b)

    def test_strict_bound(self):
        w = glorot_init(9, 4, RngStream(0, (5,)))
        a = math.sqrt(6.0 / 13.0)
        assert np.all(w > -a) and np.all(w < a)

    def test_sample_mean_near_zero(self):
        """Mean of 10^6 uniform(-a, a) draws: |mean| <= 4 sigma of the mean."""
        rows, cols = 1000, 1000
        w = glorot_init(rows, cols, RngStream(123, (6,)))
        a = math.sqrt(6.0 / (rows + cols))
        bound = 4.0 * (2.0 * a) / math.sqrt(12.0 * rows * cols)
        assert abs(w.mean()) <= bound
