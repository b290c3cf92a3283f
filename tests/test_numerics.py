import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from novelcap.errors import DomainError, NumericError, ShapeError
from novelcap.numerics import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, adam_step, cross_entropy,
                               finite_diff_check, softmax)
from novelcap.pipeline import CLIP_NORM, clip_gradients


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax(np.zeros(4)), 0.25)

    def test_shift_invariance_no_overflow(self):
        assert np.allclose(softmax(np.array([1000.0, 1000.0])), [0.5, 0.5])

    def test_two_class_hand_value(self):
        # e^2 / (e^2 + 1) computed by hand
        expected = math.exp(2.0) / (math.exp(2.0) + 1.0)
        out = softmax(np.array([2.0, 0.0]))
        assert abs(out[0] - expected) < 1e-12
        assert abs(out[0] - 0.8808) < 1e-4
        assert abs(out[1] - 0.1192) < 1e-4

    def test_empty_is_domain_error(self):
        with pytest.raises(DomainError):
            softmax(np.array([]))

    def test_rows_are_independent_and_minus_inf_gets_zero(self):
        x = np.array([[2.0, 0.0, -np.inf], [1000.0, 999.0, 998.0]])
        p = softmax(x)
        assert p[0, 2] == 0.0
        for row, expected in zip(p, ([2.0, 0.0], [1000.0, 999.0, 998.0])):
            assert np.array_equal(row[:len(expected)], softmax(np.array(expected)))
        assert softmax(np.zeros((0, 3))).shape == (0, 3)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12),
           st.floats(-100, 100))
    def test_sums_to_one_and_shift_invariant(self, values, shift):
        x = np.array(values)
        p = softmax(x)
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.all(p > 0)
        assert np.allclose(p, softmax(x + shift), atol=1e-12)


class TestCrossEntropy:
    def test_uniform_four_classes(self):
        loss, _ = cross_entropy(np.zeros((1, 4)), [2])
        assert abs(loss - math.log(4)) < 1e-12

    def test_saturated_correct(self):
        loss, _ = cross_entropy(np.array([[30.0, -30.0]]), [0])
        assert loss < 1e-9

    def test_two_class_hand_value(self):
        loss, _ = cross_entropy(np.array([[2.0, 0.0]]), [1])
        assert abs(loss - (-math.log(0.11920292202211755))) < 1e-12
        assert abs(loss - 2.1269) < 1e-3

    def test_target_out_of_range(self):
        for target in (3, -1):
            with pytest.raises(DomainError, match="^numerics: cross_entropy target out of range for 3 classes$"):
                cross_entropy(np.zeros((1, 3)), [target])

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8), st.data())
    def test_gradient_sums_to_zero(self, values, data):
        target = data.draw(st.integers(0, len(values) - 1))
        _, grad = cross_entropy(np.array([values]), [target])
        assert abs(grad.sum()) < 1e-9

    @pytest.mark.parametrize("logits_shape, targets", [((4,), 2), ((4,), [2]), ((2, 4), [1]),
                                                       ((1, 2, 4), [[1, 0]])])
    def test_logits_that_are_not_one_row_per_target_are_a_shape_error(self, logits_shape, targets):
        shapes = f"logits {logits_shape} are not one row per target {np.shape(targets)}"
        with pytest.raises(ShapeError, match=f"^numerics: cross_entropy {re.escape(shapes)}$"):
            cross_entropy(np.zeros(logits_shape), targets)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = np.array([[1.5, -2.0], [0.25, 3.0]])
        before = p.copy()
        adam_step(p, np.zeros_like(p), AdamState.for_param(p))
        assert np.array_equal(p, before)

    def test_first_step_bias_corrected(self):
        # m_hat = v_hat = 1 after one step with unit gradient, so the
        # update is -lr / (1 + eps) per entry
        p = np.zeros((3, 2))
        adam_step(p, np.ones_like(p), AdamState.for_param(p, lr=1e-3))
        assert np.all(np.abs(p + 1e-3) < 1e-6)

    def test_two_steps_shrink_positive_scalar(self):
        p = np.array([0.7])
        state = AdamState.for_param(p, lr=1e-2)
        trace = [p[0]]
        for _ in range(2):
            adam_step(p, np.ones(1), state)
            trace.append(p[0])
        assert trace[2] < trace[1] < trace[0]
        assert state.step == 2

    def test_weight_decay_pulls_toward_zero(self):
        p = np.array([1.0])
        adam_step(p, np.zeros(1), AdamState.for_param(p, lr=1e-3, weight_decay=0.1))
        assert p[0] < 1.0

    def test_shape_mismatch(self):
        p = np.zeros(3)
        with pytest.raises(ShapeError):
            adam_step(p, np.zeros(4), AdamState.for_param(p))

    @pytest.mark.parametrize("weight_decay", [1e-3, 0.0])
    def test_in_place_step_equals_allocating_step(self, weight_decay):
        # the folded update written with one temporary per operation; the textbook
        # m_hat / v_hat spelling of Adam, run alongside, agrees to the last bits
        rng = np.random.default_rng(5)
        theta = rng.uniform(-0.08, 0.08, 43553)
        ref, m, v = theta.copy(), np.zeros_like(theta), np.zeros_like(theta)
        textbook, tm, tv = theta.copy(), np.zeros_like(theta), np.zeros_like(theta)
        state = AdamState.for_param(theta, lr=3e-3, weight_decay=weight_decay)
        for step in range(1, 5):
            grad = rng.normal(size=theta.shape)
            assert clip_gradients(grad, CLIP_NORM) > CLIP_NORM
            adam_step(theta, grad, state)
            g = grad + weight_decay * ref if weight_decay != 0.0 else grad
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            root = math.sqrt(1.0 - ADAM_BETA2 ** step)
            ref -= 3e-3 * root / (1.0 - ADAM_BETA1 ** step) * m / (np.sqrt(v) + ADAM_EPS * root)
            assert np.array_equal(theta, ref) and np.array_equal(state.m, m) and np.array_equal(state.v, v)
            g = grad + weight_decay * textbook if weight_decay != 0.0 else grad
            tm = ADAM_BETA1 * tm + (1.0 - ADAM_BETA1) * g
            tv = ADAM_BETA2 * tv + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = tm / (1.0 - ADAM_BETA1 ** step)
            v_hat = tv / (1.0 - ADAM_BETA2 ** step)
            textbook -= 3e-3 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        assert np.abs(theta - textbook).max() <= 1e-15
        grad[7] = np.nan
        with pytest.raises(NumericError):
            adam_step(theta, grad, state)

    @pytest.mark.parametrize("weight_decay", [1e-3, 0.0])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_the_gradient_leaves_is_refused_at_that_step(self, bad, weight_decay):
        # a row no batch reads gets a zero loss gradient, so the loss never sees it
        theta = np.random.default_rng(3).uniform(-0.08, 0.08, 1000)
        state = AdamState.for_param(theta, lr=3e-3, weight_decay=weight_decay)
        grad = np.random.default_rng(4).normal(size=theta.shape)
        grad[500:600] = 0.0
        adam_step(theta, grad, state)
        theta[550] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):  # weight decay: inf / inf
            adam_step(theta, grad, state)
        assert state.step == 2


class TestFiniteDiffCheck:
    def test_quadratic_is_exact(self):
        theta = np.array([3.0])

        def loss(params):
            return 0.5 * float((params["theta"] ** 2).sum())

        err = finite_diff_check(loss, {"theta": theta}, {"theta": theta.copy()})
        assert err < 1e-9

    def test_corrupted_gradient_flagged(self):
        theta = np.array([3.0])

        def loss(params):
            return 0.5 * float((params["theta"] ** 2).sum())

        err = finite_diff_check(loss, {"theta": theta}, {"theta": 2.0 * theta})
        assert abs(err - 1.0 / 3.0) < 1e-6

    def test_nonpositive_h_rejected(self):
        with pytest.raises(DomainError):
            finite_diff_check(lambda p: 0.0, {}, {}, h=0.0)

    def test_non_finite_loss_is_numeric_error(self):
        theta = np.array([1.0])
        with pytest.raises(NumericError):
            finite_diff_check(lambda p: float("nan"), {"theta": theta}, {"theta": theta})
