"""Checks of the MLP's hand-derived reverse pass (`autodiff.backward`) and its
loss heads against central finite differences and hand-computed oracles, plus
the input checks that guard them."""

import math

import numpy as np
import pytest

from samlab import autodiff, network
from samlab.errors import NumericError, ShapeError
from samlab.data import Dataset
from samlab.network import MlpSpec


def central_diff(f, x, i, h=1e-6):
    xp = x.copy(); xp.flat[i] += h
    xm = x.copy(); xm.flat[i] -= h
    return (f(xp) - f(xm)) / (2 * h)


def assert_close(got, fd, tol_rel=1e-5, tol_abs=1e-8):
    assert abs(got - fd) <= max(tol_abs, tol_rel * max(abs(got), abs(fd))), (
        f"analytic {got} vs finite-diff {fd}")


rng = np.random.default_rng(1234)


def random_point(spec, n=6):
    """Parameters with non-zero biases (no pre-activation sits on relu's
    kink), features, and a fixed upstream gradient for the logits."""
    flat = rng.standard_normal(network.param_count(spec))
    features = rng.standard_normal((n, spec.in_width))
    d_logits = rng.standard_normal((n, spec.out_width))
    return flat, features, d_logits


def mlp_pass(spec, flat, features):
    """The forward pass with no bound known, so every layer is scanned."""
    return network._mlp_pass(spec, flat, features, math.inf, math.inf)


def assert_backward_matches_fd(spec, flat, features, d_logits):
    """backward() against central differences of sum(logits * d_logits)."""
    inputs, weights, _ = mlp_pass(spec, flat, features)
    grad = autodiff.backward(spec.activation, inputs, weights, d_logits, flat.size)

    def scalar(point):
        return float(np.sum(mlp_pass(spec, point, features)[2] * d_logits))

    for i in range(flat.size):
        assert_close(grad[i], central_diff(scalar, flat, i))


def head_grad(head, logits, labels):
    spec = MlpSpec(in_width=1, out_width=logits.shape[1], head=head)
    batch = network.check_batch(spec, Dataset(np.zeros((logits.shape[0], 1)), labels, logits.shape[1]))
    return network._head(spec, logits, batch)


def assert_head_matches_fd(head, logits, labels):
    _, grad = head_grad(head, logits, labels)
    for i in range(logits.size):
        assert_close(grad.flat[i],
                     central_diff(lambda z: head_grad(head, z, labels)[0], logits, i))


def test_relu_finite_diff():
    spec = MlpSpec(in_width=3, hidden=(4, 3), out_width=2, activation="relu")
    assert_backward_matches_fd(spec, *random_point(spec))


def test_tanh_finite_diff():
    spec = MlpSpec(in_width=3, hidden=(4, 3), out_width=2, activation="tanh")
    assert_backward_matches_fd(spec, *random_point(spec))


def test_matmul_finite_diff_left_and_right():
    # one affine layer: the weight gradient is x.T @ d (the right operand)
    linear = MlpSpec(in_width=4, hidden=(), out_width=2)
    assert_backward_matches_fd(linear, *random_point(linear))
    # two: the first layer's gradient passes back through d @ w.T (the left operand)
    two = MlpSpec(in_width=4, hidden=(3,), out_width=2, activation="tanh")
    assert_backward_matches_fd(two, *random_point(two))


def test_add_bias_broadcast_backward_sums_rows():
    spec = MlpSpec(in_width=3, hidden=(), out_width=2)
    flat, features, d_logits = random_point(spec, n=5)
    inputs, weights, _ = mlp_pass(spec, flat, features)
    grad = autodiff.backward(spec.activation, inputs, weights, d_logits, flat.size)
    np.testing.assert_array_equal(grad[6:], d_logits.sum(axis=0))
    ones = autodiff.backward(spec.activation, inputs, weights, np.ones((5, 2)), flat.size)
    np.testing.assert_array_equal(ones[6:], np.full(2, 5.0))


def test_softmax_cross_entropy_finite_diff():
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, size=6)
    assert_head_matches_fd("softmax_ce", logits, labels)


def test_softmax_cross_entropy_uniform_logits_value():
    # equal logits: loss = log(k) regardless of labels
    value, _ = head_grad("softmax_ce", np.zeros((5, 3)), np.array([0, 1, 2, 0, 1]))
    assert value == pytest.approx(np.log(3.0), rel=1e-12)


def test_softmax_cross_entropy_stable_at_large_logits():
    logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    value, grad = head_grad("softmax_ce", logits, np.array([0, 1]))
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(grad))


def test_mean_squared_error_finite_diff():
    pred = rng.standard_normal((4, 3))
    labels = rng.integers(0, 3, size=4)
    assert_head_matches_fd("mse", pred, labels)


def test_mean_squared_error_closed_form_gradient():
    pred = rng.standard_normal((4, 3))
    labels = np.array([2, 0, 1, 1])
    _, grad = head_grad("mse", pred, labels)
    target = np.eye(3)[labels]
    np.testing.assert_allclose(grad, 2.0 * (pred - target) / pred.size, rtol=1e-12)


def test_straight_line_oracle_two_layer():
    """Hand-computed gradient for a 1-1-1 tanh chain under the MSE head:
    loss = (w2 * tanh(w1 * x + b1) + b2 - 1)^2, the target being label 0's
    one-hot value."""
    x_val, w1_val, b1_val, w2_val, b2_val = 0.7, 1.3, -0.2, 0.5, 0.1
    spec = MlpSpec(in_width=1, hidden=(1,), out_width=1, activation="tanh", head="mse")
    flat = np.array([w1_val, b1_val, w2_val, b2_val])
    res = network.loss_and_grad(spec, flat, Dataset(np.array([[x_val]]), np.array([0]), 1))

    h_val = np.tanh(w1_val * x_val + b1_val)
    out_val = w2_val * h_val + b2_val
    resid = 2.0 * (out_val - 1.0)
    dh = resid * w2_val * (1.0 - h_val ** 2)
    assert res.value == pytest.approx((out_val - 1.0) ** 2, rel=1e-12)
    np.testing.assert_allclose(res.gradient, [dh * x_val, dh, resid * h_val, resid],
                               rtol=1e-12)


def test_matmul_shape_mismatch():
    spec = MlpSpec(in_width=2, hidden=(3,), out_width=2)
    flat = np.zeros(network.param_count(spec))
    with pytest.raises(ShapeError):
        network.forward(spec, flat, Dataset(np.zeros((4, 3)), np.zeros(4, dtype=int), 2))


def test_non_finite_input_rejected():
    spec = MlpSpec(in_width=2, hidden=(3,), out_width=2)
    flat = np.zeros(network.param_count(spec))
    features = np.zeros((2, 2))
    features[1, 0] = np.nan
    batch = Dataset(features, np.array([0, 1]), 2)
    for evaluate in (network.forward, network.loss_and_grad, network.accuracy):
        with pytest.raises(NumericError, match="batch features"):
            evaluate(spec, flat, batch)


def test_non_finite_intermediate_rejected():
    # tanh maps the overflowed pre-activation to 1, so the logits stay finite
    spec = MlpSpec(in_width=1, hidden=(1,), out_width=2, activation="tanh")
    flat = np.array([1e308, 0.0, 1.0, 1.0, 0.0, 0.0])
    batch = Dataset(np.array([[1e308]]), np.array([0]), 2)
    for evaluate in (network.forward, network.loss_and_grad, network.accuracy):
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="dense0"):
            evaluate(spec, flat, batch)


def test_non_finite_intermediate_hidden_by_relu_rejected():
    # relu maps the pre-activation's -inf to 0, so the logits stay finite
    spec = MlpSpec(in_width=1, hidden=(1,), out_width=2, activation="relu")
    flat = np.array([-1e308, 0.0, 1.0, 1.0, 0.0, 0.0])
    batch = Dataset(np.array([[1e308]]), np.array([0]), 2)
    for evaluate in (network.forward, network.loss_and_grad, network.accuracy):
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="dense0"):
            evaluate(spec, flat, batch)


def test_label_out_of_range_rejected():
    for head in ("softmax_ce", "mse"):
        spec = MlpSpec(in_width=2, hidden=(), out_width=3, head=head)
        flat = np.zeros(network.param_count(spec))
        for labels in ([0, 3], [-1, 0]):
            batch = Dataset(np.zeros((2, 2)), np.array(labels), 3)
            for evaluate in (network.forward, network.loss_and_grad):
                with pytest.raises(ShapeError):
                    evaluate(spec, flat, batch)
