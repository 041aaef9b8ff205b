import gc
import itertools

import numpy as np
import pytest

from samlab import network
from samlab.data import gen_two_moons
from samlab.errors import LayoutError, NumericError
from samlab.network import Batch, MlpSpec, QuadraticSpec


def small_batch(n=12, seed=3):
    ds = gen_two_moons(n, 0.15, seed)
    return ds.as_batch()


def views(vec):
    """{name: array} views of a ParameterVector, sliced by its layout entries."""
    return {e.name: vec.data[e.offset:e.offset + e.size].reshape(e.shape) for e in vec.layout}


def test_param_layout_shapes_and_count():
    spec = MlpSpec(in_width=2, hidden=(16,), out_width=2)
    layout = network.param_layout(spec)
    names = [e.name for e in layout]
    assert names == ["dense0.weight", "dense0.bias", "dense1.weight", "dense1.bias"]
    assert network.param_count(spec) == 2 * 16 + 16 + 16 * 2 + 2


def test_init_deterministic_and_biases_zero():
    spec = MlpSpec(in_width=2, hidden=(8,), out_width=2)
    p1 = network.init_params(spec, np.random.default_rng(5))
    p2 = network.init_params(spec, np.random.default_rng(5))
    np.testing.assert_array_equal(p1.data, p2.data)
    named = views(p1)
    np.testing.assert_array_equal(named["dense0.bias"], np.zeros(8))
    np.testing.assert_array_equal(named["dense1.bias"], np.zeros(2))


def test_forward_matches_manual_numpy():
    spec = MlpSpec(in_width=2, hidden=(4,), out_width=2, activation="relu")
    params = network.init_params(spec, np.random.default_rng(0))
    batch = small_batch()
    named = views(params)
    h = np.maximum(batch.features @ named["dense0.weight"] + named["dense0.bias"], 0.0)
    logits = h @ named["dense1.weight"] + named["dense1.bias"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    expected = -logp[np.arange(len(batch.labels)), batch.labels].mean()
    assert network.forward(spec, params.data, batch) == pytest.approx(expected, rel=1e-12)


def test_tanh_activation_path():
    spec = MlpSpec(in_width=2, hidden=(4,), out_width=2, activation="tanh")
    params = network.init_params(spec, np.random.default_rng(0))
    value = network.forward(spec, params.data, small_batch())
    assert np.isfinite(value)


def test_mse_head_path():
    spec = MlpSpec(in_width=2, hidden=(4,), out_width=2, head="mse")
    params = network.init_params(spec, np.random.default_rng(0))
    res = network.loss_and_grad(spec, params.data, small_batch())
    assert np.isfinite(res.value)
    assert res.gradient.shape == params.data.shape


def test_no_hidden_layer_is_linear_model():
    spec = MlpSpec(in_width=2, hidden=(), out_width=2)
    assert network.param_count(spec) == 2 * 2 + 2
    params = network.init_params(spec, np.random.default_rng(1))
    assert np.isfinite(network.forward(spec, params.data, small_batch()))


def test_quadratic_model_closed_form():
    spec = QuadraticSpec(diag=(1.0, 4.0), offset=0.25)
    w = np.array([1.0, 2.0])
    batch = small_batch()
    expected = 0.25 + 0.5 * (1.0 * 1.0 + 4.0 * 4.0)
    assert network.forward(spec, w, batch) == pytest.approx(expected, rel=1e-12)
    res = network.loss_and_grad(spec, w, batch)
    np.testing.assert_allclose(res.gradient, [1.0, 8.0], rtol=1e-12)


def test_quadratic_ignores_batch():
    spec = QuadraticSpec(diag=(2.0, 3.0))
    w = np.array([0.5, -0.5])
    a = network.forward(spec, w, small_batch(seed=1))
    b = network.forward(spec, w, small_batch(seed=99))
    assert a == b


def test_constant_loss_model():
    spec = QuadraticSpec(diag=(0.0, 0.0), offset=3.5)
    w = np.array([10.0, -4.0])
    assert network.forward(spec, w, small_batch()) == 3.5
    res = network.loss_and_grad(spec, w, small_batch())
    np.testing.assert_array_equal(res.gradient, np.zeros(2))


def test_accuracy_perfect_and_chance():
    spec = MlpSpec(in_width=2, hidden=(), out_width=2)
    # weights that copy feature 0 into logit margin: batch with separable labels
    features = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
    labels = np.array([1, 0, 1])
    w = np.zeros(network.param_count(spec))
    vec = network.init_params(spec, np.random.default_rng(0)).replace(w)
    views(vec)["dense0.weight"][0, 1] = 5.0  # positive x -> class 1
    assert network.accuracy(spec, vec.data, Batch(features, labels)) == 1.0


def test_wrong_param_count_rejected():
    spec = MlpSpec(in_width=2, hidden=(4,), out_width=2)
    with pytest.raises(LayoutError):
        network.forward(spec, np.zeros(3), small_batch())


def test_non_finite_params_rejected():
    spec = MlpSpec(in_width=2, hidden=(4,), out_width=2)
    bad = np.zeros(network.param_count(spec))
    bad[0] = np.nan
    with pytest.raises(NumericError):
        network.forward(spec, bad, small_batch())


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        MlpSpec(in_width=0, hidden=(4,), out_width=2)
    with pytest.raises(ValueError):
        MlpSpec(in_width=2, hidden=(4,), out_width=2, activation="sigmoid")
    with pytest.raises(ValueError):
        MlpSpec(in_width=2, hidden=(4,), out_width=2, head="hinge")


def test_gradient_matches_finite_differences_small():
    batch = small_batch(n=10, seed=8)
    for activation, head in itertools.product(("relu", "tanh"), ("softmax_ce", "mse")):
        spec = MlpSpec(in_width=2, hidden=(5,), out_width=2, activation=activation, head=head)
        params = network.init_params(spec, np.random.default_rng(8))
        res = network.loss_and_grad(spec, params.data, batch)
        assert res.value == network.forward(spec, params.data, batch)
        flat = params.data
        h = 1e-6
        for i in range(len(flat)):
            fp = flat.copy(); fp[i] += h
            fm = flat.copy(); fm[i] -= h
            fd = (network.forward(spec, fp, batch) - network.forward(spec, fm, batch)) / (2 * h)
            assert res.gradient[i] == pytest.approx(fd, rel=1e-5, abs=1e-8), (activation, head, i)


def test_evaluation_leaves_no_garbage_cycles():
    spec = MlpSpec(in_width=2, hidden=(8, 8), out_width=2, activation="tanh")
    params = network.init_params(spec, np.random.default_rng(2))
    batch = small_batch()
    gc.collect()
    network.forward(spec, params.data, batch)
    network.loss_and_grad(spec, params.data, batch)
    network.accuracy(spec, params.data, batch)
    assert gc.collect() == 0
