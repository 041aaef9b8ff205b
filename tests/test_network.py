import gc
import hashlib
import itertools
import math
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from samlab import autodiff as ad, harness, network, optimizers, probes
from samlab.data import Dataset, gen_two_moons
from samlab.errors import LayoutError, NumericError, ShapeError
from samlab.network import MlpSpec, QuadraticSpec
from samlab.params import LayoutEntry


def small_batch(n=12, seed=3):
    return gen_two_moons(n, 0.15, seed)


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


def test_init_quadratic_is_all_ones_in_one_coords_entry():
    spec = QuadraticSpec(diag=(1.0, 4.0, -2.0), offset=0.25)
    params = network.init_params(spec, np.random.default_rng(5))
    np.testing.assert_array_equal(params.data, np.ones(3))
    assert params.layout == network.param_layout(spec) == (LayoutEntry("coords", (3,), 0),)


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
    assert network.accuracy(spec, vec.data, Dataset(features, labels, 2)) == 1.0


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


# (activation, head, widths, parameter rows, batch rows): the most the traced
# heap of one warm `loss_and_grad` may reach, in stacked activations (rows x
# batch rows x widest layer x 8 bytes). The reverse pass frees each hidden
# activation once its derivative is applied, and a relu layer's input
# gradient is written over its activation, so the relu cases read about 1.4
# and 2.5 and the tanh case 3.3; a pass that kept every activation to its end
# reads 2.2 to 4.3. The first case is the probes' shape on the bench's 2-32-2
# model, the others the train_wide model.
PEAK_ACTIVATIONS = {
    ("relu", "softmax_ce", (2, 32, 2), 4, 500): 1.5,
    ("relu", "softmax_ce", (16, 128, 128, 8), 1, 1000): 2.75,
    ("tanh", "mse", (16, 128, 128, 8), 1, 1000): 3.5,
}


@pytest.mark.parametrize("case", sorted(PEAK_ACTIVATIONS),
                         ids=lambda c: f"{c[0]}-{c[1]}-{'-'.join(map(str, c[2]))}-K{c[3]}-n{c[4]}")
def test_gradient_peak_heap_in_stacked_activations(case):
    activation, head, widths, rows, n = case
    spec = MlpSpec(widths[0], widths[1:-1], widths[-1], activation, head)
    rng = np.random.default_rng(5)
    params = np.stack([network.init_params(spec, rng).data for _ in range(rows)])
    batch = network.check_batch(spec, Dataset(rng.standard_normal((n, widths[0])),
                                              rng.integers(0, widths[-1], n), widths[-1]))
    network.loss_and_grad(spec, params, batch)
    tracemalloc.start()
    try:
        network.loss_and_grad(spec, params, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (rows * n * max(widths) * 8) <= PEAK_ACTIVATIONS[case]


# The most the traced heap of one warm loss-only call on train_wide's
# 3,000-row test split through [128, 128] may reach, in the call's own
# activations (3,000 batch rows x 128 units x 8 bytes): one pass reads 2.08.
WIDE_LOSS_ONLY_PEAK_ACTIVATIONS = 2.25


def _wide_loss_only_peak_activations(evaluate) -> float:
    """The traced peak heap of one warm `evaluate` of one parameter row on
    that split, in its activations."""
    spec = MlpSpec(16, (128, 128), 8, "tanh", "mse")
    rng = np.random.default_rng(5)
    params = network.init_params(spec, rng).data
    batch = network.check_batch(spec, Dataset(rng.standard_normal((3000, 16)),
                                              rng.integers(0, 8, 3000), 8))
    evaluate(spec, params, batch)
    tracemalloc.start()
    try:
        evaluate(spec, params, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (3000 * 128 * 8)


def test_wide_loss_only_call_peak_heap_keeps_to_its_activations():
    """One warm `loss_and_accuracy` on that split is one pass over all 3,000
    rows, 5.9 times network.STACK_ELEMENTS: its peak is its two hidden
    layers' outputs and little more."""
    peak = _wide_loss_only_peak_activations(network.loss_and_accuracy)
    assert peak <= WIDE_LOSS_ONLY_PEAK_ACTIVATIONS


def test_wide_accuracy_peak_heap_keeps_to_its_activations():
    """`accuracy` is `loss_and_accuracy`'s second value, so it makes the same
    one pass."""
    assert _wide_loss_only_peak_activations(network.accuracy) <= WIDE_LOSS_ONLY_PEAK_ACTIVATIONS


def _assert_rows_match_lone_calls(spec, params, batch):
    """Each row of the stack `params` gets the `forward` and
    `loss_and_accuracy` bytes of its lone call."""
    stacked = (network.forward(spec, params, batch), *network.loss_and_accuracy(spec, params, batch))
    for k, row in enumerate(params):
        lone = (network.forward(spec, row, batch), *network.loss_and_accuracy(spec, row, batch))
        assert [float(v[k]).hex() for v in stacked] == [v.hex() for v in lone]


@settings(max_examples=60, deadline=None)
@given(activation=st.sampled_from(network.ACTIVATIONS), head=st.sampled_from(network.HEADS),
       widths=st.lists(st.integers(1, 40), min_size=1, max_size=3), n_classes=st.integers(2, 5),
       stack=st.integers(0, 3), size=st.integers(16, 70), extra=st.integers(1, 90),
       seed=st.integers(0, 2 ** 16))
@example("relu", "softmax_ce", [2, 32], 2, 0, 16, 17, 1)
@example("tanh", "mse", [32, 9], 3, 2, 32, 33, 2)
@example("relu", "softmax_ce", [2, 32], 2, 0, 21, 40, 3)
def test_stacking_budget_moves_no_loss_only_byte(activation, head, widths, n_classes,
                                                 stack, size, extra, seed):
    """A loss-only call gets the same bytes, down to each logit, whether one
    parameter row's activations pass the stacking budget or not: `size` rows
    of one parameter row fit in the tight budget, and `extra` more are in
    the batch. Every call is one pass over its whole batch, so a stack of
    2-3 rows gets each row's lone call bytes under the tight budget too, and
    the loss is `loss_and_grad`'s value to the bit."""
    spec = MlpSpec(widths[0], tuple(widths[1:]), n_classes, activation, head)
    rng = np.random.default_rng(seed)
    params = np.stack([network.init_params(spec, rng).data for _ in range(max(stack, 1))])
    params = params if stack else params[0]
    n = size + extra
    batch = network.check_batch(spec, Dataset(rng.standard_normal((n, widths[0])),
                                              rng.integers(0, n_classes, n), n_classes))

    def results():
        logits = []

        def recorded(*args, _f=network._mlp_pass):
            out = _f(*args)
            logits.append(out[2])
            return out
        with mock.patch.object(network, "_mlp_pass", recorded):
            loss, accuracy = network.loss_and_accuracy(spec, params, batch)
        return [np.asarray(v).tobytes() for v in (np.concatenate(logits, axis=-2), loss, accuracy,
                                                  network.forward(spec, params, batch),
                                                  network.accuracy(spec, params, batch),
                                                  network.loss_and_grad(spec, params, batch).value)]

    with mock.patch.object(network, "STACK_ELEMENTS", size * max(spec.widths)):
        assert network.rows_per_call(spec, batch) == 1
        tight = results()
        if stack:
            _assert_rows_match_lone_calls(spec, params, batch)
    with mock.patch.object(network, "STACK_ELEMENTS", 2 ** 62):
        whole = results()
    assert tight == whole
    assert whole[1] == whole[3] == whole[5]


def test_stacked_rows_of_a_wide_input_get_their_lone_calls_bytes():
    """A stack of 3 rows through a 784-64-10 tanh model on 1,000 pixel-like
    rows gets, row by row, the `forward` and `loss_and_accuracy` bytes of the
    lone call, though one row's activations already pass the budget."""
    spec = MlpSpec(784, (64,), 10, "tanh", "softmax_ce")
    rng = np.random.default_rng(0)
    batch = network.check_batch(spec, Dataset(rng.random((1000, 784)),
                                              rng.integers(0, 10, 1000), 10))
    params = np.stack([network.init_params(spec, rng).data for _ in range(3)])
    assert network.rows_per_call(spec, batch) == 1
    _assert_rows_match_lone_calls(spec, params, batch)


def test_loss_only_calls_equal_the_gradient_calls_loss_on_a_wide_batch():
    """`forward`, `loss_and_accuracy` and a slice's centre cell each get
    `loss_and_grad`'s value to the bit on 3,000 rows through 128 tanh units
    into 10 classes, where one row's activations pass the stacking budget,
    for every seed. On seeds 1, 14, 24 and 35, 512-row blocks of the batch
    round the loss otherwise than one pass in the last bit."""
    spec = MlpSpec(16, (128,), 10, "tanh", "softmax_ce")
    for seed in range(40):
        rng = np.random.default_rng(seed)
        params = network.init_params(spec, rng).data
        batch = network.check_batch(spec, Dataset(rng.standard_normal((3000, 16)),
                                                  rng.integers(0, 10, 3000), 10))
        value = network.loss_and_grad(spec, params, batch).value.hex()
        centre = probes.loss_plane_slice(spec, params, batch, np.eye(1, params.size, 0)[0],
                                         np.eye(1, params.size, 1)[0], 0.1, 3)[2][1, 1]
        assert [v.hex() for v in (network.forward(spec, params, batch),
                                  network.loss_and_accuracy(spec, params, batch)[0],
                                  float(centre))] == [value] * 3, seed


# (input width, hidden widths, rows) per pin case size. A "wide" hidden layer
# and its reverse-pass gradient (200 x 128, 200 x 96) take 150-200 KiB, above
# glibc's default mmap threshold (128 KiB); every "small" array is far below
# it. A "mid" array (120 x 64, 120 x 48) is below it alone and above it in a
# stack of 3. "probe" is the bench's probe_small model and train split
# (2-32-2 at 500 rows), where the kernel's narrow broadcasts and bias-gradient
# sums take their long-loop forms; "thin" has a hidden layer one unit wide.
PIN_SIZES = {"small": (3, (5, 4), 40), "mid": (3, (64, 48), 120), "wide": (3, (128, 96), 200),
             "probe": (2, (32,), 500), "thin": (3, (1, 4), 500)}


def pin_case(activation, head, n_classes, depth, size="small"):
    """A fixed model and batch, with some -0.0 weights and features."""
    in_width, hidden, rows = PIN_SIZES[size]
    rng = np.random.default_rng([n_classes, depth])
    spec = MlpSpec(in_width, hidden[:depth], n_classes, activation, head)
    params = network.init_params(spec, rng).data
    params[::7] = -0.0
    features = rng.standard_normal((rows, in_width))
    features[::5, 0] = -0.0
    return spec, params, Dataset(features, rng.integers(0, n_classes, rows), n_classes)


# (activation, head, classes, depth[, size]): (float.hex of the loss,
# sha256[:16] of the gradient bytes, float.hex of the accuracy). Any rewrite of
# the kernel that moves a single output byte fails here. Taken with numpy 2.4
# and its bundled OpenBLAS on x86-64; another BLAS build may round a matmul
# differently. The "probe" and "thin" entries were taken before the kernel's
# narrow broadcasts and bias-gradient sums got their long-loop forms.
PINNED_KERNEL_BYTES = {
    ("relu", "softmax_ce", 2, 0): ("0x1.bd218f71634cep-1", "e9f39f75c5fb46c8", "0x1.0000000000000p-1"),
    ("relu", "softmax_ce", 2, 2): ("0x1.8e7dcc1a0f016p-1", "e7438e11d52ba305", "0x1.0000000000000p-1"),
    ("relu", "softmax_ce", 3, 0): ("0x1.8ce0fc72b7e43p+0", "221eb37a5630a4a0", "0x1.999999999999ap-2"),
    ("relu", "softmax_ce", 3, 2): ("0x1.3e0ec59610795p+0", "0f67906b414e9078", "0x1.b333333333333p-2"),
    ("relu", "softmax_ce", 10, 0): ("0x1.5a68053ac101ap+1", "d81bddd54c981e63", "0x1.999999999999ap-6"),
    ("relu", "softmax_ce", 10, 2): ("0x1.2b8deda2b1076p+1", "dd05eb378999d2e8", "0x1.999999999999ap-4"),
    ("relu", "mse", 2, 0): ("0x1.c7f2f9f69be7ep+1", "24755ba94e0f1ede", "0x1.0000000000000p-1"),
    ("relu", "mse", 2, 2): ("0x1.7bda8d8674c8ap+0", "60b7c34ab0eaa34a", "0x1.0000000000000p-1"),
    ("relu", "mse", 3, 0): ("0x1.5e1a5e6c6f737p+1", "1f21d900b3fb0084", "0x1.999999999999ap-2"),
    ("relu", "mse", 3, 2): ("0x1.a15517a40e01cp-1", "e160b8cc8342a814", "0x1.b333333333333p-2"),
    ("relu", "mse", 10, 0): ("0x1.03520f69de8cdp+0", "01fd866da12fab91", "0x1.999999999999ap-6"),
    ("relu", "mse", 10, 2): ("0x1.1705ff711ad60p-1", "a35ad0dadb4fdcde", "0x1.999999999999ap-4"),
    ("tanh", "softmax_ce", 2, 0): ("0x1.8d69165ea716ap-1", "f2425273ffd6d126", "0x1.0000000000000p-1"),
    ("tanh", "softmax_ce", 2, 2): ("0x1.55e468d216a86p-1", "cc6491688dab8c22", "0x1.2666666666666p-1"),
    ("tanh", "softmax_ce", 3, 0): ("0x1.56927b5c1bc96p+0", "402d795f3076777c", "0x1.999999999999ap-2"),
    ("tanh", "softmax_ce", 3, 2): ("0x1.0f9d77f539952p+0", "03812b99e0f55549", "0x1.ccccccccccccdp-2"),
    ("tanh", "softmax_ce", 10, 0): ("0x1.40d9575113cccp+1", "efee5b4731730140", "0x1.999999999999ap-6"),
    ("tanh", "softmax_ce", 10, 2): ("0x1.2bb80728cc941p+1", "e7548fb580376a03", "0x1.999999999999ap-5"),
    ("tanh", "mse", 2, 0): ("0x1.003d23a680f4dp+1", "056fd36a0a4e7d5c", "0x1.0000000000000p-1"),
    ("tanh", "mse", 2, 2): ("0x1.16e314b2e1e35p-1", "9b8d222ec99ac401", "0x1.2666666666666p-1"),
    ("tanh", "mse", 3, 0): ("0x1.85141825e011ap+0", "b52bfed5f3b5b14d", "0x1.999999999999ap-2"),
    ("tanh", "mse", 3, 2): ("0x1.756b892c48726p-2", "600b33ba9b1da111", "0x1.ccccccccccccdp-2"),
    ("tanh", "mse", 10, 0): ("0x1.1a1798a4cef0fp-1", "3db9794c43b58e03", "0x1.999999999999ap-6"),
    ("tanh", "mse", 10, 2): ("0x1.212e71bce0443p-2", "3c6e6db53cbeac54", "0x1.999999999999ap-5"),
    ("relu", "softmax_ce", 3, 2, "wide"): ("0x1.666f6233c4f52p+0", "95262a919a41b8bf", "0x1.3333333333333p-2"),
    ("relu", "mse", 3, 2, "wide"): ("0x1.4c721daaaf843p+0", "ad66c708e07be3b7", "0x1.3333333333333p-2"),
    ("tanh", "softmax_ce", 3, 2, "wide"): ("0x1.30c9bd36e6dbep+0", "489363e75652d0b5", "0x1.3d70a3d70a3d7p-2"),
    ("tanh", "mse", 3, 2, "wide"): ("0x1.13287523f58cdp-1", "fe614878d12478ea", "0x1.3d70a3d70a3d7p-2"),
    ("relu", "softmax_ce", 3, 2, "mid"): ("0x1.854c3b9e81605p+0", "3dba9334315a8fdc", "0x1.3333333333333p-2"),
    ("relu", "mse", 3, 2, "mid"): ("0x1.45c8aae4cbc48p+0", "65714949ab88a198", "0x1.3333333333333p-2"),
    ("tanh", "softmax_ce", 3, 2, "mid"): ("0x1.234d384d0d311p+0", "10afb534da33e04b", "0x1.9111111111111p-2"),
    ("tanh", "mse", 3, 2, "mid"): ("0x1.e15b76cea764ep-2", "f21f3892af480746", "0x1.9111111111111p-2"),
    ("relu", "softmax_ce", 2, 1, "probe"): ("0x1.8f3b41d23e05dp-1", "48e97ba79c1db7dc", "0x1.116872b020c4ap-1"),
    ("relu", "mse", 2, 1, "probe"): ("0x1.36be7a72c0a91p+0", "aafe65f3f39b362c", "0x1.116872b020c4ap-1"),
    ("relu", "mse", 1, 1, "probe"): ("0x1.93ab3fca4cf59p+0", "ddaf84b6fef9bd22", "0x1.0000000000000p+0"),
    ("tanh", "softmax_ce", 1, 1, "probe"): ("-0x0.0p+0", "934ee56ad6539fb9", "0x1.0000000000000p+0"),
    ("relu", "softmax_ce", 3, 2, "thin"): ("0x1.1ea548746d1dbp+0", "15cf095edec2d44e", "0x1.7ef9db22d0e56p-2"),
    ("tanh", "mse", 2, 1, "thin"): ("0x1.80024309eecb1p+0", "0899b7fe06783d7f", "0x1.0624dd2f1a9fcp-1"),
}


@pytest.mark.parametrize("case", sorted(PINNED_KERNEL_BYTES),
                         ids=lambda case: "-".join(map(str, case)))
def test_kernel_bytes_pinned(case):
    spec, params, batch = pin_case(*case)
    loss_hex, grad_sha, accuracy_hex = PINNED_KERNEL_BYTES[case]
    result = network.loss_and_grad(spec, params, batch)
    assert network.forward(spec, params, batch).hex() == loss_hex
    assert result.value.hex() == loss_hex
    assert hashlib.sha256(result.gradient.tobytes()).hexdigest()[:16] == grad_sha
    assert network.accuracy(spec, params, batch).hex() == accuracy_hex
    loss, accuracy = network.loss_and_accuracy(spec, params, batch)
    assert (loss.hex(), accuracy.hex()) == (loss_hex, accuracy_hex)


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


def _single_bytes(spec, params, batch) -> tuple:
    result = network.loss_and_grad(spec, params, batch)
    return (result.value.hex(), _digest(result.gradient),
            network.accuracy(spec, params, batch).hex())


@pytest.mark.parametrize("case", sorted(PINNED_KERNEL_BYTES),
                         ids=lambda case: "-".join(map(str, case)))
def test_stacked_rows_match_their_2d_pins(case):
    """Each row of a K=3 stacked call is byte for byte its 2-D call: the
    pinned row at each position, and two other rows beside it."""
    spec, params, batch = pin_case(*case)
    rng = np.random.default_rng(7)
    others = [network.init_params(spec, rng).data for _ in range(2)]
    expected = [_single_bytes(spec, row, batch) for row in others]
    for position in range(3):
        rows = others[:position] + [params] + others[position:]
        want = expected[:position] + [PINNED_KERNEL_BYTES[case]] + expected[position:]
        result = network.loss_and_grad(spec, np.stack(rows), batch)
        losses = network.forward(spec, np.stack(rows), batch)
        test_losses, accuracies = network.loss_and_accuracy(spec, np.stack(rows), batch)
        got = [(float(result.value[k]).hex(), _digest(result.gradient[k]),
                float(accuracies[k]).hex()) for k in range(3)]
        assert got == want
        assert [float(v).hex() for v in losses] == [w[0] for w in want]
        assert [float(v).hex() for v in test_losses] == [w[0] for w in want]


@pytest.mark.parametrize("case", sorted(PINNED_KERNEL_BYTES),
                         ids=lambda case: "-".join(map(str, case)))
def test_one_row_stack_is_the_2d_call(case):
    """A stack of one row (as the last pass of `network.passes` can be) runs
    the stacked path and gives the pinned bytes of the vector call."""
    spec, params, batch = pin_case(*case)
    result = network.loss_and_grad(spec, params[None, :], batch)
    losses = network.forward(spec, params[None, :], batch)
    assert result.value.shape == losses.shape == (1,)
    assert result.gradient.shape == (1, params.size)
    assert (float(result.value[0]).hex(), _digest(result.gradient[0])) == \
        PINNED_KERNEL_BYTES[case][:2]
    assert float(losses[0]).hex() == PINNED_KERNEL_BYTES[case][0]


def test_one_row_stack_of_a_quadratic_is_its_vector_call():
    spec = QuadraticSpec((1.0, 4.0, -2.0), 0.25)
    point = np.array([0.3, -1.7, 2.1])
    vector = network.loss_and_grad(spec, point, None)
    stacked = network.loss_and_grad(spec, point[None, :], None)
    losses = network.forward(spec, point[None, :], None)
    assert stacked.gradient.shape == (1, 3) and losses.shape == (1,)
    assert float(stacked.value[0]).hex() == float(losses[0]).hex() == vector.value.hex() \
        == network.forward(spec, point, None).hex()
    assert stacked.gradient[0].tobytes() == vector.gradient.tobytes()


@pytest.mark.parametrize("case", sorted(PINNED_KERNEL_BYTES),
                         ids=lambda case: "-".join(map(str, case)))
def test_gradient_reads_no_uninitialized_memory(case, monkeypatch):
    """Every fresh float array starts as NaN, so a gradient slice that the
    reverse pass left unwritten would move the pinned bytes."""
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)
    spec, params, batch = pin_case(*case)
    want = PINNED_KERNEL_BYTES[case][:2]
    result = network.loss_and_grad(spec, params, batch)
    assert (result.value.hex(), _digest(result.gradient)) == want
    stacked = network.loss_and_grad(spec, np.stack([params] * 3), batch)
    assert [(float(stacked.value[k]).hex(), _digest(stacked.gradient[k]))
            for k in range(3)] == [want] * 3


@pytest.mark.parametrize("stack", [False, True])
def test_dead_relu_layer_has_positive_zero_gradients(stack):
    """All hidden units dead on the batch: every layer-0 weight and bias
    gradient entry is +0.0, never -0.0."""
    spec = MlpSpec(2, (8,), 2, "relu", "softmax_ce")
    params = network.init_params(spec, np.random.default_rng(0)).data
    w0, _, b0 = spec.layers[0]
    params[b0] = -100.0
    batch = small_batch()
    assert (batch.features @ params[w0].reshape(2, 8) + params[b0]).max() < 0
    if stack:
        params = np.stack([params, 1.5 * params, params])
    gradient = network.loss_and_grad(spec, params, batch).gradient
    layer0 = gradient[..., :b0.stop]
    assert not layer0.any() and not np.signbit(layer0).any()


@pytest.mark.parametrize("size", ["mid", "wide"])
def test_single_and_stacked_calls_keep_their_bytes_interleaved(size):
    """Neither a single nor a stacked call moves a byte of the other, in any
    order."""
    spec, params, batch = pin_case("tanh", "mse", 3, 2, size)
    rows = np.stack([params, 0.5 * params, -params])
    singles = [_single_bytes(spec, row, batch) for row in rows]
    stacked = network.loss_and_grad(spec, rows, batch)
    stacked_bytes = (stacked.value.tobytes(), stacked.gradient.tobytes())

    for k in (0, 1, 2, 1, 0):
        again = network.loss_and_grad(spec, rows, batch)
        assert (again.value.tobytes(), again.gradient.tobytes()) == stacked_bytes
        assert _single_bytes(spec, rows[k], batch) == singles[k]


def _run_threads(target, count: int) -> list:
    """Run `target(index)` on `count` threads at once, with the interpreter
    switching threads every microsecond; returns what each raised."""
    errors = []

    def run(index):
        try:
            target(index)
        except Exception as error:  # reported by the caller's assert
            errors.append(error)

    threads = [threading.Thread(target=run, args=(index,)) for index in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def test_concurrent_threads_get_their_single_thread_bytes():
    """Four threads calling the kernel at once on their own params each get
    the bytes of the same calls made alone, on one batch size and on four."""
    harness.setup_process()
    spec = MlpSpec(3, (128, 96), 4, "tanh", "mse")
    rng = np.random.default_rng(11)
    params = [network.init_params(spec, rng).data for _ in range(4)]
    features, labels = rng.standard_normal((200, 3)), rng.integers(0, 4, 200)

    for sizes in ((200,) * 4, (50, 100, 150, 200)):
        batches = [Dataset(features[:n], labels[:n], 4) for n in sizes]
        alone = [_single_bytes(spec, params[k], batches[k]) for k in range(4)]
        got = [[] for _ in params]
        errors = _run_threads(
            lambda k: got[k].extend(_single_bytes(spec, params[k], batches[k]) for _ in range(200)),
            4)
        assert errors == []
        assert all(calls == [alone[k]] * 200 for k, calls in enumerate(got))


def test_stacked_rows_reject_a_quadratic_spec_and_bad_shapes():
    spec, params, batch = pin_case("relu", "mse", 2, 0)
    for points in (np.zeros(2), np.zeros((2, 2))):
        with pytest.raises(ShapeError):
            network.loss_and_accuracy(QuadraticSpec((1.0, 1.0)), points, batch)
    bad = np.stack([params, params])
    bad[1, 0] = np.inf
    with pytest.raises(NumericError):
        network.forward(spec, bad, batch)


BAD_PARAM_SHAPES = {
    "stack of P-1": (lambda p: np.zeros((2, p - 1)), LayoutError),
    "stack of P+1": (lambda p: np.zeros((3, p + 1)), LayoutError),
    "one of P+1": (lambda p: np.zeros((1, p + 1)), LayoutError),
    "column of P": (lambda p: np.zeros((p, 1)), LayoutError),
    "3-D": (lambda p: np.zeros((2, 1, p)), ShapeError),
    "3-D of one": (lambda p: np.zeros((1, 1, p)), ShapeError),
    "scalar": (lambda p: np.float64(0.0), ShapeError),
}


@pytest.mark.parametrize("bad", sorted(BAD_PARAM_SHAPES))
def test_bad_param_shapes_fail_before_any_compute(bad, monkeypatch):
    """Only a (P,) vector or a (K, P) stack is taken: an array that merely
    holds P elements, or a stack of another width, raises before the pass."""
    make, error = BAD_PARAM_SHAPES[bad]
    spec = MlpSpec(2, (4,), 3)
    batch = gen_two_moons(5, 0.1, 0)
    points = make(network.param_count(spec))

    def no_compute(*args):
        raise AssertionError("the kernel ran on bad parameters")

    monkeypatch.setattr(network, "_mlp_pass", no_compute)
    for evaluate in (network.forward, network.loss_and_grad, network.loss_and_accuracy,
                     network.accuracy):
        with pytest.raises(error):
            evaluate(spec, points, batch)


@pytest.mark.parametrize("spec", [QuadraticSpec((1.0, 4.0, -2.0), 0.25),
                                  QuadraticSpec((0.5,) * 37),
                                  QuadraticSpec((-1.0, 0.0, 3.0, 2.0))])
def test_stacked_quadratic_rows_are_its_rows_one_by_one(spec):
    batch = gen_two_moons(4, 0.1, 0)  # a quadratic ignores it
    rows = np.random.default_rng(len(spec.diag)).standard_normal((5, len(spec.diag)))
    rows[1] = -0.0
    rows[2, ::2] = 0.0
    result = network.loss_and_grad(spec, rows, batch)
    losses = network.forward(spec, rows, batch)
    singles = [network._quadratic(spec, row) for row in rows]
    assert [float(v).hex() for v in result.value] == [r.value.hex() for r in singles]
    assert [float(v).hex() for v in losses] == [r.value.hex() for r in singles]
    assert result.gradient.tobytes() == np.stack([r.gradient for r in singles]).tobytes()
    assert [float(v).hex() for v in losses] == \
        [network.forward(spec, row, batch).hex() for row in rows]


@pytest.mark.parametrize("width", range(1, 13))
def test_column_fold_matches_numpy_reductions(width):
    rng = np.random.default_rng(width)
    a = rng.standard_normal((300, width)) * 10.0 ** rng.integers(-8, 9, (300, width))
    a[rng.random(a.shape) < 0.2] = 0.0
    a[rng.random(a.shape) < 0.2] = -0.0
    a[:4] = [[0.0], [-0.0], [0.0], [-0.0]]
    a[2:4, ::2] = -a[2:4, ::2]
    for ufunc, reference in ((np.maximum, np.max), (np.add, np.sum)):
        folded = network._fold(ufunc, a)
        assert folded.shape == (300, 1)
        assert folded.tobytes() == reference(a, axis=1, keepdims=True).tobytes()


@pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 12])
def test_column_fold_of_a_stack_folds_its_last_axis(width):
    a = np.random.default_rng(width).standard_normal((3, 50, width))
    a[:, ::3] = -0.0
    for ufunc, reference in ((np.maximum, np.max), (np.add, np.sum)):
        folded = network._fold(ufunc, a)
        assert folded.shape == (3, 50, 1)
        assert folded.tobytes() == reference(a, axis=-1, keepdims=True).tobytes()


# Batch rows and stacked parameter rows (0: one vector) at which the kernel's
# long-loop forms are checked against numpy's plain forms: on both sides of
# autodiff.LONG_ROWS, up to the 1,500-row test split of the bench's task.
LONG_FORM_ROWS = (1, 2, 31, 127, 128, 255, 256, 500, 1500)
LONG_FORM_STACKS = (0, 1, 2, 6)


def _mixed(rng, shape) -> np.ndarray:
    """Normal entries scaled by 10^-8 to 10^8, about a tenth of them 0.0 and
    a tenth -0.0."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    a[rng.random(shape) < 0.1] = 0.0
    a[rng.random(shape) < 0.1] = -0.0
    return a


@pytest.mark.parametrize("width", range(1, 13))
def test_long_loop_forms_are_numpys_plain_forms(width):
    """On every batch and stack, with the long-loop forms where the shape
    rule puts them and forced on every row count, a layer `width` units wide
    gets the bytes of plain `x @ w + b`, `_less` those of plain `a - v`, and
    the bias gradient those of `np.add.reduce(d, axis=-2)`."""
    rng = np.random.default_rng(width)
    spec = MlpSpec(3, (), width, "relu", "mse")
    w_slice, w_shape, b_slice = spec.layers[0]
    for n, stack in itertools.product(LONG_FORM_ROWS, LONG_FORM_STACKS):
        lead = (stack,) if stack else ()
        flat = _mixed(rng, lead + (spec.param_count,))
        features = _mixed(rng, (n, 3))
        w = flat[..., w_slice].reshape(lead + w_shape)
        d = _mixed(rng, lead + (n, width))
        v = _mixed(rng, lead + (n, 1))
        plain = ((features @ w + flat[..., None, b_slice]).tobytes(), (d - v).tobytes(),
                 (np.add.reduce(d, axis=-2) + 0.0).tobytes())
        for long_rows in (ad.LONG_ROWS, 1):
            with mock.patch.object(ad, "LONG_ROWS", long_rows):
                logits = network._mlp_pass(spec, flat, features, math.inf, math.inf)[2]
                less = d.copy()
                network._less(less, v, less)
                assert network._less(d, v).tobytes() == less.tobytes()
                grad = ad.backward("relu", spec.layers, [features], [w], d)
            assert (logits.tobytes(), less.tobytes(), grad[..., b_slice].tobytes()) == plain, \
                (n, stack, long_rows)


def _kernel_bytes(spec, params, batch) -> list:
    result = network.loss_and_grad(spec, params, batch)
    return [np.asarray(v).tobytes() for v in (result.value, result.gradient,
                                              network.forward(spec, params, batch),
                                              *network.loss_and_accuracy(spec, params, batch))]


# numpy's default ufunc buffer, in elements, and the one setup_process sets.
NUMPY_BUFSIZE = 8192
BUFSIZES = (NUMPY_BUFSIZE, harness._UFUNC_BUFFER_ELEMENTS)


def _at_bufsize(size: int, compute):
    """compute() with numpy's ufunc buffer at `size`; errstate restores the
    size the caller had."""
    with np.errstate():
        np.setbufsize(size)
        return compute()


@pytest.mark.parametrize("activation, head", itertools.product(network.ACTIVATIONS, network.HEADS))
@pytest.mark.parametrize("widths", [(3, 1, 2), (3, 2, 2), (3, 7, 1, 2), (2, 32, 2), (3, 5, 1),
                                    (3, 1, 3)], ids=lambda w: "-".join(map(str, w)))
def test_long_loop_forms_move_no_kernel_byte(activation, head, widths):
    """Every output of the kernel, through a hidden layer one unit wide too,
    has the same bytes with the long-loop forms taken by the shape rule, on
    every row count, or on none, under either ufunc buffer. An mse head on
    1,500 rows sums more terms than the smaller buffer holds, so a numpy
    that chunked a float64 reduction by the buffer would fail here."""
    spec = MlpSpec(widths[0], widths[1:-1], widths[-1], activation, head)
    rng = np.random.default_rng(len(widths))
    for n, stack in itertools.product(LONG_FORM_ROWS, LONG_FORM_STACKS):
        params = _mixed(rng, (stack or 1, spec.param_count)) * 1e-6
        params = params if stack else params[0]
        batch = network.check_batch(spec, Dataset(_mixed(rng, (n, widths[0])),
                                                  rng.integers(0, widths[-1], n), widths[-1]))
        got = []
        for size, long_rows in itertools.product(BUFSIZES, (ad.LONG_ROWS, 1, 2 ** 62)):
            with mock.patch.object(ad, "LONG_ROWS", long_rows):
                got.append(_at_bufsize(size, lambda: _kernel_bytes(spec, params, batch)))
        assert all(g == got[0] for g in got), (n, stack)


def test_report_and_lockstep_step_keep_their_bytes_under_either_buffer():
    """A probe report and one lockstep step of four runs, on the bench's
    2-32-2 model at 500 rows, give the same bytes under either buffer."""
    spec = MlpSpec(2, (32,), 2)
    rng = np.random.default_rng(6)
    batch = network.check_batch(spec, gen_two_moons(500, 0.25, 1))
    params = network.init_params(spec, rng).data
    rows = np.stack([network.init_params(spec, rng).data for _ in range(4)])
    probe = probes.ProbeConfig(rho=0.05, restarts=2, inner_steps=3, n_samples=8)
    common = dict(learning_rate=0.1, momentum=0.9, rho=0.05)
    configs = [optimizers.OptimizerConfig(kind="sgd", **common),
               optimizers.OptimizerConfig(kind="sam", **common),
               optimizers.OptimizerConfig(kind="rand_sam", **common),
               optimizers.OptimizerConfig(kind="sam_ga", ga_steps=5, **common)]

    def run():
        report = probes.build_report(spec, params, batch, probe, seed=5)
        states = [optimizers.init_state(cfg, spec.param_count, direction_seed=11 + k)
                  for k, cfg in enumerate(configs)]
        stepped, reports = optimizers.step_rows(spec, rows, batch, configs, states)
        return ([v.hex() if isinstance(v, float) else v for v in report.to_dict().values()],
                stepped.tobytes(), repr(reports), [s.momentum_buffer.tobytes() for s in states])

    assert _at_bufsize(NUMPY_BUFSIZE, run) == _at_bufsize(harness._UFUNC_BUFFER_ELEMENTS, run)


def test_buffer_chunking_would_move_a_long_float64_sum():
    """The guard above has teeth: on the mse head's longest sum, 1,500 rows
    by 2 classes, a sum chunked by the smaller buffer gives other bytes than
    numpy's unbuffered pairwise sum, which either buffer leaves as it is."""
    terms = _mixed(np.random.default_rng(0), (6, 1500 * 2))
    whole = [_at_bufsize(size, lambda: np.add.reduce(terms, axis=-1).tobytes())
             for size in BUFSIZES]
    chunk = harness._UFUNC_BUFFER_ELEMENTS
    chunked = np.add.reduce(terms[:, :chunk], axis=-1) + np.add.reduce(terms[:, chunk:], axis=-1)
    assert whole[0] == whole[1] != chunked.tobytes()


@pytest.mark.parametrize("activation, head", [("relu", "softmax_ce"), ("tanh", "mse")])
@pytest.mark.parametrize("widths", [(2, 32, 2), (3, 1, 4, 2), (3, 6, 1)],
                         ids=lambda w: "-".join(map(str, w)))
def test_stacked_rows_get_their_lone_calls_bytes_on_long_batches(activation, head, widths):
    """At 500 and 1,500 batch rows, where a lone call takes the long-loop
    forms as a stack does, each of 2-6 stacked rows gets its lone call's
    loss, gradient, forward and accuracy bytes."""
    spec = MlpSpec(widths[0], widths[1:-1], widths[-1], activation, head)
    rng = np.random.default_rng(sum(widths))
    for n, stack in ((500, 2), (500, 6), (1500, 3)):
        batch = network.check_batch(spec, Dataset(rng.standard_normal((n, widths[0])),
                                                  rng.integers(0, widths[-1], n), widths[-1]))
        params = np.stack([network.init_params(spec, rng).data for _ in range(stack)])
        stacked = _kernel_bytes(spec, params, batch)
        for k, row in enumerate(params):
            lone = _kernel_bytes(spec, row, batch)
            assert [np.frombuffer(v).reshape(stack, -1)[k].tobytes() for v in stacked] == lone


@pytest.mark.parametrize(
    "case", [*itertools.product(("relu", "tanh"), ("softmax_ce", "mse"), (0, 2)),
             ("tanh", "mse", 2, "wide")],
    ids=lambda case: "-".join(map(str, case)))
def test_evaluation_leaves_caller_arrays_unchanged(case):
    activation, head, *shape = case
    spec, params, batch = pin_case(activation, head, 3, *shape)
    vector = network.init_params(spec, np.random.default_rng(1))
    before = [a.copy() for a in (params, vector.data, batch.features, batch.labels)]
    for p in (params, vector):
        network.forward(spec, p, batch)
        network.loss_and_grad(spec, p, batch)
        network.accuracy(spec, p, batch)
    after = (params, vector.data, batch.features, batch.labels)
    for old, new in zip(before, after):
        assert old.tobytes() == new.tobytes()


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_large_results_survive_later_calls(activation):
    """Returned arrays are never changed by a later call, and calls of
    growing and shrinking sizes each give their own bytes."""
    # 3,000 rows x 10 classes: a gradient that the kernel kept and wrote into
    # again would change under the second call.
    spec, params, _ = pin_case(activation, "mse", 10, 2, "wide")
    other = network.init_params(spec, np.random.default_rng(9)).data
    rng = np.random.default_rng(4)
    batches = {n: Dataset(rng.standard_normal((n, 3)), rng.integers(0, 10, n), 10)
               for n in (200, 3000)}
    big = batches[3000]
    result = network.loss_and_grad(spec, params, big)
    kept = result.gradient.tobytes()
    network.loss_and_grad(spec, other, big)
    assert result.gradient.tobytes() == kept

    def outputs(b):
        result = network.loss_and_grad(spec, params, b)
        return (network.forward(spec, params, b), result.value, result.gradient.tobytes(),
                network.loss_and_accuracy(spec, params, b))

    first = {}
    for n in (3000, 200, 3000, 200):
        assert first.setdefault(n, outputs(batches[n])) == outputs(batches[n])


# --- checked batches ----------------------------------------------------------

def test_checked_batch_holds_read_only_copies():
    spec, params, batch = pin_case("relu", "softmax_ce", 3, 2)
    checked = network.check_batch(spec, batch)
    for name in ("features", "labels", "index", "one_hot"):
        array = getattr(checked, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[0] = 0
    assert batch.features.flags.writeable and batch.labels.flags.writeable
    assert not np.shares_memory(checked.features, batch.features)
    assert not np.shares_memory(checked.labels, batch.labels)
    n = len(batch.labels)
    np.testing.assert_array_equal(checked.index, np.arange(n) * 3 + batch.labels)
    np.testing.assert_array_equal(checked.one_hot, np.eye(3)[batch.labels])

    before = network.loss_and_grad(spec, params, checked)
    batch.features[:] = np.nan  # the caller's arrays change; the checked copies do not
    batch.labels[:] = 7
    after = network.loss_and_grad(spec, params, checked)
    assert (after.value.hex(), after.gradient.tobytes()) == \
        (before.value.hex(), before.gradient.tobytes())


def test_checked_batch_is_checked_again_for_another_width_class_count_or_head():
    spec = MlpSpec(2, (4,), 3)
    batch = Dataset(np.random.default_rng(0).standard_normal((5, 2)), np.array([0, 1, 2, 0, 2]), 3)
    checked = network.check_batch(spec, batch)
    assert network.check_batch(spec, checked) is checked
    assert network.check_batch(MlpSpec(2, (4,), 3), checked) is checked  # an equal spec
    with pytest.raises(ShapeError):
        network.check_batch(MlpSpec(3, (4,), 3), checked)  # another input width
    with pytest.raises(ShapeError):
        network.check_batch(MlpSpec(2, (4,), 2), checked)  # label 2 is out of range
    with pytest.raises(ShapeError):
        network.forward(MlpSpec(2, (4,), 2), np.zeros(22), checked)
    wider = network.check_batch(MlpSpec(2, (4,), 4), checked)
    assert wider is not checked and wider.one_hot.shape == (5, 4)
    np.testing.assert_array_equal(wider.index, np.arange(5) * 4 + batch.labels)
    mse = network.check_batch(MlpSpec(2, (4,), 3, head="mse"), checked)
    assert mse is not checked and mse.spec.head == "mse"
    assert network.check_batch(QuadraticSpec((1.0,)), batch) is batch  # ignored, unchecked


BAD_BATCHES = {
    "width": (np.zeros((4, 3)), np.array([0, 1, 2, 0]), ShapeError),
    "not 2-D": (np.zeros(4), np.array([0, 1, 2, 0]), ShapeError),
    "non-finite": (np.array([[0.0, 1.0], [np.inf, 0.0]]), np.array([0, 1]), NumericError),
    "no rows": (np.zeros((0, 2)), np.zeros(0, dtype=int), ShapeError),
    "label count": (np.zeros((4, 2)), np.array([0, 1, 2]), ShapeError),
    "label shape": (np.zeros((4, 2)), np.zeros((4, 1), dtype=int), ShapeError),
    "label above": (np.zeros((4, 2)), np.array([0, 1, 3, 0]), ShapeError),
    "label below": (np.zeros((4, 2)), np.array([0, -1, 2, 0]), ShapeError),
    "float labels": (np.zeros((4, 2)), np.array([0.0, 1.0, 2.0, 0.0]), ShapeError),
}


@pytest.mark.parametrize("bad", sorted(BAD_BATCHES))
@pytest.mark.parametrize("head", ["softmax_ce", "mse"])
def test_bad_batches_fail_before_any_compute(bad, head, monkeypatch):
    features, labels, error = BAD_BATCHES[bad]
    spec = MlpSpec(2, (4,), 3, head=head)
    params = np.zeros(network.param_count(spec))
    rows = np.zeros((2, params.size))

    def no_compute(*args):
        raise AssertionError("the kernel ran on a bad batch")

    monkeypatch.setattr(network, "_mlp_pass", no_compute)
    calls = [(f, points) for f in (network.forward, network.loss_and_grad,
                                   network.loss_and_accuracy, network.accuracy)
             for points in (params, rows)]
    for evaluate, points in calls:
        with pytest.raises(error):
            evaluate(spec, points, Dataset(features, labels, spec.out_width))


@pytest.mark.parametrize("case", [("relu", "softmax_ce", 3, 2), ("tanh", "mse", 10, 2),
                                  ("relu", "softmax_ce", 2, 0), ("tanh", "mse", 3, 2, "wide")],
                         ids=lambda case: "-".join(map(str, case)))
def test_one_checked_batch_gives_the_raw_batch_bytes(case):
    spec, params, batch = pin_case(*case)
    rows = np.stack([params, 0.5 * params, -params])

    def outputs(b):
        single = network.loss_and_grad(spec, params, b)
        stacked = network.loss_and_grad(spec, rows, b)
        return (network.forward(spec, params, b).hex(), single.value.hex(),
                single.gradient.tobytes(), network.accuracy(spec, params, b).hex(),
                network.loss_and_accuracy(spec, params, b),
                stacked.value.tobytes(), stacked.gradient.tobytes(),
                network.forward(spec, rows, b).tobytes(),
                [a.tobytes() for a in network.loss_and_accuracy(spec, rows, b)])

    raw = outputs(batch)
    assert raw[0] == PINNED_KERNEL_BYTES[case][0]
    checked = network.check_batch(spec, batch)
    for _ in range(3):
        assert outputs(checked) == raw


# The head reads the labels through the checked batch's precomputed arrays.
# Both reads must give the bytes of the fancy indexing they replace, for any
# values: zeros of both signs, tiny and huge magnitudes.
_head_values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, 1.0]))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), stack=st.integers(0, 4), n=st.integers(1, 12),
       n_classes=st.integers(1, 11))
def test_precomputed_label_reads_match_fancy_indexing(data, stack, n, n_classes):
    lead = (stack,) if stack else ()
    values = data.draw(hnp.arrays(np.float64, lead + (n, n_classes), elements=_head_values))
    labels = data.draw(hnp.arrays(np.int64, (n,), elements=st.integers(0, n_classes - 1)))
    spec = MlpSpec(1, (), n_classes)
    checked = network.check_batch(spec, Dataset(np.zeros((n, 1)), labels, n_classes))

    # the softmax loss's gather, summed along each contiguous row
    old = np.ascontiguousarray(values[..., np.arange(n), labels])
    new = values.reshape(lead + (-1,)).take(checked.index, axis=-1)
    assert new.flags.c_contiguous and new.tobytes() == old.tobytes()
    with np.errstate(over="ignore"):
        assert np.add.reduce(new, axis=-1).tobytes() == np.add.reduce(old, axis=-1).tobytes()

    # the softmax gradient's "less 1.0 at each label"
    old = values.copy()
    old[..., np.arange(n), labels] -= 1.0
    new = values.copy()
    new -= checked.one_hot
    assert new.tobytes() == old.tobytes()


@settings(max_examples=200, deadline=None)
@given(a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=9),
                    elements=st.one_of(st.floats(), st.sampled_from(
                        [np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -0.0]))))
def test_finiteness_check_is_isfinite_all(a):
    """`_finite` answers np.isfinite(a).all() exactly, and warns of
    nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert network._finite(a) == np.isfinite(a).all()


@pytest.mark.parametrize("size", [1, 7, 16, 33, 1000, 16_389, 200_003])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_finiteness_check_finds_one_bad_entry_anywhere(size, bad):
    a = np.full(size, 1e308)
    assert network._finite(a)
    for position in {0, size // 2, size - 1}:
        a[position] = bad
        assert not network._finite(a) and not network._finite(a.reshape(1, -1))
        a[position] = -1e308
    assert network._finite(a)


@pytest.mark.parametrize("label_dtype", [np.int64, np.int32, np.uint8])
def test_take_rows_is_check_batch_of_the_gathered_rows(label_dtype):
    """`take_rows` of a checked batch equals `check_batch` of the same rows
    gathered raw, field for field and dtype for dtype, read-only too; only
    its bound is the whole batch's."""
    spec = MlpSpec(2, (4,), 3)
    rng = np.random.default_rng(5)
    raw = Dataset(rng.standard_normal((23, 2)), rng.integers(0, 3, 23).astype(label_dtype), 3)
    whole = network.check_batch(spec, raw)
    for idx in (rng.permutation(23)[:7], np.array([4]), np.arange(23)[::-1]):
        taken = network.take_rows(whole, idx)
        checked = network.check_batch(spec, Dataset(raw.features[idx], raw.labels[idx], 3))
        assert type(taken) is network.CheckedBatch and taken.spec is spec
        for name in ("features", "labels", "index", "one_hot"):
            got, want = getattr(taken, name), getattr(checked, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
            assert not got.flags.writeable
        assert taken.bound == whole.bound >= checked.bound
        assert network.check_batch(spec, taken) is taken
    for idx in (np.array([], dtype=int), np.zeros((2, 2), dtype=int)):
        with pytest.raises(ShapeError):
            network.take_rows(whole, idx)


def _outcome(evaluate, spec, points, batch):
    """What `evaluate` returns, as a list of arrays, or the NumericError it
    raises, as its message."""
    with np.errstate(all="ignore"):
        try:
            result = evaluate(spec, points, batch)
        except NumericError as error:
            return str(error)
    return [np.asarray(part) for part in (result if isinstance(result, tuple) else (result,))]


def _bytes(outcome):
    return outcome if isinstance(outcome, str) else [part.tobytes() for part in outcome]


@pytest.mark.parametrize("scale, raises", [(1e100, None), (1e150, "dense2"), (1e200, "dense1")])
def test_a_stack_with_one_huge_row(scale, raises):
    """Params of 1e100 keep every layer finite, though their bound proves
    nothing for layer 2; its scan passes, and every row of the stack gets
    its single-call bytes. At 1e150 layer 2 overflows, and at 1e200
    (whose sum of squares overflows) layer 1: the stack raises there, as the
    huge row alone does."""
    spec, params, batch = pin_case("relu", "softmax_ce", 3, 2)
    huge = scale * params
    rows = np.stack([params, huge, -params])
    for evaluate in (network.forward, network.loss_and_grad, network.accuracy,
                     network.loss_and_accuracy):
        stacked = _outcome(evaluate, spec, rows, batch)
        if raises:
            assert stacked == _outcome(evaluate, spec, huge, batch)
            assert isinstance(stacked, str) and raises in stacked
            continue
        for k, row in enumerate(rows):
            assert [part[k].tobytes() for part in stacked] == \
                _bytes(_outcome(evaluate, spec, row, batch))


def test_ordinary_params_scan_no_activation(monkeypatch):
    """With ordinary params and features every layer's output is proven
    finite, so `_finite` only ever sees a stack's (K,) losses."""
    seen = []
    real = network._finite

    def counting(a):
        seen.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(network, "_finite", counting)
    for case in (("relu", "softmax_ce", 3, 2), ("tanh", "mse", 10, 2),
                 ("tanh", "softmax_ce", 2, 2, "wide")):
        spec, params, batch = pin_case(*case)
        rows = np.stack([params, 0.5 * params, -params])
        for evaluate in (network.forward, network.loss_and_grad, network.accuracy,
                         network.loss_and_accuracy):
            evaluate(spec, params, batch)
            evaluate(spec, rows, batch)
    assert seen and set(seen) == {(3,)}


_any_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([1e308, -1e308, 1.3407807929942596e154, 5e-324, -0.0]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=9),
       bad=st.sampled_from([np.inf, -np.inf, np.nan]))
def test_bound_covers_every_entry_or_rejects_the_array(data, shape, bad):
    """`_bound` is at least every |entry| of a finite array (or inf), warns
    of nothing, and raises for an array holding an inf or NaN anywhere."""
    a = data.draw(hnp.arrays(np.float64, shape, elements=_any_finite))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = network._bound(a, "a")
        assert a.size == 0 or bound >= np.abs(a).max()
        if a.size:
            a.flat[data.draw(st.integers(0, a.size - 1))] = bad
            with pytest.raises(NumericError, match="a"):
                network._bound(a, "a")


@settings(max_examples=80, deadline=None)
@given(activation=st.sampled_from(["relu", "tanh"]), head=st.sampled_from(["softmax_ce", "mse"]),
       w_exp=st.integers(-60, 700), x_exp=st.integers(-60, 700), seed=st.integers(0, 3))
def test_proof_keeps_the_verdict_and_bytes_of_scanning_every_layer(activation, head, w_exp,
                                                                   x_exp, seed):
    """Params and features scaled by 2^w_exp and 2^x_exp give the outcome,
    bytes or the NumericError, of the same call with every layer scanned."""
    spec = MlpSpec(3, (6, 5), 3, activation, head)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        rows = np.ldexp(rng.standard_normal((2, spec.param_count)), w_exp)
        batch = Dataset(np.ldexp(rng.standard_normal((7, 3)), x_exp), rng.integers(0, 3, 7), 3)
    calls = [(evaluate, points) for evaluate in (network.forward, network.loss_and_grad,
                                                 network.loss_and_accuracy, network.accuracy)
             for points in (rows[0], rows)]
    proven = [_bytes(_outcome(evaluate, spec, points, batch)) for evaluate, points in calls]
    with mock.patch.object(network, "_SCAN_FROM", 0.0):
        scanned = [_bytes(_outcome(evaluate, spec, points, batch)) for evaluate, points in calls]
    assert proven == scanned
