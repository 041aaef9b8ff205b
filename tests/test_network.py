import gc
import hashlib
import itertools

import numpy as np
import pytest

from samlab import autodiff as ad
from samlab import network
from samlab.data import gen_two_moons
from samlab.errors import LayoutError, NumericError, ShapeError
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


# (hidden widths, rows) per pin case size. The "wide" hidden layers and their
# reverse-pass gradients (200 x 128 and 200 x 96) are at least
# autodiff.REUSE_MIN_ELEMENTS, so they go through the reused buffers; every
# "small" array stays below it. A "mid" array (120 x 64, 120 x 48) is below
# it alone and above it in a stack of 3.
PIN_SIZES = {"small": ((5, 4), 40), "mid": ((64, 48), 120), "wide": ((128, 96), 200)}


def pin_case(activation, head, n_classes, depth, size="small"):
    """A fixed 3-input model and batch, with some -0.0 weights and features."""
    hidden, rows = PIN_SIZES[size]
    rng = np.random.default_rng([n_classes, depth])
    spec = MlpSpec(3, hidden[:depth], n_classes, activation, head)
    params = network.init_params(spec, rng).data
    params[::7] = -0.0
    features = rng.standard_normal((rows, 3))
    features[::5, 0] = -0.0
    return spec, params, Batch(features, rng.integers(0, n_classes, rows))


# (activation, head, classes, depth): (float.hex of the loss, sha256[:16] of the
# gradient bytes, float.hex of the accuracy). Any rewrite of the kernel that
# moves a single output byte fails here. Taken with numpy 2.4 and its bundled
# OpenBLAS on x86-64; another BLAS build may round a matmul differently.
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
        result = network.loss_and_grad_rows(spec, np.stack(rows), batch)
        losses = network.forward_rows(spec, np.stack(rows), batch)
        test_losses, accuracies = network.loss_and_accuracy_rows(spec, np.stack(rows), batch)
        got = [(float(result.value[k]).hex(), _digest(result.gradient[k]),
                float(accuracies[k]).hex()) for k in range(3)]
        assert got == want
        assert [float(v).hex() for v in losses] == [w[0] for w in want]
        assert [float(v).hex() for v in test_losses] == [w[0] for w in want]


def test_one_row_stack_is_the_2d_call():
    spec, params, batch = pin_case("tanh", "softmax_ce", 3, 2)
    result = network.loss_and_grad_rows(spec, params[None, :], batch)
    assert result.value.shape == (1,) and result.gradient.shape == (1, params.size)
    assert (float(result.value[0]).hex(), _digest(result.gradient[0])) == \
        PINNED_KERNEL_BYTES[("tanh", "softmax_ce", 3, 2)][:2]


@pytest.mark.parametrize("size", ["mid", "wide"])
def test_single_and_stacked_calls_keep_their_bytes_interleaved(size, monkeypatch):
    """Single and stacked calls use separate buffer slots, and neither moves
    a byte of the other, in any order."""
    spec, params, batch = pin_case("tanh", "mse", 3, 2, size)
    rows = np.stack([params, 0.5 * params, -params])
    rows_sizes = [rows.shape[0] * batch.features.shape[0] * h for h in spec.hidden]
    assert min(rows_sizes) >= ad.REUSE_MIN_ELEMENTS
    singles = [_single_bytes(spec, row, batch) for row in rows]
    stacked = network.loss_and_grad_rows(spec, rows, batch)
    stacked_bytes = (stacked.value.tobytes(), stacked.gradient.tobytes())

    slots = {}
    for name, call in (("single", lambda: network.loss_and_grad(spec, params, batch)),
                       ("stacked", lambda: network.loss_and_grad_rows(spec, rows, batch))):
        monkeypatch.setattr(ad, "_buffers", {})
        call()
        slots[name] = set(ad._buffers)
    assert slots["stacked"] and not slots["single"] & slots["stacked"]
    monkeypatch.undo()

    for k in (0, 1, 2, 1, 0):
        again = network.loss_and_grad_rows(spec, rows, batch)
        assert (again.value.tobytes(), again.gradient.tobytes()) == stacked_bytes
        assert _single_bytes(spec, rows[k], batch) == singles[k]


def test_stacked_rows_reject_a_quadratic_spec_and_bad_shapes():
    spec, params, batch = pin_case("relu", "mse", 2, 0)
    with pytest.raises(ShapeError):
        network.loss_and_grad_rows(QuadraticSpec((1.0, 1.0)), np.zeros((2, 2)), batch)
    with pytest.raises(ShapeError):
        network.loss_and_grad_rows(spec, params, batch)
    bad = np.stack([params, params])
    bad[1, 0] = np.inf
    with pytest.raises(NumericError):
        network.forward_rows(spec, bad, batch)


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
        network.predict_logits(spec, p, batch.features)
    after = (params, vector.data, batch.features, batch.labels)
    for old, new in zip(before, after):
        assert old.tobytes() == new.tobytes()


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_large_results_survive_later_calls(activation):
    """Returned arrays never alias a reused buffer, and a buffer grown or
    shrunk between calls gives every call its own bytes."""
    # 3,000 rows x 10 classes is above the reuse limit, so logits that were
    # written into a buffer would change under the second call.
    spec, params, _ = pin_case(activation, "mse", 10, 2, "wide")
    other = network.init_params(spec, np.random.default_rng(9)).data
    rng = np.random.default_rng(4)
    batches = {n: Batch(rng.standard_normal((n, 3)), rng.integers(0, 10, n)) for n in (200, 3000)}
    big = batches[3000]
    result = network.loss_and_grad(spec, params, big)
    logits = network.predict_logits(spec, params, big.features)
    kept = result.gradient.tobytes(), logits.tobytes()
    network.loss_and_grad(spec, other, big)
    network.predict_logits(spec, other, big.features)
    assert (result.gradient.tobytes(), logits.tobytes()) == kept

    def outputs(b):
        result = network.loss_and_grad(spec, params, b)
        return (network.forward(spec, params, b), result.value, result.gradient.tobytes(),
                network.predict_logits(spec, params, b.features).tobytes(),
                network.loss_and_accuracy(spec, params, b))

    first = {}
    for n in (3000, 200, 3000, 200):
        assert first.setdefault(n, outputs(batches[n])) == outputs(batches[n])
