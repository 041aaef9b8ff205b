"""Model specifications and loss/gradient evaluation.

Two model families are supported:

* `MlpSpec` — a dense multilayer perceptron (affine layers with relu or tanh
  activations) under a softmax-cross-entropy or mean-squared-error head.
* `QuadraticSpec` — a data-free diagonal quadratic bowl over its own
  parameters, used as an analytically tractable test surface for optimizers
  and sharpness probes.

`loss_and_grad` is a pure function of (spec, flat params, batch): one forward
loop over the layers, the head, and the hand-derived reverse pass in
`autodiff`.

A batch is checked once, not on every call. `check_batch` checks that the
features are (n, in_width) and finite and that the labels are n integers in
[0, out_width), all before any compute, and precomputes what the head reads
from the labels (the flat index of each label's logit and the one-hot
targets). It keeps read-only copies of the arrays, so no later write by the
caller can make a checked batch wrong, and a check that held once holds for
the object's lifetime. Every entry point below calls `check_batch` first,
which returns a batch already checked for an equal spec as it is: an
optimizer step checks its minibatch once for all its points, a training run
its two split batches once (its minibatches are `take_rows` of the checked
train split, which need no check again), and a probe its batch once. The
parameters change from call to call, so they are still checked on every
call.

Each layer's output is proven finite, not scanned. The one pass that checks
the params (or the features) is the dot s of the array with itself, which
is finite exactly when every entry is; then every entry is at most √s in
magnitude (`_bound`). A layer's output x @ w + b is then at most
(fan_in · X + 1) · W in magnitude, where W bounds the params and X the
layer's input: the features' bound for layer 0, the previous layer's bound
after relu, and 1 after tanh. Where that bound is below 2^1000, far below
float64's overflow at 2^1024 with room for every rounding, the output is
finite and is not read; only where it is not (params or features of
astronomical size, or a dot that overflowed) is the output scanned, as
every layer's was before. So exactly the calls that a scan of every layer
would reject raise `NumericError("dense<i>")`: tanh would map an overflow
to +-1 and relu a -inf to 0, so a check after the activation would not do.

Every entry point takes one parameter vector or a stack of K of them: a
`ParameterVector` or a (P,) array gives scalar results, a (K, P) array
per-row arrays, (K,) losses and accuracies and (K, P) gradients. The stack
is how a sweep's runs step in lockstep, how training scores them on the
test split after its last epoch and how the probes evaluate their
independent points, at most `rows_per_call(spec, batch)` rows a call. In a
stack every array has a leading row axis: weights (K, fan_in, fan_out),
activations (K, n, width), and the shared features broadcast against them.
Matmuls and sums run over the trailing axes, and numpy computes each row of
a stacked matmul with the BLAS call of the 2-D one, so row k of every
result is byte for byte the call on row k alone, whatever K, one too. A
call takes its params as given, and a vector runs through the 2-D arrays,
which cost less than a stack of one, so `optimizers.lockstep` passes a lone
point as a vector. A quadratic's rows take the same reductions over their
last axis, so the probes' closed-form tests run their stacked path.

Every call is one pass over its whole batch, a single row's too. So the
budget bounds only how many rows a caller stacks, and with each stacked row
its lone call's bytes, no value of it can move an output byte. A loss-only
call (`forward`, `loss_and_accuracy`, `accuracy`) gets `loss_and_grad`'s
loss to the bit on every shape; it checks that loss, so `accuracy` raises
`NumericError(head)` where the loss is not finite.

Every array a call makes is its own and dies with the call, or is returned.
No buffer is shared between calls, so several threads may call the kernel at
once. Within `loss_and_grad` the reverse pass (`autodiff.backward`) frees
each hidden activation as soon as its derivative has been applied, and a
relu layer's input gradient reuses its activation's buffer. So one call's
peak heap, in stacked activations (rows x batch rows x widest layer x 8
bytes), is about 1.4 on a 2-32-2 relu model at 4 x 500 rows and 2.5 (relu)
or 3.3 (tanh) on a 16-128-128-8 model at one 1,000-row batch, and
`tests/test_network.py` holds it to 1.5, 2.75 and 3.5. A freed array's
memory goes back to the heap and the next call reuses it with no page
faults, as long as glibc's malloc keeps large arrays off `mmap`:
`harness.setup_process` sets its thresholds so.

At the small shapes of a `compare` sweep (a 2-32-2 model, batch 32) one
call does a few thousand multiply-adds through about 70 numpy calls, so its
cost is almost all fixed dispatch, about 1 us per numpy call. So the kernel
keeps the straight-line forms: one numpy call where a method wrapper
(`.all()`, `.sum`) or a copy plus a call would do the same, a vector sliced
without `...`, and no row axis for one vector. At the probes' shapes (4
stacked rows on 500 examples) a call's time goes on whole passes over its
activations instead, so a loss-only call normalises only each example's
picked log-probability, not all of them.

Outputs are byte-stable, and the kernel keeps two rules so that a faster form
of a step cannot move a byte. A reduction keeps numpy's own summation order
(`_fold` replaces a short-axis reduce only where the order is the same), and
each runs over one contiguous row, never over a transposed gather. An
in-place op writes only to an array the call itself allocated, and whose
old values nothing reads again (an affine output before its activation, the
head's shifted logits, an activation once its derivative is taken), never to
the caller's params, features or labels.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from . import autodiff as ad
from .errors import LayoutError, NumericError, ShapeError
from .params import LayoutEntry, ParameterVector


class LossGradient(NamedTuple):
    """Scalar loss plus its exact gradient (flat, float64); for a stack of
    parameter rows, (K,) losses and (K, P) gradients."""

    value: float
    gradient: np.ndarray


ACTIVATIONS = ("relu", "tanh")
HEADS = ("softmax_ce", "mse")


@dataclass(frozen=True)
class MlpSpec:
    """Dense MLP: in_width -> hidden... -> out_width with the given head."""

    in_width: int
    hidden: tuple = ()
    out_width: int = 2
    activation: str = "relu"   # relu | tanh
    head: str = "softmax_ce"   # softmax_ce | mse

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.in_width < 1 or self.out_width < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("all layer widths must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}")

    @property
    def widths(self) -> tuple:
        return (self.in_width,) + self.hidden + (self.out_width,)

    # The kernel reads these on every call. A spec is frozen, so each is
    # derived once and then kept on the instance, with no hashed lookup.
    @functools.cached_property
    def layers(self) -> tuple:
        """(weight slice, weight shape, bias slice) of each affine layer in
        the flat parameters, as `param_layout` places them: the forward
        pass, `autodiff.backward` and `init_params` all read the layout
        here."""
        layout = param_layout(self)
        return tuple((slice(w.offset, w.offset + w.size), w.shape, slice(b.offset, b.offset + b.size))
                     for w, b in zip(layout[::2], layout[1::2]))

    @functools.cached_property
    def param_count(self) -> int:
        last = param_layout(self)[-1]
        return last.offset + last.size


@dataclass(frozen=True)
class QuadraticSpec:
    """L(w) = offset + 0.5 * sum_i diag[i] * w[i]^2; ignores the batch."""

    diag: tuple = (1.0, 1.0)
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "diag", tuple(float(d) for d in self.diag))
        if len(self.diag) < 1:
            raise ValueError("quadratic needs at least one coefficient")

    @property
    def param_count(self) -> int:
        return len(self.diag)


ModelSpec = Union[MlpSpec, QuadraticSpec]

# Elements of one stacked activation (rows x batch rows x widest layer) that
# every caller stacking parameter rows keeps to: 2**16 float64 values, 512 KiB.
STACK_ELEMENTS = 2 ** 16


def rows_per_call(spec: ModelSpec, batch) -> int:
    """How many parameter rows one stacked call may take on `batch`: K =
    STACK_ELEMENTS // (widest layer x batch rows), at least 1, so a single
    row is always one pass. It reads the budget at each call, never a cached
    value, so a changed budget holds at once. A quadratic has no
    activations, so its rows themselves are counted.

    The widest layer counts the input width too, though a call holds no
    (rows x batch rows x input width) activation: the stack's (K, P)
    gradients and K parameter rows grow with it. Without it a 784-64-10
    model would stack K = 32 rows at batch 32, where it now stacks 2, and
    their gradients alone would take 32 x 50,890 x 8 bytes, about 13 MB.
    """
    if isinstance(spec, QuadraticSpec):
        return max(1, STACK_ELEMENTS // len(spec.diag))
    return max(1, STACK_ELEMENTS // (max(spec.widths) * batch.features.shape[0]))


def passes(spec: ModelSpec, batch, n: int) -> list:
    """The row slices of the stacked calls that evaluate n points on `batch`,
    `rows_per_call(spec, batch)` rows each but the last."""
    k = rows_per_call(spec, batch)
    return [slice(i, min(i + k, n)) for i in range(0, n, k)]


@functools.lru_cache
def param_layout(spec: ModelSpec) -> tuple:
    """Derive the flat parameter layout for a model spec (specs are frozen,
    so the layout is computed once per spec)."""
    if isinstance(spec, QuadraticSpec):
        return (LayoutEntry("coords", (len(spec.diag),), 0),)
    entries = []
    offset = 0
    widths = spec.widths
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        entries.append(LayoutEntry(f"dense{i}.weight", (fan_in, fan_out), offset))
        offset += fan_in * fan_out
        entries.append(LayoutEntry(f"dense{i}.bias", (fan_out,), offset))
        offset += fan_out
    return tuple(entries)


def param_count(spec: ModelSpec) -> int:
    return spec.param_count


def init_params(spec: ModelSpec, rng: np.random.Generator) -> ParameterVector:
    """Initialize parameters: scaled-normal weights, zero biases.

    Weight scale is sqrt(2/fan_in) for relu and sqrt(1/fan_in) for tanh.
    Quadratic models start at all-ones (a generic off-minimum point).
    """
    layout = param_layout(spec)
    if isinstance(spec, QuadraticSpec):
        return ParameterVector(np.ones(len(spec.diag)), layout)
    flat = np.zeros(param_count(spec), dtype=np.float64)
    gain = 2.0 if spec.activation == "relu" else 1.0
    for w_slice, w_shape, _ in spec.layers:
        flat[w_slice] = (rng.standard_normal(w_shape) * np.sqrt(gain / w_shape[0])).reshape(-1)
    return ParameterVector(flat, layout)


class CheckedBatch(NamedTuple):
    """A batch that `check_batch` has checked for one MLP spec.

    The arrays are read-only copies, so the checks hold for the object's
    lifetime. `index` and `one_hot` are what the heads read from the labels:
    the flat index arange(n) * out_width + labels into the (n, out_width)
    logits, and the one-hot targets. `bound` is at least every |feature|
    (see `_bound`).
    """

    features: np.ndarray
    labels: np.ndarray
    spec: MlpSpec
    index: np.ndarray
    one_hot: np.ndarray
    bound: float


# A layer output whose bound is below this is finite: the roundings in the
# bound and in the output's own sums add a relative error of about
# fan_in * 2^-53, far below the factor 2^24 between this and float64's
# overflow at 2^1024.
_SCAN_FROM = 2.0 ** 1000


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of the float64 array `a` is finite."""
    return np.isfinite(a).all()


def _bound(a: np.ndarray, what: str) -> float:
    """A bound on every |entry| of the float64 array `a`, checking on the way
    that each entry is finite: raises NumericError(what) if one is not.

    The dot s = a . a is one BLAS pass, and it is finite exactly when every
    entry is (an inf or NaN squares to inf or NaN, and a sum of non-negative
    terms cannot cancel one). Rounding is monotonic, so s is at least the
    rounded square of the largest |entry| M, and in binary floating point the
    root of a rounded square is the number itself whenever the square is
    normal, as it is for M >= 1; so max(√s, 1) >= M. Where s overflows,
    each entry is scanned instead, and the bound of a finite array is inf.
    """
    s = np.vdot(a, a)
    if math.isfinite(s):
        return max(math.sqrt(s), 1.0)
    if not _finite(a):
        raise NumericError(what)
    return math.inf


def _sealed(features, labels, spec: MlpSpec, one_hot, bound: float) -> CheckedBatch:
    """A `CheckedBatch` of already checked rows, with its label index, every
    array made read-only."""
    index = np.arange(labels.size) * spec.out_width + labels.astype(np.intp)
    for array in (features, labels, index, one_hot):
        array.flags.writeable = False
    return CheckedBatch(features, labels, spec, index, one_hot, bound)


def check_batch(spec: ModelSpec, batch):
    """`batch` checked for `spec`'s input width, class count and head, as a
    `CheckedBatch`; a batch already checked for an equal spec is returned as
    it is, and a quadratic, which ignores its batch, gets it back unchecked.

    `batch` is a `data.Dataset` or any object with `features` and `labels`.
    This is the one check of such a pair: features must be (n, in_width)
    with n >= 1 and finite, labels integers of shape (n,) in [0, out_width).
    Every kernel entry point calls this first, so a caller that evaluates
    one batch many times checks it once by passing the checked batch.
    """
    if type(batch) is CheckedBatch and (batch.spec is spec or batch.spec == spec):
        return batch
    if isinstance(spec, QuadraticSpec):
        return batch
    features = np.array(batch.features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != spec.in_width or not features.shape[0]:
        raise ShapeError("input", f"(n >= 1, {spec.in_width})", features.shape)
    bound = _bound(features, "batch features")
    n, n_classes = features.shape[0], spec.out_width
    labels = np.array(batch.labels)
    if labels.shape != (n,):
        raise ShapeError(spec.head, f"({n},) labels", labels.shape)
    if labels.dtype.kind not in "iu":
        raise ShapeError(spec.head, "integer labels", labels.dtype)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ShapeError(spec.head, f"labels in [0, {n_classes})",
                         f"labels in [{labels.min()}, {labels.max()}]")
    one_hot = np.zeros((n, n_classes), dtype=np.float64)
    one_hot[np.arange(n), labels] = 1.0
    return _sealed(features, labels, spec, one_hot, bound)


def take_rows(batch: CheckedBatch, idx) -> CheckedBatch:
    """Rows `idx` (a non-empty 1-D index) of a checked batch, checked: the
    gathered features, labels and one-hot targets with their own label
    index, as `check_batch` of the gathered raw rows would give, but with no
    entry checked again. The bound stays the whole batch's, which bounds a
    subset's features too.
    """
    labels = batch.labels[idx]
    if labels.ndim != 1 or labels.size == 0:
        raise ShapeError("take_rows", "a non-empty 1-D row index", labels.shape)
    return _sealed(batch.features[idx], labels, batch.spec, batch.one_hot[idx], batch.bound)


def _check_params(spec: ModelSpec, params) -> tuple:
    """The parameters as a contiguous float64 array, one vector (P,) or a
    stack of rows (K, P), checked before any compute; and their `_bound`,
    one for every row."""
    flat = params.data if isinstance(params, ParameterVector) else np.asarray(params, dtype=np.float64)
    expected = spec.param_count
    if flat.ndim not in (1, 2):
        raise ShapeError("params", f"({expected},) or (K, {expected})", flat.shape)
    if flat.shape[-1] != expected:
        raise LayoutError(
            f"parameter count mismatch: model expects {expected}, got {flat.shape[-1]}",
            expected_count=expected,
            found_count=flat.shape[-1],
        )
    flat = np.ascontiguousarray(flat)
    return flat, _bound(flat, "params")


def _per_row(flat: np.ndarray, value):
    """A result with one value per parameter row: a float for one vector, a
    (K,) array for a stack."""
    return float(value) if flat.ndim == 1 else np.asarray(value).reshape(-1)


def _mlp_pass(spec: MlpSpec, flat: np.ndarray, features: np.ndarray, w_bound: float,
              x_bound: float):
    """Forward pass to the head inputs.

    `flat` is one parameter vector (P,) or a stack of rows (K, P); the
    features (n, d), already checked, are shared by every row. `w_bound`
    bounds every |entry| of `flat` and `x_bound` every |feature|; inf means
    no bound is known. Returns (inputs, weights, logits): the input of every
    affine layer, its weight view into `flat`, and the last layer's output,
    (n, out) or (K, n, out). Each affine output is proven finite from its
    bound, or scanned where the bound proves nothing.
    """
    layers = spec.layers
    n_layers = len(layers)
    lead = flat.shape[:-1]
    inputs, weights = [], []
    x = features
    bound = x_bound
    for i, (w_slice, w_shape, b_slice) in enumerate(layers):
        if lead:
            w = flat[:, w_slice].reshape(lead + w_shape)
            b = flat[:, None, b_slice]
        else:
            w = flat[w_slice].reshape(w_shape)
            b = flat[b_slice]
        inputs.append(x)
        weights.append(w)
        x = x @ w
        x += b
        # |x @ w + b| <= fan_in * bound * w_bound + w_bound; a NaN bound
        # (0 * inf) is not below the limit either.
        bound = (w_shape[0] * bound + 1.0) * w_bound
        if not bound < _SCAN_FROM and not _finite(x):
            raise NumericError(f"dense{i}")
        if i < n_layers - 1:
            if spec.activation == "relu":
                np.maximum(x, 0.0, out=x)
            else:
                np.tanh(x, out=x)
                bound = 1.0
    return inputs, weights, x


def _fold(ufunc, a: np.ndarray) -> np.ndarray:
    """`ufunc.reduce(a, axis=-1, keepdims=True)`, byte for byte.

    numpy reduces a short last axis with one inner-loop call per row; a few
    whole-column ufunc calls do the same work at a fraction of the cost. The
    fold combines the columns left to right, which is numpy's own order for
    fewer than 8 elements; from 8 on numpy adds pairwise, so wide arrays keep
    `ufunc.reduce`. Like numpy, the fold starts from the ufunc's identity if
    it has one (add: 0.0, so a row of -0.0 sums to +0.0).
    """
    width = a.shape[-1]
    if width >= 8:
        return ufunc.reduce(a, axis=-1, keepdims=True)
    # The first call makes the new array: the identity with column 0, or
    # columns 0 and 1.
    if ufunc.identity is not None:
        out, start = ufunc(ufunc.identity, a[..., :1]), 1
    elif width > 1:
        out, start = ufunc(a[..., :1], a[..., 1:2]), 2
    else:
        return a.copy()
    for j in range(start, width):
        ufunc(out, a[..., j:j + 1], out=out)
    return out


def _finite_loss(spec: MlpSpec, loss):
    """The head's mean loss, a float for 2-D logits or a (K,) array for a
    stack, once it is checked finite."""
    if isinstance(loss, np.ndarray):
        if not _finite(loss):
            raise NumericError(spec.head)
        return loss
    if not math.isfinite(loss):
        raise NumericError(spec.head)
    return float(loss)


def _softmax_parts(logits: np.ndarray) -> tuple:
    """The logits less each example's max, and the log of each example's sum
    of their exps, (..., n, 1): a log-probability is the first less the
    second."""
    shifted = logits - _fold(np.maximum, logits)
    return shifted, np.log(_fold(np.add, np.exp(shifted)))


def _labelled(a: np.ndarray, batch: CheckedBatch) -> np.ndarray:
    """Each example's entry of `a` (..., n, out) at its label, (..., n).

    `take` along the last axis gathers each row's picked entries into one
    contiguous row, so each later sum runs over one contiguous row, as in a
    2-D call (a fancy index of a stack would come out transposed, and numpy
    would sum it in another order).
    """
    return a.reshape(a.shape[:-2] + (-1,)).take(batch.index, axis=-1)


def _mean_loss(spec: MlpSpec, terms: np.ndarray):
    """The head's mean loss from every example's terms (`_loss_terms`): a
    float, or a (K,) array for a stack. np.add.reduce(v) / v.size is
    np.mean's own arithmetic, without its overhead, and each row's sum runs
    over one contiguous row."""
    if spec.head == "softmax_ce":
        return _finite_loss(spec, -(np.add.reduce(terms, axis=-1) / terms.shape[-1]))
    n, n_classes = terms.shape[-2:]
    return _finite_loss(spec, np.add.reduce(terms.reshape(terms.shape[:-2] + (-1,)), axis=-1)
                        / (n * n_classes))


def _loss_terms(spec: MlpSpec, logits: np.ndarray, batch: CheckedBatch) -> np.ndarray:
    """Each example's terms of the head's mean loss on a checked batch: its
    log-probability at its label (..., n) under softmax_ce, its squared
    residuals (..., n, out) under mse.

    Only the n picked log-probabilities are formed: the label's shifted
    logit less the log of the sum, the same subtraction on the same operands
    as `_head`'s full log-probabilities, so the same bytes.
    """
    if spec.head == "softmax_ce":
        shifted, log_sum = _softmax_parts(logits)
        picked = _labelled(shifted, batch)
        picked -= log_sum.reshape(picked.shape)
        return picked
    return (logits - batch.one_hot) ** 2


def _head(spec: MlpSpec, logits: np.ndarray, batch: CheckedBatch) -> tuple:
    """Mean loss of the head, as `_mean_loss`, and its gradient w.r.t. the
    logits."""
    n, n_classes = logits.shape[-2:]
    if spec.head == "softmax_ce":
        log_probs, log_sum = _softmax_parts(logits)
        log_probs -= log_sum
        loss = _mean_loss(spec, _labelled(log_probs, batch))
        # p - one_hot: each label's entry less 1.0, every other entry less
        # 0.0, which leaves its bytes as they are.
        probs = np.exp(log_probs)
        probs -= batch.one_hot
        probs /= n
        return loss, probs
    residual = logits - batch.one_hot
    return _mean_loss(spec, residual ** 2), (2.0 / (n * n_classes)) * residual


def _loss_only(spec: MlpSpec, flat: np.ndarray, w_bound: float, batch: CheckedBatch,
               hits: bool) -> tuple:
    """The mean loss of a loss-only call on a checked batch, and each
    example's argmax hit (..., n) if `hits` (else None), from one pass over
    the whole batch, as `loss_and_grad` makes."""
    logits = _mlp_pass(spec, flat, batch.features, w_bound, batch.bound)[2]
    return (_mean_loss(spec, _loss_terms(spec, logits, batch)),
            np.argmax(logits, axis=-1) == batch.labels if hits else None)


def _quadratic(spec: QuadraticSpec, flat: np.ndarray) -> LossGradient:
    diag = np.asarray(spec.diag)
    loss = np.add.reduce(flat * flat * (0.5 * diag), axis=-1)
    if spec.offset != 0.0:  # adding 0.0 would turn a -0.0 loss into 0.0
        loss = loss + spec.offset
    if not _finite(loss):
        raise NumericError("quadratic_loss")
    return LossGradient(_per_row(flat, loss), diag * flat)


def forward(spec: ModelSpec, params, batch):
    """Mean loss of the model on a batch (cross-entropy or MSE per spec): a
    float, or a (K,) array for a stack of K parameter rows."""
    batch = check_batch(spec, batch)
    flat, bound = _check_params(spec, params)
    if isinstance(spec, QuadraticSpec):
        return _quadratic(spec, flat).value
    return _per_row(flat, _loss_only(spec, flat, bound, batch, False)[0])


def loss_and_grad(spec: ModelSpec, params, batch) -> LossGradient:
    """Loss and its exact gradient w.r.t. the flat parameters; for a stack,
    (K,) losses and (K, P) gradients."""
    batch = check_batch(spec, batch)
    flat, bound = _check_params(spec, params)
    if isinstance(spec, QuadraticSpec):
        return _quadratic(spec, flat)
    inputs, weights, logits = _mlp_pass(spec, flat, batch.features, bound, batch.bound)
    loss, d_logits = _head(spec, logits, batch)
    grad = ad.backward(spec.activation, spec.layers, inputs, weights, d_logits)
    return LossGradient(_per_row(flat, loss), grad.reshape(flat.shape))


def _require_mlp(spec: ModelSpec, where: str) -> None:
    if isinstance(spec, QuadraticSpec):
        raise ShapeError(where, "an MLP spec", "QuadraticSpec")


def accuracy(spec: MlpSpec, params, batch):
    """Fraction of batch examples whose argmax output matches the label: a
    float, or a (K,) array for a stack: `loss_and_accuracy`'s second value."""
    _require_mlp(spec, "accuracy")
    return loss_and_accuracy(spec, params, batch)[1]


def loss_and_accuracy(spec: MlpSpec, params, batch) -> tuple:
    """(`forward`, `accuracy`) of one batch from a single forward pass."""
    _require_mlp(spec, "loss_and_accuracy")
    batch = check_batch(spec, batch)
    flat, bound = _check_params(spec, params)
    loss, hits = _loss_only(spec, flat, bound, batch, True)
    return _per_row(flat, loss), _per_row(flat, np.mean(hits, axis=-1))
