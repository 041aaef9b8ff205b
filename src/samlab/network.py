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

Large intermediates live in per-process buffers (`autodiff.scratch`): each
hidden layer's output and the reverse pass's layer gradients, once they reach
`autodiff.REUSE_MIN_ELEMENTS`, go into a buffer that is reused across calls
and kept at the largest size seen. So the kernel is not safe to call from two
threads at once; samlab's only parallelism is its process pool. Returned
arrays (logits, gradients) are always freshly allocated and never alias a
buffer.

Outputs are byte-stable, and the kernel keeps two rules so that a faster form
of a step cannot move a byte. A reduction keeps numpy's own summation order
(`_fold` replaces a short-axis reduce only where the order is the same). An
in-place op writes only to an array the call itself allocated or a buffer
it owns, and whose old values nothing reads again (an affine output before
its activation, the head's shifted logits), never to the caller's params,
features or labels.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from . import autodiff as ad
from .errors import LayoutError, NumericError, ShapeError
from .params import LayoutEntry, ParameterVector


class Batch(NamedTuple):
    """A slice of a dataset: float features (n, d) and integer labels (n,)."""

    features: np.ndarray
    labels: np.ndarray


class LossGradient(NamedTuple):
    """Scalar loss plus its exact gradient (flat, float64)."""

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


@dataclass(frozen=True)
class QuadraticSpec:
    """L(w) = offset + 0.5 * sum_i diag[i] * w[i]^2; ignores the batch."""

    diag: tuple = (1.0, 1.0)
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "diag", tuple(float(d) for d in self.diag))
        if len(self.diag) < 1:
            raise ValueError("quadratic needs at least one coefficient")


ModelSpec = Union[MlpSpec, QuadraticSpec]


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
    layout = param_layout(spec)
    return layout[-1].offset + layout[-1].size


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
    for entry in layout:
        if entry.name.endswith(".weight"):
            fan_in = entry.shape[0]
            std = np.sqrt(gain / fan_in)
            values = rng.standard_normal(entry.shape) * std
            flat[entry.offset:entry.offset + entry.size] = values.reshape(-1)
    return ParameterVector(flat, layout)


def _check_params(spec: ModelSpec, params) -> np.ndarray:
    flat = params.data if isinstance(params, ParameterVector) else np.asarray(params, dtype=np.float64)
    flat = flat.reshape(-1)
    expected = param_count(spec)
    if flat.shape[0] != expected:
        raise LayoutError(
            f"parameter count mismatch: model expects {expected}, got {flat.shape[0]}",
            expected_count=expected,
            found_count=flat.shape[0],
        )
    if not np.isfinite(flat).all():
        raise NumericError("params")
    return flat


def _mlp_pass(spec: MlpSpec, flat: np.ndarray, features):
    """Forward pass to the head inputs.

    Returns (inputs, weights, logits): the input of every affine layer, its
    (weight, bias) views into `flat`, and the last layer's output. Each affine
    output is checked for finiteness, because tanh maps an overflow to +-1.
    A large hidden layer's output is written into its buffer, which the next
    call overwrites; the logits are always a new array.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != spec.in_width:
        raise ShapeError("input", f"(n, {spec.in_width})", features.shape)
    if not np.isfinite(features).all():
        raise NumericError("batch features")
    layout = param_layout(spec)
    n_layers = len(layout) // 2
    inputs, weights = [], []
    x = features
    for i in range(n_layers):
        w_entry, b_entry = layout[2 * i], layout[2 * i + 1]
        w = flat[w_entry.offset:w_entry.offset + w_entry.size].reshape(w_entry.shape)
        b = flat[b_entry.offset:b_entry.offset + b_entry.size]
        inputs.append(x)
        weights.append((w, b))
        out = ad.scratch(("act", i), x.shape[0], w.shape[1]) if i < n_layers - 1 else None
        x = x @ w if out is None else np.matmul(x, w, out=out)
        x += b
        if not np.isfinite(x).all():
            raise NumericError(f"dense{i}")
        if i < n_layers - 1:
            if spec.activation == "relu":
                np.maximum(x, 0.0, out=x)
            else:
                np.tanh(x, out=x)
    return inputs, weights, x


def _one_hot(labels: np.ndarray, width: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], width), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _fold(ufunc, a: np.ndarray) -> np.ndarray:
    """`ufunc.reduce(a, axis=1, keepdims=True)` of a 2-D array, byte for byte.

    numpy reduces a short last axis with one inner-loop call per row; a few
    whole-column ufunc calls do the same work at a fraction of the cost. The
    fold combines the columns left to right, which is numpy's own order for
    fewer than 8 elements; from 8 on numpy adds pairwise, so wide arrays keep
    `ufunc.reduce`. Like numpy, the fold starts from the ufunc's identity if
    it has one (add: 0.0, so a row of -0.0 sums to +0.0).
    """
    if a.shape[1] >= 8:
        return ufunc.reduce(a, axis=1, keepdims=True)
    out = a[:, :1].copy()
    if ufunc.identity is not None:
        ufunc(ufunc.identity, out, out=out)
    for j in range(1, a.shape[1]):
        ufunc(out, a[:, j:j + 1], out=out)
    return out


def _head_loss(spec: MlpSpec, logits: np.ndarray, labels) -> tuple:
    """Mean loss of the head, and the array its logits gradient is built from
    (log-probabilities for softmax_ce, residuals for mse)."""
    labels = np.asarray(labels)
    n, n_classes = logits.shape
    if labels.shape != (n,):
        raise ShapeError(spec.head, f"({n},) labels", labels.shape)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ShapeError(spec.head, f"labels in [0, {n_classes})",
                         f"labels in [{labels.min()}, {labels.max()}]")
    # np.add.reduce(v) / v.size is np.mean's own arithmetic, without its overhead.
    if spec.head == "softmax_ce":
        basis = logits - _fold(np.maximum, logits)
        basis -= np.log(_fold(np.add, np.exp(basis)))
        loss = -(np.add.reduce(basis[np.arange(n), labels]) / n)
    else:
        basis = logits - _one_hot(labels, n_classes)
        loss = np.add.reduce(basis ** 2, axis=None) / basis.size
    if not math.isfinite(loss):
        raise NumericError(spec.head)
    return float(loss), basis


def _head(spec: MlpSpec, logits: np.ndarray, labels) -> tuple:
    """Mean loss of the head and its gradient w.r.t. the logits."""
    loss, basis = _head_loss(spec, logits, labels)
    n = logits.shape[0]
    if spec.head == "softmax_ce":
        probs = np.exp(basis)
        probs[np.arange(n), np.asarray(labels)] -= 1.0
        probs /= n
        return loss, probs
    return loss, (2.0 / basis.size) * basis


def _quadratic(spec: QuadraticSpec, flat: np.ndarray) -> LossGradient:
    diag = np.asarray(spec.diag)
    loss = np.sum(flat * flat * (0.5 * diag))
    if spec.offset != 0.0:  # adding 0.0 would turn a -0.0 loss into 0.0
        loss = loss + spec.offset
    if not np.isfinite(loss):
        raise NumericError("quadratic_loss")
    return LossGradient(float(loss), diag * flat)


def forward(spec: ModelSpec, params, batch) -> float:
    """Mean loss of the model on a batch (cross-entropy or MSE per spec)."""
    flat = _check_params(spec, params)
    if isinstance(spec, QuadraticSpec):
        return _quadratic(spec, flat).value
    _, _, logits = _mlp_pass(spec, flat, batch.features)
    return _head_loss(spec, logits, batch.labels)[0]


def loss_and_grad(spec: ModelSpec, params, batch) -> LossGradient:
    """Loss and its exact gradient w.r.t. the flat parameters."""
    flat = _check_params(spec, params)
    if isinstance(spec, QuadraticSpec):
        return _quadratic(spec, flat)
    inputs, weights, logits = _mlp_pass(spec, flat, batch.features)
    loss, d_logits = _head(spec, logits, batch.labels)
    return LossGradient(loss, ad.backward(spec.activation, inputs, weights, d_logits, flat.size))


def predict_logits(spec: MlpSpec, params, features: np.ndarray) -> np.ndarray:
    """Forward pass to the head inputs (no loss)."""
    if isinstance(spec, QuadraticSpec):
        raise ShapeError("predict_logits", "an MLP spec", "QuadraticSpec")
    return _mlp_pass(spec, _check_params(spec, params), features)[2]


def _accuracy(logits: np.ndarray, labels) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def accuracy(spec: MlpSpec, params, batch) -> float:
    """Fraction of batch examples whose argmax output matches the label."""
    return _accuracy(predict_logits(spec, params, batch.features), batch.labels)


def loss_and_accuracy(spec: MlpSpec, params, batch) -> tuple:
    """(`forward`, `accuracy`) of one batch from a single forward pass."""
    if isinstance(spec, QuadraticSpec):
        raise ShapeError("loss_and_accuracy", "an MLP spec", "QuadraticSpec")
    _, _, logits = _mlp_pass(spec, _check_params(spec, params), batch.features)
    return _head_loss(spec, logits, batch.labels)[0], _accuracy(logits, batch.labels)
