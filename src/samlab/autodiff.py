"""Hand-derived reverse pass of the dense MLP in `network`.

The model has one shape: affine layers `x @ w + b` with relu or tanh between
them, then a loss head. Its gradient is a single loop over the layers in
reverse order, so no graph is built.

The pass consumes what the forward pass already computed: each layer's input
and its weight view into the flat parameter array. It writes each layer's
gradient into the weight and bias slices of the spec's `layers`, so where a
parameter sits in the flat vector is decided by `network.param_layout`
alone. A layer's input is the previous layer's activation output `a`, and
both derivatives are written in terms of it: relu'(z) = (a > 0) and
tanh'(z) = 1 - a**2.

The pass keeps each hidden activation only until its derivative has been
applied, and lets the caller's list of them go as it goes. A relu layer's
derivative is a one-byte mask, and its input gradient is written over the
activation itself, so a relu pass makes no activation-sized float array of
its own; a tanh layer's input gradient is a fresh array, and the activation
is freed once 1 - a**2 has been applied to it. The gradient is the one array
that outlives the call. Freed heap memory is reused by the next call with no
page faults, as long as glibc's malloc keeps large arrays off `mmap`, which
`harness.setup_process` arranges.

At small shapes each numpy call costs more than its arithmetic, so every
gradient slice is written once, straight from its sum or product, into one
uninitialized gradient, and one `+ 0.0` over the whole of it then gives the
bytes a zero-filled accumulator would.

A bias gradient sums the layer's output gradient d over its example rows.
`np.add.reduce(d, axis=-2)` runs one inner loop across the units per example
row, so each unit's sum adds the rows in order, one after another; at the
probes' shapes that is thousands of short loops. `np.einsum("...ij->...j",
d)` adds the rows in the same order, each unit's sum in its own lane, and at
4 x 500 rows by 32 units it took 19-25 us against 52 us (host in `network`).
So on a call of at least `LONG_ROWS` example rows (over all stacked rows)
each bias gradient of width 2 or more is the einsum; on 5,517 random shapes
of width 2-12 and 1-1,500 rows it matched add.reduce byte for byte. Width 1
keeps add.reduce: there the unit axis drops out, add.reduce sums the column
pairwise and einsum in SIMD lanes, and their bytes differed on 455 of 483
random shapes.
"""

import numpy as np

# From this many example rows in one call (stacked parameter rows x batch
# rows), the kernel's narrow broadcasts and bias-gradient sums take their
# long-loop forms (see `network`); on fewer, numpy's plain forms cost less.
LONG_ROWS = 256


def backward(activation: str, layers, inputs, weights, d_logits: np.ndarray) -> np.ndarray:
    """Flat gradient of the loss w.r.t. the MLP parameters.

    `layers` is the spec's `layers`: each affine layer's (weight slice,
    weight shape, bias slice) in the flat parameters, as
    `network.param_layout` places them; the gradient ends where the last
    layer's bias does. `inputs[i]` is the input of affine layer i and
    `weights[i]` its weight matrix; `d_logits` is the loss gradient w.r.t.
    the last layer's output.

    A stacked pass (`d_logits` of shape (K, n, out), weights (K, fan_in,
    fan_out)) gives a (K, P) gradient, one row per parameter row; every
    matmul and sum runs on the trailing two axes, so each row gets the bytes
    of its own 2-D pass. `inputs[0]`, the caller's features, may stay 2-D.

    `inputs[1:]` must be the forward pass's own activations: the pass
    overwrites each (with the layer's input gradient or its derivative) and
    sets its list entry to None once it has used it. `inputs[0]` is only
    read.
    """
    lead = d_logits.shape[:-2]
    grad = np.empty(lead + (layers[-1][2].stop,))
    d = d_logits
    long_rows = d.size >= LONG_ROWS * d.shape[-1]
    for i in range(len(layers) - 1, -1, -1):
        w_slice, w_shape, b_slice = layers[i]
        w = weights[i]
        x = inputs[i]
        # Each slice is written once, straight from its sum or product; the
        # weight slice's reshape splits its last axis, so it stays a view.
        # The bias sum is einsum's where that adds the rows in add.reduce's
        # order and costs less (module docstring).
        if long_rows and w_shape[1] > 1:
            np.einsum("...ij->...j", d, out=grad[..., b_slice])
        else:
            np.add.reduce(d, axis=-2, out=grad[..., b_slice])
        np.matmul(x.swapaxes(-1, -2), d, out=grad[..., w_slice].reshape(lead + w_shape))
        if i > 0:
            # Nothing reads the activation again once its derivative is
            # taken, so the list lets it go. The products equal (x > 0) * d,
            # the mask read as 1.0 or 0.0, and (1 - x**2) * d.
            inputs[i] = None
            if activation == "relu":
                mask = np.greater(x, 0.0)
                d = np.matmul(d, w.swapaxes(-1, -2), out=x)
                d *= mask
            else:
                d = d @ w.swapaxes(-1, -2)
                np.multiply(x, x, out=x)
                np.subtract(1.0, x, out=x)
                d *= x
    # Adding 0.0 turns a -0.0 entry into +0.0 and leaves every other entry's
    # bytes as they are, as the sums into a zero-filled gradient did.
    grad += 0.0
    return grad
