"""Hand-derived reverse pass of the dense MLP in `network`.

The model has one shape: affine layers `x @ w + b` with relu or tanh between
them, then a loss head. Its gradient is a single loop over the layers in
reverse order, so no graph is built.

The pass consumes what the forward pass already computed: each layer's input
and its weight view into the flat parameter array. A layer's input
is the previous layer's activation output `a`, and both derivatives are
written in terms of it: relu'(z) = (a > 0) and tanh'(z) = 1 - a**2.

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
"""

import numpy as np


def backward(activation: str, inputs, weights, d_logits: np.ndarray, size: int) -> np.ndarray:
    """Flat gradient of the loss w.r.t. the MLP parameters.

    `inputs[i]` is the input of affine layer i and `weights[i]` its weight
    matrix; `d_logits` is the loss gradient w.r.t. the last layer's
    output; `size` is the flat parameter count. Each layer stores its weight
    then its bias, layer after layer, so the slices are filled from the end.

    A stacked pass (`d_logits` of shape (K, n, out), weights (K, fan_in,
    fan_out)) gives a (K, size) gradient, one row per parameter row; every
    matmul and sum runs on the trailing two axes, so each row gets the bytes
    of its own 2-D pass. `inputs[0]`, the caller's features, may stay 2-D.

    `inputs[1:]` must be the forward pass's own activations: the pass
    overwrites each (with the layer's input gradient or its derivative) and
    sets its list entry to None once it has used it. `inputs[0]` is only
    read.
    """
    lead = d_logits.shape[:-2]
    grad = np.empty(lead + (size,))
    end = size
    d = d_logits
    for i in range(len(weights) - 1, -1, -1):
        w = weights[i]
        x = inputs[i]
        fan_in, fan_out = w.shape[-2:]
        # Each slice is written once, straight from its sum or product; the
        # weight slice's reshape splits its last axis, so it stays a view.
        np.add.reduce(d, axis=-2, out=grad[..., end - fan_out:end])
        end -= fan_out
        w_grad = grad[..., end - fan_in * fan_out:end].reshape(lead + (fan_in, fan_out))
        np.matmul(x.swapaxes(-1, -2), d, out=w_grad)
        end -= fan_in * fan_out
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
