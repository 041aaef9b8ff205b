"""Hand-derived reverse pass of the dense MLP in `network`.

The model has one shape: affine layers `x @ w + b` with relu or tanh between
them, then a loss head. Its gradient is a single loop over the layers in
reverse order, so no graph is built.

The pass consumes what the forward pass already computed: each layer's input
and its weight view into the flat parameter array. A layer's input
is the previous layer's activation output `a`, and both derivatives are
written in terms of it: relu'(z) = (a > 0) and tanh'(z) = 1 - a**2.

Large intermediates go into per-process buffers (`scratch`) instead of fresh
arrays, because each fresh one costs page faults on every call.

At small shapes each numpy call costs more than its arithmetic, so every
gradient slice is written once, straight from its sum or product, into one
uninitialized gradient, and one `+ 0.0` over the whole of it then gives the
bytes a zero-filled accumulator would.
"""

import math

import numpy as np

# glibc's default mmap threshold is 128 KiB: a fresh array of at least that
# many bytes gets new pages from the kernel and gives them back when freed,
# so it page-faults again on every call. Smaller arrays come from the heap
# and fault nothing, while the buffer lookup and `out=` cost about 1 us per
# use, which made the small-batch workloads slower. Hence buffers only from
# this many float64 elements (128 KiB) up.
REUSE_MIN_ELEMENTS = 16_384

_buffers = {}


def scratch(slot, shape: tuple):
    """A float64 view of shape `shape` into this process's buffer `slot`,
    grown to the largest size asked for. The view's contents are garbage, and
    the next request for the same slot overwrites them. Callers ask only for
    arrays of at least REUSE_MIN_ELEMENTS, and check the size first, since
    the lookup costs more than a small fresh array."""
    size = math.prod(shape)
    buf = _buffers.get(slot)
    if buf is None or buf.size < size:
        buf = _buffers[slot] = np.empty(size)
    return buf[:size].reshape(shape)


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
    overwrites each with its derivative once it has used it. `inputs[0]` is
    only read.
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
            # Two slots in turn: an `out=` that overlaps an input would make
            # matmul copy that input to a fresh array first.
            w_t = w.swapaxes(-1, -2)
            if d.size // fan_out * fan_in >= REUSE_MIN_ELEMENTS:
                d = np.matmul(d, w_t, out=scratch(("grad", len(lead), i % 2),
                                                  lead + (d.shape[-2], fan_in)))
            else:
                d = d @ w_t
            # The derivative overwrites the activation, which nothing reads
            # again; the products equal (x > 0) * d and (1 - x**2) * d.
            if activation == "relu":
                np.greater(x, 0.0, out=x)
            else:
                np.multiply(x, x, out=x)
                np.subtract(1.0, x, out=x)
            d *= x
    # Adding 0.0 turns a -0.0 entry into +0.0 and leaves every other entry's
    # bytes as they are, as the sums into a zero-filled gradient did.
    grad += 0.0
    return grad
