"""Hand-derived reverse pass of the dense MLP in `network`.

The model has one shape: affine layers `x @ w + b` with relu or tanh between
them, then a loss head. Its gradient is a single loop over the layers in
reverse order, so no graph is built.

The pass consumes what the forward pass already computed: each layer's input
and the (weight, bias) views into the flat parameter array. A layer's input
is the previous layer's activation output `a`, and both derivatives are
written in terms of it: relu'(z) = (a > 0) and tanh'(z) = 1 - a**2.

Large intermediates go into per-process buffers (`scratch`) instead of fresh
arrays, because each fresh one costs page faults on every call.
"""

import numpy as np

# glibc's default mmap threshold is 128 KiB: a fresh array of at least that
# many bytes gets new pages from the kernel and gives them back when freed,
# so it page-faults again on every call. Smaller arrays come from the heap
# and fault nothing, while the buffer lookup and `out=` cost about 1 us per
# use, which made the small-batch workloads slower. Hence buffers only from
# this many float64 elements (128 KiB) up.
REUSE_MIN_ELEMENTS = 16_384

_buffers = {}


def scratch(slot, n: int, width: int):
    """An (n, width) float64 view of this process's buffer `slot`, grown to
    the largest size asked for; None for an array below REUSE_MIN_ELEMENTS.
    The view's contents are garbage, and the next request for the same slot
    overwrites them."""
    size = n * width
    if size < REUSE_MIN_ELEMENTS:
        return None
    buf = _buffers.get(slot)
    if buf is None or buf.size < size:
        buf = _buffers[slot] = np.empty(size)
    return buf[:size].reshape(n, width)


def backward(activation: str, inputs, weights, d_logits: np.ndarray, size: int) -> np.ndarray:
    """Flat gradient of the loss w.r.t. the MLP parameters.

    `inputs[i]` is the input of affine layer i and `weights[i]` its (weight,
    bias) pair; `d_logits` is the loss gradient w.r.t. the last layer's
    output; `size` is the flat parameter count. Each layer stores its weight
    then its bias, layer after layer, so the slices are filled from the end.

    `inputs[1:]` must be the forward pass's own activations: the pass
    overwrites each with its derivative once it has used it. `inputs[0]`,
    the caller's features, is only read.
    """
    grad = np.zeros(size)
    end = size
    d = d_logits
    for i in range(len(weights) - 1, -1, -1):
        w, b = weights[i]
        x = inputs[i]
        # += into zeros keeps every zero entry +0.0, whatever the sign of the
        # zero products it came from.
        grad[end - b.size:end] += d.sum(axis=0)
        end -= b.size
        grad[end - w.size:end] += (x.T @ d).reshape(-1)
        end -= w.size
        if i > 0:
            # Two slots in turn: an `out=` that overlaps an input would make
            # matmul copy that input to a fresh array first.
            out = scratch(("grad", i % 2), d.shape[0], w.shape[0])
            d = d @ w.T if out is None else np.matmul(d, w.T, out=out)
            # The derivative overwrites the activation, which nothing reads
            # again; the products equal (x > 0) * d and (1 - x**2) * d.
            if activation == "relu":
                np.greater(x, 0.0, out=x)
            else:
                np.multiply(x, x, out=x)
                np.subtract(1.0, x, out=x)
            d *= x
    return grad
