"""Hand-derived reverse pass of the dense MLP in `network`.

The model has one shape: affine layers `x @ w + b` with relu or tanh between
them, then a loss head. Its gradient is a single loop over the layers in
reverse order, so no graph is built and nothing outlives the call.

The pass consumes what the forward pass already computed: each layer's input
and the (weight, bias) views into the flat parameter array. A layer's input
is the previous layer's activation output `a`, and both derivatives are
written in terms of it: relu'(z) = (a > 0) and tanh'(z) = 1 - a**2.
"""

import numpy as np


def backward(activation: str, inputs, weights, d_logits: np.ndarray, size: int) -> np.ndarray:
    """Flat gradient of the loss w.r.t. the MLP parameters.

    `inputs[i]` is the input of affine layer i and `weights[i]` its (weight,
    bias) pair; `d_logits` is the loss gradient w.r.t. the last layer's
    output; `size` is the flat parameter count. Each layer stores its weight
    then its bias, layer after layer, so the slices are filled from the end.
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
            d = d @ w.T
            d = (x > 0.0) * d if activation == "relu" else (1.0 - x ** 2) * d
    return grad
