"""Vector helpers shared by the optimizers and the probes: the 2-norm and
the unit-direction sampler."""

import math

import numpy as np

from .errors import SamLabError


def l2_norm(v: np.ndarray) -> float:
    """The 2-norm of a contiguous 1-D float64 vector.

    sqrt(v . v) is the formula `np.linalg.norm` itself uses for such a
    vector, and both square roots are correctly rounded, so this gives its
    bytes without the cost of its argument handling.
    """
    return math.sqrt(v.dot(v))


def sample_unit_direction(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a uniform random direction on the unit sphere in `dim` dimensions.

    Samples a standard normal vector and normalizes it; resamples on the
    measure-zero event that the norm underflows.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    for _ in range(100):
        g = rng.standard_normal(dim)
        n = l2_norm(g)
        if n > 1e-150:
            return g / n
    raise SamLabError("sample_unit_direction: norm underflowed 100 times in a row")
