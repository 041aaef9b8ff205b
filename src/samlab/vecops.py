"""The unit-direction sampler shared by the optimizers and the probes."""

import numpy as np

from .errors import SamLabError


def sample_unit_direction(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a uniform random direction on the unit sphere in `dim` dimensions.

    Samples a standard normal vector and normalizes it; resamples on the
    measure-zero event that the norm underflows.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    for _ in range(100):
        g = rng.standard_normal(dim)
        n = np.linalg.norm(g)
        if n > 1e-150:
            return g / n
    raise SamLabError("sample_unit_direction: norm underflowed 100 times in a row")
