"""Flat, ordered parameter storage with named layout descriptors."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthError, NumericError


@dataclass(frozen=True)
class LayoutEntry:
    """One named slice of the flat parameter array."""

    name: str
    shape: tuple
    offset: int

    @property
    def size(self) -> int:
        return math.prod(self.shape)


def validate_layout(layout) -> int:
    """Check that entries are contiguous and non-overlapping; return total size."""
    expected_offset = 0
    for entry in layout:
        if entry.offset != expected_offset:
            raise LengthError(
                f"layout entry {entry.name!r} at offset {entry.offset}, expected {expected_offset}",
                expected=expected_offset,
                found=entry.offset,
            )
        expected_offset += entry.size
    return expected_offset


@dataclass
class ParameterVector:
    """All model parameters as one flat float64 array plus its layout.

    The flat array is the canonical representation everywhere: optimizers,
    probes, and checkpoints all operate on it directly.
    """

    data: np.ndarray
    layout: tuple

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64).reshape(-1)
        self.layout = tuple(self.layout)
        total = validate_layout(self.layout)
        if total != self.data.shape[0]:
            raise LengthError(
                f"parameter data length {self.data.shape[0]} != layout total {total}",
                expected=total,
                found=self.data.shape[0],
            )
        if not np.all(np.isfinite(self.data)):
            raise NumericError("parameter vector")

    def __len__(self) -> int:
        return self.data.shape[0]

    def replace(self, data: np.ndarray) -> "ParameterVector":
        """Same layout, new values."""
        return ParameterVector(np.array(data, dtype=np.float64), self.layout)

