"""Exception types shared across the library."""


class SamLabError(Exception):
    """Base class for all samlab errors."""


class ShapeError(SamLabError):
    """Tensor shapes are incompatible for an operation.

    The message starts with the name of the operation or layer where the
    mismatch occurred, so callers can pinpoint the offending part of a model.
    """

    def __init__(self, where: str, expected, found):
        super().__init__(f"{where}: expected shape {expected}, found {found}")


class NumericError(SamLabError):
    """A non-finite value (NaN/Inf) was produced or supplied.

    Raised when parameters or features are supplied non-finite, and when a
    layer's affine output or a loss overflows; silent NaNs would corrupt every
    gradient-derived perturbation direction downstream. The message names
    where: "<where>: non-finite value".
    """

    def __init__(self, where: str):
        super().__init__(f"{where}: non-finite value")


class LengthError(SamLabError):
    """Two flat arrays (or a file and its declared size) disagree in length."""


class IdxFormatError(SamLabError):
    """An IDX file violates the binary format (bad magic, truncation)."""


class CheckpointError(SamLabError):
    """A checkpoint file violates the binary format (bad magic, version, trailing bytes)."""


class LayoutError(SamLabError):
    """A parameter layout does not match what a model expects."""

    def __init__(self, message: str, expected_count=None, found_count=None):
        self.expected_count = expected_count
        self.found_count = found_count
        super().__init__(message)


class ConfigError(SamLabError):
    """An experiment configuration is invalid (unknown key, bad value)."""
