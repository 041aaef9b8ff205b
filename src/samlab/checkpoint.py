"""Single-file binary checkpoints for flat parameter vectors.

Layout on disk, all integers little-endian:

    8 bytes   magic b"SAMLCKPT"
    u32       format version (currently 1)
    u32       header length in bytes
    header    UTF-8 JSON: {"total": int, "layout": [{"name", "shape", "offset"}, ...]}
    payload   total float64 values, little-endian

The JSON header keeps the file self-describing: a checkpoint can be probed
without the config that produced it. `load` coerces no header value: the
total, each offset and each dim must be JSON integers (not bools), each
shape a list and each name a string, or the file is a CheckpointError.
"""

import json
import struct
from pathlib import Path
from typing import Union

import numpy as np

from . import fileio
from .errors import CheckpointError, LengthError, NumericError
from .params import LayoutEntry, ParameterVector, validate_layout

MAGIC = b"SAMLCKPT"
VERSION = 1


def save(path: Union[str, Path], vector: ParameterVector) -> None:
    header = {
        "total": len(vector),
        "layout": [
            {"name": e.name, "shape": list(e.shape), "offset": e.offset}
            for e in vector.layout
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = np.ascontiguousarray(vector.data, dtype="<f8").tobytes()
    with fileio.replacing(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


def _integer(value) -> int:
    """A JSON integer as it is: a bool, float or string is not coerced."""
    if type(value) is not int:
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def _entry(item) -> LayoutEntry:
    name, shape = item["name"], item["shape"]
    if not isinstance(name, str) or not isinstance(shape, list):
        raise TypeError(f"expected a string name and a list shape, got {name!r}, {shape!r}")
    return LayoutEntry(name, tuple(_integer(s) for s in shape), _integer(item["offset"]))


def load(path: Union[str, Path]) -> ParameterVector:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    magic = raw[:len(MAGIC)]
    if magic != MAGIC:
        raise CheckpointError(f"not a checkpoint file: magic {magic!r} != {MAGIC!r}")
    fixed = raw[len(MAGIC):len(MAGIC) + 8]
    if len(fixed) != 8:
        raise LengthError("truncated checkpoint header")
    version, header_len = struct.unpack("<II", fixed)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}, expected {VERSION}")
    # Lengths are checked against the bytes read, never used to size a read:
    # a garbled header can declare any length.
    rest = memoryview(raw)[len(MAGIC) + 8:]
    header_bytes = rest[:header_len]
    if len(header_bytes) != header_len:
        raise LengthError("truncated checkpoint header")
    try:
        header = json.loads(bytes(header_bytes).decode("utf-8"))
        total = _integer(header["total"])
        layout = tuple(_entry(item) for item in header["layout"])
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise CheckpointError(f"malformed checkpoint header: {exc!r}") from exc
    if any(s < 0 for entry in layout for s in entry.shape):
        raise CheckpointError("negative dimension in checkpoint layout")
    described = validate_layout(layout)
    if described != total:
        raise CheckpointError(
            f"checkpoint header declares {total} values but the layout describes {described}")
    payload = rest[header_len:]
    if len(payload) < total * 8:
        raise LengthError("truncated checkpoint payload")
    if len(payload) > total * 8:
        raise CheckpointError("trailing bytes after checkpoint payload")
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(data)):
        raise NumericError("checkpoint payload")
    return ParameterVector(data, layout)
