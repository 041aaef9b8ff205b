"""The whole message of every LengthError raise site and of one ShapeError
and one NumericError site: the message is all these errors carry."""

import re
import struct

import numpy as np
import pytest

from samlab import checkpoint, data, network
from samlab.errors import LengthError, NumericError, ShapeError
from samlab.params import LayoutEntry, ParameterVector, validate_layout


def _checkpoint(tmp_path, raw):
    path = tmp_path / "model.ckpt"
    path.write_bytes(checkpoint.MAGIC + raw)
    return lambda: checkpoint.load(path), ""


def _short_payload(tmp_path):
    path = tmp_path / "model.ckpt"
    checkpoint.save(path, ParameterVector(np.zeros(3), (LayoutEntry("w", (3,), 0),)))
    path.write_bytes(path.read_bytes()[:-8])
    return lambda: checkpoint.load(path), ""


def _idx(tmp_path, image_bytes, n_labels=2):
    images, labels = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    images.write_bytes(image_bytes)
    labels.write_bytes(struct.pack(">II", data.IDX_LABEL_MAGIC, n_labels) + bytes(n_labels))
    return lambda: data.load_idx(images, labels), str(images)


CASES = {
    "checkpoint fixed header": (
        LengthError, lambda tmp: _checkpoint(tmp, b"\x01\x00\x00"),
        "truncated checkpoint header"),
    "checkpoint json header": (
        LengthError, lambda tmp: _checkpoint(tmp, struct.pack("<II", 1, 100) + b"{}"),
        "truncated checkpoint header"),
    "checkpoint payload": (
        LengthError, _short_payload, "truncated checkpoint payload"),
    "idx header": (
        LengthError, lambda tmp: _idx(tmp, b"\x00" * 5),
        "{path}: truncated header, wanted 16 bytes, got 5"),
    "idx payload": (
        LengthError,
        lambda tmp: _idx(tmp, struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 2, 2, 2) + bytes(5)),
        "{path}: truncated file, wanted 8 payload bytes, got 5"),
    "idx label count": (
        LengthError,
        lambda tmp: _idx(tmp, struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 3, 1, 1) + bytes(3), 4),
        "3 images but 4 labels"),
    "layout offset": (
        LengthError,
        lambda tmp: (lambda: validate_layout(
            (LayoutEntry("w", (2,), 0), LayoutEntry("b", (2,), 3))), ""),
        "layout entry 'b' at offset 3, expected 2"),
    "data length": (
        LengthError,
        lambda tmp: (lambda: ParameterVector(np.zeros(3), (LayoutEntry("w", (2,), 0),)), ""),
        "parameter data length 3 != layout total 2"),
    "input width": (
        ShapeError,
        lambda tmp: (lambda: network.check_batch(
            network.MlpSpec(2), data.Dataset(np.zeros((4, 3)), np.zeros(4, dtype=int), 2)), ""),
        "input: expected shape (n >= 1, 2), found (4, 3)"),
    "non-finite parameters": (
        NumericError,
        lambda tmp: (lambda: ParameterVector(np.array([np.nan]), (LayoutEntry("w", (1,), 0),)),
                     ""),
        "parameter vector: non-finite value"),
}


@pytest.mark.parametrize("error, make, message", CASES.values(), ids=CASES.keys())
def test_error_message_is_exact(tmp_path, error, make, message):
    call, path = make(tmp_path)
    with pytest.raises(error, match=f"^{re.escape(message.format(path=path))}$"):
        call()
