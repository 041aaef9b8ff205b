import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from samlab import checkpoint
from samlab.errors import CheckpointError, LengthError, NumericError, SamLabError
from samlab.params import LayoutEntry, ParameterVector


def vector():
    layout = (LayoutEntry("w", (2, 2), 0), LayoutEntry("b", (2,), 4))
    return ParameterVector(np.array([1.0, -2.5, 3e-7, 4e12, 0.1, -0.0]), layout)


def test_roundtrip_bit_exact(tmp_path):
    path = tmp_path / "model.ckpt"
    vec = vector()
    checkpoint.save(path, vec)
    loaded = checkpoint.load(path)
    np.testing.assert_array_equal(loaded.data, vec.data)
    assert loaded.layout == vec.layout


def test_save_is_deterministic(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    checkpoint.save(a, vector())
    checkpoint.save(b, vector())
    assert a.read_bytes() == b.read_bytes()


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    checkpoint.save(path, vector())
    before = path.read_bytes()

    def fail(*args):
        raise OSError("disk full")

    # struct.pack runs after the magic bytes are written: a failure mid-write.
    monkeypatch.setattr(checkpoint.struct, "pack", fail)
    with pytest.raises(OSError):
        checkpoint.save(path, ParameterVector(np.zeros(6), vector().layout))
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_file_is_self_describing(tmp_path):
    path = tmp_path / "model.ckpt"
    checkpoint.save(path, vector())
    loaded = checkpoint.load(path)
    assert loaded.layout == vector().layout
    w, b = (loaded.data[e.offset:e.offset + e.size].reshape(e.shape) for e in loaded.layout)
    np.testing.assert_array_equal(w, [[1.0, -2.5], [3e-7, 4e12]])
    np.testing.assert_array_equal(b, [0.1, -0.0])


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(CheckpointError):
        checkpoint.load(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "v9.ckpt"
    checkpoint.save(path, vector())
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        checkpoint.load(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.ckpt"
    checkpoint.save(path, vector())
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(LengthError):
        checkpoint.load(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "extra.ckpt"
    checkpoint.save(path, vector())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError):
        checkpoint.load(path)


def test_non_finite_payload_rejected(tmp_path):
    path = tmp_path / "nan.ckpt"
    checkpoint.save(path, vector())
    raw = bytearray(path.read_bytes())
    raw[-8:] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(NumericError):
        checkpoint.load(path)


def test_header_total_layout_mismatch(tmp_path, monkeypatch):
    # hand-build a file whose header total disagrees with its layout
    header = b'{"layout":[{"name":"w","offset":0,"shape":[2]}],"total":3}'
    body = struct.pack("<3d", 1.0, 2.0, 3.0)
    path = tmp_path / "mismatch.ckpt"
    path.write_bytes(checkpoint.MAGIC + struct.pack("<II", 1, len(header)) + header + body)
    calls = []

    def counted(layout, _f=checkpoint.validate_layout):
        calls.append(layout)
        return _f(layout)
    monkeypatch.setattr(checkpoint, "validate_layout", counted)
    with pytest.raises(CheckpointError, match="^checkpoint header declares 3 values "
                                              "but the layout describes 2$"):
        checkpoint.load(path)
    assert len(calls) == 1


def test_missing_file_is_structured_error(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        checkpoint.load(tmp_path / "absent.ckpt")


@pytest.mark.parametrize("header", [
    b"\xff\xfe{}",         # not UTF-8
    b"{not json",
    b"{}",                   # no "total"
    b'{"total":"x"}',
    # {"total":2,"layout":[{"name":"w","offset":0,"shape":[2]}]} loads; each
    # row below garbles one of its values, which must not be coerced
    b'{"total":2,"layout":[{"name":"w","offset":0,"shape":"2"}]}',
    b'{"total":2.9,"layout":[{"name":"w","offset":0,"shape":[2.5]}]}',
    b'{"total":2,"layout":[{"name":"w","offset":false,"shape":[true,2]}]}',
    b'{"total":2,"layout":[{"name":7,"offset":0,"shape":[2]}]}',
])
def test_garbled_header_is_checkpoint_error(tmp_path, header):
    path = tmp_path / "garbled.ckpt"
    payload = struct.pack("<2d", 1.0, 2.0)
    path.write_bytes(checkpoint.MAGIC + struct.pack("<II", 1, len(header)) + header + payload)
    with pytest.raises(CheckpointError):
        checkpoint.load(path)


_JSONISH = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["total", "layout", "name", "shape", "offset"]), inner, max_size=4),
    max_leaves=12)


@st.composite
def _tails(draw):
    """Bytes after a valid magic and version: raw bytes, or a header of
    random JSON-like values with a consistent length field, then a payload."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    header = json.dumps(draw(_JSONISH)).encode("utf-8")
    return struct.pack("<I", len(header)) + header + draw(st.binary(max_size=48))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tail=_tails())
def test_fuzzed_checkpoint_loads_or_raises_samlab_error(tmp_path, tail):
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(checkpoint.MAGIC + struct.pack("<I", checkpoint.VERSION) + tail)
    try:
        checkpoint.load(path)
    except SamLabError:
        pass
