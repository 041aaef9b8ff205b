import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from samlab import data, network
from samlab.errors import IdxFormatError, LengthError, SamLabError


def test_two_moons_shapes_and_balance():
    ds = data.gen_two_moons(201, 0.1, 0)
    assert ds.features.shape == (201, 2)
    assert ds.labels.shape == (201,)
    assert ds.n_classes == 2
    assert np.sum(ds.labels == 0) == 101
    assert np.sum(ds.labels == 1) == 100


def test_two_moons_noise_free_geometry():
    ds = data.gen_two_moons(100, 0.0, 0)
    upper = ds.features[ds.labels == 0]
    lower = ds.features[ds.labels == 1]
    # upper arc: unit circle around the origin; lower arc: radius 1 around (1, 0.5)
    np.testing.assert_allclose(np.linalg.norm(upper, axis=1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(
        np.linalg.norm(lower - np.array([1.0, 0.5]), axis=1), 1.0, rtol=1e-12)


def test_two_moons_deterministic():
    a = data.gen_two_moons(50, 0.2, 9)
    b = data.gen_two_moons(50, 0.2, 9)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_gaussian_blobs():
    centers = ((0.0, 0.0), (10.0, 10.0))
    ds = data.gen_gaussian_blobs(11, centers, 0.5, 4)
    assert len(ds) == 11
    assert ds.n_classes == 2
    # class counts: 11 // 2 each plus one remainder in class 0
    assert np.sum(ds.labels == 0) == 6
    assert np.sum(ds.labels == 1) == 5
    # points sit near their centers at sd=0.5
    for k, center in enumerate(centers):
        pts = ds.features[ds.labels == k]
        assert np.all(np.linalg.norm(pts - np.array(center), axis=1) < 5.0)


def write_idx(tmp_path, images, labels):
    n, rows, cols = images.shape
    img_path = tmp_path / "imgs.idx"
    lbl_path = tmp_path / "lbls.idx"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(labels.astype(np.uint8).tobytes())
    return img_path, lbl_path


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
    labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
    img_path, lbl_path = write_idx(tmp_path, images, labels)
    ds = data.load_idx(img_path, lbl_path)
    assert ds.features.shape == (5, 12)
    np.testing.assert_allclose(ds.features, images.reshape(5, 12) / 255.0)
    np.testing.assert_array_equal(ds.labels, labels)
    assert ds.n_classes == 3


def test_idx_bad_magic(tmp_path):
    img_path = tmp_path / "bad.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x12345678, 1, 2, 2) + b"\x00" * 4)
    lbl_path = tmp_path / "lbl.idx"
    lbl_path.write_bytes(struct.pack(">II", 0x00000801, 1) + b"\x00")
    with pytest.raises(IdxFormatError):
        data.load_idx(img_path, lbl_path)


def test_idx_truncated_payload(tmp_path):
    img_path = tmp_path / "trunc.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 5)
    lbl_path = tmp_path / "lbl.idx"
    lbl_path.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\x00\x01")
    with pytest.raises(LengthError):
        data.load_idx(img_path, lbl_path)


def test_idx_count_mismatch(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    labels = np.zeros(4, dtype=np.uint8)
    img_path, lbl_path = write_idx(tmp_path, images, labels)
    with pytest.raises(LengthError):
        data.load_idx(img_path, lbl_path)


def test_idx_missing_file(tmp_path):
    _, lbl_path = write_idx(tmp_path, np.zeros((1, 2, 2)), np.zeros(1))
    with pytest.raises(IdxFormatError, match="cannot read"):
        data.load_idx(tmp_path / "absent.idx", lbl_path)


@pytest.mark.parametrize("header, payload, error", [
    ((1, 0xFFFFFFFF, 0xFFFFFFFF), b"\x00" * 4, LengthError),   # sizes no file can hold
    ((1, 2, 2), b"\x00" * 5, IdxFormatError),                  # trailing byte
    ((0, 2, 2), b"", IdxFormatError),                          # no images
    ((2, 0, 3), b"", IdxFormatError),                          # no pixels
], ids=["huge_sizes", "trailing_byte", "no_images", "no_pixels"])
def test_idx_declared_sizes_checked_against_bytes(tmp_path, header, payload, error):
    img_path, lbl_path = write_idx(tmp_path, np.zeros((1, 2, 2)), np.zeros(1))
    img_path.write_bytes(struct.pack(">IIII", data.IDX_IMAGE_MAGIC, *header) + payload)
    with pytest.raises(error):
        data.load_idx(img_path, lbl_path)


@st.composite
def _idx_files(draw, magic, n_dims):
    """Raw bytes, or a valid magic with small or huge sizes and a short payload."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    dims = draw(st.lists(st.sampled_from([0, 1, 2, 3, 0xFFFFFFFF]),
                         min_size=n_dims, max_size=n_dims))
    return struct.pack(f">{1 + n_dims}I", magic, *dims) + draw(st.binary(max_size=24))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(images=_idx_files(data.IDX_IMAGE_MAGIC, 3), labels=_idx_files(data.IDX_LABEL_MAGIC, 1))
def test_fuzzed_idx_loads_or_raises_samlab_error(tmp_path, images, labels):
    img_path, lbl_path = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    img_path.write_bytes(images)
    lbl_path.write_bytes(labels)
    try:
        data.load_idx(img_path, lbl_path)
    except SamLabError:
        pass


def test_label_noise_exact_count():
    ds = data.gen_two_moons(100, 0.1, 2)
    noisy = data.inject_label_noise(ds, 0.1, 7)
    changed = np.sum(noisy.labels != ds.labels)
    assert changed == 10
    np.testing.assert_array_equal(noisy.features, ds.features)


def test_label_noise_zero_fraction_unchanged():
    ds = data.gen_two_moons(40, 0.1, 2)
    noisy = data.inject_label_noise(ds, 0.0, 7)
    np.testing.assert_array_equal(noisy.labels, ds.labels)


def test_label_noise_full_flip_binary():
    ds = data.gen_two_moons(30, 0.1, 2)
    noisy = data.inject_label_noise(ds, 1.0, 7)
    np.testing.assert_array_equal(noisy.labels, 1 - ds.labels)


def test_label_noise_deterministic():
    ds = data.gen_two_moons(60, 0.1, 2)
    a = data.inject_label_noise(ds, 0.25, 11)
    b = data.inject_label_noise(ds, 0.25, 11)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_split_sizes_and_disjoint():
    ds = data.gen_two_moons(10, 0.1, 1)
    train, test = data.split(ds, data.SplitSpec(0.8, 5))
    assert len(train) == 8 and len(test) == 2
    combined = np.vstack([train.features, test.features])
    # every original row appears exactly once
    original = ds.features[np.lexsort(ds.features.T)]
    recombined = combined[np.lexsort(combined.T)]
    np.testing.assert_array_equal(original, recombined)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 1000), frac=st.floats(0.05, 0.95), seed=st.integers(0, 10**6))
def test_split_partition_property(n, frac, seed):
    ds = data.gen_two_moons(n, 0.1, 3)
    train, test = data.split(ds, data.SplitSpec(frac, seed))
    assert len(train) >= 1 and len(test) >= 1
    assert len(train) + len(test) == n


def test_minibatches_cover_everything_once():
    ds = data.gen_two_moons(23, 0.1, 4)
    batches = list(data.minibatches(ds, 5, seed=1, epoch=0))
    assert [len(b.labels) for b in batches] == [5, 5, 5, 5, 3]
    seen = np.vstack([b.features for b in batches])
    assert seen.shape == (23, 2)
    original = ds.features[np.lexsort(ds.features.T)]
    np.testing.assert_array_equal(original, seen[np.lexsort(seen.T)])


def test_minibatches_single_batch_when_large():
    ds = data.gen_two_moons(8, 0.1, 4)
    batches = list(data.minibatches(ds, 100, seed=1, epoch=0))
    assert len(batches) == 1
    assert len(batches[0].labels) == 8


def test_minibatches_depend_on_epoch_not_call_order():
    ds = data.gen_two_moons(30, 0.1, 4)
    a0 = list(data.minibatches(ds, 10, seed=1, epoch=0))
    b0 = list(data.minibatches(ds, 10, seed=1, epoch=0))
    a1 = list(data.minibatches(ds, 10, seed=1, epoch=1))
    np.testing.assert_array_equal(a0[0].features, b0[0].features)
    assert not np.array_equal(a0[0].features, a1[0].features)


def test_minibatches_of_a_checked_split_are_its_rows_checked():
    ds = data.gen_two_moons(23, 0.1, 4)
    spec = network.MlpSpec(2, (4,), 2)
    checked = network.check_batch(spec, ds.as_batch())
    raw = list(data.minibatches(ds, 5, seed=1, epoch=3))
    taken = list(data.minibatches(checked, 5, seed=1, epoch=3))
    assert len(taken) == len(raw) == 5
    for r, t in zip(raw, taken):
        assert type(t) is network.CheckedBatch and network.check_batch(spec, t) is t
        assert t.features.tobytes() == r.features.tobytes()
        assert t.labels.tobytes() == r.labels.tobytes()


def test_dataset_validation():
    with pytest.raises(Exception):
        data.Dataset(np.zeros((3, 2)), np.array([0, 1]), 2)  # length mismatch
    with pytest.raises(Exception):
        data.SplitSpec(1.5, 0)
