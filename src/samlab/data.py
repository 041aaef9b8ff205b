"""Desk-scale datasets: synthetic generators, IDX ingestion, and transforms.

Everything here is a pure function of its inputs and seeds; calling twice
with the same arguments produces identical arrays. A `Dataset` is not
checked here: `network.check_batch` is the one check of a (features,
labels) pair, made for the model that will read it.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import IdxFormatError, LengthError
from .network import CheckedBatch, take_rows

IDX_LABEL_MAGIC = 0x00000801
IDX_IMAGE_MAGIC = 0x00000803


@dataclass(frozen=True)
class Dataset:
    """Features (n, d), integer class labels (n,), and class count.

    It holds the arrays unchecked; `network.check_batch` checks them for a
    model before any compute.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __len__(self) -> int:
        return self.features.shape[0]


def gen_two_moons(n: int, noise_sd: float, seed: int) -> Dataset:
    """Two interleaved half-circle classes, balanced to within one example.

    Class 0 sits on the upper unit half-circle, class 1 on a lower half-circle
    shifted right by 1 and up by 0.5. Gaussian noise with the given standard
    deviation is added to both coordinates.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd}")
    n0 = (n + 1) // 2
    n1 = n // 2
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n1)
    outer = np.column_stack([np.cos(t0), np.sin(t0)])
    inner = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    features = np.vstack([outer, inner])
    if noise_sd > 0:
        rng = np.random.default_rng(seed)
        features = features + rng.normal(0.0, noise_sd, size=features.shape)
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return Dataset(features, labels, n_classes=2)


def gen_gaussian_blobs(n: int, centers, sd: float, seed: int) -> Dataset:
    """Balanced isotropic Gaussian clusters, one class per center."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] < 2:
        raise ValueError(f"need >= 2 centers of equal dimension, got shape {centers.shape}")
    if sd < 0:
        raise ValueError(f"sd must be >= 0, got {sd}")
    k = centers.shape[0]
    counts = [n // k + (1 if i < n % k else 0) for i in range(k)]
    rng = np.random.default_rng(seed)
    chunks, labels = [], []
    for i, count in enumerate(counts):
        points = np.tile(centers[i], (count, 1))
        if sd > 0:
            points = points + rng.normal(0.0, sd, size=points.shape)
        chunks.append(points)
        labels.append(np.full(count, i, dtype=np.int64))
    return Dataset(np.vstack(chunks), np.concatenate(labels), n_classes=k)


def _read_idx(path: str, magic: int, n_dims: int):
    """Read one IDX file whole; return its dimension sizes and payload.

    Declared sizes are checked against the bytes read, never used to size a
    read: a garbled header can declare any size.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise IdxFormatError(f"cannot read IDX file {path}: {exc}") from exc
    header_len = 4 * (1 + n_dims)
    if len(raw) < header_len:
        raise LengthError(f"{path}: truncated header, wanted {header_len} bytes, got {len(raw)}")
    found, *dims = struct.unpack(f">{1 + n_dims}I", raw[:header_len])
    if found != magic:
        raise IdxFormatError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
    payload = raw[header_len:]
    size = math.prod(dims)
    if len(payload) < size:
        raise LengthError(f"{path}: truncated file, wanted {size} payload bytes, "
                          f"got {len(payload)}")
    if len(payload) > size:
        raise IdxFormatError(f"{path}: trailing bytes after the declared {size}-byte payload")
    return dims, np.frombuffer(payload, dtype=np.uint8)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label file pair as a flat-feature dataset.

    Format: 4-byte big-endian magic (0x00000803 for 3-D image files,
    0x00000801 for label files), big-endian 4-byte dimension sizes, then raw
    unsigned bytes. Pixels are scaled to [0, 1].
    """
    (n, rows, cols), pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, 3)
    if pixels.size == 0:
        raise IdxFormatError(f"{images_path}: no pixels, sizes {n}x{rows}x{cols}")
    (n_labels,), labels = _read_idx(labels_path, IDX_LABEL_MAGIC, 1)
    if n_labels != n:
        raise LengthError(f"{n} images but {n_labels} labels")
    features = (pixels.astype(np.float64) / 255.0).reshape(n, rows * cols)
    labels = labels.astype(np.int64)
    return Dataset(features, labels, n_classes=int(labels.max()) + 1)


def inject_label_noise(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Resample exactly round(fraction * n) labels to a uniformly chosen wrong class.

    Features are untouched; only the chosen labels change.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    n = len(dataset)
    k = int(round(fraction * n))
    if k == 0 or dataset.n_classes < 2:
        return dataset
    rng = np.random.default_rng(seed)
    picked = rng.choice(n, size=k, replace=False)
    labels = dataset.labels.copy()
    # Uniform over the n_classes - 1 wrong labels: draw an offset in
    # [1, n_classes) and rotate.
    offsets = rng.integers(1, dataset.n_classes, size=k)
    labels[picked] = (labels[picked] + offsets) % dataset.n_classes
    return Dataset(dataset.features, labels, dataset.n_classes)


def split(dataset: Dataset, train_fraction: float, seed: int):
    """Disjoint, exhaustive train/test partition, deterministic per seed;
    `train_fraction` of the examples, rounded and at least one each side,
    go to train."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(dataset)
    n_train = min(max(int(round(train_fraction * n)), 1), n - 1)
    perm = np.random.default_rng(_u64(seed)).permutation(n)
    return tuple(Dataset(dataset.features[idx], dataset.labels[idx], dataset.n_classes)
                 for idx in (perm[:n_train], perm[n_train:]))


def minibatches(batch: CheckedBatch, batch_size: int, seed: int, epoch: int):
    """Yield shuffled `take_rows` of a checked batch, which need no check
    again; order is a pure function of (seed, epoch). The final short batch
    is kept.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = batch.features.shape[0]
    perm = np.random.default_rng([_u64(seed), _u64(epoch)]).permutation(n)
    for start in range(0, n, batch_size):
        yield take_rows(batch, perm[start:start + batch_size])


def _u64(seed: int) -> int:
    """Mask a (possibly negative) integer seed into unsigned 64-bit space."""
    return int(seed) & 0xFFFFFFFFFFFFFFFF
