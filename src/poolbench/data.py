"""Synthetic image classification data for the pooling benchmark.

Each class is a fixed 16x16 procedural pattern (stripes, checker, disk,
ring, ...); samples shift the pattern circularly by at most a pixel per
axis, scale its amplitude, and add pixel noise.  Bright sparse strokes on a
dark background keep the task easy for a small network while still giving
max-like pooling something to prefer.

Generation is fully determined by the seed; the dataset is regenerated on
demand and never written to disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["IMAGE_SIZE", "MAX_SHIFT", "MAX_CLASSES", "SyntheticDataset", "check_data_args", "make_synthetic"]

#: the side of every image, and the largest circular shift of a sample per axis
IMAGE_SIZE = 16
MAX_SHIFT = 1


def _vertical_stripes(size):
    img = np.zeros((size, size))
    img[:, 3:5] = 1.0
    img[:, 10:12] = 1.0
    return img


def _horizontal_stripes(size):
    return _vertical_stripes(size).T


def _checker(size):
    tiles = np.indices((size, size)) // 4
    return ((tiles[0] + tiles[1]) % 2).astype(float)


def _disk(size):
    center = (size - 1) / 2.0
    yy, xx = np.indices((size, size))
    return (np.hypot(yy - center, xx - center) <= size / 4.0).astype(float)


def _ring(size):
    center = (size - 1) / 2.0
    yy, xx = np.indices((size, size))
    radius = np.hypot(yy - center, xx - center)
    return ((radius >= size / 4.0) & (radius <= size / 2.6)).astype(float)


def _diagonal(size):
    yy, xx = np.indices((size, size))
    return (np.abs((yy - xx) % 8) < 2).astype(float)


def _cross(size):
    img = np.zeros((size, size))
    mid = size // 2
    img[mid - 1 : mid + 1, :] = 1.0
    img[:, mid - 1 : mid + 1] = 1.0
    return img


def _corners(size):
    img = np.zeros((size, size))
    for r in (slice(1, 5), slice(size - 5, size - 1)):
        for c in (slice(1, 5), slice(size - 5, size - 1)):
            img[r, c] = 1.0
    return img


_PATTERNS = (
    _vertical_stripes,
    _horizontal_stripes,
    _checker,
    _disk,
    _ring,
    _diagonal,
    _cross,
    _corners,
)
#: the most classes a dataset can have: one pattern each
MAX_CLASSES = len(_PATTERNS)


@dataclass
class SyntheticDataset:
    """Images (N, 1, S, S), integer labels, and a disjoint 80/20 split."""

    images: np.ndarray
    labels: np.ndarray
    seed: int
    train_idx: np.ndarray
    test_idx: np.ndarray

    @property
    def train_images(self):
        return self.images[self.train_idx]

    @property
    def train_labels(self):
        return self.labels[self.train_idx]

    @property
    def test_images(self):
        return self.images[self.test_idx]

    @property
    def test_labels(self):
        return self.labels[self.test_idx]


def check_data_args(classes: int, samples: int, noise: float) -> None:
    """Raise ValueError unless :func:`make_synthetic` can build this dataset."""
    if not 1 <= classes <= MAX_CLASSES:
        raise ValueError(f"classes must be in 1..{MAX_CLASSES}, got {classes}")
    if samples < classes:
        raise ValueError(f"need at least one sample per class, got {samples}")
    if not 0.0 <= noise < np.inf:  # a negative or nan noise would train noise-free
        raise ValueError(f"noise must be finite and >= 0, got {noise}")


def make_synthetic(classes: int = 4, samples: int = 1000, seed: int = 0, noise: float = 0.1) -> SyntheticDataset:
    """Balanced procedural dataset: `samples` IMAGE_SIZE x IMAGE_SIZE images
    over `classes` classes, each shifted by up to MAX_SHIFT pixels per axis.

    Class sizes differ by at most one sample.  The train/test split is
    80/20, stratified per class, with disjoint index sets.  With noise = 0
    the only variation left is the shift and the amplitude, and a
    nearest-centroid classifier separates the classes perfectly.
    """
    check_data_args(classes, samples, noise)
    rng = np.random.default_rng(seed)
    bases = [fn(IMAGE_SIZE) for fn in _PATTERNS[:classes]]
    counts = [samples // classes + (1 if k < samples % classes else 0) for k in range(classes)]

    images = np.empty((samples, 1, IMAGE_SIZE, IMAGE_SIZE))
    labels = np.empty(samples, dtype=np.int64)
    train_parts, test_parts = [], []
    pos = 0
    for k, count in enumerate(counts):
        for _ in range(count):
            dy, dx = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=2)
            amplitude = rng.uniform(0.8, 1.2)
            img = amplitude * np.roll(bases[k], (dy, dx), axis=(0, 1))
            img = img + rng.normal(0.0, noise, size=img.shape) if noise > 0 else img
            images[pos, 0] = img
            labels[pos] = k
            pos += 1
        start = pos - count
        split = start + int(round(0.8 * count))
        train_parts.append(np.arange(start, split))
        test_parts.append(np.arange(split, pos))
    return SyntheticDataset(
        images=images,
        labels=labels,
        seed=seed,
        train_idx=np.concatenate(train_parts),
        test_idx=np.concatenate(test_parts),
    )

