"""Dataset ingestion: CIFAR-10 binary files and a synthetic generator.

The binary format is 3073-byte records: one label byte (0..9) followed by
3072 pixel bytes laid out channel-major (full red plane, then green, then
blue), each plane in row-major order. Pixels load as [0, 1] floats; models
consume per-channel standardized tensors.

The synthetic generator emits class-separable 3x32x32 images (a smooth
class template plus noise) so training pipelines can run end to end
without external files, and can round-trip through the same binary format.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RECORD_BYTES",
    "DatasetSource",
    "load_cifar10",
    "write_cifar10",
    "synth_dataset",
    "augment_batch",
]

IMAGE_SHAPE = (3, 32, 32)
PIXEL_BYTES = 3 * 32 * 32
RECORD_BYTES = 1 + PIXEL_BYTES
NUM_LABELS = 10
CROP_PAD = 4


@dataclass
class DatasetSource:
    """Images in [0, 1] with labels and the channel statistics used for
    standardization (normally the training split's own statistics)."""

    images: np.ndarray
    labels: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if self.images.ndim != 4 or self.images.shape[1:] != IMAGE_SHAPE:
            raise ValueError(f"images must be (N, 3, 32, 32), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError("labels must align with images")
        self.check_classes(NUM_LABELS)

    def check_classes(self, classes: int) -> None:
        """Raise ValueError naming the first label outside [0, classes)."""
        bad = self.labels[(self.labels < 0) | (self.labels >= classes)]
        if bad.size:
            raise ValueError(f"label {bad[0]} outside [0, classes = {classes})")

    def __len__(self) -> int:
        return self.images.shape[0]

    @classmethod
    def from_arrays(cls, images: np.ndarray, labels: np.ndarray,
                    stats: tuple[np.ndarray, np.ndarray] | None = None) -> "DatasetSource":
        if stats is None:
            mean = images.mean(axis=(0, 2, 3))
            std = images.std(axis=(0, 2, 3))
            std = np.where(std > 1e-8, std, 1.0)
        else:
            mean, std = (np.asarray(s, dtype=np.float64) for s in stats)
        return cls(images, labels.astype(np.int64), mean, std)

    @property
    def stats(self) -> tuple[np.ndarray, np.ndarray]:
        return self.mean, self.std

    def standardized(self, images: np.ndarray | None = None) -> np.ndarray:
        """(images - mean) / std per channel, in one new array."""
        x = (self.images if images is None else images) - self.mean[:, None, None]
        x /= self.std[:, None, None]
        return x

    def split(self, train_count: int) -> tuple["DatasetSource", "DatasetSource"]:
        """Head/tail split; the tail standardizes by the head's statistics."""
        if not 0 < train_count < len(self):
            raise ValueError(f"split point {train_count} outside (0, {len(self)})")
        head = DatasetSource.from_arrays(self.images[:train_count],
                                         self.labels[:train_count])
        tail = DatasetSource.from_arrays(self.images[train_count:],
                                         self.labels[train_count:],
                                         stats=head.stats)
        return head, tail

    def batches(self, batch_size: int, rng: np.random.Generator | None = None,
                augment: bool = False):
        """Yield (inputs, labels) minibatches; shuffles, and augments if asked,
        only when an rng is supplied (training); otherwise sequential order."""
        n = len(self)
        order = rng.permutation(n) if rng is not None else None
        for start in range(0, n, batch_size):
            # Sequential batches are slices: views, not fancy-index copies.
            idx = (slice(start, start + batch_size) if order is None
                   else order[start:start + batch_size])
            x = self.standardized(self.images[idx])
            if augment and rng is not None:
                x = augment_batch(x, rng)
            yield x, self.labels[idx]


def augment_batch(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Zero-pad-4 random crop and random horizontal flip, per sample."""
    n, _, h, w = x.shape
    p = CROP_PAD
    padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    tops = rng.integers(0, 2 * p + 1, size=n)
    lefts = rng.integers(0, 2 * p + 1, size=n)
    out = np.stack([padded[i, :, t:t + h, l:l + w]
                    for i, (t, l) in enumerate(zip(tops, lefts))])
    flip = rng.random(n) < 0.5
    out[flip] = out[flip, :, :, ::-1]
    return out


def _read_records(path: str) -> tuple[np.ndarray, np.ndarray]:
    size = os.path.getsize(path)
    if size == 0 or size % RECORD_BYTES != 0:
        raise ValueError(f"{path}: size {size} is not a positive multiple of "
                         f"the {RECORD_BYTES}-byte record size")
    raw = np.fromfile(path, dtype=np.uint8).reshape(-1, RECORD_BYTES)
    labels = raw[:, 0].astype(np.int64)
    bad = np.flatnonzero(labels >= NUM_LABELS)
    if bad.size:
        raise ValueError(f"{path}: record {bad[0]} has label {labels[bad[0]]}, "
                         f"outside [0, {NUM_LABELS})")
    images = raw[:, 1:].reshape(-1, *IMAGE_SHAPE).astype(np.float64) / 255.0
    return images, labels


def load_cifar10(paths: str | list[str],
                 stats: tuple[np.ndarray, np.ndarray] | None = None) -> DatasetSource:
    """Load one or more binary batch files into a DatasetSource.

    With stats=None the source standardizes by its own per-channel
    statistics; pass a training source's stats for a test split.
    """
    if isinstance(paths, str):
        paths = [paths]
    if not paths:
        raise ValueError("no dataset files given")
    parts = [_read_records(p) for p in paths]
    images = np.concatenate([p[0] for p in parts])
    labels = np.concatenate([p[1] for p in parts])
    return DatasetSource.from_arrays(images, labels, stats)


def write_cifar10(path: str, images: np.ndarray, labels: np.ndarray) -> None:
    """Serialize [0, 1] float images and labels into the binary format."""
    n = images.shape[0]
    pixels = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
    records = np.empty((n, RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = pixels.reshape(n, PIXEL_BYTES)
    records.tofile(path)


def synth_dataset(seed: int, classes: int = 10, count: int = 1000,
                  noise: float = 0.2,
                  stats: tuple[np.ndarray, np.ndarray] | None = None) -> DatasetSource:
    """Reproducible class-separable images: each class owns a smooth random
    template; samples are template + Gaussian noise, clipped to [0, 1]."""
    if not 1 <= classes <= NUM_LABELS:
        raise ValueError(f"classes must be in [1, {NUM_LABELS}], got {classes}")
    if count < 1:
        raise ValueError("count must be positive")
    gen = np.random.default_rng(seed)
    coarse = gen.uniform(0.1, 0.9, size=(classes, 3, 4, 4))
    templates = np.kron(coarse, np.ones((8, 8)))
    labels = gen.integers(0, classes, size=count)
    images = templates[labels] + noise * gen.normal(size=(count, *IMAGE_SHAPE))
    return DatasetSource.from_arrays(np.clip(images, 0.0, 1.0), labels, stats)
