"""Synthetic dataset generators, label randomization, and the CIFAR-10
binary-format loader. Everything is deterministic under its seed. A
Dataset is a netcore.Batch that adds only its class count."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .netcore import Batch

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 32*32*3 pixel bytes
CIFAR_PIXELS = 3072
CIFAR_CLASSES = 10


@dataclass(frozen=True)
class Dataset(Batch):
    """A Batch (inputs plus one-hot labels or real targets) that knows its
    class count; k_classes 0 marks regression."""

    k_classes: int = 0

    def __post_init__(self):
        # the Batch checks shape, alignment and finite inputs and targets
        super().__post_init__()
        if self.k_classes:
            if self.targets.shape[1] != self.k_classes:
                raise ValueError(
                    f"{self.k_classes}-class data needs {self.k_classes} target columns"
                )
            rows = self.targets.sum(axis=1)
            if not np.allclose(rows, 1.0, atol=1e-12) or self.targets.min() < 0:
                raise ValueError("classification targets must be one-hot rows")

    @property
    def is_classification(self) -> bool:
        return self.k_classes > 0

    def as_batch(self) -> Batch:
        return self

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(inputs=self.inputs[idx], targets=self.targets[idx],
                       k_classes=self.k_classes)


def _one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((labels.size, k))
    out[np.arange(labels.size), labels] = 1.0
    return out


def gaussian_blobs(k: int, n_per_class: int, d: int, spread: float, seed: int) -> Dataset:
    """k isotropic Gaussian clusters with seeded random centers."""
    if k < 2 or n_per_class < 1 or d < 1:
        raise ValueError("need k >= 2 classes, positive samples and dimension")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-3.0, 3.0, size=(k, d))
    inputs = np.vstack([
        centers[c] + spread * rng.standard_normal((n_per_class, d)) for c in range(k)
    ])
    labels = np.repeat(np.arange(k), n_per_class)
    return Dataset(inputs=inputs, targets=_one_hot(labels, k), k_classes=k)


def two_moons(n: int, noise: float, seed: int) -> Dataset:
    """Two interleaved half-circles; not linearly separable even at noise 0."""
    if n < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    n_top = n // 2
    n_bot = n - n_top
    t_top = np.linspace(0.0, np.pi, n_top)
    t_bot = np.linspace(0.0, np.pi, n_bot)
    top = np.column_stack([np.cos(t_top), np.sin(t_top)])
    bot = np.column_stack([1.0 - np.cos(t_bot), 0.5 - np.sin(t_bot)])
    inputs = np.vstack([top, bot])
    if noise > 0:
        inputs = inputs + noise * rng.standard_normal(inputs.shape)
    labels = np.concatenate([np.zeros(n_top, dtype=int), np.ones(n_bot, dtype=int)])
    return Dataset(inputs=inputs, targets=_one_hot(labels, 2), k_classes=2)


def freq_target_1d(frequencies, amplitudes, n_points: int) -> Dataset:
    """y = sum_j a_j sin(w_j x) on the uniform grid [-pi, pi), endpoint open.

    With integer frequencies every tone lands exactly on a DFT bin of the
    grid, which the spectral harness relies on.
    """
    frequencies = list(frequencies)
    amplitudes = list(amplitudes)
    if len(frequencies) != len(amplitudes) or not frequencies:
        raise ValueError("need matching nonempty frequency and amplitude lists")
    if n_points < 4:
        raise ValueError("need at least 4 grid points")
    x = np.linspace(-np.pi, np.pi, n_points, endpoint=False)
    y = np.zeros_like(x)
    for w, a in zip(frequencies, amplitudes):
        y += a * np.sin(w * x)
    return Dataset(inputs=x[:, None], targets=y[:, None])


def randomize_labels(data: Dataset, r: float, seed: int) -> Dataset:
    """Replace a seeded fraction r of labels with uniform draws over all classes.

    Exactly round(r n) rows are drawn again, and a replacement may repeat
    the original class, so the expected changed fraction is r (1 - 1/K).
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"randomization level must be in [0, 1], got {r}")
    if not data.is_classification:
        raise ValueError("label randomization needs a classification dataset")
    n, k = data.n, data.k_classes
    rng = np.random.default_rng(seed)
    n_pick = int(round(r * n))
    targets = data.targets.copy()
    if n_pick > 0:
        picked = rng.choice(n, size=n_pick, replace=False)
        targets[picked] = _one_hot(rng.integers(0, k, size=n_pick), k)
    return Dataset(inputs=data.inputs.copy(), targets=targets, k_classes=k)


def load_cifar10_bin(path, max_records: int) -> Dataset:
    """First max_records records of a CIFAR-10 binary file.

    Record layout: 1 label byte (0-9) then 3072 pixel bytes (R, G, B
    planes, row-major 32x32). Pixels are scaled to [0, 1] and flattened;
    labels become one-hot rows.
    """
    if max_records < 1:
        raise ValueError("empty request: max_records must be >= 1")
    raw = Path(path).read_bytes()
    if len(raw) % CIFAR_RECORD_BYTES != 0:
        raise ValueError(
            f"truncated record: file length {len(raw)} leaves a partial record "
            f"at byte offset {len(raw) - len(raw) % CIFAR_RECORD_BYTES}"
        )
    available = len(raw) // CIFAR_RECORD_BYTES
    if available < max_records:
        raise ValueError(
            f"requested {max_records} records but file holds {available}"
        )
    arr = np.frombuffer(raw, dtype=np.uint8, count=max_records * CIFAR_RECORD_BYTES)
    records = arr.reshape(max_records, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(int)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise ValueError(
            f"label {labels[bad[0]]} out of range at byte offset "
            f"{int(bad[0]) * CIFAR_RECORD_BYTES}"
        )
    pixels = records[:, 1:].astype(np.float64) / 255.0
    return Dataset(inputs=pixels, targets=_one_hot(labels, CIFAR_CLASSES),
                   k_classes=CIFAR_CLASSES)


def write_cifar10_bin(path, labels: np.ndarray, pixels: np.ndarray) -> None:
    """Inverse of the loader, for round-trip checks and synthetic fixtures."""
    labels = np.asarray(labels)
    pixels = np.asarray(pixels)
    if pixels.shape != (labels.size, CIFAR_PIXELS):
        raise ValueError(f"pixels must be (n, {CIFAR_PIXELS}) bytes")
    records = np.empty((labels.size, CIFAR_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = pixels
    Path(path).write_bytes(records.tobytes())


def train_val_split(data: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle then split; the two sides are disjoint and exhaustive."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(data.n)
    n_train = int(round(fraction * data.n))
    if n_train < 1 or n_train >= data.n:
        raise ValueError(f"split of {data.n} samples at {fraction} leaves a side empty")
    return data.subset(perm[:n_train]), data.subset(perm[n_train:])

