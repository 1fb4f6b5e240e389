"""Datasets, data loaders and image augmentation transforms.

The transforms mirror the "standard data augmentations" of the paper's
experimental setup: random cropping with padding, horizontal flipping and
per-channel normalization.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Dataset",
    "ArrayDataset",
    "Subset",
    "DataLoader",
    "Compose",
    "RandomCrop",
    "RandomHorizontalFlip",
    "Normalize",
]

Batch = Tuple[np.ndarray, np.ndarray]
Transform = Callable[[np.ndarray, np.random.Generator], np.ndarray]


class Dataset:
    """Abstract map-style dataset of ``(image, label)`` pairs."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        raise NotImplementedError


class ArrayDataset(Dataset):
    """In-memory dataset backed by ``(N, C, H, W)`` images and ``(N,)`` labels."""

    def __init__(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        transform: Optional[Transform] = None,
        seed: int = 0,
    ) -> None:
        if len(images) != len(labels):
            raise ValueError(
                f"images ({len(images)}) and labels ({len(labels)}) disagree"
            )
        self.images = images
        self.labels = labels
        self.transform = transform
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        image = self.images[index]
        if self.transform is not None:
            image = self.transform(image, self._rng)
        return image, int(self.labels[index])


class Subset(Dataset):
    """A view over a subset of another dataset's indices."""

    def __init__(self, dataset: Dataset, indices: Sequence[int]) -> None:
        self.dataset = dataset
        self.indices = list(indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.dataset[self.indices[index]]


class DataLoader:
    """Mini-batch iterator with optional shuffling.

    Yields ``(images, labels)`` ndarray pairs; images are stacked into an
    ``(B, C, H, W)`` float array and labels into an int vector.

    The loader keeps lifetime throughput counters
    (``batches_served`` / ``samples_served``) so callers — e.g. the
    telemetry layer — can report data-pipeline throughput without the
    ``nn`` substrate depending on anything outside itself.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int = 32,
        shuffle: bool = False,
        drop_last: bool = False,
        seed: int = 0,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = np.random.default_rng(seed)
        self.batches_served = 0
        self.samples_served = 0

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Batch]:
        order = np.arange(len(self.dataset))
        if self.shuffle:
            self._rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            idx = order[start : start + self.batch_size]
            if self.drop_last and len(idx) < self.batch_size:
                return
            images: List[np.ndarray] = []
            labels: List[int] = []
            for i in idx:
                image, label = self.dataset[int(i)]
                images.append(image)
                labels.append(label)
            self.batches_served += 1
            self.samples_served += len(labels)
            yield np.stack(images), np.asarray(labels, dtype=np.int64)


class Compose:
    """Chain transforms left to right."""

    def __init__(self, transforms: Sequence[Transform]) -> None:
        self.transforms = list(transforms)

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        for t in self.transforms:
            image = t(image, rng)
        return image


class RandomCrop:
    """Pad by ``padding`` pixels then crop a random ``size`` x ``size`` patch."""

    def __init__(self, size: int, padding: int = 4) -> None:
        self.size = size
        self.padding = padding

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        p = self.padding
        padded = np.pad(image, ((0, 0), (p, p), (p, p)))
        max_offset = padded.shape[1] - self.size
        top = int(rng.integers(0, max_offset + 1))
        left = int(rng.integers(0, max_offset + 1))
        return padded[:, top : top + self.size, left : left + self.size]


class RandomHorizontalFlip:
    """Flip the image horizontally with probability ``p``."""

    def __init__(self, p: float = 0.5) -> None:
        self.p = p

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if rng.random() < self.p:
            return image[:, :, ::-1].copy()
        return image


class Normalize:
    """Per-channel standardization ``(x - mean) / std``."""

    def __init__(self, mean: Sequence[float], std: Sequence[float]) -> None:
        self.mean = np.asarray(mean, dtype=np.float64).reshape(-1, 1, 1)
        self.std = np.asarray(std, dtype=np.float64).reshape(-1, 1, 1)

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return (image - self.mean) / self.std
