"""Dataset generators, delimited-text loading, splitting, standardization.

All randomness flows through the portable counter-based streams in
``rng.py``, so a (name, n, seed) triple yields bit-identical arrays on any
platform. Generators consume their draws in a fixed documented order; where a
point's branch ignores a draw, the draw is still consumed, which keeps the
stream layout independent of branch outcomes.

2-D densities (n, 2):

* checkerboard: uniform on [-4, 4]^2, accepted when floor(x1) + floor(x2) is
  even (acceptance rate exactly 1/2).
* funnel: v ~ N(0, 1), x ~ N(0, e^{2v}); the pair (v, x) is clipped
  coordinatewise to [-6, 6].
* pinwheel: 5 arms; radius 1 + 0.3 eps_r, tangential offset 0.05 eps_t,
  arm angle 2 pi k / 5 plus a swirl equal to the radius, scaled by 2.
* four_circles: ring radius in {1, 2, 3, 4}, uniform angle, plus isotropic
  N(0, 0.1^2) noise.

1-D regression pairs (n, 2) with columns (x, y):

* regression1: x ~ U(-3, 3). For x < 0, y is the mixture
  0.2 N(-2, 0.5^2) + 0.8 N(1, 0.5^2); for x >= 0, y ~ LogNormal(0, 0.25).
* regression2: x ~ U(0, 1) in four chunks split at 0.21 / 0.47 / 0.61:
  Beta(0.5, 1); N(m, m^2) with m = 3 cos x - 2; U(0, 4x); and an equal
  mixture of U(8, 8.5), U(1, 4), U(-4.5, -3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import PortableRng

DENSITY_NAMES = ("checkerboard", "funnel", "pinwheel", "four_circles")
REGRESSION_NAMES = ("regression1", "regression2")
DEFAULT_DENSITY_N = 10000  # 70/10/20 split gives exactly 7000/1000/2000
DEFAULT_REGRESSION_N = 2858  # 70/10/20 split gives the stated 2000 training pairs


def _checkerboard(n: int, rng: PortableRng) -> np.ndarray:
    rows = []
    have = 0
    while have < n:
        chunk = 2 * (n - have) + 64
        u = rng.uniform((chunk, 2), -4.0, 4.0)
        parity = (np.floor(u[:, 0]) + np.floor(u[:, 1])).astype(np.int64) % 2
        keep = u[parity == 0]
        rows.append(keep)
        have += keep.shape[0]
    return np.concatenate(rows)[:n]


def _funnel(n: int, rng: PortableRng) -> np.ndarray:
    v = rng.normal(n)
    x = rng.normal(n) * np.exp(v)
    return np.clip(np.column_stack([v, x]), -6.0, 6.0)


def _pinwheel(n: int, rng: PortableRng) -> np.ndarray:
    arm = rng.integers(n, 5)
    eps = rng.normal((n, 2))
    radius = 1.0 + 0.3 * eps[:, 0]
    tangent = 0.05 * eps[:, 1]
    angle = 2.0 * np.pi * arm / 5.0 + radius  # swirl proportional to radius
    x1 = radius * np.cos(angle) - tangent * np.sin(angle)
    x2 = radius * np.sin(angle) + tangent * np.cos(angle)
    return 2.0 * np.column_stack([x1, x2])


def _four_circles(n: int, rng: PortableRng) -> np.ndarray:
    ring = rng.integers(n, 4)
    angle = rng.uniform(n, 0.0, 2.0 * np.pi)
    noise = 0.1 * rng.normal((n, 2))
    radius = (ring + 1).astype(np.float64)
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)]) + noise


def _regression1(n: int, rng: PortableRng) -> np.ndarray:
    x = rng.uniform(n, -3.0, 3.0)
    u = rng.uniform(n)
    z = rng.normal(n)
    mix_mean = np.where(u < 0.2, -2.0, 1.0)
    y = np.where(x < 0.0, mix_mean + 0.5 * z, np.exp(0.25 * z))
    return np.column_stack([x, y])


def _regression2(n: int, rng: PortableRng) -> np.ndarray:
    x = rng.uniform(n)
    u1 = rng.uniform(n)
    z = rng.normal(n)
    branch = rng.integers(n, 3)
    u2 = rng.uniform(n)
    m = 3.0 * np.cos(x) - 2.0
    lo = np.array([8.0, 1.0, -4.5])[branch]
    width = np.array([0.5, 3.0, 1.5])[branch]
    y = np.where(
        x < 0.21,
        u1 * u1,  # Beta(0.5, 1) by inverse cdf
        np.where(x < 0.47, m + np.abs(m) * z, np.where(x < 0.61, 4.0 * x * u1, lo + width * u2)),
    )
    return np.column_stack([x, y])


_GENERATORS = {"checkerboard": _checkerboard, "funnel": _funnel, "pinwheel": _pinwheel,
               "four_circles": _four_circles, "regression1": _regression1, "regression2": _regression2}


def generate(name: str, n: int, rng: PortableRng) -> np.ndarray:
    """n rows of the built-in dataset ``name``, drawn from ``rng``."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown dataset {name!r}")
    return _GENERATORS[name](n, rng)


@dataclass(frozen=True)
class DatasetSplit:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def split_sizes(n: int) -> tuple[int, int, int]:
    """Train, validation and test rows of the 70/10/20 split of n rows.

    Below 10 rows the validation split would be empty, so that is a
    ``ValueError`` naming n.
    """
    if n < 10:
        raise ValueError(f"the 70/10/20 split needs at least 10 rows, got n = {n}")
    n_train, n_val = (7 * n) // 10, n // 10
    return n_train, n_val, n - n_train - n_val


def split_70_10_20(points: np.ndarray, seed: int) -> DatasetSplit:
    """The 70/10/20 split of ``points``: the rows permuted by the seed's
    "split" stream, then cut into contiguous train, validation and test runs."""
    points = np.asarray(points, dtype=np.float64)
    n_train, n_val, _ = split_sizes(points.shape[0])
    shuffled = points[PortableRng(seed).split("split").permutation(points.shape[0])]
    return DatasetSplit(train=shuffled[:n_train], val=shuffled[n_train : n_train + n_val],
                        test=shuffled[n_train + n_val :])


def load_named(name: str, n: int, seed: int) -> DatasetSplit:
    """Generate a built-in dataset and split it 70/10/20, all from one seed.

    Draw and split use separate rng streams so the same rows land in the
    same splits whether generated here or through the CLI.
    """
    split_sizes(n)  # a bad n fails here, before any generator sees it
    return split_70_10_20(generate(name, n, PortableRng(seed).split("draw")), seed)


@dataclass(frozen=True)
class Standardizer:
    """Per-column affine map x -> (x - mean) / scale; scale is the population
    standard deviation (denominator n) of the fitting split."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.scale.shape:
            raise ValueError(f"mean and scale differ in shape, {self.mean.shape} and {self.scale.shape}")
        if not np.all(self.scale > 0.0):
            i = int(np.argmin(self.scale > 0.0))
            raise ValueError(f"scale must be above 0, got {self.scale[i]} at index {i}")

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.scale

    def transform_split(self, split: DatasetSplit) -> DatasetSplit:
        return DatasetSplit(
            train=self.transform(split.train),
            val=self.transform(split.val),
            test=self.transform(split.test),
        )


def fit_standardizer(points: np.ndarray) -> Standardizer:
    points = np.asarray(points, dtype=np.float64)
    mean = points.mean(axis=0)
    scale = points.std(axis=0)  # ddof=0
    if np.any(scale == 0.0):
        col = int(np.argmax(scale == 0.0))
        raise ValueError(f"column {col} has zero variance; cannot standardize")
    return Standardizer(mean=mean, scale=scale)


def load_delimited(path: str, has_header: bool = False) -> np.ndarray:
    """Load numeric rows from comma- or whitespace-delimited UTF-8 text.

    Blank lines are skipped, and with ``has_header`` so is the first line
    that is not blank. A leading byte-order mark (spreadsheet CSV exports)
    is dropped. Ragged rows and non-numeric or non-finite cells raise
    ValueError naming the file, its 1-based line and the column.
    """
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [(line_no, line) for line_no, line in enumerate(fh.read().splitlines(), start=1) if line.strip()]
    for line_no, line in lines[1 if has_header else 0 :]:
        fields = line.split(",") if "," in line else line.split()
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ValueError(f"{path}: row {line_no} has {len(fields)} fields, expected {width}")
        row = []
        for col, field in enumerate(fields, start=1):
            try:
                value = float(field)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value {field.strip()!r} at row {line_no}, column {col}") from None
            if not math.isfinite(value):  # nan, inf, or a literal past the float64 range
                raise ValueError(f"{path}: non-finite value {field.strip()!r} at row {line_no}, column {col}")
            row.append(value)
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)
