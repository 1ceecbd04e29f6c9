"""Decimal text round-tripping for float64 values.

Checkpoints and distribution descriptors store floats as %.17g strings: 17
significant digits are enough to reproduce any finite double exactly, so a
written artifact reloads bit-identically on any platform. ``parse`` reads
every one back, and checks it; ``parse_count`` reads the integers that size a
model or distribution (network widths, a dimension).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


def fmt(x: float) -> str:
    return "%.17g" % float(x)


def fmt_vector(arr: np.ndarray) -> list[str]:
    return [fmt(v) for v in np.asarray(arr, dtype=np.float64).ravel()]


def fmt_matrix(arr: np.ndarray) -> list[list[str]]:
    return [[fmt(v) for v in row] for row in np.asarray(arr, dtype=np.float64)]


@contextmanager
def named(key: str):
    """Re-raise a malformed value in the block (ValueError, TypeError or
    AttributeError) as a ValueError naming ``key``; a KeyError passes."""
    try:
        yield
    except (TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def _leaves(value, depth: int, leaf):
    if depth and not isinstance(value, list):
        raise ValueError(f"expected a list, got {type(value).__name__}")
    return [_leaves(v, depth - 1, leaf) for v in value] if depth else leaf(value)


def _count(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"expected an integer of at least 1, got {value!r}")
    return value


def parse(desc: dict, key: str, shape: tuple = (None,)) -> np.ndarray:
    """The float64 array that ``desc`` stores under ``key``: a %.17g string
    for shape (), a list of them for a vector, a list of such lists for a
    matrix. A None in ``shape`` takes any length. Every value must be finite;
    a fault is a ValueError naming ``key``."""
    value = desc[key]
    with named(key):
        arr = np.array(_leaves(value, len(shape), float), dtype=np.float64)
        if any(want is not None and want != got for want, got in zip(shape, arr.shape)):
            raise ValueError(f"expected shape {shape}, got {arr.shape}")
        finite = np.isfinite(arr)
        if not finite.all():
            at = tuple(int(i) for i in np.unravel_index(np.argmin(finite), arr.shape))
            where = f" at index {at[0] if len(at) == 1 else at}" if at else ""
            raise ValueError(f"must be finite, got {arr[at]}{where}")
    return arr


def parse_count(desc: dict, key: str, depth: int = 0):
    """The integer of at least 1 that ``desc`` stores under ``key`` (depth 0),
    or a list of them (depth 1); a bool, a float or a string is a ValueError
    naming ``key``, so that no size is truncated."""
    with named(key):
        return _leaves(desc[key], depth, _count)
